"""The per-draw `verify` checks as they were before the checks went columnar.

Each check here draws its inputs one set at a time and evaluates them
with the one-set functions (kf_from_kappas, kappas_from_kf,
check_invariants, contract4, rho_sigma, delta_nonbiref, ...), with the
commutators and bar adjoints of the Fock-space checks as full sparse
products, and the Lorenz checks' basis states built for every draw.
reference_verify runs these groups in cmd_verify's order on one
generator, so its records are the reference for cmd_verify's.  random_kappas is the one-set draw, block
by block, that kappa_draws must reproduce; the checks here draw with it.
"""

import copy

import numpy as np
import scipy.sparse as sp

from lvphoton import checks
from lvphoton import dispersion as dp
from lvphoton import fock_space as fs
from lvphoton import hamiltonian as hm
from lvphoton import interaction as ia
from lvphoton import kappa_tensor as kt
from lvphoton import lorenz as lz
from lvphoton import modes as md


def random_kappas(rng, scale=1e-2, birefringent=False):
    """Draw a random valid KappaSet with entries of order `scale`."""
    kw = dict(
        e_minus=kt.sym_traceless(rng.normal(size=(3, 3)) * scale),
        o_plus=kt.antisym(rng.normal(size=(3, 3)) * scale),
        tr=float(rng.normal() * scale),
    )
    if birefringent:
        kw["e_plus"] = kt.sym_traceless(rng.normal(size=(3, 3)) * scale)
        kw["o_minus"] = kt.sym_traceless(rng.normal(size=(3, 3)) * scale)
    return kt.KappaSet(**kw)


def _check(name, measured, tolerance, **extra):
    record = {"name": name, "tolerance": tolerance, "measured": float(measured)}
    record.update(extra)
    record["pass"] = bool(record["measured"] <= tolerance)
    return record


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        # proper rotations only; a reflection flips the sign of the
        # antisymmetric parameter block and breaks covariance
        q[:, 0] = -q[:, 0]
    return q


def _tensor_checks(rng):
    worst_round = 0.0
    for _ in range(200):
        k = random_kappas(rng, 1e-2, birefringent=bool(rng.integers(2)))
        worst_round = max(worst_round, kt.kappa_distance(k, kt.kappas_from_kf(kt.kf_from_kappas(k))))
    yield _check("kappa_roundtrip", worst_round, 1e-12)

    worst = 0.0
    for _ in range(50):
        kf = kt.kf_from_kappas(random_kappas(rng, 1e-2, birefringent=True))
        worst = max(worst, kt.check_invariants(kf).max_violation)
    yield _check("kf_structural_invariants", worst, 1e-12)

    worst_sym = 0.0
    worst_bianchi = 0.0
    worst_identity = 0.0
    for _ in range(200):
        k = random_kappas(rng, 1e-2)
        kf = kt.kf_from_kappas(k)
        w, x, y, z = (rng.normal(size=4) for _ in range(4))
        base = kt.contract4(kf, w, x, y, z)
        worst_sym = max(
            worst_sym,
            abs(base + kt.contract4(kf, x, w, y, z)),
            abs(base + kt.contract4(kf, w, x, z, y)),
            abs(base - kt.contract4(kf, y, z, w, x)),
        )
        worst_bianchi = max(
            worst_bianchi,
            abs(
                base
                + kt.contract4(kf, w, z, x, y)
                + kt.contract4(kf, w, y, z, x)
            ),
        )
        closed = kt.contract4_kappa(k, w, x, y, z)
        scale = max(abs(base), abs(closed), 1e-30)
        worst_identity = max(worst_identity, abs(base - closed) / scale)
    yield _check("contraction_antisymmetry", worst_sym, 1e-12)
    yield _check("contraction_bianchi", worst_bianchi, 1e-12)
    yield _check("contraction_closed_form", worst_identity, 1e-10)


def _dispersion_checks(rng):
    worst_parity = 0.0
    for _ in range(100):
        khat = dp.random_directions(rng)
        f = dp.polarization_frame(khat)
        g = dp.polarization_frame(-khat)
        worst_parity = max(
            worst_parity,
            float(np.max(np.abs(g.eps1 - f.eps1))),
            float(np.max(np.abs(g.eps2 + f.eps2))),
            float(np.max(np.abs(g.khat + f.khat))),
        )
    yield _check("frame_parity", worst_parity, 0.0)

    worst_rho = 0.0
    worst_sigma = 0.0
    for _ in range(50):
        k = random_kappas(rng, 1e-2)
        kf = kt.kf_from_kappas(k)
        khat = dp.random_directions(rng)
        rho, sigma = dp.rho_sigma(kf, khat)
        worst_rho = max(worst_rho, abs(rho - dp.delta_nonbiref(k, khat)))
        worst_sigma = max(worst_sigma, sigma)
    yield _check("rho_equals_delta", worst_rho, 1e-12)
    # sigma is the square root of a quadratically small discriminant, so
    # its noise floor sits near sqrt(eps * kappa^2), not near eps
    yield _check("sigma_nonbirefringent", worst_sigma, 1e-7)

    worst_cov = 0.0
    for _ in range(20):
        k = random_kappas(rng, 1e-2)
        khat = dp.random_directions(rng)
        rot = _random_rotation(rng)
        worst_cov = max(
            worst_cov,
            abs(
                dp.delta_nonbiref(k.rotated(rot), rot @ khat)
                - dp.delta_nonbiref(k, khat)
            ),
        )
    yield _check("delta_rotation_covariance", worst_cov, 1e-12)

    # one set of 10 shapes and directions at all three scales, drawn
    # from the first 10 of 30 rounds of draws
    rounds = []
    for _ in range(30):
        rounds.append(copy.deepcopy(rng))
        random_kappas(rng)
        dp.random_directions(rng)
    residuals = []
    for scale in (1e-2, 1e-3, 1e-4):
        worst = 0.0
        for start in rounds[:10]:
            again = copy.deepcopy(start)
            k = random_kappas(again, scale)
            kf = kt.kf_from_kappas(k)
            khat = dp.random_directions(again)
            delta = dp.delta_nonbiref(k, khat)
            omegas, _ = dp.solve_ampere(kf, khat)
            for omega in omegas:
                worst = max(worst, abs(omega - (1.0 + delta)))
        residuals.append(worst)
    slope, _ = np.polyfit(
        np.log10([1e-2, 1e-3, 1e-4]), np.log10(residuals), 1
    )
    yield _check(
        "ampere_scaling_exponent",
        abs(slope - 2.0),
        0.2,
        residuals=residuals,
    )


def _fock_checks(rng):
    space = fs.build_space(2)
    m = fs.metric_M(space)
    eye = sp.identity(space.dim, format="csr")
    yield _check(
        "metric_involution",
        max(abs(m @ m - eye).max(), abs(m - m.conj().T).max()),
        0.0,
    )

    interior = sp.diags(fs.interior_mask(space).astype(complex), format="csr")
    worst = 0.0
    modes = [fs.ModeId(d, r) for d in (fs.PLUS_K, fs.MINUS_K) for r in range(4)]
    lower = {mode: fs.annihilator(space, mode) for mode in modes}
    bar = {mode: fs.bar_adjoint(space, a) for mode, a in lower.items()}
    for a_mode in modes:
        a = lower[a_mode]
        for b_mode in modes:
            comm = a @ bar[b_mode] - bar[b_mode] @ a
            if a_mode == b_mode:
                comm = comm - md.ZETA[a_mode.polarization] * eye
            worst = max(worst, abs(interior @ comm @ interior).max())
    yield _check("ladder_commutators_interior", worst, 1e-13)

    worst = 0.0
    for _ in range(5):
        ops = []
        for _ in range(2):
            mode = modes[rng.integers(len(modes))]
            coeff = rng.normal() + 1j * rng.normal()
            ops.append(coeff * lower[mode] + bar[modes[rng.integers(len(modes))]])
        ab = ops[0] @ ops[1]
        worst = max(
            worst,
            abs(
                fs.bar_adjoint(space, ab)
                - fs.bar_adjoint(space, ops[1]) @ fs.bar_adjoint(space, ops[0])
            ).max(),
        )
    yield _check("bar_antihomomorphism", worst, 1e-12)

    worst = 0.0
    for direction in (fs.PLUS_K, fs.MINUS_K):
        a_d, a_g = fs.dg_operators(space, direction)
        a3 = fs.annihilator(space, fs.ModeId(direction, 3))
        worst = max(worst, abs((a_g - 1j * a_d) / np.sqrt(2) - a3).max())
    yield _check("dg_inversion", worst, 1e-15)


def _hamiltonian_checks(rng, config):
    space = fs.build_space(2)
    worst = 0.0
    for _ in range(3):
        k = random_kappas(rng, 1e-2)
        frame = dp.polarization_frame(dp.random_directions(rng))
        raw = hm.build_raw(space, kt.kf_from_kappas(k), frame)
        worst = max(worst, abs(raw - hm.build_grouped(space, k, frame)).max())
    yield _check("raw_grouped_equivalence", worst, 1e-12)

    frame = dp.polarization_frame(config.direction)
    mdiag = fs.metric_diagonal(space)
    worst = 0.0
    for k in (config.kappas, random_kappas(rng, 1e-2)):
        terms = md.mode_terms(k, frame)
        blocks = [fs.monomial_sum(space, terms[name]) for name in terms if name != "xi"]
        for block in blocks + [hm.build_grouped(space, k, frame)]:
            bar = sp.diags(mdiag) @ block.conj().T @ sp.diags(mdiag)
            worst = max(worst, abs(bar - block).max())
    yield _check("bar_self_adjoint", worst, 1e-13)

    small = fs.build_space(1)
    t = min(config.time, lz.MAX_LEAKAGE_TIME)
    k = random_kappas(rng, 1e-2)
    h = hm.build_grouped(small, k, dp.polarization_frame(config.direction))
    u = np.zeros((small.dim, small.dim), dtype=complex)
    identity = sp.identity(small.dim, dtype=complex, format="csc")
    for rows, ids, evolved in fs.propagate_blocks(h, identity, t):
        u[np.ix_(rows, ids)] = evolved
    m_small = fs.metric_diagonal(small)
    bar_u = (m_small[:, None] * u.conj().T) * m_small[None, :]
    yield _check(
        "metric_unitarity",
        np.max(np.abs(bar_u @ u - np.eye(small.dim))),
        1e-10,
        time=t,
    )

    h0 = hm.build_grouped(space, kt.KappaSet(), frame)
    worst = 0.0
    for direction in (fs.PLUS_K, fs.MINUS_K):
        for pol in (1, 2):
            n = fs.number_operator(space, fs.ModeId(direction, pol))
            worst = max(worst, abs(h0 @ n - n @ h0).max())
    yield _check("kappa_zero_number_conservation", worst, 0.0)

    # [P, Xi] = 0 exactly: P is diagonal and every Xi term moves one +k
    # and one -k quantum together
    momentum = hm.momentum_operator(space, config.direction)
    xi = hm.xi_generators(space, config.kappas, frame)
    worst = max(abs(p @ xi - xi @ p).max() for p in momentum)
    yield _check("momentum_kappa_independent", worst, 0.0)

    h = hm.build_grouped(space, random_kappas(rng, 1e-2), frame)
    worst = max(abs(p @ h - h @ p).max() for p in momentum)
    yield _check("momentum_commutes", worst, 1e-12)

    shape = random_kappas(rng, 1e-2)
    residuals = []
    crosses = []
    for scale in (1e-2, 1e-3):
        row = md.spectrum_values(shape.scaled(scale / shape.magnitude), frame)
        residuals.append(
            max(row["gap_residual_plus"], row["gap_residual_minus"])
        )
        crosses.append(row["cross_after"])
    slope_gap, _ = np.polyfit(np.log10([1e-2, 1e-3]), np.log10(residuals), 1)
    slope_cross, _ = np.polyfit(np.log10([1e-2, 1e-3]), np.log10(crosses), 1)
    yield _check(
        "transverse_gap_quadratic",
        abs(slope_gap - 2.0),
        0.2,
        residuals=residuals,
    )
    yield _check(
        "cross_term_suppression_quadratic",
        abs(slope_cross - 2.0),
        0.2,
        residuals=crosses,
    )


def _lorenz_checks(rng, config, inject_c_leakage):
    g = lz.ghost_space(3)
    gram = lz.ghost_pairing(g)
    occ = g.occupations
    bad_norm = 0
    bad_pairing = 0
    dense = gram.toarray()
    for i in range(g.dim):
        nd, ng, ndp, ngp = (int(x) for x in occ[i])
        label = lz._classify_tuple(nd, ng, ndp, ngp)
        self_paired = label in (lz.StateClass.A, lz.StateClass.C)
        if (dense[i, i] != 0) != self_paired:
            bad_norm += 1
        partner = g.index_of((ng, nd, ngp, ndp))
        row = dense[i]
        # the row's entry sits at the partner column and carries the
        # partner's phase, i^((nd - ng) + (ndp - ngp))
        want_phase = lz.pairing_phase((0, 0, ng, nd), (0, 0, ngp, ndp))
        if row[partner] != want_phase or np.count_nonzero(row) != 1:
            bad_pairing += 1
    yield _check("ghost_norm_classification", bad_norm, 0.0)
    yield _check("ghost_pairing_phase", bad_pairing, 0.0)

    lslv = lz.ghost_lslv(g, 0.37)
    tls = lz.ghost_pm_tls(g, 0.61, 0.83)
    eye = sp.identity(g.dim, format="csr", dtype=complex)
    pow_lslv = [eye]
    pow_tls = [eye]
    for _ in range(3):
        pow_lslv.append((pow_lslv[-1] @ lslv).tocsr())
        pow_tls.append((pow_tls[-1] @ tls).tocsr())
    self_paired = (occ[:, 0] == occ[:, 1]) & (occ[:, 2] == occ[:, 3])
    disagreements = 0
    for n1 in range(4):
        for n2 in range(4 - n1):
            best = np.abs((pow_lslv[n1] @ pow_tls[n2]).toarray()[self_paired, :]).max(axis=0)
            for start in range(g.dim):
                nd, ng, ndp, ngp = (int(x) for x in occ[start])
                oracle = lz.counting_oracle(nd, ng, ndp, ngp, n1, n2)
                if not oracle and best[start] >= 1e-12:
                    disagreements += 1
                elif (
                    oracle
                    and nd + n1 + n2 <= g.cutoff
                    and ngp + n1 + n2 <= g.cutoff
                    and best[start] <= 1e-12
                ):
                    disagreements += 1
    yield _check("counting_oracle_agreement", disagreements, 0.0)

    space = fs.build_space(2)
    failures = 0
    for _ in range(10):
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi = (
            coeffs[0] * fs.dg_basis_state(space, (0, 0, 0, 0))
            + coeffs[1] * fs.dg_basis_state(space, (1, 0, 0, 1))
            + coeffs[2]
            * fs.dg_basis_state(space, (0, 1, 0, 0), (0, 0, 0, int(rng.integers(3))))
        )
        if lz.gupta_bleuler_check(space, psi) and not lz.weak_lorenz_check(space, psi):
            failures += 1
    yield _check("gb_implies_weak_lorenz", failures, 0.0)

    observable = (
        fs.number_operator(space, fs.ModeId(fs.PLUS_K, 1))
        + 0.7 * fs.number_operator(space, fs.ModeId(fs.MINUS_K, 2))
    ).tocsr()
    pure = fs.dg_basis_state(space, (1, 1, 0, 0), (0, 1, 0, 0))
    dressed = 0.8 * pure + 0.5 * fs.dg_basis_state(
        space, (1, 1, 0, 1), (0, 1, 0, 0)
    )
    mean_pure = fs.indefinite_inner(space, pure, observable @ pure) / fs.indefinite_inner(
        space, pure, pure
    )
    mean_dressed = fs.indefinite_inner(
        space, dressed, observable @ dressed
    ) / fs.indefinite_inner(space, dressed, dressed)
    yield _check("g_photon_decoupling", abs(mean_dressed - mean_pure), 1e-12)

    frame = dp.polarization_frame(config.direction)
    magnitude = config.kappas.magnitude
    leak_scale = magnitude
    leak_kappas = config.kappas
    if magnitude > 1e-3:
        # the C-leakage bound is certified in the truncation-artifact-free
        # regime; larger parameters are checked at a rescaled magnitude
        leak_scale = 1e-3
        leak_kappas = config.kappas.scaled(leak_scale / magnitude)
    h = hm.build_grouped(space, leak_kappas, frame)
    if inject_c_leakage:
        h = checks._inject_c_defect(space, h)
    t = min(config.time, lz.MAX_LEAKAGE_TIME)
    yield _check(
        "c_class_leakage",
        lz.invariance_leakage(space, h, t),
        1e-12,
        scale=leak_scale,
        time=t,
        injected=bool(inject_c_leakage),
    )

    worst = 0.0
    for _ in range(20):
        c_t = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = c_t[0] * fs.dg_basis_state(space, (0, 0, 0, 0)) + c_t[
            1
        ] * fs.dg_basis_state(space, (1, 0, 0, 0))
        c_b = rng.normal(size=2) + 1j * rng.normal(size=2)
        varphi = c_b[0] * fs.dg_basis_state(space, (0, 0, 2, 0)) + c_b[
            1
        ] * fs.dg_basis_state(space, (1, 0, 1, 0), (0, 0, 1, 0))
        c1, c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        mean1, mean2 = lz.observable_indistinguishability(
            space, psi, varphi, c1, c2, observable
        )
        worst = max(worst, abs(mean1 - mean2))
    yield _check("observable_indistinguishability", worst, 1e-12)


def _interaction_checks(rng):
    worst = 0.0
    for _ in range(20):
        k = random_kappas(rng, 1e-2)
        table = ia.vint_coefficients(k)
        want = (k.e_minus[1, 1] - k.e_minus[0, 0]) / 2.0
        worst = max(worst, abs(table[0, 0] - table[1, 1] - want))
        khat = dp.random_directions(rng)
        frame = dp.polarization_frame(khat)
        delta1, _ = dp.mixing_deltas(k, frame)
        oblique = ia.vint_coefficients(k, khat)
        worst = max(worst, abs(oblique[0, 0] - oblique[1, 1] - (-2.0 * delta1)))
    yield _check("coupling_asymmetry", worst, 1e-15)

    space = hm.transverse_space(1)
    frame = dp.polarization_frame(dp.Z_AXIS)
    worst = 0.0
    for _ in range(5):
        k = random_kappas(rng, 1e-2)
        first_1, first_2 = ia.first_order_potentials(space, k, frame)
        got = ia.extract_couplings(space, first_1, first_2)
        want = ia.vint_coefficients(k)
        worst = max(worst, *np.abs(got - want).ravel())
    yield _check("coupling_extraction", worst, 1e-12)


def reference_verify(config, seed=0, inject_c_leakage=False):
    """The records cmd_verify gave with the per-draw checks, in its order."""
    rng = np.random.default_rng(seed)
    records = []
    records.extend(_tensor_checks(rng))
    records.extend(_dispersion_checks(rng))
    records.extend(_fock_checks(rng))
    records.extend(_hamiltonian_checks(rng, config))
    records.extend(_lorenz_checks(rng, config, inject_c_leakage))
    records.extend(_interaction_checks(rng))
    return records
