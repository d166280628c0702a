"""The `verify` suite: named invariant checks across every module.

Each check draws its inputs from one seeded generator and yields a
record {name, tolerance, measured, margin, ..., pass}; `cmd_verify`
runs them in a fixed order, adds each record's elapsed_s and aggregates
the report.  The tensor and dispersion checks are columnar: a check
draws all its inputs in one call, with the stream of one-at-a-time
draws, and evaluates them in whole-array calls of the same functions
that take one set, tensor or direction (kt.kf_from_kappas on stacked
sets, dp.rho_sigma on one tensor per direction, ...).  The suite is
the only user of the Fock-space stack, so `lvphoton.cli` imports this
module only when `verify` runs.

Every traced function is called through its module attribute
(`kt.kf_from_kappas`, `lz.invariance_leakage`, ...), never bound by
name here, so that a wrapper put on the module attribute sees the call.
"""

import itertools
import math
import time

import numpy as np
import scipy.sparse as sp

from . import dispersion as dp
from . import fock_space as fs
from . import hamiltonian as hm
from . import interaction as ia
from . import kappa_tensor as kt
from . import lorenz as lz
from . import modes as md


def _check(name, measured, tolerance, **extra):
    measured = float(measured)
    record = {
        "name": name,
        "tolerance": tolerance,
        "measured": measured,
        "margin": _margin(measured, tolerance),
    }
    record.update(extra)
    record["pass"] = bool(measured <= tolerance)
    return record


def _margin(measured, tolerance):
    """measured / tolerance; a zero tolerance gives 0.0 for 0 and None otherwise.

    Never inf or nan, which a JSON reader would refuse: a ratio that is
    not finite is None too.
    """
    if tolerance == 0.0:
        return 0.0 if measured == 0.0 else None
    ratio = measured / tolerance
    return ratio if math.isfinite(ratio) else None


def _quadratic_slope_error(x, y):
    """|s - 2| of the log-log slope s of y over x; nan, which fails, where none is fitted."""
    slope = md.loglog_slope(x, y)
    return math.nan if slope is None else abs(slope - 2.0)


def _draws(rng, count, *widths):
    """count rounds of draws of `widths` standard normals each, split by width.

    One rng.normal call of count rows takes the normals that count rounds
    of separate draws of these sizes, in this order, would take.
    """
    normals = rng.normal(size=(count, sum(widths)))
    return np.split(normals, np.cumsum(widths)[:-1], axis=1)


def _rotations(normals):
    """A proper rotation from each row of 9 standard normals (QR with signs fixed)."""
    q, r = np.linalg.qr(normals.reshape(-1, 3, 3))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    # proper rotations only; a reflection flips the sign of the
    # antisymmetric parameter block and breaks covariance
    reflected = np.linalg.det(q) < 0
    q[reflected, :, 0] = -q[reflected, :, 0]
    return q


_KAPPA = kt.DRAW_WIDTH[False]
_KAPPA_BIREF = kt.DRAW_WIDTH[True]


def _tensor_checks(rng):
    # each draw takes one integer before its normals, so only the draws
    # loop; non-birefringent rows pad their e_plus and o_minus with zeros
    normals = np.zeros((200, _KAPPA_BIREF))
    for row in normals:
        width = kt.DRAW_WIDTH[bool(rng.integers(2))]
        row[:width] = rng.normal(size=width)
    k = kt.kappa_draws(normals)
    back = kt.kappas_from_kf(kt.kf_from_kappas(k))
    yield _check("kappa_roundtrip", np.max(kt.kappa_distance(k, back)), 1e-12)

    (normals,) = _draws(rng, 50, _KAPPA_BIREF)
    kf = kt.kf_from_kappas(kt.kappa_draws(normals))
    worst = np.max(kt.check_invariants(kf).max_violation)
    yield _check("kf_structural_invariants", worst, 1e-12)

    normals, vectors = _draws(rng, 200, _KAPPA, 16)
    k = kt.kappa_draws(normals)
    kf = kt.kf_from_kappas(k)
    w, x, y, z = np.moveaxis(vectors.reshape(-1, 4, 4), 1, 0)

    def contract(*vecs):
        return kt.contract4(kf, *vecs)

    base = contract(w, x, y, z)
    worst_sym = np.max(
        np.abs(
            [
                base + contract(x, w, y, z),
                base + contract(w, x, z, y),
                base - contract(y, z, w, x),
            ]
        )
    )
    worst_bianchi = np.max(np.abs(base + contract(w, z, x, y) + contract(w, y, z, x)))
    closed = kt.contract4_kappa(k, w, x, y, z)
    scale = np.maximum(np.maximum(np.abs(base), np.abs(closed)), 1e-30)
    worst_identity = np.max(np.abs(base - closed) / scale)
    yield _check("contraction_antisymmetry", worst_sym, 1e-12)
    yield _check("contraction_bianchi", worst_bianchi, 1e-12)
    yield _check("contraction_closed_form", worst_identity, 1e-10)


def _dispersion_checks(rng):
    # the third frame vector is the direction itself, so only eps1 and
    # eps2 carry a parity rule
    khats = dp.random_directions(rng, 100)
    frame, opposite = dp.polarization_frame(khats), dp.polarization_frame(-khats)
    worst_parity = max(
        np.max(np.abs(opposite.eps1 - frame.eps1)), np.max(np.abs(opposite.eps2 + frame.eps2))
    )
    yield _check("frame_parity", worst_parity, 0.0)

    normals, directions = _draws(rng, 50, _KAPPA, 3)
    k = kt.kappa_draws(normals)
    khats = dp.direction_draws(directions)
    rho, sigma = dp.rho_sigma(kt.kf_from_kappas(k), khats)
    yield _check("rho_equals_delta", np.max(np.abs(rho - dp.delta_nonbiref(k, khats))), 1e-12)
    # sigma is the square root of a quadratically small discriminant, so
    # its noise floor sits near sqrt(eps * kappa^2), not near eps
    yield _check("sigma_nonbirefringent", np.max(sigma), 1e-7)

    normals, directions, rotations = _draws(rng, 20, _KAPPA, 3, 9)
    k = kt.kappa_draws(normals)
    khats = dp.direction_draws(directions)
    rots = _rotations(rotations)
    moved = dp.delta_nonbiref(k.rotated(rots), (rots @ khats[:, :, None])[:, :, 0])
    worst_cov = np.max(np.abs(moved - dp.delta_nonbiref(k, khats)))
    yield _check("delta_rotation_covariance", worst_cov, 1e-12)

    # one set of 10 shapes and directions at all three scales, so the
    # slope does not carry the scatter of new shapes at each scale; the
    # draw takes 30 rounds of normals, which keeps every later check's
    # draws.  The root solver takes one tensor per call (the path of
    # `dispersion`), so the roots stay one draw at a time
    normals, directions = (part[:10] for part in _draws(rng, 30, _KAPPA, 3))
    khats = dp.direction_draws(directions)
    residuals = []
    for scale in (1e-2, 1e-3, 1e-4):
        k = kt.kappa_draws(normals, scale)
        delta = dp.delta_nonbiref(k, khats)
        worst = 0.0
        for kf, khat, shift in zip(kt.kf_from_kappas(k), khats, delta):
            roots = dp.ampere_roots(kf, khat)
            worst = max(worst, np.max(np.abs(roots - (1.0 + shift))))
        residuals.append(float(worst))
    yield _check(
        "ampere_scaling_exponent",
        _quadratic_slope_error([1e-2, 1e-3, 1e-4], residuals),
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

    # All 64 commutators at once, on interior rows and columns only, as
    # 8 x 8 blocks: block (a, b) of lower_rows @ bar_cols is a bar(b), and
    # block (b, a) of bar_rows @ lower_cols is bar(b) a, moved to (a, b).
    # Restricting the factors' outer indices leaves each entry's sum as
    # it was in the full product.
    inside = np.flatnonzero(fs.interior_mask(space))
    n = len(inside)
    modes = md.ALL_MODES
    lower = {mode: fs.annihilator(space, mode) for mode in modes}
    bar = {mode: fs.bar_adjoint(space, a) for mode, a in lower.items()}
    forward = sp.vstack([lower[m][inside] for m in modes], format="csr") @ sp.hstack(
        [bar[m][:, inside] for m in modes], format="csr"
    )
    backward = (
        sp.vstack([bar[m][inside] for m in modes], format="csr")
        @ sp.hstack([lower[m][:, inside] for m in modes], format="csr")
    ).tocoo()
    (row_block, row), (col_block, col) = divmod(backward.row, n), divmod(backward.col, n)
    backward = sp.csr_matrix(
        (backward.data, (col_block * n + row, row_block * n + col)), shape=backward.shape
    )
    # [a, bar(a)] = zeta on every interior diagonal entry, stored or not
    zeta = sp.diags(np.repeat([md.ZETA[m.polarization] for m in modes], n))
    worst = abs(forward - backward - zeta).max()
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


def _diagonal_commutator(p, h):
    """max |[p, h]| for a diagonal p and a canonical CSR h, from h's entries.

    Entry (i, j) of the commutator is p_i h_ij - h_ij p_j, the value
    that abs(p @ h - h @ p).max() reads from the two sparse products,
    bit for bit; the products and their difference are never built.
    """
    rows, cols = p.nonzero()
    if np.any(rows != cols):
        raise ValueError("p must be diagonal")
    diagonal = p.diagonal()
    commutator = np.repeat(diagonal, np.diff(h.indptr))
    commutator *= h.data
    right = diagonal[h.indices]
    right *= h.data
    commutator -= right
    return np.abs(commutator).max(initial=0.0)


#: Entries of the two operands that _max_difference subtracts at a time.
_DIFFERENCE_ENTRIES = 2**16


def _max_difference(a, b):
    """max |a - b| over two CSR matrices, the difference formed a row range at a time.

    scipy's subtraction reserves room for the entries of both matrices,
    so the whole difference of two Hamiltonians would set the peak
    memory of a check; each row range holds about _DIFFERENCE_ENTRIES
    of the operands' entries.  Each entry is the same subtraction either
    way, so the max is that of abs(a - b).max() bit for bit (a nan among
    the entries gives nan).
    """
    ranges = 1 + (a.nnz + b.nnz) // _DIFFERENCE_ENTRIES
    bounds = np.linspace(0, a.shape[0], ranges + 1).astype(int)

    def rows(m, lo, hi):  # rows lo..hi-1 of m, on views of its arrays
        start, stop = m.indptr[lo], m.indptr[hi]
        return sp.csr_matrix(
            (m.data[start:stop], m.indices[start:stop], m.indptr[lo : hi + 1] - start),
            shape=(hi - lo, m.shape[1]),
        )

    return np.max(
        [
            np.abs((rows(a, lo, hi) - rows(b, lo, hi)).data).max(initial=0.0)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ],
        initial=0.0,
    )


def _raw_grouped_gap(space, k, frame):
    """max |build_raw - build_grouped| for one set; no matrix outlives the call."""
    h = hm.build_grouped(space, k, frame)
    return _max_difference(hm.build_raw(space, kt.kf_from_kappas(k), frame), h)


def _bar_self_adjoint_defect(space, sets, frame):
    """max |bar(X) - X| over each of the six blocks, summed alone from mode_terms, and H.

    Each block is summed for every set back to back, so the later sums
    find its CSR layout kept on the space (fs._LAYOUTS), and so is H.
    No matrix outlives the call, so none adds to a later peak.
    """

    def defect(x):
        return _max_difference(fs.bar_adjoint(space, x), x)

    blocks = [md.mode_terms(k, frame) for k in sets]
    names = [name for name in blocks[0] if name != "xi"]
    worst = max(defect(fs.monomial_sum(space, terms[name])) for name in names for terms in blocks)
    return max(worst, *(defect(hm.build_grouped(space, k, frame)) for k in sets))


def _hamiltonian_checks(rng, config):
    space = fs.build_space(2)
    worst = 0.0
    for _ in range(3):
        k = kt.random_kappas(rng, 1e-2)
        frame = dp.polarization_frame(dp.random_directions(rng))
        worst = max(worst, _raw_grouped_gap(space, k, frame))
    yield _check("raw_grouped_equivalence", worst, 1e-12)

    frame = dp.polarization_frame(config.direction)
    sets = (config.kappas, kt.random_kappas(rng, 1e-2))
    yield _check("bar_self_adjoint", _bar_self_adjoint_defect(space, sets, frame), 1e-13)

    small = fs.build_space(1)
    t = min(config.time, lz.MAX_LEAKAGE_TIME)
    k = kt.random_kappas(rng, 1e-2)
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
            worst = max(worst, _diagonal_commutator(n, h0))
    yield _check("kappa_zero_number_conservation", worst, 0.0)
    del h0

    # [P, Xi] = 0 exactly: P is diagonal and every Xi term moves one +k
    # and one -k quantum together
    momentum = hm.momentum_operator(space, config.direction)
    xi = hm.xi_generators(space, config.kappas, frame)
    worst = max(_diagonal_commutator(p, xi) for p in momentum)
    yield _check("momentum_kappa_independent", worst, 0.0)
    del xi

    h = hm.build_grouped(space, kt.random_kappas(rng, 1e-2), frame)
    worst = max(_diagonal_commutator(p, h) for p in momentum)
    yield _check("momentum_commutes", worst, 1e-12)
    del h

    rows = md.spectrum_sweep(kt.random_kappas(rng, 1e-2), frame, [1e-2, 1e-3])
    residuals = np.maximum(rows["gap_residual_plus"], rows["gap_residual_minus"])
    crosses = rows["cross_after"]
    yield _check(
        "transverse_gap_quadratic",
        _quadratic_slope_error(rows["scale"], residuals),
        0.2,
        residuals=residuals.tolist(),
    )
    yield _check(
        "cross_term_suppression_quadratic",
        _quadratic_slope_error(rows["scale"], crosses),
        0.2,
        residuals=crosses.tolist(),
    )


def _inject_c_defect(space, h):
    """h plus 1e-3 times a bar-self-adjoint rank-2 coupler between an A and a C state.

    Used as a verification fixture: a Hamiltonian with this added leaks
    A-class amplitude into the C class, which the invariance check must
    catch.
    """
    vacuum = (0, 0, 0, 0)
    states = fs.dg_basis_columns(
        space, [((1, 0, 0, 0), vacuum), ((0, 0, 1, 1), vacuum)]
    )
    bras = (fs.metric_M(space) @ states).conj().T.tocsr()
    defect = states[:, [1]] @ bras[[0]] + states[:, [0]] @ bras[[1]]
    return h + 1e-3 * defect


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
            oracle = lz.counting_oracle(*occ.T, n1, n2)  # one answer per start state
            headroom = (occ[:, 0] + n1 + n2 <= g.cutoff) & (occ[:, 3] + n1 + n2 <= g.cutoff)
            disagreements += np.count_nonzero(~oracle & (best >= 1e-12))
            disagreements += np.count_nonzero(oracle & headroom & (best <= 1e-12))
    yield _check("counting_oracle_agreement", disagreements, 0.0)

    space = fs.build_space(2)
    # the basis states are fixed and built once; each draw picks the third
    # by an integer drawn after its coefficients, so the draws loop
    vacuum = fs.dg_basis_state(space, (0, 0, 0, 0))
    pair = fs.dg_basis_state(space, (1, 0, 0, 1))
    ghosts = [fs.dg_basis_state(space, (0, 1, 0, 0), (0, 0, 0, n)) for n in range(3)]
    failures = 0
    for _ in range(10):
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi = coeffs[0] * vacuum + coeffs[1] * pair + coeffs[2] * ghosts[int(rng.integers(3))]
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
        h = _inject_c_defect(space, h)
    t = min(config.time, lz.MAX_LEAKAGE_TIME)
    yield _check(
        "c_class_leakage",
        lz.invariance_leakage(space, h, t),
        1e-12,
        scale=leak_scale,
        time=t,
        injected=bool(inject_c_leakage),
    )

    # each draw takes the real and then the imaginary parts of the
    # coefficient pairs of psi, varphi and the admixture, 12 normals
    (parts,) = _draws(rng, 20, 12)
    c_t, c_b, c_mix = (parts[:, i : i + 2] + 1j * parts[:, i + 2 : i + 4] for i in (0, 4, 8))
    photon = fs.dg_basis_state(space, (1, 0, 0, 0))
    two_d = fs.dg_basis_state(space, (0, 0, 2, 0))
    photon_d_pair = fs.dg_basis_state(space, (1, 0, 1, 0), (0, 0, 1, 0))
    psis = c_t[:, :1] * vacuum + c_t[:, 1:] * photon
    varphis = c_b[:, :1] * two_d + c_b[:, 1:] * photon_d_pair
    worst = 0.0
    for psi, varphi, (c1, c2) in zip(psis, varphis, c_mix):
        mean1, mean2 = lz.observable_indistinguishability(
            space, psi, varphi, c1, c2, observable
        )
        worst = max(worst, abs(mean1 - mean2))
    yield _check("observable_indistinguishability", worst, 1e-12)


def _interaction_checks(rng):
    normals, directions = _draws(rng, 20, _KAPPA, 3)
    k = kt.kappa_draws(normals)
    khats = dp.direction_draws(directions)
    table = ia.vint_coefficients(k)
    want = (k.e_minus[:, 1, 1] - k.e_minus[:, 0, 0]) / 2.0
    worst_z = np.max(np.abs(table[..., 0, 0] - table[..., 1, 1] - want))
    delta1, _ = dp.mixing_deltas(k, dp.polarization_frame(khats))
    oblique = ia.vint_coefficients(k, khats)
    worst = np.max(np.abs(oblique[..., 0, 0] - oblique[..., 1, 1] - (-2.0 * delta1)))
    yield _check("coupling_asymmetry", max(worst_z, worst), 1e-15)

    space = hm.transverse_space(1)
    frame = dp.polarization_frame(dp.Z_AXIS)
    worst = 0.0
    for _ in range(5):
        k = kt.random_kappas(rng, 1e-2)
        first_1, first_2 = ia.first_order_potentials(space, k, frame)
        got = ia.extract_couplings(space, first_1, first_2)
        want = ia.vint_coefficients(k)
        worst = max(worst, np.max(np.abs(got - want)))
    yield _check("coupling_extraction", worst, 1e-12)


def cmd_verify(config, seed=0, inject_c_leakage=False):
    """Run the invariant suite of every module; report and aggregate.

    Returns the report dict and the exit status (0 all pass, 1 any
    failure).  Checks draw their own deterministic inputs from the seed;
    the config parameters additionally feed the Hamiltonian adjointness,
    unitarity horizon, and leakage checks.  Each record gets elapsed_s,
    the wall time since the previous record (or the start), so the
    checks that one evaluation yields together book it on the first.
    """
    rng = np.random.default_rng(seed)
    groups = (
        _tensor_checks(rng),
        _dispersion_checks(rng),
        _fock_checks(rng),
        _hamiltonian_checks(rng, config),
        _lorenz_checks(rng, config, inject_c_leakage),
        _interaction_checks(rng),
    )
    checks = []
    start = time.perf_counter()
    for record in itertools.chain.from_iterable(groups):
        now = time.perf_counter()
        record["elapsed_s"] = now - start
        start = now
        checks.append(record)
    failures = [c["name"] for c in checks if not c["pass"]]
    report = {
        "command": "verify",
        "seed": seed,
        "checks": checks,
        "failures": failures,
        "pass": not failures,
    }
    return report, (0 if not failures else 1)
