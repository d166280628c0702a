"""Acceptance gate: the thirteen end-to-end criteria for this package.

Each test covers exactly one numbered criterion and prints one line with
the measured quantities when it passes, so `pytest -v` (or `-s`) yields
a single pass/fail line per criterion.  Tolerances and time limits are
part of the contract and are asserted, not just reported.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from lvphoton import cli
from lvphoton import dispersion as dp
from lvphoton import fock_space as fs
from lvphoton import hamiltonian as hm
from lvphoton import interaction as ia
from lvphoton import kappa_tensor as kt
from lvphoton import lorenz as lz
from lvphoton import modes as md
from lvphoton.dispersion import Z_AXIS

import transverse_reference  # tests/transverse_reference.py


@pytest.fixture(scope="module")
def space():
    return fs.build_space(2)


@pytest.fixture(scope="module")
def frame():
    return dp.polarization_frame(Z_AXIS)


def test_criterion_01_parameter_tensor_round_trip():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        k = kt.random_kappas(rng, 1e-2, birefringent=bool(i % 2))
        worst = max(worst, kt.kappa_distance(k, kt.kappas_from_kf(kt.kf_from_kappas(k))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 5.0
    print(f"criterion 01 PASS round trip: worst {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_contraction_closed_form():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        k = kt.random_kappas(rng, 1e-2)
        kf = kt.kf_from_kappas(k)
        vecs = [rng.normal(size=4) for _ in range(4)]
        full = kt.contract4(kf, *vecs)
        closed = kt.contract4_kappa(k, *vecs)
        worst = max(worst, abs(full - closed) / max(abs(full), abs(closed), 1e-30))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 5.0
    print(f"criterion 02 PASS contraction: worst rel {worst:.3e}, {elapsed:.2f}s")


def test_criterion_03_dispersion_residual_scaling():
    rng = np.random.default_rng(103)
    scales = (1e-2, 1e-3, 1e-4)
    start = time.perf_counter()
    residuals = []
    for scale in scales:
        worst = 0.0
        for _ in range(50):
            k = kt.random_kappas(rng, scale)
            kf = kt.kf_from_kappas(k)
            khat = dp.random_directions(rng)
            delta = dp.delta_nonbiref(k, khat)
            omegas, _ = dp.solve_ampere(kf, khat)
            for omega in omegas:
                worst = max(worst, abs(omega - (1.0 + delta)))
        residuals.append(worst)
    elapsed = time.perf_counter() - start
    slope, _ = np.polyfit(np.log10(scales), np.log10(residuals), 1)
    assert 1.8 < slope < 2.2
    assert elapsed < 10.0
    print(
        f"criterion 03 PASS solver scaling: exponent {slope:.3f}, "
        f"residuals {residuals[0]:.2e}/{residuals[1]:.2e}/{residuals[2]:.2e}, "
        f"{elapsed:.2f}s"
    )


def test_criterion_04_axis_closed_forms():
    e_minus = np.array(
        [
            [0.015625, 0.0078125, 0.0],
            [0.0078125, -0.0078125, 0.0],
            [0.0, 0.0, -0.0078125],
        ]
    )
    o_plus = np.array(
        [
            [0.0, 0.00390625, 0.0],
            [-0.00390625, 0.0, 0.001953125],
            [0.0, -0.001953125, 0.0],
        ]
    )
    tr = 0.0009765625
    kappas = kt.KappaSet(e_minus=e_minus, o_plus=o_plus, tr=tr)
    worst = 0.0
    for sign in (+1.0, -1.0):
        config = cli.RunConfig(
            kappas=kappas,
            kf_raw=None,
            direction=sign * Z_AXIS,
            scales=(),
            time=10.0,
            output=None,
        )
        delta = cli.cmd_dispersion(config)["rows"].columns["delta"][0]
        want = -tr + 0.5 * e_minus[2, 2] + sign * o_plus[0, 1]
        worst = max(worst, abs(delta - want))
    assert worst < 1e-14
    print(f"criterion 04 PASS axis closed forms: worst {worst:.3e}")


def test_criterion_05_raw_equals_grouped(space, frame):
    rng = np.random.default_rng(105)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k = kt.random_kappas(rng, 1e-2)
        raw = hm.build_raw(space, kt.kf_from_kappas(k), frame)
        total = hm.build_grouped(space, k, frame)
        worst = max(worst, abs(raw - total).max())
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 120.0
    print(f"criterion 05 PASS raw = grouped: worst {worst:.3e}, {elapsed:.1f}s")


def test_criterion_06_bar_self_adjoint_and_metric_unitary(space, frame):
    rng = np.random.default_rng(106)
    mdiag = fs.metric_diagonal(space)
    m = sp.diags(mdiag)
    worst_adj = 0.0
    for k in (kt.KappaSet(), kt.random_kappas(rng, 1e-2), kt.random_kappas(rng, 1e-2)):
        terms = md.mode_terms(k, frame)
        blocks = [fs.monomial_sum(space, terms[name]) for name in terms if name != "xi"]
        for block in blocks + [hm.build_grouped(space, k, frame)]:
            worst_adj = max(worst_adj, abs(m @ block.conj().T @ m - block).max())
    assert worst_adj < 1e-13

    small = fs.build_space(1)
    h = hm.build_grouped(small, kt.random_kappas(rng, 1e-2), frame)
    u = expm(-1j * 10.0 * h.toarray())
    m1 = fs.metric_diagonal(small)
    bar_u = (m1[:, None] * u.conj().T) * m1[None, :]
    defect = np.max(np.abs(bar_u @ u - np.eye(small.dim)))
    assert defect < 1e-10
    print(
        f"criterion 06 PASS adjointness: bar defect {worst_adj:.3e}, "
        f"unitarity defect {defect:.3e} at t = 10"
    )


def _transformed_gap_rows(space, frame, shape, scales):
    rows = []
    vac = fs.vacuum_state(space)
    pair = fs.dg_basis_state(space, (1, 0, 0, 0), (1, 0, 0, 0))
    for scale in scales:
        k = shape.scaled(scale / shape.magnitude)
        h = hm.build_grouped(space, k, frame)
        xi = hm.xi_generators(space, k, frame)
        e_vac = hm.transformed_expectation(space, h, xi, vac).real
        residual = 0.0
        for direction, khat in ((fs.PLUS_K, frame.khat), (fs.MINUS_K, -frame.khat)):
            want = 1.0 + dp.delta_nonbiref(k, khat)
            for pol in (1, 2):
                occ = [0] * 8
                occ[fs.ModeId(direction, pol).slot] = 1
                one = np.zeros(space.dim, dtype=complex)
                one[space.index_of(occ)] = 1.0
                energy = hm.transformed_expectation(space, h, xi, one).real
                residual = max(residual, abs((energy - e_vac) - want))
        cross = abs(hm.transformed_element(space, h, xi, pair, vac))
        cross_raw = abs(fs.indefinite_inner(space, pair, h @ vac))
        rows.append((scale, residual, cross, cross_raw))
    return rows


def test_criterion_07_transformed_gap_quadratic(space, frame):
    rng = np.random.default_rng(107)
    shape = kt.random_kappas(rng, 1e-2)
    scales = (1e-2, 1e-3)
    rows = _transformed_gap_rows(space, frame, shape, scales)
    for scale, residual, _, _ in rows:
        assert residual <= 5.0 * scale**2
    slope = (np.log10(rows[0][1]) - np.log10(rows[1][1])) / (
        np.log10(scales[0]) - np.log10(scales[1])
    )
    assert 1.8 < slope < 2.2
    print(
        f"criterion 07 PASS transformed gaps: residuals "
        f"{rows[0][1]:.3e}/{rows[1][1]:.3e}, exponent {slope:.3f}"
    )


def test_criterion_08_cross_coupling_quadratic(space, frame):
    rng = np.random.default_rng(108)
    shape = kt.random_kappas(rng, 1e-2)
    scales = (1e-2, 1e-3)
    rows = _transformed_gap_rows(space, frame, shape, scales)
    for scale, _, cross, cross_raw in rows:
        assert cross <= 5.0 * scale**2
        assert cross < cross_raw  # the transform actually suppressed it
    slope = (np.log10(rows[0][2]) - np.log10(rows[1][2])) / (
        np.log10(scales[0]) - np.log10(scales[1])
    )
    assert 1.8 < slope < 2.2
    print(
        f"criterion 08 PASS cross suppression: before {rows[0][3]:.3e}, "
        f"after {rows[0][2]:.3e}/{rows[1][2]:.3e}, exponent {slope:.3f}"
    )


def test_criterion_09_counting_oracle_exhaustive():
    start = time.perf_counter()
    g = lz.ghost_space(3)
    assert g.dim == 256
    lslv = lz.ghost_lslv(g, 0.37)
    tls = lz.ghost_pm_tls(g, 0.61, 0.83)
    eye = sp.identity(g.dim, format="csr", dtype=complex)
    pow_lslv = [eye]
    pow_tls = [eye]
    for _ in range(3):
        pow_lslv.append((pow_lslv[-1] @ lslv).tocsr())
        pow_tls.append((pow_tls[-1] @ tls).tocsr())
    occ = g.occupations
    self_paired = (occ[:, 0] == occ[:, 1]) & (occ[:, 2] == occ[:, 3])
    checked = 0
    disagreements = 0
    for n1 in range(4):
        for n2 in range(4 - n1):
            prod = (pow_lslv[n1] @ pow_tls[n2]).toarray()
            best = np.abs(prod[self_paired, :]).max(axis=0)
            # one oracle call over every start state of this split
            nd, ng, ndp, ngp = occ.T
            oracle = lz.counting_oracle(nd, ng, ndp, ngp, n1, n2)
            checked += oracle.size
            headroom = (nd + n1 + n2 <= g.cutoff) & (ngp + n1 + n2 <= g.cutoff)
            disagreements += int(np.count_nonzero(~oracle & (best >= 1e-12)))
            disagreements += int(np.count_nonzero(oracle & headroom & (best <= 1e-12)))
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert checked == 2560
    assert elapsed < 30.0
    print(
        f"criterion 09 PASS counting oracle: {checked} checks, "
        f"0 disagreements, {elapsed:.2f}s"
    )


def test_criterion_10_invariance_leakage(space, frame):
    k = kt.random_kappas(np.random.default_rng(3), 1e-2)
    h = hm.build_grouped(space, k, frame)
    leakage = lz.invariance_leakage(space, h, 10.0)
    assert leakage < 1e-10

    psi0 = fs.dg_basis_state(space, (1, 0, 0, 0))
    evolved = expm_multiply(-1j * 10.0 * h.tocsc(), psi0)
    weights = lz.ghost_class_weights(space, evolved)
    b_total = weights[lz.StateClass.B_PLUS] + weights[lz.StateClass.B_MINUS]
    assert b_total > 1e-4
    assert weights[lz.StateClass.C] < 1e-12

    # same parameter shape an order of magnitude down: the residual is a
    # truncation artifact and collapses far below the headline bound
    k_small = kt.random_kappas(np.random.default_rng(3), 1e-3)
    h_small = hm.build_grouped(space, k_small, frame)
    leakage_small = lz.invariance_leakage(space, h_small, 10.0)
    assert leakage_small < 1e-12
    print(
        f"criterion 10 PASS leakage: C {leakage:.3e} (then {leakage_small:.3e} "
        f"at tenth scale), B admixture {b_total:.3e}"
    )


def test_criterion_11_momentum_conservation(space, frame):
    rng = np.random.default_rng(111)
    k = kt.random_kappas(rng, 1e-2)
    momentum = hm.momentum_operator(space, frame.khat)
    # the Xi transform keeps the momentum exactly: every Xi term moves
    # one +k and one -k quantum together
    xi = hm.xi_generators(space, k, frame)
    worst_xi = max(abs(p @ xi - xi @ p).max() for p in momentum)
    assert worst_xi == 0.0

    h = hm.build_grouped(space, k, frame)
    worst = max(abs(p @ h - h @ p).max() for p in momentum)
    assert worst < 1e-12
    print(f"criterion 11 PASS momentum: [P, Xi] {worst_xi:.3e}, [P, H] {worst:.3e}")


def test_criterion_12_coupling_table():
    h = 0.015625
    g = 0.0078125
    cases = [
        # pure diagonal difference: asymmetry only
        (
            np.diag([h, -h, 0.0]),
            (1.0 - h / 2.0, 0.0, 0.0, 1.0 + h / 2.0),
        ),
        # pure off-diagonal: polarization swap only
        (
            np.array([[0.0, g, 0.0], [g, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            (1.0, -g / 2.0, -g / 2.0, 1.0),
        ),
        # both at once
        (
            np.array([[h, g, 0.0], [g, -g, 0.0], [0.0, 0.0, g - h]]),
            (
                1.0 - (h + g) / 4.0,
                -g / 2.0,
                -g / 2.0,
                1.0 + (h + g) / 4.0,
            ),
        ),
    ]
    worst_closed = 0.0
    for e_minus, want in cases:
        # the trace and rotation parameters must drop out of the table
        k = kt.KappaSet(
            e_minus=e_minus,
            o_plus=np.array(
                [[0.0, 0.001, 0.0], [-0.001, 0.0, 0.0], [0.0, 0.0, 0.0]]
            ),
            tr=0.0009765625,
        )
        table = ia.vint_coefficients(k)
        got = (table.j1_pol1, table.j2_pol1, table.j1_pol2, table.j2_pol2)
        worst_closed = max(worst_closed, *(abs(a - b) for a, b in zip(got, want)))
    assert worst_closed < 1e-14

    space = hm.transverse_space(1)
    frame = dp.polarization_frame(Z_AXIS)
    k = kt.KappaSet(e_minus=cases[2][0], tr=0.0009765625)
    want = ia.vint_coefficients(k)

    first_1, first_2 = ia.first_order_potentials(space, k, frame)
    got = ia.extract_couplings(space, first_1, first_2)
    worst_first = max(
        abs(got.j1_pol1 - want.j1_pol1),
        abs(got.j2_pol1 - want.j2_pol1),
        abs(got.j1_pol2 - want.j1_pol2),
        abs(got.j2_pol2 - want.j2_pol2),
    )
    assert worst_first < 1e-12

    # the exact conjugation agrees once truncation-clipped columns are
    # excluded and the parameters are small enough that the quadratic
    # remainder sits below the tolerance
    tiny = k.scaled(1e-7 / k.magnitude)
    exact_1, exact_2 = transverse_reference.transformed_potentials(space, tiny, frame)
    columns = fs.interior_mask(space)
    got_exact = transverse_reference.masked_couplings(space, exact_1, exact_2, columns)
    want_tiny = ia.vint_coefficients(tiny)
    worst_exact = max(
        abs(got_exact.j1_pol1 - want_tiny.j1_pol1),
        abs(got_exact.j2_pol1 - want_tiny.j2_pol1),
        abs(got_exact.j1_pol2 - want_tiny.j1_pol2),
        abs(got_exact.j2_pol2 - want_tiny.j2_pol2),
    )
    assert worst_exact < 1e-12

    # the same exact leg on the larger transverse factors
    worst_larger = 0.0
    for cutoff in (2, 3, 4):
        factor = hm.transverse_space(cutoff)
        exact_1, exact_2 = transverse_reference.transformed_potentials(factor, tiny, frame)
        columns = fs.interior_mask(factor)
        got_exact = transverse_reference.masked_couplings(factor, exact_1, exact_2, columns)
        worst_larger = max(
            worst_larger,
            abs(got_exact.j1_pol1 - want_tiny.j1_pol1),
            abs(got_exact.j2_pol1 - want_tiny.j2_pol1),
            abs(got_exact.j1_pol2 - want_tiny.j1_pol2),
            abs(got_exact.j2_pol2 - want_tiny.j2_pol2),
        )
    assert worst_larger < 1e-12

    # the closed-form exact table at finite kappa, against the Fock
    # conjugation on the columns with headroom 4 at cutoff 5 (every
    # occupation at most 1), where truncation sits below roundoff
    factor = hm.transverse_space(5)
    columns = np.all(factor.occupations <= 1, axis=1)
    rng = np.random.default_rng(112)
    worst_all_orders = 0.0
    for _ in range(6):
        shape = kt.random_kappas(rng, 1e-2)
        k = shape.scaled(2e-2 / shape.magnitude)
        fr = dp.polarization_frame(dp.random_directions(rng))
        exact = transverse_reference.transformed_potentials(factor, k, fr)
        ref = transverse_reference.masked_couplings(factor, *exact, columns)
        want = np.array([[ref.j1_pol1, ref.j2_pol1], [ref.j1_pol2, ref.j2_pol2]])
        worst_all_orders = max(worst_all_orders, np.abs(md.exact_couplings(k, fr) - want).max())
    assert worst_all_orders < 1e-13
    print(
        f"criterion 12 PASS coupling table: closed {worst_closed:.3e}, "
        f"first-order extraction {worst_first:.3e}, exact {worst_exact:.3e}, "
        f"exact at cutoffs 2-4 {worst_larger:.3e}, "
        f"closed exact at magnitude 2e-2 {worst_all_orders:.3e}"
    )


def test_criterion_13_observable_indistinguishability(space):
    rng = np.random.default_rng(113)
    a_pool = [
        fs.dg_basis_state(space, (0, 0, 0, 0)),
        fs.dg_basis_state(space, (1, 0, 0, 0)),
        fs.dg_basis_state(space, (0, 1, 0, 0), (1, 0, 0, 0)),
        fs.dg_basis_state(space, (2, 0, 0, 0)),
    ]
    b_pool = [
        fs.dg_basis_state(space, (0, 0, 1, 0)),
        fs.dg_basis_state(space, (1, 0, 1, 0)),
        fs.dg_basis_state(space, (0, 0, 2, 0)),
        fs.dg_basis_state(space, (0, 1, 0, 0), (0, 0, 1, 0)),
    ]
    diags = [
        fs.number_operator(space, fs.ModeId(d, r)).diagonal()
        for d in (fs.PLUS_K, fs.MINUS_K)
        for r in (1, 2)
    ]
    worst = 0.0
    for _ in range(100):
        psi = sum(
            (rng.normal() + 1j * rng.normal()) * state for state in a_pool
        )
        varphi = sum(
            (rng.normal() + 1j * rng.normal()) * state for state in b_pool
        )
        c1 = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
        c2 = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
        weights = rng.normal(size=4)
        observable = sp.diags(sum(w * d for w, d in zip(weights, diags)))
        mean1, mean2 = lz.observable_indistinguishability(
            space, psi, varphi, c1, c2, observable
        )
        worst = max(worst, abs(mean1 - mean2))
    assert worst < 1e-12
    print(f"criterion 13 PASS indistinguishability: worst {worst:.3e} over 100 draws")
