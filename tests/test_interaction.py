"""Tests for the potentials and the current-coupling table.

The exact table is modes.exact_couplings in closed form; the Fock-factor
conjugation it replaced is tests/transverse_reference.py, its reference.
"""

import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lvphoton import checks
from lvphoton import dispersion as dp
from lvphoton import fock_space as fs
from lvphoton import hamiltonian as hm
from lvphoton import interaction as ia
from lvphoton import kappa_tensor as kt
from lvphoton import modes as md

import transverse_reference  # tests/transverse_reference.py


@pytest.fixture(scope="module")
def space():
    return hm.transverse_space(2)


@pytest.fixture(scope="module")
def frame():
    return dp.polarization_frame(np.array([0.0, 0.0, 1.0]))


def _table_distance(a, b):
    return np.max(np.abs(a - b))


def _full_space_reference(space, kappas, frame, conjugate):
    """Bare and transformed potentials, interior mask and tables on the 8-mode space.

    The potentials are (a_r(+k) + abar_r(-k)) / sqrt(2) from the 8-mode
    ladder operators, conjugated by the 8-mode Xi with `conjugate` (the
    dense reference exp(Xi) A exp(-Xi)); the tables are the
    Frobenius projections onto the bare pair, first order and exact on
    columns with transverse headroom.
    """
    bare = []
    for pol in (1, 2):
        a_plus = fs.annihilator(space, fs.ModeId(fs.PLUS_K, pol))
        a_minus = fs.annihilator(space, fs.ModeId(fs.MINUS_K, pol))
        bare.append(((a_plus + fs.bar_adjoint(space, a_minus)) / np.sqrt(2)).toarray())
    xi = hm.xi_generators(space, kappas, frame)
    exact = conjugate(bare, xi)
    delta1, delta2 = dp.mixing_deltas(kappas, frame)
    first = [
        (1.0 - delta1) * bare[0] - delta2 * bare[1],
        (1.0 + delta1) * bare[1] - delta2 * bare[0],
    ]
    interior = np.ones(space.dim, dtype=bool)
    for direction in (fs.PLUS_K, fs.MINUS_K):
        for pol in (1, 2):
            number = fs.number_operator(space, fs.ModeId(direction, pol))
            interior &= number.diagonal().real < space.cutoff

    def table(primes, columns):
        a_1, a_2 = (a[:, columns] for a in bare)
        p_1, p_2 = (p[:, columns] for p in primes)
        w_1, w_2 = np.vdot(a_1, a_1), np.vdot(a_2, a_2)
        return np.array(
            [[np.vdot(a_1, p) / w_1, np.vdot(a_2, p) / w_2] for p in (p_1, p_2)], dtype=complex
        )

    everything = np.ones(space.dim, dtype=bool)
    return exact, table(first, everything), table(exact, interior)


def _e_minus(xx, yy, xy):
    m = np.zeros((3, 3))
    m[0, 0] = xx
    m[1, 1] = yy
    m[2, 2] = -(xx + yy)
    m[0, 1] = m[1, 0] = xy
    return m


def test_zero_kappa_identity_table():
    table = ia.vint_coefficients(kt.KappaSet())
    assert table.shape == (2, 2)
    assert table[0, 0] == 1.0
    assert table[1, 1] == 1.0
    assert table[0, 1] == 0.0
    assert table[1, 0] == 0.0
    assert table[0, 0] - table[1, 1] == 0.0


def test_zero_kappa_potentials_unchanged(space, frame):
    a1_prime, a2_prime = transverse_reference.transformed_potentials(space, kt.KappaSet(), frame)
    assert np.array_equal(a1_prime, ia.transverse_potential(space, 1).toarray())
    assert np.array_equal(a2_prime, ia.transverse_potential(space, 2).toarray())


def test_z_axis_closed_forms():
    # diagonal anisotropy: pure rescaling, no cross coupling
    table = ia.vint_coefficients(kt.KappaSet(e_minus=_e_minus(0.02, -0.01, 0.0)))
    assert table[0, 0] == pytest.approx((4 - 0.02 - 0.01) / 4, abs=1e-15)
    assert table[1, 1] == pytest.approx((4 + 0.02 + 0.01) / 4, abs=1e-15)
    assert table[0, 1] == 0.0
    assert table[1, 0] == 0.0
    # off-diagonal only: cross coefficients -c/2 on both polarizations
    table = ia.vint_coefficients(kt.KappaSet(e_minus=_e_minus(0.0, 0.0, 0.012)))
    assert table[0, 1] == pytest.approx(-0.006, abs=1e-15)
    assert table[1, 0] == pytest.approx(-0.006, abs=1e-15)
    assert table[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert table[1, 1] == pytest.approx(1.0, abs=1e-15)
    # mixed case with an isotropic part riding along
    e = _e_minus(0.011, -0.007, 0.004)
    table = ia.vint_coefficients(kt.KappaSet(e_minus=e, tr=0.002))
    assert table[0, 0] == pytest.approx((4 - 0.011 - 0.007) / 4, abs=1e-15)
    assert table[1, 1] == pytest.approx((4 + 0.011 + 0.007) / 4, abs=1e-15)
    assert table[0, 1] == pytest.approx(-0.002, abs=1e-15)
    assert table[0, 0] - table[1, 1] == pytest.approx((e[1, 1] - e[0, 0]) / 2, abs=1e-15)


def test_isotropic_part_cancels():
    # kappa_tr alone is invisible to the coupling, to roundoff of the
    # frame's orthogonality: it cancels in the diagonal difference, and
    # on the z axis the frame vectors are exactly orthogonal
    table = ia.vint_coefficients(kt.KappaSet(tr=0.05))
    assert _table_distance(table, ia.vint_coefficients(kt.KappaSet())) == 0.0
    # in oblique frames eps1 . eps2 is zero only to roundoff, which leaves
    # at most 2 eps |tr|: one stacked call of each over 1000 directions
    k = kt.KappaSet(tr=1e-2)
    frames = dp.polarization_frame(dp.random_directions(np.random.default_rng(6), 1000))
    floor = 2.0 * np.finfo(float).eps * abs(k.tr)
    values = md.spectrum_values(k, frames)
    mixing = dict(zip(("delta1", "delta2"), dp.mixing_deltas(k, frames)))
    mixing.update((key, values[key]) for key in ("cross_before", "cross_after"))
    for name, value in mixing.items():
        assert value.shape == (1000,) and np.max(np.abs(value)) <= floor, name


@given(
    xx=st.floats(-0.01, 0.01),
    yy=st.floats(-0.01, 0.01),
    xy=st.floats(-0.01, 0.01),
    tr=st.floats(-0.01, 0.01),
)
@settings(max_examples=50, deadline=None)
def test_table_structure_property(xx, yy, xy, tr):
    table = ia.vint_coefficients(kt.KappaSet(e_minus=_e_minus(xx, yy, xy), tr=tr))
    assert table[0, 1] == table[1, 0]
    assert table[0, 0] - table[1, 1] == pytest.approx((yy - xx) / 2, abs=1e-15)
    assert table[0, 0] + table[1, 1] == pytest.approx(2.0, abs=1e-15)


def test_mixing_deltas_match_bilinear_definitions(frame):
    rng = np.random.default_rng(71)
    kappas = kt.random_kappas(rng, 1e-2)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    oblique = dp.polarization_frame(direction)
    for fr in (frame, oblique):
        emt = kappas.e_minus + np.eye(3) * kappas.tr
        want1 = 0.25 * (fr.eps1 @ emt @ fr.eps1 - fr.eps2 @ emt @ fr.eps2)
        want2 = 0.5 * (fr.eps1 @ emt @ fr.eps2)
        delta1, delta2 = dp.mixing_deltas(kappas, fr)
        assert delta1 == pytest.approx(want1, abs=1e-15)
        assert delta2 == pytest.approx(want2, abs=1e-15)


def test_stacked_tables_are_the_per_set_tables_bit_for_bit():
    rng = np.random.default_rng(77)
    normals = rng.normal(size=(40, kt.DRAW_WIDTH[False]))
    sets = kt.kappa_draws(normals)
    khats = dp.random_directions(rng, 40)
    one = kt.random_kappas(rng, 1e-2)
    cases = [
        (ia.vint_coefficients(sets), [ia.vint_coefficients(kt.kappa_draws(n)) for n in normals]),
        (
            ia.vint_coefficients(sets, khats),
            [ia.vint_coefficients(kt.kappa_draws(n), h) for n, h in zip(normals, khats)],
        ),
        (ia.vint_coefficients(one, khats), [ia.vint_coefficients(one, h) for h in khats]),
    ]
    for stacked, tables in cases:
        assert stacked.shape == (40, 2, 2)
        assert np.array_equal(stacked, np.stack(tables))
        want = [t[0, 0] - t[1, 1] for t in tables]
        assert np.array_equal(stacked[:, 0, 0] - stacked[:, 1, 1], want)


def _bad_sets():
    """(set, message): a birefringent set, one of magnitude 0.5, and 3-set stacks of each."""
    good = kt.random_kappas(np.random.default_rng(78), 1e-2)
    birefringent = kt.KappaSet(e_plus=0.01 * np.diag([3.0, -1.0, -2.0]))
    large = kt.KappaSet(tr=0.5)
    out = []
    for bad, message in ((birefringent, "e_plus = o_minus = 0"), (large, "perturbative")):
        stack = (good, bad, good)
        fields = ("e_minus", "o_plus", "tr", "e_plus", "o_minus")
        stacked = kt.KappaSet(**{f: np.stack([getattr(k, f) for k in stack]) for f in fields})
        out += [(bad, message), (stacked, message)]
    return out


@pytest.mark.parametrize("index", range(4))
def test_first_order_entry_points_refuse_what_the_model_excludes(index, frame):
    bad, message = _bad_sets()[index]
    khats = dp.random_directions(np.random.default_rng(79), 3)
    for call in (
        lambda: ia.vint_coefficients(bad),
        lambda: ia.vint_coefficients(bad, khats),
        lambda: dp.mixing_deltas(bad, frame),
        lambda: kt.check_nonbiref(bad),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_general_direction_matches_frame_extraction(space):
    rng = np.random.default_rng(72)
    kappas = kt.random_kappas(rng, 1e-2)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    fr = dp.polarization_frame(direction)
    first_1, first_2 = ia.first_order_potentials(space, kappas, fr)
    extracted = ia.extract_couplings(space, first_1, first_2)
    assert _table_distance(extracted, ia.vint_coefficients(kappas, direction)) < 1e-12


def test_transverse_potential_structure(space):
    # single-mode lowering operator placed in a slot of the 4-mode kron
    # chain (a1(+k), a2(+k), a1(-k), a2(-k))
    single = np.diag(np.sqrt(np.arange(1, space.base)), k=1)

    def lowering(slot):
        out = np.ones((1, 1))
        for s in range(4):
            out = np.kron(out, single if s == slot else np.eye(space.base))
        return out

    for pol in (1, 2):
        want = (lowering(pol - 1) + lowering(pol + 1).T) / np.sqrt(2)
        got = ia.transverse_potential(space, pol).toarray()
        assert np.max(np.abs(got - want)) < 1e-15
    with pytest.raises(ValueError):
        ia.transverse_potential(space, 3)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 5])
def test_transverse_potential_matches_kron_chains_bitwise(cutoff, kron_ladder, assert_same_csr):
    # (a_r(+k) + a_r(-k)-dagger) / sqrt(2) from kron-chain ladder matrices
    factor = hm.transverse_space(cutoff)
    for pol in (1, 2):
        plus, minus = (
            md.TRANSVERSE_SLOTS.index(fs.ModeId(d, pol).slot) for d in (fs.PLUS_K, fs.MINUS_K)
        )
        a, b_dag = kron_ladder(factor, plus), kron_ladder(factor, minus, raising=True)
        assert_same_csr(ia.transverse_potential(factor, pol), ((a + b_dag) / np.sqrt(2)).tocsr())


def test_first_order_agreement_is_quadratic(space, frame):
    # on columns with transverse headroom the exact conjugation matches
    # the printed mixing to O(kappa^2); saturated columns carry O(kappa)
    # clipping and stay out of the comparison
    columns = fs.interior_mask(space)
    assert columns.sum() == 16
    residuals = []
    for scale in (1e-2, 1e-3):
        kappas = kt.random_kappas(np.random.default_rng(11), scale)
        exact_1, exact_2 = transverse_reference.transformed_potentials(space, kappas, frame)
        first_1, first_2 = ia.first_order_potentials(space, kappas, frame)
        residuals.append(
            max(
                np.max(np.abs((exact_1 - first_1.toarray())[:, columns])),
                np.max(np.abs((exact_2 - first_2.toarray())[:, columns])),
            )
        )
    slope = np.log10(residuals[0] / residuals[1])
    assert 1.8 < slope < 2.2


def test_extraction_consistency(space, frame):
    rng = np.random.default_rng(5)
    # the first-order form reproduces the table identically
    kappas = kt.random_kappas(rng, 1e-2)
    first_1, first_2 = ia.first_order_potentials(space, kappas, frame)
    got = ia.extract_couplings(space, first_1, first_2)
    assert _table_distance(got, ia.vint_coefficients(kappas)) < 1e-12
    # the exact conjugation reproduces it on interior columns once the
    # quadratic corrections drop below the tolerance
    tiny = kt.random_kappas(rng, 1e-7)
    exact_1, exact_2 = transverse_reference.transformed_potentials(space, tiny, frame)
    got = transverse_reference.masked_couplings(
        space, exact_1, exact_2, fs.interior_mask(space)
    )
    assert _table_distance(got, ia.vint_coefficients(tiny)) < 1e-12


def test_factor_matches_full_space_reference(dense_similarity):
    # the 8-mode operators are the identity on the ghost modes times the
    # factor's, so at cutoff 1 the tables agree and the transformed
    # potentials equal the 8-mode ones on the ghost-vacuum states
    full = fs.build_space(1)
    factor = hm.transverse_space(1)
    empty = np.flatnonzero(~full.occupations[:, [0, 3, 4, 7]].any(axis=1))
    assert np.array_equal(full.occupations[empty][:, md.TRANSVERSE_SLOTS], factor.occupations)
    rng = np.random.default_rng(74)
    for _ in range(3):
        kappas = kt.random_kappas(rng, 1e-2)
        fr = dp.polarization_frame(dp.random_directions(rng))
        ref_exact, ref_first, ref_table = _full_space_reference(full, kappas, fr, dense_similarity)
        exact = transverse_reference.transformed_potentials(factor, kappas, fr)
        for got, want in zip(exact, ref_exact):
            assert np.max(np.abs(got - want[np.ix_(empty, empty)])) < 1e-15
        first = ia.extract_couplings(factor, *ia.first_order_potentials(factor, kappas, fr))
        assert _table_distance(first, ref_first) < 1e-15
        table = transverse_reference.masked_couplings(factor, *exact, fs.interior_mask(factor))
        assert _table_distance(table, ref_table) < 1e-15


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 5])
def test_transformed_potentials_match_dense_expm(cutoff, dense_similarity):
    # the block-by-block conjugation against two dense exponentials
    factor = hm.transverse_space(cutoff)
    rng = np.random.default_rng(80 + cutoff)
    kappas = kt.random_kappas(rng, 1e-2)
    fr = dp.polarization_frame(dp.random_directions(rng))
    _, xi = transverse_reference.build_transverse(factor, kappas, fr)
    exact = transverse_reference.transformed_potentials(factor, kappas, fr)
    dense = dense_similarity([ia.transverse_potential(factor, pol) for pol in (1, 2)], xi)
    for got, want in zip(exact, dense):
        assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_transformed_potentials_evolve_the_basis_once(cutoff, monkeypatch):
    # one evolution of the factor's basis serves both potentials, and
    # the pair is bit for bit what one transform per potential gives
    factor = hm.transverse_space(cutoff)
    rng = np.random.default_rng(90 + cutoff)
    kappas = kt.random_kappas(rng, 1e-2)
    fr = dp.polarization_frame(dp.random_directions(rng))
    _, xi = transverse_reference.build_transverse(factor, kappas, fr)
    basis = sp.identity(factor.dim, dtype=complex, format="csc")
    want = [
        hm.transformed_matrices(factor, [ia.transverse_potential(factor, pol)], xi, basis)[0]
        for pol in (1, 2)
    ]
    calls = []
    propagate_blocks = fs.propagate_blocks

    def counted(*args):
        calls.append(args)
        return propagate_blocks(*args)

    monkeypatch.setattr(fs, "propagate_blocks", counted)
    got = transverse_reference.transformed_potentials(factor, kappas, fr)
    assert len(calls) == 1
    assert len(got) == 2
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_interaction_and_lorenz_leave_scipy_linalg_unloaded():
    # every evolution runs on fs.propagate_blocks; a dense scipy.linalg
    # exponential in either import chain fails this
    src = pathlib.Path(ia.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import lvphoton.interaction, lvphoton.lorenz\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "call",
    [
        lambda s, k, f: ia.transverse_potential(s, 1),
        lambda s, k, f: transverse_reference.transformed_potentials(s, k, f),
        lambda s, k, f: ia.first_order_potentials(s, k, f),
        lambda s, k, f: ia.extract_couplings(s, sp.identity(s.dim), sp.identity(s.dim)),
    ],
)
def test_rejects_the_full_space(frame, call):
    with pytest.raises(ValueError, match="4-mode transverse factor"):
        call(fs.build_space(1), kt.random_kappas(np.random.default_rng(75), 1e-3), frame)


def test_interaction_never_builds_the_full_space(frame, monkeypatch):
    # the coupling table runs on the transverse factor only; any 8-mode
    # space or operator in its path fails this test
    def refuse(*args, **kwargs):
        raise RuntimeError("interaction built an 8-mode operator")

    for module, name in (
        (fs, "build_space"),
        (fs, "annihilator"),
        (fs, "bar_adjoint"),
        (fs, "number_operator"),
        (hm, "xi_generators"),
    ):
        monkeypatch.setattr(module, name, refuse)
    factor = hm.transverse_space(3)
    kappas = kt.random_kappas(np.random.default_rng(76), 1e-7)
    exact = transverse_reference.transformed_potentials(factor, kappas, frame)
    first = ia.first_order_potentials(factor, kappas, frame)
    columns = fs.interior_mask(factor)
    assert columns.sum() == 81
    want = ia.vint_coefficients(kappas)
    assert _table_distance(ia.extract_couplings(factor, *first), want) < 1e-12
    table = transverse_reference.masked_couplings(factor, *exact, columns)
    assert _table_distance(table, want) < 1e-12
    assert ia.transverse_potential(factor, 2).shape == (256, 256)
    results = list(checks._interaction_checks(np.random.default_rng(0)))
    assert [c["pass"] for c in results] == [True, True]


def test_preconditions(space, frame):
    rng = np.random.default_rng(73)
    birefringent = kt.random_kappas(rng, 1e-3, birefringent=True)
    with pytest.raises(ValueError, match="e_plus"):
        transverse_reference.transformed_potentials(space, birefringent, frame)
    big = kt.KappaSet(e_minus=_e_minus(0.3, -0.1, 0.0))
    with pytest.raises(ValueError, match="perturbative"):
        ia.first_order_potentials(space, big, frame)


def test_reference_projection_on_every_column_is_extract_couplings_bit_for_bit(space, frame):
    # with an all-true mask the masked reference projects the same
    # arrays as extract_couplings, so the tables agree bit for bit
    rng = np.random.default_rng(81)
    every = np.ones(space.dim, dtype=bool)
    for _ in range(3):
        kappas = kt.random_kappas(rng, 1e-2)
        first = ia.first_order_potentials(space, kappas, frame)
        got = ia.extract_couplings(space, *first)
        want = transverse_reference.masked_couplings(space, *first, every)
        assert got.shape == want.shape == (2, 2)
        assert np.array_equal(got, want)


def test_exact_table_differs_from_first_order_by_half_r_squared():
    # cosh r - 1 = r^2 / 2 leads the difference; the sinh r / r - 1
    # correction is O(r^3)
    rng = np.random.default_rng(82)
    normals = rng.normal(size=(60, kt.DRAW_WIDTH[False]))
    scales = 10.0 ** rng.uniform(-4.0, np.log10(2e-2), 60) / np.abs(normals).max(axis=1)
    sets = kt.kappa_draws(normals, scales[:, None])
    khats = dp.random_directions(rng, 60)
    frames = dp.polarization_frame(khats)
    exact = md.exact_couplings(sets, frames)
    first = ia.vint_coefficients(sets, khats)
    delta1, delta2 = dp.mixing_deltas(sets, frames)
    half_r2 = 0.5 * (delta1**2 + delta2**2)
    ratio = np.abs(exact - first).max(axis=(-2, -1)) / half_r2
    assert np.all(np.abs(ratio - 1.0) < 1e-2)


def test_first_order_extracted_and_exact_tables_share_one_layout():
    # entry [r, s] of every table is the share of bare potential s in
    # mixed potential r: row r is [j1_polr, j2_polr]
    assert np.array_equal(md.coupling_table(2.0, 3.0, 5.0, 7.0), [[-13.0, -21.0], [-21.0, 17.0]])
    space = hm.transverse_space(1)
    a_1, a_2 = (ia.transverse_potential(space, r) for r in (1, 2))
    mixed = ia.extract_couplings(space, 2 * a_1 + 3 * a_2, 5 * a_1 + 7 * a_2)
    assert np.array_equal(mixed, [[2, 3], [5, 7]])

    rng = np.random.default_rng(83)
    normals = rng.normal(size=(50, kt.DRAW_WIDTH[False]))
    sets = kt.kappa_draws(normals, 1e-2 / np.abs(normals).max(axis=1)[:, None])
    khats = dp.random_directions(rng, 50)
    frames = dp.polarization_frame(khats)
    first = ia.vint_coefficients(sets, khats)
    exact = md.exact_couplings(sets, frames)
    assert first.shape == exact.shape == (50, 2, 2)
    # the first-order table is the builder at c = s = 1, bit for bit
    delta1, delta2 = dp.mixing_deltas(sets, frames)
    assert np.array_equal(first, md.coupling_table(1.0, 1.0, delta1, delta2))
    # the exact table differs from it by O(r^2) in every entry
    r2 = delta1**2 + delta2**2
    assert np.all(np.abs(exact - first) <= r2[:, None, None])
    # the Fock-factor projection of the first-order potentials gives the same rows
    for row in range(5):
        fr = dp.polarization_frame(khats[row])
        one = kt.kappa_draws(normals[row], 1e-2 / np.abs(normals[row]).max())
        extracted = ia.extract_couplings(space, *ia.first_order_potentials(space, one, fr))
        assert extracted.shape == (2, 2)
        assert _table_distance(extracted, first[row]) < 1e-12
