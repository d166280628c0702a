"""Tests for the mode Hamiltonian blocks and the raw assembly.

The oracle relationship runs both ways: the raw tensor-contraction
assembly and the grouped closed-form blocks are independent routes to
the same operator, and their elementwise equality is the module's
central check.  Both are assembled by fs.monomial_sum; the product
chains of sparse ladder matrices they replaced are kept below as the
reference for the assembler.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from lvphoton import dispersion as dp
from lvphoton import fock_space as fs
from lvphoton import hamiltonian as hm
from lvphoton import kappa_tensor as kt


@pytest.fixture(scope="module")
def space():
    return fs.build_space(1)


@pytest.fixture(scope="module")
def space2():
    # The anti-normal-ordered a abar terms in h_t need headroom above
    # the occupations being probed, so single-photon expectations and
    # the transform's O(kappa) cancellation only come out exact on a
    # space with cutoff >= occupation + 1.
    return fs.build_space(2)


# ------------------------------------------- product-chain reference


def _mode_operators(space):
    """S_r = a_r(+k), T_r = a_r(-k) and their bar-adjoints, r = 0..3."""
    S = [fs.annihilator(space, fs.ModeId(fs.PLUS_K, r)) for r in range(4)]
    T = [fs.annihilator(space, fs.ModeId(fs.MINUS_K, r)) for r in range(4)]
    Sb = [fs.bar_adjoint(space, a) for a in S]
    Tb = [fs.bar_adjoint(space, a) for a in T]
    return S, T, Sb, Tb


def _xi_from_operators(E, S, T, Sb, Tb):
    q1, q2 = hm.xi_coefficients(E)
    xi = q1 * (Sb[1] @ Tb[1] - T[1] @ S[1] - Sb[2] @ Tb[2] + T[2] @ S[2])
    xi = xi + q2 * (Sb[1] @ Tb[2] - S[1] @ T[2] + Sb[2] @ Tb[1] - S[2] @ T[1])
    return xi.tocsr()


def _transverse_blocks(kappas, frame, E, S, T, Sb, Tb):
    delta_plus = dp.delta_nonbiref(kappas, frame.khat)
    delta_minus = dp.delta_nonbiref(kappas, -frame.khat)
    h_t = (1 + delta_plus) * (S[1] @ Sb[1] + S[2] @ Sb[2])
    h_t = h_t + (1 + delta_minus) * (Tb[1] @ T[1] + Tb[2] @ T[2])
    h_pm_t = 0.5 * (E[1, 1] - E[2, 2]) * (
        S[1] @ T[1] + Tb[1] @ Sb[1] - S[2] @ T[2] - Tb[2] @ Sb[2]
    )
    h_pm_t = h_pm_t + E[1, 2] * (S[1] @ T[2] + Tb[2] @ Sb[1])
    h_pm_t = h_pm_t + E[1, 2] * (S[2] @ T[1] + Tb[1] @ Sb[2])
    return h_t, h_pm_t


def _reference_raw(space, kf, frame):
    """build_raw as a sum of sparse products of the ladder matrices."""
    A, B, C = hm.coefficient_matrices(kf, frame)
    S, T, Sb, Tb = _mode_operators(space)
    H = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    for r in range(4):
        H = H - kt.METRIC[r, r] * (S[r] @ Sb[r] + Tb[r] @ T[r])
    for r in range(4):
        for s in range(4):
            H = H + (A + B - C)[r, s] * (S[r] @ Sb[s])
            H = H + (A + B + C)[r, s] * (Tb[r] @ T[s])
            H = H + (A - B + C)[r, s] * (S[r] @ T[s])
            H = H + (A - B - C)[r, s] * (Tb[r] @ Sb[s])
            H = H - C[r, s] * (S[s] @ Sb[r] - Tb[s] @ T[r])
            H = H - C[r, s] * (S[s] @ T[r] - Tb[s] @ Sb[r])
    return H.tocsr()


def _reference_grouped(space, kappas, frame):
    """build_grouped as sums of sparse products of the ladder matrices."""
    E, O = hm.kappa_bilinears(kappas, frame)
    S, T, Sb, Tb = _mode_operators(space)
    h_t, h_pm_t = _transverse_blocks(kappas, frame, E, S, T, Sb, Tb)
    h_ls0 = S[3] @ Sb[3] + Tb[3] @ T[3] - S[0] @ Sb[0] - Tb[0] @ T[0]
    a_d, a_g = fs.dg_operators(space, fs.PLUS_K)
    a_dm, a_gm = fs.dg_operators(space, fs.MINUS_K)
    a_gb, a_dmb = fs.bar_adjoint(space, a_g), fs.bar_adjoint(space, a_dm)
    e33 = E[3, 3]
    h_lslv = -e33 * (a_g @ a_gb + a_dmb @ a_dm)
    h_lslv = h_lslv - 1j * e33 * (a_g @ a_dm - a_dmb @ a_gb)
    fac_ann = a_gb + 1j * a_dm
    fac_cre = a_g - 1j * a_dmb
    c1p, c2p = E[1, 3] - O[3, 2], E[2, 3] + O[3, 1]
    h_p_tls = (-1.0 / np.sqrt(2.0)) * (
        c1p * (S[1] @ fac_ann + fac_cre @ Sb[1])
        + c2p * (S[2] @ fac_ann + fac_cre @ Sb[2])
    )
    c1m, c2m = E[1, 3] + O[3, 2], E[2, 3] - O[3, 1]
    h_m_tls = (1.0 / np.sqrt(2.0)) * (
        c1m * (fac_cre @ T[1] + Tb[1] @ fac_ann)
        + c2m * (fac_cre @ T[2] + Tb[2] @ fac_ann)
    )
    blocks = (h_t, h_pm_t, h_ls0, h_lslv, h_p_tls, h_m_tls)
    return hm.HamiltonianBundle(
        *(block.tocsr() for block in blocks), xi=_xi_from_operators(E, S, T, Sb, Tb)
    )


def _reference_transverse(space, kappas, frame):
    """build_transverse from the factor's ladder matrices."""
    S, T, Sb, Tb = hm.transverse_operators(space)
    E, _ = hm.kappa_bilinears(kappas, frame)
    h_t, h_pm_t = _transverse_blocks(kappas, frame, E, S, T, Sb, Tb)
    h = h_t + h_pm_t + hm._GHOST_VACUUM_ENERGY * sp.identity(space.dim, format="csr")
    return h.tocsr(), _xi_from_operators(E, S, T, Sb, Tb)


def _assert_assembled_like(got, want):
    """Same dtype, pattern and block labels, entries within 1e-15 max|H|."""
    assert got.dtype == want.dtype == np.complex128
    assert got.nnz == want.nnz
    assert abs(got - want).max() <= 1e-15 * abs(want).max()
    assert np.array_equal(fs.coupled_blocks(got), fs.coupled_blocks(want))


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_assembler_matches_product_chains(cutoff):
    space = fs.build_space(cutoff)
    rng = np.random.default_rng(140 + cutoff)
    k = kt.random_kappas(rng, 1e-2)
    frame = dp.polarization_frame(dp.random_directions(rng))
    kf = kt.kf_from_kappas(k)
    _assert_assembled_like(hm.build_raw(space, kf, frame), _reference_raw(space, kf, frame))
    got, want = hm.build_grouped(space, k, frame), _reference_grouped(space, k, frame)
    for block, ref in zip(got.blocks + (got.xi,), want.blocks + (want.xi,)):
        _assert_assembled_like(block, ref)
    _assert_assembled_like(hm.xi_generators(space, k, frame), want.xi)


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
def test_transverse_assembler_matches_product_chains(cutoff):
    space = hm.transverse_space(cutoff)
    rng = np.random.default_rng(150 + cutoff)
    k = kt.random_kappas(rng, 1e-2)
    frame = dp.polarization_frame(dp.random_directions(rng))
    for got, want in zip(hm.build_transverse(space, k, frame), _reference_transverse(space, k, frame)):
        _assert_assembled_like(got, want)


def _ladder_matrix(space, slot, raising):
    a = fs._lowering(space, slot)
    return a.conj().T.tocsr() if raising else a


#: Monomials (left, right) of (slot, raising) and, for one slot, the
#: occupations n of the columns that keep an entry under the truncation.
_MONOMIALS = [
    ((1, False), (5, True), None),  # a_i a_j-dagger
    ((1, True), (5, False), None),  # a_i-dagger a_j
    ((6, True), (2, True), None),  # two raisers on different slots
    ((3, False), (3, True), lambda n, top: n < top),  # a a-dagger: 0 at the top
    ((3, True), (3, False), lambda n, top: n >= 1),  # a-dagger a
    ((3, True), (3, True), lambda n, top: n + 2 <= top),  # a-dagger a-dagger
    ((3, False), (3, False), lambda n, top: n >= 2),  # a a
]


@pytest.mark.parametrize("coef", [1.0, -1.0, 0.3 - 0.7j])
@pytest.mark.parametrize("left, right, kept", _MONOMIALS)
@pytest.mark.parametrize("cutoff", [2, 3])
def test_single_monomial_equals_lowering_product(cutoff, left, right, kept, coef):
    # the coefficient comes out as scipy applies it to the product
    space = fs.build_space(cutoff)
    x = fs.ladder(left[0], raising=left[1])
    y = fs.ladder(right[0], raising=right[1])
    got = fs.monomial_sum(space, [(coef, x, y)])
    want = (coef * (_ladder_matrix(space, *left) @ _ladder_matrix(space, *right))).tocsr()
    want.sort_indices()
    assert got.dtype == np.complex128
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)  # bit for bit
    if kept is not None:  # same slot: the columns left with an entry
        n = space.occupations[:, 3]
        assert np.array_equal(np.diff(got.tocsc().indptr) > 0, kept(n, cutoff))


def test_dg_factors_match_dg_operators():
    # the ladder factors and the sparse d/g operators come from one rotation
    space = fs.build_space(2)
    for direction in (fs.PLUS_K, fs.MINUS_K):
        a_d, a_g = fs.dg_operators(space, direction)
        mats = (a_d, a_g, fs.bar_adjoint(space, a_d), fs.bar_adjoint(space, a_g))
        factors = fs.dg_factors(direction)
        for x, mx in zip(factors, mats):
            for y, my in zip(factors, mats):
                got = fs.monomial_sum(space, [(1.0, x, y)])
                assert abs(got - mx @ my).max() <= 1e-15


def test_monomial_sum_merges_and_cancels():
    # equal monomials merge across the order of commuting operators,
    # opposite coefficients cancel to no entry, and no term is no matrix
    space = fs.build_space(1)
    x, y = fs.ladder(2), fs.ladder(6, raising=True)
    merged = fs.monomial_sum(space, [(0.25, x, y), (0.5, y, x)])
    single = fs.monomial_sum(space, [(0.75, x, y)])
    assert merged.nnz == single.nnz > 0
    assert abs(merged - single).max() == 0.0
    assert fs.monomial_sum(space, [(1.0, x, y), (-1.0, y, x)]).nnz == 0
    assert fs.monomial_sum(space, []).shape == (space.dim, space.dim)


def test_zero_kappa_blocks(space):
    frame = dp.polarization_frame(np.array([0.0, 0.0, 1.0]))
    bundle = hm.build_grouped(space, kt.KappaSet(), frame)
    S, T, Sb, Tb = _mode_operators(space)
    want_t = S[1] @ Sb[1] + S[2] @ Sb[2] + Tb[1] @ T[1] + Tb[2] @ T[2]
    assert abs(bundle.h_t - want_t).max() == 0.0
    want_ls0 = S[3] @ Sb[3] + Tb[3] @ T[3] - S[0] @ Sb[0] - Tb[0] @ T[0]
    assert abs(bundle.h_ls0 - want_ls0).max() == 0.0
    for block in (bundle.h_pm_t, bundle.h_lslv, bundle.h_p_tls, bundle.h_m_tls, bundle.xi):
        assert abs(block).max() == 0.0


def test_zero_kappa_raw_equals_covariant_blocks(space):
    frame = dp.polarization_frame(np.array([0.0, 0.0, 1.0]))
    raw = hm.build_raw(space, kt.KFTensor.zero(), frame)
    bundle = hm.build_grouped(space, kt.KappaSet(), frame)
    assert abs(raw - (bundle.h_t + bundle.h_ls0)).max() < 1e-14


def test_zero_kappa_commutes_with_transverse_numbers(space):
    frame = dp.polarization_frame(np.array([0.0, 0.0, 1.0]))
    h = hm.build_grouped(space, kt.KappaSet(), frame).total
    for direction in (fs.PLUS_K, fs.MINUS_K):
        for pol in (1, 2):
            n = fs.number_operator(space, fs.ModeId(direction, pol))
            assert abs(h @ n - n @ h).max() == 0.0


def test_central_equivalence_raw_vs_grouped(space):
    rng = np.random.default_rng(51)
    for _ in range(5):
        k = kt.random_kappas(rng, 1e-2)
        kf = kt.kf_from_kappas(k)
        frame = dp.polarization_frame(dp.random_directions(rng))
        bundle = hm.build_grouped(space, k, frame)
        raw = hm.build_raw(space, kf, frame)
        assert abs(raw - bundle.total).max() < 1e-12


def test_blocks_bar_self_adjoint(space):
    rng = np.random.default_rng(52)
    k = kt.random_kappas(rng, 1e-2)
    frame = dp.polarization_frame(dp.random_directions(rng))
    bundle = hm.build_grouped(space, k, frame)
    for block in bundle.blocks:
        assert abs(fs.bar_adjoint(space, block) - block).max() < 1e-15
    assert abs(fs.bar_adjoint(space, bundle.xi) + bundle.xi).max() < 1e-15


def test_single_photon_gap_is_modified_dispersion(space2):
    rng = np.random.default_rng(53)
    k = kt.random_kappas(rng, 1e-2)
    khat = dp.random_directions(rng)
    frame = dp.polarization_frame(khat)
    bundle = hm.build_grouped(space2, k, frame)
    h = bundle.total
    vac = fs.vacuum_state(space2)
    e_vac = fs.indefinite_inner(space2, vac, h @ vac)
    for pol, direction, sign in ((1, fs.PLUS_K, +1), (2, fs.PLUS_K, +1), (1, fs.MINUS_K, -1), (2, fs.MINUS_K, -1)):
        one = np.zeros(space2.dim, dtype=complex)
        occ = [0] * 8
        occ[fs.ModeId(direction, pol).slot] = 1
        one[space2.index_of(occ)] = 1.0
        gap = fs.indefinite_inner(space2, one, h @ one) - e_vac
        delta = dp.delta_nonbiref(k, sign * khat)
        assert gap == pytest.approx(1.0 + delta, abs=1e-14)


def test_raw_perturbation_linear_in_tensor(space):
    rng = np.random.default_rng(54)
    k = kt.random_kappas(rng, 1e-3)
    frame = dp.polarization_frame(dp.random_directions(rng))
    kf1 = kt.kf_from_kappas(k)
    kf2 = kt.KFTensor(2.0 * kf1.components)
    h0 = hm.build_raw(space, kt.KFTensor.zero(), frame)
    h1 = hm.build_raw(space, kf1, frame)
    h2 = hm.build_raw(space, kf2, frame)
    assert abs((h2 - h0) - 2.0 * (h1 - h0)).max() < 1e-13


def test_raw_rejects_birefringent_and_large(space):
    frame = dp.polarization_frame(np.array([0.0, 0.0, 1.0]))
    biref = kt.kf_from_kappas(kt.KappaSet(e_plus=np.diag([1e-3, 1e-3, -2e-3])))
    with pytest.raises(ValueError):
        hm.build_raw(space, biref, frame)
    with pytest.raises(ValueError):
        hm.build_grouped(space, kt.KappaSet(tr=0.2), frame)


def test_xi_diagonal_difference_only(space):
    # e_minus = diag(a, -a, 0) in the frame of zhat: E11 - E22 = 2a and
    # E12 = 0, so Xi reduces to the Xi1 string with coefficient a/2.
    a = 3e-3
    k = kt.KappaSet(e_minus=np.diag([a, -a, 0.0]))
    frame = dp.polarization_frame(np.array([0.0, 0.0, 1.0]))
    xi = hm.xi_generators(space, k, frame)
    S, T, Sb, Tb = _mode_operators(space)
    want = (a / 2.0) * (Sb[1] @ Tb[1] - T[1] @ S[1] - Sb[2] @ Tb[2] + T[2] @ S[2])
    assert abs(xi - want).max() < 1e-17


def test_similarity_transform_identity_and_spectrum(space):
    rng = np.random.default_rng(55)
    k = kt.random_kappas(rng, 1e-2)
    frame = dp.polarization_frame(dp.random_directions(rng))
    bundle = hm.build_grouped(space, k, frame)
    h = bundle.total
    same = hm.similarity_transform(h, sp.csr_matrix(h.shape, dtype=complex))
    assert np.max(np.abs(same - h.toarray())) == 0.0
    transformed = hm.similarity_transform(h, bundle.xi)
    # The ghost sector makes h defective (Jordan blocks), so individual
    # numerical eigenvalues are hypersensitive and cannot be compared
    # directly.  Trace moments determine the eigenvalue multiset and are
    # numerically stable, so spectrum preservation is checked through them.
    dense = h.toarray()
    power_before = np.eye(space.dim, dtype=complex)
    power_after = np.eye(space.dim, dtype=complex)
    for _ in range(4):
        power_before = power_before @ dense
        power_after = power_after @ transformed
        tr_before = np.trace(power_before)
        tr_after = np.trace(power_after)
        assert abs(tr_before - tr_after) < 1e-10 * abs(tr_before)


def test_transform_suppresses_transverse_cross_terms(space2):
    # The abar1(+k) abar1(-k) creation element of H connects the vacuum
    # to the two-photon state at O(kappa); after the Xi conjugation it
    # must shrink quadratically with the kappa scale.
    rng = np.random.default_rng(56)
    base = kt.random_kappas(rng, 1.0)
    frame = dp.polarization_frame(dp.random_directions(rng))
    pair = np.zeros(space2.dim, dtype=complex)
    occ = [0] * 8
    occ[fs.ModeId(fs.PLUS_K, 1).slot] = 1
    occ[fs.ModeId(fs.MINUS_K, 1).slot] = 1
    pair[space2.index_of(occ)] = 1.0
    vac = fs.vacuum_state(space2)
    before, after = [], []
    for s in (1e-2, 1e-3):
        k = kt.KappaSet(e_minus=base.e_minus * s, o_plus=base.o_plus * s, tr=base.tr * s)
        bundle = hm.build_grouped(space2, k, frame)
        h = bundle.total
        before.append(abs(fs.indefinite_inner(space2, pair, h @ vac)))
        after.append(abs(hm.transformed_element(space2, h, bundle.xi, pair, vac)))
    assert before[0] / before[1] == pytest.approx(10.0, rel=0.2)  # linear pre-transform
    slope = np.log10(after[0] / after[1])
    assert 1.8 < slope < 2.2


def test_transformed_expectation_matches_dense(space):
    rng = np.random.default_rng(57)
    k = kt.random_kappas(rng, 1e-2)
    frame = dp.polarization_frame(dp.random_directions(rng))
    bundle = hm.build_grouped(space, k, frame)
    h = bundle.total
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    phi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    dense = hm.similarity_transform(h, bundle.xi)
    want = fs.indefinite_inner(space, psi, dense @ psi)
    got = hm.transformed_expectation(space, h, bundle.xi, psi)
    assert got == pytest.approx(want, abs=1e-10)
    want_elem = fs.indefinite_inner(space, psi, dense @ phi)
    got_elem = hm.transformed_element(space, h, bundle.xi, psi, phi)
    assert got_elem == pytest.approx(want_elem, abs=1e-10)


def _full_space_evolution(xi, vec):
    """The reference exp(-xi) vec over the whole space."""
    return expm_multiply(-xi, np.asarray(vec, dtype=complex))


@pytest.mark.parametrize("cutoff", [2, 3])
def test_block_restricted_transform_matches_full_space(cutoff):
    space = fs.build_space(cutoff)
    rng = np.random.default_rng(90 + cutoff)
    k = kt.random_kappas(rng, 1e-2)
    frame = dp.polarization_frame(np.array([0.41, 0.32, -0.86]) / np.linalg.norm([0.41, 0.32, -0.86]))
    bundle = hm.build_grouped(space, k, frame)
    h = bundle.total
    labels = fs.coupled_blocks(bundle.xi)

    def basis(*occupied):
        occ = [0] * 8
        for slot in occupied:
            occ[slot] += 1
        vec = np.zeros(space.dim, dtype=complex)
        vec[space.index_of(occ)] = 1.0
        return vec

    vac = basis()
    one = basis(fs.ModeId(fs.PLUS_K, 2).slot)
    pair = basis(fs.ModeId(fs.PLUS_K, 1).slot, fs.ModeId(fs.MINUS_K, 1).slot)
    ghost = basis(fs.ModeId(fs.PLUS_K, 0).slot, fs.ModeId(fs.MINUS_K, 3).slot)
    mixed = 0.6 * vac + (0.3 - 0.2j) * one + 0.5j * ghost
    assert len(set(labels[np.flatnonzero(mixed)])) == 3
    states = (vac, one, pair, ghost, mixed)
    evolved = [_full_space_evolution(bundle.xi, psi) for psi in states]

    for psi, phi in zip(states, evolved):
        want = fs.indefinite_inner(space, phi, h @ phi)
        got = hm.transformed_expectation(space, h, bundle.xi, psi)
        assert abs(got - want) <= 1e-12
    for bra, ket in ((pair, vac), (mixed, one), (mixed, mixed)):
        want = fs.indefinite_inner(
            space, _full_space_evolution(bundle.xi, bra), h @ _full_space_evolution(bundle.xi, ket)
        )
        got = hm.transformed_element(space, h, bundle.xi, bra, ket)
        assert abs(got - want) <= 1e-12
    # every pair of the five states
    want = np.array(
        [[fs.indefinite_inner(space, bra, h @ ket) for ket in evolved] for bra in evolved]
    )
    got = hm.transformed_matrix(space, h, bundle.xi, states)
    assert got.shape == (5, 5)
    assert np.max(np.abs(got - want)) <= 1e-12
    zero = np.zeros(space.dim)
    assert hm.transformed_matrix(space, h, bundle.xi, [zero])[0, 0] == 0.0
    got = hm.transformed_matrix(space, h, bundle.xi, [zero, vac])
    assert np.all(got[0] == 0.0) and np.all(got[:, 0] == 0.0)
    assert abs(got[1, 1] - want[0, 0]) <= 1e-12
    assert hm.transformed_expectation(space, h, bundle.xi, zero) == 0.0


def test_ghost_vacuum_constant_matches_full_space(space2):
    # <0| h_ls0 + h_lslv |0> on the 8-mode space, for random kappas
    rng = np.random.default_rng(61)
    vac = fs.vacuum_state(space2)
    for _ in range(4):
        frame = dp.polarization_frame(dp.random_directions(rng))
        bundle = hm.build_grouped(space2, kt.random_kappas(rng, 1e-2), frame)
        assert abs(bundle.h_lslv).max() > 0.0
        element = fs.indefinite_inner(space2, vac, (bundle.h_ls0 + bundle.h_lslv) @ vac)
        assert element == hm._GHOST_VACUUM_ENERGY


@pytest.mark.parametrize("cutoff", [2, 3])
def test_transverse_factor_is_the_ghost_vacuum_block(cutoff):
    # On the states with empty scalar and longitudinal modes, the 8-mode
    # H and Xi have exactly the entries of the factor's h and xi, and Xi
    # joins those states to no other state.
    space = fs.build_space(cutoff)
    factor = hm.transverse_space(cutoff)
    rng = np.random.default_rng(80 + cutoff)
    k = kt.random_kappas(rng, 1e-2)
    frame = dp.polarization_frame(np.array([0.41, 0.32, -0.86]) / np.linalg.norm([0.41, 0.32, -0.86]))
    bundle = hm.build_grouped(space, k, frame)
    h, xi = hm.build_transverse(factor, k, frame)
    ghost_slots = [0, 3, 4, 7]
    empty = np.flatnonzero(~space.occupations[:, ghost_slots].any(axis=1))
    others = np.setdiff1d(np.arange(space.dim), empty)
    assert np.array_equal(space.occupations[empty][:, hm.TRANSVERSE_SLOTS], factor.occupations)
    assert abs(bundle.total[empty][:, empty] - h).max() == 0.0
    assert abs(bundle.xi[empty][:, empty] - xi).max() == 0.0
    assert abs(bundle.xi[others][:, empty]).max() == 0.0
    assert abs(bundle.xi[empty][:, others]).max() == 0.0


def test_build_transverse_rejects_the_full_space(space):
    # the 8-mode space would silently yield H on its first four slots
    k = kt.random_kappas(np.random.default_rng(82), 1e-2)
    frame = dp.polarization_frame(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="4-mode transverse factor"):
        hm.build_transverse(space, k, frame)


def test_momentum_operator(space):
    rng = np.random.default_rng(58)
    kvec = np.array([0.3, -1.1, 0.7])
    k = kt.random_kappas(rng, 1e-2)
    with_kappas = hm.momentum_operator(space, kvec, kappas=k)
    without = hm.momentum_operator(space, kvec)
    for a, b in zip(with_kappas, without):
        assert abs(a - b).max() == 0.0
    vac = fs.vacuum_state(space)
    for p in without:
        assert fs.indefinite_inner(space, vac, p @ vac) == 0.0
    one = np.zeros(space.dim, dtype=complex)
    occ = [0] * 8
    occ[fs.ModeId(fs.PLUS_K, 2).slot] = 1
    one[space.index_of(occ)] = 1.0
    got = [fs.indefinite_inner(space, one, p @ one) for p in without]
    assert np.allclose(got, kvec, atol=1e-15)


def test_momentum_commutes_with_hamiltonian(space):
    rng = np.random.default_rng(59)
    k = kt.random_kappas(rng, 1e-2)
    khat = dp.random_directions(rng)
    frame = dp.polarization_frame(khat)
    h = hm.build_grouped(space, k, frame).total
    for p in hm.momentum_operator(space, 2.2 * khat):
        assert abs(p @ h - h @ p).max() < 1e-15
