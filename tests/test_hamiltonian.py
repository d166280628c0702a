"""Tests for the mode Hamiltonian blocks and the raw assembly.

The oracle relationship runs both ways: the raw tensor-contraction
assembly and the grouped closed-form blocks are independent routes to
the same operator, and their elementwise equality is the module's
central check.
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


def test_zero_kappa_blocks(space):
    frame = dp.polarization_frame(np.array([0.0, 0.0, 1.0]))
    bundle = hm.build_grouped(space, kt.KappaSet(), frame)
    S, T, Sb, Tb = hm._mode_operators(space)
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
    S, T, Sb, Tb = hm._mode_operators(space)
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
