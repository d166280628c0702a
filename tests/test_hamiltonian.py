"""Tests for the mode Hamiltonian blocks and the raw assembly.

The oracle relationship runs both ways: the raw tensor-contraction
assembly and the grouped closed-form blocks are independent routes to
the same operator, and their elementwise equality is the module's
central check.  Both are assembled by fs.monomial_sum; the product
chains of sparse ladder matrices they replaced are kept below as the
reference for the assembler.
"""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from lvphoton import dispersion as dp
from lvphoton import fock_space as fs
from lvphoton import hamiltonian as hm
from lvphoton import kappa_tensor as kt
from lvphoton import lorenz as lz
from lvphoton import modes as md

import bilinear_reference  # tests/bilinear_reference.py
import monomial_reference  # tests/monomial_reference.py
import transverse_reference  # tests/transverse_reference.py


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
    q1, q2 = bilinear_reference.mixing_deltas(E)
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
    A, B, C = md.coefficient_matrices(kf, frame)
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
    """The six blocks of H, as a tuple, and xi_generators' Xi as sums of sparse products."""
    E, O = bilinear_reference.kappa_bilinears(kappas, frame)
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
    return tuple(block.tocsr() for block in blocks), _xi_from_operators(E, S, T, Sb, Tb)


def _factor_slots(r):
    """Factor positions of polarization r's (+k, -k) modes."""
    return tuple(
        md.TRANSVERSE_SLOTS.index(fs.ModeId(d, r).slot) for d in (fs.PLUS_K, fs.MINUS_K)
    )


def _reference_transverse(space, kappas, frame, kron_ladder):
    """build_transverse from the factor's kron-chain ladder matrices (metric +1)."""
    S, T, Sb, Tb = {}, {}, {}, {}
    for r in (1, 2):
        plus, minus = _factor_slots(r)
        S[r], T[r] = kron_ladder(space, plus), kron_ladder(space, minus)
        Sb[r] = kron_ladder(space, plus, raising=True)
        Tb[r] = kron_ladder(space, minus, raising=True)
    E, _ = bilinear_reference.kappa_bilinears(kappas, frame)
    h_t, h_pm_t = _transverse_blocks(kappas, frame, E, S, T, Sb, Tb)
    constant = transverse_reference.GHOST_VACUUM_ENERGY
    h = h_t + h_pm_t + constant * sp.identity(space.dim, format="csr")
    return h.tocsr(), _xi_from_operators(E, S, T, Sb, Tb)


#: The mode_terms keys of the six blocks of H, in the order they are summed.
BLOCK_NAMES = ("h_t", "h_pm_t", "h_ls0", "h_lslv", "h_p_tls", "h_m_tls")


def _blocks(space, kappas, frame):
    """Each block of H, summed on its own from its mode_terms, by name."""
    terms = md.mode_terms(kappas, frame)
    return {name: fs.monomial_sum(space, terms[name]) for name in BLOCK_NAMES}


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
    want, want_xi = _reference_grouped(space, k, frame)
    for block, ref in zip(_blocks(space, k, frame).values(), want):
        _assert_assembled_like(block, ref)
    _assert_assembled_like(hm.xi_generators(space, k, frame), want_xi)


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_one_call_hamiltonian_matches_the_summed_blocks(cutoff):
    # build_grouped sums all six blocks' terms at once; each block summed
    # alone and then added gives the same pattern, labels and entries
    space = fs.build_space(cutoff)
    rng = np.random.default_rng(160 + cutoff)
    for _ in range(3):
        k = kt.random_kappas(rng, 1e-2)
        frame = dp.polarization_frame(dp.random_directions(rng))
        blocks = list(_blocks(space, k, frame).values())
        want = blocks[0]
        for block in blocks[1:]:
            want = want + block
        _assert_assembled_like(hm.build_grouped(space, k, frame), want.tocsr())


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
def test_transverse_assembler_matches_product_chains(cutoff, kron_ladder):
    space = hm.transverse_space(cutoff)
    rng = np.random.default_rng(150 + cutoff)
    k = kt.random_kappas(rng, 1e-2)
    frame = dp.polarization_frame(dp.random_directions(rng))
    want = _reference_transverse(space, k, frame, kron_ladder)
    for got, ref in zip(transverse_reference.build_transverse(space, k, frame), want):
        _assert_assembled_like(got, ref)


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
def test_single_monomial_equals_lowering_product(cutoff, left, right, kept, coef, kron_ladder):
    # the coefficient comes out as scipy applies it to the product
    space = fs.build_space(cutoff)
    x = fs.ladder(left[0], raising=left[1])
    y = fs.ladder(right[0], raising=right[1])
    got = fs.monomial_sum(space, [(coef, x, y)])
    want = (coef * (kron_ladder(space, *left) @ kron_ladder(space, *right))).tocsr()
    want.sort_indices()
    assert got.dtype == np.complex128
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)  # bit for bit
    if kept is not None:  # same slot: the columns left with an entry
        n = space.occupations[:, 3]
        assert np.array_equal(np.diff(got.tocsc().indptr) > 0, kept(n, cutoff))


@pytest.mark.parametrize("coef", [1.0, -1.0, 0.3 - 0.7j])
@pytest.mark.parametrize("slot, raising", [(3, False), (3, True), (0, False), (7, True)])
@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_single_factor_equals_kron_chain(cutoff, slot, raising, coef, kron_ladder, assert_same_csr):
    # a one-factor term is one ladder operator times its coefficient
    space = fs.build_space(cutoff)
    got = fs.monomial_sum(space, [(coef, fs.ladder(slot, raising=raising))])
    assert_same_csr(got, (coef * kron_ladder(space, slot, raising)).tocsr())


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_mixed_factor_counts_equal_their_sparse_sum(cutoff, kron_ladder):
    # one- and two-factor terms in one list, factor coefficients included
    space = fs.build_space(cutoff)
    pair = fs.ladder(3, 0.5) + fs.ladder(6, -2.0, raising=True)
    terms = [
        (0.3 - 0.7j, pair),
        (-1.0, fs.ladder(1), fs.ladder(5, raising=True)),
        (1.0, fs.ladder(2, 1j, raising=True)),
        (0.25, fs.ladder(4, raising=True), fs.ladder(4, raising=True)),
    ]
    got = fs.monomial_sum(space, terms)

    def k(slot, raising=False):
        return kron_ladder(space, slot, raising)

    want = (0.3 - 0.7j) * (0.5 * k(3) - 2.0 * k(6, True))
    want = want - k(1) @ k(5, True) + 1j * k(2, True) + 0.25 * (k(4, True) @ k(4, True))
    want = want.tocsr()
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 5])
def test_transverse_operators_match_kron_chain_bitwise(cutoff, kron_ladder, assert_same_csr):
    # each 8-mode transverse ladder factor, summed on the factor
    space = hm.transverse_space(cutoff)
    S, T, Sb, Tb = md._mode_factors()
    for r in (1, 2):
        plus, minus = _factor_slots(r)
        for factor, slot, raising in (
            (S[r], plus, False), (T[r], minus, False), (Sb[r], plus, True), (Tb[r], minus, True),
        ):
            got = fs.monomial_sum(space, [(1.0, factor)])
            assert_same_csr(got, kron_ladder(space, slot, raising=raising))


def test_monomial_sum_refuses_a_label_the_space_lacks():
    # h_ls0 acts on the scalar and longitudinal modes, which the factor
    # lacks; the ghost space holds none of the 8-mode slots, and neither
    # the factor nor the 8-mode space holds a ghost label
    k = kt.random_kappas(np.random.default_rng(83), 1e-2)
    frame = dp.polarization_frame(np.array([0.0, 0.0, 1.0]))
    terms = md.mode_terms(k, frame)
    with pytest.raises(ValueError, match="no mode labeled 3"):
        fs.monomial_sum(hm.transverse_space(1), terms["h_ls0"])
    with pytest.raises(ValueError, match="no mode labeled 1"):
        fs.monomial_sum(lz.ghost_space(1), terms["h_t"])
    for space in (fs.build_space(1), hm.transverse_space(1)):
        with pytest.raises(ValueError, match="no mode labeled 'g\\+'"):
            fs.monomial_sum(space, [(1.0, fs.ladder("g+"))])


def test_mode_terms_name_every_block_and_xi():
    k = kt.random_kappas(np.random.default_rng(84), 1e-2)
    frame = dp.polarization_frame(np.array([0.0, 0.0, 1.0]))
    terms = md.mode_terms(k, frame)
    assert list(terms) == [*BLOCK_NAMES, "xi"]
    with pytest.raises(ValueError):
        md.mode_terms(kt.random_kappas(np.random.default_rng(85), 1e-2, birefringent=True), frame)


@pytest.mark.parametrize("cutoff", [0, -1, 1.5, 2.0, True, "2", None])
def test_transverse_space_refuses_bad_cutoffs(cutoff):
    with pytest.raises(ValueError, match="integer of at least 1"):
        hm.transverse_space(cutoff)


def test_transverse_space_accepts_integer_cutoffs():
    for cutoff in (1, np.int64(3)):
        space = hm.transverse_space(cutoff)
        assert type(space.cutoff) is int
        assert space.dim == (int(cutoff) + 1) ** 4


def test_dg_factors_match_dg_operators():
    # the ladder factors and the sparse d/g operators come from one rotation
    space = fs.build_space(2)
    for direction in (fs.PLUS_K, fs.MINUS_K):
        a_d, a_g = fs.dg_operators(space, direction)
        mats = (a_d, a_g, fs.bar_adjoint(space, a_d), fs.bar_adjoint(space, a_g))
        factors = md.dg_factors(direction)
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


# ------------------------------------ monomial_sum against its reference


def _assert_same_bits(got, want):
    """Same dtypes and CSR arrays; data compared as uint64, signed zeros too."""
    assert got.shape == want.shape and got.dtype == want.dtype == np.complex128
    for name in ("indptr", "indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


@pytest.fixture
def checked_sums(monkeypatch):
    """Route fs.monomial_sum through a check against the reference.

    Every call, from any builder, is compared bit for bit with
    monomial_reference.monomial_sum on the same space, and with
    monomial_sum on a fresh space of the same modes and cutoff; the
    returned list counts the calls.
    """
    calls = []
    kept = fs.monomial_sum

    def checked(space, terms):
        got = kept(space, terms)
        want = monomial_reference.monomial_sum(space, terms)
        _assert_same_bits(got, want)
        _assert_same_bits(kept(fs._occupation_space(space.cutoff, space.labels), terms), want)
        calls.append(space)
        return got

    monkeypatch.setattr(fs, "monomial_sum", checked)
    return calls


@pytest.mark.parametrize("cutoff", [1, 2])
def test_monomial_sum_matches_its_reference_bit_for_bit(cutoff, checked_sums):
    # each builder at two parameter sets in a row: the first call on the
    # space fills its columns and layout, the second reads them back
    space = fs.build_space(cutoff)
    factor = hm.transverse_space(cutoff)
    ghost = lz.ghost_space(cutoff + 1)
    rng = np.random.default_rng(150 + cutoff)
    sets = [
        (kt.random_kappas(rng, 1e-2), dp.polarization_frame(dp.random_directions(rng)))
        for _ in range(2)
    ]
    builders = [
        lambda k, frame: hm.build_grouped(space, k, frame),
        lambda k, frame: hm.build_raw(space, kt.kf_from_kappas(k), frame),
        lambda k, frame: hm.xi_generators(space, k, frame),
        lambda k, frame: hm.build_grouped(space, kt.KappaSet(), frame),
        lambda k, frame: transverse_reference.build_transverse(factor, k, frame),
    ]
    builders += [
        lambda k, frame, name=name: fs.monomial_sum(space, md.mode_terms(k, frame)[name])
        for name in BLOCK_NAMES
    ]
    for build in builders:
        for k, frame in sets:
            build(k, frame)
    for _ in sets:
        for mode in md.ALL_MODES:
            fs.annihilator(space, mode)
        for direction in (fs.PLUS_K, fs.MINUS_K):
            fs.dg_operators(space, direction)
    for coupling, lam1, lam2 in rng.normal(size=(2, 3)):
        lz.ghost_lslv(ghost, coupling)
        lz.ghost_pm_tls(ghost, lam1, lam2)
    assert len(checked_sums) == 2 * (4 + 2 + len(BLOCK_NAMES) + 8 + 4 + 2)
    assert fs._LAYOUTS >= len(space._layouts) > 0


def test_monomial_sum_follows_cancellations_after_a_kept_layout(checked_sums):
    # the same monomials on every shift, so one layout serves every
    # list; -1.0 cancels the a1 b shift (one monomial, two coefficients)
    # and the number-operator difference cancels on the diagonal (two
    # monomials) wherever n1 = n2
    space = fs.build_space(2)
    a1, a2, b = fs.ladder(1), fs.ladder(2), fs.ladder(5, raising=True)
    n1 = (fs.ladder(1, raising=True), fs.ladder(1))
    n2 = (fs.ladder(2, raising=True), fs.ladder(2))
    sizes = []
    for second in (0.5, -1.0, 0.5, -1.0):
        terms = [(1.0, a1 + a2, b), (second, a1, b), (1.0, *n1), (-2.0 * second, *n2)]
        sizes.append(fs.monomial_sum(space, terms).nnz)
    assert len(space._layouts) == 1
    assert sizes[0] == sizes[2] > sizes[1] == sizes[3]


def test_monomial_sum_keeps_few_layouts_and_shares_no_array():
    space = fs.build_space(1)
    for slot in range(8):
        first = fs.monomial_sum(space, [(1.0, fs.ladder(slot))])
        assert len(space._layouts) <= fs._LAYOUTS == 2
    want = monomial_reference.monomial_sum(space, [(1.0, fs.ladder(7))])
    first.indices[:] = 0
    first.indptr[:] = 0
    first.data[:] = 0.0
    _assert_same_bits(fs.monomial_sum(space, [(1.0, fs.ladder(7))]), want)


def test_monomial_sum_cache_dies_with_its_space():
    space = fs.build_space(2)
    k = kt.random_kappas(np.random.default_rng(151), 1e-2)
    h = hm.build_grouped(space, k, dp.polarization_frame(np.array([0.0, 0.0, 1.0])))
    arrays = [cols for cols, _, _ in space._bands.values()]
    arrays += [array for layout in space._layouts.values() for array in layout[:3]]
    assert len(arrays) > 60
    refs = [weakref.ref(space)] + [weakref.ref(array) for array in arrays]
    del space, arrays
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert h.nnz == 158192


def test_zero_kappa_blocks(space):
    frame = dp.polarization_frame(np.array([0.0, 0.0, 1.0]))
    blocks = _blocks(space, kt.KappaSet(), frame)
    S, T, Sb, Tb = _mode_operators(space)
    want_t = S[1] @ Sb[1] + S[2] @ Sb[2] + Tb[1] @ T[1] + Tb[2] @ T[2]
    assert abs(blocks["h_t"] - want_t).max() == 0.0
    want_ls0 = S[3] @ Sb[3] + Tb[3] @ T[3] - S[0] @ Sb[0] - Tb[0] @ T[0]
    assert abs(blocks["h_ls0"] - want_ls0).max() == 0.0
    xi = hm.xi_generators(space, kt.KappaSet(), frame)
    for block in (blocks["h_pm_t"], blocks["h_lslv"], blocks["h_p_tls"], blocks["h_m_tls"], xi):
        assert abs(block).max() == 0.0


def test_zero_kappa_raw_equals_covariant_blocks(space):
    frame = dp.polarization_frame(np.array([0.0, 0.0, 1.0]))
    raw = hm.build_raw(space, np.zeros((4, 4, 4, 4)), frame)
    blocks = _blocks(space, kt.KappaSet(), frame)
    assert abs(raw - (blocks["h_t"] + blocks["h_ls0"])).max() < 1e-14


def test_zero_kappa_commutes_with_transverse_numbers(space):
    frame = dp.polarization_frame(np.array([0.0, 0.0, 1.0]))
    h = hm.build_grouped(space, kt.KappaSet(), frame)
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
        h = hm.build_grouped(space, k, frame)
        raw = hm.build_raw(space, kf, frame)
        assert abs(raw - h).max() < 1e-12


def test_blocks_bar_self_adjoint(space):
    rng = np.random.default_rng(52)
    k = kt.random_kappas(rng, 1e-2)
    frame = dp.polarization_frame(dp.random_directions(rng))
    for block in _blocks(space, k, frame).values():
        assert abs(fs.bar_adjoint(space, block) - block).max() < 1e-15
    xi = hm.xi_generators(space, k, frame)
    assert abs(fs.bar_adjoint(space, xi) + xi).max() < 1e-15


def test_single_photon_gap_is_modified_dispersion(space2):
    rng = np.random.default_rng(53)
    k = kt.random_kappas(rng, 1e-2)
    khat = dp.random_directions(rng)
    frame = dp.polarization_frame(khat)
    h = hm.build_grouped(space2, k, frame)
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
    kf2 = 2.0 * kf1
    h0 = hm.build_raw(space, np.zeros((4, 4, 4, 4)), frame)
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


def test_raw_and_grouped_share_the_perturbative_boundary(space):
    # at magnitude exactly 0.1 the tensor's read-off can land a few ulps
    # above the limit; build_raw must accept what build_grouped accepts
    frame = dp.polarization_frame(np.array([0.0, 0.0, 1.0]))
    edge = kt.KappaSet(e_minus=np.diag([0.1, -0.1, 0.0]))
    raw = hm.build_raw(space, kt.kf_from_kappas(edge), frame)
    assert abs(raw - hm.build_grouped(space, edge, frame)).max() < 1e-12
    big = kt.KappaSet(e_minus=np.diag([0.15, -0.15, 0.0]))
    with pytest.raises(ValueError, match="perturbative"):
        hm.build_raw(space, kt.kf_from_kappas(big), frame)


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
    h = hm.build_grouped(space, k, frame)
    xi = hm.xi_generators(space, k, frame)
    # Over every basis column M G is exp(xi) H exp(-xi), since M^2 = 1.
    basis = sp.identity(space.dim, dtype=complex, format="csc")
    mdiag = fs.metric_diagonal(space)[:, None]
    zero = sp.csr_matrix(h.shape, dtype=complex)
    same = mdiag * hm.transformed_matrices(space, [h], zero, basis)[0]
    assert np.max(np.abs(same - h.toarray())) == 0.0
    transformed = mdiag * hm.transformed_matrices(space, [h], xi, basis)[0]
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
        h = hm.build_grouped(space2, k, frame)
        xi = hm.xi_generators(space2, k, frame)
        before.append(abs(fs.indefinite_inner(space2, pair, h @ vac)))
        after.append(abs(hm.transformed_element(space2, h, xi, pair, vac)))
    assert before[0] / before[1] == pytest.approx(10.0, rel=0.2)  # linear pre-transform
    slope = np.log10(after[0] / after[1])
    assert 1.8 < slope < 2.2


def test_transformed_expectation_matches_dense(space, dense_similarity):
    rng = np.random.default_rng(57)
    k = kt.random_kappas(rng, 1e-2)
    frame = dp.polarization_frame(dp.random_directions(rng))
    h = hm.build_grouped(space, k, frame)
    xi = hm.xi_generators(space, k, frame)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    phi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    dense = dense_similarity(h, xi)
    want = fs.indefinite_inner(space, psi, dense @ psi)
    got = hm.transformed_expectation(space, h, xi, psi)
    assert got == pytest.approx(want, abs=1e-10)
    want_elem = fs.indefinite_inner(space, psi, dense @ phi)
    got_elem = hm.transformed_element(space, h, xi, psi, phi)
    assert got_elem == pytest.approx(want_elem, abs=1e-10)


def _full_space_evolution(xi, vec):
    """The reference exp(-xi) vec over the whole space."""
    return expm_multiply(-xi, np.asarray(vec, dtype=complex))


@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_evolve_matches_expm_multiply_on_the_transverse_factor(cutoff):
    space = hm.transverse_space(cutoff)
    rng = np.random.default_rng(40 + cutoff)
    k = kt.random_kappas(rng, 1e-2)
    frame = dp.polarization_frame(dp.random_directions(rng))
    xi = sp.csr_matrix(transverse_reference.build_transverse(space, k, frame)[1])
    labels = fs.coupled_blocks(xi)
    vacuum = np.zeros(space.dim, dtype=complex)
    vacuum[0] = 1.0
    spread = np.zeros(space.dim, dtype=complex)
    picks = rng.choice(space.dim, size=6, replace=False)
    spread[picks] = rng.normal(size=6) + 1j * rng.normal(size=6)
    for vec in (vacuum, spread):
        got = np.zeros(space.dim, dtype=complex)
        for rows, ids, values in fs.propagate_blocks(-1j * xi, sp.csc_matrix(vec[:, None]), 1.0):
            assert ids.tolist() == [0]
            got[rows] = values[:, 0]
        idx = np.flatnonzero(np.isin(labels, labels[np.flatnonzero(vec)]))
        want = _full_space_evolution(xi, vec)
        assert np.max(np.abs(got[idx] - want[idx])) <= 1e-14 * np.max(np.abs(want))
        assert not np.any(np.delete(got, idx))
        assert not np.any(np.delete(want, idx))


def _spread_states(space):
    """The vacuum, three basis states, and a state spread over three blocks of Xi.

    Returns (vac, one, pair, ghost, mixed): one +k photon of
    polarization 2, the +-k pair of polarization 1, a ghost pair, and
    mixed = 0.6 vac + (0.3 - 0.2i) one + 0.5i ghost.
    """

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
    return vac, one, pair, ghost, 0.6 * vac + (0.3 - 0.2j) * one + 0.5j * ghost


@pytest.mark.parametrize("cutoff", [2, 3])
def test_block_restricted_transform_matches_full_space(cutoff):
    space = fs.build_space(cutoff)
    rng = np.random.default_rng(90 + cutoff)
    k = kt.random_kappas(rng, 1e-2)
    frame = dp.polarization_frame(np.array([0.41, 0.32, -0.86]) / np.linalg.norm([0.41, 0.32, -0.86]))
    h = hm.build_grouped(space, k, frame)
    xi = hm.xi_generators(space, k, frame)
    labels = fs.coupled_blocks(xi)
    vac, one, pair, ghost, mixed = _spread_states(space)
    assert len(set(labels[np.flatnonzero(mixed)])) == 3
    states = (vac, one, pair, ghost, mixed)
    evolved = [_full_space_evolution(xi, psi) for psi in states]

    for psi, phi in zip(states, evolved):
        want = fs.indefinite_inner(space, phi, h @ phi)
        got = hm.transformed_expectation(space, h, xi, psi)
        assert abs(got - want) <= 1e-12
    for bra, ket in ((pair, vac), (mixed, one), (mixed, mixed)):
        want = fs.indefinite_inner(
            space, _full_space_evolution(xi, bra), h @ _full_space_evolution(xi, ket)
        )
        got = hm.transformed_element(space, h, xi, bra, ket)
        assert abs(got - want) <= 1e-12
    # every pair of the five states
    want = np.array(
        [[fs.indefinite_inner(space, bra, h @ ket) for ket in evolved] for bra in evolved]
    )
    (got,) = hm.transformed_matrices(space, [h], xi, states)
    assert got.shape == (5, 5)
    assert np.max(np.abs(got - want)) <= 1e-12
    zero = np.zeros(space.dim)
    assert hm.transformed_matrices(space, [h], xi, [zero])[0][0, 0] == 0.0
    (got,) = hm.transformed_matrices(space, [h], xi, [zero, vac])
    assert np.all(got[0] == 0.0) and np.all(got[:, 0] == 0.0)
    assert abs(got[1, 1] - want[0, 0]) <= 1e-12
    assert hm.transformed_expectation(space, h, xi, zero) == 0.0


def test_ghost_vacuum_constant_matches_full_space(space2):
    # <0| h_ls0 + h_lslv |0> on the 8-mode space, for random kappas
    rng = np.random.default_rng(61)
    vac = fs.vacuum_state(space2)
    for _ in range(4):
        frame = dp.polarization_frame(dp.random_directions(rng))
        blocks = _blocks(space2, kt.random_kappas(rng, 1e-2), frame)
        assert abs(blocks["h_lslv"]).max() > 0.0
        element = fs.indefinite_inner(space2, vac, (blocks["h_ls0"] + blocks["h_lslv"]) @ vac)
        assert element == transverse_reference.GHOST_VACUUM_ENERGY


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
    h_full = hm.build_grouped(space, k, frame)
    xi_full = hm.xi_generators(space, k, frame)
    h, xi = transverse_reference.build_transverse(factor, k, frame)
    ghost_slots = [0, 3, 4, 7]
    empty = np.flatnonzero(~space.occupations[:, ghost_slots].any(axis=1))
    others = np.setdiff1d(np.arange(space.dim), empty)
    assert np.array_equal(space.occupations[empty][:, md.TRANSVERSE_SLOTS], factor.occupations)
    assert abs(h_full[empty][:, empty] - h).max() == 0.0
    assert abs(xi_full[empty][:, empty] - xi).max() == 0.0
    assert abs(xi_full[others][:, empty]).max() == 0.0
    assert abs(xi_full[empty][:, others]).max() == 0.0


def test_build_transverse_rejects_the_full_space(space):
    # the 8-mode space would silently yield H on its first four slots
    k = kt.random_kappas(np.random.default_rng(82), 1e-2)
    frame = dp.polarization_frame(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="4-mode transverse factor"):
        transverse_reference.build_transverse(space, k, frame)


def test_momentum_operator(space):
    rng = np.random.default_rng(58)
    kvec = np.array([0.3, -1.1, 0.7])
    k = kt.random_kappas(rng, 1e-2)
    momentum = hm.momentum_operator(space, kvec)
    # exactly conserved by the Xi transform: P is diagonal and every Xi
    # term moves one +k and one -k quantum together
    xi = hm.xi_generators(space, k, dp.polarization_frame(kvec / np.linalg.norm(kvec)))
    for p in momentum:
        assert abs(p @ xi - xi @ p).max() == 0.0
    vac = fs.vacuum_state(space)
    for p in momentum:
        assert fs.indefinite_inner(space, vac, p @ vac) == 0.0
    one = np.zeros(space.dim, dtype=complex)
    occ = [0] * 8
    occ[fs.ModeId(fs.PLUS_K, 2).slot] = 1
    one[space.index_of(occ)] = 1.0
    got = [fs.indefinite_inner(space, one, p @ one) for p in momentum]
    assert np.allclose(got, kvec, atol=1e-15)


def test_momentum_commutes_with_hamiltonian(space):
    rng = np.random.default_rng(59)
    k = kt.random_kappas(rng, 1e-2)
    khat = dp.random_directions(rng)
    frame = dp.polarization_frame(khat)
    h = hm.build_grouped(space, k, frame)
    for p in hm.momentum_operator(space, 2.2 * khat):
        assert abs(p @ h - h @ p).max() < 1e-15


def test_propagate_blocks_matches_propagate_on_the_whole_operator():
    space = fs.build_space(2)
    rng = np.random.default_rng(94)
    k = kt.random_kappas(rng, 1e-2)
    frame = dp.polarization_frame(dp.random_directions(rng))
    b = -1j * hm.xi_generators(space, k, frame)
    labels = fs.coupled_blocks(b)
    vac, one, pair, ghost, mixed = _spread_states(space)
    zero = np.zeros(space.dim, dtype=complex)
    states = np.column_stack((vac, pair, mixed, zero, one, ghost))
    assert labels[np.flatnonzero(vac)] == labels[np.flatnonzero(pair)]  # two in one block
    assert len(set(labels[np.flatnonzero(mixed)])) == 3
    columns = sp.csc_matrix(states)

    want = fs.propagate(b, states, 1.0)
    got = np.zeros_like(want)
    yielded = []
    for rows, ids, values in fs.propagate_blocks(b, columns, 1.0):
        block = labels[rows[0]]
        yielded.append(block)
        assert np.array_equal(rows, np.flatnonzero(labels == block))
        assert ids.tolist() == np.flatnonzero(np.any(states[rows] != 0, axis=0)).tolist()
        got[np.ix_(rows, ids)] = values
    # one yield per block that holds a nonzero, in label order; none for
    # the zero column, which stays exactly zero
    assert yielded == sorted(set(labels[np.flatnonzero(np.any(states != 0, axis=1))]))
    assert len(yielded) == 3
    assert np.max(np.abs(got - want)) <= 1e-13
    assert not np.any(got[:, 3])
    assert not np.any(want[~np.isin(labels, yielded)])
    assert list(fs.propagate_blocks(b, sp.csc_matrix((space.dim, 2)), 1.0)) == []
