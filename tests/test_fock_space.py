"""Tests for the truncated 8-mode space and the indefinite metric."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from lvphoton import checks
from lvphoton import dispersion as dp
from lvphoton import fock_space as fs
from lvphoton import hamiltonian as hm
from lvphoton import kappa_tensor as kt
from lvphoton import lorenz as lz
from lvphoton import modes as md

import transverse_reference  # tests/transverse_reference.py


def dense(a):
    return np.asarray(a.todense())


def test_dimensions_and_bijection():
    assert fs.build_space(1).dim == 256
    assert fs.build_space(2).dim == 6561
    space = fs.build_space(1)
    for idx in range(space.dim):
        assert space.index_of(space.occupations[idx]) == idx
    with pytest.raises(ValueError):
        fs.build_space(0)
    with pytest.raises(ValueError):
        fs.build_space(5)


@pytest.mark.parametrize("cutoff", [0, -1, 1.5, 2.0, True, "2", None])
def test_build_space_refuses_bad_cutoffs(cutoff):
    with pytest.raises(ValueError, match="between 1 and 4"):
        fs.build_space(cutoff)


def test_build_space_stores_integer_cutoffs_as_int():
    space = fs.build_space(np.int64(2))
    assert type(space.cutoff) is int and type(space.base) is int
    assert space.dim == 6561


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_annihilator_matches_kron_chain_bitwise(cutoff, kron_ladder, assert_same_csr):
    # lowering through annihilator, raising through a one-factor monomial
    space = fs.build_space(cutoff)
    for mode in md.ALL_MODES:
        assert_same_csr(fs.annihilator(space, mode), kron_ladder(space, mode.slot))
        raising = fs.monomial_sum(space, [(1.0, fs.ladder(mode.slot, raising=True))])
        assert_same_csr(raising, kron_ladder(space, mode.slot, raising=True))


def test_annihilator_ladder_action():
    space = fs.build_space(2)
    mode = fs.ModeId(fs.PLUS_K, 1)
    a = fs.annihilator(space, mode)
    vac = fs.vacuum_state(space)
    assert np.max(np.abs(a @ vac)) == 0.0
    one = np.zeros(space.dim, dtype=complex)
    one[space.index_of([0, 1, 0, 0, 0, 0, 0, 0])] = 1.0
    assert np.max(np.abs(a @ one - vac)) == 0.0
    two = np.zeros(space.dim, dtype=complex)
    two[space.index_of([0, 2, 0, 0, 0, 0, 0, 0])] = 1.0
    assert np.max(np.abs(a @ two - np.sqrt(2) * one)) < 1e-15


def test_canonical_commutators_on_interior():
    space = fs.build_space(2)
    proj = sp.diags(fs.interior_mask(space).astype(complex), format="csr")
    modes = [fs.ModeId(fs.PLUS_K, 0), fs.ModeId(fs.PLUS_K, 2), fs.ModeId(fs.MINUS_K, 3)]
    for r, mr in enumerate(modes):
        for s, ms in enumerate(modes):
            a = fs.annihilator(space, mr)
            bdag = fs.annihilator(space, ms).conj().T.tocsr()
            comm = proj @ (a @ bdag - bdag @ a) @ proj
            want = (proj if mr.slot == ms.slot else sp.csr_matrix((space.dim, space.dim)))
            assert abs(comm - want).max() < 1e-13


def test_metric_examples_and_involution():
    space = fs.build_space(1)
    mdiag = fs.metric_diagonal(space)
    assert mdiag[0] == 1.0  # vacuum
    one_scalar = space.index_of([1, 0, 0, 0, 0, 0, 0, 0])
    assert mdiag[one_scalar] == -1.0
    both_scalars = space.index_of([1, 0, 0, 0, 1, 0, 0, 0])
    assert mdiag[both_scalars] == 1.0
    m = fs.metric_M(space)
    eye = sp.identity(space.dim, format="csr")
    assert abs(m @ m - eye).max() == 0.0
    assert abs(m - m.conj().T).max() == 0.0


def test_bar_adjoint_examples():
    space = fs.build_space(1)
    a1 = fs.annihilator(space, fs.ModeId(fs.PLUS_K, 1))
    assert abs(fs.bar_adjoint(space, a1) - a1.conj().T).max() == 0.0
    a0 = fs.annihilator(space, fs.ModeId(fs.PLUS_K, 0))
    assert abs(fs.bar_adjoint(space, a0) + a0.conj().T).max() == 0.0


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_metric_diagonal_matches_power_form(cutoff):
    space = fs.build_space(cutoff)
    power = (-1.0) ** (space.occupations[:, 0] + space.occupations[:, 4])
    got = fs.metric_diagonal(space)
    assert got.dtype == power.dtype
    assert np.array_equal(got, power)


def _metric_products(space, a):
    """The reference bar-adjoint, M A-dagger M as two sparse products."""
    m = fs.metric_M(space)
    return (m @ a.conj().T @ m).tocsr()


def test_bar_adjoint_matches_metric_products_bitwise():
    space = fs.build_space(2)
    rng = np.random.default_rng(73)
    ops = [fs.annihilator(space, mode) for mode in md.ALL_MODES]
    rand = sp.random(space.dim, space.dim, density=1e-3, format="csr", rng=rng)
    ops.append((rand + 1j * sp.random(space.dim, space.dim, density=1e-3, format="csr", rng=rng)).tocsr())
    for a in ops:
        got = fs.bar_adjoint(space, a)
        want = _metric_products(space, a)
        got.sort_indices()
        want.sort_indices()
        assert got.dtype == want.dtype
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


def test_coupled_blocks_are_undirected_components():
    # 0-1 coupled both ways, 3 -> 2 one way only, 4 isolated; complex data
    op = sp.csr_matrix(
        ([1j, -1j, 0.5 + 2j], ([0, 1, 3], [1, 0, 2])), shape=(5, 5)
    )
    labels = fs.coupled_blocks(op)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert len({labels[0], labels[2], labels[4]}) == 3


def _csgraph_labels(op):
    """The block labels of scipy's graph search, the finder's reference."""
    from scipy.sparse.csgraph import connected_components

    op = sp.csr_matrix(op)
    # every stored entry links its states, explicit zeros included
    pattern = sp.csr_matrix((np.ones(op.nnz), op.indices, op.indptr), shape=op.shape)
    return connected_components(pattern, directed=False)[1]


def _physics_operator(name):
    """H with and without the A-C defect, Xi and the reduced ghost couplings."""
    rng = np.random.default_rng(29)
    k = kt.random_kappas(rng, 1e-2)
    frame = dp.polarization_frame(dp.random_directions(rng))
    kind, _, rest = name.partition("-")
    if kind == "ghost":
        g = lz.ghost_space(3)
        return lz.ghost_lslv(g, 0.37) if rest == "lslv" else lz.ghost_pm_tls(g, 0.61, 0.83)
    if kind == "factor":
        factor = hm.transverse_space(int(rest))
        return transverse_reference.build_transverse(factor, k, frame)[1]
    space = fs.build_space(int(rest[0]))
    if kind == "xi":
        return hm.xi_generators(space, k, frame)
    h = hm.build_grouped(space, k, frame)
    return checks._inject_c_defect(space, h) if rest.endswith("defect") else h


def _as_given(n, rows, cols, data):
    """A CSR holding the entries as given: not summed, sorted or pruned."""
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(n + 1))
    return sp.csr_matrix((data[order], cols[order], indptr), shape=(n, n))


def _random_pattern(n, density, seed):
    """One-way entries, stored zeros, duplicates, unsorted rows, isolated states."""
    rng = np.random.default_rng(seed)
    count = max(1, int(density * n * n))
    rows = rng.integers(n, size=count)
    cols = rng.integers(n, size=count)
    rows = np.concatenate([rows, rows[: count // 4]])
    cols = np.concatenate([cols, cols[: count // 4]])
    data = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
    data[rng.random(rows.size) < 0.3] = 0.0
    return _as_given(n, rows, cols, data)


@pytest.mark.parametrize(
    "name",
    # the A-C defect couples a state with n_d + n_g = 2, past cutoff 1
    ["h-1", "h-2", "h-2-defect", "h-3", "h-3-defect", "xi-2"]
    + [f"factor-{cutoff}" for cutoff in (2, 3, 4, 5, 6)]
    + ["ghost-lslv", "ghost-tls"],
)
def test_coupled_blocks_match_csgraph_on_operators(name):
    op = _physics_operator(name)
    assert np.array_equal(fs.coupled_blocks(op), _csgraph_labels(op))


@pytest.mark.parametrize("n", [1, 2, 7, 40, 300])
@pytest.mark.parametrize("density", [0.002, 0.02, 0.1])
def test_coupled_blocks_match_csgraph_on_random_patterns(n, density):
    for seed in range(5):
        op = _random_pattern(n, density, seed)
        assert np.array_equal(fs.coupled_blocks(op), _csgraph_labels(op)), seed


def test_coupled_blocks_of_zero_matrices():
    assert np.array_equal(fs.coupled_blocks(sp.csr_matrix((6, 6))), np.arange(6))
    # stored zeros link their states like any other entry
    zeros = _as_given(6, np.array([0, 4, 2]), np.array([5, 1, 2]), np.zeros(3))
    assert np.array_equal(fs.coupled_blocks(zeros), [0, 1, 2, 3, 1, 0])
    assert np.array_equal(fs.coupled_blocks(zeros), _csgraph_labels(zeros))


@pytest.mark.parametrize("shuffle", [False, True])
def test_coupled_blocks_follow_a_long_chain(shuffle):
    # one block of 100 000 states: a finder needing one pass per link
    # would take 100 000 passes here
    n = 100_000
    order = np.random.default_rng(37).permutation(n) if shuffle else np.arange(n)
    chain = _as_given(n, order[:-1], order[1:], np.ones(n - 1))
    labels = fs.coupled_blocks(chain)
    assert not labels.any()
    assert np.array_equal(labels, _csgraph_labels(chain))


def test_bar_adjoint_involution_antihomomorphism():
    space = fs.build_space(1)
    rng = np.random.default_rng(41)
    a = sp.csr_matrix(rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim)))
    b = sp.csr_matrix(rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim)))
    assert abs(fs.bar_adjoint(space, fs.bar_adjoint(space, a)) - a).max() < 1e-12
    lhs = fs.bar_adjoint(space, a @ b)
    rhs = fs.bar_adjoint(space, b) @ fs.bar_adjoint(space, a)
    assert abs(lhs - rhs).max() < 1e-12


def test_mode_commutators_with_bar():
    # [a_r, bar(a_s)] = zeta_r delta_rs with zeta = (-1, 1, 1, 1),
    # checked as a matrix identity on the interior subspace.
    space = fs.build_space(2)
    proj = sp.diags(fs.interior_mask(space).astype(complex), format="csr")
    eye = sp.identity(space.dim, format="csr")
    for r in range(4):
        for s in range(4):
            ar = fs.annihilator(space, fs.ModeId(fs.PLUS_K, r))
            abar = fs.bar_adjoint(space, fs.annihilator(space, fs.ModeId(fs.PLUS_K, s)))
            comm = proj @ (ar @ abar - abar @ ar) @ proj
            want = md.ZETA[r] * (proj if r == s else 0.0 * eye)
            assert abs(comm - want).max() < 1e-13


def test_indefinite_inner_examples():
    space = fs.build_space(2)
    vac = fs.vacuum_state(space)
    assert fs.indefinite_inner(space, vac, vac) == 1.0
    one0 = np.zeros(space.dim, dtype=complex)
    one0[space.index_of([1, 0, 0, 0, 0, 0, 0, 0])] = 1.0
    assert fs.indefinite_inner(space, one0, one0) == -1.0


def test_dg_commutators_and_bar():
    space = fs.build_space(2)
    proj = sp.diags(fs.interior_mask(space).astype(complex), format="csr")
    a_d, a_g = fs.dg_operators(space, fs.PLUS_K)
    for op in (a_d, a_g):
        bar = fs.bar_adjoint(space, op)
        comm = proj @ (op @ bar - bar @ op) @ proj
        assert abs(comm).max() < 1e-13
    bar_g = fs.bar_adjoint(space, a_g)
    comm = proj @ (a_d @ bar_g - bar_g @ a_d) @ proj
    assert abs(comm - 1j * proj).max() < 1e-13
    # bar(a_d) = -i a_g-dagger and bar(a_g) = +i a_d-dagger
    assert abs(fs.bar_adjoint(space, a_d) + 1j * a_g.conj().T).max() < 1e-14
    assert abs(fs.bar_adjoint(space, a_g) - 1j * a_d.conj().T).max() < 1e-14
    # physical-metric commutators: two independent unit bosons
    for op, other in ((a_d, a_g), (a_g, a_d)):
        comm = proj @ (op @ op.conj().T - op.conj().T @ op) @ proj
        assert abs(comm - proj).max() < 1e-13
        cross = proj @ (op @ other.conj().T - other.conj().T @ op) @ proj
        assert abs(cross).max() < 1e-13


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_dg_operators_match_rotated_kron_chains_bitwise(cutoff, kron_ladder, assert_same_csr):
    # the sparse sums DG[3] a3 + DG[0] a0 of kron-chain lowering operators
    space = fs.build_space(cutoff)
    for direction in (fs.PLUS_K, fs.MINUS_K):
        a0, a3 = (kron_ladder(space, fs.ModeId(direction, p).slot) for p in (0, 3))
        for got, coefs in zip(fs.dg_operators(space, direction), (md.DG_D, md.DG_G)):
            assert_same_csr(got, (coefs[3] * a3 + coefs[0] * a0).tocsr())


def test_dg_inverts_to_longitudinal():
    space = fs.build_space(1)
    a_d, a_g = fs.dg_operators(space, fs.MINUS_K)
    a3 = fs.annihilator(space, fs.ModeId(fs.MINUS_K, 3))
    rebuilt = (a_g - 1j * a_d) / np.sqrt(2.0)
    assert abs(rebuilt - a3).max() < 1e-15


def test_dg_basis_state_vacuum_and_norms():
    space = fs.build_space(2)
    vac = fs.dg_basis_state(space, (0, 0, 0, 0), (0, 0, 0, 0))
    assert np.max(np.abs(vac - fs.vacuum_state(space))) == 0.0
    psi = fs.dg_basis_state(space, (1, 0, 1, 1), (0, 2, 0, 0))
    assert np.linalg.norm(psi) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        fs.dg_basis_state(space, (0, 0, 2, 1))  # n_d + n_g beyond cutoff
    with pytest.raises(ValueError):
        fs.dg_basis_state(space, (3, 0, 0, 0))


def _all_dg_tuples(cutoff):
    trans = list(itertools.product(range(cutoff + 1), repeat=2))
    ghosts = [(nd, ng) for nd, ng in trans if nd + ng <= cutoff]
    sides = [t + g for t in trans for g in ghosts]
    return list(itertools.product(sides, sides))


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_dg_basis_columns_match_raised_vacuum(cutoff, dg_reference):
    # every (plus, minus) tuple at cutoffs 1 and 2, a random sample at 3
    space = fs.build_space(cutoff)
    states = _all_dg_tuples(cutoff)
    if cutoff == 3:
        rng = np.random.default_rng(11)
        states = [states[i] for i in rng.choice(len(states), 150, replace=False)]
    for start in range(0, len(states), 256):
        chunk = states[start : start + 256]
        got = fs.dg_basis_columns(space, chunk)
        assert got.shape == (space.dim, len(chunk))
        want = np.column_stack(list(dg_reference(space, chunk)))
        assert np.max(np.abs(got.toarray() - want)) <= 1e-15
    single = fs.dg_basis_state(space, *states[-1])
    assert np.array_equal(single, got[:, [-1]].toarray().ravel())


def test_dg_basis_columns_validate_and_allow_empty():
    space = fs.build_space(1)
    assert fs.dg_basis_columns(space, []).shape == (space.dim, 0)
    with pytest.raises(ValueError, match="exceed the truncation"):
        fs.dg_basis_columns(space, [((0, 0, 0, 0), (0, 0, 1, 1))])
    with pytest.raises(ValueError, match="4 nonnegative"):
        fs.dg_basis_columns(space, [((0, 0, 0), (0, 0, 0, 0))])


@pytest.mark.parametrize(
    "bad, message",
    [
        (((0, 0, 0), (0, 0, 0, 0)), "4 nonnegative"),
        (((0, 0, 0, 0), (0, 0, 0, 0, 0)), "4 nonnegative"),
        (((), ()), "4 nonnegative"),
        (((0, -1, 0, 0), (0, 0, 0, 0)), "4 nonnegative"),
        (((0, 0, 0, 0), (3, 0, 0, 0)), "exceed the truncation"),
        (((0, 0, 0, 0), (0, 3, 0, 0)), "exceed the truncation"),
        (((0, 0, 2, 1), (0, 0, 0, 0)), "exceed the truncation"),
        (((0, 0, 0, 0), (0, 0, 1, 2)), "exceed the truncation"),
    ],
)
def test_dg_basis_columns_reject_one_bad_tuple_in_a_batch(bad, message):
    # the batch is validated as one array, with the single-tuple messages
    space = fs.build_space(2)
    good = _all_dg_tuples(1)[:5]
    with pytest.raises(ValueError, match=message):
        fs.dg_basis_columns(space, good[:3] + [bad] + good[3:])
    with pytest.raises(ValueError, match=message):
        fs.check_dg_occupations(space, *bad)
    with pytest.raises(ValueError, match=message):
        fs.dg_basis_state(space, *bad)
    assert fs.check_dg_occupations(space, [1, 2, 1, 1], np.array([0, 0, 2, 0])) == (
        (1, 2, 1, 1),
        (0, 0, 2, 0),
    )


def test_metric_on_dg_states():
    # M|n_d, m_g> = i^(m-n) |m_d, n_g> per direction.
    space = fs.build_space(2)
    mdiag = fs.metric_diagonal(space)
    for n, m in ((0, 1), (1, 0), (1, 1), (0, 2), (2, 0)):
        psi = fs.dg_basis_state(space, (0, 0, n, m))
        swapped = fs.dg_basis_state(space, (0, 0, m, n))
        assert np.max(np.abs(mdiag * psi - 1j ** (m - n) * swapped)) < 1e-13


def test_indefinite_norms_of_ghost_states():
    # <n1,n2,nd,ng | n1',n2',nd',ng'>_indef = i^(ng'-nd') delta_{n1 n1'}
    # delta_{n2 n2'} delta_{ng nd'} delta_{ng' nd} in each direction:
    # states have zero indefinite norm unless n_d = n_g.
    space = fs.build_space(2)
    tuples = [(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1), (1, 0, 1, 0), (0, 0, 2, 0)]
    for ket in tuples:
        for bra in tuples:
            got = fs.indefinite_inner(
                space, fs.dg_basis_state(space, bra), fs.dg_basis_state(space, ket)
            )
            n1b, n2b, ndb, ngb = bra
            n1k, n2k, ndk, ngk = ket
            want = 0.0
            if n1b == n1k and n2b == n2k and ngb == ndk and ngk == ndb:
                want = 1j ** (ngk - ndk)
            assert got == pytest.approx(want, abs=1e-13)
