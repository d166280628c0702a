"""Tests for the truncated 8-mode space and the indefinite metric."""

import numpy as np
import pytest
import scipy.sparse as sp

from lvphoton import fock_space as fs


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


def _kron_annihilator(space, mode):
    """Reference lowering operator: kron chain of single-mode factors."""
    lower = sp.diags(np.sqrt(np.arange(1, space.base)), 1, format="csr")
    out = sp.identity(1, format="csr")
    for slot in range(8):
        factor = lower if slot == mode.slot else sp.identity(space.base, format="csr")
        out = sp.kron(out, factor, format="csr")
    return out.astype(complex)


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_annihilator_matches_kron_chain_bitwise(cutoff):
    space = fs.build_space(cutoff)
    for mode in fs.ALL_MODES:
        got = fs.annihilator(space, mode)
        want = _kron_annihilator(space, mode)
        assert type(got) is type(want)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name


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
    proj = fs.interior_projector(space)
    modes = [fs.ModeId(fs.PLUS_K, 0), fs.ModeId(fs.PLUS_K, 2), fs.ModeId(fs.MINUS_K, 3)]
    for r, mr in enumerate(modes):
        for s, ms in enumerate(modes):
            a = fs.annihilator(space, mr)
            bdag = fs.creator(space, ms)
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
    proj = fs.interior_projector(space)
    eye = sp.identity(space.dim, format="csr")
    for r in range(4):
        for s in range(4):
            ar = fs.annihilator(space, fs.ModeId(fs.PLUS_K, r))
            abar = fs.bar_adjoint(space, fs.annihilator(space, fs.ModeId(fs.PLUS_K, s)))
            comm = proj @ (ar @ abar - abar @ ar) @ proj
            want = fs.ZETA[r] * (proj if r == s else 0.0 * eye)
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
    proj = fs.interior_projector(space)
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
