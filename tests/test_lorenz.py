"""Tests for the gauge-condition machinery and the invariant subspace.

The counting oracle is checked against explicit operator products on
the reduced ghost space, which is the module's central oracle
relationship: the algebraic feasibility system and the matrix algebra
must sort exactly the same (start, step-count) pairs into coupled and
uncoupled.
"""

import gc
import itertools
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply
from scipy.special import jv

from lvphoton import checks
from lvphoton import dispersion as dp
from lvphoton import fock_space as fs
from lvphoton import hamiltonian as hm
from lvphoton import kappa_tensor as kt
from lvphoton import lorenz as lz

import propagate_reference  # tests/propagate_reference.py


@pytest.fixture(scope="module")
def space():
    return fs.build_space(2)


@pytest.fixture(scope="module")
def frame():
    return dp.polarization_frame(np.array([0.0, 0.0, 1.0]))


def test_classify_examples(space):
    assert lz.classify(space, (0, 0, 0, 0)) is lz.StateClass.A
    assert lz.classify(space, (2, 1, 0, 0), (1, 0, 0, 0)) is lz.StateClass.A
    assert lz.classify(space, (0, 0, 1, 1)) is lz.StateClass.C
    assert lz.classify(space, (0, 0, 0, 0), (0, 0, 1, 1)) is lz.StateClass.C
    assert lz.classify(space, (0, 0, 1, 0)) is lz.StateClass.B_PLUS
    assert lz.classify(space, (0, 0, 0, 1)) is lz.StateClass.B_MINUS
    # equal counts in +k, the -k direction breaks the tie
    assert lz.classify(space, (0, 0, 1, 1), (0, 0, 1, 0)) is lz.StateClass.B_PLUS
    assert lz.partner_occupations((0, 0, 1, 0))[0] == (0, 0, 0, 1)
    with pytest.raises(ValueError):
        lz.classify(space, (0, 0, 2, 1))  # ghost occupations past the cutoff
    with pytest.raises(ValueError):
        lz.classify(space, (0, 0, -1, 0))


@given(
    nd=st.integers(0, 4),
    ng=st.integers(0, 4),
    ndp=st.integers(0, 4),
    ngp=st.integers(0, 4),
)
@settings(max_examples=200, deadline=None)
def test_partner_pairing_property(nd, ng, ndp, ngp):
    label = lz._classify_tuple(nd, ng, ndp, ngp)
    mirror = lz._classify_tuple(ng, nd, ngp, ndp)
    zero_norm = nd != ng or ndp != ngp
    assert zero_norm == (label in (lz.StateClass.B_PLUS, lz.StateClass.B_MINUS))
    if label is lz.StateClass.B_PLUS:
        assert mirror is lz.StateClass.B_MINUS
    elif label is lz.StateClass.B_MINUS:
        assert mirror is lz.StateClass.B_PLUS
    else:
        assert mirror is label


def test_norm_rule_and_pairing_structure(space):
    # Every ghost combination at transverse vacuum: norms are 0 or 1 by
    # class, and the only nonzero inner products pair d/g mirrored states
    # with the quarter-turn phase.
    top = space.cutoff
    ghosts = [(nd, ng) for nd in range(top + 1) for ng in range(top + 1 - nd)]
    combos = list(itertools.product(ghosts, ghosts))
    stack = fs.dg_basis_columns(
        space, [((0, 0) + p, (0, 0) + m) for p, m in combos]
    ).toarray()
    mdiag = fs.metric_diagonal(space)
    gram = stack.conj().T @ (mdiag[:, None] * stack)
    index = {pm: i for i, pm in enumerate(combos)}
    for j, (p, m) in enumerate(combos):
        partner = ((p[1], p[0]), (m[1], m[0]))
        for i in range(len(combos)):
            want = 0.0
            if i == index[partner]:
                want = lz.pairing_phase((0, 0) + p, (0, 0) + m)
            assert abs(gram[i, j] - want) < 1e-12
    # transverse factors ride along: a decorated pair keeps its phase
    a = fs.dg_basis_state(space, (2, 1, 1, 0), (0, 1, 0, 2))
    b = fs.dg_basis_state(space, (2, 1, 0, 1), (0, 1, 2, 0))
    got = fs.indefinite_inner(space, b, a)
    assert abs(got - lz.pairing_phase((2, 1, 1, 0), (0, 1, 0, 2))) < 1e-12


def test_gupta_bleuler_check(space):
    assert lz.gupta_bleuler_check(space, fs.vacuum_state(space))
    assert lz.gupta_bleuler_check(space, fs.dg_basis_state(space, (0, 0, 0, 1)))
    assert lz.gupta_bleuler_check(
        space, fs.dg_basis_state(space, (1, 2, 0, 1), (0, 1, 0, 1))
    )
    assert not lz.gupta_bleuler_check(space, fs.dg_basis_state(space, (0, 0, 1, 0)))
    assert not lz.gupta_bleuler_check(
        space, fs.dg_basis_state(space, (0, 0, 0, 0), (0, 0, 1, 1))
    )


def test_gupta_bleuler_check_builds_the_ghost_operators_once(monkeypatch):
    # one build per direction for a run of checks on one space, the same
    # matrices as a fresh build, and a fresh build again on a new space
    calls = []
    dg_operators = fs.dg_operators

    def counted(space, direction):
        calls.append((space.cutoff, direction))
        return dg_operators(space, direction)

    monkeypatch.setattr(fs, "dg_operators", counted)
    for cutoff in (1, 2, 1):
        space = fs.build_space(cutoff)
        states = [fs.vacuum_state(space), fs.dg_basis_state(space, (0, 0, 1, 0))]
        states += [fs.dg_basis_state(space, (0, 0, 0, 1), (1, 0, 0, 0))] * 10
        assert [lz.gupta_bleuler_check(space, psi) for psi in states] == [True, False] + [True] * 10
        for direction in (fs.PLUS_K, fs.MINUS_K):
            fresh = dg_operators(fs.build_space(cutoff), direction)
            for got, want in zip(lz._dg_operators(space, direction), fresh):
                assert (got != want).nnz == 0
    assert calls == [(c, d) for c in (1, 2, 1) for d in (fs.PLUS_K, fs.MINUS_K)]


def test_ghost_operators_die_with_their_space():
    # they are kept on the space, not in a cache that outlives it
    space = fs.build_space(1)
    assert lz.gupta_bleuler_check(space, fs.vacuum_state(space))
    held = [weakref.ref(space)] + [
        weakref.ref(op) for direction in (fs.PLUS_K, fs.MINUS_K)
        for op in lz._dg_operators(space, direction)
    ]
    del space
    gc.collect()
    assert all(ref() is None for ref in held)


def test_weak_lorenz_examples(space):
    # pure d-excitations have zero norm and pass despite failing the
    # strong condition
    assert lz.weak_lorenz_check(space, fs.dg_basis_state(space, (1, 0, 2, 0)))
    assert not lz.gupta_bleuler_check(space, fs.dg_basis_state(space, (1, 0, 2, 0)))
    # C-class states have nonzero norm and fail
    assert not lz.weak_lorenz_check(space, fs.dg_basis_state(space, (0, 0, 1, 1)))
    # A-class (x) transverse passes outright
    assert lz.weak_lorenz_check(
        space, fs.dg_basis_state(space, (2, 1, 0, 0), (0, 1, 0, 0))
    )


def test_weak_lorenz_highest_d_state():
    # the whole zero-norm d-photon tower passes, up to the cutoff
    space3 = fs.build_space(3)
    psi = fs.dg_basis_state(space3, (0, 1, 3, 0))
    assert abs(fs.indefinite_inner(space3, psi, psi)) < 1e-12
    assert lz.weak_lorenz_check(space3, psi)


def test_weak_lorenz_rejects_hidden_c_component(space):
    # a C-class component tucked inside a zero-norm superposition: the
    # total norm vanishes but the nonzero-norm component fails the
    # strong condition, so the state must be rejected.
    c_state = fs.dg_basis_state(space, (0, 0, 1, 1))
    b_state = fs.dg_basis_state(space, (0, 0, 1, 0))
    partner = fs.dg_basis_state(space, (0, 0, 0, 1))
    psi = c_state + b_state + 0.5j * partner
    assert abs(fs.indefinite_inner(space, psi, psi)) < 1e-12
    assert not lz.weak_lorenz_check(space, psi)


def test_gb_implies_weak_lorenz(space):
    rng = np.random.default_rng(61)
    for _ in range(3):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = (
            coeffs[0] * fs.dg_basis_state(space, (0, 0, 0, 0))
            + coeffs[1] * fs.dg_basis_state(space, (1, 0, 0, 1))
            + coeffs[2] * fs.dg_basis_state(space, (0, 2, 0, 0), (1, 0, 0, 2))
            + coeffs[3] * fs.dg_basis_state(space, (0, 0, 0, 2))
        )
        assert lz.gupta_bleuler_check(space, psi)
        assert lz.weak_lorenz_check(space, psi)


def _transverse_observable(space):
    n1 = fs.number_operator(space, fs.ModeId(fs.PLUS_K, 1))
    n2 = fs.number_operator(space, fs.ModeId(fs.MINUS_K, 2))
    return (n1 + 0.7 * n2).tocsr()


def test_observable_indistinguishability_agrees(space):
    rng = np.random.default_rng(62)
    a = _transverse_observable(space)
    for _ in range(5):
        c_t = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi = (
            c_t[0] * fs.dg_basis_state(space, (0, 0, 0, 0))
            + c_t[1] * fs.dg_basis_state(space, (1, 0, 0, 0))
            + c_t[2] * fs.dg_basis_state(space, (1, 1, 0, 0), (0, 1, 0, 0))
        )
        c_b = rng.normal(size=2) + 1j * rng.normal(size=2)
        varphi = (
            c_b[0] * fs.dg_basis_state(space, (0, 0, 2, 0))
            + c_b[1] * fs.dg_basis_state(space, (1, 0, 1, 0), (0, 0, 1, 0))
        )
        c1, c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        mean1, mean2 = lz.observable_indistinguishability(
            space, psi, varphi, c1, c2, a
        )
        assert mean1 == pytest.approx(mean2, abs=1e-12)


def test_observable_indistinguishability_preconditions(space):
    a = _transverse_observable(space)
    psi = fs.dg_basis_state(space, (1, 0, 0, 0))
    with pytest.raises(ValueError, match="zero indefinite norm"):
        lz.observable_indistinguishability(
            space, psi, fs.dg_basis_state(space, (0, 0, 1, 1)), 1.0, 1.0, a
        )
    with pytest.raises(ValueError, match="nonzero indefinite norm"):
        lz.observable_indistinguishability(
            space,
            fs.dg_basis_state(space, (0, 0, 1, 0)),
            fs.dg_basis_state(space, (0, 0, 2, 0)),
            1.0,
            1.0,
            a,
        )
    # psi containing the partner of a d-excited varphi: the cross term
    # survives and the orthogonality precondition must reject the pair.
    tainted = psi + 0.3 * fs.dg_basis_state(space, (1, 0, 0, 1))
    varphi = fs.dg_basis_state(space, (1, 0, 1, 0))
    with pytest.raises(ValueError, match="orthogonal"):
        lz.observable_indistinguishability(space, tainted, varphi, 1.0, 1.0, a)
    # c2 = 0 keeps the means trivially equal
    mean1, mean2 = lz.observable_indistinguishability(
        space, psi, fs.dg_basis_state(space, (0, 0, 2, 0)), 0.8 + 0.1j, 0.0, a
    )
    assert mean1 == pytest.approx(mean2, abs=1e-15)


def test_g_photon_admixture_invisible(space, frame):
    # transverse means never see the g tower: admix g quanta onto a
    # transverse state and the mean of a transverse observable is
    # unchanged (the admixture carries zero norm and zero overlap).
    a = _transverse_observable(space)
    pure = fs.dg_basis_state(space, (1, 1, 0, 0), (0, 1, 0, 0))
    dressed = (
        0.8 * pure
        + 0.5 * fs.dg_basis_state(space, (1, 1, 0, 1), (0, 1, 0, 0))
        + 0.2j * fs.dg_basis_state(space, (1, 1, 0, 2), (0, 1, 0, 0))
    )
    mean_pure = fs.indefinite_inner(space, pure, a @ pure) / fs.indefinite_inner(
        space, pure, pure
    )
    mean_dressed = fs.indefinite_inner(
        space, dressed, a @ dressed
    ) / fs.indefinite_inner(space, dressed, dressed)
    assert mean_dressed == pytest.approx(mean_pure, abs=1e-12)


def test_counting_oracle_basics():
    # no steps: feasible exactly when already nonzero-norm
    assert lz.counting_oracle(0, 0, 0, 0, 0, 0)
    assert lz.counting_oracle(2, 2, 1, 1, 0, 0)
    assert not lz.counting_oracle(1, 0, 0, 0, 0, 0)
    # from the ghost vacuum no step count ever reaches nonzero norm
    for n1 in range(5):
        for n2 in range(5 - n1):
            if n1 + n2 > 0:
                assert not lz.counting_oracle(0, 0, 0, 0, n1, n2)
    with pytest.raises(ValueError):
        lz.counting_oracle(-1, 0, 0, 0, 0, 0)


def test_counting_oracle_transverse_coupling_family():
    # from (0, y, x, 0) the transverse-ghost moves alone connect back to
    # nonzero norm exactly when the step count is x + y: the g and d'
    # excesses must be absorbed one move each.
    for y in range(4):
        for x in range(4):
            for steps in range(8):
                want = steps == x + y
                assert lz.counting_oracle(0, y, x, 0, 0, steps) == want
    # the balanced case y = x makes that count 2x
    assert lz.counting_oracle(0, 2, 2, 0, 0, 4)


def test_counting_oracle_single_moves():
    # one longitudinal-scalar move can absorb a paired g, d' excess
    assert lz.counting_oracle(0, 1, 1, 0, 1, 0)
    # but cannot fix a one-sided imbalance
    assert not lz.counting_oracle(0, 1, 0, 0, 1, 0)
    assert not lz.counting_oracle(1, 1, 0, 0, 1, 0)


def test_counting_oracle_matches_operator_products():
    # The central check: exhaustive agreement between the feasibility
    # system and explicit products of the reduced ghost couplings, over
    # every start state and all step splits up to total 3.
    g = lz.ghost_space(3)
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
    for n1 in range(4):
        for n2 in range(4 - n1):
            prod = (pow_lslv[n1] @ pow_tls[n2]).toarray()
            best = np.abs(prod[self_paired, :]).max(axis=0)
            # one oracle call over every start state of this split
            nd, ng, ndp, ngp = occ.T
            oracle = lz.counting_oracle(nd, ng, ndp, ngp, n1, n2)
            assert oracle.shape == (g.dim,)
            assert np.all(best[~oracle] < 1e-12)
            # with creation headroom the truncated product is exact, so
            # feasibility must show up as coupling
            headroom = (nd + n1 + n2 <= g.cutoff) & (ngp + n1 + n2 <= g.cutoff)
            assert np.all(best[oracle & headroom] > 1e-12)


@pytest.mark.parametrize("cutoff", range(1, 8))
def test_ghost_annihilator_matches_kron_chain_bitwise(cutoff, kron_ladder, assert_same_csr):
    g = lz.ghost_space(cutoff)
    assert g.dim == (cutoff + 1) ** 4
    for slot, label in enumerate(lz.GHOST_MODES):
        assert_same_csr(fs.monomial_sum(g, [(1.0, fs.ladder(label))]), kron_ladder(g, slot))


def _entries(op):
    """The canonical CSR arrays of an operator, explicit zeros dropped."""
    op = sp.csr_matrix(op, copy=True)
    op.sum_duplicates()
    op.eliminate_zeros()
    return op.indptr, op.indices, op.data


@pytest.mark.parametrize("cutoff", range(1, 8))
def test_ghost_couplings_match_kron_products(cutoff, kron_ladder):
    # the couplings as sums of sparse products of kron-chain ladder
    # matrices, equal entry for entry
    g = lz.ghost_space(cutoff)
    a_g, a_dp = (kron_ladder(g, slot) for slot in (1, 2))
    create_d, create_gp = (kron_ladder(g, slot, raising=True) for slot in (0, 3))
    coupling, lam1, lam2 = 0.37 - 0.2j, 0.61, 0.83 + 0.1j
    lslv = (-1j * coupling) * (
        create_d @ a_g - create_gp @ a_dp + a_g @ a_dp - create_gp @ create_d
    )
    tls = lam1 * (1j * create_d + 1j * a_dp) + lam2 * (a_g - create_gp)
    for got, want in ((lz.ghost_lslv(g, coupling), lslv), (lz.ghost_pm_tls(g, lam1, lam2), tls)):
        for a, b in zip(_entries(got), _entries(want)):
            assert np.array_equal(a, b)


def test_ghost_space_keeps_its_cutoff_range():
    # wider than build_space's 1-4: the ghost space has four modes, not eight
    for cutoff in (0, 8):
        with pytest.raises(ValueError):
            lz.ghost_space(cutoff)
    assert lz.ghost_space(7).index_of((7, 0, 0, 1)) == 7 * 8**3 + 1


@pytest.mark.parametrize("cutoff", [0, -1, 1.5, 2.0, True, "2", None])
def test_ghost_space_refuses_bad_cutoffs(cutoff):
    with pytest.raises(ValueError, match="between 1 and 7"):
        lz.ghost_space(cutoff)


def test_ghost_space_stores_integer_cutoffs_as_int():
    g = lz.ghost_space(np.int64(3))
    assert type(g.cutoff) is int and type(g.base) is int
    assert g.dim == 256


def test_ghost_pairing_is_involutive_conjugation():
    g = lz.ghost_space(2)
    gram = lz.ghost_pairing(g).toarray()
    assert np.max(np.abs(gram @ gram - np.eye(g.dim))) == 0.0
    assert np.max(np.abs(gram - gram.conj().T)) == 0.0
    # phases match the full-space pairing rule
    i = g.index_of((1, 0, 0, 2))
    j = g.index_of((0, 1, 2, 0))
    assert gram[j, i] == lz.pairing_phase((0, 0, 1, 0), (0, 0, 0, 2))


def test_invariance_leakage_zero_kappa(space, frame):
    h = hm.build_grouped(space, kt.KappaSet(), frame)
    assert lz.invariance_leakage(space, h, 10.0) < 1e-12
    with pytest.raises(ValueError):
        lz.invariance_leakage(space, h, 11.0)


def test_invariance_leakage_without_c_class_states(frame):
    # at cutoff 1 no C-class state fits (n_d = n_g >= 1 takes two quanta)
    space1 = fs.build_space(1)
    k = kt.random_kappas(np.random.default_rng(5), 1e-2)
    h = hm.build_grouped(space1, k, frame)
    assert lz.invariance_leakage(space1, h, 10.0) == 0.0


def test_invariance_leakage_small_coupling(space, frame):
    # the C-class contamination is a truncation artifact that falls off
    # steeply with the coupling scale; at 1e-3 it sits far below any
    # physical effect
    rng = np.random.default_rng(63)
    k = kt.random_kappas(rng, 1e-3)
    h = hm.build_grouped(space, k, frame)
    assert lz.invariance_leakage(space, h, 10.0) < 1e-12


def _reference_class_states(cutoff):
    """A- and C-class (plus, minus) tuples, enumerated from the class rules."""
    sides = [
        (n1, n2, nd, ng)
        for n1, n2, nd, ng in itertools.product(range(cutoff + 1), repeat=4)
        if nd + ng <= cutoff
    ]
    a_states, c_states = [], []
    for plus, minus in itertools.product(sides, sides):
        if plus[2] == plus[3] and minus[2] == minus[3]:
            ghosts = plus[2] + minus[2]
            (c_states if ghosts else a_states).append((plus, minus))
    return a_states, c_states


def _full_space_leakage(space, h, t, dg_reference):
    """Reference: one expm_multiply over the whole space, all A columns,
    with the A and C states raised from the vacuum."""
    a_tuples, c_tuples = _reference_class_states(space.cutoff)
    a_states = np.column_stack(list(dg_reference(space, a_tuples)))
    c_states = np.column_stack(list(dg_reference(space, c_tuples)))
    evolved = expm_multiply(-1j * t * h.tocsc(), a_states)
    mdiag = fs.metric_diagonal(space)
    overlaps = c_states.conj().T @ (mdiag[:, None] * evolved)
    return float(np.max(np.sum(np.abs(overlaps) ** 2, axis=0)))


def _block_count(h):
    pattern = sp.csr_matrix((np.ones(h.nnz), h.indices, h.indptr), shape=h.shape)
    return connected_components(pattern, directed=False)[0]


@pytest.mark.parametrize("inject", [False, True], ids=["criterion10", "injected"])
def test_block_leakage_matches_full_space(space, frame, inject, dg_reference):
    # the criterion-10 Hamiltonian splits into the 17 momentum sectors;
    # the injected A-C coupler joins sector +1 to sector +2, and the
    # per-block evolution must follow the merged block
    k = kt.random_kappas(np.random.default_rng(3), 1e-2)
    h = hm.build_grouped(space, k, frame)
    if inject:
        h = checks._inject_c_defect(space, h)
    assert _block_count(h) == (16 if inject else 17)
    got = lz.invariance_leakage(space, h, 10.0)
    want = _full_space_leakage(space, h, 10.0, dg_reference)
    assert got == pytest.approx(want, rel=0, abs=1e-12)
    assert (got > 1e-8) == inject


# ----------------------------------------- Chebyshev propagator vs references


def _a_blocks(space, h):
    """Every coupled block of h that holds A-class columns, with them."""
    a_states = lz._class_columns(space, (lz.StateClass.A,))
    labels = fs.coupled_blocks(h)
    owner = labels[a_states.indices]
    for block in np.unique(owner):
        idx = np.flatnonzero(labels == block)
        yield h[idx][:, idx], a_states[idx][:, np.flatnonzero(owner == block)].toarray()


def _a_block(space, h):
    """The largest coupled block of h that holds A-class columns, with them."""
    return max(_a_blocks(space, h), key=lambda pair: pair[0].shape[0])


def _check_propagator(h, columns, t):
    """fs.propagate against expm_multiply to 1e-12, leaving h untouched."""
    arrays = [a.copy() for a in (h.data, h.indices, h.indptr)]
    got = fs.propagate(h, columns, t)
    want = expm_multiply(-1j * t * h, columns)
    assert got.shape == columns.shape and got.dtype == np.complex128
    assert np.max(np.abs(got - want)) <= 1e-12
    for before, after in zip(arrays, (h.data, h.indices, h.indptr)):
        assert np.array_equal(before, after)
    return got


@pytest.mark.parametrize("inject", [False, True], ids=["real", "complex"])
def test_propagator_matches_expm_multiply(space, frame, inject):
    k = kt.random_kappas(np.random.default_rng(3), 1e-2)
    h = hm.build_grouped(space, k, frame)
    if inject:
        h = checks._inject_c_defect(space, h)
    block, columns = _a_block(space, h)
    assert (abs(block.imag).max() > 0) == inject
    _check_propagator(block, columns, 10.0)


def test_propagator_leaves_an_unsorted_matrix_alone(space, frame):
    # a matrix whose rows hold their columns out of order: canonicalising
    # it (or a part that shares its buffers) in place would permute it
    k = kt.random_kappas(np.random.default_rng(4), 1e-2)
    block, columns = _a_block(space, checks._inject_c_defect(space, hm.build_grouped(space, k, frame)))
    rows = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
    order = np.lexsort((-block.indices, rows))
    unsorted = sp.csr_matrix(
        (block.data[order], block.indices[order], block.indptr), shape=block.shape
    )
    assert not unsorted.has_sorted_indices
    got = _check_propagator(unsorted, columns, 10.0)
    assert np.max(np.abs(got - fs.propagate(block, columns, 10.0))) == 0.0


def test_propagator_edge_cases():
    one = sp.csr_matrix(np.array([[2.5 + 0.0j]]))
    column = np.array([[1.0 + 0.0j]])
    got = _check_propagator(one, column, 3.0)
    assert got[0, 0] == pytest.approx(np.exp(-7.5j), abs=1e-15)
    h = sp.random(40, 40, density=0.2, random_state=np.random.default_rng(6), format="csr")
    h = (h + h.T).astype(complex)
    columns = np.eye(40, 3, dtype=complex)
    assert np.array_equal(_check_propagator(h, columns, 0.0), columns)


@pytest.mark.parametrize("inject", [False, True], ids=["real", "complex"])
def test_propagator_matches_dense_expm(space, frame, inject):
    k = kt.random_kappas(np.random.default_rng(3), 1e-2)
    h = hm.build_grouped(space, k, frame)
    if inject:
        h = checks._inject_c_defect(space, h)
    small = [(b, c) for b, c in _a_blocks(space, h) if b.shape[0] <= 300]
    assert small
    for block, columns in small:
        want = expm(-10j * block.toarray()) @ columns
        assert np.max(np.abs(fs.propagate(block, columns, 10.0) - want)) <= 1e-13


@pytest.mark.parametrize("t", [2.0, 5.0, -2.0])
def test_propagator_on_a_non_normal_block(t):
    # H = eta K with K hermitian and eta an indefinite metric: H is
    # eta-self-adjoint, not normal, and near-degenerate levels of
    # opposite metric sign form complex-conjugate eigenvalue pairs
    rng = np.random.default_rng(11)
    eta = np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0])
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    k = np.diag(eta * [1.0, 2.0, 1.05, 3.0, 2.02, 3.1]) + 0.2 * (x + x.conj().T)
    h = eta[:, None] * k
    assert np.max(np.abs(eta[:, None] * h.conj().T * eta - h)) == 0.0
    assert np.max(np.abs(np.linalg.eigvals(h).imag)) > 0.5
    columns = np.eye(6, 3, dtype=complex)
    want = expm(-1j * t * h) @ columns
    got = fs.propagate(sp.csr_matrix(h), columns, t)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("t", [1.0, 5.0])
def test_propagator_on_a_wide_imaginary_range(t):
    # Im W(b) reaches twice the real half-width, so the term count must
    # come from the ellipse around the whole rectangle: taken from the
    # real interval alone it stops early, 1e-4 off at t = 5
    h = np.diag([-1 + 2j, 1 - 2j, 0.5 + 1j, -0.3]) + np.triu(np.full((4, 4), 0.1), 1)
    want = expm(-1j * t * h)
    got = fs.propagate(sp.csr_matrix(h), np.eye(4, dtype=complex), t)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("tr", [1e-120, 1e-300, 5e-324])
def test_propagator_is_exact_at_tiny_t_r(tr, run_capped):
    # with t r this small the Bessel recurrence's 2k / x outgrows its
    # rescaling; the series must still stop at one term, not grow its
    # order until memory runs out, so it runs in a capped child
    code = (
        "import numpy as np, scipy.sparse as sp\n"
        "from lvphoton import fock_space as fs\n"
        "b = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))\n"
        "v = np.array([[0.6 + 0.2j], [-0.3 + 0.7j]])\n"
        f"t = {tr!r}\n"
        "want = np.cos(t) * v - 1j * np.sin(t) * v[::-1]\n"
        "print(float(np.max(np.abs(fs.propagate(b, v, t) - want))))\n"
    )
    done = run_capped(code)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 1e-15


@pytest.mark.parametrize("x", [0.01, 1.0, 40.0, 130.0])
def test_bessel_values_match_scipy(x):
    n = int(1.5 * x) + 60
    want = jv(np.arange(n + 1), x)
    assert np.max(np.abs(fs._bessel_j(x, n) - want)) <= 1e-14


def test_leakage_blocks_take_few_chebyshev_terms(monkeypatch, space, frame):
    # the c_class_leakage setting of verify: cutoff 2, magnitude 1e-3,
    # t = 10; a Taylor series takes 200-330 products on these blocks
    counts = []
    bessel = fs._chebyshev_bessel

    def counted(x, rho):
        values = bessel(x, rho)
        counts.append(values.size)
        return values

    monkeypatch.setattr(fs, "_chebyshev_bessel", counted)
    k = kt.random_kappas(np.random.default_rng(8), 1e-2)
    k = k.scaled(1e-3 / k.magnitude)
    h = hm.build_grouped(space, k, frame)
    assert lz.invariance_leakage(space, h, 10.0) < 1e-12
    assert len(counts) == 9
    assert max(counts) <= 90


def test_propagator_at_cutoff_three(frame):
    # the smallest A-holding block of the cutoff-3 Hamiltonian
    space3 = fs.build_space(3)
    k = kt.random_kappas(np.random.default_rng(3), 1e-3)
    h = hm.build_grouped(space3, k, frame)
    block, columns = min(_a_blocks(space3, h), key=lambda pair: pair[0].shape[0])
    assert block.shape[0] == 1428
    got = _check_propagator(block, columns, 10.0)
    assert np.array_equal(got, propagate_reference.propagate(block, columns, 10.0))


# ------------------------------ real-arithmetic propagator vs its reference
#
# np.array_equal holds two entries equal only when their bits agree, up
# to the sign of a zero, so each test below pins every nonzero of the
# evolved columns to the complex recurrence bit for bit.


@pytest.mark.parametrize("t", [10.0, -2.0])
def test_real_blocks_evolve_like_the_complex_recurrence(space, frame, t):
    k = kt.random_kappas(np.random.default_rng(3), 1e-2)
    blocks = list(_a_blocks(space, hm.build_grouped(space, k, frame)))
    assert len(blocks) == 9
    for block, columns in blocks:
        assert not np.any(block.data.imag) and not np.any(columns.imag)
        got = fs.propagate(block, columns, t)
        assert got.dtype == np.complex128
        assert np.array_equal(got, propagate_reference.propagate(block, columns, t))


def test_identity_evolution_of_metric_unitarity_is_unchanged(frame):
    # the cutoff-1 evolution of every identity column in verify
    small = fs.build_space(1)
    h = hm.build_grouped(small, kt.random_kappas(np.random.default_rng(5), 1e-2), frame)
    identity = sp.identity(small.dim, dtype=complex, format="csc")
    evolved = 0
    for rows, ids, got in fs.propagate_blocks(h, identity, 10.0):
        want = propagate_reference.propagate(
            h[rows][:, rows], identity[rows][:, ids].toarray(), 10.0
        )
        assert np.array_equal(got, want)
        evolved += ids.size
    assert evolved == small.dim


@pytest.mark.parametrize("inject", [False, True], ids=["complex-columns", "complex-h"])
def test_complex_inputs_evolve_like_the_complex_recurrence(space, frame, inject):
    k = kt.random_kappas(np.random.default_rng(3), 1e-2)
    h = hm.build_grouped(space, k, frame)
    if inject:
        h = checks._inject_c_defect(space, h)
    for block, columns in _a_blocks(space, h):
        if not inject:
            phases = np.exp(1j * np.arange(columns.shape[1]))
            columns = columns * phases + 0.5j * np.roll(columns, 1, axis=0)
        for t in (10.0, -2.0):
            got = fs.propagate(block, columns, t)
            assert np.array_equal(got, propagate_reference.propagate(block, columns, t))


def test_real_inputs_run_on_float64_columns(monkeypatch, space, frame):
    # the recurrence sees float64 columns exactly when H and the
    # columns are real, and complex ones otherwise
    seen = []
    terms = fs._chebyshev_terms

    def recorded(times_twice, first, count):
        seen.append(first.dtype)
        return terms(times_twice, first, count)

    monkeypatch.setattr(fs, "_chebyshev_terms", recorded)
    k = kt.random_kappas(np.random.default_rng(3), 1e-2)
    h = hm.build_grouped(space, k, frame)
    block, columns = _a_block(space, h)
    fs.propagate(block, columns, 10.0)
    fs.propagate(block, 1j * columns, 10.0)
    fs.propagate(block * (1 + 1e-3j), columns, 10.0)
    assert seen == [np.float64, np.complex128, np.complex128]


def test_evolution_stays_weak_lorenz(space, frame):
    # an A-class state evolved with the full coupled Hamiltonian picks
    # up zero-norm B admixture but no measurable C component
    rng = np.random.default_rng(3)
    k = kt.random_kappas(rng, 1e-2)
    h = hm.build_grouped(space, k, frame)
    psi0 = fs.dg_basis_state(space, (1, 0, 0, 0))
    evolved = expm_multiply(-1j * 10.0 * h.tocsc(), psi0)
    weights = lz.ghost_class_weights(space, evolved)
    b_total = weights[lz.StateClass.B_PLUS] + weights[lz.StateClass.B_MINUS]
    assert b_total > 1e-4
    assert weights[lz.StateClass.C] < 1e-12


def test_ghost_class_weights_on_basis_states(space):
    w = lz.ghost_class_weights(space, fs.dg_basis_state(space, (1, 0, 0, 0)))
    assert w[lz.StateClass.A] == pytest.approx(1.0, abs=1e-12)
    assert sum(v for k, v in w.items() if k is not lz.StateClass.A) < 1e-12
    w = lz.ghost_class_weights(space, fs.dg_basis_state(space, (0, 0, 1, 0)))
    assert w[lz.StateClass.B_PLUS] == pytest.approx(1.0, abs=1e-12)
    w = lz.ghost_class_weights(
        space,
        fs.dg_basis_state(space, (0, 0, 1, 1))
        + 2.0 * fs.dg_basis_state(space, (0, 0, 0, 1)),
    )
    assert w[lz.StateClass.C] == pytest.approx(1.0, abs=1e-12)
    assert w[lz.StateClass.B_MINUS] == pytest.approx(4.0, abs=1e-12)


def test_counting_oracle_broadcasts_over_arrays_of_occupations():
    # one call on the whole ghost space answers what 256 scalar calls do,
    # for every step split up to total 3; the scalar call stays a bool
    occ = lz.ghost_space(3).occupations
    for n1 in range(4):
        for n2 in range(4 - n1):
            got = lz.counting_oracle(*occ.T, n1, n2)
            assert got.shape == (len(occ),) and got.dtype == bool
            want = [lz.counting_oracle(*(int(x) for x in row), n1, n2) for row in occ]
            assert all(type(value) is bool for value in want)
            assert got.tolist() == want
    grid = lz.counting_oracle(occ[:, 0].reshape(16, 16), occ[:, 1].reshape(16, 16), 0, 0, 1, 1)
    assert grid.shape == (16, 16)
    assert grid.ravel().tolist() == lz.counting_oracle(occ[:, 0], occ[:, 1], 0, 0, 1, 1).tolist()
    for bad in (np.array([0, -1]), np.array([0.0, 1.5]), np.array([0.0, np.inf])):
        with pytest.raises(ValueError):
            lz.counting_oracle(bad, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        lz.counting_oracle(0, 0, 0, 0, 1.5, 0)


def test_counting_oracle_refuses_array_step_counts():
    # only the occupations broadcast; each step count is one number
    for steps in ((np.array([1, 2]), 0), (0, np.array([1])), (0, [[1]])):
        with pytest.raises(ValueError, match="one number per step count"):
            lz.counting_oracle(0, 0, 0, 0, *steps)
    assert lz.counting_oracle(0, 0, 0, 0, np.int64(1), np.array(1)) is False
