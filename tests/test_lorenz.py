"""Tests for the gauge-condition machinery and the invariant subspace.

The counting oracle is checked against explicit operator products on
the reduced ghost space, which is the module's central oracle
relationship: the algebraic feasibility system and the matrix algebra
must sort exactly the same (start, step-count) pairs into coupled and
uncoupled.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

from lvphoton import cli
from lvphoton import dispersion as dp
from lvphoton import fock_space as fs
from lvphoton import hamiltonian as hm
from lvphoton import kappa_tensor as kt
from lvphoton import lorenz as lz


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
            for start in range(g.dim):
                nd, ng, ndp, ngp = occ[start]
                oracle = lz.counting_oracle(nd, ng, ndp, ngp, n1, n2)
                if not oracle:
                    assert best[start] < 1e-12
                elif nd + n1 + n2 <= g.cutoff and ngp + n1 + n2 <= g.cutoff:
                    # with creation headroom the truncated product is
                    # exact, so feasibility must show up as coupling
                    assert best[start] > 1e-12


def _kron_ghost_annihilator(gspace, slot):
    """Reference ghost lowering operator: kron chain of single-mode factors."""
    lower = sp.diags(np.sqrt(np.arange(1.0, gspace.base)), 1)
    eye = sp.identity(gspace.base, format="csr")
    op = sp.identity(1, format="csr")
    for position in range(4):
        op = sp.kron(op, lower if position == slot else eye, format="csr")
    return op.astype(complex)


@pytest.mark.parametrize("cutoff", range(1, 8))
def test_ghost_annihilator_matches_kron_chain_bitwise(cutoff):
    g = lz.ghost_space(cutoff)
    assert g.dim == (cutoff + 1) ** 4
    for slot in range(4):
        got = lz.ghost_annihilator(g, slot)
        want = _kron_ghost_annihilator(g, slot)
        assert type(got) is type(want)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name


def test_ghost_space_keeps_its_cutoff_range():
    # wider than build_space's 1-4: the ghost space has four modes, not eight
    for cutoff in (0, 8):
        with pytest.raises(ValueError):
            lz.ghost_space(cutoff)
    with pytest.raises(ValueError):
        lz.ghost_annihilator(lz.ghost_space(1), 4)
    assert lz.ghost_space(7).index_of((7, 0, 0, 1)) == 7 * 8**3 + 1


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
    bundle = hm.build_grouped(space, kt.KappaSet(), frame)
    assert lz.invariance_leakage(space, bundle, 10.0) < 1e-12
    with pytest.raises(ValueError):
        lz.invariance_leakage(space, bundle, 11.0)


def test_invariance_leakage_without_c_class_states(frame):
    # at cutoff 1 no C-class state fits (n_d = n_g >= 1 takes two quanta)
    space1 = fs.build_space(1)
    k = kt.random_kappas(np.random.default_rng(5), 1e-2)
    bundle = hm.build_grouped(space1, k, frame)
    assert lz.invariance_leakage(space1, bundle, 10.0) == 0.0


def test_invariance_leakage_small_coupling(space, frame):
    # the C-class contamination is a truncation artifact that falls off
    # steeply with the coupling scale; at 1e-3 it sits far below any
    # physical effect
    rng = np.random.default_rng(63)
    k = kt.random_kappas(rng, 1e-3)
    bundle = hm.build_grouped(space, k, frame)
    assert lz.invariance_leakage(space, bundle, 10.0) < 1e-12


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
    h = hm.build_grouped(space, k, frame).total
    if inject:
        h = cli._inject_c_defect(space, h)
    assert _block_count(h) == (16 if inject else 17)
    got = lz.invariance_leakage(space, h, 10.0)
    want = _full_space_leakage(space, h, 10.0, dg_reference)
    assert got == pytest.approx(want, rel=0, abs=1e-12)
    assert (got > 1e-8) == inject


# ------------------------------------------- Taylor propagator vs expm_multiply


def _a_block(space, h):
    """The largest coupled block of h that holds A-class columns, with them."""
    a_states = lz._class_columns(space, (lz.StateClass.A,))
    labels = fs.coupled_blocks(h)
    owner = labels[a_states.indices]
    block = max(np.unique(owner), key=lambda b: np.count_nonzero(labels == b))
    idx = np.flatnonzero(labels == block)
    return h[idx][:, idx], a_states[idx][:, np.flatnonzero(owner == block)].toarray()


def _check_propagator(h, columns, t):
    """_propagate against expm_multiply to 1e-12, leaving h untouched."""
    arrays = [a.copy() for a in (h.data, h.indices, h.indptr)]
    got = lz._propagate(h, columns, t)
    want = expm_multiply(-1j * t * h, columns)
    assert got.shape == columns.shape and got.dtype == np.complex128
    assert np.max(np.abs(got - want)) <= 1e-12
    for before, after in zip(arrays, (h.data, h.indices, h.indptr)):
        assert np.array_equal(before, after)
    return got


@pytest.mark.parametrize("inject", [False, True], ids=["real", "complex"])
def test_propagator_matches_expm_multiply(space, frame, inject):
    k = kt.random_kappas(np.random.default_rng(3), 1e-2)
    h = hm.build_grouped(space, k, frame).total
    if inject:
        h = cli._inject_c_defect(space, h)
    block, columns = _a_block(space, h)
    assert (abs(block.imag).max() > 0) == inject
    _check_propagator(block, columns, 10.0)


def test_propagator_leaves_an_unsorted_matrix_alone(space, frame):
    # a matrix whose rows hold their columns out of order: canonicalising
    # it (or a part that shares its buffers) in place would permute it
    k = kt.random_kappas(np.random.default_rng(4), 1e-2)
    block, columns = _a_block(space, cli._inject_c_defect(space, hm.build_grouped(space, k, frame).total))
    rows = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
    order = np.lexsort((-block.indices, rows))
    unsorted = sp.csr_matrix(
        (block.data[order], block.indices[order], block.indptr), shape=block.shape
    )
    assert not unsorted.has_sorted_indices
    got = _check_propagator(unsorted, columns, 10.0)
    assert np.max(np.abs(got - lz._propagate(block, columns, 10.0))) == 0.0


def test_propagator_edge_cases():
    one = sp.csr_matrix(np.array([[2.5 + 0.0j]]))
    column = np.array([[1.0 + 0.0j]])
    got = _check_propagator(one, column, 3.0)
    assert got[0, 0] == pytest.approx(np.exp(-7.5j), abs=1e-15)
    h = sp.random(40, 40, density=0.2, random_state=np.random.default_rng(6), format="csr")
    h = (h + h.T).astype(complex)
    columns = np.eye(40, 3, dtype=complex)
    assert np.array_equal(_check_propagator(h, columns, 0.0), columns)


def test_evolution_stays_weak_lorenz(space, frame):
    # an A-class state evolved with the full coupled Hamiltonian picks
    # up zero-norm B admixture but no measurable C component
    rng = np.random.default_rng(3)
    k = kt.random_kappas(rng, 1e-2)
    h = hm.build_grouped(space, k, frame).total
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
