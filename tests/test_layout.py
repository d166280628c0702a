"""Every space-taking function answers right on each space or refuses it.

The three occupation spaces carry their mode labels: the 8-mode space
the slots 0-7, the transverse factor TRANSVERSE_SLOTS and the reduced
ghost space lz.GHOST_MODES.  On each of them every function of
fock_space, hamiltonian, interaction and lorenz that takes a space must
either return the right result or raise ValueError; an IndexError or a
result computed on the wrong columns fails here.  The factor's results
are checked against the 8-mode operators on the ghost-vacuum block,
where the scalar and longitudinal modes are empty.  The test references
of tests/transverse_reference.py that take a space keep the same
contract, and are held to it by the same test.
"""

import inspect

import numpy as np
import pytest
import scipy.sparse as sp

from lvphoton import dispersion as dp
from lvphoton import fock_space as fs
from lvphoton import hamiltonian as hm
from lvphoton import interaction as ia
from lvphoton import kappa_tensor as kt
from lvphoton import lorenz as lz
from lvphoton import modes as md

import transverse_reference  # tests/transverse_reference.py

SPACES = {
    "full": lambda: fs.build_space(1),
    "factor": lambda: hm.transverse_space(2),
    "ghost": lambda: lz.ghost_space(2),
}

KAPPAS = kt.random_kappas(np.random.default_rng(240), 1e-2)
FRAME = dp.polarization_frame(np.array([0.41, 0.32, -0.86]) / np.linalg.norm([0.41, 0.32, -0.86]))


def _eye(s):
    return sp.identity(s.dim, dtype=complex, format="csr")


def _zero(s):
    return sp.csr_matrix((s.dim, s.dim), dtype=complex)


def _vac(s):
    return fs.vacuum_state(s)


#: name -> (call on a space, the spaces it answers on; the others refuse it)
CASES = {
    "position": (lambda s: s.position(fs.ModeId(fs.MINUS_K, 3).slot), {"full"}),
    "index_of": (lambda s: s.index_of([0] * s.modes), {"full", "factor", "ghost"}),
    "annihilator": (lambda s: fs.annihilator(s, fs.ModeId(fs.PLUS_K, 1)), {"full", "factor"}),
    "annihilator_scalar": (lambda s: fs.annihilator(s, fs.ModeId(fs.PLUS_K, 0)), {"full"}),
    "monomial_sum": (lambda s: fs.monomial_sum(s, [(1.0, fs.ladder(2))]), {"full", "factor"}),
    "monomial_sum_ghost": (lambda s: fs.monomial_sum(s, [(1.0, fs.ladder("d-"))]), {"ghost"}),
    "number_operator": (
        lambda s: fs.number_operator(s, fs.ModeId(fs.MINUS_K, 2)),
        {"full", "factor"},
    ),
    "number_operator_longitudinal": (
        lambda s: fs.number_operator(s, fs.ModeId(fs.MINUS_K, 3)),
        {"full"},
    ),
    "held_columns": (lambda s: fs.held_columns(s, md.ALL_MODES), {"full", "factor"}),
    "metric_M": (fs.metric_M, {"full", "factor"}),
    "metric_diagonal": (fs.metric_diagonal, {"full", "factor"}),
    "bar_adjoint": (lambda s: fs.bar_adjoint(s, _eye(s)), {"full", "factor"}),
    "indefinite_inner": (lambda s: fs.indefinite_inner(s, _vac(s), _vac(s)), {"full", "factor"}),
    "interior_mask": (lambda s: fs.interior_mask(s), {"full", "factor", "ghost"}),
    "vacuum_state": (fs.vacuum_state, {"full", "factor", "ghost"}),
    "dg_operators": (lambda s: fs.dg_operators(s, fs.PLUS_K), {"full"}),
    "check_dg_occupations": (lambda s: fs.check_dg_occupations(s, (0, 0, 0, 0), (0, 0, 0, 0)), {"full"}),
    "dg_basis_columns": (lambda s: fs.dg_basis_columns(s, [((0, 0, 0, 0), (0, 0, 0, 0))]), {"full"}),
    "dg_basis_state": (lambda s: fs.dg_basis_state(s, (0, 0, 0, 0)), {"full"}),
    "build_raw": (lambda s: hm.build_raw(s, kt.kf_from_kappas(KAPPAS), FRAME), {"full"}),
    "build_grouped": (lambda s: hm.build_grouped(s, KAPPAS, FRAME), {"full"}),
    "xi_generators": (lambda s: hm.xi_generators(s, KAPPAS, FRAME), {"full", "factor"}),
    "check_transverse": (hm.check_transverse, {"factor"}),
    "transformed_matrices": (
        lambda s: hm.transformed_matrices(s, [_eye(s)], _zero(s), [_vac(s)]),
        {"full", "factor"},
    ),
    "transformed_expectation": (
        lambda s: hm.transformed_expectation(s, _eye(s), _zero(s), _vac(s)),
        {"full", "factor"},
    ),
    "transformed_element": (
        lambda s: hm.transformed_element(s, _eye(s), _zero(s), _vac(s), _vac(s)),
        {"full", "factor"},
    ),
    "momentum_operator": (lambda s: hm.momentum_operator(s, FRAME.khat), {"full", "factor"}),
    "transverse_potential": (lambda s: ia.transverse_potential(s, 1), {"factor"}),
    "first_order_potentials": (lambda s: ia.first_order_potentials(s, KAPPAS, FRAME), {"factor"}),
    "extract_couplings": (lambda s: ia.extract_couplings(s, _eye(s), _eye(s)), {"factor"}),
    "classify": (lambda s: lz.classify(s, (0, 0, 0, 0)), {"full"}),
    "gupta_bleuler_check": (lambda s: lz.gupta_bleuler_check(s, _vac(s)), {"full"}),
    "nonzero_norm_component": (lambda s: lz.nonzero_norm_component(s, _vac(s)), {"full"}),
    "weak_lorenz_check": (lambda s: lz.weak_lorenz_check(s, _vac(s)), {"full"}),
    "weak_lorenz_check_zero_norm": (lambda s: lz.weak_lorenz_check(s, 0 * _vac(s)), {"full"}),
    "observable_indistinguishability": (
        lambda s: lz.observable_indistinguishability(s, _vac(s), 0 * _vac(s), 1.0, 1.0, _eye(s)),
        {"full", "factor"},
    ),
    "invariance_leakage": (lambda s: lz.invariance_leakage(s, _eye(s), 0.1), {"full"}),
    "ghost_class_weights": (lambda s: lz.ghost_class_weights(s, _vac(s)), {"full"}),
    "ghost_pairing": (lz.ghost_pairing, {"ghost"}),
    "ghost_lslv": (lambda s: lz.ghost_lslv(s, 0.37), {"ghost"}),
    "ghost_pm_tls": (lambda s: lz.ghost_pm_tls(s, 0.61, 0.83), {"ghost"}),
}

#: The same table for the space-taking functions of tests/transverse_reference.py.
REFERENCE_CASES = {
    "build_transverse": (
        lambda s: transverse_reference.build_transverse(s, KAPPAS, FRAME),
        {"factor"},
    ),
    "transformed_potentials": (
        lambda s: transverse_reference.transformed_potentials(s, KAPPAS, FRAME),
        {"factor"},
    ),
    "masked_couplings": (
        lambda s: transverse_reference.masked_couplings(s, _eye(s), _eye(s), fs.interior_mask(s)),
        {"factor"},
    ),
}


@pytest.fixture(scope="module")
def spaces():
    return {name: make() for name, make in SPACES.items()}


def test_the_table_covers_every_space_taking_function():
    named = set()
    for module in (fs, hm, ia, lz):
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name[0] != "_":
                first = next(iter(inspect.signature(fn).parameters), "")
                if first in ("space", "spaces", "gspace"):
                    named.add(name)
    assert named <= set(CASES)


@pytest.mark.parametrize("space_name", list(SPACES))
@pytest.mark.parametrize("case", list(CASES) + list(REFERENCE_CASES))
def test_answers_or_refuses(spaces, space_name, case):
    call, answers_on = {**CASES, **REFERENCE_CASES}[case]
    space = spaces[space_name]
    if space_name in answers_on:
        call(space)
    else:
        with pytest.raises(ValueError):
            call(space)


@pytest.fixture(scope="module")
def block():
    """(8-mode space, factor, the 8-mode indices of the factor's states), cutoff 2."""
    full, factor = fs.build_space(2), hm.transverse_space(2)
    empty = np.flatnonzero(~full.occupations[:, [0, 3, 4, 7]].any(axis=1))
    assert np.array_equal(full.occupations[empty][:, md.TRANSVERSE_SLOTS], factor.occupations)
    return full, factor, empty


def _restricted(op, rows):
    return sp.csr_matrix(op)[rows][:, rows]


def test_factor_operators_are_the_ghost_vacuum_block(block):
    full, factor, empty = block
    pairs = [
        (fs.annihilator(factor, mode), fs.annihilator(full, mode))
        for mode in md.ALL_MODES
        if mode.polarization in (1, 2)
    ]
    pairs += [
        (fs.number_operator(factor, mode), fs.number_operator(full, mode))
        for mode in md.ALL_MODES
        if mode.polarization in (1, 2)
    ]
    a = fs.annihilator(factor, fs.ModeId(fs.MINUS_K, 1))
    a_full = fs.annihilator(full, fs.ModeId(fs.MINUS_K, 1))
    pairs.append((fs.bar_adjoint(factor, a), fs.bar_adjoint(full, a_full)))
    pairs.append((fs.metric_M(factor), fs.metric_M(full)))
    pairs.append((hm.xi_generators(factor, KAPPAS, FRAME), hm.xi_generators(full, KAPPAS, FRAME)))
    pairs += list(
        zip(hm.momentum_operator(factor, FRAME.khat), hm.momentum_operator(full, FRAME.khat))
    )
    for got, want in pairs:
        assert abs(got - _restricted(want, empty)).max() == 0.0
    assert np.array_equal(fs.interior_mask(factor), fs.interior_mask(full)[empty])
    assert np.array_equal(fs.vacuum_state(factor), fs.vacuum_state(full)[empty])


def test_factor_products_are_the_ghost_vacuum_block(block):
    # the metric +1 of the factor is the 8-mode metric on its block, and
    # exp(-Xi) keeps the block, so the transformed matrix elements agree
    full, factor, empty = block
    rng = np.random.default_rng(241)
    states = rng.normal(size=(3, factor.dim)) + 1j * rng.normal(size=(3, factor.dim))
    embedded = np.zeros((3, full.dim), dtype=complex)
    embedded[:, empty] = states
    for u, v in zip(states, embedded):
        assert fs.indefinite_inner(factor, u, u) == fs.indefinite_inner(full, v, v)
    h, xi = transverse_reference.build_transverse(factor, KAPPAS, FRAME)
    h_full = hm.build_grouped(full, KAPPAS, FRAME)
    xi_full = hm.xi_generators(full, KAPPAS, FRAME)
    (got,) = hm.transformed_matrices(factor, [h], xi, states)
    (want,) = hm.transformed_matrices(full, [h_full], xi_full, embedded)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    a = fs.number_operator(factor, fs.ModeId(fs.PLUS_K, 2))
    a_full = fs.number_operator(full, fs.ModeId(fs.PLUS_K, 2))
    got = lz.observable_indistinguishability(factor, states[0], 0 * states[1], 0.5, 2.0, a)
    want = lz.observable_indistinguishability(full, embedded[0], 0 * embedded[1], 0.5, 2.0, a_full)
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


def test_momentum_on_the_factor_counts_minus_k_quanta_negative():
    factor = hm.transverse_space(1)
    kvec = np.array([0.0, 0.0, 1.0])
    for mode in md.ALL_MODES:
        if mode.polarization not in (1, 2):
            continue
        occ = [0] * factor.modes
        occ[md.TRANSVERSE_SLOTS.index(mode.slot)] = 1
        state = fs.vacuum_state(factor)
        state[[0, factor.index_of(occ)]] = 0.0, 1.0
        got = [fs.indefinite_inner(factor, state, p @ state) for p in hm.momentum_operator(factor, kvec)]
        assert got == [0.0, 0.0, float(mode.direction)]


def test_factor_refuses_the_ghost_modes():
    factor = hm.transverse_space(2)
    with pytest.raises(ValueError):
        fs.dg_basis_state(factor, (0, 0, 0, 0))
    for direction in (fs.PLUS_K, fs.MINUS_K):
        with pytest.raises(ValueError):
            fs.dg_operators(factor, direction)


def test_metric_diagonal_is_one_on_the_factor_and_refused_on_the_ghost_space():
    factor = hm.transverse_space(2)
    mdiag = fs.metric_diagonal(factor)
    assert mdiag.shape == (factor.dim,) and np.all(mdiag == 1.0)
    with pytest.raises(ValueError):
        fs.metric_diagonal(lz.ghost_space(2))


def test_check_transverse_refuses_the_ghost_space():
    ghost = lz.ghost_space(2)
    with pytest.raises(ValueError, match="4-mode transverse factor"):
        hm.check_transverse(ghost)
    with pytest.raises(ValueError, match="4-mode transverse factor"):
        ia.transverse_potential(ghost, 1)
