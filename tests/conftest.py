"""Shared test fixtures."""

import math

import numpy as np
import pytest

from lvphoton import fock_space as fs


def _raised_vacuum_states(space, states):
    """Reference d/g basis states, built directly from their definition.

    Applies the plain daggers of the transverse ladder operators and of
    fs.dg_operators to the vacuum, n times each, and divides by
    sqrt(n!); yields one dense vector per (plus, minus) tuple.
    """
    raisers = {}
    for direction in (fs.PLUS_K, fs.MINUS_K):
        a_d, a_g = fs.dg_operators(space, direction)
        raisers[direction] = (
            fs.creator(space, fs.ModeId(direction, 1)),
            fs.creator(space, fs.ModeId(direction, 2)),
            a_d.conj().T.tocsr(),
            a_g.conj().T.tocsr(),
        )
    for plus, minus in states:
        state = fs.vacuum_state(space)
        norm = 1.0
        for direction, occ in ((fs.PLUS_K, plus), (fs.MINUS_K, minus)):
            for op, count in zip(raisers[direction], occ):
                for _ in range(count):
                    state = op @ state
                norm *= math.factorial(count)
        yield state / np.sqrt(norm)


@pytest.fixture(scope="session")
def dg_reference():
    """The reference d/g state builder: (space, states) -> iterator of vectors."""
    return _raised_vacuum_states
