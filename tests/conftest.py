"""Shared test fixtures."""

import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from lvphoton import fock_space as fs


def _kron_ladder(space, slot, raising=False):
    """Reference ladder operator of one slot: kron chain of single-mode factors.

    Works on any FockSpace (the 8-mode pair, the transverse factor, the
    reduced ghost space); the raising operator is the chain with the
    transposed single-mode factor.
    """
    lower = sp.diags(np.sqrt(np.arange(1.0, space.base)), -1 if raising else 1, format="csr")
    eye = sp.identity(space.base, format="csr")
    out = sp.identity(1, format="csr")
    for position in range(space.modes):
        out = sp.kron(out, lower if position == slot else eye, format="csr")
    return out.astype(complex)


@pytest.fixture(scope="session")
def kron_ladder():
    """The reference ladder builder: (space, slot, raising=False) -> CSR matrix."""
    return _kron_ladder


def _assert_same_csr(got, want):
    """Same type, shape, dtypes and CSR arrays, bit for bit (signed zeros too)."""
    assert type(got) is type(want)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="session")
def assert_same_csr():
    """The bitwise CSR comparison: (got, want) -> None, raising on a difference."""
    return _assert_same_csr


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
            fs.annihilator(space, fs.ModeId(direction, 1)).conj().T.tocsr(),
            fs.annihilator(space, fs.ModeId(direction, 2)).conj().T.tocsr(),
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


def _dense_similarity_transform(h, xi):
    """Reference exp(xi) H exp(-xi) from two dense exponentials.

    Dense scaling-and-squaring, independent of the block-by-block
    Chebyshev evolution of fock_space.propagate_blocks.  The inverse is
    built independently and checked against the forward factor, which
    catches a non-converged exponential.  `h` may also be a list of
    operators, each conjugated by the same exponentials.
    """
    xi_dense = xi.toarray() if sp.issparse(xi) else np.asarray(xi)
    u = expm(xi_dense)
    u_inv = expm(-xi_dense)
    assert np.max(np.abs(u @ u_inv - np.eye(u.shape[0]))) <= 1e-8
    ops = h if isinstance(h, list) else [h]
    if any(op.shape != xi.shape for op in ops):
        raise ValueError("operator dimensions do not match")
    out = [u @ (op.toarray() if sp.issparse(op) else np.asarray(op)) @ u_inv for op in ops]
    return out if isinstance(h, list) else out[0]


@pytest.fixture(scope="session")
def dense_similarity():
    """The reference conjugation: (h, xi) -> dense exp(xi) h exp(-xi)."""
    return _dense_similarity_transform


#: Address-space cap of a capped child process, in bytes: far above what
#: one lvphoton command needs, far below what a runaway allocation takes.
CHILD_ADDRESS_SPACE = 2 * 1024**3

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _run_capped(code):
    """Run Python source `code` in a child process with a capped address space.

    The child caps its own address space (RLIMIT_AS) before anything
    else runs, so a runaway allocation ends there in MemoryError and
    fails the calling test instead of exhausting the machine; nothing
    outside the child is limited.  lvphoton is importable in the child.
    Returns the subprocess.CompletedProcess, output captured as text.
    """
    prelude = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_SPACE}, {CHILD_ADDRESS_SPACE}))\n"
        f"sys.path.insert(0, {str(_SRC)!r})\n"
    )
    return subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, text=True, timeout=600
    )


def _capped_cli(argv):
    """lvphoton.cli.main(argv) in a capped child; its exit status is main's return."""
    return _run_capped(f"from lvphoton.cli import main\nsys.exit(main({list(argv)!r}))\n")


@pytest.fixture(scope="session")
def run_capped():
    """The capped child runner: (code) -> CompletedProcess."""
    return _run_capped


@pytest.fixture(scope="session")
def capped_cli():
    """The capped command runner: (argv) -> CompletedProcess."""
    return _capped_cli
