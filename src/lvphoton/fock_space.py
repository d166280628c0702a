"""Truncated occupation-number space for the eight modes of a +-k pair.

One wavevector pair carries eight oscillators (scalar, two transverse,
longitudinal for each of +k and -k); the free dynamics couples only k
with -k, so this pair is the complete dynamical unit.  States live in
the ordinary ("physical metric") number basis; the indefinite scalar
product enters only through the diagonal metric operator M with entries
(-1)^(n0(+k) + n0(-k)).  Operators are scipy.sparse matrices; the
FockSpace is passed alongside and dimensions are validated where they
meet.

Mode ordering: +k modes 0,1,2,3 then -k modes 0,1,2,3 (0 = scalar,
1,2 = transverse, 3 = longitudinal).  Basis index is lexicographic with
the +k scalar occupation as the most significant digit.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

#: Mode commutator signs in the indefinite product: [a_r, bar(a_s)] = zeta_r delta_rs.
ZETA = (-1.0, 1.0, 1.0, 1.0)

#: Directions of the wavevector pair.
PLUS_K, MINUS_K = +1, -1


@dataclass(frozen=True)
class ModeId:
    """One of the eight oscillators: a direction (+-k) and a polarization 0-3."""

    direction: int
    polarization: int

    def __post_init__(self):
        if self.direction not in (PLUS_K, MINUS_K):
            raise ValueError("direction must be +1 (+k) or -1 (-k)")
        if self.polarization not in (0, 1, 2, 3):
            raise ValueError("polarization must be 0, 1, 2, or 3")

    @property
    def slot(self):
        """Position in the 8-mode ordering (+k:0..3, -k:4..7)."""
        return self.polarization + (0 if self.direction == PLUS_K else 4)


ALL_MODES = tuple(
    ModeId(d, p) for d in (PLUS_K, MINUS_K) for p in (0, 1, 2, 3)
)


@dataclass(frozen=True)
class FockSpace:
    """Occupation-number basis data for one +-k pair at a given cutoff."""

    cutoff: int
    base: int
    dim: int
    occupations: np.ndarray  # dim x 8 int array, row = occupation tuple

    def index_of(self, occ):
        """Basis index of an occupation tuple (inverse of `occupations`)."""
        occ = np.asarray(occ, dtype=int)
        if occ.shape != (8,) or np.any(occ < 0) or np.any(occ > self.cutoff):
            raise ValueError("occupation tuple out of range")
        idx = 0
        for n in occ:
            idx = idx * self.base + int(n)
        return idx


def build_space(cutoff):
    """Build the truncated 8-mode space with max occupation `cutoff` per mode.

    dim = (cutoff+1)^8, so cutoff is capped at 4 (~390k basis states).
    """
    if not 1 <= cutoff <= 4:
        raise ValueError("cutoff must be between 1 and 4")
    base = cutoff + 1
    dim = base**8
    grid = np.indices((base,) * 8).reshape(8, dim).T
    occ = np.ascontiguousarray(grid)
    occ.setflags(write=False)
    return FockSpace(cutoff=cutoff, base=base, dim=dim, occupations=occ)


def _check_operator(space, a):
    if a.shape != (space.dim, space.dim):
        raise ValueError("operator dimension does not match the space")


def annihilator(space, mode):
    """Sparse lowering operator for one mode (entries sqrt(n)), identity elsewhere.

    Column i with n = n_slot(i) > 0 holds sqrt(n) in row i - stride,
    stride = base**(7 - slot).  In the lexicographic basis n_slot(i) is
    (i // stride) % base, so the pattern repeats every period = stride *
    base indices, and within each period the entries sit in columns
    [stride, period) and rows [0, period - stride).  The CSR arrays are
    written out from that, without a kron chain or a scan of the
    occupation table, and match the kron chain of single-mode factors
    bit for bit.
    """
    stride = space.base ** (7 - mode.slot)
    period = stride * space.base
    kept = period - stride  # rows per period that hold an entry
    starts = np.arange(space.dim // period, dtype=np.int32)[:, None]
    cols = (starts * period + np.arange(stride, period, dtype=np.int32)).ravel()
    indptr = np.zeros(space.dim + 1, dtype=np.int32)
    indptr[1:] = (
        starts * kept + np.minimum(np.arange(1, period + 1, dtype=np.int32), kept)
    ).ravel()
    levels = np.sqrt(np.arange(1, space.base)).astype(complex)
    data = np.tile(np.repeat(levels, stride), len(starts))
    return sp.csr_matrix((data, cols, indptr), shape=(space.dim, space.dim))


def creator(space, mode):
    """Raising operator, the plain dagger of `annihilator`."""
    return annihilator(space, mode).conj().T.tocsr()


def number_operator(space, mode):
    """Diagonal occupation-number operator for one mode."""
    return sp.diags(space.occupations[:, mode.slot].astype(complex), format="csr")


def metric_M(space):
    """The diagonal metric operator with entries (-1)^(n0(+k) + n0(-k)).

    Squares to the identity and equals its own dagger; conjugation by M
    implements the sign flips of the indefinite scalar product.
    """
    return sp.diags(metric_diagonal(space).astype(complex), format="csr")


def metric_diagonal(space):
    """The +-1 diagonal of metric_M as a plain real array."""
    odd = (space.occupations[:, 0] + space.occupations[:, 4]) & 1
    return 1.0 - 2.0 * odd


def bar_adjoint(space, a):
    """Adjoint with respect to the indefinite product: bar(A) = M A-dagger M.

    M is diagonal with entries m_i = +-1, so entry (i, j) of bar(A) is
    m_i m_j times entry (i, j) of A-dagger; scaling by +-1 is exact, so
    this equals the two sparse products bit for bit.
    """
    _check_operator(space, a)
    out = sp.csr_matrix(a.conj().T, dtype=np.result_type(a.dtype, complex))
    m = metric_diagonal(space)
    row_signs = np.repeat(m, np.diff(out.indptr))
    out.data *= row_signs * m[out.indices]
    return out


def coupled_blocks(op):
    """Block label of every basis state under a sparse operator.

    The blocks are the connected components of the operator's sparsity
    pattern, taken as an undirected graph: no product of the operator
    with itself joins two states in different blocks, so exp(op) acting
    on a vector stays inside the blocks that hold its nonzeros.
    """
    # Imported here: the graph module adds ~1 MB to every process, and
    # only the block-restricted evolutions need it.
    from scipy.sparse.csgraph import connected_components

    op = sp.csr_matrix(op)
    # A real-valued pattern: the graph routine warns on complex data.
    pattern = sp.csr_matrix(
        (np.ones(op.nnz), op.indices, op.indptr), shape=op.shape
    )
    return connected_components(pattern, directed=False)[1]


def indefinite_inner(space, psi, phi):
    """The indefinite scalar product <psi|M|phi> (psi enters conjugated)."""
    psi = np.asarray(psi)
    phi = np.asarray(phi)
    if psi.shape != (space.dim,) or phi.shape != (space.dim,):
        raise ValueError("state dimension does not match the space")
    return complex(np.conj(psi) @ (metric_diagonal(space) * phi))


def interior_projector(space):
    """Projector onto states with every occupation <= cutoff - 1.

    Ladder-operator identities that would hold exactly on the infinite
    space hold exactly on this subspace; truncation artifacts are
    confined to top-occupation rows.
    """
    mask = np.all(space.occupations <= space.cutoff - 1, axis=1)
    return sp.diags(mask.astype(complex), format="csr")


def vacuum_state(space):
    vac = np.zeros(space.dim, dtype=complex)
    vac[0] = 1.0
    return vac


def dg_operators(space, direction):
    """The ghost-sector mode pair for one direction.

        a_d = (i/sqrt(2)) (a_3 - a_0),   a_g = (1/sqrt(2)) (a_3 + a_0)

    In the physical metric these are two independent unit bosons; their
    bar-adjoints mix them: bar(a_d) = -i a_g-dagger, bar(a_g) = +i
    a_d-dagger, so d quanta and g quanta are indefinite-product
    conjugates of each other rather than of themselves.
    """
    a0 = annihilator(space, ModeId(direction, 0))
    a3 = annihilator(space, ModeId(direction, 3))
    a_d = (1j / np.sqrt(2.0)) * (a3 - a0)
    a_g = (1.0 / np.sqrt(2.0)) * (a3 + a0)
    return a_d.tocsr(), a_g.tocsr()


def check_dg_occupations(space, plus, minus):
    """The (plus, minus) d/g occupation tuples as ints, validated.

    Each direction lists n1, n2, n_d, n_g; all must be nonnegative, the
    transverse ones within the cutoff, and n_d + n_g within the cutoff
    (the ghost part spreads over n0 + n3 = n_d + n_g).
    """
    plus = tuple(int(n) for n in plus)
    minus = tuple(int(n) for n in minus)
    for tup in (plus, minus):
        if len(tup) != 4 or min(tup) < 0:
            raise ValueError("each direction needs 4 nonnegative occupations")
        n1, n2, nd, ng = tup
        if n1 > space.cutoff or n2 > space.cutoff or nd + ng > space.cutoff:
            raise ValueError("occupations exceed the truncation")
    return plus, minus


def dg_basis_state(space, plus, minus=(0, 0, 0, 0)):
    """Basis state |n1, n2, n_d, n_g> (x) |n1', n2', n_d', n_g'>.

    Each direction's tuple lists the two transverse occupations and the
    d/g ghost occupations.  The state is built by applying the plain
    daggers of the mode operators to the vacuum with 1/sqrt(n!) factors,
    so it has unit physical-metric norm.  The ghost part spreads over
    scalar/longitudinal occupations with n0 + n3 = n_d + n_g, so that sum
    must stay within the cutoff.
    """
    plus, minus = check_dg_occupations(space, plus, minus)
    state = vacuum_state(space)
    norm = 1.0
    for direction, (n1, n2, nd, ng) in ((PLUS_K, plus), (MINUS_K, minus)):
        a_d, a_g = dg_operators(space, direction)
        ops = (
            (annihilator(space, ModeId(direction, 1)), n1),
            (annihilator(space, ModeId(direction, 2)), n2),
            (a_d, nd),
            (a_g, ng),
        )
        for op, count in ops:
            raiser = op.conj().T.tocsr()
            for _ in range(count):
                state = raiser @ state
            norm *= math.factorial(count)
    return state / np.sqrt(norm)
