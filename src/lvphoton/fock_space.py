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
    """Occupation-number basis data for a set of modes at a given cutoff.

    The +-k pair has eight modes; the reduced ghost space of the lorenz
    module is the same structure over four.
    """

    cutoff: int
    base: int
    dim: int
    occupations: np.ndarray  # dim x modes int array, row = occupation tuple

    @property
    def modes(self):
        """Number of modes, the length of an occupation tuple."""
        return self.occupations.shape[1]

    def index_of(self, occ):
        """Basis index of an occupation tuple (inverse of `occupations`)."""
        occ = np.asarray(occ, dtype=int)
        if occ.shape != (self.modes,) or np.any(occ < 0) or np.any(occ > self.cutoff):
            raise ValueError("occupation tuple out of range")
        idx = 0
        for n in occ:
            idx = idx * self.base + int(n)
        return idx


def _occupation_space(cutoff, modes):
    """Lexicographic occupation basis of `modes` modes, each up to `cutoff`."""
    base = cutoff + 1
    dim = base**modes
    occ = np.ascontiguousarray(np.indices((base,) * modes).reshape(modes, dim).T)
    occ.setflags(write=False)
    return FockSpace(cutoff=cutoff, base=base, dim=dim, occupations=occ)


def build_space(cutoff):
    """Build the truncated 8-mode space with max occupation `cutoff` per mode.

    dim = (cutoff+1)^8, so cutoff is capped at 4 (~390k basis states).
    """
    if not 1 <= cutoff <= 4:
        raise ValueError("cutoff must be between 1 and 4")
    return _occupation_space(cutoff, 8)


def _check_operator(space, a):
    if a.shape != (space.dim, space.dim):
        raise ValueError("operator dimension does not match the space")


def annihilator(space, mode):
    """Sparse lowering operator for one mode (entries sqrt(n)), identity elsewhere."""
    return _lowering(space, mode.slot)


def _lowering(space, slot):
    """Lowering operator of the mode in position `slot` of the occupation tuple.

    Column i with n = n_slot(i) > 0 holds sqrt(n) in row i - stride,
    stride = base**(modes - 1 - slot).  In the lexicographic basis
    n_slot(i) is (i // stride) % base, so the pattern repeats every
    period = stride * base indices, and within each period the entries
    sit in columns [stride, period) and rows [0, period - stride).  The
    CSR arrays are written out from that, without a kron chain or a scan
    of the occupation table, and match the kron chain of single-mode
    factors bit for bit.
    """
    stride = space.base ** (space.modes - 1 - slot)
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
    occ = _dg_occupation_array(space, [(plus, minus)])[0]
    return tuple(int(n) for n in occ[:4]), tuple(int(n) for n in occ[4:])


def _dg_occupation_array(space, states):
    """A list of (plus, minus) d/g tuples as an (n, 8) int array, validated
    all at once by the rules of check_dg_occupations."""
    rows = [(plus, minus) for plus, minus in states]
    try:
        occ = np.array(rows, dtype=np.int64)
        shaped = not rows or occ.shape[1:] == (2, 4)
    except ValueError:  # tuples of unequal lengths
        shaped = False
    if not shaped or np.any(occ < 0):
        raise ValueError("each direction needs 4 nonnegative occupations")
    occ = occ.reshape(-1, 8)
    transverse = occ[:, [0, 1, 4, 5]]
    ghost = occ[:, [2, 6]] + occ[:, [3, 7]]
    if np.any(transverse > space.cutoff) or np.any(ghost > space.cutoff):
        raise ValueError("occupations exceed the truncation")
    return occ


def _dg_amplitudes(cutoff):
    """table[n_d, n_g, n0]: amplitude of |n0, n3 = n_d + n_g - n0> in |n_d, n_g>.

    The d/g raisers are a fixed rotation of the scalar/longitudinal pair,
    a_d-dagger = (-i/sqrt(2)) (a_3-dagger - a_0-dagger) and a_g-dagger =
    (1/sqrt(2)) (a_3-dagger + a_0-dagger), so expanding the binomials
    gives the integer count sum_j (-1)^j C(n_d, j) C(n_g, n0 - j) of
    a_0-dagger^n0 a_3-dagger^n3 terms; acting on the vacuum each term
    carries sqrt(n0! n3!).  Amplitudes with a zero count are exact zeros.
    """
    table = np.zeros((cutoff + 1,) * 3, dtype=complex)
    fact = [math.factorial(n) for n in range(cutoff + 1)]
    for nd in range(cutoff + 1):
        for ng in range(cutoff + 1 - nd):
            total = nd + ng
            phase = (1, -1j, -1, 1j)[nd % 4]
            for n0 in range(total + 1):
                count = sum(
                    (-1) ** j * math.comb(nd, j) * math.comb(ng, n0 - j)
                    for j in range(max(0, n0 - ng), min(nd, n0) + 1)
                )
                scale = fact[n0] * fact[total - n0] / (fact[nd] * fact[ng] * 2**total)
                table[nd, ng, n0] = phase * count * math.sqrt(scale)
    return table


def dg_basis_columns(space, states):
    """The d/g basis states of a list of (plus, minus) tuples as CSC columns.

    Each direction's tuple lists n1, n2, n_d, n_g (see dg_basis_state).
    A state is the outer product of its +k and -k ghost amplitudes over
    (n0, n3) and (n0', n3'), with the transverse occupations fixed, so a
    column holds at most (n_d + n_g + 1)(n_d' + n_g' + 1) nonzeros; its
    row indices follow from the basis strides.  The tuples are validated
    as by check_dg_occupations.
    """
    occ = _dg_occupation_array(space, states)
    table = _dg_amplitudes(space.cutoff)
    stride = space.base ** np.arange(7, -1, -1)
    n0 = np.arange(space.cutoff + 1)

    def ghost_part(d):  # amplitudes and index offsets of one direction
        nd, ng = occ[:, 4 * d + 2], occ[:, 4 * d + 3]
        n3 = (nd + ng)[:, None] - n0
        return table[nd, ng], n0 * stride[4 * d] + n3 * stride[4 * d + 3]

    (amp_p, idx_p), (amp_m, idx_m) = ghost_part(0), ghost_part(1)
    fixed = occ[:, [0, 1, 4, 5]] @ stride[[1, 2, 5, 6]]  # transverse slots
    values = amp_p[:, :, None] * amp_m[:, None, :]
    rows = fixed[:, None, None] + idx_p[:, :, None] + idx_m[:, None, :]
    keep = values != 0
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=(1, 2)))))
    return sp.csc_matrix(
        (values[keep], rows[keep], indptr), shape=(space.dim, len(occ))
    )


def dg_basis_state(space, plus, minus=(0, 0, 0, 0)):
    """Basis state |n1, n2, n_d, n_g> (x) |n1', n2', n_d', n_g'>.

    Each direction's tuple lists the two transverse occupations and the
    d/g ghost occupations.  The state is the one the plain daggers of the
    mode operators make from the vacuum with 1/sqrt(n!) factors, so it
    has unit physical-metric norm; it is one column of dg_basis_columns.
    The ghost part spreads over scalar/longitudinal occupations with
    n0 + n3 = n_d + n_g, so that sum must stay within the cutoff.
    """
    return dg_basis_columns(space, [(plus, minus)]).toarray().ravel()
