"""Gauge conditions in the indefinite product and the invariant subspace.

The covariant theory keeps the scalar and longitudinal modes in the
state space and removes them from physics through a condition on
states.  In the d/g ghost basis the condition splits the basis into
four classes:

  A   no ghost quanta at all; nonzero norm; consistent with the field
      equations.
  C   equal nonzero d and g counts; nonzero norm; inconsistent.
  B+  more d than g quanta; zero norm.
  B-  the d <-> g mirror of a B+ state; zero norm.  Each B+ state pairs
      with exactly one B- state under the indefinite product.

The strong (Gupta-Bleuler style) condition demands a_d psi = 0; the
weak condition only demands it of the nonzero-norm component, which is
what the Lorentz-violating couplings require.  The counting helpers
verify that the ghost-sector couplings never connect a weak-condition
state to a C-class state, so time evolution stays inside the physical
subspace.

The reduced four-mode ghost space at the bottom of the module carries
only the d/g occupations of both directions; it exists so operator
products of the ghost couplings can be checked exhaustively without
dragging the transverse factors along.
"""

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from . import fock_space as fs

#: Residual threshold below which a mode condition counts as satisfied.
GB_TOL = 1e-12

#: Longest evolution time accepted by invariance_leakage (in 1/omega units).
MAX_LEAKAGE_TIME = 10.0


class StateClass(enum.Enum):
    """The four ghost-occupation classes of the fixed-norm partition."""

    A = "A"
    B_PLUS = "B+"
    B_MINUS = "B-"
    C = "C"


def _classify_tuple(n_d, n_g, n_d_prime, n_g_prime):
    if n_d == n_g and n_d_prime == n_g_prime:
        if n_d == 0 and n_d_prime == 0:
            return StateClass.A
        return StateClass.C
    # d-heavy at the first direction where the counts differ -> B+.
    if (n_d, n_d_prime) > (n_g, n_g_prime):
        return StateClass.B_PLUS
    return StateClass.B_MINUS


def _check_occupations(space, plus, minus):
    plus = tuple(int(n) for n in plus)
    minus = tuple(int(n) for n in minus)
    for tup in (plus, minus):
        if len(tup) != 4 or min(tup) < 0:
            raise ValueError("each direction needs 4 nonnegative occupations")
        n1, n2, nd, ng = tup
        if n1 > space.cutoff or n2 > space.cutoff or nd + ng > space.cutoff:
            raise ValueError("occupations exceed the truncation")
    return plus, minus


def classify(space, plus, minus=(0, 0, 0, 0)):
    """Class label of the d/g basis state |n1,n2,n_d,n_g> (x) |...'>.

    Only the ghost occupations matter; the transverse entries are
    accepted so the argument convention matches dg_basis_state.  The
    label obeys the norm rule: the indefinite norm is nonzero exactly
    for A and C states.
    """
    plus, minus = _check_occupations(space, plus, minus)
    return _classify_tuple(plus[2], plus[3], minus[2], minus[3])


def partner_occupations(plus, minus=(0, 0, 0, 0)):
    """The d <-> g mirrored occupations, pairing B+ with B- states.

    A and C states are their own partners.  The returned tuples keep
    the transverse occupations unchanged.
    """
    plus = tuple(plus)
    minus = tuple(minus)
    return (
        (plus[0], plus[1], plus[3], plus[2]),
        (minus[0], minus[1], minus[3], minus[2]),
    )


def pairing_phase(plus, minus=(0, 0, 0, 0)):
    """Phase i^(n_g - n_d) (both directions) of <partner|state> in the
    indefinite product; +-1 or +-i."""
    return 1j ** (((plus[3] - plus[2]) + (minus[3] - minus[2])) % 4)


def gupta_bleuler_check(space, psi, tol=GB_TOL):
    """Whether a_d psi vanishes for both directions (the strong condition).

    Checks the ket half directly and the bra half through the
    bar-adjoint, psi^dag M (-i a_g^dag), which is the same condition on
    the dual vector.
    """
    psi = np.asarray(psi, dtype=complex)
    mdiag = fs.metric_diagonal(space)
    for direction in (fs.PLUS_K, fs.MINUS_K):
        a_d, a_g = fs.dg_operators(space, direction)
        if np.linalg.norm(a_d @ psi) >= tol:
            return False
        bra = (psi.conj() * mdiag) @ (-1j * a_g.conj().T)
        if np.linalg.norm(bra) >= tol:
            return False
    return True


def _dg_raisers(space):
    """The eight d/g-basis raising operators, built once for many states."""
    raisers = {}
    for direction in (fs.PLUS_K, fs.MINUS_K):
        a_d, a_g = fs.dg_operators(space, direction)
        raisers[direction] = (
            fs.creator(space, fs.ModeId(direction, 1)),
            fs.creator(space, fs.ModeId(direction, 2)),
            a_d.conj().T.tocsr(),
            a_g.conj().T.tocsr(),
        )
    return raisers


def _dg_state(space, raisers, plus, minus):
    """dg_basis_state built from precomputed raisers (see fock_space)."""
    state = fs.vacuum_state(space)
    norm = 1.0
    for direction, occ in ((fs.PLUS_K, plus), (fs.MINUS_K, minus)):
        for op, count in zip(raisers[direction], occ):
            for _ in range(count):
                state = op @ state
            norm *= math.factorial(count)
    return state / np.sqrt(norm)


def _ghost_combos(cutoff):
    return [
        (nd, ng)
        for nd in range(cutoff + 1)
        for ng in range(cutoff + 1)
        if nd + ng <= cutoff
    ]


def _class_basis(space, labels):
    """All d/g basis states whose ghost occupations carry a given label.

    Returns a list of (plus, minus, vector) triples covering every
    transverse occupation; vectors have unit physical norm.
    """
    raisers = _dg_raisers(space)
    combos = _ghost_combos(space.cutoff)
    trans = range(space.cutoff + 1)
    out = []
    for (nd, ng), (ndp, ngp) in itertools.product(combos, combos):
        if _classify_tuple(nd, ng, ndp, ngp) not in labels:
            continue
        for n1, n2, n1p, n2p in itertools.product(trans, trans, trans, trans):
            plus = (n1, n2, nd, ng)
            minus = (n1p, n2p, ndp, ngp)
            out.append((plus, minus, _dg_state(space, raisers, plus, minus)))
    return out


def nonzero_norm_component(space, psi):
    """Projection of psi onto the nonzero-norm (A and C class) sector.

    Self-paired d/g basis states have unit norm and are mutually
    orthogonal in the indefinite product, and they are orthogonal to
    every zero-norm basis state, so the projection is a plain sum of
    indefinite overlaps.  Components with combined ghost occupation
    beyond the cutoff are outside the d/g-resolvable sector and are not
    represented.
    """
    psi = np.asarray(psi, dtype=complex)
    mpsi = fs.metric_diagonal(space) * psi
    comp = np.zeros_like(psi)
    for _, _, state in _class_basis(space, (StateClass.A, StateClass.C)):
        comp += (state.conj() @ mpsi) * state
    return comp


def weak_lorenz_check(space, psi, tol=GB_TOL):
    """Whether psi satisfies the relaxed mode condition.

    The state passes when it either has zero indefinite norm or passes
    the strong check outright, and in addition its nonzero-norm
    component passes the strong check on its own.  The second clause is
    what rejects states hiding a C-class component inside a zero-norm
    combination.
    """
    psi = np.asarray(psi, dtype=complex)
    norm = fs.indefinite_inner(space, psi, psi)
    scale = max(1.0, float(np.linalg.norm(psi)) ** 2)
    head = abs(norm) < tol * scale or gupta_bleuler_check(space, psi, tol)
    if not head:
        return False
    return gupta_bleuler_check(space, nonzero_norm_component(space, psi), tol)


def observable_indistinguishability(space, psi, varphi, c1, c2, a, tol=GB_TOL):
    """Means of a transverse observable in psi and in c1 psi + c2 varphi.

    varphi must have zero indefinite norm and zero indefinite overlap
    with psi, and psi must have nonzero norm; under those conditions the
    admixture cannot move the mean of any observable that acts only on
    the transverse factors.  The preconditions are enforced because
    violating them is exactly how the admixture becomes detectable.
    Returns the two means.
    """
    psi = np.asarray(psi, dtype=complex)
    varphi = np.asarray(varphi, dtype=complex)
    norm_psi = fs.indefinite_inner(space, psi, psi)
    norm_phi = fs.indefinite_inner(space, varphi, varphi)
    cross = fs.indefinite_inner(space, psi, varphi)
    scale_psi = float(np.linalg.norm(psi)) ** 2
    scale_phi = float(np.linalg.norm(varphi)) ** 2
    if abs(norm_psi) <= tol * max(1.0, scale_psi):
        raise ValueError("psi must have nonzero indefinite norm")
    if abs(norm_phi) > tol * max(1.0, scale_phi):
        raise ValueError("varphi must have zero indefinite norm")
    if abs(cross) > tol * max(1.0, np.sqrt(scale_psi * scale_phi)):
        raise ValueError("psi and varphi must be orthogonal in the indefinite product")
    mean1 = fs.indefinite_inner(space, psi, a @ psi) / norm_psi
    mixed = c1 * psi + c2 * varphi
    norm_mixed = fs.indefinite_inner(space, mixed, mixed)
    mean2 = fs.indefinite_inner(space, mixed, a @ mixed) / norm_mixed
    return mean1, mean2


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def counting_oracle(n_d, n_g, n_d_prime, n_g_prime, n_lslv, n_tls):
    """Whether the ghost couplings can reach a nonzero-norm configuration.

    The two coupling families move the four ghost occupations in fixed
    patterns; `n_lslv` applications of the first and `n_tls` of the
    second send (n_d, n_g, n_d', n_g') to

        m_d  = n_d  + w1 + z1 + w2        m_g  = n_g  - w1 - y1 - y2
        m_d' = n_d' - x1 - y1 - x2        m_g' = n_g' + x1 + z1 + z2

    over nonnegative step counts with w1+x1+y1+z1 = n_lslv and
    w2+x2+y2+z2 = n_tls.  Returns True when some step assignment lands
    on m_d = m_g and m_d' = m_g' with nothing driven negative.
    """
    occ = (n_d, n_g, n_d_prime, n_g_prime)
    if any(int(n) != n or n < 0 for n in (*occ, n_lslv, n_tls)):
        raise ValueError("occupations and step counts must be nonnegative integers")
    for w1, x1, y1, z1 in _compositions(n_lslv, 4):
        for w2, x2, y2, z2 in _compositions(n_tls, 4):
            m_g = n_g - w1 - y1 - y2
            m_dp = n_d_prime - x1 - y1 - x2
            if m_g < 0 or m_dp < 0:
                continue
            m_d = n_d + w1 + z1 + w2
            m_gp = n_g_prime + x1 + z1 + z2
            if m_d == m_g and m_dp == m_gp:
                return True
    return False


def invariance_leakage(space, hamiltonian, t):
    """Worst C-class contamination of evolved A-class (x) transverse states.

    Evolves every A-class basis state by exp(-i H t) and returns the
    largest total squared indefinite overlap with the C-class basis
    states.  Zero-norm (B class) admixture is allowed and not counted;
    the relaxed mode condition only protects the nonzero-norm sector.
    Accepts a HamiltonianBundle or a bare operator matrix.

    The evolution runs one coupled block of H at a time.  The blocks are
    the connected components of H's sparsity pattern, taken from H itself
    (for the physical Hamiltonian they are the momentum sectors, but a
    perturbed H may join them).  Each A-class state is one occupation
    basis vector and so lies in exactly one block; its evolved column is
    zero outside that block, so evolving the block's A columns under the
    block of H and taking the C-class overlaps over the block's rows is
    exact.  A single-block H is simply evolved in the full space.
    """
    h = getattr(hamiltonian, "total", hamiltonian).tocsr()
    if t > MAX_LEAKAGE_TIME * (1 + 1e-12):
        raise ValueError("evolution time exceeds the supported window")
    a_states = np.column_stack(
        [vec for _, _, vec in _class_basis(space, (StateClass.A,))]
    )
    c_states = np.column_stack(
        [vec for _, _, vec in _class_basis(space, (StateClass.C,))]
    )
    # Imported here: the graph module adds ~1 MB to every process, and
    # only this function needs it.
    from scipy.sparse.csgraph import connected_components

    # A real-valued pattern: the graph routine warns on complex data.
    pattern = sp.csr_matrix((np.ones(h.nnz), h.indices, h.indptr), shape=h.shape)
    _, labels = connected_components(pattern, directed=False)
    rows, cols = np.nonzero(a_states)
    owner = labels[rows]
    if np.any(np.bincount(cols, minlength=a_states.shape[1]) != 1):
        raise RuntimeError("an A-class state is not a single basis vector")
    mdiag = fs.metric_diagonal(space)
    worst = 0.0
    for block in np.unique(owner):
        idx = np.flatnonzero(labels == block)
        members = cols[owner == block]
        evolved = expm_multiply(
            -1j * t * h[idx][:, idx], a_states[idx][:, members]
        )
        if not np.all(np.isfinite(evolved)):
            raise RuntimeError("time evolution did not stay finite")
        overlaps = c_states[idx].conj().T @ (mdiag[idx, None] * evolved)
        worst = max(worst, float(np.max(np.sum(np.abs(overlaps) ** 2, axis=0))))
    return worst


def ghost_class_weights(space, psi):
    """Squared d/g-expansion weight of psi in each of the four classes.

    The coefficient of the basis state b comes from the indefinite
    overlap with its partner state, divided by the pairing phase; the
    weights are physical-metric magnitudes, so they quantify admixture
    rather than norm contribution.  Covers combined ghost occupations
    within the cutoff.
    """
    psi = np.asarray(psi, dtype=complex)
    mpsi = fs.metric_diagonal(space) * psi
    raisers = _dg_raisers(space)
    combos = _ghost_combos(space.cutoff)
    trans = range(space.cutoff + 1)
    weights = {label: 0.0 for label in StateClass}
    for (nd, ng), (ndp, ngp) in itertools.product(combos, combos):
        label = _classify_tuple(nd, ng, ndp, ngp)
        for n1, n2, n1p, n2p in itertools.product(trans, trans, trans, trans):
            plus = (n1, n2, nd, ng)
            minus = (n1p, n2p, ndp, ngp)
            partner = _dg_state(
                space, raisers, *partner_occupations(plus, minus)
            )
            overlap = partner.conj() @ mpsi
            coeff = overlap / pairing_phase(plus, minus)
            weights[label] += float(abs(coeff)) ** 2
    return weights


# ---------------------------------------------------------------------------
# Reduced four-mode ghost space for exhaustive counting checks.

#: Slot order of the reduced space: d(+k), g(+k), d(-k), g(-k).
GHOST_SLOTS = ("d", "g", "d_prime", "g_prime")


@dataclass(frozen=True)
class GhostSpace:
    """Occupation basis of the four ghost modes alone."""

    cutoff: int
    base: int
    dim: int
    occupations: np.ndarray  # dim x 4 int array

    def index_of(self, occ):
        occ = np.asarray(occ, dtype=int)
        if occ.shape != (4,) or np.any(occ < 0) or np.any(occ > self.cutoff):
            raise ValueError("occupation tuple out of range")
        idx = 0
        for n in occ:
            idx = idx * self.base + int(n)
        return idx


def ghost_space(cutoff=3):
    """Truncated basis over (n_d, n_g, n_d', n_g'), dim (cutoff+1)^4."""
    if not 1 <= cutoff <= 7:
        raise ValueError("cutoff must be between 1 and 7")
    base = cutoff + 1
    dim = base**4
    occ = np.ascontiguousarray(np.indices((base,) * 4).reshape(4, dim).T)
    occ.setflags(write=False)
    return GhostSpace(cutoff=cutoff, base=base, dim=dim, occupations=occ)


def ghost_annihilator(gspace, slot):
    """Lowering operator for one of the four ghost slots (physical metric)."""
    if slot not in range(4):
        raise ValueError("slot must be 0..3 (d, g, d', g')")
    lower = sp.diags(np.sqrt(np.arange(1.0, gspace.base)), 1)
    eye = sp.identity(gspace.base, format="csr")
    op = sp.identity(1, format="csr")
    for position in range(4):
        op = sp.kron(op, lower if position == slot else eye, format="csr")
    return op.astype(complex)


def ghost_pairing(gspace):
    """Gram matrix of the indefinite product in the d/g occupation basis.

    Row b, column c is nonzero only when b is the d <-> g mirror of c,
    with phase i^(n_g - n_d) (both directions) taken from the column
    state.  The matrix is an involution and equals its own conjugate
    transpose.
    """
    occ = gspace.occupations
    strides = gspace.base ** np.arange(3, -1, -1)
    swapped = occ[:, [1, 0, 3, 2]]
    rows = swapped @ strides
    cols = np.arange(gspace.dim)
    phases = 1j ** (((occ[:, 1] - occ[:, 0]) + (occ[:, 3] - occ[:, 2])) % 4)
    return sp.csr_matrix((phases, (rows, cols)), shape=(gspace.dim, gspace.dim))


def ghost_indefinite_inner(gspace, phi, psi):
    """Indefinite product on the reduced space via the pairing Gram matrix."""
    gram = ghost_pairing(gspace)
    return complex(np.conj(np.asarray(phi)) @ (gram @ np.asarray(psi)))


def ghost_lslv(gspace, coupling):
    """Reduced ghost part of the longitudinal-scalar coupling.

    Four moves with a common coefficient: create d / absorb g (+k),
    create g' / absorb d' (-k), absorb g and d' together, create d and
    g' together.
    """
    a_d = ghost_annihilator(gspace, 0)
    a_g = ghost_annihilator(gspace, 1)
    a_dp = ghost_annihilator(gspace, 2)
    a_gp = ghost_annihilator(gspace, 3)
    create_d = a_d.conj().T
    create_gp = a_gp.conj().T
    return (-1j * coupling) * (
        create_d @ a_g - create_gp @ a_dp + a_g @ a_dp - create_gp @ create_d
    )


def ghost_pm_tls(gspace, lam1, lam2):
    """Reduced ghost part of the transverse-ghost coupling.

    The transverse factors collapse to the scalars lam1 (multiplying the
    d-sector moves) and lam2 (the g-sector moves) on the ghost-only
    space.
    """
    a_d = ghost_annihilator(gspace, 0)
    a_g = ghost_annihilator(gspace, 1)
    a_dp = ghost_annihilator(gspace, 2)
    a_gp = ghost_annihilator(gspace, 3)
    return lam1 * (1j * a_d.conj().T + 1j * a_dp) + lam2 * (a_g - a_gp.conj().T)
