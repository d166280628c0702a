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
import functools
import itertools

import numpy as np
import scipy.sparse as sp

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


def classify(space, plus, minus=(0, 0, 0, 0)):
    """Class label of the d/g basis state |n1,n2,n_d,n_g> (x) |...'>.

    Only the ghost occupations matter; the transverse entries are
    accepted so the argument convention matches dg_basis_state.  The
    label obeys the norm rule: the indefinite norm is nonzero exactly
    for A and C states.
    """
    plus, minus = fs.check_dg_occupations(space, plus, minus)
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


def _dg_operators(space, direction):
    """fs.dg_operators of one direction on `space`, kept on the space.

    A verify pass checks dozens of states of one space, so both
    directions are built once per space and die with it, as
    monomial_sum's arrays do.  Only gupta_bleuler_check multiplies with
    them; no caller receives the shared matrices.
    """
    if direction not in space._dg:
        space._dg[direction] = fs.dg_operators(space, direction)
    return space._dg[direction]


def gupta_bleuler_check(space, psi):
    """Whether a_d psi vanishes for both directions (the strong condition).

    Checks the ket half directly and the bra half through the
    bar-adjoint, psi^dag M bar(a_d) = psi^dag M (-i a_g^dag), which is
    the same condition on the dual vector.  That row is -i times the
    conjugate of a_g M psi, so its norm is taken from a_g M psi.
    """
    psi = np.asarray(psi, dtype=complex)
    mdiag = fs.metric_diagonal(space)
    for direction in (fs.PLUS_K, fs.MINUS_K):
        a_d, a_g = _dg_operators(space, direction)
        if np.linalg.norm(a_d @ psi) >= GB_TOL:
            return False
        if np.linalg.norm(a_g @ (mdiag * psi)) >= GB_TOL:
            return False
    return True


def _ghost_combos(cutoff):
    return [
        (nd, ng)
        for nd in range(cutoff + 1)
        for ng in range(cutoff + 1)
        if nd + ng <= cutoff
    ]


def _class_tuples(cutoff, labels):
    """(plus, minus) tuples of every d/g basis state with one of `labels`,
    covering every transverse occupation."""
    combos = _ghost_combos(cutoff)
    trans = range(cutoff + 1)
    return [
        ((n1, n2, nd, ng), (n1p, n2p, ndp, ngp))
        for (nd, ng), (ndp, ngp) in itertools.product(combos, combos)
        if _classify_tuple(nd, ng, ndp, ngp) in labels
        for n1, n2, n1p, n2p in itertools.product(trans, repeat=4)
    ]


def _class_columns(space, labels):
    """The d/g basis states with one of `labels` as sparse CSC columns."""
    return fs.dg_basis_columns(space, _class_tuples(space.cutoff, labels))


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
    cols = _class_columns(space, (StateClass.A, StateClass.C))
    return cols @ (cols.conj().T @ (fs.metric_diagonal(space) * psi))


def weak_lorenz_check(space, psi):
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
    head = abs(norm) < GB_TOL * scale or gupta_bleuler_check(space, psi)
    if not head:
        return False
    return gupta_bleuler_check(space, nonzero_norm_component(space, psi))


def observable_indistinguishability(space, psi, varphi, c1, c2, a):
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
    if abs(norm_psi) <= GB_TOL * max(1.0, scale_psi):
        raise ValueError("psi must have nonzero indefinite norm")
    if abs(norm_phi) > GB_TOL * max(1.0, scale_phi):
        raise ValueError("varphi must have zero indefinite norm")
    if abs(cross) > GB_TOL * max(1.0, np.sqrt(scale_psi * scale_phi)):
        raise ValueError("psi and varphi must be orthogonal in the indefinite product")
    mean1 = fs.indefinite_inner(space, psi, a @ psi) / norm_psi
    mixed = c1 * psi + c2 * varphi
    norm_mixed = fs.indefinite_inner(space, mixed, mixed)
    mean2 = fs.indefinite_inner(space, mixed, a @ mixed) / norm_mixed
    return mean1, mean2


@functools.cache
def _compositions(total, parts):
    """Every tuple of `parts` nonnegative ints summing to `total`, as a tuple.

    Memoized, so the recursion builds each (total, parts) pair once.
    """
    if parts == 1:
        return ((total,),)
    return tuple(
        (head,) + rest
        for head in range(total + 1)
        for rest in _compositions(total - head, parts - 1)
    )


@functools.cache
def _oracle_moves(n_lslv, n_tls):
    """The distinct moves of (n_d, n_g, n_d', n_g') that counting_oracle tries.

    One row (m_d - n_d, m_g - n_g, m_d' - n_d', m_g' - n_g') per distinct
    move over every step assignment, as a read-only int array; memoized,
    since the oracle asks for the same few step counts again and again.
    """
    moves = {
        (w1 + z1 + w2, -w1 - y1 - y2, -x1 - y1 - x2, x1 + z1 + z2)
        for w1, x1, y1, z1 in _compositions(n_lslv, 4)
        for w2, x2, y2, z2 in _compositions(n_tls, 4)
    }
    out = np.array(sorted(moves), dtype=np.int64)
    out.setflags(write=False)
    return out


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

    The four occupations may be arrays; they broadcast, and the answer
    is then a bool array of their shape, one entry per configuration.
    The two step counts are single numbers.
    """
    counts = np.concatenate(
        [np.ravel(n) for n in (n_d, n_g, n_d_prime, n_g_prime, n_lslv, n_tls)]
    )
    if counts.dtype.kind not in "biuf" or np.ndim(n_lslv) or np.ndim(n_tls) or not np.all(
        np.isfinite(counts) & (counts >= 0) & (counts == np.floor(counts))
    ):
        raise ValueError(
            "occupations and step counts must be nonnegative integers, one number per step count"
        )
    occ = np.stack(np.broadcast_arrays(n_d, n_g, n_d_prime, n_g_prime), axis=-1)
    m = occ[..., None, :] + _oracle_moves(int(n_lslv), int(n_tls))
    m_d, m_g, m_dp, m_gp = m[..., 0], m[..., 1], m[..., 2], m[..., 3]
    out = np.any((m_g >= 0) & (m_dp >= 0) & (m_d == m_g) & (m_dp == m_gp), axis=-1)
    return bool(out) if out.ndim == 0 else out


def invariance_leakage(space, hamiltonian, t):
    """Worst C-class contamination of evolved A-class (x) transverse states.

    Evolves every A-class basis state by exp(-i H t) and returns the
    largest total squared indefinite overlap with the C-class basis
    states.  Zero-norm (B class) admixture is allowed and not counted;
    the relaxed mode condition only protects the nonzero-norm sector.
    `hamiltonian` is a sparse operator matrix.

    The evolution runs one coupled block of H at a time, through
    fock_space.propagate_blocks.  The blocks are the connected components
    of H's sparsity pattern, taken from H itself (for the physical
    Hamiltonian they are the momentum sectors, but a perturbed H may
    join them).  Each A-class state is one occupation basis vector and
    so lies in exactly one block; its evolved column is zero outside
    that block, so its C-class overlaps are taken over the block's rows
    alone.  Each block is evolved by fock_space.propagate, a Chebyshev
    series whose term count comes from a bound on the block's numerical
    range.
    """
    h = hamiltonian.tocsr()
    if t > MAX_LEAKAGE_TIME * (1 + 1e-12):
        raise ValueError("evolution time exceeds the supported window")
    a_states = _class_columns(space, (StateClass.A,))
    c_states = _class_columns(space, (StateClass.C,)).tocsr()
    if np.any(np.diff(a_states.indptr) != 1):
        raise RuntimeError("an A-class state is not a single basis vector")
    if c_states.shape[1] == 0:
        return 0.0  # below cutoff 2 no C-class state fits
    mdiag = fs.metric_diagonal(space)
    worst = 0.0
    for rows, _, evolved in fs.propagate_blocks(h, a_states, t):
        if not np.all(np.isfinite(evolved)):
            raise RuntimeError("time evolution did not stay finite")
        overlaps = c_states[rows].conj().T @ (mdiag[rows, None] * evolved)
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
    weights = {}
    for label in StateClass:
        states = _class_tuples(space.cutoff, (label,))
        partners = fs.dg_basis_columns(
            space, [partner_occupations(*state) for state in states]
        )
        phases = np.array([pairing_phase(*state) for state in states], dtype=complex)
        coeffs = (partners.conj().T @ mpsi) / phases
        weights[label] = float(np.sum(np.abs(coeffs) ** 2))
    return weights


# ---------------------------------------------------------------------------
# Reduced four-mode ghost space for exhaustive counting checks.

#: Labels of the ghost space's modes d(+k), g(+k), d(-k), g(-k), in column order.
GHOST_MODES = ("d+", "g+", "d-", "g-")


def ghost_space(cutoff=3):
    """Truncated basis over (n_d, n_g, n_d', n_g'), dim (cutoff+1)^4.

    Its modes are labeled GHOST_MODES; ladder operators on them are
    fs.ladder factors summed by fs.monomial_sum (physical metric).
    """
    cutoff = fs.checked_cutoff(cutoff, "cutoff must be between 1 and 7", 7)
    return fs._occupation_space(cutoff, GHOST_MODES)


def ghost_pairing(gspace):
    """Gram matrix of the indefinite product in the d/g occupation basis.

    Row b, column c is nonzero only when b is the d <-> g mirror of c,
    with phase i^(n_g - n_d) (both directions) taken from the column
    state.  The matrix is an involution and equals its own conjugate
    transpose.
    """
    d, g, d_prime, g_prime = (gspace.position(label) for label in GHOST_MODES)
    occ = gspace.occupations
    strides = gspace.base ** np.arange(3, -1, -1)
    swapped = occ[:, [g, d, g_prime, d_prime]]
    rows = swapped @ strides
    cols = np.arange(gspace.dim)
    phases = 1j ** (((occ[:, g] - occ[:, d]) + (occ[:, g_prime] - occ[:, d_prime])) % 4)
    return sp.csr_matrix((phases, (rows, cols)), shape=(gspace.dim, gspace.dim))


def ghost_lslv(gspace, coupling):
    """Reduced ghost part of the longitudinal-scalar coupling.

    Four moves with a common coefficient: create d / absorb g (+k),
    create g' / absorb d' (-k), absorb g and d' together, create d and
    g' together.
    """
    a_g, a_dp = fs.ladder("g+"), fs.ladder("d-")
    create_d, create_gp = fs.ladder("d+", raising=True), fs.ladder("g-", raising=True)
    c = -1j * coupling
    return fs.monomial_sum(
        gspace,
        [(c, create_d, a_g), (-c, create_gp, a_dp), (c, a_g, a_dp), (-c, create_gp, create_d)],
    )


def ghost_pm_tls(gspace, lam1, lam2):
    """Reduced ghost part of the transverse-ghost coupling.

    The transverse factors collapse to the scalars lam1 (multiplying the
    d-sector moves) and lam2 (the g-sector moves) on the ghost-only
    space.
    """
    d_moves = fs.ladder("d+", 1j, raising=True) + fs.ladder("d-", 1j)
    g_moves = fs.ladder("g+") + fs.ladder("g-", -1.0, raising=True)
    return fs.monomial_sum(gspace, [(lam1, d_moves), (lam2, g_moves)])
