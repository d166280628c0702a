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

#: theta_m of the truncated Taylor series for tolerance 2**-53, m <= 55:
#: one step of m terms is accurate to the tolerance for 1-norms up to
#: theta_m (Al-Mohy & Higham, "Computing the action of the matrix
#: exponential", SIAM J. Sci. Comput. 33 (2011), Table 3.1; the values
#: for m <= 30 are from Higham, "Functions of Matrices", Table A.3).
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}

#: Unit roundoff of float64, the tolerance the theta table is for.
_TOL = 2.0**-53


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


@functools.cache
def _compositions(total, parts):
    """Every tuple of `parts` nonnegative ints summing to `total`, as a tuple.

    Memoized: the counting oracle asks for the same few (total, parts)
    pairs thousands of times, and a tuple of tuples is safe to share.
    """
    if parts == 1:
        return ((total,),)
    return tuple(
        (head,) + rest
        for head in range(total + 1)
        for rest in _compositions(total - head, parts - 1)
    )


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
    for w1, x1, y1, z1 in _compositions(int(n_lslv), 4):
        for w2, x2, y2, z2 in _compositions(int(n_tls), 4):
            m_g = n_g - w1 - y1 - y2
            m_dp = n_d_prime - x1 - y1 - x2
            if m_g < 0 or m_dp < 0:
                continue
            m_d = n_d + w1 + z1 + w2
            m_gp = n_g_prime + x1 + z1 + z2
            if m_d == m_g and m_dp == m_gp:
                return True
    return False


def _taylor_degree(norm):
    """(m, s): s steps of m Taylor terms for a matrix of 1-norm `norm`.

    The cheapest m * s with norm / s <= theta_m (Al-Mohy & Higham's
    choice from the 1-norm alone).
    """
    if norm == 0:
        return 0, 1
    return min(
        ((m, int(np.ceil(norm / theta))) for m, theta in _THETA.items()),
        key=lambda ms: ms[0] * ms[1],
    )


def _propagate(h, columns, t):
    """exp(-i t h) applied to dense columns, by a truncated Taylor series.

    This is Al-Mohy & Higham's method: shift h by the mean of its
    diagonal, take the number of steps s and terms m from the exact
    1-norm of the shifted t h, and stop a step's series once two terms
    in a row fall below 2**-53 of the sum.  Unlike scipy's
    expm_multiply, (m, s) always come from the 1-norm alone.  scipy
    does so only while the 1-norm is at most about 63 / (number of
    columns), its condition (3.13), and past that takes (m, s) from
    power-norm estimates.  On the cutoff-2 leakage blocks the two
    choices agree (m * s of 200-330 at t = 10): the shifted H is
    dominated by its diagonal, so its power norms are close to its
    1-norm.  The arithmetic differs, so the results agree with
    expm_multiply to 1e-12, not bit for bit.

    The product with h runs in real arithmetic: the columns' float64
    view (real and imaginary parts interleaved) is multiplied by the
    real part of h as a real CSR matrix, which halves the work of a
    complex product.  The imaginary part of h is applied the same way,
    but only when it has nonzeros; the physical Hamiltonian has none,
    an injected defect has a few.  Both parts are copies, so h itself
    is never modified.
    """
    n = h.shape[0]
    mu = h.diagonal().mean()
    shifted = sp.csr_matrix(h - mu * sp.identity(n, format="csr"))
    parts = []
    for data in (shifted.data.real, shifted.data.imag):
        part = sp.csr_matrix(
            (data, shifted.indices, shifted.indptr), shape=shifted.shape, copy=True
        )
        part.eliminate_zeros()
        parts.append(part)
    real, imag = parts
    norm = np.bincount(shifted.indices, weights=np.abs(shifted.data), minlength=n)
    m, s = _taylor_degree(t * float(norm.max(initial=0.0)))

    def inf_norm(x):
        return float(np.abs(x).sum(axis=1).max(initial=0.0))

    def times_h(x):  # h_shifted @ x, each part on the float64 view of x
        view = x.view(np.float64)
        out = (real @ view).view(complex)
        if imag.nnz:
            out = out + 1j * (imag @ view).view(complex)
        return out

    f = np.array(columns, dtype=complex, order="C")
    b = f
    eta = np.exp(-1j * t * mu / s)
    for _ in range(s):
        c1 = inf_norm(b)
        for j in range(m):
            b = (-1j * t / (s * (j + 1))) * times_h(b)
            c2 = inf_norm(b)
            f = f + b
            if c1 + c2 <= _TOL * inf_norm(f):
                break
            c1 = c2
        f = eta * f
        b = f
    return f


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
    exact.  A single-block H is simply evolved in the full space.  Each
    block is evolved by _propagate, a truncated Taylor series in real
    arithmetic.
    """
    h = getattr(hamiltonian, "total", hamiltonian).tocsr()
    if t > MAX_LEAKAGE_TIME * (1 + 1e-12):
        raise ValueError("evolution time exceeds the supported window")
    a_states = _class_columns(space, (StateClass.A,))
    c_states = _class_columns(space, (StateClass.C,)).tocsr()
    if np.any(np.diff(a_states.indptr) != 1):
        raise RuntimeError("an A-class state is not a single basis vector")
    if c_states.shape[1] == 0:
        return 0.0  # below cutoff 2 no C-class state fits
    labels = fs.coupled_blocks(h)
    owner = labels[a_states.indices]  # one row per column, in column order
    mdiag = fs.metric_diagonal(space)
    worst = 0.0
    for block in np.unique(owner):
        idx = np.flatnonzero(labels == block)
        members = np.flatnonzero(owner == block)
        evolved = _propagate(h[idx][:, idx], a_states[idx][:, members].toarray(), t)
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

#: Slot order of the reduced space: d(+k), g(+k), d(-k), g(-k).
GHOST_SLOTS = ("d", "g", "d_prime", "g_prime")


def ghost_space(cutoff=3):
    """Truncated basis over (n_d, n_g, n_d', n_g'), dim (cutoff+1)^4."""
    if not 1 <= cutoff <= 7:
        raise ValueError("cutoff must be between 1 and 7")
    return fs._occupation_space(cutoff, 4)


def ghost_annihilator(gspace, slot):
    """Lowering operator for one of the four ghost slots (physical metric)."""
    if slot not in range(4):
        raise ValueError("slot must be 0..3 (d, g, d', g')")
    return fs._lowering(gspace, slot)


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
