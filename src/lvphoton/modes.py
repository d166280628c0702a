"""The term table of the mode Hamiltonian, its quadratic form, and exact `spectrum` rows.

One wavevector pair carries eight oscillators (scalar, two transverse,
longitudinal for each of +k and -k), labeled by the slots +k modes
0,1,2,3 then -k modes 0,1,2,3 (0 = scalar, 1,2 = transverse,
3 = longitudinal).  Every operator of the package is a sum of
coefficients times products of one or two ladder factors, and a
factor is a linear combination of ladder operators, written as
(coefficient, label, raising) triples (ladder).  This module writes
those term lists: the raw seven-line Hamiltonian from tensor
contractions (raw_terms), and the six grouped blocks and Xi, which
arrange the coefficients of dispersion.transverse_coefficients and the
ghost couplings of the frame bilinears (mode_terms).  It needs numpy alone;
fock_space.monomial_sum turns a term list into a sparse matrix on an
occupation space.

H and Xi are quadratic, so their commutators with the ladder
operators close on the ladder operators: quadratic_form gives that
action as a 2n x 2n matrix in the basis v = (a, a-dagger) (Bogoliubov
theory of a quadratic boson Hamiltonian; Colpa, Physica A 93 (1978)
327).  On the four transverse modes Xi is two independent two-mode
squeezes, so exp(Xi) acts on the ladder operators by a matrix B in
closed form: spectrum_values reads the `spectrum` values off the
transformed terms, and exact_couplings the current-coupling table off
the transformed potentials, with no Fock truncation.  spectrum_values
takes the transverse terms of h and of Xi from small literal cell
tables (_H_CELLS, _XI_CELLS), which the tests derive from mode_terms
and quadratic_form, so it evaluates stacked sets and frames in a few
array operations; spectrum_sweep evaluates one set at several
magnitudes, and loglog_slope fits the power law of a sweep.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import frame_bilinears, mixing_deltas, transverse_coefficients
from .kappa_tensor import METRIC, check_nonbiref, lowered

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
        """The mode's label: its position in the 8-mode ordering (+k:0..3, -k:4..7)."""
        return self.polarization + (0 if self.direction == PLUS_K else 4)


ALL_MODES = tuple(
    ModeId(d, p) for d in (PLUS_K, MINUS_K) for p in (0, 1, 2, 3)
)

#: Labels of the 8-mode space, one slot per column.
SLOTS = tuple(mode.slot for mode in ALL_MODES)

#: The transverse factor's column labels, its modes' 8-mode slots:
#: a1(+k), a2(+k), a1(-k), a2(-k).
TRANSVERSE_SLOTS = tuple(ModeId(d, r).slot for d in (PLUS_K, MINUS_K) for r in (1, 2))


def ladder(label, coef=1.0, raising=False):
    """One ladder operator as a factor for monomial_sum: coef a or coef a-dagger.

    A factor is a tuple of (coefficient, label, raising) triples read as
    the linear combination of their operators, so factors are summed by
    concatenating them and scaled by scaling their coefficients.  The
    raising operator is the plain dagger of the truncated lowering
    operator: it has no entry out of the top occupation.
    """
    return ((coef, label, raising),)


_R2 = 1.0 / math.sqrt(2.0)

#: The d and g ghost modes of one direction, as the coefficients of its
#: scalar (0) and longitudinal (3) lowering operators:
#: a_d = (i/sqrt(2)) (a_3 - a_0), a_g = (1/sqrt(2)) (a_3 + a_0).
DG_D = {3: 1j * _R2, 0: -1j * _R2}
DG_G = {3: _R2, 0: _R2}


def dg_factors(direction):
    """a_d, a_g and their bar-adjoints for one direction, as ladder factors.

    The combinations DG_D, DG_G of the direction's scalar and
    longitudinal lowering operators, for monomial_sum.  The bar-adjoint
    of c a_p is conj(c) zeta_p a_p-dagger, which gives
    bar(a_d) = -i a_g-dagger and bar(a_g) = +i a_d-dagger.
    Returns (a_d, a_g, bar(a_d), bar(a_g)).
    """
    slots = {p: ModeId(direction, p).slot for p in (0, 3)}
    modes = (DG_D, DG_G)
    lower = [tuple((c, slots[p], False) for p, c in m.items()) for m in modes]
    bars = [tuple((c.conjugate() * ZETA[p], slots[p], True) for p, c in m.items()) for m in modes]
    return (*lower, *bars)


def _mode_factors():
    """S_r = a_r(+k), T_r = a_r(-k) and their bar-adjoints as 8-mode ladder factors.

    The bar-adjoint of a_r is zeta_r a_r-dagger: M flips the sign of the
    scalar raisers, and leaves the others alone.
    """
    S, T, Sb, Tb = {}, {}, {}, {}
    for r in range(4):
        plus, minus = ModeId(PLUS_K, r).slot, ModeId(MINUS_K, r).slot
        S[r], T[r] = ladder(plus), ladder(minus)
        Sb[r] = ladder(plus, ZETA[r], raising=True)
        Tb[r] = ladder(minus, ZETA[r], raising=True)
    return S, T, Sb, Tb


def _combine(*pairs):
    """The ladder factor sum_k c_k F_k of (c_k, F_k) pairs."""
    return tuple(
        (c * c_op, label, raising) for c, factor in pairs for c_op, label, raising in factor
    )


def coefficient_matrices(kf, frame):
    """The three 4x4 coefficient matrices of the raw assembly.

    With the lowered tensor K, the frame embedding rows eps_r, and the
    spatial unit four-vector n = (0, khat):

        A_rs = eps_r^k eps_s^m K_{kpmq} n^p n^q
        B_rs = eps_r^k eps_s^m K_{k0m0}
        C_rs = eps_r^k eps_s^m K_{m0kp} n^p
    """
    K_low = lowered(kf)
    E4 = np.zeros((4, 4))  # rows eps_r^mu: scalar (+1, 0, 0, 0), then the frame
    E4[0, 0] = 1.0
    E4[1:, 1:] = (frame.eps1, frame.eps2, frame.khat)
    n4 = np.concatenate(([0.0], frame.khat))
    A = np.einsum("rk,sm,kpmq,p,q->rs", E4, E4, K_low, n4, n4)
    B = np.einsum("rk,sm,km->rs", E4, E4, K_low[:, 0, :, 0])
    C = np.einsum("rk,sm,mkp,p->rs", E4, E4, K_low[:, 0, :, :], n4)
    return A, B, C


def raw_terms(kf, frame):
    """The raw seven-line Hamiltonian's terms, from direct tensor contractions.

    Line 1 is the covariant part -eta_rr (a_r abar_r + abar'_r a'_r)
    (primes marking the -k direction); the six perturbation lines carry
    the A, B, C contractions in the combinations (A+B-C), (A+B+C),
    (A-B+C), (A-B-C), -C, -C against the operator strings a abar,
    abar' a', a a', abar' abar, and the two index-swapped -C strings.
    The tensor is taken as it is; hamiltonian.build_raw refuses
    birefringent ones before it sums these.
    """
    A, B, C = coefficient_matrices(kf, frame)
    S, T, Sb, Tb = _mode_factors()
    terms = []
    for r in range(4):
        terms += [(-METRIC[r, r], S[r], Sb[r]), (-METRIC[r, r], Tb[r], T[r])]
    for r in range(4):
        for s in range(4):
            terms += [
                ((A + B - C)[r, s], S[r], Sb[s]),
                ((A + B + C)[r, s], Tb[r], T[s]),
                ((A - B + C)[r, s], S[r], T[s]),
                ((A - B - C)[r, s], Tb[r], Sb[s]),
                (-C[r, s], S[s], Sb[r]),
                (C[r, s], Tb[s], T[r]),
                (-C[r, s], S[s], T[r]),
                (C[r, s], Tb[s], Sb[r]),
            ]
    return terms


def mode_terms(kappas, frame):
    """The grouped monomials of the six blocks of H and of Xi, on the 8-mode slots.

    A dict from each block name, and "xi", to that operator's (coef,
    factor, factor) terms; hamiltonian.build_grouped and xi_generators
    sum them.  One frame_bilinears call gives E and O: the coefficients
    of h_t, h_pm_t and xi are their dispersion.transverse_coefficients,
    and the ghost couplings of h_lslv, h_p_tls and h_m_tls are formed
    here from E13, E23, E33, O31 and O32.  Every block, each summed
    on its own, is self-adjoint under the bar-adjoint.  At kappa = 0
    all blocks except h_t and h_ls0 vanish.

    h_t: transverse occupations scaled by the direction-dependent phase
    velocities 1 + delta(+-k).  h_pm_t: transverse +k/-k cross terms.
    h_ls0: the covariant scalar/longitudinal part.  h_lslv: its
    ghost-sector (d/g mode) Lorentz-violating counterpart.  h_p_tls and
    h_m_tls: couplings of +k and -k transverse modes to the ghost
    sector.  xi: the generator of hamiltonian.xi_generators.
    """
    check_nonbiref(kappas)
    E, O = frame_bilinears(kappas, frame)
    delta_plus, delta_minus, d, e12, q1, q2 = transverse_coefficients(E, O)
    S, T, Sb, Tb = _mode_factors()
    terms = {}
    terms["h_t"] = [
        (1 + delta_plus, S[1], Sb[1]), (1 + delta_plus, S[2], Sb[2]),
        (1 + delta_minus, Tb[1], T[1]), (1 + delta_minus, Tb[2], T[2]),
    ]
    terms["h_pm_t"] = [
        (d, S[1], T[1]), (d, Tb[1], Sb[1]), (-d, S[2], T[2]), (-d, Tb[2], Sb[2]),
        (e12, S[1], T[2]), (e12, Tb[2], Sb[1]),
        (e12, S[2], T[1]), (e12, Tb[1], Sb[2]),
    ]

    terms["h_ls0"] = [(1, S[3], Sb[3]), (1, Tb[3], T[3]), (-1, S[0], Sb[0]), (-1, Tb[0], T[0])]

    # The d/g operators a_g(+k), a_d(-k) and their bar-adjoints.
    _, a_g, _, a_gb = dg_factors(PLUS_K)
    a_dm, _, a_dmb, _ = dg_factors(MINUS_K)

    e33 = E[3, 3]
    terms["h_lslv"] = [
        (-e33, a_g, a_gb), (-e33, a_dmb, a_dm),
        (-1j * e33, a_g, a_dm), (1j * e33, a_dmb, a_gb),
    ]

    # Ghost-sector factors shared by both transverse-to-ghost blocks.
    fac_ann = _combine((1, a_gb), (1j, a_dm))  # [abar_g(+k) + i a_d(-k)]
    fac_cre = _combine((1, a_g), (-1j, a_dmb))  # [a_g(+k) - i abar_d(-k)]

    r2 = 1.0 / np.sqrt(2.0)
    c1p = (-r2) * (E[1, 3] - O[3, 2])
    c2p = (-r2) * (E[2, 3] + O[3, 1])
    terms["h_p_tls"] = [
        (c1p, S[1], fac_ann), (c1p, fac_cre, Sb[1]),
        (c2p, S[2], fac_ann), (c2p, fac_cre, Sb[2]),
    ]

    c1m = r2 * (E[1, 3] + O[3, 2])
    c2m = r2 * (E[2, 3] - O[3, 1])
    terms["h_m_tls"] = [
        (c1m, fac_cre, T[1]), (c1m, Tb[1], fac_ann),
        (c2m, fac_cre, T[2]), (c2m, Tb[2], fac_ann),
    ]

    terms["xi"] = [
        (q1, Sb[1], Tb[1]), (-q1, T[1], S[1]), (-q1, Sb[2], Tb[2]), (q1, T[2], S[2]),
        (q2, Sb[1], Tb[2]), (-q2, S[1], T[2]), (q2, Sb[2], Tb[1]), (-q2, S[2], T[1]),
    ]
    return terms


def factor_vector(factor, labels):
    """A ladder factor as its coefficient vector f in the basis v = (a, a-dagger).

    The factor is sum_i f_i v_i over the modes `labels`: entry i holds
    the lowering operator of labels[i], entry n + i its raising
    operator.  A label outside `labels` raises ValueError.
    """
    labels = tuple(labels)
    n = len(labels)
    vector = np.zeros(2 * n, dtype=complex)
    for coef, label, raising in factor:
        if label not in labels:
            raise ValueError(f"the modes have no label {label!r}")
        vector[labels.index(label) + n * raising] += coef
    return vector


def _commutators(n):
    """J_ij = [v_i, v_j] for v = (a, a-dagger) of n modes, from [a_i, a_j-dagger] = delta_ij."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def quadratic_form(terms, labels):
    """The matrix A of the action of a term list H on the ladder operators.

    [H, v_j] = sum_i A_ij v_i in the basis v = (a, a-dagger) of the
    modes `labels` (see factor_vector), from [a_i, a_j-dagger] =
    delta_ij; the metric signs are already in the factors' coefficients
    (ZETA).  For a term c F G with F = f.v and G = g.v,
    [F G, v_j] = F [G, v_j] + [F, v_j] G, and [F, v_j] = (f J)_j with
    J = [v_i, v_j], so the term adds c (f (g J)_j + g (f J)_j) to
    column j.  A one-factor term c F commutes each v_j to the multiple
    c (f J)_j of the identity, which is not in the span of v; A leaves
    it out.  Returns a complex (2n, 2n) array.

    exp(X) v_j exp(-X) = sum_i expm(A_X)_ij v_i, so conjugation by
    exp(X) maps a factor f.v to (expm(A_X) f).v.
    """
    labels = tuple(labels)
    j = _commutators(len(labels))
    form = np.zeros(j.shape, dtype=complex)
    for coef, *factors in terms:
        if len(factors) == 2:
            f, g = (factor_vector(factor, labels) for factor in factors)
            form += coef * (np.outer(f, g @ j) + np.outer(g, f @ j))
    return form


#: The terms c F G of h_t + h_pm_t as cells of W = sum c f g^T, with f and
#: g the factors' vectors on v = (a, a-dagger) over TRANSVERSE_SLOTS:
#: (row of F, column of G, which coefficient, sign), in mode_terms' order.
#: The coefficients are (1 + delta(+k), 1 + delta(-k), d, E12).
_H_CELLS = (
    (0, 4, 0, 1), (1, 5, 0, 1), (6, 2, 1, 1), (7, 3, 1, 1),  # h_t
    (0, 2, 2, 1), (6, 4, 2, 1), (1, 3, 2, -1), (7, 5, 2, -1),  # h_pm_t
    (0, 3, 3, 1), (7, 4, 3, 1), (1, 2, 3, 1), (6, 5, 3, 1),
)

#: The cells of A_Xi = delta1 X1 + delta2 X2, the quadratic_form of
#: mode_terms' xi on TRANSVERSE_SLOTS: (row, column, which of (delta1,
#: delta2), sign).  X1 joins each a to the opposite direction's
#: a-dagger of the same polarization, X2 to that of the other one.
_XI_CELLS = (
    (0, 6, 0, -1), (1, 7, 0, 1), (2, 4, 0, -1), (3, 5, 0, 1),
    (4, 2, 0, -1), (5, 3, 0, 1), (6, 0, 0, -1), (7, 1, 0, 1),
    (0, 7, 1, -1), (1, 6, 1, -1), (2, 5, 1, -1), (3, 4, 1, -1),
    (4, 3, 1, -1), (5, 2, 1, -1), (6, 1, 1, -1), (7, 0, 1, -1),
)


def _scatter(cells, coefs):
    """The 8 x 8 form with coefs[..., which] * sign in each (row, column, which, sign) cell.

    coefs has shape lead + (k,), and the form lead + (8, 8); every cell
    not listed is zero.
    """
    rows, cols, which, signs = zip(*cells)
    form = np.zeros(coefs.shape[:-1] + (8, 8))
    form[..., rows, cols] = coefs[..., which] * signs
    return form


def _squeeze(delta1, delta2):
    """(cosh r, sinh r / r) of r = sqrt(delta1^2 + delta2^2), with sinh r / r = 1 at r = 0.

    A_Xi squared is r^2 I, so expm(A_Xi) = cosh r I + (sinh r / r) A_Xi.
    """
    r = np.sqrt(delta1 * delta1 + delta2 * delta2)
    return np.cosh(r), np.divide(np.sinh(r), r, out=np.ones_like(r), where=r > 0.0)


def exact_couplings(kappas, frame):
    """The exact current-coupling table exp(-D) = cosh r I - (sinh r / r) D.

    The potential A_r = (a_r(+k) + abar_r(-k)) / sqrt(2) is a factor
    f_r, and exp(Xi) A_r exp(-Xi) is the factor B f_r (B =
    expm(A_Xi) of spectrum_values), which stays in the span of f_1 and
    f_2 with the coefficients of exp(-D), D = [[delta1, delta2], [delta2,
    -delta1]] (dispersion.mixing_deltas) and r^2 = delta1^2 + delta2^2.
    Row r holds the coefficients of the transformed polarization-r
    potential, [j1_pol1, j2_pol1] and [j1_pol2, j2_pol2] as in
    interaction.CouplingTable; to first order in kappa this is that
    module's vint_coefficients table, and at r = 0 it is exactly I.
    The diagonal differs by -2 (sinh r / r) delta1.  Leading axes as in
    mixing_deltas; returns an array of shape lead + (2, 2).
    """
    delta1, delta2 = mixing_deltas(kappas, frame)
    c, s = _squeeze(delta1, delta2)
    rows = ((c - s * delta1, -s * delta2), (-s * delta2, c + s * delta1))
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def spectrum_values(kappas, frame):
    """The `spectrum` values, without the scale, exactly: no Fock truncation.

    The values are matrix elements of exp(Xi) H exp(-Xi) among the
    vacuum, the four transverse one-photon states and the +-k pair
    a1(+k)-dagger a1(-k)-dagger |0>.  On those states H is h_t + h_pm_t
    plus a constant ghost-vacuum energy (h_p_tls and h_m_tls move a
    ghost quantum, and h_ls0 + h_lslv is constant on the ghost vacuum),
    and the constant cancels in every value.  With v = (a, a-dagger)
    over TRANSVERSE_SLOTS, each term c F G is c (f.v) (g.v), and
    W = sum c f g^T; exp(Xi) maps f to B f with B = expm(A_Xi) =
    cosh r I + (sinh r / r) A_Xi (Colpa, Physica A 93 (1978) 327), so
    the transformed terms have W' = B W B^T.  From [a_i, a_j-dagger] =
    delta_ij, with S = W' + W'^T,

        gap of mode j    S[j, n + j]
        pair <- vacuum   S[n + i, n + j]

    gap_plus and gap_minus are the larger |gap| of each direction's two
    polarizations, cross_after is |pair <- vacuum| after the transform
    and cross_before the same with B = I, and each direction's gap is
    compared with its bare coefficient 1 + delta(+-k) (delta_nonbiref).

    W and A_Xi come from the literal cell tables _H_CELLS and
    _XI_CELLS, filled with the entries of dispersion.transverse_coefficients,
    so the whole evaluation is a few array operations.
    Leading axes as in frame_bilinears: stacked sets, stacked frames or
    both, and each value has their broadcast shape; each (set, frame)
    gets the bits it gets on its own.  One set and one frame give
    floats.
    """
    check_nonbiref(kappas)
    E, O = frame_bilinears(kappas, frame)
    delta_plus, delta_minus, d, e12, delta1, delta2 = transverse_coefficients(E, O)
    h = np.stack((1 + delta_plus, 1 + delta_minus, d, e12), axis=-1)
    w = _scatter(_H_CELLS, h)
    a_xi = _scatter(_XI_CELLS, np.stack((delta1, delta2), axis=-1))
    c, s = _squeeze(delta1, delta2)
    b = c[..., None, None] * np.eye(8) + s[..., None, None] * a_xi
    before = w + w.mT
    after = b @ before @ b.mT
    gaps = after[..., (0, 1, 2, 3), (4, 5, 6, 7)]
    values = {}
    # TRANSVERSE_SLOTS holds the two +k modes, then the two -k modes
    for name, gap, bare in (("plus", gaps[..., :2], h[..., 0]), ("minus", gaps[..., 2:], h[..., 1])):
        gap = np.max(np.abs(gap), axis=-1)
        values[f"gap_{name}"] = gap
        values[f"delta_{name}"] = bare - 1.0
        values[f"gap_residual_{name}"] = np.abs(gap - bare)
    # the pair a1(+k)-dagger a1(-k)-dagger: raising slots n + 0 and n + 2
    values["cross_before"] = np.abs(before[..., 4, 6])
    values["cross_after"] = np.abs(after[..., 4, 6])
    if h.ndim == 1:
        return {key: float(value) for key, value in values.items()}
    return values


def spectrum_sweep(kappas, frame, scales):
    """The `spectrum` rows by column: scale, then spectrum_values of the set at that magnitude.

    The rescaled sets are one stacked KappaSet and go through one
    spectrum_values call; the set's own magnitude keeps its bits (the
    factor is exactly 1).  An all-zero set has no shape to rescale, so
    it is refused unless every scale is 0.
    """
    scales = np.asarray(scales, dtype=float)
    magnitude = kappas.magnitude
    if magnitude == 0.0 and np.any(scales != 0.0):
        raise ValueError("cannot sweep scales of an all-zero parameter set")
    factors = scales / magnitude if magnitude else np.ones_like(scales)
    return {"scale": scales, **spectrum_values(kappas.scaled(factors), frame)}


def loglog_slope(x, y):
    """The slope of the least-squares line through the points (log10 x, log10 y).

    None where no line is fitted: fewer than two points, or a value that
    is not positive (nan included).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(x) < 2 or not (np.all(x > 0.0) and np.all(y > 0.0)):
        return None
    slope, _ = np.polyfit(np.log10(x), np.log10(y), 1)
    return float(slope)
