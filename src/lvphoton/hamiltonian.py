"""Free-field mode Hamiltonian for one +-k pair and its block structure.

Two equivalent assemblies of the same operator are provided.  build_raw
contracts the rank-4 tensor directly against the polarization embedding
(one covariant line plus six perturbation lines, summed over all four
polarizations of both directions).  build_grouped sums, in one call,
the terms of six named blocks written in terms of the kappa bilinears:
the transverse diagonal part, the transverse +-k cross terms, the
covariant scalar/longitudinal part, its Lorentz-violating ghost-sector
counterpart, and the two transverse-to-ghost couplings.  Their
elementwise equality is the central cross-check of this module and is
enforced in the test suite.

Every one of these operators is a sum of coefficients times products
of two ladder operators (or fixed combinations of them, such as the
d/g ghost modes), so all of them are assembled by one function,
fock_space.monomial_sum, from lists of (coefficient, factor, factor)
terms on the eight mode slots.  mode_terms writes the grouped lists,
the six blocks' and Xi's, in one place; build_grouped and
xi_generators sum them on the 8-mode space.  For states with empty
scalar and longitudinal modes, build_transverse gives the same H and
Xi on the four transverse modes alone: the factor's columns are
labeled by their slots (TRANSVERSE_SLOTS), so monomial_sum builds the
same h_t, h_pm_t and Xi terms there, and spectrum_row turns them into
one row of the `spectrum` report.  What keeps the
raw/grouped comparison meaningful is that the two coefficient sets
stay independent: build_raw writes its own terms, with coefficients
from the tensor contractions of coefficient_matrices, and mode_terms
takes its coefficients from dispersion.frame_bilinears.

All energies are in units of omega_k (hbar = omega_k = 1).  Both
directions' mode operators are labeled against the +k frame vectors
throughout (the -k frame enters only through the direction-reversed
phase-velocity shift); this labeling is pinned by the raw/grouped
equivalence.  The scalar polarization row of the embedding is
(+1, 0, 0, 0), likewise pinned by that equivalence.

Expectation values in these matrices must be taken with the indefinite
product (fock_space.indefinite_inner); H is self-adjoint under the
bar-adjoint but is not a hermitian matrix, so naive eigenvector
machinery does not apply.  The conjugation exp(Xi) H exp(-Xi) is taken
only between the states asked about: transformed_matrices evolves them
once by exp(-Xi) with fock_space.propagate_blocks, the block-restricted
propagator of the leakage check, and takes each operator only on the
support of the evolved states, weighted by the space's own metric.
Over all basis columns this is the full conjugation, with no dense
exponential and no dimension cap.
"""

import numpy as np
import scipy.sparse as sp

from . import fock_space as fs
from .dispersion import delta_nonbiref, frame_bilinears, mixing_deltas
from .kappa_tensor import METRIC, check_nonbiref, kappas_from_kf, lowered


def _mode_factors():
    """S_r = a_r(+k), T_r = a_r(-k) and their bar-adjoints as 8-mode ladder factors.

    The bar-adjoint of a_r is zeta_r a_r-dagger: M flips the sign of the
    scalar raisers, and leaves the others alone.
    """
    S, T, Sb, Tb = {}, {}, {}, {}
    for r in range(4):
        plus, minus = fs.ModeId(fs.PLUS_K, r).slot, fs.ModeId(fs.MINUS_K, r).slot
        S[r], T[r] = fs.ladder(plus), fs.ladder(minus)
        Sb[r] = fs.ladder(plus, fs.ZETA[r], raising=True)
        Tb[r] = fs.ladder(minus, fs.ZETA[r], raising=True)
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


def build_raw(space, kf, frame):
    """The raw seven-line Hamiltonian from direct tensor contractions.

    Line 1 is the covariant part -eta_rr (a_r abar_r + abar'_r a'_r)
    (primes marking the -k direction); the six perturbation lines carry
    the A, B, C contractions in the combinations (A+B-C), (A+B+C),
    (A-B+C), (A-B-C), -C, -C against the operator strings a abar,
    abar' a', a a', abar' abar, and the two index-swapped -C strings.
    Rejects tensors with birefringent content (the closed-form grouping
    this is checked against assumes none).
    """
    kappas = kappas_from_kf(kf)
    check_nonbiref(kappas)
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
    return fs.monomial_sum(space, terms)


def mode_terms(kappas, frame):
    """The grouped monomials of the six blocks of H and of Xi, on the 8-mode slots.

    A dict from each block name, and "xi", to that operator's (coef,
    factor, factor) terms, coefficients from the frame bilinears;
    build_grouped, xi_generators and build_transverse read them here.
    Every block, each summed on its own, is self-adjoint under the
    bar-adjoint.  At kappa = 0 all blocks except h_t and h_ls0 vanish.

    h_t: transverse occupations scaled by the direction-dependent phase
    velocities 1 + delta(+-k).  h_pm_t: transverse +k/-k cross terms.
    h_ls0: the covariant scalar/longitudinal part.  h_lslv: its
    ghost-sector (d/g mode) Lorentz-violating counterpart.  h_p_tls and
    h_m_tls: couplings of +k and -k transverse modes to the ghost
    sector.  xi: the generator of xi_generators.
    """
    check_nonbiref(kappas)
    E, O = frame_bilinears(kappas, frame)
    S, T, Sb, Tb = _mode_factors()
    terms = {}
    # delta_nonbiref at +-k: only eps2 of eps1, eps2 flips with k, so only O12
    delta_plus = O[1, 2] - 0.5 * (E[1, 1] + E[2, 2])
    delta_minus = -O[1, 2] - 0.5 * (E[1, 1] + E[2, 2])
    terms["h_t"] = [
        (1 + delta_plus, S[1], Sb[1]), (1 + delta_plus, S[2], Sb[2]),
        (1 + delta_minus, Tb[1], T[1]), (1 + delta_minus, Tb[2], T[2]),
    ]
    d = 0.5 * (E[1, 1] - E[2, 2])
    terms["h_pm_t"] = [
        (d, S[1], T[1]), (d, Tb[1], Sb[1]), (-d, S[2], T[2]), (-d, Tb[2], Sb[2]),
        (E[1, 2], S[1], T[2]), (E[1, 2], Tb[2], Sb[1]),
        (E[1, 2], S[2], T[1]), (E[1, 2], Tb[1], Sb[2]),
    ]

    terms["h_ls0"] = [(1, S[3], Sb[3]), (1, Tb[3], T[3]), (-1, S[0], Sb[0]), (-1, Tb[0], T[0])]

    # The d/g operators a_g(+k), a_d(-k) and their bar-adjoints.
    _, a_g, _, a_gb = fs.dg_factors(fs.PLUS_K)
    a_dm, _, a_dmb, _ = fs.dg_factors(fs.MINUS_K)

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

    q1, q2 = mixing_deltas(kappas, frame)
    terms["xi"] = [
        (q1, Sb[1], Tb[1]), (-q1, T[1], S[1]), (-q1, Sb[2], Tb[2]), (q1, T[2], S[2]),
        (q2, Sb[1], Tb[2]), (-q2, S[1], T[2]), (q2, Sb[2], Tb[1]), (-q2, S[2], T[1]),
    ]
    return terms


def xi_generators(space, kappas, frame):
    """The anti-self-adjoint generator Xi1 + Xi2 of the transverse diagonalization.

    Xi1 carries the frame-diagonal difference of the parity-even
    bilinear, Xi2 the off-diagonal element:

        Xi1 = (1/4)(E11 - E22) (abar1 abar1' - a1' a1 - abar2 abar2' + a2' a2)
        Xi2 = (1/2) E12 (abar1 abar2' - a1 a2' + abar2 abar1' - a2 a1')

    with E_rs the (e_minus + I tr) bilinear and primes marking -k modes.
    bar(Xi) = -Xi, so exp(Xi) preserves the indefinite product.
    """
    return fs.monomial_sum(space, mode_terms(kappas, frame)["xi"])


def build_grouped(space, kappas, frame):
    """H as one CSR matrix: the terms of the six blocks of mode_terms in one sum."""
    blocks = mode_terms(kappas, frame)
    del blocks["xi"]
    return fs.monomial_sum(space, [term for terms in blocks.values() for term in terms])


#: The transverse factor's column labels, its modes' 8-mode slots:
#: a1(+k), a2(+k), a1(-k), a2(-k).
TRANSVERSE_SLOTS = tuple(fs.ModeId(d, r).slot for d in (fs.PLUS_K, fs.MINUS_K) for r in (1, 2))

#: <ghost vacuum| h_ls0 + h_lslv |ghost vacuum>.  The +k terms of h_ls0,
#: a_r bar(a_r), give zeta_r on the vacuum since [a_r, bar(a_r)] = zeta_r,
#: and its -k terms are normal ordered.  Every h_lslv term annihilates
#: the ghost vacuum or changes its occupations (a_g commutes with the
#: physical dagger of a_d), so h_lslv adds nothing.
_GHOST_VACUUM_ENERGY = fs.ZETA[3] - fs.ZETA[0]


def transverse_space(cutoff):
    """The 4-mode occupation space labeled by TRANSVERSE_SLOTS, dim (cutoff+1)^4."""
    cutoff = fs.checked_cutoff(cutoff, "transverse cutoff must be an integer of at least 1")
    return fs._occupation_space(cutoff, TRANSVERSE_SLOTS)


def check_transverse(space):
    """Reject a space that is not a transverse_space."""
    if space.labels != TRANSVERSE_SLOTS:
        raise ValueError(f"expected the 4-mode transverse factor, not modes {space.labels}")


def build_transverse(space, kappas, frame):
    """H and Xi on the transverse factor, for states with empty ghost modes.

    Xi, h_t and h_pm_t act only on the transverse modes.  Between
    states whose scalar and longitudinal modes are empty, h_p_tls and
    h_m_tls vanish (each term moves one ghost quantum) and h_ls0 +
    h_lslv is the constant _GHOST_VACUUM_ENERGY.  On those states the
    8-mode H and Xi are therefore the ghost vacuum times the returned
    h = h_t + h_pm_t + c I and xi, with the same entries: both are the
    same mode_terms summed on the factor.  `space` is a
    transverse_space; returns (h, xi).
    """
    check_transverse(space)
    terms = mode_terms(kappas, frame)
    h = fs.monomial_sum(space, terms["h_t"] + terms["h_pm_t"])
    h = h + _GHOST_VACUUM_ENERGY * sp.identity(space.dim, format="csr")
    return h.tocsr(), fs.monomial_sum(space, terms["xi"])


def _evolved(xi, states, dim):
    """(support, Phi): the columns of Phi are exp(-xi) states on `support`.

    `states` is a sequence of state vectors, or a sparse matrix with one
    state per column; they are stacked as sparse columns and evolved
    with fs.propagate_blocks, as exp(-i t b) at t = 1 with b = -i xi,
    on the coupled blocks of xi that hold them.  Every evolved state
    vanishes outside the union of those blocks, `support`, so Phi holds
    only those rows.
    """
    if sp.issparse(states):
        columns = sp.csc_matrix(states, dtype=complex)
    else:
        columns = sp.csc_matrix(np.array(states, dtype=complex).T)
    if columns.shape[0] != dim:
        raise ValueError("state dimension does not match the space")
    evolved = list(fs.propagate_blocks(-1j * sp.csr_matrix(xi), columns, 1.0))
    support = np.sort(np.concatenate([np.zeros(0, dtype=int)] + [r for r, _, _ in evolved]))
    phi = np.zeros((support.size, columns.shape[1]), dtype=complex)
    for rows, ids, values in evolved:
        phi[np.ix_(np.searchsorted(support, rows), ids)] = values
    return support, phi


def transformed_matrices(space, operators, xi, states):
    """G[a, b] = <a| M exp(xi) H exp(-xi) |b> over a list of states, for each H.

    The states may also be given as a sparse matrix, one per column;
    over every basis column, M G is exp(xi) H exp(-xi) itself.  M is
    the space's metric (+1 on the transverse factor).

    Because xi is metric-anti-self-adjoint, <a| M exp(xi) is the
    M-weighted bra of exp(-xi)|a>, so G = Phi^dagger M H Phi with the
    columns of Phi the states evolved by exp(-xi).  The states are
    evolved once, on the coupled blocks of xi that hold them, so this
    works at any cutoff; each H (a sparse or dense matrix) is taken only
    on the support of the evolved states.  Returns one G per operator,
    as a tuple.
    """
    support, phi = _evolved(xi, states, space.dim)
    weighted = fs.metric_diagonal(space)[support][:, None]
    return tuple(
        phi.conj().T @ (weighted * (sp.csr_matrix(h)[support][:, support] @ phi))
        for h in operators
    )


def _photon_index(space, *modes):
    """Index of the state with one quantum in each listed mode."""
    occ = [0] * space.modes
    for mode in modes:
        occ[space.position(mode.slot)] += 1
    return space.index_of(occ)


def _transverse_values(space, frame, kappas):
    """Transformed gaps and the pair-vacuum cross terms on one transverse factor."""
    h, xi = build_transverse(space, kappas, frame)
    pair = _photon_index(space, fs.ModeId(fs.PLUS_K, 1), fs.ModeId(fs.MINUS_K, 1))
    # vacuum, the four transverse one-photon states (+k then -k), the pair
    indices = [_photon_index(space)]
    for direction in (fs.PLUS_K, fs.MINUS_K):
        indices += [_photon_index(space, fs.ModeId(direction, pol)) for pol in (1, 2)]
    indices.append(pair)
    states = np.zeros((len(indices), space.dim), dtype=complex)
    states[np.arange(len(indices)), indices] = 1.0
    (g,) = transformed_matrices(space, [h], xi, states)
    energies = g.diagonal().real
    values = {}
    for name, first in (("plus", 1), ("minus", 3)):
        gap = 0.0
        for energy in energies[first : first + 2]:
            gap = max(gap, float(abs(energy - energies[0])))
        values[f"gap_{name}"] = gap
    # h_pm_t is the only part of h that joins the pair to the vacuum
    values["cross_before"] = float(abs(h[pair, indices[0]]))
    values["cross_after"] = float(abs(g[-1, 0]))
    return values


def spectrum_row(spaces, frame, kappas, scale_label):
    """One `spectrum` row on the transverse factors `spaces` at cutoffs c and c + 1.

    The row's values come from cutoff c; truncation_shift is how far the
    gaps and the transformed cross term move at c + 1.
    """
    values = _transverse_values(spaces[0], frame, kappas)
    deeper = _transverse_values(spaces[1], frame, kappas)
    row = {"scale": scale_label}
    for name, khat in (("plus", frame.khat), ("minus", -frame.khat)):
        want = 1.0 + delta_nonbiref(kappas, khat)
        row[f"gap_{name}"] = values[f"gap_{name}"]
        row[f"delta_{name}"] = want - 1.0
        row[f"gap_residual_{name}"] = abs(values[f"gap_{name}"] - want)
    row["cross_before"] = values["cross_before"]
    row["cross_after"] = values["cross_after"]
    row["truncation_shift"] = max(
        abs(deeper[key] - values[key]) for key in ("gap_plus", "gap_minus", "cross_after")
    )
    return row


def transformed_expectation(space, h, xi, psi):
    """Indefinite expectation of exp(xi) H exp(-xi) in the state psi."""
    return complex(transformed_matrices(space, [h], xi, [psi])[0][0, 0])


def transformed_element(space, h, xi, bra, ket):
    """Matrix element <bra| M exp(xi) H exp(-xi) |ket> at any cutoff."""
    return complex(transformed_matrices(space, [h], xi, [bra, ket])[0][0, 1])


def momentum_operator(space, kvec):
    """The three conserved momentum components (units hbar = 1).

    P^j = k^j (sum of +k occupations minus sum of -k occupations), a
    diagonal operator that carries no anisotropy parameter.
    """
    kvec = np.asarray(kvec, dtype=float)
    if kvec.shape != (3,):
        raise ValueError("kvec must be a 3-vector")
    occ = space.occupations
    plus, minus = (fs.held_columns(space, fs.ALL_MODES[i : i + 4]) for i in (0, 4))  # +k, -k
    diff = (occ[:, plus].sum(axis=1) - occ[:, minus].sum(axis=1)).astype(complex)
    return [sp.diags(kvec[j] * diff, format="csr") for j in range(3)]
