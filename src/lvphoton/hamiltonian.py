"""Free-field mode Hamiltonian for one +-k pair and its block structure.

Two equivalent assemblies of the same operator are provided.  build_raw
contracts the rank-4 tensor directly against the polarization embedding
(one covariant line plus six perturbation lines, summed over all four
polarizations of both directions).  build_grouped assembles the six
named blocks written in terms of the kappa bilinears: the transverse
diagonal part, the transverse +-k cross terms, the covariant
scalar/longitudinal part, its Lorentz-violating ghost-sector
counterpart, and the two transverse-to-ghost couplings.  Their
elementwise equality is the central cross-check of this module and is
enforced in the test suite.  For states with empty scalar and
longitudinal modes, build_transverse gives the same H and Xi on the
four transverse modes alone, from the same h_t, h_pm_t and Xi
expressions.

Every one of these operators is a sum of coefficients times products
of two ladder operators (or fixed combinations of them, such as the
d/g ghost modes), so all of them are assembled by one function,
fock_space.monomial_sum, from lists of (coefficient, factor, factor)
terms.  What keeps the raw/grouped comparison meaningful is that the
two coefficient sets stay independent: build_raw takes its
coefficients from the tensor contractions of coefficient_matrices,
build_grouped from the kappa bilinears of kappa_bilinears.

All energies are in units of omega_k (hbar = omega_k = 1).  Both
directions' mode operators are labeled against the +k frame vectors
throughout (the -k frame enters only through the direction-reversed
phase-velocity shift); this labeling is pinned by the raw/grouped
equivalence.  The scalar polarization row of the embedding is
(+1, 0, 0, 0), likewise pinned by that equivalence.

Expectation values in these matrices must be taken with the indefinite
product (fock_space.indefinite_inner); H is self-adjoint under the
bar-adjoint but is not a hermitian matrix, so naive eigenvector
machinery does not apply.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from . import fock_space as fs
from .dispersion import delta_nonbiref
from .kappa_tensor import (
    _FLIP4,
    METRIC,
    as_kf_components,
    check_nonbiref,
    kappas_from_kf,
)

#: Largest dimension for which dense exponential conjugation is attempted.
_DENSE_EXPM_LIMIT = 4096


@dataclass(frozen=True)
class HamiltonianBundle:
    """The six named blocks of the free Hamiltonian plus the Xi generator.

    Every block is self-adjoint under the bar-adjoint; xi is
    anti-self-adjoint (bar(xi) = -xi), so exp(xi) is metric-unitary.
    At kappa = 0 all blocks except h_t and h_ls0 vanish.
    """

    h_t: sp.spmatrix
    h_pm_t: sp.spmatrix
    h_ls0: sp.spmatrix
    h_lslv: sp.spmatrix
    h_p_tls: sp.spmatrix
    h_m_tls: sp.spmatrix
    xi: sp.spmatrix

    @property
    def blocks(self):
        return (self.h_t, self.h_pm_t, self.h_ls0, self.h_lslv, self.h_p_tls, self.h_m_tls)

    @property
    def total(self):
        out = self.blocks[0]
        for block in self.blocks[1:]:
            out = out + block
        return out.tocsr()


def _mode_factors(slots):
    """S_r = a_r(+k), T_r = a_r(-k) and their bar-adjoints as ladder factors.

    `slots` maps each polarization r to the slots of its (+k, -k)
    modes.  The bar-adjoint of a_r is zeta_r a_r-dagger: M flips the
    sign of the scalar raisers, and leaves the others alone.
    """
    S, T, Sb, Tb = {}, {}, {}, {}
    for r, (plus, minus) in slots.items():
        S[r], T[r] = fs.ladder(plus), fs.ladder(minus)
        Sb[r] = fs.ladder(plus, fs.ZETA[r], raising=True)
        Tb[r] = fs.ladder(minus, fs.ZETA[r], raising=True)
    return S, T, Sb, Tb


def _combine(*pairs):
    """The ladder factor sum_k c_k F_k of (c_k, F_k) pairs."""
    return tuple(
        (c * c_op, slot, raising) for c, factor in pairs for c_op, slot, raising in factor
    )


#: Slots of each polarization's (+k, -k) modes on the 8-mode space.
_MODE_SLOTS = {
    r: (fs.ModeId(fs.PLUS_K, r).slot, fs.ModeId(fs.MINUS_K, r).slot) for r in range(4)
}


def kappa_bilinears(kappas, frame):
    """Frame bilinears E_rs = eps_r.(e_minus + I tr).eps_s, O_rs = eps_r.o_plus.eps_s.

    Rows/columns 1..3 are the transverse/longitudinal frame vectors; the
    scalar row 0 is zero (the kappa matrices are purely spatial).
    """
    emt = kappas.e_minus + np.eye(3) * kappas.tr
    vecs = [None, frame.eps1, frame.eps2, frame.eps3]
    E = np.zeros((4, 4))
    O = np.zeros((4, 4))
    for r in range(1, 4):
        for s in range(1, 4):
            E[r, s] = vecs[r] @ emt @ vecs[s]
            O[r, s] = vecs[r] @ kappas.o_plus @ vecs[s]
    return E, O


def coefficient_matrices(kf, frame):
    """The three 4x4 coefficient matrices of the raw assembly.

    With the lowered tensor K, the frame embedding rows eps_r, and the
    spatial unit four-vector n = (0, khat):

        A_rs = eps_r^k eps_s^m K_{kpmq} n^p n^q
        B_rs = eps_r^k eps_s^m K_{k0m0}
        C_rs = eps_r^k eps_s^m K_{m0kp} n^p
    """
    K_low = as_kf_components(kf) * _FLIP4
    E4 = np.zeros((4, 4))  # rows eps_r^mu: scalar (+1, 0, 0, 0), then the frame
    E4[0, 0] = 1.0
    E4[1:, 1:] = (frame.eps1, frame.eps2, frame.eps3)
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
    S, T, Sb, Tb = _mode_factors(_MODE_SLOTS)
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


def xi_generators(space, kappas, frame):
    """The anti-self-adjoint generator Xi1 + Xi2 of the transverse diagonalization.

    Xi1 carries the frame-diagonal difference of the parity-even
    bilinear, Xi2 the off-diagonal element:

        Xi1 = (1/4)(E11 - E22) (abar1 abar1' - a1' a1 - abar2 abar2' + a2' a2)
        Xi2 = (1/2) E12 (abar1 abar2' - a1 a2' + abar2 abar1' - a2 a1')

    with E_rs the (e_minus + I tr) bilinear and primes marking -k modes.
    bar(Xi) = -Xi, so exp(Xi) preserves the indefinite product.
    """
    check_nonbiref(kappas)
    E, _ = kappa_bilinears(kappas, frame)
    return fs.monomial_sum(space, _xi_terms(E, *_mode_factors(_MODE_SLOTS)))


def xi_coefficients(E):
    """The coefficients (E11 - E22) / 4 and E12 / 2 of Xi1 and Xi2."""
    return 0.25 * (E[1, 1] - E[2, 2]), 0.5 * E[1, 2]


def _xi_terms(E, S, T, Sb, Tb):
    """The monomials of Xi1 + Xi2 from the E bilinear and the mode factors."""
    q1, q2 = xi_coefficients(E)
    return [
        (q1, Sb[1], Tb[1]), (-q1, T[1], S[1]), (-q1, Sb[2], Tb[2]), (q1, T[2], S[2]),
        (q2, Sb[1], Tb[2]), (-q2, S[1], T[2]), (q2, Sb[2], Tb[1]), (-q2, S[2], T[1]),
    ]


def _transverse_terms(kappas, frame, E, S, T, Sb, Tb):
    """The monomials of h_t and h_pm_t (see build_grouped).

    Only the transverse factors S[r], T[r], Sb[r], Tb[r], r = 1, 2, are
    used, so they may be those of the 8-mode space or of the transverse
    factor.
    """
    delta_plus = delta_nonbiref(kappas, frame.khat)
    delta_minus = delta_nonbiref(kappas, -frame.khat)
    h_t = [
        (1 + delta_plus, S[1], Sb[1]), (1 + delta_plus, S[2], Sb[2]),
        (1 + delta_minus, Tb[1], T[1]), (1 + delta_minus, Tb[2], T[2]),
    ]
    d = 0.5 * (E[1, 1] - E[2, 2])
    h_pm_t = [
        (d, S[1], T[1]), (d, Tb[1], Sb[1]), (-d, S[2], T[2]), (-d, Tb[2], Sb[2]),
        (E[1, 2], S[1], T[2]), (E[1, 2], Tb[2], Sb[1]),
        (E[1, 2], S[2], T[1]), (E[1, 2], Tb[1], Sb[2]),
    ]
    return h_t, h_pm_t


def build_grouped(space, kappas, frame):
    """The six named blocks of the Hamiltonian, coefficients from kappa bilinears.

    h_t: transverse occupations scaled by the direction-dependent phase
    velocities 1 + delta(+-k).  h_pm_t: transverse +k/-k cross terms.
    h_ls0: the covariant scalar/longitudinal part.  h_lslv: its
    ghost-sector (d/g mode) Lorentz-violating counterpart.  h_p_tls and
    h_m_tls: couplings of +k and -k transverse modes to the ghost
    sector.  The returned bundle also carries the xi generator.
    """
    check_nonbiref(kappas)
    E, O = kappa_bilinears(kappas, frame)
    S, T, Sb, Tb = _mode_factors(_MODE_SLOTS)
    h_t, h_pm_t = _transverse_terms(kappas, frame, E, S, T, Sb, Tb)

    h_ls0 = [(1, S[3], Sb[3]), (1, Tb[3], T[3]), (-1, S[0], Sb[0]), (-1, Tb[0], T[0])]

    # The d/g operators a_g(+k), a_d(-k) and their bar-adjoints.
    _, a_g, _, a_gb = fs.dg_factors(fs.PLUS_K)
    a_dm, _, a_dmb, _ = fs.dg_factors(fs.MINUS_K)

    e33 = E[3, 3]
    h_lslv = [
        (-e33, a_g, a_gb), (-e33, a_dmb, a_dm),
        (-1j * e33, a_g, a_dm), (1j * e33, a_dmb, a_gb),
    ]

    # Ghost-sector factors shared by both transverse-to-ghost blocks.
    fac_ann = _combine((1, a_gb), (1j, a_dm))  # [abar_g(+k) + i a_d(-k)]
    fac_cre = _combine((1, a_g), (-1j, a_dmb))  # [a_g(+k) - i abar_d(-k)]

    r2 = 1.0 / np.sqrt(2.0)
    c1p = (-r2) * (E[1, 3] - O[3, 2])
    c2p = (-r2) * (E[2, 3] + O[3, 1])
    h_p_tls = [
        (c1p, S[1], fac_ann), (c1p, fac_cre, Sb[1]),
        (c2p, S[2], fac_ann), (c2p, fac_cre, Sb[2]),
    ]

    c1m = r2 * (E[1, 3] + O[3, 2])
    c2m = r2 * (E[2, 3] - O[3, 1])
    h_m_tls = [
        (c1m, fac_cre, T[1]), (c1m, Tb[1], fac_ann),
        (c2m, fac_cre, T[2]), (c2m, Tb[2], fac_ann),
    ]

    blocks = (h_t, h_pm_t, h_ls0, h_lslv, h_p_tls, h_m_tls, _xi_terms(E, S, T, Sb, Tb))
    return HamiltonianBundle(*(fs.monomial_sum(space, terms) for terms in blocks))


#: The 8-mode slots of the transverse factor's modes, in the order of
#: its occupation tuple: a1(+k), a2(+k), a1(-k), a2(-k).
TRANSVERSE_SLOTS = tuple(_MODE_SLOTS[r][d] for d in (0, 1) for r in (1, 2))

#: Slots of polarizations 1, 2's (+k, -k) modes on the transverse factor,
#: their positions in TRANSVERSE_SLOTS.
_FACTOR_SLOTS = {
    r: tuple(TRANSVERSE_SLOTS.index(slot) for slot in _MODE_SLOTS[r]) for r in (1, 2)
}

#: <ghost vacuum| h_ls0 + h_lslv |ghost vacuum>.  The +k terms of h_ls0,
#: a_r bar(a_r), give zeta_r on the vacuum since [a_r, bar(a_r)] = zeta_r,
#: and its -k terms are normal ordered.  Every h_lslv term annihilates
#: the ghost vacuum or changes its occupations (a_g commutes with the
#: physical dagger of a_d), so h_lslv adds nothing.
_GHOST_VACUUM_ENERGY = fs.ZETA[3] - fs.ZETA[0]


def transverse_space(cutoff):
    """The 4-mode occupation space of TRANSVERSE_SLOTS, dim (cutoff+1)^4."""
    return fs._occupation_space(cutoff, 4)


def check_transverse(space):
    """Reject a space that is not a 4-mode transverse_space."""
    if space.modes != 4:
        raise ValueError(f"expected the 4-mode transverse factor, not {space.modes} modes")


def transverse_operators(space):
    """The factor's lowering operators and their daggers, S, T, Sb, Tb.

    Each is keyed by polarization 1, 2, as the 8-mode operator lists
    are indexed: S = a(+k), T = a(-k).  The transverse metric is +1, so
    the bar-adjoints Sb, Tb are the plain daggers.
    """
    check_transverse(space)
    S, T, Sb, Tb = {}, {}, {}, {}
    for r, (plus, minus) in _FACTOR_SLOTS.items():
        S[r], T[r] = fs._lowering(space, plus), fs._lowering(space, minus)
        Sb[r], Tb[r] = S[r].conj().T.tocsr(), T[r].conj().T.tocsr()
    return S, T, Sb, Tb


def build_transverse(space, kappas, frame):
    """H and Xi on the transverse factor, for states with empty ghost modes.

    Xi, h_t and h_pm_t act only on the transverse modes.  Between
    states whose scalar and longitudinal modes are empty, h_p_tls and
    h_m_tls vanish (each term moves one ghost quantum) and h_ls0 +
    h_lslv is the constant _GHOST_VACUUM_ENERGY.  On those states the
    8-mode H and Xi are therefore the ghost vacuum times the returned
    h = h_t + h_pm_t + c I and xi, with the same entries.
    `space` is a transverse_space; returns (h, xi).
    """
    check_transverse(space)
    check_nonbiref(kappas)
    factors = _mode_factors(_FACTOR_SLOTS)  # metric +1: bar-adjoint = dagger
    E, _ = kappa_bilinears(kappas, frame)
    h_t, h_pm_t = _transverse_terms(kappas, frame, E, *factors)
    h = fs.monomial_sum(space, h_t + h_pm_t)
    h = h + _GHOST_VACUUM_ENERGY * sp.identity(space.dim, format="csr")
    return h.tocsr(), fs.monomial_sum(space, _xi_terms(E, *factors))


def similarity_transform(h, xi):
    """Exact exponential conjugation exp(xi) H exp(-xi).

    Dense scaling-and-squaring exponential; restricted to dimensions
    where two dense factors fit comfortably in memory (use
    transformed_expectation / transformed_element for larger spaces).
    The inverse is built independently and checked against the forward
    factor, which catches a non-converged exponential.
    """
    if h.shape != xi.shape:
        raise ValueError("operator dimensions do not match")
    if h.shape[0] > _DENSE_EXPM_LIMIT:
        raise ValueError(
            "dense exponential conjugation is limited to dim <= "
            f"{_DENSE_EXPM_LIMIT}; use the vector-level helpers instead"
        )
    xi_dense = xi.toarray() if sp.issparse(xi) else np.asarray(xi)
    h_dense = h.toarray() if sp.issparse(h) else np.asarray(h)
    u = expm(xi_dense)
    u_inv = expm(-xi_dense)
    drift = np.max(np.abs(u @ u_inv - np.eye(u.shape[0])))
    if not np.isfinite(drift) or drift > 1e-8:
        raise RuntimeError(
            f"exponential failed to invert cleanly (defect {drift:.3e}); "
            "generator outside the perturbative range"
        )
    return u @ h_dense @ u_inv


def _evolve(xi, labels, vec):
    """exp(-xi) vec on the coupled blocks of xi that hold vec.

    `labels` are the block labels of xi (fs.coupled_blocks).  Returns
    the indices of those blocks' states and the evolved values there;
    exp(-xi) vec is zero everywhere else, so evolving under xi
    restricted to those blocks is exact.
    """
    idx = np.flatnonzero(np.isin(labels, labels[np.flatnonzero(vec)]))
    if not idx.size:
        return idx, np.zeros(0, dtype=complex)
    return idx, expm_multiply(-xi[idx][:, idx], vec[idx])


def _transformed(h, xi, states, mdiag):
    """Phi^dagger diag(mdiag) H Phi, the columns of Phi exp(-xi) states.

    Each state is evolved on the coupled blocks of xi that hold it;
    every evolved state vanishes outside the union of those blocks, so
    H and the metric diagonal `mdiag` are needed only on that support.
    """
    states = [np.asarray(state, dtype=complex) for state in states]
    if any(state.shape != mdiag.shape for state in states):
        raise ValueError("state dimension does not match the space")
    xi = sp.csr_matrix(xi)
    labels = fs.coupled_blocks(xi)
    evolved = [_evolve(xi, labels, state) for state in states]
    support = np.unique(np.concatenate([idx for idx, _ in evolved]))
    h_support = sp.csr_matrix(h)[support][:, support]
    phi = np.zeros((support.size, len(states)), dtype=complex)
    for col, (idx, values) in enumerate(evolved):
        phi[np.searchsorted(support, idx), col] = values
    return phi.conj().T @ (mdiag[support][:, None] * (h_support @ phi))


def transformed_matrix(space, h, xi, states):
    """G[a, b] = <a| M exp(xi) H exp(-xi) |b> over a list of states.

    Because xi is metric-anti-self-adjoint, <a| M exp(xi) is the
    M-weighted bra of exp(-xi)|a>, so G = Phi^dagger M H Phi with the
    columns of Phi the states evolved by exp(-xi).  Each evolution runs
    on the coupled blocks of xi that hold its state, so it works at any
    cutoff; H (a sparse or dense matrix) is taken only on the support
    of the evolved states.
    """
    return _transformed(h, xi, states, fs.metric_diagonal(space))


def transverse_matrix(space, h, xi, states):
    """transformed_matrix on a transverse_space, whose metric is +1."""
    return _transformed(h, xi, states, np.ones(space.dim))


def transformed_expectation(space, h, xi, psi):
    """Indefinite expectation of exp(xi) H exp(-xi) in the state psi."""
    return complex(transformed_matrix(space, h, xi, [psi])[0, 0])


def transformed_element(space, h, xi, bra, ket):
    """Matrix element <bra| M exp(xi) H exp(-xi) |ket> at any cutoff."""
    return complex(transformed_matrix(space, h, xi, [bra, ket])[0, 1])


def momentum_operator(space, kvec, kappas=None):
    """The three conserved momentum components (units hbar = 1).

    P^j = k^j (sum of +k occupations minus sum of -k occupations), a
    diagonal operator.  The momentum is independent of the anisotropy
    parameters, so `kappas` is accepted only to let callers demonstrate
    that independence; it is ignored.
    """
    del kappas  # the momentum carries no anisotropy dependence
    kvec = np.asarray(kvec, dtype=float)
    if kvec.shape != (3,):
        raise ValueError("kvec must be a 3-vector")
    occ = space.occupations
    diff = (occ[:, :4].sum(axis=1) - occ[:, 4:].sum(axis=1)).astype(complex)
    return [sp.diags(kvec[j] * diff, format="csr") for j in range(3)]
