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
enforced in the test suite.

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

from . import fock_space as fs
from .dispersion import PolarizationFrame, polarization_frame
from .kappa_tensor import (
    METRIC,
    PERTURBATIVE_LIMIT,
    KappaSet,
    as_kf_components,
    kappas_from_kf,
)

#: Largest dimension for which dense exponential conjugation is attempted.
_DENSE_EXPM_LIMIT = 4096


@dataclass(frozen=True)
class EpsilonTensor:
    """Polarization four-vector embedding for both directions of a pair.

    Row r of each matrix holds eps_r^mu: the scalar row (+1, 0, 0, 0)
    and the three spatial rows from the transverse frame.  The minus
    matrix applies the frame parity rules (eps1 even, eps2 and eps3
    odd); the raw Hamiltonian assembly contracts both directions'
    operators against the plus matrix, as the grouped-block equivalence
    requires.
    """

    khat: np.ndarray
    plus_matrix: np.ndarray
    minus_matrix: np.ndarray


def epsilon_tensor(frame):
    def embed(e1, e2, e3):
        out = np.zeros((4, 4))
        out[0, 0] = 1.0
        out[1, 1:] = e1
        out[2, 1:] = e2
        out[3, 1:] = e3
        return out

    plus = embed(frame.eps1, frame.eps2, frame.eps3)
    minus = embed(frame.eps1, -frame.eps2, -frame.eps3)
    return EpsilonTensor(khat=frame.khat, plus_matrix=plus, minus_matrix=minus)


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


def _mode_operators(space):
    """S_r = a_r(+k), T_r = a_r(-k) and their bar-adjoints, r = 0..3."""
    S = [fs.annihilator(space, fs.ModeId(fs.PLUS_K, r)) for r in range(4)]
    T = [fs.annihilator(space, fs.ModeId(fs.MINUS_K, r)) for r in range(4)]
    Sb = [fs.bar_adjoint(space, a) for a in S]
    Tb = [fs.bar_adjoint(space, a) for a in T]
    return S, T, Sb, Tb


def _check_nonbiref(kappas):
    if kappas.is_birefringent:
        raise ValueError("Hamiltonian blocks assume e_plus = o_minus = 0")
    if kappas.magnitude > PERTURBATIVE_LIMIT:
        raise ValueError("kappa parameters outside the perturbative regime")


def _delta_from_vectors(kappas, e1, e2):
    emt = kappas.e_minus + np.eye(3) * kappas.tr
    return float(e1 @ kappas.o_plus @ e2 - 0.5 * (e1 @ emt @ e1 + e2 @ emt @ e2))


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
    K_low = as_kf_components(kf) * np.einsum(
        "a,b,c,d->abcd", *([np.array([1.0, -1.0, -1.0, -1.0])] * 4)
    )
    E4 = epsilon_tensor(frame).plus_matrix
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
    _check_nonbiref(kappas)
    A, B, C = coefficient_matrices(kf, frame)
    S, T, Sb, Tb = _mode_operators(space)
    H = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    for r in range(4):
        H = H - METRIC[r, r] * (S[r] @ Sb[r] + Tb[r] @ T[r])
    for r in range(4):
        for s in range(4):
            H = H + (A + B - C)[r, s] * (S[r] @ Sb[s])
            H = H + (A + B + C)[r, s] * (Tb[r] @ T[s])
            H = H + (A - B + C)[r, s] * (S[r] @ T[s])
            H = H + (A - B - C)[r, s] * (Tb[r] @ Sb[s])
            H = H - C[r, s] * (S[s] @ Sb[r] - Tb[s] @ T[r])
            H = H - C[r, s] * (S[s] @ T[r] - Tb[s] @ Sb[r])
    return H.tocsr()


def xi_generators(space, kappas, frame):
    """The anti-self-adjoint generator Xi1 + Xi2 of the transverse diagonalization.

    Xi1 carries the frame-diagonal difference of the parity-even
    bilinear, Xi2 the off-diagonal element:

        Xi1 = (1/4)(E11 - E22) (abar1 abar1' - a1' a1 - abar2 abar2' + a2' a2)
        Xi2 = (1/2) E12 (abar1 abar2' - a1 a2' + abar2 abar1' - a2 a1')

    with E_rs the (e_minus + I tr) bilinear and primes marking -k modes.
    bar(Xi) = -Xi, so exp(Xi) preserves the indefinite product.
    """
    _check_nonbiref(kappas)
    E, _ = kappa_bilinears(kappas, frame)
    S, T, Sb, Tb = _mode_operators(space)
    q1 = 0.25 * (E[1, 1] - E[2, 2])
    q2 = 0.5 * E[1, 2]
    xi = q1 * (Sb[1] @ Tb[1] - T[1] @ S[1] - Sb[2] @ Tb[2] + T[2] @ S[2])
    xi = xi + q2 * (Sb[1] @ Tb[2] - S[1] @ T[2] + Sb[2] @ Tb[1] - S[2] @ T[1])
    return xi.tocsr()


def build_grouped(space, kappas, frame):
    """The six named blocks of the Hamiltonian, coefficients from kappa bilinears.

    h_t: transverse occupations scaled by the direction-dependent phase
    velocities 1 + delta(+-k).  h_pm_t: transverse +k/-k cross terms.
    h_ls0: the covariant scalar/longitudinal part.  h_lslv: its
    ghost-sector (d/g mode) Lorentz-violating counterpart.  h_p_tls and
    h_m_tls: couplings of +k and -k transverse modes to the ghost
    sector.  The returned bundle also carries the xi generator.
    """
    _check_nonbiref(kappas)
    E, O = kappa_bilinears(kappas, frame)
    delta_plus = _delta_from_vectors(kappas, frame.eps1, frame.eps2)
    delta_minus = _delta_from_vectors(kappas, frame.eps1, -frame.eps2)
    S, T, Sb, Tb = _mode_operators(space)

    h_t = (1 + delta_plus) * (S[1] @ Sb[1] + S[2] @ Sb[2])
    h_t = h_t + (1 + delta_minus) * (Tb[1] @ T[1] + Tb[2] @ T[2])

    h_pm_t = 0.5 * (E[1, 1] - E[2, 2]) * (
        S[1] @ T[1] + Tb[1] @ Sb[1] - S[2] @ T[2] - Tb[2] @ Sb[2]
    )
    h_pm_t = h_pm_t + E[1, 2] * (S[1] @ T[2] + Tb[2] @ Sb[1])
    h_pm_t = h_pm_t + E[1, 2] * (S[2] @ T[1] + Tb[1] @ Sb[2])

    h_ls0 = S[3] @ Sb[3] + Tb[3] @ T[3] - S[0] @ Sb[0] - Tb[0] @ T[0]

    a_d, a_g = fs.dg_operators(space, fs.PLUS_K)
    a_dm, a_gm = fs.dg_operators(space, fs.MINUS_K)
    bar = lambda x: fs.bar_adjoint(space, x)
    a_gb, a_dmb = bar(a_g), bar(a_dm)

    e33 = E[3, 3]
    h_lslv = -e33 * (a_g @ a_gb + a_dmb @ a_dm)
    h_lslv = h_lslv - 1j * e33 * (a_g @ a_dm - a_dmb @ a_gb)

    # Ghost-sector factors shared by both transverse-to-ghost blocks.
    fac_ann = a_gb + 1j * a_dm  # [abar_g(+k) + i a_d(-k)]
    fac_cre = a_g - 1j * a_dmb  # [a_g(+k) - i abar_d(-k)]

    c1p = E[1, 3] - O[3, 2]
    c2p = E[2, 3] + O[3, 1]
    h_p_tls = (-1.0 / np.sqrt(2.0)) * (
        c1p * (S[1] @ fac_ann + fac_cre @ Sb[1])
        + c2p * (S[2] @ fac_ann + fac_cre @ Sb[2])
    )

    c1m = E[1, 3] + O[3, 2]
    c2m = E[2, 3] - O[3, 1]
    h_m_tls = (1.0 / np.sqrt(2.0)) * (
        c1m * (fac_cre @ T[1] + Tb[1] @ fac_ann)
        + c2m * (fac_cre @ T[2] + Tb[2] @ fac_ann)
    )

    return HamiltonianBundle(
        h_t=h_t.tocsr(),
        h_pm_t=h_pm_t.tocsr(),
        h_ls0=h_ls0.tocsr(),
        h_lslv=h_lslv.tocsr(),
        h_p_tls=h_p_tls.tocsr(),
        h_m_tls=h_m_tls.tocsr(),
        xi=xi_generators(space, kappas, frame),
    )


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


def transformed_expectation(space, h, xi, psi):
    """Indefinite expectation of exp(xi) H exp(-xi) in the state psi.

    Because xi is metric-anti-self-adjoint, this equals the expectation
    of H in exp(-xi) psi, which needs only sparse exponential-times-
    vector products and so works at any cutoff.
    """
    from scipy.sparse.linalg import expm_multiply

    phi = expm_multiply(-xi, np.asarray(psi, dtype=complex))
    return fs.indefinite_inner(space, phi, h @ phi)


def transformed_element(space, h, xi, bra, ket):
    """Matrix element <bra| M exp(xi) H exp(-xi) |ket> at any cutoff."""
    from scipy.sparse.linalg import expm_multiply

    ket_t = expm_multiply(-xi, np.asarray(ket, dtype=complex))
    # <bra| M e^xi = (e^{-xi} M-weighted bra)^dagger by anti-self-adjointness.
    bra_t = expm_multiply(-xi, np.asarray(bra, dtype=complex))
    return fs.indefinite_inner(space, bra_t, h @ ket_t)


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


def build_for_khat(space, kappas, khat):
    """Convenience: grouped bundle plus raw matrix for a bare direction."""
    frame = polarization_frame(khat)
    from .kappa_tensor import kf_from_kappas

    bundle = build_grouped(space, kappas, frame)
    raw = build_raw(space, kf_from_kappas(kappas), frame)
    return bundle, raw
