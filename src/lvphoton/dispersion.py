"""Classical plane-wave dispersion in the anisotropic vacuum.

Polarization frames with a fixed parity pairing between opposite wave
vectors, the leading-order fractional phase-velocity shift delta(k) for
the non-birefringent sector, the rho/sigma split of the general
leading-order dispersion relation, and a brute-force numerical solver
for the modified Ampere law that serves as the oracle for all of the
closed forms.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .kappa_tensor import (
    METRIC,
    PERTURBATIVE_LIMIT,
    as_four_components,
    as_kf_components,
    kf_from_kappas,
)

_XHAT = np.array([1.0, 0.0, 0.0])
_YHAT = np.array([0.0, 1.0, 0.0])

#: The default wave direction, +z (read-only; copy it to modify).
Z_AXIS = np.array([0.0, 0.0, 1.0])
Z_AXIS.setflags(write=False)

#: Relative roundoff allowance on sigma^2, in units of |ktilde|^2.
SIGMA_SQ_RTOL = 1e-12

#: Smallest relative half-width of solve_ampere's root bracket.  A
#: projected tensor can keep roundoff-sized components (~1e-18), and a
#: bracket of 5 times that collapses onto |k| in double precision.
_MIN_BRACKET = 1e-12


@dataclass(frozen=True)
class PolarizationFrame:
    """Right-handed orthonormal triad (eps1, eps2, eps3 = khat)."""

    eps1: np.ndarray
    eps2: np.ndarray
    eps3: np.ndarray
    khat: np.ndarray


@dataclass(frozen=True)
class DispersionResult:
    """Leading-order dispersion data for one wavevector.

    delta is the polarization-independent fractional phase-velocity
    shift (None when the input has birefringent parameters, where the
    shift is polarization-dependent); omega_plus/omega_minus are the two
    transverse frequencies (1 + rho +- sigma)|k|.
    """

    delta: float | None
    rho: float
    sigma: float
    omega_plus: float
    omega_minus: float


def _canonical_transverse(khat):
    """Gram-Schmidt x-hat against khat, falling back to y-hat near x-hat."""
    e1 = _XHAT - (_XHAT @ khat) * khat
    n = np.linalg.norm(e1)
    if n < 1e-8:
        e1 = _YHAT - (_YHAT @ khat) * khat
        n = np.linalg.norm(e1)
    e1 = e1 / n
    return e1, np.cross(khat, e1)


def _in_canonical_hemisphere(khat):
    if khat[2] != 0.0:
        return khat[2] > 0.0
    if khat[1] != 0.0:
        return khat[1] > 0.0
    return khat[0] > 0.0


def polarization_frame(khat):
    """Deterministic transverse frame for a unit wavevector.

    The frame is built by Gram-Schmidt in a canonical hemisphere
    (k_z > 0, ties broken by k_y then k_x) and extended to the opposite
    hemisphere by the parity rules

        eps1(-k) = +eps1(k),  eps2(-k) = -eps2(k),  eps3(-k) = -eps3(k),

    so the rules hold exactly by construction.  eps1 x eps2 = khat in
    both hemispheres.
    """
    khat = np.asarray(khat, dtype=float)
    if khat.shape != (3,) or abs(np.linalg.norm(khat) - 1.0) > 1e-12:
        raise ValueError("khat must be a unit 3-vector")
    if _in_canonical_hemisphere(khat):
        e1, e2 = _canonical_transverse(khat)
    else:
        e1, e2m = _canonical_transverse(-khat)
        e2 = -e2m
    return PolarizationFrame(eps1=e1, eps2=e2, eps3=khat.copy(), khat=khat.copy())


def delta_nonbiref(k, khat):
    """Fractional phase-velocity shift for the non-birefringent sector.

        delta(k) = eps1 . o_plus . eps2
                   - (1/2) sum_{r=1,2} eps_r . (e_minus + I tr) . eps_r

    Only valid with e_plus = o_minus = 0; birefringent input is rejected
    since the shift is then polarization-dependent.
    """
    if k.is_birefringent:
        raise ValueError("delta is polarization-independent only without birefringence")
    f = polarization_frame(khat)
    emt = k.e_minus + np.eye(3) * k.tr
    return float(
        f.eps1 @ k.o_plus @ f.eps2
        - 0.5 * (f.eps1 @ emt @ f.eps1 + f.eps2 @ emt @ f.eps2)
    )


def ktilde(kf, k):
    """Two-index contraction ktilde^{ab} = K^{a m b n} khat_m khat_n.

    khat_m = k_m/|k| with the frequency seeded at |k| (leading order).
    The subscripted wave four-vector carries the components (omega, +k),
    a convention pinned by the printed closed forms for rho and delta
    along z, so the contraction uses (1, +khat).  The frequency component
    of the supplied four-vector is not used.
    """
    K = as_kf_components(kf)
    kvec = as_four_components(k)[1:]
    norm = np.linalg.norm(kvec)
    if norm == 0.0:
        raise ValueError("spatial wavevector must be nonzero")
    khat_low = np.concatenate(([1.0], kvec / norm))
    return np.einsum("ambn,m,n->ab", K, khat_low, khat_low)


def rho_sigma(kf, khat):
    """Polarization-independent and birefringent phase-velocity shifts.

        rho    = -(1/2) ktilde^a_a
        sigma^2 = (1/2) ktilde_{ab} ktilde^{ab} - rho^2

    sigma is the nonnegative root.  Roundoff in the difference scales
    with |ktilde|^2 (up to ~30 eps times it over random draws), so only a
    sigma^2 below -SIGMA_SQ_RTOL * |ktilde|^2 counts as beyond numerical
    noise and triggers a warning before clamping to zero.
    """
    khat = np.asarray(khat, dtype=float)
    kt = ktilde(kf, np.concatenate(([1.0], khat)))
    rho = -0.5 * np.einsum("ab,ba->", kt, METRIC)
    kt_low = METRIC @ kt @ METRIC
    sigma_sq = 0.5 * np.einsum("ab,ab->", kt_low, kt) - rho**2
    if sigma_sq < -SIGMA_SQ_RTOL * np.sum(kt**2):
        warnings.warn(f"sigma^2 = {sigma_sq:.3e} < 0 beyond roundoff; clamping to 0")
    return float(rho), float(np.sqrt(max(sigma_sq, 0.0)))


def summarize(k, kvec):
    """Leading-order DispersionResult for a KappaSet and wavevector."""
    kvec = np.asarray(kvec, dtype=float)
    norm = np.linalg.norm(kvec)
    if norm == 0.0:
        raise ValueError("wavevector must be nonzero")
    kf = kf_from_kappas(k)
    rho, sigma = rho_sigma(kf, kvec / norm)
    delta = None if k.is_birefringent else delta_nonbiref(k, kvec / norm)
    return DispersionResult(
        delta=delta,
        rho=rho,
        sigma=sigma,
        omega_plus=(1.0 + rho + sigma) * norm,
        omega_minus=(1.0 + rho - sigma) * norm,
    )


def ampere_matrix(kf, kvec, omega):
    """3x3 coefficient matrix of the modified Ampere law at (omega, kvec).

    Row/column indices are the spatial field components:

        M^{pq} = -delta^{pq} (omega^2 - |k|^2) - k^p k^q
                 - 2 K^{p b c q} k_b k_c

    with the subscripted four-vector k_b = (omega, +kvec), the same
    component convention as ktilde.  A propagating solution E satisfies
    M E = 0.
    """
    K = as_kf_components(kf)
    kvec = np.asarray(kvec, dtype=float)
    k_low = np.concatenate(([omega], kvec))
    ksq = omega**2 - kvec @ kvec
    out = -np.eye(3) * ksq - np.outer(kvec, kvec)
    out -= 2.0 * np.einsum("pbcq,b,c->pq", K[1:, :, :, 1:], k_low, k_low)
    return out


def solve_ampere(kf, kvec):
    """Numerically solve the modified Ampere law for the transverse roots.

    Returns the two propagating solutions as (omega, polarization) pairs
    sorted by omega.  Roots are found by bisection on the two
    near-zero eigenvalue branches of the 3x3 coefficient matrix inside
    the bracket [(1 - 5 s)|k|, (1 + 5 s)|k|] with s the max abs tensor
    component (the half-width 5 s is floored at 1e-12); the
    longitudinal branch (eigenvalue near -omega^2) never crosses zero in
    that bracket and so is discarded automatically.
    When the two roots are degenerate the two returned polarizations are
    an arbitrary orthonormal basis of the computed null space.

    Raises ValueError outside the perturbative regime (s > 0.1) and
    RuntimeError when a branch does not bracket a root or the residual
    check ||M E|| < 1e-10 |k|^2 fails.
    """
    K = as_kf_components(kf)
    kvec = np.asarray(kvec, dtype=float)
    knorm = np.linalg.norm(kvec)
    if knorm == 0.0:
        raise ValueError("wavevector must be nonzero")
    strength = np.max(np.abs(K))
    if strength > PERTURBATIVE_LIMIT:
        raise ValueError("tensor outside the perturbative regime (max component > 0.1)")

    if strength == 0.0:
        f = polarization_frame(kvec / knorm)
        return [(knorm, f.eps1.astype(complex)), (knorm, f.eps2.astype(complex))]

    half_width = max(5.0 * strength, _MIN_BRACKET)
    lo = (1.0 - half_width) * knorm
    hi = (1.0 + half_width) * knorm

    def branch(omega, i):
        return np.linalg.eigvalsh(ampere_matrix(K, kvec, omega))[i]

    roots = []
    for i in (1, 2):
        flo, fhi = branch(lo, i), branch(hi, i)
        if flo * fhi > 0.0:
            raise RuntimeError(
                "no sign change on transverse eigenvalue branch; "
                "tensor too large for the bracket"
            )
        omega = brentq(branch, lo, hi, args=(i,), xtol=1e-13 * knorm)
        vals, vecs = np.linalg.eigh(ampere_matrix(K, kvec, omega))
        evec = vecs[:, i].astype(complex)
        residual = np.linalg.norm(ampere_matrix(K, kvec, omega) @ evec)
        if residual > 1e-10 * knorm**2:
            raise RuntimeError(f"root residual {residual:.3e} exceeds tolerance")
        roots.append((float(omega), evec))
    roots.sort(key=lambda pair: pair[0])
    return roots
