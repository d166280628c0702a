"""Classical plane-wave dispersion in the anisotropic vacuum.

Polarization frames with a fixed parity pairing between opposite wave
vectors, the leading-order fractional phase-velocity shift delta(k) for
the non-birefringent sector, the rho/sigma split of the general
leading-order dispersion relation, and a numerical solver for the
modified Ampere law that serves as the oracle for all of the closed
forms.  The solver and rho/sigma take a whole batch of wave directions
at once; their one-direction forms are the one-row case.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .kappa_tensor import (
    METRIC,
    PERTURBATIVE_LIMIT,
    as_four_components,
    as_kf_components,
    check_perturbative,
    kf_from_kappas,
    readoff_magnitude,
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

#: Largest imaginary part, in units of |k|, that a transverse root may
#: keep from roundoff.  Under a backward error of eps a double eigenvalue
#: moves by about eps when it is semisimple, as the transverse pair is,
#: and by up to sqrt(eps) when it is defective, as the companion matrix's
#: longitudinal root at omega = 0 is (its imaginary parts reach ~2e-8).
#: sqrt(eps) admits roundoff of either kind; the residual check judges
#: the rest.
_ROOT_IMAG_TOL = float(np.sqrt(np.finfo(float).eps))

#: Relative splitting below which the two roots count as one double
#: root: both polarizations then come from one eigh, as an orthonormal
#: basis of its null space.  It sits above the companion solver's root
#: error (~3e-14) and keeps the second vector's residual, about twice
#: the splitting times |k|^2, well inside the 1e-10 |k|^2 check.
_DEGENERATE_RTOL = 1e-12

#: Residual tolerance of an Ampere solution, in units of |k|^2.
_RESIDUAL_RTOL = 1e-10


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


def _unit_rows(kvecs):
    """Rows of kvecs as unit vectors, with their norms; zero rows are refused.

    np.vecdot takes the same dot product that np.linalg.norm takes of a
    single row, so each row comes out bit for bit as it would alone.
    """
    kvecs = np.asarray(kvecs, dtype=float).reshape(-1, 3)
    norms = np.sqrt(np.vecdot(kvecs, kvecs))
    if not np.all(norms > 0.0):
        raise ValueError("spatial wavevector must be nonzero")
    return kvecs / norms[:, None], norms


def random_directions(rng, count=None):
    """Seeded isotropic unit 3-vectors, one per row of a (count, 3) array.

    count=None draws a single vector, as numpy's size=None draws a single
    number.  The stream is that of count separate size-3 normal draws,
    so a batch holds the vectors that one-at-a-time draws would give.
    """
    if count is None:
        return _unit_rows(rng.normal(size=3))[0][0]
    return _unit_rows(rng.normal(size=(count, 3)))[0]


def _ktilde_rows(K, khats):
    """ktilde^{ab} for each row of a batch of unit spatial directions."""
    klow = np.hstack((np.ones((len(khats), 1)), khats))
    return np.einsum("ambn,im,in->iab", K, klow, klow)


def ktilde(kf, k):
    """Two-index contraction ktilde^{ab} = K^{a m b n} khat_m khat_n.

    khat_m = k_m/|k| with the frequency seeded at |k| (leading order).
    The subscripted wave four-vector carries the components (omega, +k),
    a convention pinned by the printed closed forms for rho and delta
    along z, so the contraction uses (1, +khat).  The frequency component
    of the supplied four-vector is not used.
    """
    khat, _ = _unit_rows(as_four_components(k)[1:])
    return _ktilde_rows(as_kf_components(kf), khat)[0]


def rho_sigma_batch(kf, khats):
    """Polarization-independent and birefringent phase-velocity shifts.

        rho    = -(1/2) ktilde^a_a
        sigma^2 = (1/2) ktilde_{ab} ktilde^{ab} - rho^2

    One value of each per row of khats (the rows are normalized first);
    sigma is the nonnegative root.  Roundoff in the difference scales
    with |ktilde|^2 (up to ~30 eps times it over random draws), so only a
    sigma^2 below -SIGMA_SQ_RTOL * |ktilde|^2 counts as beyond numerical
    noise: each such direction warns once before its sigma^2 is clamped
    to zero.
    """
    khats, _ = _unit_rows(khats)
    kt = _ktilde_rows(as_kf_components(kf), khats)
    rho = -0.5 * np.einsum("iab,ba->i", kt, METRIC)
    kt_low = METRIC @ kt @ METRIC
    sigma_sq = 0.5 * np.einsum("iab,iab->i", kt_low, kt) - rho**2
    noisy = sigma_sq < -SIGMA_SQ_RTOL * np.sum(kt**2, axis=(1, 2))
    for value in sigma_sq[noisy]:
        warnings.warn(f"sigma^2 = {value:.3e} < 0 beyond roundoff; clamping to 0")
    return rho, np.sqrt(np.maximum(sigma_sq, 0.0))


def rho_sigma(kf, khat):
    """rho and sigma for one direction: the one-row case of rho_sigma_batch."""
    rho, sigma = rho_sigma_batch(kf, khat)
    return float(rho[0]), float(sigma[0])


def summarize_batch(k, kf, kvecs):
    """Leading-order DispersionResult per row of kvecs.

    kf is the tensor of the KappaSet k, built once by the caller.
    """
    khats, norms = _unit_rows(kvecs)
    rho, sigma = rho_sigma_batch(kf, khats)
    birefringent = k.is_birefringent
    return [
        DispersionResult(
            delta=None if birefringent else delta_nonbiref(k, khat),
            rho=float(r),
            sigma=float(s),
            omega_plus=float((1.0 + r + s) * norm),
            omega_minus=float((1.0 + r - s) * norm),
        )
        for khat, norm, r, s in zip(khats, norms, rho, sigma)
    ]


def summarize(k, kvec):
    """Leading-order DispersionResult for a KappaSet and wavevector."""
    return summarize_batch(k, kf_from_kappas(k), kvec)[0]


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


def _ampere_coefficients(K, kvecs):
    """M0 and M1 per row of kvecs, and the shared M2, of the Ampere matrix.

    ampere_matrix split by powers of the frequency,
    M(omega) = M0 + omega M1 + omega^2 M2: omega enters
    k_b = (omega, +kvec) only at b = 0, so

        M2 = -I - 2 K^{p00q},
        M1 = -2 (K^{p0jq} + K^{pj0q}) k_j,
        M0 = |k|^2 I - k k^T - 2 K^{pijq} k_i k_j.
    """
    m2 = -np.eye(3) - 2.0 * K[1:, 0, 0, 1:]
    m1 = -2.0 * np.einsum("pjq,nj->npq", K[1:, 0, 1:, 1:] + K[1:, 1:, 0, 1:], kvecs)
    m0 = np.vecdot(kvecs, kvecs)[:, None, None] * np.eye(3)
    m0 -= kvecs[:, :, None] * kvecs[:, None, :]
    m0 -= 2.0 * np.einsum(
        "pijq,ni,nj->npq", K[1:, 1:, 1:, 1:], kvecs, kvecs, optimize=True
    )
    return m0, m1, m2


def solve_ampere_batch(kf, kvecs):
    """Numerically solve the modified Ampere law for every row of kvecs.

    Returns (omegas, fields): omegas[n] holds the two transverse roots of
    row n in ascending order and fields[n] their complex polarizations.

    The frequency is solved for in units of |k| on the unit direction,
    where M(x) = M0 + x M1 + x^2 M2 is quadratic in x = omega/|k| (see
    _ampere_coefficients).  Its six roots are the eigenvalues of the 6x6
    companion linearization [[0, I], [-M2^-1 M0, -M2^-1 M1]] (M2 is
    close to -I in the perturbative regime), found for every row in one
    stacked eigvals call: a transverse pair near +1, a pair near -1 and
    the longitudinal pair near 0.  A row must have exactly two roots
    with real part inside the bracket [1 - w, 1 + w], w = 5 s floored at
    1e-12 with s the max abs tensor component, and an imaginary part
    below sqrt(eps) (roundoff; the true roots are real).  Their real
    parts are the roots.

    Each polarization is the eigenvector of M at its root whose
    eigenvalue is smallest in magnitude, from one stacked eigh.  When
    the two roots agree to 1e-12 (a double root) both come from the
    lower root's eigh, as an orthonormal basis of the null space.  Every
    E must pass the residual check ||M E|| < 1e-10 |k|^2.  The zero
    tensor returns |k| twice with polarization_frame's eps1 and eps2.

    Raises ValueError for a zero wavevector or outside the perturbative
    regime: the config loader's rule, check_perturbative, on the
    magnitude of the parameters read off the tensor, and s > 0.1, which
    the bracket assumes (a set of magnitude 0.1 can have s up to 0.15,
    and a tensor that violates the invariants can hold entries the
    read-off skips).  Raises RuntimeError when a row fails the root
    selection or the residual check.
    """
    K = as_kf_components(kf)
    khats, knorms = _unit_rows(kvecs)
    check_perturbative(readoff_magnitude(K))
    strength = np.max(np.abs(K))
    if strength > PERTURBATIVE_LIMIT:
        raise ValueError("tensor outside the perturbative regime (max component > 0.1)")

    if strength == 0.0:
        frames = [polarization_frame(khat) for khat in khats]
        omegas = np.repeat(knorms[:, None], 2, axis=1)
        fields = np.array([[f.eps1, f.eps2] for f in frames], dtype=complex)
        return omegas, fields.reshape(-1, 2, 3)

    m0, m1, m2 = _ampere_coefficients(K, khats)
    m2_inv = np.linalg.inv(m2)
    companion = np.zeros((len(khats), 6, 6))
    companion[:, :3, 3:] = np.eye(3)
    companion[:, 3:, :3] = -m2_inv @ m0
    companion[:, 3:, 3:] = -m2_inv @ m1
    eigs = np.linalg.eigvals(companion)

    half_width = max(5.0 * strength, _MIN_BRACKET)
    found = (np.abs(eigs.real - 1.0) <= half_width) & (
        np.abs(eigs.imag) <= _ROOT_IMAG_TOL
    )
    misses = np.count_nonzero(np.count_nonzero(found, axis=1) != 2)
    if misses:
        raise RuntimeError(
            f"{misses} direction(s) without exactly two real transverse roots "
            "in the bracket; tensor too large for the bracket"
        )
    x = np.sort(eigs.real[found].reshape(-1, 2), axis=1)

    m = m0[:, None] + x[..., None, None] * m1[:, None] + (x**2)[..., None, None] * m2
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(np.abs(vals), axis=-1)
    nearest = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    fields = nearest[..., 0]
    double = x[:, 1] - x[:, 0] <= _DEGENERATE_RTOL
    fields[double, 1] = nearest[double, 0, :, 1]

    residual = np.linalg.norm(np.einsum("nrpq,nrq->nrp", m, fields), axis=-1)
    if np.any(residual > _RESIDUAL_RTOL):
        raise RuntimeError(f"root residual {np.max(residual):.3e} |k|^2 exceeds tolerance")
    return x * knorms[:, None], fields.astype(complex)


def solve_ampere(kf, kvec):
    """The two transverse solutions for one wavevector, as sorted (omega, E).

    The one-row case of solve_ampere_batch, with the same checks.
    """
    omegas, fields = solve_ampere_batch(kf, kvec)
    return [(float(omegas[0, r]), fields[0, r]) for r in range(2)]
