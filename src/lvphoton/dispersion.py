"""Classical plane-wave dispersion in the anisotropic vacuum.

Polarization frames with a fixed parity pairing between opposite wave
vectors, the leading-order fractional phase-velocity shift delta(k) for
the non-birefringent sector, the rho/sigma split of the general
leading-order dispersion relation, and a numerical solver for the
modified Ampere law that serves as the oracle for all of the closed
forms.  Each function takes one wave direction, a 3-vector, or many as
an array whose last axis has length 3, and returns results with the
directions' leading axes; one direction gives Python floats where a
value is a number.  A single direction goes through the same one-row
arithmetic as a row of a batch, so it gets the bits that row gets.
delta and rho/sigma also take stacked parameter sets or tensors, one
per direction.

frame_bilinears is where the parameters meet a frame; its E and O
become delta(+-k), the mixing (delta1, delta2) and the mode Hamiltonian's
transverse coefficients in transverse_coefficients alone.
"""

import warnings
from dataclasses import dataclass

import numpy as np

# dispersion_table builds its tensor through the module attribute, where
# a wrapper put on kappa_tensor.kf_from_kappas sees the call
from . import kappa_tensor as kt
from .kappa_tensor import (
    METRIC,
    PERTURBATIVE_LIMIT,
    as_kf_components,
    as_kf_stack,
    check_nonbiref,
    check_perturbative,
    readoff_magnitude,
)

_XHAT = np.array([1.0, 0.0, 0.0])
_YHAT = np.array([0.0, 1.0, 0.0])

#: The default wave direction, +z (read-only; copy it to modify).
Z_AXIS = np.array([0.0, 0.0, 1.0])
Z_AXIS.setflags(write=False)

#: Relative roundoff allowance on sigma^2, in units of |ktilde|^2.
SIGMA_SQ_RTOL = 1e-12

#: METRIC^aa METRIC^bb, the sign that lowering both indices of
#: ktilde^{ab} gives its entry 4 a + b.
_METRIC_SIGNS = np.outer(np.diag(METRIC), np.diag(METRIC)).ravel()

#: Largest half-width the root bracket's bound certifies: up to
#: 1 - 1/sqrt(2) from x = 1 the transverse singular value |1 - x^2| of
#: the isotropic Ampere matrix stays below its longitudinal one |x|^2.
_CERTIFIED_RADIUS = 1.0 - np.sqrt(0.5)

#: Roundoff allowance of a computed root, in units of |k|: the largest
#: imaginary part that a companion root may keep, and the slack by which
#: a root of either path may lie beyond its bound r-.  Under a backward
#: error of eps a double eigenvalue moves by about eps when it is
#: semisimple, as the transverse pair is, and by up to sqrt(eps) when it
#: is defective, as the companion matrix's longitudinal root at omega = 0
#: is (its imaginary parts reach ~2e-8).  sqrt(eps) admits roundoff of
#: either kind; the residual check judges the rest.
_ROOT_IMAG_TOL = float(np.sqrt(np.finfo(float).eps))

#: Relative splitting below which the two roots count as one double
#: root: both polarizations then come from one eigh, as an orthonormal
#: basis of its null space.  It sits above the root error of the
#: companion fallback (~3e-14; the Newton roots agree with the
#: companion's to ~5e-15) and keeps the second vector's residual, about
#: twice the splitting times |k|^2, well inside the 1e-10 |k|^2 check.
_DEGENERATE_RTOL = 1e-12

#: Residual tolerance of an Ampere solution, in units of |k|^2.
_RESIDUAL_RTOL = 1e-10

#: Newton steps on the transverse Schur complement, at most, and the step
#: at or below which a branch counts as converged: a few units in the
#: last place of a root x ~ 1.
_NEWTON_STEPS = 12
_NEWTON_TOL = 4.0 * np.finfo(float).eps
#: The powers that differentiate a quartic's coefficients.
_POWERS = np.arange(1.0, 5.0)
_TINY = np.finfo(float).tiny
#: Rows 9 r + 3 c + s of _schur_newton's rotated coefficients, (power c,
#: entry), that hold the factors of P = N_LL N_TT - t t^T: N_LL times
#: N11, N12 and N22, then t1 t1, t1 t2 and t2 t2; and N_LL itself.
_SCHUR_LEFT = 3 * np.arange(3)[:, None] + 9 * np.array([2, 2, 2, 0, 0, 1]) + 2
_SCHUR_RIGHT = 3 * np.arange(3)[:, None] + np.array([0, 1, 10, 2, 11, 11])
_SCHUR_CORNER = 3 * np.arange(3) + 20
#: Sign of the hypot term of each branch, the lower root's first.
_BRANCH = np.array([[-1.0], [1.0]])
#: Rows per block of a dispersion grid.  dispersion_table, the root
#: solver and the dispersion command's report writer take a grid this
#: many rows at a time, so the block, not the grid, sets their working
#: memory.  Every step is row by row, so a row's bits do not depend on
#: its block.  1024-row blocks solve a 5001-row grid as fast as one call
#: on the whole grid does.
BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class PolarizationFrame:
    """Right-handed orthonormal triad (eps1, eps2, khat), per direction.

    Each field has the shape of khat: (3,) for one direction, lead + (3,)
    for many.
    """

    eps1: np.ndarray
    eps2: np.ndarray
    khat: np.ndarray


def _canonical_hemisphere(khats):
    """Rows with k_z > 0, ties broken by k_y > 0 and then k_x > 0."""
    kx, ky, kz = khats.T
    return (kz > 0.0) | ((kz == 0.0) & ((ky > 0.0) | ((ky == 0.0) & (kx > 0.0))))


def _rows(vectors):
    """An array of 3-vectors as (n, 3) rows; one 3-vector is one row.

    The one shape check of directions: an array whose last axis does
    not have length 3 is refused, never reshaped into other rows.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim == 0 or vectors.shape[-1] != 3:
        raise ValueError("a direction needs an array whose last axis has length 3")
    return vectors.reshape(-1, 3)


def _gram_schmidt(axis, khats):
    """The fixed axis minus its projection on each row, and that remainder's norm."""
    e = axis - (khats @ axis)[:, None] * khats
    return e, np.sqrt(np.vecdot(e, e))


def _frames(khats):
    """eps1 and eps2 of polarization_frame for the (n, 3) unit rows khats.

    Every row comes out bit for bit as it does alone, as a one-row array.
    """
    canonical = _canonical_hemisphere(khats)
    base = np.where(canonical[:, None], khats, -khats)
    e1, n = _gram_schmidt(_XHAT, base)
    near_x = n < 1e-8
    if near_x.any():
        e1[near_x], n[near_x] = _gram_schmidt(_YHAT, base[near_x])
    e1 /= n[:, None]
    (b0, b1, b2), (c0, c1, c2) = base.T, e1.T
    # base x e1, the products and differences that np.cross takes
    e2 = np.column_stack((b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0))
    return e1, np.where(canonical[:, None], e2, -e2)


def polarization_frame(khat):
    """Deterministic transverse frame for a unit wavevector, or for each of many.

    The frame is built by Gram-Schmidt of x-hat (y-hat when khat is
    within 1e-8 of x-hat) in a canonical hemisphere (k_z > 0, ties
    broken by k_y then k_x) and extended to the opposite hemisphere by
    the parity rules

        eps1(-k) = +eps1(k),  eps2(-k) = -eps2(k),  khat(-k) = -khat(k),

    so the rules hold exactly by construction.  eps1 x eps2 = khat in
    both hemispheres.  khat of shape lead + (3,) gives a frame whose
    fields have that shape.
    """
    khat = np.asarray(khat, dtype=float)
    khats = _rows(khat)
    if np.any(np.abs(np.sqrt(np.vecdot(khats, khats)) - 1.0) > 1e-12):
        raise ValueError("khat must be a unit 3-vector")
    e1, e2 = _frames(khats)
    return PolarizationFrame(
        eps1=e1.reshape(khat.shape), eps2=e2.reshape(khat.shape), khat=khat.copy()
    )


def frame_bilinears(kappas, frame):
    """Frame bilinears E_rs = eps_r.(e_minus + I tr).eps_s and O_rs = eps_r.o_plus.eps_s.

    Indices 1..3 are eps1, eps2 and khat; the scalar row and column 0
    are zero (the kappa matrices are purely spatial).  kappas is one
    KappaSet or stacked sets whose leading shape broadcasts against the
    frame's; E and O have that shape + (4, 4).  Each (set, direction)
    pair goes through the same two small products, so it gets the bits
    it gets on its own.
    """
    vecs = np.stack((frame.eps1, frame.eps2, frame.khat), axis=-2)
    emt = kappas.e_minus + np.multiply.outer(kappas.tr, np.eye(3))
    # eps_r.emt and eps_r.o_plus side by side, then each of those six rows
    # dotted with eps_s: one product per pair and step
    rows = vecs @ np.concatenate((emt, kappas.o_plus), axis=-1)
    lead = rows.shape[:-2]
    both = (rows.reshape(lead + (6, 3)) @ vecs.mT).reshape(lead + (3, 2, 3))
    out = np.zeros(lead + (2, 4, 4))
    out[..., 1:, 1:] = np.moveaxis(both, -2, -3)
    return out[..., 0, :, :], out[..., 1, :, :]


def transverse_coefficients(E, O):
    """The transverse coefficients of the mode Hamiltonian and Xi, from E and O.

    Returns (delta(+k), delta(-k), d, E12, delta1, delta2) of the
    frame_bilinears E and O:

        delta(+-k) = +-O12 - (E11 + E22) / 2   the phase-velocity shifts
        d = (E11 - E22) / 2 and E12            the +k/-k transverse mixing of H
        delta1 = (E11 - E22) / 4, delta2 = E12 / 2   the mixing that Xi removes

    Only eps2 of eps1, eps2 flips with k (polarization_frame's parity
    rules), so of these only O12 changes sign from +k to -k.  Leading
    axes as in frame_bilinears; one frame gives numpy scalars.  It
    refuses nothing: its callers check the set.
    """
    e11, e22, o12 = E[..., 1, 1], E[..., 2, 2], O[..., 1, 2]
    e12 = E[..., 1, 2][()]  # [()]: a numpy scalar for one frame, as the others are
    half_trace = 0.5 * (e11 + e22)
    shifts = (o12 - half_trace, -o12 - half_trace)
    return (*shifts, 0.5 * (e11 - e22), e12, 0.25 * (e11 - e22), 0.5 * e12)


def mixing_deltas(kappas, frame):
    """(delta1, delta2) = ((E11 - E22) / 4, E12 / 2) of transverse_coefficients.

    The coefficients of Xi and of the potentials' mixing; tr cancels in
    both, to roundoff of the frame's orthogonality (eps1 . eps2 = 0 only
    to roundoff in an oblique frame, which leaves at most 2 eps |tr|),
    but is kept in E.  Leading axes as in frame_bilinears; sets
    outside the first-order model are refused (check_nonbiref).
    """
    check_nonbiref(kappas)
    E, O = frame_bilinears(kappas, frame)
    return transverse_coefficients(E, O)[4:]


def delta_nonbiref(k, khat):
    """Fractional phase-velocity shift for the non-birefringent sector.

        delta(k) = O12 - (E11 + E22) / 2 = eps1 . o_plus . eps2
                   - (1/2) sum_{r=1,2} eps_r . (e_minus + I tr) . eps_r

    delta(+k) of transverse_coefficients in the frame of polarization_frame,
    per unit direction of khat.  k is one KappaSet for every direction,
    or stacked sets, one per direction, whose leading shape broadcasts
    against the directions'.  One set and one direction give a float.
    Only valid with e_plus = o_minus = 0; birefringent input is rejected
    since the shift is then polarization-dependent.
    """
    if np.any(k.is_birefringent):
        raise ValueError("delta is polarization-independent only without birefringence")
    E, O = frame_bilinears(k, polarization_frame(khat))
    delta = transverse_coefficients(E, O)[0]
    return float(delta) if delta.ndim == 0 else delta


def _unit_rows(kvecs):
    """kvecs as (n, 3) unit rows, with their norms; zero rows are refused.

    The one normalizer of directions and wavevectors.  np.vecdot takes
    the same dot product that np.linalg.norm takes of a single row, so
    each row comes out bit for bit as it would alone.  A row whose
    squared norm leaves the normal double range (|k| below about 1e-154
    or above 1e154) is first divided by its largest entry, and its norm
    scaled back by it.
    """
    kvecs = _rows(kvecs)
    with np.errstate(over="ignore"):
        squares = np.vecdot(kvecs, kvecs)
    scale = np.ones(len(kvecs))
    far = ~((squares >= _TINY) & (squares < np.inf))
    if far.any():
        with np.errstate(invalid="ignore"):  # a zero or infinite row gives nan: refused
            scale[far] = np.max(np.abs(kvecs[far]), axis=1)
            kvecs = kvecs / scale[:, None]
        squares = np.vecdot(kvecs, kvecs)
    norms = np.sqrt(squares)
    if not np.all(norms > 0.0):
        raise ValueError("spatial wavevector must be nonzero")
    return kvecs / norms[:, None], norms * scale


def random_directions(rng, count=None):
    """Seeded isotropic unit 3-vectors, one per row of a (count, 3) array.

    count=None draws a single vector, as numpy's size=None draws a single
    number.  The stream is that of count separate size-3 normal draws,
    so a batch holds the vectors that one-at-a-time draws would give.
    """
    return direction_draws(rng.normal(size=3 if count is None else (count, 3)))


def direction_draws(normals):
    """The unit vectors along these 3-vectors, one per 3-vector; zero ones are refused.

    Of standard normals these are isotropic random directions.
    """
    return _unit_rows(normals)[0].reshape(np.shape(normals))


def ktilde(kf, khats):
    """Two-index contraction ktilde^{ab} = K^{a m b n} khat_m khat_n per direction.

    One (4, 4) matrix per unit spatial direction of khats (shape
    lead + (3,)), with the frequency seeded at |k| (leading order).  kf
    is one tensor for every direction, or one per direction.  The
    subscripted wave four-vector carries the components (omega, +k), a
    convention pinned by the printed closed forms for rho and delta
    along z, so the contraction uses (1, +khat).

    One broadcast product: each direction's pairs k_m k_n, a (1, 16) row,
    times K as a (16, 16) matrix from (m, n) to (a, b), so that a row's
    bits do not depend on how many directions share the call.
    """
    K = as_kf_stack(kf)
    khats = np.asarray(khats, dtype=float)
    klow = np.concatenate((np.ones(khats.shape[:-1] + (1,)), khats), axis=-1)
    pairs = (klow[..., :, None] * klow[..., None, :]).reshape(khats.shape[:-1] + (1, 16))
    matrix = np.moveaxis(K, (-4, -2), (-2, -1)).reshape(K.shape[:-4] + (16, 16))
    return (pairs @ matrix).reshape(pairs.shape[:-2] + (4, 4))


def rho_sigma(kf, khat):
    """Polarization-independent and birefringent phase-velocity shifts.

        rho    = -(1/2) ktilde^a_a
        sigma^2 = (1/2) ktilde_{ab} ktilde^{ab} - rho^2

    One value of each per direction of khat (normalized first), with
    kf one tensor for every direction or one per direction (the
    directions' leading shape); one tensor and one direction give two
    floats.  sigma is the nonnegative root.  Roundoff in the difference
    scales with |ktilde|^2 (up to ~30 eps times it over random draws),
    so only a sigma^2 below -SIGMA_SQ_RTOL * |ktilde|^2 counts as beyond
    numerical noise: each such direction warns once before its sigma^2
    is clamped to zero.
    """
    K = as_kf_stack(kf)
    khats, _ = _unit_rows(khat)
    lead = np.shape(khat)[:-1] or K.shape[:-4]
    if K.ndim > 4 and K.shape[:-4] != lead:
        raise ValueError("one tensor per direction needs the directions' leading shape")
    tilde = ktilde(K.reshape(-1, 4, 4, 4, 4) if K.ndim > 4 else K, khats).reshape(-1, 16)
    # the diagonal: entries 4 a + a
    rho = -0.5 * (tilde[:, 0] - tilde[:, 5] - tilde[:, 10] - tilde[:, 15])
    sigma_sq = 0.5 * np.vecdot(tilde * _METRIC_SIGNS, tilde) - rho**2
    noisy = sigma_sq < -SIGMA_SQ_RTOL * np.vecdot(tilde, tilde)
    for value in sigma_sq[noisy]:
        warnings.warn(f"sigma^2 = {value:.3e} < 0 beyond roundoff; clamping to 0")
    sigma = np.sqrt(np.maximum(sigma_sq, 0.0))
    if not lead:
        return float(rho[0]), float(sigma[0])
    return rho.reshape(lead), sigma.reshape(lead)


def dispersion_table(kappas, kvecs):
    """The dispersion report's twelve columns by name, each of kvecs' leading shape.

    kvecs' components, the shifts delta (None for a birefringent set),
    rho and sigma, the closed forms (1 + rho -+ sigma) |k|, ampere_roots
    and each root's distance from its closed form.  The tensor is built
    once, and rho_sigma and delta take BLOCK_ROWS rows at a time, as the
    root solver does: every row keeps its own bits, the temporaries are
    one block's, and sigma^2 warnings come in row order, before the
    roots.  Raises as ampere_roots does.
    """
    lead = np.shape(kvecs)[:-1]
    kvecs = _rows(kvecs)
    kf = kt.kf_from_kappas(kappas)
    khats, norms = _unit_rows(kvecs)
    rho, sigma = np.empty(len(khats)), np.empty(len(khats))
    delta = None if kappas.is_birefringent else np.empty(len(khats))
    for start in range(0, len(khats), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        rho[rows], sigma[rows] = rho_sigma(kf, khats[rows])
        if delta is not None:
            delta[rows] = delta_nonbiref(kappas, khats[rows])
    closed = np.column_stack(((1.0 + rho - sigma) * norms, (1.0 + rho + sigma) * norms))
    roots = ampere_roots(kf, kvecs)
    columns = (
        *kvecs.T, delta, rho, sigma, *closed.T, *roots.T, *np.abs(roots - closed).T,
    )
    names = (
        "kx", "ky", "kz", "delta", "rho", "sigma", "omega_minus", "omega_plus",
        "omega_minus_root", "omega_plus_root", "residual_minus", "residual_plus",
    )
    return {name: None if c is None else c.reshape(lead) for name, c in zip(names, columns)}


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
    # K^{pijq} k_i k_j as one (n, 9) x (9, 9) product, for every n.  BLAS
    # rounds a single row (its matrix-vector kernel) differently, so a
    # single row goes in twice: a row's M0 does not depend on its batch.
    pairs = (kvecs[:, :, None] * kvecs[:, None, :]).reshape(-1, 9)
    if len(pairs) == 1:
        pairs = np.vstack((pairs, pairs))
    spatial = K[1:, 1:, 1:, 1:].transpose(1, 2, 0, 3).reshape(9, 9)
    m0 -= 2.0 * (pairs @ spatial)[: len(kvecs)].reshape(-1, 3, 3)
    return m0, m1, m2


def _frobenius(m):
    """Frobenius norm of each 3x3 matrix of a stack."""
    flat = m.reshape(-1, 9)
    return np.sqrt(np.vecdot(flat, flat))


def _root_bound(khats, m0, m1, m2):
    """Bound r- on the distance of each row's transverse roots from x = 1.

    Write M(x) = M_iso(x) + dM(x), with M_iso(x) = (1 - x^2) P_T - x^2 P_L
    the Ampere matrix of the isotropic vacuum (P_T and P_L project
    across and along khat).  Around x = 1, with u = x - 1,

        dM(x) = dM(1) + u dM'(1) + u^2 (M2 + I),
        dM(1) = M(1) + khat khat^T,  dM'(1) = M1 + 2 M2 + 2 I.

    At a root, complex or real, M(x) is singular, so the smallest
    singular value of M_iso(x) is at most ||dM(x)||_2, which is at most
    d0 + d1 |u| + a |u|^2 with d0, d1, a the Frobenius norms of the
    three coefficients.  For |u| <= 1 - 1/sqrt(2) that singular value is
    |1 - x^2| >= |u| (2 - |u|), so every root there satisfies

        q(|u|) = (1 + a) |u|^2 - (2 - d1) |u| + d0 >= 0,

    that is |u| <= r- or |u| >= r+, the roots of q.  When r- < 1 -
    1/sqrt(2), M(x) is regular on every circle |u| = rho between r- and
    min(r+, 1 - 1/sqrt(2)), for the tensor and for every fraction of it;
    so that disc holds as many roots as the isotropic vacuum's does,
    the transverse double root x = 1.  Both transverse roots then lie
    within r- of x = 1, and no other root within rho.  Rows where q has
    no such root r- get inf.
    """
    d0 = _frobenius(m0 + m1 + m2 + khats[:, :, None] * khats[:, None, :])
    d1 = _frobenius(m1 + 2.0 * (m2 + np.eye(3)))
    a = _frobenius(m2 + np.eye(3))[0]
    b = 2.0 - d1
    disc = b * b - 4.0 * (1.0 + a) * d0
    r_minus = np.divide(
        2.0 * d0,
        b + np.sqrt(np.maximum(disc, 0.0)),
        out=np.full_like(d0, np.inf),
        where=(b > 0.0) & (disc > 0.0),
    )
    return np.where(r_minus < _CERTIFIED_RADIUS, r_minus, np.inf)


def _root_residuals(m, double):
    """||M E|| of each root's polarization, in units of |k|^2, from eigenvalues.

    The polarization of a root is the unit eigenvector of M at that root
    whose eigenvalue is smallest in magnitude, and at a double root the
    second one is the lower root's eigenvector with the second-smallest
    |eigenvalue|.  For symmetric M and a unit eigenvector E of
    eigenvalue lambda, ||M E|| = |lambda|, so no eigenvector is needed.
    """
    vals = np.sort(np.abs(np.linalg.eigvalsh(m)), axis=-1)
    residual = vals[..., 0]
    residual[double, 1] = vals[double, 0, 1]
    return residual


def _quadratic_products(f, g):
    """Coefficients of f g for quadratics f and g, the power on the first axis."""
    out = np.zeros((5,) + g.shape[1:])
    for power in range(3):
        out[power : power + 3] += f[power] * g
    return out


def _schur_newton(khats, m0, m1, m2, bound):
    """The two transverse roots of each row by Newton on the transverse Schur complement.

    Rotated into the frame (eps1, eps2, khat), M(x) has the transverse
    block N_TT, the column t = N_TL and the corner N_LL, all quadratic in
    x.  Where N_LL != 0, M(x) is singular exactly when the Schur
    complement S = N_TT - t t^T / N_LL is, and so when the quartic
    P = N_LL S = N_LL N_TT - t t^T is.  The transverse roots are the
    zeros of P's two eigenvalue branches

        nu-+ = (p + r)/2 -+ hypot((p - r)/2, q),  P = [[p, q], [q, r]],

    each a simple zero even where the two roots meet.  Newton runs on
    both branches of every row from x = 1, as one (2, n) array; a branch
    whose step falls to roundoff is frozen there, so a row takes the
    steps it takes alone, and the loop ends when every branch is frozen.
    A row is certified when both branches converged, both zeros lie
    within its bound r- (plus sqrt(eps)) of x = 1, and N_LL < 0 at both:
    the bound leaves no other root in that disc (see _root_bound), so
    these are the row's two roots.  Returns the (n, 2) roots, ascending,
    with nan in the rows not certified.
    """
    n = len(khats)
    e1, e2 = _frames(khats)
    frame = np.concatenate((e1, e2, khats), axis=1).reshape(n, 3, 3)
    # frame M_c frame^T for c = 0, 1, 2 in two products per row, as rows
    # 9 r + 3 c + s of a (27, n) array
    powers = np.empty((n, 3, 9))
    powers[..., :3], powers[..., 3:6], powers[..., 6:] = m0, m1, m2
    side = frame @ powers
    rotated = np.ascontiguousarray((side.reshape(n, 9, 3) @ frame.mT).reshape(n, 27).T)
    products = _quadratic_products(rotated[_SCHUR_LEFT], rotated[_SCHUR_RIGHT])
    p, q, r = (products[:, :3] - products[:, 3:]).swapaxes(0, 1)
    # (power, quartic, 1, row): (p + r)/2, (p - r)/2 and q, then their derivatives
    coefficients = np.zeros((5, 6, 1, n))
    quartics = coefficients[:, :3, 0]
    quartics[:, 0], quartics[:, 1], quartics[:, 2] = 0.5 * (p + r), 0.5 * (p - r), q
    coefficients[:4, 3:, 0] = quartics[1:] * _POWERS[:, None, None]
    # (branch, row), the lower root's branch first
    x = np.ones((2, n))
    active = np.ones(x.shape, dtype=bool)
    with np.errstate(all="ignore"):  # a branch that runs off is refused below
        for _ in range(_NEWTON_STEPS):
            values = coefficients[4] * x + coefficients[3]
            for power in (2, 1, 0):
                values = values * x + coefficients[power]
            mean, half, off, mean_slope, half_slope, off_slope = values
            split = np.hypot(half, off)
            # where split is 0, so are half and off, and the slope taken is 0
            split_slope = (half * half_slope + off * off_slope) / np.maximum(split, _TINY)
            step = (mean + _BRANCH * split) / (mean_slope + _BRANCH * split_slope)
            np.subtract(x, step, out=x, where=active)
            active &= np.abs(step) > _NEWTON_TOL
            if not active.any():
                break
        ell = rotated[_SCHUR_CORNER]
        ell = ell[0] + x * (ell[1] + x * ell[2])
        certified = (ell < 0.0) & (np.abs(x - 1.0) <= bound + _ROOT_IMAG_TOL) & ~active
    x = np.sort(x.T, axis=1)
    x[~(certified.all(axis=0) & np.isfinite(bound))] = np.nan
    return x


def _companion_roots(m0, m1, m2, bound, strength):
    """The two transverse roots of each row from the 6x6 companion; see ampere_roots.

    Rows without exactly two real roots in their bracket get nan.
    """
    m2_inv = np.linalg.inv(m2)
    companion = np.zeros((len(m0), 6, 6))
    companion[:, :3, 3:] = np.eye(3)
    companion[:, 3:, :3] = -m2_inv @ m0
    companion[:, 3:, 3:] = -m2_inv @ m1
    eigs = np.linalg.eigvals(companion)
    half_width = np.maximum(
        np.where(np.isfinite(bound), bound + _ROOT_IMAG_TOL, 0.0), 5.0 * strength
    )
    found = (np.abs(eigs.real - 1.0) <= half_width[:, None]) & (
        np.abs(eigs.imag) <= _ROOT_IMAG_TOL
    )
    two = np.count_nonzero(found, axis=1) == 2
    x = np.full((len(m0), 2), np.nan)
    x[two] = np.sort(eigs.real[two][found[two]].reshape(-1, 2), axis=1)
    return x


def _block_roots(K, strength, khats):
    """Roots x of one block of unit rows, and M(x) at them; see ampere_roots.

    Returns the (n, 2) roots, nan in the rows that the companion leaves
    without exactly two roots, and the (n, 2, 3, 3) Ampere matrices at
    the roots, or None when any row has nan.
    """
    m0, m1, m2 = _ampere_coefficients(K, khats)
    bound = _root_bound(khats, m0, m1, m2)
    x = _schur_newton(khats, m0, m1, m2, bound)
    rest = np.isnan(x[:, 0])
    if rest.any():
        x[rest] = _companion_roots(m0[rest], m1[rest], m2, bound[rest], strength)
        if np.isnan(x[:, 0]).any():
            return x, None
    return x, m0[:, None] + x[..., None, None] * m1[:, None] + (x**2)[..., None, None] * m2


def _polarizations(m, double):
    """Each root's polarization: the eigenvector of M whose |eigenvalue| is smallest.

    At a double root the second one is the lower root's eigenvector with
    the second-smallest |eigenvalue|.
    """
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(np.abs(vals), axis=-1)
    nearest = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    fields = nearest[..., 0]
    fields[double, 1] = nearest[double, 0, :, 1]
    return fields


def _transverse_roots(kf, kvecs, polarizations=False):
    """Validated roots x = omega/|k| of every row of kvecs; see ampere_roots.

    Returns the norms of the rows of kvecs, their (n, 2) roots and, with
    polarizations, the (n, 2, 3) real polarizations of solve_ampere
    (else None).  The rows go through the solver BLOCK_ROWS at a time:
    coefficients, bound, Newton, companion fallback, residual check and
    eigenvectors, so that the working arrays are a block's, not the
    whole input's.  The refusals read every row: the companion's count
    of directions without two roots, and the largest residual.
    """
    K = as_kf_components(kf)
    khats, knorms = _unit_rows(kvecs)
    check_perturbative(readoff_magnitude(K))
    strength = np.max(np.abs(K))
    if strength > PERTURBATIVE_LIMIT:
        raise ValueError("tensor outside the perturbative regime (max component > 0.1)")
    n = len(khats)
    if strength == 0.0:
        fields = np.stack(_frames(khats), axis=1) if polarizations else None
        return knorms, np.ones((n, 2)), fields

    x = np.empty((n, 2))
    fields = np.empty((n, 2, 3)) if polarizations else None
    misses, exceeded, worst = 0, False, -np.inf
    for start in range(0, n, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        x[rows], m = _block_roots(K, strength, khats[rows])
        if m is None or misses:
            misses += np.count_nonzero(np.isnan(x[rows, 0]))
            continue
        double = x[rows, 1] - x[rows, 0] <= _DEGENERATE_RTOL
        residual = _root_residuals(m, double)
        exceeded |= bool(np.any(residual > _RESIDUAL_RTOL))
        worst = max(worst, np.max(residual))
        if polarizations:
            fields[rows] = _polarizations(m, double)
    if misses:
        raise RuntimeError(
            f"{misses} direction(s) without exactly two real transverse roots "
            "in the bracket; tensor too large for the bracket"
        )
    if exceeded:
        raise RuntimeError(f"root residual {worst:.3e} |k|^2 exceeds tolerance")
    return knorms, x, fields


def ampere_roots(kf, kvecs):
    """The two transverse roots omega of the modified Ampere law per wavevector.

    Returns an array of shape lead + (2,) for kvecs of shape lead + (3,),
    each pair in ascending order.

    The frequency is solved for in units of |k| on the unit direction,
    where M(x) = M0 + x M1 + x^2 M2 is quadratic in x = omega/|k| (see
    _ampere_coefficients).  _root_bound gives each row a radius r- about
    x = 1 that holds its two transverse roots and no other root.  Newton
    on the two eigenvalue branches of the transverse Schur complement
    finds both roots of every row at once (_schur_newton), and a row is
    taken when both converged to roundoff within r- + sqrt(eps).  The
    other rows, those without a finite bound (near the perturbative
    limit) or whose Newton did not settle inside it, go to the 6x6
    companion linearization [[0, I], [-M2^-1 M0, -M2^-1 M1]] (M2 is
    close to -I in the perturbative regime), whose six roots per row
    come from one stacked eigvals call on such rows: a transverse pair
    near +1, a pair near -1 and the longitudinal pair near 0.  Such a
    row must have exactly two roots with real part inside its bracket
    [1 - w, 1 + w] and an imaginary part below sqrt(eps) (roundoff; the
    true roots are real).  Their real parts are the roots.  w is r- plus
    sqrt(eps), and never below 5 s, with s the max abs tensor component:
    where the bound certifies nothing, near the perturbative limit, 5 s
    still brackets the roots of most directions.  Every row goes through
    the same arithmetic however many rows share the call, so the rows go
    through all of this BLOCK_ROWS at a time (_transverse_roots): the
    working memory is one block's, and every root has the bits that one
    call on all rows gives.

    Every root must pass the residual check ||M E|| < 1e-10 |k|^2 on
    the polarization E that solve_ampere returns for it.  That
    residual is an eigenvalue of the symmetric M at the root, so one
    stacked eigvalsh judges it without eigenvectors (_root_residuals).
    The zero tensor returns |k| twice.

    Raises ValueError for a zero wavevector or outside the perturbative
    regime: the config loader's rule, check_perturbative, on the
    magnitude of the parameters read off the tensor, and s > 0.1, which
    the 5 s bracket assumes (a set of magnitude 0.1 can have s up to
    0.15, and a tensor that violates the invariants can hold entries the
    read-off skips).  Raises RuntimeError when a row fails the root
    selection or the residual check; the message counts the rows
    without two roots, or gives the largest residual, over every block.
    """
    knorms, x, _ = _transverse_roots(kf, kvecs)
    return (x * knorms[:, None]).reshape(np.shape(kvecs)[:-1] + (2,))


def solve_ampere(kf, kvec):
    """Numerically solve the modified Ampere law for every wavevector of kvec.

    Returns (omegas, fields) for kvec of shape lead + (3,): omegas, of
    shape lead + (2,), holds each wavevector's two transverse roots in
    ascending order, as ampere_roots finds and checks them, and fields,
    of shape lead + (2, 3), their complex polarizations.

    Each polarization is the eigenvector of M at its root whose
    eigenvalue is smallest in magnitude, from one stacked eigh per block
    of rows.  When the two roots agree to 1e-12 (a double root) both
    come from the lower root's eigh, as an orthonormal basis of the null
    space.  The zero tensor's polarizations are polarization_frame's
    eps1 and eps2.  Raises as ampere_roots does.
    """
    knorms, x, fields = _transverse_roots(kf, kvec, polarizations=True)
    lead = np.shape(kvec)[:-1]
    omegas = (x * knorms[:, None]).reshape(lead + (2,))
    return omegas, fields.astype(complex).reshape(lead + (2, 3))
