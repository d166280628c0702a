"""Tests for polarization frames and leading-order dispersion.

The ktilde oracle is an explicit double loop; the dispersion closed
forms are checked against the numerical Ampere-law solver, the solver
against a bisection reference, and its Newton roots against the 6x6
companion eigensolve that it falls back on.
"""

import re
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from lvphoton import dispersion as dp
from lvphoton import kappa_tensor as kt

import bilinear_reference  # tests/bilinear_reference.py
import kf_reference  # tests/kf_reference.py


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotate_kappas(k, R):
    return kt.KappaSet(
        e_minus=kt.sym_traceless(R @ k.e_minus @ R.T),
        o_plus=kt.antisym(R @ k.o_plus @ R.T),
        tr=k.tr,
        e_plus=kt.sym_traceless(R @ k.e_plus @ R.T),
        o_minus=kt.sym_traceless(R @ k.o_minus @ R.T),
    )


def test_random_directions_match_one_at_a_time_draws():
    # a batch is the stream of separate size-3 draws, each row normalized
    # bit for bit as np.linalg.norm normalizes it alone
    for seed in range(1, 6):
        rng = np.random.default_rng(seed)
        want = []
        for _ in range(2000):
            v = rng.normal(size=3)
            want.append(v / np.linalg.norm(v))
        got = dp.random_directions(np.random.default_rng(seed), 2000)
        assert np.array_equal(got, np.array(want))
        rng = np.random.default_rng(seed)
        singles = [dp.random_directions(rng) for _ in range(50)]
        assert np.array_equal(np.array(singles), got[:50])
    assert dp.random_directions(np.random.default_rng(1), 0).shape == (0, 3)


# ---------------------------------------------------------------- frames


def test_frame_along_z():
    f = dp.polarization_frame([0.0, 0.0, 1.0])
    assert np.allclose(f.eps1, [1, 0, 0], atol=0)
    assert np.allclose(f.eps2, [0, 1, 0], atol=0)
    f = dp.polarization_frame([0.0, 0.0, -1.0])
    assert np.allclose(f.eps1, [1, 0, 0], atol=0)
    assert np.allclose(f.eps2, [0, -1, 0], atol=0)


def test_frame_orthonormal_right_handed():
    rng = np.random.default_rng(21)
    for _ in range(100):
        khat = dp.random_directions(rng)
        f = dp.polarization_frame(khat)
        assert abs(f.eps1 @ f.eps2) < 1e-14
        assert abs(np.linalg.norm(f.eps1) - 1) < 1e-14
        assert abs(np.linalg.norm(f.eps2) - 1) < 1e-14
        assert np.max(np.abs(np.cross(f.eps1, f.eps2) - khat)) < 1e-14
        assert np.array_equal(f.khat, khat)


def test_frame_parity_pairing_exact():
    rng = np.random.default_rng(22)
    for _ in range(500):
        khat = dp.random_directions(rng)
        f = dp.polarization_frame(khat)
        g = dp.polarization_frame(-khat)
        assert np.array_equal(g.eps1, f.eps1)
        assert np.array_equal(g.eps2, -f.eps2)
        assert np.array_equal(g.khat, -f.khat)


def test_frame_rejects_non_unit():
    with pytest.raises(ValueError):
        dp.polarization_frame([0.0, 0.0, 2.0])


def _rowwise_frame(khat):
    """eps1 and eps2 built one direction at a time, as earlier versions did.

    The reference for polarization_frame: Gram-Schmidt of x-hat (y-hat
    within 1e-8 of x-hat) in the canonical hemisphere, one norm and one
    cross product per direction.
    """
    xhat, yhat = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])

    def transverse(k):
        e1 = xhat - (xhat @ k) * k
        n = np.linalg.norm(e1)
        if n < 1e-8:
            e1 = yhat - (yhat @ k) * k
            n = np.linalg.norm(e1)
        e1 = e1 / n
        return e1, np.cross(k, e1)

    if khat[2] != 0.0:
        canonical = khat[2] > 0.0
    elif khat[1] != 0.0:
        canonical = khat[1] > 0.0
    else:
        canonical = khat[0] > 0.0
    if canonical:
        return transverse(khat)
    e1, e2 = transverse(-khat)
    return e1, -e2


def _rowwise_delta(k, khat):
    """delta_nonbiref one direction at a time, on the reference frame."""
    e1, e2 = _rowwise_frame(khat)
    emt = k.e_minus + np.eye(3) * k.tr
    return float(e1 @ k.o_plus @ e2 - 0.5 * (e1 @ emt @ e1 + e2 @ emt @ e2))


def _frame_test_directions(rng, count):
    """count random directions plus the frame's edge cases.

    The edge cases are the axes, the k_z = 0 circle where the hemisphere
    falls to k_y and k_x, signed zeros, and directions on either side of
    the 1e-8 switch from x-hat to y-hat.
    """
    phi = rng.uniform(0.0, 2.0 * np.pi, size=200)
    circle = np.column_stack((np.cos(phi), np.sin(phi), np.zeros_like(phi)))
    zeros = [
        [-0.0, 0.0, 1.0], [0.0, -0.0, -1.0], [1.0, -0.0, 0.0], [-1.0, 0.0, -0.0],
        [0.0, 1.0, -0.0], [-0.0, -1.0, 0.0], [1.0, 0.0, -0.0], [-1.0, -0.0, 0.0],
    ]
    near_x = []
    for eps in 10.0 ** rng.uniform(-10.0, -7.0, size=60) * rng.choice([-1.0, 1.0], size=60):
        for v in ([1.0, eps, eps], [1.0, eps, 0.0], [1.0, 0.0, eps], [-1.0, eps, -eps]):
            near_x.append(np.array(v) / np.linalg.norm(v))
    return np.vstack((
        dp.random_directions(rng, count), np.eye(3), -np.eye(3), circle, zeros, near_x,
    ))


def test_batched_frames_match_the_rowwise_reference_bit_for_bit():
    khats = _frame_test_directions(np.random.default_rng(20), 12000)
    frames = dp.polarization_frame(khats)
    eps1, eps2 = frames.eps1, frames.eps2
    assert eps1.shape == eps2.shape == khats.shape and np.array_equal(frames.khat, khats)
    for khat, e1, e2 in zip(khats, eps1, eps2):
        want1, want2 = _rowwise_frame(khat)
        one = dp.polarization_frame(khat)
        for got, want in ((e1, want1), (e2, want2), (one.eps1, want1), (one.eps2, want2)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_polarization_frames_reject_non_unit_rows():
    with pytest.raises(ValueError, match="unit"):
        dp.polarization_frame([[0.0, 0.0, 1.0], [0.0, 0.0, 1.1]])
    # a flat vector of 3m entries is not m directions
    with pytest.raises(ValueError, match="last axis"):
        dp.polarization_frame([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    assert dp.polarization_frame(np.zeros((0, 3))).eps1.shape == (0, 3)
    # leading axes are kept: each frame is the one of its direction alone
    khats = dp.random_directions(np.random.default_rng(21), 12).reshape(3, 4, 3)
    frames = dp.polarization_frame(khats)
    assert frames.eps1.shape == frames.eps2.shape == (3, 4, 3)
    for index in np.ndindex(3, 4):
        one = dp.polarization_frame(khats[index])
        assert np.array_equal(one.eps1, frames.eps1[index])
        assert np.array_equal(one.eps2, frames.eps2[index])


# ---------------------------------------------------------------- ktilde


def ktilde_oracle(kf_raised, khat):
    # Subscripted wave four-vector carries components (1, +khat); see
    # the ktilde docstring for how this convention is pinned.
    klow = [1.0, khat[0], khat[1], khat[2]]
    out = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            for m in range(4):
                for n in range(4):
                    out[a, b] += kf_raised[a, m, b, n] * klow[m] * klow[n]
    return out


def test_ktilde_matches_oracle_and_is_symmetric():
    rng = np.random.default_rng(23)
    k = kt.random_kappas(rng, 1e-2, birefringent=True)
    kf = kt.kf_from_kappas(k)
    khats = dp.random_directions(rng, 20)
    got = dp.ktilde(kf, khats)
    assert got.shape == (20, 4, 4)
    for row, khat in zip(got, khats):
        assert np.max(np.abs(row - ktilde_oracle(kf, khat))) < 1e-14
        assert np.max(np.abs(row - row.T)) < 1e-15
    # a tensor given as nested lists gives the same bits
    assert np.array_equal(dp.ktilde(kf.tolist(), khats), got)
    assert np.max(np.abs(dp.ktilde(np.zeros((4, 4, 4, 4)), [[0.0, 0.0, 1.0]]))) == 0.0
    with pytest.raises(ValueError, match="4x4x4x4"):
        dp.ktilde(np.zeros((4, 4, 4)), khats)


def test_rho_sigma_rejects_zero_wavevector():
    with pytest.raises(ValueError, match="nonzero"):
        dp.rho_sigma(np.zeros((4, 4, 4, 4)), [0.0, 0.0, 0.0])


# ------------------------------------------------------------- rho/sigma


def test_rho_sigma_zero_tensor():
    assert dp.rho_sigma(np.zeros((4, 4, 4, 4)), np.array([0.0, 0.0, 1.0])) == (0.0, 0.0)


def test_rho_closed_form_along_z():
    rng = np.random.default_rng(24)
    k = kt.random_kappas(rng, 1e-2)
    kf = kt.kf_from_kappas(k)
    rho, sigma = dp.rho_sigma(kf, np.array([0.0, 0.0, 1.0]))
    want = -k.tr + 0.5 * k.e_minus[2, 2] + k.o_plus[0, 1]
    assert rho == pytest.approx(want, abs=1e-15)
    assert sigma == pytest.approx(0.0, abs=1e-15)


def test_sigma_closed_form_along_z_birefringent_only():
    # The e_plus/o_minus cross terms in sigma^2 are orientation-sensitive
    # (o_minus enters the wave contraction with one power of khat).  The
    # quoted closed form corresponds to the -z evaluation under the
    # orientation convention fixed by rho and delta; the +z value is
    # anchored against the Ampere solver below, which confirms that
    # convention physically.
    rng = np.random.default_rng(25)
    k = kt.KappaSet(
        e_plus=kt.sym_traceless(rng.normal(size=(3, 3)) * 1e-2),
        o_minus=kt.sym_traceless(rng.normal(size=(3, 3)) * 1e-2),
    )
    kf = kt.kf_from_kappas(k)
    om, ep = k.o_minus, k.e_plus
    closed_sq = 0.25 * (om[0, 0] - om[1, 1] - 2 * ep[0, 1]) ** 2
    closed_sq += 0.25 * (ep[1, 1] - ep[0, 0] - 2 * om[0, 1]) ** 2
    _, sigma_dn = dp.rho_sigma(kf, np.array([0.0, 0.0, -1.0]))
    assert sigma_dn**2 == pytest.approx(closed_sq, rel=1e-10, abs=1e-30)
    # Flipping the sign of o_minus maps the closed form onto +z.
    k_flip = kt.KappaSet(e_plus=k.e_plus, o_minus=-k.o_minus)
    _, sigma_up = dp.rho_sigma(kt.kf_from_kappas(k_flip), np.array([0.0, 0.0, 1.0]))
    assert sigma_up**2 == pytest.approx(closed_sq, rel=1e-10, abs=1e-30)


def test_sigma_orientation_pinned_by_ampere_solver():
    # Physical anchor for the previous test: the transverse root
    # splitting of the full wave equation equals 2 sigma |k| in each
    # propagation direction separately.
    rng = np.random.default_rng(125)
    k = kt.KappaSet(
        e_plus=kt.sym_traceless(rng.normal(size=(3, 3)) * 1e-4),
        o_minus=kt.sym_traceless(rng.normal(size=(3, 3)) * 1e-4),
    )
    kf = kt.kf_from_kappas(k)
    for kvec in (np.array([0.0, 0.0, 3.0]), np.array([0.0, 0.0, -3.0])):
        _, sigma = dp.rho_sigma(kf, kvec / 3.0)
        (lo, hi), _ = dp.solve_ampere(kf, kvec)
        assert hi - lo == pytest.approx(2 * sigma * 3.0, rel=2e-2)


def test_rho_equals_delta_without_birefringence():
    rng = np.random.default_rng(26)
    k = kt.random_kappas(rng, 1e-2)
    kf = kt.kf_from_kappas(k)
    for _ in range(25):
        khat = dp.random_directions(rng)
        rho, sigma = dp.rho_sigma(kf, khat)
        assert rho == pytest.approx(dp.delta_nonbiref(k, khat), abs=1e-12)
        # sigma vanishes at leading order without birefringent input;
        # the residual is higher order in the 1e-2 parameter scale.
        assert sigma < 1e-7


# ----------------------------------------------------------------- delta


def test_delta_closed_forms_along_z():
    rng = np.random.default_rng(27)
    k = kt.random_kappas(rng, 1e-2)
    up = dp.delta_nonbiref(k, np.array([0.0, 0.0, 1.0]))
    dn = dp.delta_nonbiref(k, np.array([0.0, 0.0, -1.0]))
    base = -k.tr + 0.5 * k.e_minus[2, 2]
    assert up == pytest.approx(k.o_plus[0, 1] + base, abs=1e-15)
    assert dn == pytest.approx(-k.o_plus[0, 1] + base, abs=1e-15)
    assert dp.delta_nonbiref(kt.KappaSet(), dp.random_directions(rng)) == 0.0


def test_delta_rejects_birefringent():
    k = kt.KappaSet(e_plus=np.diag([1e-3, 1e-3, -2e-3]))
    with pytest.raises(ValueError):
        dp.delta_nonbiref(k, np.array([0.0, 0.0, 1.0]))


def test_delta_rotation_covariance():
    rng = np.random.default_rng(28)
    k = kt.random_kappas(rng, 1e-2)
    for _ in range(10):
        R = random_rotation(rng)
        khat = dp.random_directions(rng)
        before = dp.delta_nonbiref(k, khat)
        after = dp.delta_nonbiref(rotate_kappas(k, R), R @ khat)
        assert after == pytest.approx(before, abs=1e-12)


def test_batched_delta_matches_the_rowwise_reference_bit_for_bit():
    rng = np.random.default_rng(32)
    k = kt.random_kappas(rng, 1e-2)
    khats = _frame_test_directions(rng, 10000)
    delta = dp.delta_nonbiref(k, khats)
    want = np.array([_rowwise_delta(k, khat) for khat in khats])
    assert np.array_equal(delta, want)
    assert all(dp.delta_nonbiref(k, khat) == w for khat, w in zip(khats[-1000:], want[-1000:]))
    assert type(dp.delta_nonbiref(k, khats[0])) is float
    grid = dp.delta_nonbiref(k, khats[:12].reshape(3, 4, 3))
    assert np.array_equal(grid, want[:12].reshape(3, 4))
    with pytest.raises(ValueError):
        dp.delta_nonbiref(kt.random_kappas(rng, 1e-2, birefringent=True), khats)


def _one_set(sets, i):
    return kt.KappaSet(e_minus=sets.e_minus[i], o_plus=sets.o_plus[i], tr=float(sets.tr[i]))


def _loop_reference(pairs):
    """E, O, delta(+k), delta(-k), delta1 and delta2 of the loop, per (set, khat) pair."""
    E, O, plus, minus, d1, d2 = ([] for _ in range(6))
    for k, khat in pairs:
        e, o = bilinear_reference.kappa_bilinears(k, dp.polarization_frame(khat))
        e_m, o_m = bilinear_reference.kappa_bilinears(k, dp.polarization_frame(-khat))
        E.append(e)
        O.append(o)
        plus.append(o[1, 2] - 0.5 * (e[1, 1] + e[2, 2]))
        minus.append(o_m[1, 2] - 0.5 * (e_m[1, 1] + e_m[2, 2]))
        delta1, delta2 = bilinear_reference.mixing_deltas(e)
        d1.append(delta1)
        d2.append(delta2)
    return tuple(map(np.array, (E, O, plus, minus, d1, d2)))


@pytest.mark.parametrize("layout", ["one-set", "set-per-direction", "one-direction"])
def test_frame_bilinears_match_the_loop_bit_for_bit(layout):
    # the directions include the axes and rows within 1e-8 of x-hat,
    # where the frame switches to y-hat
    rng = np.random.default_rng(33)
    khats = _frame_test_directions(rng, 2000)
    sets = kt.kappa_draws(rng.normal(size=(len(khats), kt.DRAW_WIDTH[False])))
    if layout == "one-set":
        k = _one_set(sets, 0)
        pairs = [(k, khat) for khat in khats]
    elif layout == "set-per-direction":
        k = sets
        pairs = [(_one_set(sets, i), khat) for i, khat in enumerate(khats)]
    else:
        k, khats = sets, np.array([1.0, 3e-9, -2e-9]) / np.linalg.norm([1.0, 3e-9, -2e-9])
        assert abs(dp.polarization_frame(khats).eps1[1]) > 0.99  # the y-hat branch
        pairs = [(_one_set(sets, i), khats) for i in range(len(sets.tr))]
    E, O, plus, minus, delta1, delta2 = _loop_reference(pairs)
    frame = dp.polarization_frame(khats)
    got_E, got_O = dp.frame_bilinears(k, frame)
    assert np.array_equal(got_E, E) and np.array_equal(got_O, O)
    assert np.array_equal(dp.delta_nonbiref(k, khats), plus)
    assert np.array_equal(dp.delta_nonbiref(k, -khats), minus)
    # the coefficients of the mode Hamiltonian and Xi, from one kernel call
    got = dp.transverse_coefficients(got_E, got_O)
    assert np.array_equal(got[0], plus) and np.array_equal(got[1], minus)
    assert np.array_equal(got[2], 2.0 * delta1) and np.array_equal(got[3], 2.0 * delta2)
    assert np.array_equal(got[4], delta1) and np.array_equal(got[5], delta2)
    got1, got2 = dp.mixing_deltas(k, frame)
    assert np.array_equal(got1, delta1) and np.array_equal(got2, delta2)


def _mixing_radius(k, khats):
    """r = hypot(delta1, delta2) of transverse_coefficients, per direction of khats."""
    E, O = dp.frame_bilinears(k, dp.polarization_frame(khats))
    *_, delta1, delta2 = dp.transverse_coefficients(E, O)
    return np.hypot(delta1, delta2)


def test_mixing_radius_over_the_sky_has_its_closed_form_extremes():
    # claim 2 over the whole sky: r is 1/4 of the eigenvalue split of
    # e_minus on the plane transverse to k-hat, so its largest value
    # (lambda3 - lambda1) / 4 lies along the middle eigenvector, and it
    # vanishes on the two optic axes of a biaxial crystal, in the plane of
    # the extreme eigenvectors
    rng = np.random.default_rng(21)
    for _ in range(4):
        k = kt.random_kappas(rng, 1.0)
        k = k.scaled(1e-2 / k.magnitude)
        lam, vec = np.linalg.eigh(k.e_minus)
        r_max = (lam[2] - lam[0]) / 4.0
        r = _mixing_radius(k, dp.random_directions(rng, 20000))
        assert np.all(r <= r_max) and r.max() >= (1.0 - 2e-4) * r_max
        assert abs(_mixing_radius(k, vec[:, 1]) - r_max) <= 1e-15 * r_max
        theta = np.arctan(np.sqrt((lam[1] - lam[0]) / (lam[2] - lam[1])))
        for side in (1.0, -1.0):
            axis = np.cos(theta) * vec[:, 2] + side * np.sin(theta) * vec[:, 0]
            assert _mixing_radius(k, axis) <= 1e-15


def _fibonacci_sphere(count):
    """count unit vectors of a Fibonacci lattice, nearly equal areas apart."""
    n = np.arange(count)
    z = 1.0 - (2.0 * n + 1.0) / count
    phi = n * np.pi * (3.0 - np.sqrt(5.0))
    s = np.sqrt(1.0 - z * z)
    return np.column_stack((s * np.cos(phi), s * np.sin(phi), z))


def test_mixing_radius_has_its_closed_form_sky_average():
    # claim 2 averaged over the sky: <r^2> = tr(e_minus^2) / 20, so the
    # sky-averaged dressed photon number <4 sinh^2 r> is tr(e_minus^2) / 5
    # up to O(kappa^4), a rotation invariant
    rng = np.random.default_rng(7)
    khats = _fibonacci_sphere(20000)
    for _ in range(4):
        k = kt.random_kappas(rng, 1.0)
        k = k.scaled(1e-2 / k.magnitude)
        r = _mixing_radius(k, khats)
        square = np.trace(k.e_minus @ k.e_minus)
        assert np.mean(r * r) == pytest.approx(square / 20.0, rel=1e-5)
        assert np.mean(4.0 * np.sinh(r) ** 2) == pytest.approx(square / 5.0, rel=1e-4)


# ----------------------------------------------------------- Ampere law


@pytest.mark.parametrize("size", [1e200, 1e-160, 1e-300])
def test_wavevectors_beyond_the_squared_range_keep_their_direction(size):
    # |k|^2 overflows at 1e200 and leaves the normal range at 1e-160 and
    # 1e-300; such a row is scaled by its largest entry before its norm
    k = kt.random_kappas(np.random.default_rng(1), 1e-2)
    kf = kt.kf_from_kappas(k)
    unit = np.array([[0.6, 0.8, 0.0], [1.0, 0.0, 0.0], [0.0, -0.28, 0.96]])
    kvecs = unit * size
    khats, norms = dp._unit_rows(kvecs)
    assert np.max(np.abs(khats - dp.direction_draws(unit))) <= 4e-16
    assert np.max(np.abs(norms / size - 1.0)) <= 4e-16
    rho, sigma = dp.rho_sigma(kf, kvecs)
    want_rho, want_sigma = dp.rho_sigma(kf, unit)
    assert np.max(np.abs(rho - want_rho)) <= 1e-17
    assert np.max(np.abs(sigma - want_sigma)) <= 1e-9  # sigma is a root of roundoff here
    roots = dp.ampere_roots(kf, kvecs) / size
    assert np.max(np.abs(roots - dp.ampere_roots(kf, unit))) <= 1e-15
    table = dp.dispersion_table(k, kvecs)
    assert np.max(np.abs(table["omega_plus_root"] / size - roots[:, 1])) <= 1e-15


def test_ampere_zero_tensor_roots():
    kvec = np.array([0.4, -0.3, 1.2])
    omegas, fields = dp.solve_ampere(np.zeros((4, 4, 4, 4)), kvec)
    assert omegas.shape == (2,) and fields.shape == (2, 3)
    knorm = np.linalg.norm(kvec)
    for omega, evec in zip(omegas, fields):
        assert omega == pytest.approx(knorm, rel=1e-14)
        assert abs(evec @ kvec) < 1e-12


def test_ampere_matches_delta_at_second_order():
    # Non-birefringent: both roots collapse onto (1 + delta)|k| with an
    # O(s^2) error, so the residual must shrink ~100x when s drops 10x.
    rng = np.random.default_rng(29)
    k1 = kt.random_kappas(rng, 1.0)
    kvec = dp.random_directions(rng) * 2.5
    khat = kvec / np.linalg.norm(kvec)
    errs = []
    for s in (1e-2, 1e-3):
        ks = kt.KappaSet(e_minus=k1.e_minus * s, o_plus=k1.o_plus * s, tr=k1.tr * s)
        kf = kt.kf_from_kappas(ks)
        delta = dp.delta_nonbiref(ks, khat)
        omegas, _ = dp.solve_ampere(kf, kvec)
        errs.append(max(abs(om / np.linalg.norm(kvec) - 1.0 - delta) for om in omegas))
    slope = np.log10(errs[0] / errs[1])
    assert 1.8 < slope < 2.2


def test_ampere_birefringent_split_matches_sigma():
    rng = np.random.default_rng(30)
    k = kt.random_kappas(rng, 1e-3, birefringent=True)
    kf = kt.kf_from_kappas(k)
    kvec = dp.random_directions(rng) * 1.7
    knorm = np.linalg.norm(kvec)
    _, sigma = dp.rho_sigma(kf, kvec / knorm)
    (om_lo, om_hi), _ = dp.solve_ampere(kf, kvec)
    assert om_hi - om_lo == pytest.approx(2 * sigma * knorm, rel=2e-2)


def test_ampere_solves_roundoff_sized_tensor():
    # a tensor with no physical content projects to ~1e-18 residue; a
    # bracket of 5 times that would collapse onto |k| in double precision
    kf = _roundoff_tensor()
    assert 0.0 < np.max(np.abs(kt.as_kf_components(kf))) < 1e-16
    for kvec in ([0.0, 0.0, 1.0], [0.6, 0.0, -1.6]):
        kvec = np.array(kvec)
        omegas, _ = dp.solve_ampere(kf, kvec)
        for omega in omegas:
            assert omega == pytest.approx(np.linalg.norm(kvec), rel=1e-15)


def test_ampere_rejects_nonperturbative():
    k = kt.KappaSet(tr=0.2)
    kf = kt.kf_from_kappas(k)
    with pytest.raises(ValueError):
        dp.solve_ampere(kf, np.array([0.0, 0.0, 1.0]))


def test_ampere_applies_the_parameter_magnitude_rule():
    # magnitude 0.15, which the config loader refuses, but every tensor
    # component is at most 0.075: a component rule would let it through
    k = kt.KappaSet(e_minus=np.diag([0.15, -0.15, 0.0]))
    kf = kt.kf_from_kappas(k)
    assert np.max(np.abs(kt.as_kf_components(kf))) < kt.PERTURBATIVE_LIMIT
    with pytest.raises(ValueError, match="perturbative"):
        dp.solve_ampere(kf, [[0.0, 0.0, 1.0]])
    # at magnitude exactly 0.1 the read-off can land a few ulps above the
    # limit; the solver accepts what the loader accepts
    edge = kt.kf_from_kappas(kt.KappaSet(e_minus=np.diag([0.1, -0.1, 0.0])))
    omegas, _ = dp.solve_ampere(edge, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert omegas.shape == (2, 2)


def test_dispersion_table_fields():
    rng = np.random.default_rng(31)
    k = kt.random_kappas(rng, 1e-2)
    kvec = np.array([0.0, 0.0, 2.0])
    res = dp.dispersion_table(k, kvec)
    assert all(np.shape(v) == () for v in res.values())
    assert res["delta"] == pytest.approx(dp.delta_nonbiref(k, kvec / 2.0), abs=1e-15)
    assert res["omega_plus"] == pytest.approx((1 + res["rho"] + res["sigma"]) * 2.0, rel=1e-15)
    assert res["omega_minus"] == pytest.approx((1 + res["rho"] - res["sigma"]) * 2.0, rel=1e-15)
    rows = dp.dispersion_table(k, kvec[None])
    assert all(np.shape(v) == (1,) for v in rows.values())
    assert all(rows[name][0] == res[name] for name in res)
    biref = kt.random_kappas(rng, 1e-3, birefringent=True)
    assert dp.dispersion_table(biref, kvec)["delta"] is None


@pytest.mark.parametrize("birefringent", [False, True])
def test_dispersion_table_columns_are_the_rowwise_results(birefringent):
    rng = np.random.default_rng(33)
    k = kt.random_kappas(rng, 1e-2, birefringent)
    kvecs = dp.random_directions(rng, 200) * rng.uniform(0.5, 3.0, size=(200, 1))
    batch = dp.dispersion_table(k, kvecs)
    for n, kvec in enumerate(kvecs):
        khats, (norm,) = dp._unit_rows(kvec)
        rho, sigma = dp.rho_sigma(kt.kf_from_kappas(k), khats[0])
        assert (batch["rho"][n], batch["sigma"][n]) == (rho, sigma)
        assert batch["omega_plus"][n] == (1.0 + rho + sigma) * norm
        assert batch["omega_minus"][n] == (1.0 + rho - sigma) * norm
        if birefringent:
            assert batch["delta"] is None
        else:
            assert batch["delta"][n] == _rowwise_delta(k, khats[0])


@pytest.mark.parametrize("birefringent", [False, True])
def test_dispersion_table_blocks_give_the_bits_of_one_call(birefringent, monkeypatch):
    rng = np.random.default_rng(34)
    k = kt.random_kappas(rng, 1e-2, birefringent)
    kvecs = dp.random_directions(rng, 2 * dp.BLOCK_ROWS + 3) * 2.0
    blocked = dp.dispersion_table(k, kvecs)
    grid = dp.dispersion_table(k, kvecs.reshape(-1, 1, 3))
    monkeypatch.setattr(dp, "BLOCK_ROWS", len(kvecs))
    whole = dp.dispersion_table(k, kvecs)
    for name, value in whole.items():
        if birefringent and name == "delta":
            assert value is blocked["delta"] is grid["delta"] is None
            continue
        assert blocked[name].tobytes() == value.tobytes(), name
        assert grid[name].shape == (len(kvecs), 1), name
        assert grid[name].tobytes() == value.tobytes(), name


# ------------------------------------------- batched solver vs bisection


def _brentq_solve_ampere(kf, kvec):
    """Reference solver: bisection on the near-zero eigenvalue branches.

    brentq on eigvalsh branches 1 and 2 of the 3x3 Ampere matrix inside
    the bracket [(1 - w)|k|, (1 + w)|k|], w = max(5 s, 1e-12); the
    longitudinal branch never crosses zero there.
    """
    K = kt.as_kf_components(kf)
    kvec = np.asarray(kvec, dtype=float)
    knorm = np.linalg.norm(kvec)
    strength = np.max(np.abs(K))
    if strength == 0.0:
        f = dp.polarization_frame(kvec / knorm)
        return [(knorm, f.eps1.astype(complex)), (knorm, f.eps2.astype(complex))]
    half_width = max(5.0 * strength, 1e-12)
    lo = (1.0 - half_width) * knorm
    hi = (1.0 + half_width) * knorm

    def branch(omega, i):
        return np.linalg.eigvalsh(dp.ampere_matrix(K, kvec, omega))[i]

    roots = []
    for i in (1, 2):
        assert branch(lo, i) * branch(hi, i) <= 0.0
        omega = brentq(branch, lo, hi, args=(i,), xtol=1e-13 * knorm)
        _, vecs = np.linalg.eigh(dp.ampere_matrix(K, kvec, omega))
        roots.append((float(omega), vecs[:, i].astype(complex)))
    roots.sort(key=lambda pair: pair[0])
    return roots


def _roundoff_tensor():
    # the residue (~1e-18) of a tensor with no physical content after the
    # nullspace reference's projection; project_kf sends it to exactly 0
    K = np.zeros((4, 4, 4, 4))
    K[3, 3, 3, 3] = 0.015625
    return kt.kf_from_kappas(kt.kappas_from_kf(kf_reference.project(K)))


def _near_degenerate_kappas(rng):
    base = kt.random_kappas(rng, 1e-2)
    biref = kt.random_kappas(rng, 1e-8, birefringent=True)
    return kt.KappaSet(
        e_minus=base.e_minus, o_plus=base.o_plus, tr=base.tr,
        e_plus=biref.e_plus, o_minus=biref.o_minus,
    )


def _kf(scale, birefringent=False):
    return lambda rng: kt.kf_from_kappas(kt.random_kappas(rng, scale, birefringent))


# Without birefringent parameters the two roots agree at leading order
# only: they split by up to ~2.5 s^2 |k|.  So the pair is a double root to
# roundoff at s = 1e-8, and at s = 1e-6 its splitting (1e-14 to 3.5e-12)
# straddles the solver's 1e-12 double-root threshold.
_CONFIGS = {
    "birefringent-1e-2": _kf(1e-2, True),
    "birefringent-1e-5": _kf(1e-5, True),
    "nonbirefringent-1e-2": _kf(1e-2),
    "nonbirefringent-1e-6": _kf(1e-6),
    "double-root-1e-8": _kf(1e-8),
    "near-degenerate": lambda rng: kt.kf_from_kappas(_near_degenerate_kappas(rng)),
    "zero": lambda rng: np.zeros((4, 4, 4, 4)),
    "roundoff": lambda rng: _roundoff_tensor(),
}
_DOUBLE_ROOTS = {"double-root-1e-8", "zero", "roundoff"}


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_batched_roots_match_bisection(name):
    rng = np.random.default_rng(140 + sorted(_CONFIGS).index(name))
    kf = _CONFIGS[name](rng)
    axes = np.vstack((np.eye(3), -np.eye(3)))
    lengths = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=40))
    kvecs = np.vstack((axes, dp.random_directions(rng, 40) * lengths[:, None]))
    omegas, fields = dp.solve_ampere(kf, kvecs)
    assert omegas.shape == (len(kvecs), 2) and fields.shape == (len(kvecs), 2, 3)
    doubles = 0
    for kvec, roots, pols in zip(kvecs, omegas, fields):
        knorm = np.linalg.norm(kvec)
        want = [omega for omega, _ in _brentq_solve_ampere(kf, kvec)]
        assert np.max(np.abs(roots - want)) < 1e-12 * knorm
        for omega, e in zip(roots, pols):
            residual = np.linalg.norm(dp.ampere_matrix(kf, kvec, omega) @ e)
            assert residual < 1e-10 * knorm**2
        if roots[1] - roots[0] <= dp._DEGENERATE_RTOL * knorm:
            doubles += 1
            gram = pols.conj() @ pols.T
            assert np.max(np.abs(gram - np.eye(2))) < 1e-12
    if name in _DOUBLE_ROOTS:
        assert doubles == len(kvecs)


@pytest.mark.parametrize("roundoff", [False, True])
def test_double_roots_returned_as_conjugate_pairs_are_kept(roundoff):
    # at these scales about one direction in 200 gets its double root back
    # from eigvals as a conjugate pair with imaginary parts ~2e-16; the
    # pair's real part is still the root
    rng = np.random.default_rng(149)
    k = kt.KappaSet() if roundoff else kt.random_kappas(rng, 1e-8)
    kf = _roundoff_tensor() if roundoff else kt.kf_from_kappas(k)
    khats = dp.random_directions(rng, 2000)
    omegas, fields = dp.solve_ampere(kf, khats)
    delta = np.array([dp.delta_nonbiref(k, khat) for khat in khats])
    assert np.max(np.abs(omegas - 1.0 - delta[:, None])) < 1e-14
    gram = np.einsum("nri,nsi->nrs", fields.conj(), fields)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12


#: Rows per block of the solver and the report writer.
B = dp.BLOCK_ROWS


@pytest.mark.parametrize("birefringent", [False, True])
def test_ampere_roots_do_not_depend_on_the_batch(birefringent, monkeypatch):
    # a row's roots are the same bits in a batch of 1 to 12 rows, and of
    # one block and a row either side of a block boundary, as in one of
    # 5001; numpy's einsum path choice and BLAS's one-row kernel once
    # moved them by up to 4.4e-16.  The 5001 rows, solved as one block,
    # give the bits of their five blocks
    rng = np.random.default_rng(1)
    kf = kt.kf_from_kappas(kt.random_kappas(rng, 1e-2, birefringent=birefringent))
    kvecs = dp.random_directions(rng, 5001) * rng.uniform(0.2, 5.0, size=(5001, 1))
    whole = dp.ampere_roots(kf, kvecs)
    omegas, fields = dp.solve_ampere(kf, kvecs)
    assert omegas.tobytes() == whole.tobytes()
    for n in (*range(1, 13), B - 1, B, B + 1, 2 * B + 3):
        assert dp.ampere_roots(kf, kvecs[:n]).tobytes() == whole[:n].tobytes(), n
        assert dp.solve_ampere(kf, kvecs[:n])[1].tobytes() == fields[:n].tobytes(), n
    monkeypatch.setattr(dp, "BLOCK_ROWS", len(kvecs))
    assert dp.ampere_roots(kf, kvecs).tobytes() == whole.tobytes()
    assert dp.solve_ampere(kf, kvecs)[1].tobytes() == fields.tobytes()


def test_narrow_splitting_stays_two_real_roots():
    # at s = 1e-9 the birefringent split 2 sigma |k| is ~1e-9 |k|; it
    # must come back as two real roots, not as one averaged pair
    rng = np.random.default_rng(150)
    kf = kt.kf_from_kappas(kt.random_kappas(rng, 1e-9, birefringent=True))
    khats = dp.random_directions(rng, 200)
    omegas, _ = dp.solve_ampere(kf, khats)
    _, sigma = dp.rho_sigma(kf, khats)
    assert np.all(omegas[:, 1] - omegas[:, 0] > 1e-11)
    assert np.max(np.abs(omegas[:, 1] - omegas[:, 0] - 2.0 * sigma)) < 1e-14


def test_solve_ampere_is_the_one_row_case():
    rng = np.random.default_rng(151)
    kf = kt.kf_from_kappas(kt.random_kappas(rng, 1e-3, birefringent=True))
    kvecs = dp.random_directions(rng, 20) * 2.5
    omegas, fields = dp.solve_ampere(kf, kvecs)
    for kvec, roots, pols in zip(kvecs, omegas, fields):
        single, single_fields = dp.solve_ampere(kf, kvec)
        assert single.shape == (2,) and single_fields.shape == (2, 3)
        assert list(single) == pytest.approx(list(roots), abs=1e-15)
        for e, want in zip(single_fields, pols):
            assert e.dtype == complex
            assert abs(abs(np.vdot(e, want)) - 1.0) < 1e-12


def test_ampere_coefficients_rebuild_the_ampere_matrix():
    rng = np.random.default_rng(152)
    K = kt.as_kf_components(
        kt.kf_from_kappas(kt.random_kappas(rng, 1e-2, birefringent=True))
    )
    kvecs = rng.normal(size=(10, 3))
    m0, m1, m2 = dp._ampere_coefficients(K, kvecs)
    for kvec, a, b in zip(kvecs, m0, m1):
        for omega in (0.0, 0.7, -1.3):
            want = dp.ampere_matrix(K, kvec, omega)
            got = a + omega * b + omega**2 * m2
            assert np.max(np.abs(got - want)) < 1e-14 * max(1.0, kvec @ kvec)


def test_batched_solver_keeps_its_refusals():
    kf = kt.kf_from_kappas(kt.random_kappas(np.random.default_rng(153), 1e-2))
    with pytest.raises(ValueError, match="nonzero"):
        dp.solve_ampere(kf, [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="perturbative"):
        dp.solve_ampere(kt.kf_from_kappas(kt.KappaSet(tr=0.2)), [[0.0, 0.0, 1.0]])
    # magnitude 0.1, which the loader accepts, but largest component 0.15,
    # past what the 5 s bracket assumes
    big = np.diag([0.1, -0.05, -0.05])
    kf = kt.kf_from_kappas(kt.KappaSet(e_minus=big, e_plus=big, tr=0.1))
    kt.check_perturbative(kt.readoff_magnitude(kf))
    with pytest.raises(ValueError, match="max component"):
        dp.solve_ampere(kf, [[0.0, 0.0, 1.0]])
    # not a physical tensor, and one the read-off does not see: magnitude
    # 0, largest component 1
    K = np.zeros((4, 4, 4, 4))
    K[1, 0, 1, 0] = 1.0
    assert kt.readoff_magnitude(K) == 0.0
    with pytest.raises(ValueError, match="max component"):
        dp.solve_ampere(K, [[0.0, 0.0, 1.0]])
    # not a physical tensor: K^{pbcq} = s delta^{pq} for every b, c moves
    # the roots along (1,1,1) by about -7.5 s, outside the 5 s bracket
    K = np.zeros((4, 4, 4, 4))
    K[1:, :, :, 1:] = 0.05 * np.eye(3)[:, None, None, :]
    good = [0.0, 0.0, 1.0]
    with pytest.raises(RuntimeError, match="1 direction"):
        dp.solve_ampere(K, [good, [1.0, 1.0, 1.0], good])


@pytest.mark.parametrize("name", sorted(set(_CONFIGS) - {"zero"}))
def test_eigenvalue_residuals_are_the_polarization_residuals(name):
    # the gate judges |lambda| from eigvalsh; it must be ||M E|| of the
    # polarizations that solve_ampere returns, and at a double root
    # both polarizations belong to the lower root's M
    rng = np.random.default_rng(160 + sorted(_CONFIGS).index(name))
    kf = _CONFIGS[name](rng)
    khats = np.vstack((np.eye(3), -np.eye(3), dp.random_directions(rng, 200)))
    K = kt.as_kf_components(kf)
    x, m = dp._block_roots(K, np.max(np.abs(K)), khats)
    double = x[:, 1] - x[:, 0] <= dp._DEGENERATE_RTOL
    residual = dp._root_residuals(m, double)
    _, fields = dp.solve_ampere(kf, khats)
    at = m.copy()
    at[double, 1] = m[double, 0]
    want = np.linalg.norm(np.einsum("nrpq,nrq->nrp", at, fields), axis=-1)
    assert np.max(np.abs(residual - want)) <= 1e-15
    if name in _DOUBLE_ROOTS:
        assert np.all(double)


def _companion_roots(kf, khats):
    """All six roots x = omega/|k| per direction, from a companion built here.

    The directions are normalized again, as the solver does.
    """
    khats, _ = dp._unit_rows(khats)
    K = kt.as_kf_components(kf)
    m0, m1, m2 = dp._ampere_coefficients(K, khats)
    inv = np.linalg.inv(m2)
    companion = np.zeros((len(khats), 6, 6))
    companion[:, :3, 3:] = np.eye(3)
    companion[:, 3:, :3] = -inv @ m0
    companion[:, 3:, 3:] = -inv @ m1
    return np.linalg.eigvals(companion), (m0, m1, m2)


def _generated_kf(seed, magnitude, birefringent):
    """A random parameter set scaled so that its largest entry is magnitude."""
    rng = np.random.default_rng(seed)
    k = kt.random_kappas(rng, 1.0, birefringent)
    return kt.kf_from_kappas(k.scaled(magnitude / k.magnitude))


@pytest.mark.parametrize("magnitude", [1e-4, 1e-2, 3e-2, 0.1])
@pytest.mark.parametrize("birefringent", [False, True])
def test_root_bound_holds_and_keeps_out_every_other_root(magnitude, birefringent):
    khats = dp.random_directions(np.random.default_rng(161), 300)
    certified = 0
    for seed in range(20):
        kf = _generated_kf(seed, magnitude, birefringent)
        if np.max(np.abs(kt.as_kf_components(kf))) > kt.PERTURBATIVE_LIMIT:
            continue
        roots, coefficients = _companion_roots(kf, khats)
        bound = dp._root_bound(khats, *coefficients)
        distance = np.sort(np.abs(roots - 1.0), axis=1)
        ok = np.isfinite(bound)
        certified += np.count_nonzero(ok)
        assert np.all(distance[ok, 1] <= bound[ok] * (1.0 + 1e-12) + 1e-15)
        assert np.all(distance[ok, 2] > bound[ok])
    if magnitude <= 3e-2:
        assert certified == 20 * len(khats)
    else:
        assert certified > 0


def _five_s_roots(kf, khats):
    """The roots that the bracket [1 - 5 s, 1 + 5 s] alone selects, or nan.

    Earlier versions selected the transverse pair this way; rows without
    exactly two real roots in that bracket get nan.
    """
    roots, _ = _companion_roots(kf, khats)
    strength = np.max(np.abs(kt.as_kf_components(kf)))
    found = (np.abs(roots.real - 1.0) <= 5.0 * strength) & (
        np.abs(roots.imag) <= np.sqrt(np.finfo(float).eps)
    )
    two = np.count_nonzero(found, axis=1) == 2
    out = np.full((len(khats), 2), np.nan)
    out[two] = np.sort(roots.real[two][found[two]].reshape(-1, 2), axis=1)
    return out


def _companion_pair(kf, kvecs):
    """The two companion roots nearest |k| of each wavevector, ascending."""
    roots, _ = _companion_roots(kf, kvecs)
    nearest = np.take_along_axis(roots, np.argsort(np.abs(roots - 1.0), axis=1), axis=1)
    return np.sort(nearest[:, :2].real, axis=1) * dp._unit_rows(kvecs)[1][:, None]


def _certified(kf, khats):
    """The rows of khats whose roots the Newton path certifies."""
    khats, _ = dp._unit_rows(khats)
    m0, m1, m2 = dp._ampere_coefficients(kt.as_kf_components(kf), khats)
    bound = dp._root_bound(khats, m0, m1, m2)
    return ~np.isnan(dp._schur_newton(khats, m0, m1, m2, bound)[:, 0])


@pytest.mark.parametrize("magnitude", [1e-2, 0.1])
def test_roots_the_5s_bracket_found_are_kept(magnitude):
    # the per-direction bound widens the bracket and Newton replaces the
    # companion where the bound certifies its roots: directions that the
    # 5 s bracket alone solved keep their roots, to 1e-14 where Newton
    # certified them and to the bit where the companion still finds
    # them, and the rest are solved or refused as a whole
    khats = dp.random_directions(np.random.default_rng(162), 400)
    solved = refused = 0
    for seed in range(30):
        kf = _generated_kf(1000 + seed, magnitude, seed % 2 == 0)
        if np.max(np.abs(kt.as_kf_components(kf))) > kt.PERTURBATIVE_LIMIT:
            continue
        old = _five_s_roots(kf, khats) * dp._unit_rows(khats)[1][:, None]
        try:
            new = dp.ampere_roots(kf, khats)
        except RuntimeError:
            refused += 1
            continue
        solved += 1
        kept = ~np.isnan(old[:, 0])
        companion = kept & ~_certified(kf, khats)
        assert np.max(np.abs(new[kept] - old[kept])) <= 1e-14
        assert np.array_equal(new[companion], old[companion])
    assert solved > 0
    if magnitude == 1e-2:
        assert refused == 0


def test_widened_bracket_solves_sets_beyond_5s():
    # a set of magnitude 1e-2 whose roots move by up to 5.2 s: the 5 s
    # bracket misses 37 of these directions, the bound brackets all of them
    kf = _generated_kf(143, 1e-2, True)
    khats = dp.random_directions(np.random.default_rng(163), 2000)
    assert np.any(np.isnan(_five_s_roots(kf, khats)[:, 0]))
    omegas = dp.ampere_roots(kf, khats)
    assert np.max(np.abs(omegas - _companion_pair(kf, khats))) <= 1e-14


@pytest.mark.parametrize("magnitude", [1e-8, 1e-5, 1e-2, 5e-2])
@pytest.mark.parametrize("birefringent", [False, True])
def test_newton_roots_match_the_companion(magnitude, birefringent):
    # up to magnitude 5e-2 the bound certifies every direction, and the
    # Newton roots agree with the companion's on the same rows to 1e-14 |k|
    rng = np.random.default_rng(164)
    lengths = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=(500, 1)))
    kvecs = dp.random_directions(rng, 500) * lengths
    norms = dp._unit_rows(kvecs)[1][:, None]
    for seed in range(1, 9):
        kf = _generated_kf(seed, magnitude, birefringent)
        assert np.all(_certified(kf, kvecs))
        error = np.abs(dp.ampere_roots(kf, kvecs) - _companion_pair(kf, kvecs)) / norms
        assert np.max(error) <= 1e-14


def test_uncertified_rows_fall_back_and_keep_their_own_bits():
    # at magnitude 0.1 the bound certifies only some directions: a set
    # takes both paths, and every row gets the bits it gets alone
    kf = _generated_kf(6, 0.1, True)
    kvecs = dp.random_directions(np.random.default_rng(165), 300) * 1.5
    certified = _certified(kf, kvecs)
    assert 0 < np.count_nonzero(certified) < len(kvecs)
    whole = dp.ampere_roots(kf, kvecs)
    for n in (*np.flatnonzero(certified)[:5], *np.flatnonzero(~certified)[:5]):
        assert dp.ampere_roots(kf, kvecs[n]).tobytes() == whole[n].tobytes()
    assert np.array_equal(whole[~certified], _companion_pair(kf, kvecs[~certified]))


def test_companion_rows_keep_their_bits_in_every_block(monkeypatch):
    # magnitude 0.1 leaves hundreds of rows of each block to the
    # companion; each keeps the bits it gets alone and in one block
    kf = _generated_kf(6, 0.1, True)
    kvecs = dp.random_directions(np.random.default_rng(166), 2 * B + 3) * 1.5
    uncertified = np.flatnonzero(~_certified(kf, kvecs))
    blocks = uncertified // B
    assert set(blocks) == {0, 1, 2}
    whole = dp.ampere_roots(kf, kvecs)
    omegas, fields = dp.solve_ampere(kf, kvecs)
    for block in (0, 1, 2):
        for n in uncertified[blocks == block][:3]:
            assert dp.ampere_roots(kf, kvecs[n]).tobytes() == whole[n].tobytes()
            assert dp.solve_ampere(kf, kvecs[n])[1].tobytes() == fields[n].tobytes()
    assert np.array_equal(whole[uncertified], _companion_pair(kf, kvecs[uncertified]))
    monkeypatch.setattr(dp, "BLOCK_ROWS", len(kvecs))
    assert dp.ampere_roots(kf, kvecs).tobytes() == whole.tobytes()
    assert dp.solve_ampere(kf, kvecs)[1].tobytes() == fields.tobytes()


def _refusal(kf, kvecs):
    """The message of the RuntimeError that ampere_roots raises on kvecs."""
    with pytest.raises(RuntimeError) as refused:
        dp.ampere_roots(kf, kvecs)
    with pytest.raises(RuntimeError, match=re.escape(str(refused.value))):
        dp.solve_ampere(kf, kvecs)
    return str(refused.value)


def test_companion_misses_are_counted_over_every_block(monkeypatch):
    # directions without two roots sit in blocks 0 and 1; the message
    # counts them all, as one call on all rows as one block does
    kf = _generated_kf(1, 0.1, True)
    kvecs = dp.random_directions(np.random.default_rng(166), 2 * B + 3)
    K = kt.as_kf_components(kf)
    khats = dp._unit_rows(kvecs)[0]
    misses = [
        np.count_nonzero(np.isnan(dp._block_roots(K, np.max(np.abs(K)), khats[n : n + B])[0]))
        // 2
        for n in range(0, len(kvecs), B)
    ]
    assert misses[0] > 0 and misses[1] > 0 and misses[2] == 0
    message = _refusal(kf, kvecs)
    assert message == (
        f"{sum(misses)} direction(s) without exactly two real transverse roots "
        "in the bracket; tensor too large for the bracket"
    )
    assert _refusal(kf, kvecs[B:]) == message.replace(str(sum(misses)), str(misses[1]), 1)
    monkeypatch.setattr(dp, "BLOCK_ROWS", len(kvecs))
    assert _refusal(kf, kvecs) == message


def test_residual_refusal_reports_the_largest_residual_of_every_block(monkeypatch):
    # under a tolerance that rows of blocks 0 and 1 exceed, the message
    # gives the largest residual of all rows, which block 1 holds
    kf = _generated_kf(3, 1e-2, True)
    khats = dp.random_directions(np.random.default_rng(167), 2 * B + 3)
    K = kt.as_kf_components(kf)
    x, m = dp._block_roots(K, np.max(np.abs(K)), dp._unit_rows(khats)[0])
    residual = dp._root_residuals(m, x[:, 1] - x[:, 0] <= dp._DEGENERATE_RTOL).max(axis=1)
    first, worst = residual[:B].max(), residual.max()
    assert worst == residual[B : 2 * B].max() and f"{first:.3e}" != f"{worst:.3e}"
    monkeypatch.setattr(dp, "_RESIDUAL_RTOL", np.nextafter(first, 0.0))
    message = _refusal(kf, khats)
    assert message == f"root residual {worst:.3e} |k|^2 exceeds tolerance"
    assert _refusal(kf, khats[:B]) == f"root residual {first:.3e} |k|^2 exceeds tolerance"
    monkeypatch.setattr(dp, "BLOCK_ROWS", len(khats))
    assert _refusal(kf, khats) == message


def test_sigma_warnings_come_in_row_order_across_blocks(monkeypatch):
    # the noisy tensor of the test below warns on directions with kz
    # away from 0: one such row in each of three blocks of dispersion_table,
    # each warned once, with its own value, and in row order
    rng = np.random.default_rng(154)
    K = kt.as_kf_components(kt.kf_from_kappas(kt.random_kappas(rng, 1e-4))).copy()
    K[:, 3, :, 3] += 1e-2 * np.diag([0.0, 1.0, 1.0, 1.0])
    phi = rng.uniform(0.0, 2.0 * np.pi, size=2 * B + 3)
    khats = np.column_stack((np.cos(phi), np.sin(phi), np.zeros_like(phi)))
    rows = (5, B + 7, 2 * B + 1)
    for row, kz in zip(rows, (0.5, 0.8, 0.6)):
        khats[row] = [np.sqrt(1.0 - kz * kz), 0.0, kz]
    # a birefringent set skips delta, which this tensor does not describe;
    # the table builds its tensor through kt, which hands it K, and the
    # roots, whose residuals this tensor fails, are not read here
    biref = kt.random_kappas(rng, 1e-4, birefringent=True)
    monkeypatch.setattr(kt, "kf_from_kappas", lambda kappas: K)
    monkeypatch.setattr(dp, "ampere_roots", lambda kf, kvecs: np.ones((len(kvecs), 2)))
    with pytest.warns(UserWarning, match="beyond roundoff") as record:
        result = dp.dispersion_table(biref, khats)
    want = []
    for row in rows:
        with pytest.warns(UserWarning, match="beyond roundoff") as alone:
            dp.rho_sigma(K, khats[row])
        want += [str(w.message) for w in alone]
    assert [str(w.message) for w in record] == want and len(set(want)) == 3
    assert np.all(result["sigma"][list(rows)] == 0.0)
    monkeypatch.setattr(dp, "BLOCK_ROWS", len(khats))
    with pytest.warns(UserWarning, match="beyond roundoff") as whole:
        again = dp.dispersion_table(biref, khats)
    assert [str(w.message) for w in whole] == [str(w.message) for w in record]
    assert again["sigma"].tobytes() == result["sigma"].tobytes()


# ------------------------------------------------- batched rho/sigma noise


def test_rho_sigma_batch_warns_only_for_the_noisy_direction():
    # a tensor whose only non-physical part, K^{a3b3} = s diag(0,1,1,1),
    # gives sigma^2 = -0.75 s^2 kz^4 < 0; directions with kz = 0 see none
    # of it and keep the roundoff-only sigma^2 of the physical part
    rng = np.random.default_rng(154)
    K = kt.as_kf_components(kt.kf_from_kappas(kt.random_kappas(rng, 1e-4))).copy()
    K[:, 3, :, 3] += 1e-2 * np.diag([0.0, 1.0, 1.0, 1.0])
    phi = rng.uniform(0.0, 2.0 * np.pi, size=40)
    khats = np.column_stack((np.cos(phi), np.sin(phi), np.zeros_like(phi)))
    khats = np.insert(khats, 17, [0.6, 0.0, 0.8], axis=0)
    with pytest.warns(UserWarning, match="beyond roundoff") as record:
        rho, sigma = dp.rho_sigma(K, khats)
    assert len(record) == 1
    assert sigma[17] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dp.rho_sigma(K, np.delete(khats, 17, axis=0))


def test_rho_sigma_batch_is_silent_on_roundoff():
    rng = np.random.default_rng(155)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-2, 1e-5, 1e-8):
            kf = kt.kf_from_kappas(kt.random_kappas(rng, scale))
            _, sigma = dp.rho_sigma(kf, dp.random_directions(rng, 2000))
            assert np.all(sigma < 1e-7)


def test_rho_sigma_is_the_one_row_case():
    rng = np.random.default_rng(156)
    kf = kt.kf_from_kappas(kt.random_kappas(rng, 1e-2, birefringent=True))
    khats = dp.random_directions(rng, 30)
    rho, sigma = dp.rho_sigma(kf, khats)
    for khat, r, s in zip(khats, rho, sigma):
        one = dp.rho_sigma(kf, khat)
        assert one == (r, s) and all(type(v) is float for v in one)
    grid_rho, grid_sigma = dp.rho_sigma(kf, khats.reshape(5, 6, 3))
    assert np.array_equal(grid_rho, rho.reshape(5, 6))
    assert np.array_equal(grid_sigma, sigma.reshape(5, 6))


def test_every_direction_gets_a_result_and_flat_vectors_are_refused():
    # a direction array must end in an axis of length 3: a flat vector of
    # six entries is refused, not read as two directions, and a stack of
    # directions gets one result per direction, never only the first
    rng = np.random.default_rng(157)
    k = kt.random_kappas(rng, 1e-2)
    kf = kt.kf_from_kappas(k)
    two = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    omegas, fields = dp.solve_ampere(kf, two)
    assert omegas.shape == (2, 2) and fields.shape == (2, 2, 3)
    assert dp.ampere_roots(kf, two).tobytes() == omegas.tobytes()
    rho, sigma = dp.rho_sigma(kf, two)
    delta = dp.delta_nonbiref(k, two)
    assert rho.shape == sigma.shape == delta.shape == (2,)
    for n, khat in enumerate(two):
        assert (rho[n], sigma[n]) == dp.rho_sigma(kf, khat)
        assert delta[n] == dp.delta_nonbiref(k, khat)
        assert dp.solve_ampere(kf, khat)[0].tobytes() == omegas[n].tobytes()
    with pytest.raises(ValueError, match="leading shape"):
        dp.rho_sigma(np.stack((kf, kf)), [[0.0, 0.0, 1.0]] * 3)
    for bad in ([0.0, 0.0, 1.0, 1.0, 0.0, 0.0], [[0.0, 0.0, 1.0, 1.0]], 1.0):
        for call in (
            lambda: dp.solve_ampere(kf, bad),
            lambda: dp.ampere_roots(kf, bad),
            lambda: dp.rho_sigma(kf, bad),
            lambda: dp.delta_nonbiref(k, bad),
            lambda: dp.dispersion_table(k, bad),
            lambda: dp.polarization_frame(bad),
            lambda: dp.direction_draws(bad),
        ):
            with pytest.raises(ValueError, match="last axis"):
                call()
