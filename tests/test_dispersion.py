"""Tests for polarization frames and leading-order dispersion.

The ktilde oracle is an explicit double loop; the dispersion closed
forms are checked against the numerical Ampere-law solver.
"""

import numpy as np
import pytest

from lvphoton import dispersion as dp
from lvphoton import kappa_tensor as kt


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


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
        khat = random_unit(rng)
        f = dp.polarization_frame(khat)
        assert abs(f.eps1 @ f.eps2) < 1e-14
        assert abs(np.linalg.norm(f.eps1) - 1) < 1e-14
        assert abs(np.linalg.norm(f.eps2) - 1) < 1e-14
        assert np.max(np.abs(np.cross(f.eps1, f.eps2) - khat)) < 1e-14
        assert np.array_equal(f.eps3, khat)


def test_frame_parity_pairing_exact():
    rng = np.random.default_rng(22)
    for _ in range(500):
        khat = random_unit(rng)
        f = dp.polarization_frame(khat)
        g = dp.polarization_frame(-khat)
        assert np.array_equal(g.eps1, f.eps1)
        assert np.array_equal(g.eps2, -f.eps2)
        assert np.array_equal(g.eps3, -f.eps3)


def test_frame_rejects_non_unit():
    with pytest.raises(ValueError):
        dp.polarization_frame([0.0, 0.0, 2.0])


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
    khat = random_unit(rng)
    got = dp.ktilde(kf, np.concatenate(([0.0], khat * 3.7)))
    want = ktilde_oracle(kf.components, khat)
    assert np.max(np.abs(got - want)) < 1e-14
    assert np.max(np.abs(got - got.T)) < 1e-15
    assert np.max(np.abs(dp.ktilde(kt.KFTensor.zero(), [1.0, 0, 0, 1.0]))) == 0.0


def test_ktilde_rejects_zero_wavevector():
    with pytest.raises(ValueError):
        dp.ktilde(kt.KFTensor.zero(), [1.0, 0.0, 0.0, 0.0])


# ------------------------------------------------------------- rho/sigma


def test_rho_sigma_zero_tensor():
    assert dp.rho_sigma(kt.KFTensor.zero(), np.array([0.0, 0.0, 1.0])) == (0.0, 0.0)


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
        (lo, _), (hi, _) = dp.solve_ampere(kf, kvec)
        assert hi - lo == pytest.approx(2 * sigma * 3.0, rel=2e-2)


def test_rho_equals_delta_without_birefringence():
    rng = np.random.default_rng(26)
    k = kt.random_kappas(rng, 1e-2)
    kf = kt.kf_from_kappas(k)
    for _ in range(25):
        khat = random_unit(rng)
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
    assert dp.delta_nonbiref(kt.KappaSet(), random_unit(rng)) == 0.0


def test_delta_rejects_birefringent():
    k = kt.KappaSet(e_plus=np.diag([1e-3, 1e-3, -2e-3]))
    with pytest.raises(ValueError):
        dp.delta_nonbiref(k, np.array([0.0, 0.0, 1.0]))


def test_delta_rotation_covariance():
    rng = np.random.default_rng(28)
    k = kt.random_kappas(rng, 1e-2)
    for _ in range(10):
        R = random_rotation(rng)
        khat = random_unit(rng)
        before = dp.delta_nonbiref(k, khat)
        after = dp.delta_nonbiref(rotate_kappas(k, R), R @ khat)
        assert after == pytest.approx(before, abs=1e-12)


# ----------------------------------------------------------- Ampere law


def test_ampere_zero_tensor_roots():
    kvec = np.array([0.4, -0.3, 1.2])
    roots = dp.solve_ampere(kt.KFTensor.zero(), kvec)
    assert len(roots) == 2
    knorm = np.linalg.norm(kvec)
    for omega, evec in roots:
        assert omega == pytest.approx(knorm, rel=1e-14)
        assert abs(evec @ kvec) < 1e-12


def test_ampere_matches_delta_at_second_order():
    # Non-birefringent: both roots collapse onto (1 + delta)|k| with an
    # O(s^2) error, so the residual must shrink ~100x when s drops 10x.
    rng = np.random.default_rng(29)
    k1 = kt.random_kappas(rng, 1.0)
    kvec = random_unit(rng) * 2.5
    khat = kvec / np.linalg.norm(kvec)
    errs = []
    for s in (1e-2, 1e-3):
        ks = kt.KappaSet(e_minus=k1.e_minus * s, o_plus=k1.o_plus * s, tr=k1.tr * s)
        kf = kt.kf_from_kappas(ks)
        delta = dp.delta_nonbiref(ks, khat)
        roots = dp.solve_ampere(kf, kvec)
        errs.append(
            max(abs(om / np.linalg.norm(kvec) - 1.0 - delta) for om, _ in roots)
        )
    slope = np.log10(errs[0] / errs[1])
    assert 1.8 < slope < 2.2


def test_ampere_birefringent_split_matches_sigma():
    rng = np.random.default_rng(30)
    k = kt.random_kappas(rng, 1e-3, birefringent=True)
    kf = kt.kf_from_kappas(k)
    kvec = random_unit(rng) * 1.7
    knorm = np.linalg.norm(kvec)
    _, sigma = dp.rho_sigma(kf, kvec / knorm)
    (om_lo, _), (om_hi, _) = dp.solve_ampere(kf, kvec)
    assert om_hi - om_lo == pytest.approx(2 * sigma * knorm, rel=2e-2)


def test_ampere_solves_roundoff_sized_tensor():
    # a tensor with no physical content projects to ~1e-18 residue; a
    # bracket of 5 times that would collapse onto |k| in double precision
    K = np.zeros((4, 4, 4, 4))
    K[3, 3, 3, 3] = 0.015625
    kf = kt.kf_from_kappas(kt.kappas_from_kf(kt.project_kf(K).components))
    assert 0.0 < np.max(np.abs(kt.as_kf_components(kf))) < 1e-16
    for kvec in ([0.0, 0.0, 1.0], [0.6, 0.0, -1.6]):
        kvec = np.array(kvec)
        roots = dp.solve_ampere(kf, kvec)
        for omega, _ in roots:
            assert omega == pytest.approx(np.linalg.norm(kvec), rel=1e-15)


def test_ampere_rejects_nonperturbative():
    k = kt.KappaSet(tr=0.2)
    kf = kt.kf_from_kappas(k)
    with pytest.raises(ValueError):
        dp.solve_ampere(kf, np.array([0.0, 0.0, 1.0]))


def test_summarize_fields():
    rng = np.random.default_rng(31)
    k = kt.random_kappas(rng, 1e-2)
    kvec = np.array([0.0, 0.0, 2.0])
    res = dp.summarize(k, kvec)
    assert res.delta == pytest.approx(dp.delta_nonbiref(k, kvec / 2.0), abs=1e-15)
    assert res.omega_plus == pytest.approx((1 + res.rho + res.sigma) * 2.0, rel=1e-15)
    assert res.omega_minus == pytest.approx((1 + res.rho - res.sigma) * 2.0, rel=1e-15)
    biref = kt.random_kappas(rng, 1e-3, birefringent=True)
    assert dp.summarize(biref, kvec).delta is None
