"""Tests for the rank-4 tensor parameterization.

The contraction oracle here is a plain quadruple loop over all 256 index
tuples with explicit sign-flip lowering, written independently of the
einsum-based library code.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvphoton import kappa_tensor as kt


def contract_oracle(kf_raised, w, x, y, z):
    """Brute-force K_{klmn} w^k x^l y^m z^n with per-index sign lowering."""
    sign = [1.0, -1.0, -1.0, -1.0]
    total = 0.0
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    low = kf_raised[a, b, c, d] * sign[a] * sign[b] * sign[c] * sign[d]
                    total += low * w[a] * x[b] * y[c] * z[d]
    return total


def test_contract4_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        k = kt.random_kappas(rng, 1e-2, birefringent=True)
        kf = kt.kf_from_kappas(k)
        vecs = [rng.normal(size=4) for _ in range(4)]
        got = kt.contract4(kf, *vecs)
        want = contract_oracle(kf.components, *vecs)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_closed_form_matches_contract4_nonbirefringent():
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = kt.random_kappas(rng, 1e-2)
        kf = kt.kf_from_kappas(k)
        vecs = [rng.normal(size=4) for _ in range(4)]
        direct = kt.contract4(kf, *vecs)
        closed = kt.contract4_kappa(k, *vecs)
        assert closed == pytest.approx(direct, rel=1e-10, abs=1e-16)


def test_closed_form_rejects_birefringent():
    rng = np.random.default_rng(13)
    k = kt.random_kappas(rng, 1e-2, birefringent=True)
    e = np.eye(4)
    with pytest.raises(ValueError):
        kt.contract4_kappa(k, e[0], e[1], e[0], e[1])


small = st.floats(-1e-2, 1e-2, allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(small, min_size=19, max_size=19))
def test_roundtrip_property(raw):
    k = kt.KappaSet.from_projection(
        e_minus=np.array(raw[0:9]).reshape(3, 3),
        o_plus=np.array(raw[9:18]).reshape(3, 3),
        tr=raw[18],
    )
    kf = kt.kf_from_kappas(k)
    assert kt.check_invariants(kf).max_violation < 1e-14
    back = kt.kappas_from_kf(kf)
    for name in ("e_minus", "o_plus", "e_plus", "o_minus"):
        assert np.max(np.abs(getattr(back, name) - getattr(k, name))) < 1e-12
    assert abs(back.tr - k.tr) < 1e-12


def test_roundtrip_covers_birefringent_sector():
    rng = np.random.default_rng(14)
    k = kt.random_kappas(rng, 1e-2, birefringent=True)
    kf = kt.kf_from_kappas(k)
    assert kt.check_invariants(kf).max_violation < 1e-14
    back = kt.kappas_from_kf(kf)
    for name in ("e_minus", "o_plus", "e_plus", "o_minus"):
        assert np.max(np.abs(getattr(back, name) - getattr(k, name))) < 1e-12
    assert abs(back.tr - k.tr) < 1e-12


def test_perturbed_component_detected():
    rng = np.random.default_rng(15)
    kf = kt.kf_from_kappas(kt.random_kappas(rng, 1e-2))
    bad = kf.components.copy()
    bad[0, 1, 0, 2] += 1e-8
    report = kt.check_invariants(bad)
    assert report.max_violation > 1e-9
    with pytest.raises(ValueError):
        kt.kappas_from_kf(bad)


def test_projection_repairs_perturbed_tensor():
    rng = np.random.default_rng(16)
    kf = kt.kf_from_kappas(kt.random_kappas(rng, 1e-2))
    # identity on valid input
    same = kt.project_kf(kf.components)
    assert np.max(np.abs(same.components - kf.components)) < 1e-15
    # perturbed input lands back on the valid space, near the original
    bad = kf.components + rng.normal(size=(4, 4, 4, 4)) * 1e-8
    repaired = kt.project_kf(bad)
    assert kt.check_invariants(repaired).ok()
    assert np.max(np.abs(repaired.components - kf.components)) < 1e-7


def test_pure_trace_components():
    # With only the scalar parameter s, the closed form gives
    # K_{0101} = -(1/2) xhat.(s I).xhat = -s/2, and raising indices 0101
    # picks up two spatial sign flips, so K^{0101} = -s/2 as well.
    s = 3e-3
    kf = kt.kf_from_kappas(kt.KappaSet(tr=s))
    assert kf.components[0, 1, 0, 1] == pytest.approx(-s / 2, rel=1e-12)
    assert kf.components[0, 2, 0, 2] == pytest.approx(-s / 2, rel=1e-12)
    assert kf.components[0, 3, 0, 3] == pytest.approx(-s / 2, rel=1e-12)
    # Purely spatial block: K_{1212} = -(1/2) zhat.(s I).zhat = -s/2,
    # with four spatial flips cancelling.
    assert kf.components[1, 2, 1, 2] == pytest.approx(-s / 2, rel=1e-12)
    # Read-off consistency: tr = -(2/3) K^{0l0l}.
    assert kt.kappas_from_kf(kf).tr == pytest.approx(s, rel=1e-12)


def test_pure_odd_parity_component():
    # With only the antisymmetric parity-odd matrix c in the xy slot,
    # K_{0131} = -(1/2) xhat.c.yhat = -c_xy/2 (J(e0,e1) = xhat and
    # W(e3,e1) = yhat); raising flips three spatial signs.
    c = 2e-3
    k = kt.KappaSet(o_plus=np.array([[0.0, c, 0.0], [-c, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    kf = kt.kf_from_kappas(k)
    assert kf.lowered[0, 1, 3, 1] == pytest.approx(-c / 2, rel=1e-12)
    assert kf.components[0, 1, 3, 1] == pytest.approx(c / 2, rel=1e-12)


def test_pure_even_parity_component():
    a, b = 4e-3, -1e-3
    k = kt.KappaSet(e_minus=np.diag([a, b, -a - b]))
    kf = kt.kf_from_kappas(k)
    assert kf.components[0, 1, 0, 1] == pytest.approx(-a / 2, rel=1e-12)
    assert kf.components[0, 2, 0, 2] == pytest.approx(-b / 2, rel=1e-12)


def test_kappa_set_validation():
    with pytest.raises(ValueError):
        kt.KappaSet(e_minus=np.eye(3))  # not traceless
    with pytest.raises(ValueError):
        kt.KappaSet(o_plus=np.eye(3))  # not antisymmetric
    asym = np.array([[0.0, 1e-3, 0.0], [-1e-3, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        kt.KappaSet(e_minus=asym)  # not symmetric


def test_single_trace_is_traceless_and_shift_identity():
    rng = np.random.default_rng(16)
    kf = kt.kf_from_kappas(kt.random_kappas(rng, 1e-2, birefringent=True))
    # Full trace of the mixed single trace equals the double trace, which
    # vanishes by construction.
    assert abs(np.trace(kt.single_trace(kf))) < 1e-15
    zero = kt.KFTensor.zero()
    ev = kt.coordinate_shift(zero, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(ev.components, [1.0, 2.0, 3.0, 4.0])


def test_coordinate_shift_is_linear_in_event():
    rng = np.random.default_rng(17)
    kf = kt.kf_from_kappas(kt.random_kappas(rng, 1e-2))
    u = rng.normal(size=4)
    v = rng.normal(size=4)
    lhs = kt.coordinate_shift(kf, 2.0 * u + 3.0 * v).components
    rhs = 2.0 * kt.coordinate_shift(kf, u).components + 3.0 * kt.coordinate_shift(kf, v).components
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def _grid_style_blocks(seed):
    """Parameter blocks drawn as the dispersion-grid benchmark configs are:
    largest entry scaled to exactly 1e-2, birefringent blocks included,
    and passed through JSON lists."""
    rng = np.random.default_rng(seed)

    def sym(m):
        m = 0.5 * (m + m.T)
        return m - np.eye(3) * np.trace(m) / 3.0

    a = rng.normal(size=(3, 3))
    blocks = {
        "e_minus": sym(rng.normal(size=(3, 3))),
        "o_plus": 0.5 * (a - a.T),
        "tr": float(rng.normal()),
        "e_plus": sym(rng.normal(size=(3, 3))),
        "o_minus": sym(rng.normal(size=(3, 3))),
    }
    top = max(float(np.max(np.abs(v))) for v in blocks.values())
    return {k: (np.asarray(v) * (1e-2 / top)).tolist() for k, v in blocks.items()}


@pytest.mark.parametrize("seed", range(1, 41))
def test_projection_is_idempotent_bitwise(seed):
    # re-projecting an already projected set must not move a single bit,
    # or a decompose report would not feed back byte-identically
    once = kt.KappaSet.from_projection(**_grid_style_blocks(seed))
    twice = kt.KappaSet.from_projection(
        e_minus=once.e_minus,
        o_plus=once.o_plus,
        tr=once.tr,
        e_plus=once.e_plus,
        o_minus=once.o_minus,
    )
    for name in ("e_minus", "o_plus", "e_plus", "o_minus"):
        assert getattr(twice, name).tobytes() == getattr(once, name).tobytes(), name
    assert np.trace(once.e_minus) == 0.0
