"""Tests for the rank-4 tensor parameterization.

The contraction oracle here is a plain quadruple loop over all 256 index
tuples with explicit sign-flip lowering, written independently of the
einsum-based library code.
"""

import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvphoton import dispersion as dp
from lvphoton import kappa_tensor as kt

import kf_reference  # tests/kf_reference.py


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
        want = contract_oracle(kf, *vecs)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        # nested lists are the same tensor and four-vectors
        assert kt.contract4(kf.tolist(), *(v.tolist() for v in vecs)) == got
    with pytest.raises(ValueError, match="4x4x4x4"):
        kt.contract4(kf[0], *vecs)
    with pytest.raises(ValueError, match="4 components"):
        kt.contract4(kf, vecs[0][1:], *vecs[1:])


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
    bad = kf.copy()
    bad[0, 1, 0, 2] += 1e-8
    report = kt.check_invariants(bad)
    assert report.max_violation > 1e-9
    with pytest.raises(ValueError):
        kt.kappas_from_kf(bad)


def test_projection_repairs_perturbed_tensor():
    rng = np.random.default_rng(16)
    kf = kt.kf_from_kappas(kt.random_kappas(rng, 1e-2))
    # identity on valid input
    same = kt.project_kf(kf)
    assert np.max(np.abs(same - kf)) < 1e-15
    # perturbed input lands back on the valid space, near the original
    bad = kf + rng.normal(size=(4, 4, 4, 4)) * 1e-8
    repaired = kt.project_kf(bad)
    assert kt.check_invariants(repaired).ok()
    assert np.max(np.abs(repaired - kf)) < 1e-7
    assert np.array_equal(kt.project_kf(bad.tolist()), repaired)
    with pytest.raises(ValueError, match="4x4x4x4"):
        kt.project_kf(bad.reshape(256))
    # both are plain read-only float arrays
    for tensor in (kf, same, repaired):
        assert type(tensor) is np.ndarray
        assert tensor.shape == (4, 4, 4, 4) and tensor.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            tensor[0, 1, 0, 1] = 1.0


def test_pure_trace_components():
    # With only the scalar parameter s, the closed form gives
    # K_{0101} = -(1/2) xhat.(s I).xhat = -s/2, and raising indices 0101
    # picks up two spatial sign flips, so K^{0101} = -s/2 as well.
    s = 3e-3
    kf = kt.kf_from_kappas(kt.KappaSet(tr=s))
    assert kf[0, 1, 0, 1] == pytest.approx(-s / 2, rel=1e-12)
    assert kf[0, 2, 0, 2] == pytest.approx(-s / 2, rel=1e-12)
    assert kf[0, 3, 0, 3] == pytest.approx(-s / 2, rel=1e-12)
    # Purely spatial block: K_{1212} = -(1/2) zhat.(s I).zhat = -s/2,
    # with four spatial flips cancelling.
    assert kf[1, 2, 1, 2] == pytest.approx(-s / 2, rel=1e-12)
    # Read-off consistency: tr = -(2/3) K^{0l0l}.
    assert kt.kappas_from_kf(kf).tr == pytest.approx(s, rel=1e-12)


def test_pure_odd_parity_component():
    # With only the antisymmetric parity-odd matrix c in the xy slot,
    # K_{0131} = -(1/2) xhat.c.yhat = -c_xy/2 (J(e0,e1) = xhat and
    # W(e3,e1) = yhat); raising flips three spatial signs.
    c = 2e-3
    k = kt.KappaSet(o_plus=np.array([[0.0, c, 0.0], [-c, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    kf = kt.kf_from_kappas(k)
    assert kt.lowered(kf)[0, 1, 3, 1] == pytest.approx(-c / 2, rel=1e-12)
    assert kf[0, 1, 3, 1] == pytest.approx(c / 2, rel=1e-12)


def test_pure_even_parity_component():
    a, b = 4e-3, -1e-3
    k = kt.KappaSet(e_minus=np.diag([a, b, -a - b]))
    kf = kt.kf_from_kappas(k)
    assert kf[0, 1, 0, 1] == pytest.approx(-a / 2, rel=1e-12)
    assert kf[0, 2, 0, 2] == pytest.approx(-b / 2, rel=1e-12)


def test_kappa_set_validation():
    with pytest.raises(ValueError):
        kt.KappaSet(e_minus=np.eye(3))  # not traceless
    with pytest.raises(ValueError):
        kt.KappaSet(o_plus=np.eye(3))  # not antisymmetric
    asym = np.array([[0.0, 1e-3, 0.0], [-1e-3, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        kt.KappaSet(e_minus=asym)  # not symmetric


@pytest.mark.parametrize(
    "fields",
    [
        {"tr": float("nan")},
        {"tr": float("inf")},
        {"e_minus": np.full((3, 3), np.nan)},
        {"o_plus": np.array([[0.0, np.inf, 0.0], [-np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]])},
        {"e_plus": np.diag([np.nan, 0.0, 0.0])},
        {"o_minus": np.diag([0.0, -np.inf, 0.0])},
    ],
)
def test_kappa_set_rejects_non_finite(fields):
    with pytest.raises(ValueError, match="must be finite"):
        kt.KappaSet(**fields)


FIELDS = ("e_minus", "o_plus", "tr", "e_plus", "o_minus")


def test_scaled_and_rotated_act_blockwise_bitwise():
    rng = np.random.default_rng(29)
    k = kt.random_kappas(rng, 1e-2, birefringent=True)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    factor = 3e-3 / k.magnitude
    scaled, rotated = k.scaled(factor), k.rotated(rot)
    for name in FIELDS:
        assert np.array_equal(getattr(scaled, name), getattr(k, name) * factor)
    assert rotated.tr == k.tr
    for name in ("e_minus", "o_plus", "e_plus", "o_minus"):
        assert np.array_equal(getattr(rotated, name), rot @ getattr(k, name) @ rot.T)


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_scaled_by_one_factor_per_set_stacks_the_per_scale_sets_bitwise(count):
    rng = np.random.default_rng(30)
    k = kt.random_kappas(rng, 1e-2, birefringent=True)
    scales = 10.0 ** -np.arange(2.0, 2.0 + count)
    stacked = k.scaled(scales / k.magnitude)
    assert np.shape(stacked.tr) == (count,)
    for row, scale in enumerate(scales):
        one = k.scaled(scale / k.magnitude)
        for name in FIELDS:
            assert np.asarray(getattr(stacked, name))[row].tobytes() == (
                np.asarray(getattr(one, name)).tobytes()
            ), (row, name)
    # sets already stacked take one factor each
    again = stacked.scaled(np.full(count, 2.0))
    assert np.array_equal(again.e_minus, 2.0 * stacked.e_minus)


@pytest.mark.parametrize(
    "factor", [np.ones((2, 2)), np.ones((3, 1)), np.ones((1, 3))], ids=["2x2", "3x1", "1x3"]
)
def test_scaled_refuses_a_factor_that_is_not_a_number_or_1d(factor):
    k = kt.random_kappas(np.random.default_rng(31), 1e-2)
    with pytest.raises(ValueError, match="^a scale factor must be a number or a 1-D array"):
        k.scaled(factor)
    with pytest.raises(ValueError, match="^a scale factor must be"):
        k.scaled(np.ones(3)).scaled(np.ones(2))  # two factors for three sets


def test_check_nonbiref_rejects_birefringent_and_large_sets():
    kt.check_nonbiref(kt.random_kappas(np.random.default_rng(2), 1e-2))
    with pytest.raises(ValueError, match="e_plus"):
        kt.check_nonbiref(kt.random_kappas(np.random.default_rng(2), 1e-2, True))
    with pytest.raises(ValueError, match="perturbative"):
        kt.check_nonbiref(kt.KappaSet(tr=0.2))


def test_single_trace_is_traceless_and_shift_identity():
    rng = np.random.default_rng(16)
    kf = kt.kf_from_kappas(kt.random_kappas(rng, 1e-2, birefringent=True))
    # Full trace of the mixed single trace equals the double trace, which
    # vanishes by construction.
    assert abs(np.trace(kt.single_trace(kf))) < 1e-15
    zero = np.zeros((4, 4, 4, 4))
    ev = kt.coordinate_shift(zero, [1.0, 2.0, 3.0, 4.0])
    assert type(ev) is np.ndarray
    assert np.array_equal(ev, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="4 components"):
        kt.coordinate_shift(zero, [1.0, 2.0, 3.0])


def test_single_trace_raised_is_the_kappa_tilde_of_the_set():
    # kappa-tilde^{mu nu} = single_trace(kf) @ METRIC is symmetric and
    # traceless, holds the nine non-birefringent parameters in its blocks,
    # rebuilds the whole tensor, and gives delta as a quadratic form
    rng = np.random.default_rng(0)
    eta = kt.METRIC
    for _ in range(20):
        k = kt.random_kappas(rng, 1e-2)
        kf = kt.kf_from_kappas(k)
        tilde = kt.single_trace(kf) @ eta
        built = 0.5 * (
            np.einsum("ac,bd->abcd", eta, tilde)
            - np.einsum("ad,bc->abcd", eta, tilde)
            + np.einsum("bd,ac->abcd", eta, tilde)
            - np.einsum("bc,ad->abcd", eta, tilde)
        )
        assert np.max(np.abs(built - kf)) <= 1e-16
        assert np.max(np.abs(tilde - tilde.T)) <= 1e-16
        assert abs(np.trace(tilde @ eta)) <= 1e-16
        o = k.o_plus
        assert abs(tilde[0, 0] - 1.5 * k.tr) <= 1e-16
        assert np.max(np.abs(tilde[1:, 1:] - (0.5 * k.tr * np.eye(3) - k.e_minus))) <= 1e-16
        assert np.max(np.abs(tilde[0, 1:] + [o[1, 2], o[2, 0], o[0, 1]])) <= 1e-16
        khats = dp.random_directions(rng, 100)
        klow = np.column_stack((np.ones(len(khats)), khats))
        delta = -0.5 * np.einsum("mn,im,in->i", tilde, klow, klow)
        assert np.max(np.abs(delta - dp.delta_nonbiref(k, khats))) <= 1e-15


def test_coordinate_shift_is_linear_in_event():
    rng = np.random.default_rng(17)
    kf = kt.kf_from_kappas(kt.random_kappas(rng, 1e-2))
    u = rng.normal(size=4)
    v = rng.normal(size=4)
    lhs = kt.coordinate_shift(kf, 2.0 * u + 3.0 * v)
    rhs = 2.0 * kt.coordinate_shift(kf, u) + 3.0 * kt.coordinate_shift(kf, v)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def _null_norms(kf, kvecs, spatial_sign):
    """max k.k / |k|^2 over both Ampere roots of each wavevector, before and after the shift.

    A root omega of kvec is the covector k_b = (omega, spatial_sign kvec);
    the code's convention (dispersion.ktilde, ampere_matrix) is sign +1.
    The shift maps events by x' = S x, with S read off coordinate_shift
    column by column, so covectors go by k' = k S^-1, which keeps the
    phase k_m x^m; to first order k'_n = k_n + (1/2) k_m T^m_n.
    """
    shift = np.column_stack([kt.coordinate_shift(kf, e) for e in np.eye(4)])
    omegas = dp.ampere_roots(kf, kvecs).reshape(-1, 1)
    spatial = spatial_sign * np.repeat(kvecs, 2, axis=0)
    k = np.concatenate((omegas, spatial), axis=1)
    moved = k @ np.linalg.inv(shift)
    size = np.repeat(np.vecdot(kvecs, kvecs), 2)
    norms = [v[:, 0] ** 2 - np.vecdot(v[:, 1:], v[:, 1:]) for v in (k, moved)]
    return [np.max(np.abs(norm) / size) for norm in norms]


@pytest.mark.parametrize("scale", [1e-2, 1e-4])
def test_coordinate_shift_puts_the_ampere_roots_on_the_light_cone(scale):
    # k.k of a root is O(kappa) and falls to O(kappa^2) after the shift
    # (on 10 sets per scale, 200 wavevectors each: 1.6-4.8 kappa before,
    # 1.2-5.7 kappa^2 after); with the other covector convention it stays
    # O(kappa) (1.1-5.3 kappa), so this pins the convention.  The two
    # roots, which no shift separates, split at second order.
    rng = np.random.default_rng(21)
    for _ in range(10):
        k = kt.random_kappas(rng, 1.0)
        kf = kt.kf_from_kappas(k.scaled(scale / k.magnitude))
        kvecs = dp.random_directions(rng, 200) * rng.uniform(0.5, 2.0, size=(200, 1))
        before, after = _null_norms(kf, kvecs, 1.0)
        _, other = _null_norms(kf, kvecs, -1.0)
        assert before > 0.5 * scale and other > 0.5 * scale
        assert after < 20.0 * scale**2
        omegas = dp.ampere_roots(kf, kvecs)
        split = np.max((omegas[:, 1] - omegas[:, 0]) / np.linalg.norm(kvecs, axis=1))
        assert 0.1 * scale**2 < split < 20.0 * scale**2


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


def test_closed_form_matches_the_nullspace_reference():
    rng = np.random.default_rng(17)
    worst = 0.0
    for draw in range(2000):
        scale = 10.0 ** rng.uniform(-8.0, 0.0)
        k = kt.random_kappas(rng, scale, birefringent=bool(draw % 2))
        want = kf_reference.kf_from_kappas(k)
        got = kt.as_kf_components(kt.kf_from_kappas(k))
        worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    assert worst <= 1e-14


def test_projection_matches_the_nullspace_reference():
    # the projector, one column per raw unit component
    unit = np.eye(256).reshape(256, 4, 4, 4, 4)
    got = np.column_stack([kt.project_kf(e).ravel() for e in unit])
    basis, _ = kf_reference.nullspace_basis()
    assert np.max(np.abs(got - basis @ basis.T)) <= 1e-15


def test_generator_columns_are_valid_and_independent():
    assert kt._GENERATOR.shape == (256, 19)
    assert np.linalg.matrix_rank(kt._GENERATOR) == 19
    for j, column in enumerate(kt._GENERATOR.T):
        tensor = column.reshape(4, 4, 4, 4)
        assert kt.check_invariants(tensor).max_violation <= 1e-15, j
        # column j is the tensor of the j-th unit parameter
        assert np.array_equal(kt._flatten_kappas(kt.kappas_from_kf(tensor)), np.eye(19)[j]), j


def test_tensor_paths_need_no_svd_and_no_solve():
    # the closed form replaced a 1025 x 256 SVD and a 19 x 19 solve that
    # every process paid for at its first kf_from_kappas
    src = pathlib.Path(kt.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import numpy as np\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('called')\n"
        "np.linalg.svd = np.linalg.solve = refuse\n"
        "import lvphoton.cli\n"
        "from lvphoton import kappa_tensor as kt\n"
        "k = kt.random_kappas(np.random.default_rng(1), 1e-2, birefringent=True)\n"
        "kf = kt.kf_from_kappas(k)\n"
        "back = kt.kappas_from_kf(kf)\n"
        "same = kt.project_kf(kf)\n"
        "print(kt.kappa_distance(back, k), np.max(np.abs(same - kf)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    roundtrip, projected = (float(value) for value in done.stdout.split())
    assert roundtrip < 1e-15 and projected < 1e-15


def test_readoff_magnitude_is_the_unchecked_read_off():
    rng = np.random.default_rng(18)
    for birefringent in (False, True):
        kf = kt.kf_from_kappas(kt.random_kappas(rng, 1e-2, birefringent=birefringent))
        assert kt.readoff_magnitude(kf) == kt.kappas_from_kf(kf).magnitude
    # not a physical tensor: K^{pbcq} = s delta^{pq}; only the spatial
    # dual reads off, as +-s/2 on the diagonals of e_minus and e_plus
    broken = np.zeros((4, 4, 4, 4))
    broken[1:, :, :, 1:] = 0.05 * np.eye(3)[:, None, None, :]
    with pytest.raises(ValueError, match="invariants"):
        kt.kappas_from_kf(broken)
    assert kt.readoff_magnitude(broken) == pytest.approx(0.025, rel=1e-15)


def test_one_perturbative_rule():
    # the loader, check_nonbiref and the wave solver all use this rule; a
    # magnitude of exactly 0.1 passes after a round trip through its tensor
    rng = np.random.default_rng(19)
    for draw in range(200):
        k = kt.random_kappas(rng, 1.0, birefringent=bool(draw % 2))
        edge = k.scaled(kt.PERTURBATIVE_LIMIT / k.magnitude)
        kt.check_perturbative(edge.magnitude)
        # the read-off lands a few ulps either side of the limit
        kt.check_perturbative(kt.readoff_magnitude(kt.kf_from_kappas(edge)))
    for big in (kt.KappaSet(tr=0.2), kt.KappaSet(e_minus=np.diag([0.15, -0.15, 0.0]))):
        with pytest.raises(ValueError, match="must be perturbative"):
            kt.check_perturbative(big.magnitude)
