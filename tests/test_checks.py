"""The columnar `verify` checks against their per-draw reference.

`tests/verify_reference.py` keeps the checks as they were before they
drew their inputs as stacked arrays.  These tests hold the columnar
suite to it record by record, hold the stacked draws to one-at-a-time
draws and every batched kernel to its one-set call, and show that a
broken read-off, frame parity or ladder operator turns its check red.
"""

import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

from lvphoton import checks, cli
from lvphoton import dispersion as dp
from lvphoton import fock_space as fs
from lvphoton import hamiltonian as hm
from lvphoton import kappa_tensor as kt
from lvphoton import modes as md

import verify_reference  # tests/verify_reference.py

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"

#: Checks whose arithmetic now runs on stacked draws.  The stacked
#: generator product can round differently from the one-row product in
#: the last bit, so their values may move by roundoff; every other check
#: must give the same value bit for bit.
_REROUNDED = {
    "kappa_roundtrip",
    "kf_structural_invariants",
    "contraction_antisymmetry",
    "contraction_bianchi",
    "contraction_closed_form",
    "rho_equals_delta",
    "sigma_nonbirefringent",
    "delta_rotation_covariance",
    "ampere_scaling_exponent",
}

_FIELDS = ("e_minus", "o_plus", "tr", "e_plus", "o_minus")


def _aniso_config(tmp_path):
    """The config of the benchmark's verify-aniso workload at seed 1."""
    spec = importlib.util.spec_from_file_location("_lvphoton_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argv = workloads.verify_aniso(1, str(tmp_path)).argvs[0]
    return cli.load_config(argv[argv.index("--config") + 1])


@pytest.mark.parametrize("case", ["default-0", "default-1", "aniso-0"])
def test_columnar_verify_matches_the_per_draw_reference(tmp_path, case):
    kind, seed = case.split("-")
    config = _aniso_config(tmp_path) if kind == "aniso" else cli.RunConfig()
    report, status = checks.cmd_verify(config, seed=int(seed))
    want = verify_reference.reference_verify(config, seed=int(seed))
    got = report["checks"]
    assert [c["name"] for c in got] == [c["name"] for c in want]
    assert len(got) == 31 and status == 0
    for new, old in zip(got, want):
        name, tolerance = new["name"], new["tolerance"]
        assert tolerance == old["tolerance"], name
        assert new["pass"] is old["pass"], name
        extra = {k: v for k, v in new.items() if k not in ("measured", "margin", "elapsed_s")}
        old_extra = {k: v for k, v in old.items() if k not in ("measured", "margin")}
        if tolerance == 0.0 or name not in _REROUNDED:
            assert new["measured"] == old["measured"], name
            assert extra == old_extra, name
        else:
            assert abs(new["measured"] - old["measured"]) <= 1e-3 * tolerance, name
            assert extra.keys() == old_extra.keys(), name
            for key, value in old_extra.items():  # fitted residuals move with the roots
                if isinstance(value, list):
                    np.testing.assert_allclose(extra[key], value, rtol=1e-9, atol=0.0)
                else:
                    assert extra[key] == value, (name, key)
        assert new["margin"] == checks._margin(new["measured"], tolerance), name
        assert isinstance(new["elapsed_s"], float) and new["elapsed_s"] >= 0.0, name


#: Seeds at which ampere_scaling_exponent failed when each of its three
#: scales drew new shapes.
_ONCE_FAILING_SEEDS = (54, 60, 73, 82, 92, 120, 128, 152, 165, 196)


def test_dispersion_checks_pass_at_every_swept_seed():
    # the dispersion group sees the draws it sees in `verify`, after the
    # tensor group; 90 seeds take about 3 s
    seeds = _ONCE_FAILING_SEEDS + tuple(range(200, 280))
    assert len(seeds) == 90
    failures = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        list(checks._tensor_checks(rng))
        failures += [(seed, c["name"]) for c in checks._dispersion_checks(rng) if not c["pass"]]
    assert failures == []


def test_verify_records_do_not_depend_on_the_config_cutoff(tmp_path):
    # every check picks its own cutoff, so a cutoff-1 config shrinks none:
    # the loader ignores the key, and cutoff 1, 2 or none give one report
    _aniso_config(tmp_path)  # writes the workload's config file
    payload = json.loads((tmp_path / "verify.json").read_text())
    records = []
    for cutoff in (1, 2, None):
        raw = {k: v for k, v in payload.items() if k != "cutoff"}
        if cutoff is not None:
            raw["cutoff"] = cutoff
        path = tmp_path / f"cutoff-{cutoff}.json"
        path.write_text(json.dumps(raw))
        report, status = checks.cmd_verify(cli.load_config(str(path)))
        assert status == 0
        records.append([{k: v for k, v in c.items() if k != "elapsed_s"} for c in report["checks"]])
    assert records[0] == records[1] == records[2]


@pytest.mark.parametrize("birefringent", [False, True])
def test_stacked_kappa_draws_are_successive_one_set_draws(birefringent):
    width = kt.DRAW_WIDTH[birefringent]
    stack = kt.kappa_draws(np.random.default_rng(4).normal(size=(40, width)), 3e-2)
    one_by_one = np.random.default_rng(4)
    library = np.random.default_rng(4)
    assert stack.tr.shape == (40,)
    for row in range(40):
        want = verify_reference.random_kappas(one_by_one, 3e-2, birefringent)
        got = kt.random_kappas(library, 3e-2, birefringent)
        assert type(got.tr) is float and type(got.magnitude) is float
        for name in _FIELDS:
            value = np.asarray(getattr(want, name))
            for drawn in (getattr(stack, name)[row], getattr(got, name)):
                assert np.asarray(drawn).tobytes() == value.tobytes(), (row, name)


def test_split_draws_are_successive_kappa_and_direction_draws():
    normals, directions, extra = checks._draws(np.random.default_rng(8), 30, 19, 3, 9)
    stack = kt.kappa_draws(normals)
    khats = dp.direction_draws(directions)
    rng = np.random.default_rng(8)
    for row in range(30):
        want = verify_reference.random_kappas(rng)
        for name in _FIELDS:
            assert np.array_equal(getattr(stack, name)[row], getattr(want, name)), (row, name)
        assert np.array_equal(khats[row], dp.random_directions(rng)), row
        assert np.array_equal(extra[row], rng.normal(size=(3, 3)).ravel()), row


def test_rotation_draws_are_the_one_at_a_time_rotations():
    normals = np.random.default_rng(2).normal(size=(50, 9))
    rots = checks._rotations(normals)
    rng = np.random.default_rng(2)
    for row in range(50):
        assert np.array_equal(rots[row], verify_reference._random_rotation(rng)), row
        assert np.linalg.det(rots[row]) > 0.0


def _commuting_and_random_operators(space, rng):
    frame = dp.polarization_frame(dp.random_directions(rng))
    k = kt.random_kappas(rng, 1e-2)
    yield hm.build_grouped(space, k, frame)
    yield hm.xi_generators(space, k, frame)
    yield hm.build_grouped(space, kt.KappaSet(), frame)
    noise = sp.random(space.dim, space.dim, density=2e-3, format="csr", rng=rng)
    yield (noise + 1j * sp.random(space.dim, space.dim, density=2e-3, format="csr", rng=rng)).tocsr()


@pytest.mark.parametrize("cutoff", [1, 2])
def test_diagonal_commutator_is_the_sparse_product_value(cutoff):
    # the old expression of kappa_zero_number_conservation,
    # momentum_kappa_independent and momentum_commutes, bit for bit
    space = fs.build_space(cutoff)
    rng = np.random.default_rng(17 + cutoff)
    diagonals = hm.momentum_operator(space, dp.random_directions(rng))
    diagonals += [fs.number_operator(space, mode) for mode in md.ALL_MODES[1:3]]
    for h in _commuting_and_random_operators(space, rng):
        assert h.has_canonical_format
        for p in diagonals:
            assert checks._diagonal_commutator(p, h) == abs(p @ h - h @ p).max()


def test_diagonal_commutator_refuses_an_off_diagonal_entry():
    p = sp.csr_matrix(([1.0, 2.0, 0.5], ([0, 1, 0], [0, 1, 1])), shape=(2, 2))
    with pytest.raises(ValueError, match="diagonal"):
        checks._diagonal_commutator(p, sp.identity(2, format="csr"))


def test_raw_grouped_gap_is_the_sparse_abs_value():
    # the old raw_grouped_equivalence expression, bit for bit (about 4e-15)
    space = fs.build_space(2)
    rng = np.random.default_rng(23)
    for scale in (1e-2, 3e-2):
        k = kt.random_kappas(rng, scale)
        frame = dp.polarization_frame(dp.random_directions(rng))
        raw = hm.build_raw(space, kt.kf_from_kappas(k), frame)
        h = hm.build_grouped(space, k, frame)
        assert checks._raw_grouped_gap(space, k, frame) == abs(raw - h).max() > 0.0


def _stacked_draws(count, birefringent, seed=11):
    rng = np.random.default_rng(seed)
    stack = kt.kappa_draws(rng.normal(size=(count, kt.DRAW_WIDTH[birefringent])))
    sets = [kt.KappaSet(**{n: getattr(stack, n)[i] for n in _FIELDS}) for i in range(count)]
    return rng, stack, sets


@pytest.mark.parametrize("birefringent", [False, True])
def test_tensor_kernels_match_their_one_set_calls(birefringent):
    rng, stack, sets = _stacked_draws(2000, birefringent)
    kfs = kt.kf_from_kappas(stack)
    single = np.array([kt.kf_from_kappas(k) for k in sets])
    assert np.max(np.abs(kfs - single)) <= 1e-17
    assert kfs.shape == (2000, 4, 4, 4, 4) and not kfs.flags.writeable

    back = kt.kappas_from_kf(kfs)
    for i in range(0, 2000, 7):
        one = kt.kappas_from_kf(kfs[i])
        assert type(one.tr) is float and type(one.is_birefringent) is bool
        for name in _FIELDS:
            assert np.max(np.abs(getattr(back, name)[i] - getattr(one, name))) <= 1e-17
    distance = kt.kappa_distance(stack, back)
    want = [kt.kappa_distance(k, kt.kappas_from_kf(kf)) for k, kf in zip(sets, kfs)]
    assert np.max(np.abs(distance - want)) <= 1e-17

    violation = kt.check_invariants(kfs).max_violation
    want = [kt.check_invariants(kf).max_violation for kf in kfs]
    assert np.max(np.abs(violation - want)) <= 1e-17

    w, x, y, z = rng.normal(size=(4, 2000, 4))
    got = kt.contract4(kfs, w, x, y, z)
    want = [kt.contract4(*args) for args in zip(kfs, w, x, y, z)]
    assert np.max(np.abs(got - want)) <= 1e-17
    assert all(type(value) is float for value in want)

    rots = checks._rotations(rng.normal(size=(2000, 9)))
    turned = stack.rotated(rots)
    for i in range(0, 2000, 7):
        one = sets[i].rotated(rots[i])
        for name in _FIELDS:
            assert np.max(np.abs(getattr(turned, name)[i] - getattr(one, name))) <= 1e-17

    if not birefringent:
        got = kt.contract4_kappa(stack, w, x, y, z)
        want = [kt.contract4_kappa(*args) for args in zip(sets, w, x, y, z)]
        assert np.max(np.abs(got - want)) <= 1e-17
        assert all(type(value) is float for value in want)


@pytest.mark.parametrize("birefringent", [False, True])
def test_dispersion_kernels_match_their_one_set_calls(birefringent):
    rng, stack, sets = _stacked_draws(2000, birefringent, seed=12)
    kfs = kt.kf_from_kappas(stack)
    khats = dp.random_directions(rng, 2000)
    tilde = dp.ktilde(kfs, khats)
    rho, sigma = dp.rho_sigma(kfs, khats)
    for i in range(2000):
        assert np.max(np.abs(tilde[i] - dp.ktilde(kfs[i], khats[i : i + 1])[0])) <= 1e-17
        one_rho, one_sigma = dp.rho_sigma(kfs[i], khats[i])
        assert abs(rho[i] - one_rho) <= 1e-17 and abs(sigma[i] - one_sigma) <= 1e-17
        assert type(one_rho) is float and type(one_sigma) is float
    if birefringent:
        with pytest.raises(ValueError, match="birefringence"):
            dp.delta_nonbiref(stack, khats)
    else:
        delta = dp.delta_nonbiref(stack, khats)
        want = [dp.delta_nonbiref(k, khat) for k, khat in zip(sets, khats)]
        assert np.max(np.abs(delta - want)) <= 1e-17
        assert all(type(value) is float for value in want)


def test_stacks_are_validated_on_every_row():
    _, stack, _ = _stacked_draws(5, False)
    fields = {name: np.array(getattr(stack, name)) for name in _FIELDS}
    fields["e_minus"][3, 0, 1] += 1e-9
    with pytest.raises(ValueError, match="e_minus must be symmetric"):
        kt.KappaSet(**fields)
    fields["e_minus"][3, 0, 1] -= 1e-9
    fields["o_plus"][1, 2, 2] = 1e-9
    with pytest.raises(ValueError, match="o_plus must be antisymmetric"):
        kt.KappaSet(**fields)
    fields["o_plus"][1, 2, 2] = 0.0
    fields["tr"][4] = np.nan
    with pytest.raises(ValueError, match="tr must be finite"):
        kt.KappaSet(**fields)
    fields["tr"][4] = 0.0
    fields["e_plus"] = np.zeros((5, 3, 4))
    with pytest.raises(ValueError, match="e_plus must be 3x3"):
        kt.KappaSet(**fields)

    kfs = np.array(kt.kf_from_kappas(stack))
    kfs[2, 0, 1, 0, 1] += 1e-9  # breaks a pair antisymmetry in one tensor
    with pytest.raises(ValueError, match="invariants"):
        kt.kappas_from_kf(kfs)

    _, biref, _ = _stacked_draws(5, True)
    vectors = np.ones((4, 5, 4))
    with pytest.raises(ValueError, match="non-birefringent"):
        kt.contract4_kappa(biref, *vectors)
    with pytest.raises(ValueError, match="4 components"):
        kt.contract4(kfs, *np.ones((4, 5, 3)))
    with pytest.raises(ValueError, match="4x4x4x4"):
        kt.check_invariants(kfs[..., 0])


def _records(group):
    return {record["name"]: record for record in group}


def test_a_broken_read_off_sign_fails_kappa_roundtrip(monkeypatch):
    assert _records(checks._tensor_checks(np.random.default_rng(0)))["kappa_roundtrip"]["pass"]
    read_off = kt._read_off

    def flipped(K):
        blocks = read_off(K)
        blocks["o_plus"] = -blocks["o_plus"]
        return blocks

    monkeypatch.setattr(kt, "_read_off", flipped)
    record = _records(checks._tensor_checks(np.random.default_rng(0)))["kappa_roundtrip"]
    assert record["pass"] is False and record["measured"] > 1e-3


def _parity_broken_frames(monkeypatch):
    frame_of = dp.polarization_frame

    def unflipped(khat):  # eps2(-k) = +eps2(k): the parity rule broken
        frame = frame_of(khat)
        canonical = dp._canonical_hemisphere(frame.khat)
        eps2 = np.where(np.asarray(canonical)[..., None], frame.eps2, -frame.eps2)
        return dp.PolarizationFrame(eps1=frame.eps1, eps2=eps2, khat=frame.khat)

    monkeypatch.setattr(dp, "polarization_frame", unflipped)


def test_a_broken_frame_parity_fails_frame_parity(monkeypatch):
    assert _records(checks._dispersion_checks(np.random.default_rng(0)))["frame_parity"]["pass"]
    _parity_broken_frames(monkeypatch)
    record = _records(checks._dispersion_checks(np.random.default_rng(0)))["frame_parity"]
    assert record["pass"] is False and record["measured"] > 0.1


def test_a_missing_ladder_operator_fails_the_interior_commutators(monkeypatch):
    # [a, bar(a)] = 0 stores nothing on the diagonal, so the check sees
    # -zeta there only if it subtracts zeta on unstored entries too
    annihilator = fs.annihilator

    def dropped(space, mode):
        if mode == fs.ModeId(fs.MINUS_K, 2):
            return sp.csr_matrix((space.dim, space.dim), dtype=complex)
        return annihilator(space, mode)

    monkeypatch.setattr(fs, "annihilator", dropped)
    record = _records(checks._fock_checks(np.random.default_rng(0)))[
        "ladder_commutators_interior"
    ]
    assert record["pass"] is False and record["measured"] == 1.0


def test_a_failing_zero_tolerance_check_still_renders_parseable_json(monkeypatch):
    # the broken frames fail other checks too; frame_parity is the one
    # with a zero tolerance
    _parity_broken_frames(monkeypatch)
    report, status = checks.cmd_verify(cli.RunConfig())
    assert status == 1 and "frame_parity" in report["failures"]
    parsed = json.loads(cli.render_json(report))
    record = _records(parsed["checks"])["frame_parity"]
    assert record["tolerance"] == 0.0 and record["measured"] > 0.0
    assert record["margin"] is None
    for check in parsed["checks"]:
        assert check["margin"] is None or math.isfinite(check["margin"])


@pytest.mark.parametrize(
    "measured, tolerance, margin",
    [
        (0.0, 0.0, 0.0),
        (2.0, 0.0, None),
        (5e-13, 1e-12, 0.5),
        (0.0, 1e-12, 0.0),
        (float("nan"), 1e-12, None),
        (float("inf"), 1e-12, None),
        (1e300, 1e-12, None),
    ],
)
def test_margin_is_a_finite_ratio_or_null(measured, tolerance, margin):
    assert checks._margin(measured, tolerance) == margin
