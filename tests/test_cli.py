"""Tests for the command-line interface: config handling and reports."""

import contextlib
import csv
import io
import json
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lvphoton import checks, cli
from lvphoton import dispersion as dp
from lvphoton import fock_space as fs
from lvphoton import hamiltonian as hm
from lvphoton import kappa_tensor as kt
from lvphoton import modes as md

import spectrum_reference  # tests/spectrum_reference.py

# dyadic values survive a parse/print cycle bit for bit
SAMPLE = {
    "kappa_e_minus": [
        [0.015625, 0.0078125, 0.0],
        [0.0078125, -0.0078125, 0.0],
        [0.0, 0.0, -0.0078125],
    ],
    "kappa_o_plus": [
        [0.0, 0.00390625, 0.0],
        [-0.00390625, 0.0, 0.001953125],
        [0.0, -0.001953125, 0.0],
    ],
    "kappa_tr": 0.0009765625,
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    status = cli.main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which JSON does not have."""

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


# ------------------------------------------------------------- config


def _array_records():
    """One instance of each record that holds arrays or sparse matrices."""
    rng = np.random.default_rng(5)
    k = kt.random_kappas(rng, 1e-2)
    kf = kt.kf_from_kappas(k)
    space = fs.build_space(1)
    kvecs = dp.random_directions(rng, 3)
    return [
        k,
        space,
        hm.transverse_space(1),
        dp.polarization_frame(kvecs),
        cli.RunConfig(),
        kt.check_invariants(np.stack([kf, kf])),
        cli.Columns(dp.dispersion_table(k, kvecs), len(kvecs)),
    ]


def test_array_records_compare_by_identity():
    # value equality would compare arrays and fail; identity is well defined
    for record, twin in zip(_array_records(), _array_records()):
        assert record == record
        assert record != twin
        assert hash(record) == hash(record)
    assert fs.ModeId(fs.PLUS_K, 1) == fs.ModeId(fs.PLUS_K, 1)
    assert hash(fs.ModeId(fs.MINUS_K, 2)) == hash(fs.ModeId(fs.MINUS_K, 2))


def test_missing_file_is_usage_error(tmp_path, capsys):
    status, _, err = _run(capsys, ["decompose", "--config", str(tmp_path / "nope.json")])
    assert status == 2
    assert "cannot read config file" in err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    status, _, err = _run(capsys, ["verify", "--config", str(path)])
    assert status == 2
    assert "not valid JSON" in err


def test_rejects_zero_direction(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", {"direction": [0.0, 0.0, 0.0]})
    status, _, err = _run(capsys, ["decompose", "--config", path])
    assert status == 2


@pytest.mark.parametrize("argv", [["decompose"], ["dispersion", "--grid", "3"], ["spectrum"], ["verify"]], ids=lambda argv: argv[0])
def test_config_cutoff_changes_no_report(tmp_path, capsys, argv):
    # no command reads a Fock cutoff, so the key is ignored whatever it holds
    payload = dict(SAMPLE, direction=[0.41, 0.32, -0.86], scales=[1e-2, 1e-3])

    def report(payload):
        status, out, err = _run(capsys, argv + ["--config", _write(tmp_path, "cfg.json", payload)])
        if argv[0] == "verify":  # every record but its timing
            out = json.loads(out)
            for check in out["checks"]:
                del check["elapsed_s"]
        return status, out, err

    want = report(payload)
    assert want[0] == 0 and want[2] == ""
    for cutoff in (2, 99, -1, 2.5, "x", None, True):
        assert report(dict(payload, cutoff=cutoff)) == want, cutoff


def test_rejects_nonperturbative_scales(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", dict(SAMPLE, scales=[0.5]))
    status, _, err = _run(capsys, ["spectrum", "--config", path])
    assert status == 2


def test_scales_share_the_one_perturbative_rule(tmp_path, capsys):
    # a scale is a parameter magnitude, so it gets the limit's 1e-12
    # allowance, as the config's own parameters do
    edge = 0.1 * (1 + 5e-13)
    path = _write(tmp_path, "edge.json", dict(SAMPLE, scales=[edge]))
    status, out, err = _run(capsys, ["spectrum", "--config", path])
    assert status == 0 and err == ""
    assert [row["scale"] for row in json.loads(out)["rows"]] == [edge]
    path = _write(tmp_path, "over.json", dict(SAMPLE, scales=[0.1 * (1 + 2e-12)]))
    status, out, err = _run(capsys, ["spectrum", "--config", path])
    assert status == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "perturbative" in err


def test_rejects_inconsistent_dual_input(tmp_path, capsys):
    kf = kt.kf_from_kappas(kt.random_kappas(np.random.default_rng(1), 1e-2))
    payload = dict(SAMPLE, kf_components=kf.tolist())
    path = _write(tmp_path, "cfg.json", payload)
    status, _, err = _run(capsys, ["decompose", "--config", path])
    assert status == 2
    assert "different tensors" in err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"time": 0.0}, "time must be a positive real"),
        ({"scales": [1e-3, -1e-3]}, "scales must be positive"),
        ({"output": 3}, "output must be a path string"),
        ({"scales": 0.01}, "scales must be a list of numbers"),
        ({"scales": ["0.01"]}, "every entry of scales must be a number"),
        ({"kappa_tr": [1]}, "kappa_tr must be a number"),
        ({"kappa_tr": 5.0}, "must be perturbative"),
        ({"kappa_tr": float("nan")}, "kappa_tr must be finite"),
        ({"kappa_tr": 10**400}, "kappa_tr must be finite"),
        ({"kappa_e_minus": [[0.0, 0.0], [0.0]]}, "kappa_e_minus must be a 3x3 array"),
        ({"kappa_o_plus": [[0, 0, 0], [0, 0, "x"], [0, 0, 0]]}, "every entry of kappa_o_plus"),
        ({"kf_components": 0.0}, "kf_components must be a 4x4x4x4 array"),
        ({"direction": None}, "direction must be a 3-vector"),
        ({"time": None}, "time must be a number"),
        ({"kapa_tr": 0.01}, 'unknown config key "kapa_tr"'),
        ({"kappa_tr": 0.01, "cutof": 3, "seed": 1}, 'unknown config key "cutof", "seed"'),
    ],
)
def test_mistyped_config_is_one_line_usage_error(tmp_path, capsys, payload, message):
    path = _write(tmp_path, "cfg.json", payload)
    status, out, err = _run(capsys, ["decompose", "--config", path])
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("command", ["decompose", "dispersion", "spectrum", "verify"])
def test_cutoff_flag_is_an_unrecognized_argument(tmp_path, capsys, command):
    # no command takes a cutoff, so argparse refuses the flag like any
    # unknown one, and no help text offers it
    path = _write(tmp_path, "cfg.json", SAMPLE)
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--config", path, "--cutoff", "3"])
    captured = capsys.readouterr()
    assert exit_.value.code == 2 and captured.out == ""
    assert captured.err.endswith("lvphoton: error: unrecognized arguments: --cutoff 3\n")
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--help"])
    captured = capsys.readouterr()
    assert exit_.value.code == 0 and "--config" in captured.out
    assert "--cutoff" not in captured.out


@pytest.mark.parametrize("where", ["missing_dir_flag", "directory_flag", "missing_dir_key"])
def test_unwritable_report_path_is_one_line_usage_error(tmp_path, capsys, where):
    missing = str(tmp_path / "missing" / "out.json")
    if where == "missing_dir_key":
        argv = ["decompose", "--config", _write(tmp_path, "cfg.json", dict(SAMPLE, output=missing))]
    else:
        target = missing if where == "missing_dir_flag" else str(tmp_path)
        argv = ["decompose", "--config", _write(tmp_path, "cfg.json", SAMPLE), "--output", target]
    status, out, err = _run(capsys, argv)
    assert status == 2
    assert out == ""
    assert err.startswith("error: cannot write report") and err.count("\n") == 1


# Generated configs: a valid config with up to two keys replaced by a
# bad value (wrong JSON type, NaN, infinity, an integer beyond the
# double range, magnitude above 0.1, wrong shape) or an unknown key
# added, and now and then a JSON document that is not an object.
_SMALL = st.floats(min_value=-0.02, max_value=0.02)
_WILD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.5, -3.0, 10**400]),
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


def _array(shape, entries):
    size = int(np.prod(shape))
    cells = st.lists(entries, min_size=size, max_size=size)
    return cells.map(lambda flat: np.array(flat, dtype=object).reshape(shape).tolist())


def _bad_array(shape):
    """One wild entry in an otherwise small array, a wrong shape, or no array."""
    return st.one_of(
        _array(shape, st.one_of(_SMALL, _SMALL, _SMALL, _WILD)),
        _array(shape, st.floats(min_value=0.2, max_value=1e3)),
        _array((2, 3), _SMALL),
        _array((3, 3, 1), _SMALL),
        st.lists(st.lists(_SMALL, max_size=4), max_size=4),
        _WILD,
    )


_VALID_RUN = {
    "direction": _array((3,), st.floats(min_value=-1.0, max_value=1.0)),
    "cutoff": _WILD,  # read by no command, so any value is valid
    "scales": st.lists(st.floats(min_value=1e-6, max_value=0.1), max_size=3),
    "time": st.floats(min_value=0.1, max_value=10.0),
    "command": st.just("decompose"),
}
_VALID = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "kappa_e_minus": _array((3, 3), _SMALL),
            "kappa_o_plus": _array((3, 3), _SMALL),
            "kappa_e_plus": _array((3, 3), _SMALL),
            "kappa_o_minus": _array((3, 3), _SMALL),
            "kappa_tr": _SMALL,
            **_VALID_RUN,
        },
    ),
    st.fixed_dictionaries({"kf_components": _array((4, 4, 4, 4), _SMALL)}, optional=_VALID_RUN),
)
_BAD = {
    "kappa_e_minus": _bad_array((3, 3)),
    "kappa_o_plus": _bad_array((3, 3)),
    "kappa_e_plus": _bad_array((3, 3)),
    "kappa_o_minus": _bad_array((3, 3)),
    "kappa_tr": st.one_of(_WILD, st.floats(min_value=0.2, max_value=1e3), st.lists(_SMALL, max_size=2)),
    "kf_components": _bad_array((4, 4, 4, 4)),
    "direction": st.one_of(_bad_array((3,)), st.just([0.0, 0.0, 0.0])),
    "scales": st.one_of(st.lists(st.one_of(_SMALL, _WILD), min_size=1, max_size=3), _WILD),
    "time": st.one_of(st.floats(max_value=0.0), _WILD),
    # never a string: a string names the file the report is written to
    "output": st.one_of(st.floats(), st.lists(_SMALL, max_size=2), st.booleans()),
}
_UNKNOWN_KEY = st.text(min_size=1, max_size=8).filter(lambda key: key not in cli.CONFIG_KEYS)


@st.composite
def _config(draw):
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return draw(st.one_of(_WILD, st.lists(_SMALL, max_size=2)))
    config = draw(_VALID)
    for key in draw(st.lists(st.sampled_from(sorted(_BAD) + [""]), max_size=2)):
        if key:
            config[key] = draw(_BAD[key])
        else:
            config[draw(_UNKNOWN_KEY)] = draw(_WILD)
    return config


def _magnitude_limit_payload():
    """A birefringent set of magnitude exactly 0.1 and one of its hard directions.

    Along this direction a transverse root moves by 5.1 times the largest
    tensor component, outside a 5 s root bracket, and the per-direction
    bound is too loose to certify one: the solver refuses it.
    """
    k = kt.random_kappas(np.random.default_rng(1), 1.0, birefringent=True)
    k = k.scaled(0.1 / k.magnitude)
    return {
        "kappa_e_minus": k.e_minus.tolist(),
        "kappa_o_plus": k.o_plus.tolist(),
        "kappa_tr": k.tr,
        "kappa_e_plus": k.e_plus.tolist(),
        "kappa_o_minus": k.o_minus.tolist(),
        "direction": dp.random_directions(np.random.default_rng(0), 29)[28].tolist(),
    }


@pytest.fixture(scope="module")
def fuzz_config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cfg.json"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(payload=_config())
@example(payload=_magnitude_limit_payload())
@example(payload=dict(SAMPLE, scales=[0.01, 0.01]))
def test_generated_configs_exit_zero_or_one_usage_line(fuzz_config_path, payload):
    fuzz_config_path.write_text(json.dumps(payload))
    path = str(fuzz_config_path)
    for argv in (
        ["decompose", "--config", path],
        ["dispersion", "--grid", "2", "--config", path],
        ["spectrum", "--config", path],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        err = err.getvalue()
        assert status in (0, 2)
        assert "Traceback" not in err
        if status == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert out.getvalue() == ""
        else:
            assert err == ""
            _strict_json(out.getvalue())


def test_direction_is_normalized(tmp_path):
    path = _write(tmp_path, "cfg.json", {"direction": [0.0, 0.0, 4.0]})
    config = cli.load_config(path)
    assert np.allclose(config.direction, [0.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "extreme, plain",
    [
        ([1e200, 1e200, 0.0], [1.0, 1.0, 0.0]),
        ([1e154, 1e154, 1e154], [1.0, 1.0, 1.0]),
        ([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ],
)
def test_directions_beyond_the_squared_range_normalize_like_plain_ones(
    tmp_path, capsys, extreme, plain
):
    # the squared norm of `extreme` overflows or underflows; the report
    # must be the plain direction's, with no warning on stderr
    reports = []
    for name, direction in (("extreme.json", extreme), ("plain.json", plain)):
        path = _write(tmp_path, name, dict(SAMPLE, direction=direction))
        status, out, err = _run(capsys, ["dispersion", "--config", path])
        assert (status, err) == (0, "")
        reports.append(out)
    assert reports[0] == reports[1]
    path = _write(tmp_path, "zero.json", dict(SAMPLE, direction=[0.0, 0.0, 0.0]))
    status, out, err = _run(capsys, ["dispersion", "--config", path])
    assert (status, out) == (2, "")
    assert err == "error: direction must be a nonzero finite 3-vector\n"


def test_absent_keys_keep_the_run_config_defaults(tmp_path):
    config = cli.load_config(_write(tmp_path, "zero.json", {}))
    default = cli.RunConfig()
    for name, value in vars(default).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(config, name), value), name
        elif name == "kappas":
            assert kt.kappa_distance(config.kappas, value) == 0.0
        else:
            assert getattr(config, name) == value, name
    assert default.direction is not cli.RunConfig().direction


# ---------------------------------------------------------- decompose


def test_decompose_zero_config(tmp_path, capsys):
    path = _write(tmp_path, "zero.json", {})
    status, out, _ = _run(capsys, ["decompose", "--config", path])
    assert status == 0
    report = json.loads(out)
    assert report["kappa_tr"] == 0.0
    assert np.all(np.asarray(report["kappa_e_minus"]) == 0.0)
    assert np.all(np.asarray(report["kf_components"]) == 0.0)
    assert report["symmetry"]["ok"] is True
    assert report["symmetry"]["max_violation"] == 0.0


def test_decompose_round_trip_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "first.json"
    path = _write(tmp_path, "cfg.json", SAMPLE)
    status = cli.main(
        ["decompose", "--config", path, "--strict-symmetry", "--output", str(first)]
    )
    assert status == 0
    second = tmp_path / "second.json"
    status = cli.main(
        [
            "decompose",
            "--config",
            str(first),
            "--strict-symmetry",
            "--output",
            str(second),
        ]
    )
    assert status == 0
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


def test_decompose_default_round_trip_is_byte_identical(tmp_path, capsys):
    # without --strict-symmetry the second call projects the report's
    # matrices again; that must not move a bit
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    for seed in range(1, 41):
        k = kt.random_kappas(np.random.default_rng(seed), 1e-2, birefringent=True)
        payload = {
            "kappa_e_minus": k.e_minus.tolist(),
            "kappa_o_plus": k.o_plus.tolist(),
            "kappa_tr": k.tr,
            "kappa_e_plus": k.e_plus.tolist(),
            "kappa_o_minus": k.o_minus.tolist(),
        }
        path = _write(tmp_path, "cfg.json", payload)
        assert cli.main(["decompose", "--config", path, "--output", str(first)]) == 0
        assert cli.main(["decompose", "--config", str(first), "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), seed
    capsys.readouterr()


def test_strict_rejects_asymmetric_matrix(tmp_path, capsys):
    payload = dict(SAMPLE)
    payload["kappa_e_minus"] = [
        [0.01, 0.002, 0.0],
        [0.0021, -0.005, 0.0],
        [0.0, 0.0, -0.005],
    ]
    path = _write(tmp_path, "cfg.json", payload)
    status, _, err = _run(capsys, ["decompose", "--config", path, "--strict-symmetry"])
    assert status == 2
    status, out, _ = _run(capsys, ["decompose", "--config", path])
    assert status == 0
    report = json.loads(out)
    m = np.asarray(report["kappa_e_minus"])
    assert m[0, 1] == pytest.approx(0.00205, abs=1e-15)
    assert m[0, 1] == m[1, 0]


@pytest.mark.parametrize("strict", [False, True])
def test_decompose_prints_no_negative_zero(tmp_path, capsys, strict):
    # e_minus's first two diagonal entries cancel, and the birefringent
    # blocks are left out: every zero the projection writes is +0
    payload = {
        "kappa_e_minus": [[0.01, 0.002, 0.0], [0.002, -0.01, 0.001], [0.0, 0.001, 0.0]],
        "kappa_tr": 0.003,
    }
    path = _write(tmp_path, "cfg.json", payload)
    argv = ["decompose", "--config", path] + (["--strict-symmetry"] if strict else [])
    status, out, _ = _run(capsys, argv)
    assert status == 0
    assert re.findall(r"-0(?![.\de])", out) == []
    report = json.loads(out)
    for key in ("kappa_e_minus", "kappa_e_plus", "kappa_o_minus"):
        assert report[key][2][2] == 0.0, key


def test_strict_rejects_perturbed_tensor(tmp_path, capsys):
    rng = np.random.default_rng(5)
    kf = kt.kf_from_kappas(kt.random_kappas(rng, 1e-2))
    bad = kf + rng.normal(size=kf.shape) * 1e-8
    path = _write(tmp_path, "cfg.json", {"kf_components": bad.tolist()})
    status, _, err = _run(capsys, ["decompose", "--config", path, "--strict-symmetry"])
    assert status == 2
    assert "structural invariants" in err
    # without the flag the tensor is projected, and the symmetry block
    # still reports the raw input's violations
    status, out, _ = _run(capsys, ["decompose", "--config", path])
    assert status == 0
    report = json.loads(out)
    assert report["symmetry"]["ok"] is False
    derived = np.asarray(report["kf_components"])
    assert kt.check_invariants(derived).ok()
    assert np.max(np.abs(derived - kf)) < 1e-7


# --------------------------------------------------------- dispersion


def test_dispersion_closed_forms_along_z(tmp_path, capsys):
    e33 = SAMPLE["kappa_e_minus"][2][2]
    o12 = SAMPLE["kappa_o_plus"][0][1]
    tr = SAMPLE["kappa_tr"]
    for sign in (+1.0, -1.0):
        payload = dict(SAMPLE, direction=[0.0, 0.0, sign])
        path = _write(tmp_path, "cfg.json", payload)
        status, out, _ = _run(capsys, ["dispersion", "--config", path])
        assert status == 0
        row = json.loads(out)["rows"][0]
        want = -tr + 0.5 * e33 + sign * o12
        assert row["delta"] == pytest.approx(want, abs=1e-14)
        # omegas carry the sigma noise floor (square root of a tiny
        # cancelling discriminant), so they sit a bit above delta's
        assert row["omega_plus"] == pytest.approx(1.0 + want, abs=2e-9)
        assert row["residual_plus"] < 1e-3


def test_dispersion_zero_kappa_grid(tmp_path, capsys):
    path = _write(tmp_path, "zero.json", {})
    status, out, _ = _run(
        capsys, ["dispersion", "--config", path, "--grid", "5", "--seed", "3"]
    )
    assert status == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 6
    for row in rows:
        assert row["delta"] == 0.0
        assert row["sigma"] == 0.0
        assert row["residual_minus"] == 0.0
        assert row["residual_plus"] == 0.0


def _birefringent_payload(seed):
    k = kt.random_kappas(np.random.default_rng(seed), 1e-2, birefringent=True)
    return {
        "kappa_e_minus": k.e_minus.tolist(),
        "kappa_o_plus": k.o_plus.tolist(),
        "kappa_tr": k.tr,
        "kappa_e_plus": k.e_plus.tolist(),
        "kappa_o_minus": k.o_minus.tolist(),
    }


def test_dispersion_birefringent_reports_null_delta(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", _birefringent_payload(7))
    status, out, _ = _run(capsys, ["dispersion", "--config", path])
    assert status == 0
    row = json.loads(out)["rows"][0]
    assert row["delta"] is None
    assert row["sigma"] > 0.0
    assert row["omega_plus"] > row["omega_minus"]


def test_dispersion_csv_format(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", SAMPLE)
    status, out, _ = _run(
        capsys, ["dispersion", "--config", path, "--grid", "2", "--format", "csv"]
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].split(",")[:4] == ["kx", "ky", "kz", "delta"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dispersion_grid_directions_are_one_at_a_time_draws(tmp_path, seed):
    # the grid is drawn as one array; its rows must be bit for bit the
    # directions that grid separate size-3 draws, each normalized alone, give
    path = _write(tmp_path, "cfg.json", _birefringent_payload(seed))
    report = cli.cmd_dispersion(cli.load_config(path), grid=5000, seed=seed)
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(5000):
        v = rng.normal(size=3)
        want.append(v / np.linalg.norm(v))
    columns = report["rows"].columns
    got = np.column_stack([columns[key][1:] for key in ("kx", "ky", "kz")])
    assert np.array_equal(got, np.array(want))


def test_dispersion_builds_the_tensor_once_without_bisection(
    tmp_path, capsys, monkeypatch
):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise RuntimeError("dispersion ran a bisection")

    calls = []
    build = kt.kf_from_kappas

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "brentq", refuse)
    monkeypatch.setattr(kt, "kf_from_kappas", counted)
    path = _write(tmp_path, "cfg.json", _birefringent_payload(4))
    status, out, err = _run(
        capsys, ["dispersion", "--config", path, "--grid", "500", "--seed", "4"]
    )
    assert status == 0 and err == ""
    assert len(json.loads(out)["rows"]) == 501
    assert len(calls) == 1
    modules = (cli, dp, fs, hm, kt)
    assert not any("brentq" in vars(module) for module in modules)


def test_dispersion_grid_runs_no_companion_eigensolve(tmp_path, capsys, monkeypatch):
    # at magnitude 1e-2 the bound certifies every direction, so Newton
    # finds every root and the companion fallback never runs
    def refuse(*args, **kwargs):
        raise AssertionError("dispersion ran the companion eigensolve")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    path = _write(tmp_path, "cfg.json", _birefringent_payload(5))
    status, out, err = _run(
        capsys, ["dispersion", "--config", path, "--grid", "5000", "--seed", "5"]
    )
    assert status == 0 and err == ""
    assert len(json.loads(out)["rows"]) == 5001


def _csv_text(rows):
    """The CSV that main writes for Columns, joined into one string."""
    return "".join(cli._csv_pieces(rows))


def _rowwise_csv(rows):
    """The CSV of Columns as earlier versions wrote a list of flat row dicts: the reference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        cells = []
        for key in header:
            v = row[key]
            if v is None:
                cells.append("")
            elif isinstance(v, (float, np.floating)):
                cells.append(format(float(v), ".17g"))
            else:
                cells.append(v)
        writer.writerow(cells)
    return buf.getvalue()


def _rowwise_dispersion(config, grid, seed):
    """cmd_dispersion as earlier versions built it, one object per row.

    The reference for the columnar command: batched rho/sigma and roots
    with eigenvectors, then per direction a one-row delta, the row's
    float fields and a row dict.  (rho/sigma stay batched: a one-row einsum
    can round sigma's cancelling difference differently.)
    """
    k = config.kappas
    kf = kt.kf_from_kappas(k)
    directions = np.vstack(
        (config.direction, dp.random_directions(np.random.default_rng(seed), grid))
    )
    khats, norms = dp._unit_rows(directions)
    rhos, sigmas = dp.rho_sigma(kf, khats)
    omegas, _ = dp.solve_ampere(kf, directions)
    rows = []
    for direction, khat, norm, rho, sigma, roots in zip(
        directions, khats, norms, rhos, sigmas, omegas
    ):
        omega_plus = float((1.0 + rho + sigma) * norm)
        omega_minus = float((1.0 + rho - sigma) * norm)
        rows.append({
            "kx": direction[0],
            "ky": direction[1],
            "kz": direction[2],
            "delta": None if k.is_birefringent else dp.delta_nonbiref(k, khat),
            "rho": float(rho),
            "sigma": float(sigma),
            "omega_minus": omega_minus,
            "omega_plus": omega_plus,
            "omega_minus_root": roots[0],
            "omega_plus_root": roots[1],
            "residual_minus": abs(roots[0] - omega_minus),
            "residual_plus": abs(roots[1] - omega_plus),
        })
    return {"command": "dispersion", "rows": rows}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("birefringent", [False, True])
def test_columnar_dispersion_matches_the_rowwise_reference(tmp_path, seed, birefringent):
    rng = np.random.default_rng(seed)
    k = kt.random_kappas(rng, 1e-2, birefringent)
    payload = {
        "kappa_e_minus": k.e_minus.tolist(),
        "kappa_o_plus": k.o_plus.tolist(),
        "kappa_tr": k.tr,
        "kappa_e_plus": k.e_plus.tolist(),
        "kappa_o_minus": k.o_minus.tolist(),
        "direction": dp.random_directions(rng).tolist(),
    }
    config = cli.load_config(_write(tmp_path, "cfg.json", payload))
    for grid in (0, 1, 500, 5000):
        report = cli.cmd_dispersion(config, grid=grid, seed=seed)
        want = _rowwise_dispersion(config, grid, seed)
        assert cli.render_json(report) == _recursive_render_json(want)
        assert _csv_text(report["rows"]) == _rowwise_csv(want["rows"])


# ------------------------------------------------ block-wise report writer

#: Rows per block of the report writer.
B = dp.BLOCK_ROWS


def _payload(birefringent):
    """A dispersion config of one set, birefringent (null delta) or not."""
    return _birefringent_payload(8) if birefringent else SAMPLE


def _one_string(report, fmt):
    """The whole report as one string, from its rows as dicts: the reference."""
    rows = _row_dicts(report["rows"])
    if fmt == "json":
        return _recursive_render_json(dict(report, rows=rows)) + "\n"
    if rows:
        return _rowwise_csv(rows)
    return ",".join(report["rows"].columns) + "\n"


@pytest.mark.parametrize("birefringent", [False, True])
@pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 3 * B + 5])
def test_block_writer_prints_the_one_string_bytes(tmp_path, capsys, count, birefringent):
    # the writer sends a Columns report one block of rows at a time; its
    # bytes are those of the whole report as one string, on stdout and
    # in a file, in JSON and in CSV
    config = cli.load_config(_write(tmp_path, "cfg.json", _payload(birefringent)))
    directions = dp.random_directions(np.random.default_rng(count), count)
    rows = cli.Columns(dp.dispersion_table(config.kappas, directions), count)
    report = {"command": "dispersion", "rows": rows}
    assert (report["rows"].columns["delta"] is None) == birefringent
    out = tmp_path / "out.txt"
    writers = {"json": cli._json_pieces, "csv": lambda r, _: cli._csv_pieces(r["rows"])}
    for fmt, pieces in writers.items():
        want = _one_string(report, fmt)
        blocks = [piece for piece in pieces(report, 0) if "omega_plus_root" in piece]
        if fmt == "json":
            assert len(blocks) == -(-count // B)
            assert all(piece.count("omega_plus_root") <= B for piece in blocks)
        cli._emit(pieces(report, 0), None)
        assert capsys.readouterr().out == want
        cli._emit(pieces(report, 0), str(out))
        assert out.read_text(encoding="utf-8") == want
    if count == 0:
        return
    # through main: the config direction and count - 1 grid directions
    path = _write(tmp_path, "cfg.json", _payload(birefringent))
    report = cli.cmd_dispersion(cli.load_config(path), grid=count - 1, seed=count)
    for fmt in ("json", "csv"):
        argv = ["dispersion", "--config", path, "--grid", str(count - 1), "--seed", str(count)]
        argv += ["--format", fmt]
        assert _run(capsys, argv) == (0, _one_string(report, fmt), "")
        assert _run(capsys, argv + ["--output", str(out)]) == (0, "", "")
        assert out.read_text(encoding="utf-8") == _one_string(report, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_dispersion_report_is_one_line_usage_error(tmp_path, capsys, fmt, where):
    target = tmp_path / "missing" / "out.txt" if where == "missing_dir" else tmp_path
    path = _write(tmp_path, "cfg.json", _payload(True))
    argv = ["dispersion", "--config", path, "--grid", str(2 * B), "--format", fmt]
    status, out, err = _run(capsys, argv + ["--output", str(target)])
    assert status == 2 and out == ""
    assert err.startswith("error: cannot write report") and err.count("\n") == 1


#: Bound on the traced peak of a 20000-direction dispersion run, in bytes.
#: Blocked solvers and the block-wise writer peak at 4.4-4.6 MB; with
#: whole-grid solvers and the report built as one string the peak was
#: 41 MB, and whole-grid rho/sigma and delta alone reach 7.6 and 15 MB.
DISPERSION_PEAK_BOUND = 6e6


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("birefringent", [False, True])
def test_dispersion_grid_memory_does_not_grow_with_the_grid(tmp_path, fmt, birefringent):
    # tracemalloc sees numpy's buffers as well as Python's objects; the
    # report goes to a file, whose text is not held in memory
    path = _write(tmp_path, "cfg.json", _payload(birefringent))
    argv = ["dispersion", "--config", path, "--format", fmt, "--output", str(tmp_path / "out")]
    assert cli.main(argv + ["--grid", "10"]) == 0  # loads what a first call loads
    tracemalloc.start()
    try:
        status = cli.main(argv + ["--grid", "20000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak < DISPERSION_PEAK_BOUND


def _parse(parse, argv):
    """(exit code, stdout, stderr) of a parse that exits; None for one that does not."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    return None


def _parser_argvs(path):
    """Command lines that end in argparse: help, usage errors and bad values."""
    argvs = [["--help"], ["-h"], [], ["nope"], ["nope", "--help"], ["--config", path]]
    for command in cli.COMMANDS:
        argvs += [
            [command, "--help"],
            [command, "-h", "--config", path],
            [command, "--config", path, "--cutoff", "3"],
            [command, "--config", path, "extra"],
        ]
    argvs += [
        ["dispersion", "--config", path, "--grid", "x"],
        ["dispersion", "--config", path, "--seed", "1.5"],
        ["dispersion", "--config", path, "--format", "xml"],
        ["spectrum", "--config", path, "--format", "xml"],
        ["decompose"],
        ["spectrum", "--strict-symmetry"],
    ]
    return argvs


def test_one_command_parser_prints_what_the_full_parser_prints(tmp_path, monkeypatch):
    # main builds the top level and the named command's parser alone;
    # every help text, usage line, error and exit code is the full one's
    path = _write(tmp_path, "cfg.json", SAMPLE)
    built = []
    build = cli.build_parser

    def recorded(command=None):
        parser = build(command)
        built.append(sorted(parser._subparsers._group_actions[0].choices))
        return parser

    monkeypatch.setattr(cli, "build_parser", recorded)
    for argv in _parser_argvs(path):
        built.clear()
        full = _parse(lambda a: build().parse_args(a), argv)
        assert full is not None, argv
        assert _parse(cli.main, argv) == full, argv
        named = argv[0] if argv and argv[0] in cli.COMMANDS else None
        assert built == [[named] if named else sorted(cli.COMMANDS)], argv
    # the full parser names the command argument as it always did
    usage = "usage: lvphoton [-h] {decompose,dispersion,spectrum,verify} ...\n"
    assert _parse(cli.main, []) == (
        2, "", usage + "lvphoton: error: the following arguments are required: command\n"
    )
    assert _parse(cli.main, ["nope"])[2].startswith(
        usage + "lvphoton: error: argument command: invalid choice: 'nope'"
    )
    # a command line that parses gives the same arguments
    argv = ["dispersion", "--config", path, "--grid", "3", "--format", "csv"]
    assert vars(build("dispersion").parse_args(argv)) == vars(build().parse_args(argv))


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["dispersion", "--grid", "-3"], "--grid"),
        (["dispersion", "--seed", "-1"], "--seed"),
        (["verify", "--seed", "-1"], "--seed"),
    ],
)
def test_negative_grid_and_seed_are_usage_errors(tmp_path, capsys, argv, flag):
    path = _write(tmp_path, "cfg.json", SAMPLE)
    status, out, err = _run(capsys, argv + ["--config", path])
    assert status == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err


# ----------------------------------------------------------- spectrum


def test_spectrum_zero_kappa_gaps_are_unity(tmp_path, capsys):
    path = _write(tmp_path, "zero.json", {})
    status, out, _ = _run(capsys, ["spectrum", "--config", path])
    assert status == 0
    row = json.loads(out)["rows"][0]
    assert row["gap_plus"] == 1.0
    assert row["gap_minus"] == 1.0
    assert row["cross_before"] == 0.0
    assert row["cross_after"] == 0.0


def test_spectrum_gap_tracks_delta(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", SAMPLE)
    status, out, _ = _run(capsys, ["spectrum", "--config", path])
    assert status == 0
    row = json.loads(out)["rows"][0]
    for name in ("plus", "minus"):
        assert row[f"gap_residual_{name}"] < 5.0 * 0.015625**2
        assert abs(row[f"gap_{name}"] - 1.0 - row[f"delta_{name}"]) < 1e-3


def test_spectrum_sweep_cross_coupling_is_quadratic(tmp_path, capsys):
    payload = dict(SAMPLE, scales=[1e-2, 1e-3])
    path = _write(tmp_path, "cfg.json", payload)
    status, out, _ = _run(capsys, ["spectrum", "--config", path])
    assert status == 0
    report = json.loads(out)
    assert 1.8 < report["cross_fit_exponent"] < 2.2


def test_spectrum_fits_no_exponent_through_one_distinct_scale(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", dict(SAMPLE, scales=[0.01, 0.01]))
    status, out, err = _run(capsys, ["spectrum", "--config", path])
    assert (status, err) == (0, "")
    report = _strict_json(out)
    assert len(report["rows"]) == 2
    assert report["cross_fit_exponent"] is None


def test_spectrum_rejects_sweep_of_zero_parameters(tmp_path, capsys):
    path = _write(tmp_path, "zero.json", {"scales": [1e-2]})
    status, _, err = _run(capsys, ["spectrum", "--config", path])
    assert status == 2


def test_cli_stays_within_its_line_budget():
    # cli parses configs and arguments, dispatches and writes reports; the
    # physics of every report lives in the library modules
    lines = pathlib.Path(cli.__file__).read_text(encoding="utf-8").splitlines()
    assert len(lines) < 600


def _full_space_row(space, frame, kappas):
    """The gaps and cross terms of a spectrum row from the full 8-mode space.

    The six states (vacuum, the four transverse one-photon states, the
    +-k pair) are evolved by exp(-Xi) on the 8-mode space, and H is the
    sum of all six named blocks; cross_before is the metric-weighted
    <pair| M H |vac> before the transform.
    """
    h = hm.build_grouped(space, kappas, frame)
    xi = hm.xi_generators(space, kappas, frame)

    def index(*modes):
        occ = [0] * 8
        for mode in modes:
            occ[mode.slot] += 1
        return space.index_of(occ)

    pair = index(fs.ModeId(fs.PLUS_K, 1), fs.ModeId(fs.MINUS_K, 1))
    indices = [index()]
    for direction in (fs.PLUS_K, fs.MINUS_K):
        indices += [index(fs.ModeId(direction, pol)) for pol in (1, 2)]
    indices.append(pair)
    states = np.zeros((len(indices), space.dim), dtype=complex)
    states[np.arange(len(indices)), indices] = 1.0
    (energies,) = hm.transformed_matrices(space, [h], xi, states)
    cross_after = abs(energies[-1, 0])
    energies = energies.diagonal().real
    row = {}
    for name, first in (("plus", 1), ("minus", 3)):
        row[f"gap_{name}"] = max(abs(energies[first : first + 2] - energies[0]))
    row["cross_before"] = abs(fs.metric_diagonal(space)[pair] * h[pair, indices[0]])
    row["cross_after"] = cross_after
    return row


@pytest.fixture(scope="module")
def oblique_sweep(tmp_path_factory):
    """An oblique three-scale spectrum config, its parameter sets and frame."""
    payload = dict(SAMPLE, direction=[0.41, 0.32, -0.86], scales=[1e-2, 1e-3, 1e-4])
    path = tmp_path_factory.mktemp("sweep") / "cfg.json"
    path.write_text(json.dumps(payload))
    config = cli.load_config(str(path))
    frame = dp.polarization_frame(config.direction)
    magnitude = config.kappas.magnitude
    sets = [config.kappas.scaled(s / magnitude) for s in config.scales]
    return str(path), sets, frame


def _rowwise_spectrum(config):
    """cmd_spectrum as earlier versions built it, one dict per row: the reference."""
    frame = dp.polarization_frame(config.direction)
    magnitude = config.kappas.magnitude
    if config.scales:
        sweep = [(s, config.kappas.scaled(s / magnitude)) for s in config.scales]
    else:
        sweep = [(magnitude, config.kappas)]
    rows = [{"scale": s, **md.spectrum_values(k, frame)} for s, k in sweep]
    fit = None
    if len(rows) >= 2:
        crosses = np.array([row["cross_after"] for row in rows])
        scales = np.array([row["scale"] for row in rows])
        if np.all(crosses > 0.0):
            slope, _ = np.polyfit(np.log10(scales), np.log10(crosses), 1)
            fit = float(slope)
    return {
        "command": "spectrum",
        "kx": config.direction[0],
        "ky": config.direction[1],
        "kz": config.direction[2],
        "rows": rows,
        "cross_fit_exponent": fit,
    }


def test_columnar_spectrum_prints_the_rowwise_bytes(oblique_sweep, tmp_path, capsys):
    # the rows are Columns, printed as the list of row dicts was, in JSON
    # and CSV, with scale first and then the spectrum_values keys in order
    path, _, _ = oblique_sweep
    configs = [path, _write(tmp_path, "one.json", SAMPLE), _write(tmp_path, "zero.json", {})]
    for config in configs:
        want = _rowwise_spectrum(cli.load_config(config))
        status, out, err = _run(capsys, ["spectrum", "--config", config])
        assert (status, err) == (0, "") and out == _recursive_render_json(want) + "\n"
        status, out, err = _run(capsys, ["spectrum", "--config", config, "--format", "csv"])
        assert (status, err) == (0, "") and out == _rowwise_csv(want["rows"])
        assert out.split("\n", 1)[0] == (
            "scale,gap_plus,delta_plus,gap_residual_plus,gap_minus,delta_minus,"
            "gap_residual_minus,cross_before,cross_after"
        )


@pytest.mark.parametrize("cutoff", [2, 3])
def test_spectrum_factor_rows_match_full_space(oblique_sweep, cutoff):
    # the factor reference is the 8-mode space on the ghost vacuum, at
    # the same truncation
    _, sets, frame = oblique_sweep
    for kappas in sets:
        want = _full_space_row(fs.build_space(cutoff), frame, kappas)
        got = spectrum_reference.transverse_values(hm.transverse_space(cutoff), frame, kappas)
        for key, value in got.items():
            assert abs(value - want[key]) <= 1e-12, key


def test_spectrum_rows_match_the_factor_at_cutoff_6(oblique_sweep, capsys):
    # the exact rows are the factor's limit; at cutoff 6 the truncation
    # is below roundoff for sets of magnitude up to 2e-2
    path, sets, frame = oblique_sweep
    status, out, err = _run(capsys, ["spectrum", "--config", path])
    assert status == 0 and err == ""
    rows = json.loads(out)["rows"]
    assert [row["scale"] for row in rows] == [1e-2, 1e-3, 1e-4]
    for row, kappas in zip(rows, sets):
        want = spectrum_reference.transverse_values(hm.transverse_space(6), frame, kappas)
        assert set(row) == {"scale", *want} | {
            f"{key}_{side}" for key in ("delta", "gap_residual") for side in ("plus", "minus")
        }
        for key, value in want.items():
            assert abs(row[key] - value) <= 1e-13, key
        for side, khat in (("plus", frame.khat), ("minus", -frame.khat)):
            assert row[f"delta_{side}"] == (1.0 + dp.delta_nonbiref(kappas, khat)) - 1.0
            want = 1.0 + row[f"delta_{side}"]
            assert row[f"gap_residual_{side}"] == abs(row[f"gap_{side}"] - want)


def test_spectrum_accepts_deep_cutoffs(tmp_path, capsys):
    # the cutoff is not read: the rows are exact
    payload = dict(SAMPLE, direction=[0.41, 0.32, -0.86])
    argv = ["spectrum", "--config", _write(tmp_path, "cfg.json", dict(payload, cutoff=8))]
    status, out, err = _run(capsys, argv)
    assert status == 0 and err == ""
    plain = _write(tmp_path, "plain.json", payload)
    status, default, _ = _run(capsys, ["spectrum", "--config", plain])
    assert status == 0 and out == default
    report = json.loads(out)
    assert "cutoff" not in report
    (row,) = report["rows"]
    assert "truncation_shift" not in row
    assert row["gap_residual_plus"] < 5.0 * 0.015625**2


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["spectrum"], {"cutoff": 13}),
        (["spectrum", "--cutoff", "13"], {}),
        (["decompose", "--cutoff", "8"], {}),
        (["dispersion", "--cutoff", "5"], {}),
        (["verify"], {"cutoff": 5}),
        (["decompose", "--cutoff", "0"], {}),
    ],
)
def test_cutoff_ranges_per_command(tmp_path, capsys, argv, payload):
    # the inputs that per-command cutoff ranges used to refuse: no command
    # has a range now, a config cutoff runs as if absent and the flag is
    # unknown to every command
    path = _write(tmp_path, "cfg.json", dict(SAMPLE, **payload))
    if "--cutoff" in argv:
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv + ["--config", path])
        captured = capsys.readouterr()
        assert exit_.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --cutoff" in captured.err
        return
    status, out, err = _run(capsys, argv + ["--config", path])
    assert status == 0 and err == ""
    assert json.loads(out)["command"] == argv[0]


def test_spectrum_never_builds_the_full_space(tmp_path, capsys, monkeypatch):
    # spectrum rows are closed forms of the term table; an 8-mode space,
    # a sparse operator or an evolution anywhere in its path fails this test
    def refuse(*args, **kwargs):
        raise RuntimeError("spectrum built a Fock-space operator")

    for name in ("build_space", "monomial_sum", "propagate_blocks"):
        monkeypatch.setattr(fs, name, refuse)
    monkeypatch.setattr(hm, "build_grouped", refuse)
    path = _write(tmp_path, "cfg.json", dict(SAMPLE, cutoff=4, scales=[1e-3, 1e-4]))
    status, out, err = _run(capsys, ["spectrum", "--config", path])
    assert status == 0 and err == ""
    assert len(json.loads(out)["rows"]) == 2


# ------------------------------------------------------------- verify


def test_verify_default_config_passes(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    status = cli.main(["verify", "--output", str(out_path)])
    capsys.readouterr()
    assert status == 0
    report = json.loads(out_path.read_text())
    assert report["pass"] is True
    assert report["failures"] == []
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    assert "kappa_roundtrip" in names
    assert "counting_oracle_agreement" in names
    assert "c_class_leakage" in names
    for check in report["checks"]:
        assert check["pass"] is True
        assert check["measured"] <= check["tolerance"]


def test_verify_passes_at_a_seed_whose_draws_once_failed(tmp_path, capsys):
    # seed 54 failed ampere_scaling_exponent when each scale drew new shapes
    out_path = tmp_path / "report.json"
    status = cli.main(["verify", "--seed", "54", "--output", str(out_path)])
    capsys.readouterr()
    assert status == 0
    assert json.loads(out_path.read_text())["failures"] == []


def test_verify_detects_injected_leakage(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    status = cli.main(
        ["verify", "--inject-c-leakage", "--output", str(out_path)]
    )
    capsys.readouterr()
    assert status == 1
    report = json.loads(out_path.read_text())
    assert report["failures"] == ["c_class_leakage"]
    check = [c for c in report["checks"] if c["name"] == "c_class_leakage"][0]
    assert check["injected"] is True
    assert check["measured"] > 1e-8


def test_injected_defect_is_the_rank_two_coupler():
    # the sparse coupler acts as 1e-3 (|c><Ma| + |a><Mc|) on any vector
    space = fs.build_space(2)
    zero = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    defect = checks._inject_c_defect(space, zero)
    a_state = fs.dg_basis_state(space, (1, 0, 0, 0))
    c_state = fs.dg_basis_state(space, (0, 0, 1, 1))
    mdiag = fs.metric_diagonal(space)
    assert defect.nnz == 2 * np.count_nonzero(a_state) * np.count_nonzero(c_state)
    rng = np.random.default_rng(9)
    for _ in range(3):
        v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        want = 1e-3 * (
            c_state * ((mdiag * a_state).conj() @ v)
            + a_state * ((mdiag * c_state).conj() @ v)
        )
        assert np.max(np.abs(defect @ v - want)) < 1e-15


def test_verify_rescales_large_parameters_for_leakage(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", SAMPLE)
    status, out, _ = _run(capsys, ["verify", "--config", path])
    assert status == 0
    report = json.loads(out)
    check = [c for c in report["checks"] if c["name"] == "c_class_leakage"][0]
    assert check["scale"] == pytest.approx(1e-3)
    assert check["measured"] < 1e-12


def test_tiny_evolution_time_and_scale_exit_zero(tmp_path, capped_cli):
    # t r this small once sent the propagator's Bessel series into
    # unbounded growth; each run is capped, so that fails here as a
    # MemoryError instead of exhausting the machine
    path = _write(tmp_path, "time.json", {"time": 1e-300})
    verify = capped_cli(["verify", "--config", path])
    assert verify.returncode == 0, verify.stderr
    assert json.loads(verify.stdout)["failures"] == []
    path = _write(tmp_path, "scales.json", dict(SAMPLE, scales=[1e-300, 1e-3]))
    spectrum = capped_cli(["spectrum", "--config", path])
    assert spectrum.returncode == 0, spectrum.stderr
    assert [row["scale"] for row in json.loads(spectrum.stdout)["rows"]] == [1e-300, 1e-3]


# ------------------------------------------------------------ imports


def test_cli_leaves_scipy_special_unloaded():
    # importing scipy.special after lvphoton.cli takes 75-85 ms and
    # 2.4 MB; the propagator computes its Bessel values itself
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import numpy as np, scipy.sparse as sp\n"
        "import lvphoton.cli\n"
        "from lvphoton import fock_space as fs\n"
        "h = sp.csr_matrix(np.array([[1.0, 0.1], [0.2, 2.0]]))\n"
        "fs.propagate(h, np.eye(2), 3.0)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


#: Modules that decompose and dispersion must not load.
_FOCK_STACK = ("fock_space", "hamiltonian", "interaction", "lorenz", "checks")


def test_decompose_and_dispersion_load_no_scipy_and_no_fock_stack(tmp_path):
    # both commands need numpy alone; scipy costs about 0.45 s of
    # start-up, so cli loads it and the Fock-space modules lazily
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    config = _write(tmp_path, "cfg.json", SAMPLE)
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import json\n"
        "from lvphoton.cli import main\n"
        f"statuses = [main(['decompose', '--config', {config!r}, '--output', {str(tmp_path / 'd.json')!r}]),\n"
        f"            main(['dispersion', '--config', {config!r}, '--grid', '20', '--output', {str(tmp_path / 'g.json')!r}])]\n"
        f"fock = {['lvphoton.' + name for name in _FOCK_STACK]!r}\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in fock)\n"
        "print(json.dumps([statuses, loaded]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[0, 0], []]


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_lazy_commands_run_in_a_fresh_process(tmp_path, command):
    # a lazy import that was missed shows only in a process that has not
    # loaded the Fock-space modules already
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    argv = [command, "--config", _write(tmp_path, "cfg.json", SAMPLE)]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "from lvphoton.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["command"] == command


def test_verify_loads_only_scipy_sparse(tmp_path):
    # scipy.sparse.csgraph pulls in scipy.sparse.linalg and scipy.linalg,
    # 9-11 MB and 100-150 ms; the block finder needs numpy alone
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    config = _write(tmp_path, "cfg.json", SAMPLE)
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import contextlib, io, json\n"
        "from lvphoton.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = main(['verify', '--config', {config!r}])\n"
        "heavy = ('scipy.linalg', 'scipy.sparse.linalg', 'scipy.sparse.csgraph')\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(heavy))\n"
        "print(json.dumps([status, 'scipy.sparse' in sys.modules, loaded]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0, True, []]


def test_spectrum_loads_no_scipy_and_no_fock_stack(tmp_path):
    # the rows are closed forms in numpy (modes.spectrum_values), so a
    # spectrum process needs neither scipy nor the Fock-space modules
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    config = _write(tmp_path, "cfg.json", dict(SAMPLE, scales=[1e-2, 1e-3]))
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import contextlib, io, json\n"
        "from lvphoton.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = main(['spectrum', '--config', {config!r}])\n"
        f"fock = {['lvphoton.' + name for name in _FOCK_STACK]!r}\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in fock)\n"
        "print(json.dumps([status, 'lvphoton.modes' in sys.modules, loaded]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0, True, []]


# ------------------------------------------------------------ emitter


def test_float_rendering_round_trips_doubles():
    values = [0.1, 1.0 / 3.0, 1e-17, -2.5e300, 0.015625]
    text = cli.render_json({"values": values})
    assert json.loads(text)["values"] == values


def test_non_finite_floats_render_as_null(monkeypatch, capsys):
    text = cli.render_json({"values": [np.nan, np.inf, -np.inf, 1.5], "one": np.float64(np.nan)})
    assert _strict_json(text) == {"values": [None, None, None, 1.5], "one": None}
    rows = cli.Columns({"a": np.array([np.nan, 1.5]), "b": None}.items(), 2)
    assert _strict_json(cli.render_json(rows)) == [{"a": None, "b": None}, {"a": 1.5, "b": None}]
    # a check that fits no slope measures nan: null in the record, which still fails
    record = checks._check("x", checks._quadratic_slope_error([1e-2], [1e-4]), 0.2)
    parsed = _strict_json(cli.render_json(record))
    assert parsed["measured"] is None and parsed["margin"] is None and parsed["pass"] is False
    # and verify, whose exponent checks then fit nothing, exits 1 with a valid report
    monkeypatch.setattr(md, "loglog_slope", lambda x, y: None)
    status, out, err = _run(capsys, ["verify"])
    assert (status, err) == (1, "")
    report = _strict_json(out)
    unmeasured = [c["name"] for c in report["checks"] if c["measured"] is None]
    assert unmeasured and set(unmeasured) <= set(report["failures"])


def test_render_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        cli.render_json({"bad": object()})
    with pytest.raises(TypeError):
        cli.render_json({"bad": 1j, "fine": 1.0})
    with pytest.raises(TypeError):
        cli.render_json([{"bad": np.complex128(1j)}])


def _row_dicts(table):
    """The rows of Columns, one {name: float or None} dict each."""
    return [
        {k: None if c is None else float(c[i]) for k, c in table.columns.items()}
        for i in range(len(table))
    ]


def _recursive_render_json(value, indent=0):
    """The reference renderer: one recursive call per value."""
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_recursive_render_json(v, indent + 2)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, cli.Columns):  # its rows, one dict each
        value = _row_dicts(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in value):
            return "[" + ", ".join(_recursive_render_json(v) for v in value) + "]"
        items = [f"{pad}  {_recursive_render_json(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if value is None or isinstance(value, (bool, np.bool_)):
        return json.dumps(bool(value) if value is not None else None)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g") if np.isfinite(value) else "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


@pytest.fixture(scope="module")
def command_reports(tmp_path_factory):
    """One report of each command, the dispersion one birefringent (null delta)."""
    folder = tmp_path_factory.mktemp("reports")
    sample = cli.load_config(_write(folder, "sample.json", SAMPLE))
    biref = cli.load_config(_write(folder, "biref.json", _birefringent_payload(7)))
    sweep = cli.load_config(_write(folder, "sweep.json", dict(SAMPLE, scales=[1e-2, 1e-3])))
    return {
        "decompose": cli.cmd_decompose(sample),
        "dispersion": cli.cmd_dispersion(biref, grid=50, seed=3),
        "spectrum": cli.cmd_spectrum(sweep),
        "verify": checks.cmd_verify(sample, seed=1)[0],
    }


@pytest.mark.parametrize("command", ["decompose", "dispersion", "spectrum", "verify"])
def test_row_templates_render_like_the_recursive_renderer(command_reports, command):
    report = command_reports[command]
    assert cli.render_json(report) == _recursive_render_json(report)
    if command == "dispersion":
        assert report["rows"].columns["delta"] is None
    if command in ("dispersion", "spectrum"):  # CSV headers quote no name
        assert all(name.isidentifier() for name in report["rows"].columns)


def test_row_templates_on_edge_values():
    rng = np.random.default_rng(12)
    doubles = rng.normal(size=20) * 10.0 ** rng.integers(-300, 300, size=20)
    flat = {
        "nan": float("nan"),
        "inf": float("inf"),
        "-inf": -np.inf,
        "zero": -0.0,
        "tiny": 5e-324,
        "none": None,
        "yes": True,
        "no": np.bool_(False),
        "count": np.int64(-7),
        "small": np.int8(3),
        "f32": np.float32(0.1),
        "f64": np.float64(1.0 / 3.0),
        "text": 'quote " and % sign',
        "%s key %d": 2.5,
    }
    edge = dict(
        flat,
        empty_list=[],
        empty_dict={},
        array=np.arange(3.0),
        nested={"inner": [1, 2.0, None]},
    )
    rows = [
        {"a": float(x), "b": int(i), "c": None if i % 3 else "x"}
        for i, x in enumerate(doubles)
    ]
    rows.append({"a": 1, "b": 2.0, "c": True})  # same keys, other value types
    for value in (flat, edge, {"rows": rows}, [flat, edge], {}, [], {"one": {}}, {"k": [{}]}):
        assert cli.render_json(value) == _recursive_render_json(value)
        assert cli.render_json(value, indent=4) == _recursive_render_json(value, indent=4)


def test_row_lists_that_change_midway_fall_back_to_the_generic_walk():
    base = {"a": 1.5, "b": None, "c": -2.5e-300}
    variants = [
        {"a": 1.5, "b": None},
        {"a": 1.5, "b": None, "c": 2.0, "d": 3.0},
        {"c": 2.0, "b": None, "a": 1.5},
        {"a": 1.5, "b": 0.25, "c": 2.0},
        {"a": 1.5, "b": "null", "c": 2.0},
        {"a": 1, "b": None, "c": 2.0},
        {"a": True, "b": None, "c": 2.0},
        {"a": "1.5", "b": None, "c": 2.0},
        {"a": np.float64(1.5), "b": None, "c": 2.0},
        {"a": np.float32(1.5), "b": None, "c": 2.0},
        {"a": np.int64(2), "b": np.bool_(True), "c": 2.0},
        {"a": [1.5], "b": None, "c": 2.0},
        {"a": {"inner": 1.5}, "b": None, "c": 2.0},
        {},
        [1.5, None],
        1.5,
        None,
    ]
    for variant in variants:
        for at in (0, 1, 3):
            rows = [dict(base, a=float(i)) for i in range(4)]
            rows.insert(at, variant)
            for value in (rows, {"rows": rows}):
                for indent in (0, 4):
                    assert cli.render_json(value, indent) == _recursive_render_json(value, indent)


def test_uniform_rows_of_every_scalar_kind_render_like_the_recursive_renderer():
    rows = [
        {
            "flag": bool(i % 2),
            "count": i - 7,
            "name": f'row "{i}" at 100%',
            "np_count": np.int64(-i),
            "np_small": np.int8(i),
            "np_flag": np.bool_(i % 3 == 0),
            "np_text": np.str_(f"t{i}"),
            "f32": np.float32(i / 7.0),
            "f64": np.float64(i / 3.0),
            "x": i / 7.0,
            "none": None,
            "%d key": float(i),
        }
        for i in range(30)
    ]
    lists = [
        rows,
        [{"x": i / 3.0} for i in range(5)],
        [{"text": f"t{i}"} for i in range(5)],
        [{"flag": i % 2 == 0} for i in range(5)],
        [{"none": None} for _ in range(5)],
        [{"a": None, "b": None}, {"a": None, "b": None}],
        [{"x": float("nan"), "y": -0.0, "z": float("inf")}] * 3,
    ]
    for value in lists:
        for indent in (0, 2, 4):
            assert cli.render_json(value, indent) == _recursive_render_json(value, indent)
        nested = {"command": "x", "rows": value, "tail": [value]}
        assert cli.render_json(nested) == _recursive_render_json(nested)


def test_columns_render_like_their_rows():
    # Columns render as the list of their row dicts does, in JSON at
    # every indent and in CSV, with a null column, special floats and a
    # key that needs escaping
    rng = np.random.default_rng(13)
    columns = {
        "a": np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0 / 3.0, -2.5e300]),
        "none": None,
        'quote " and %s %': rng.normal(size=7) * 10.0 ** rng.integers(-300, 300, size=7),
        "b": np.arange(7.0),
    }
    table = cli.Columns(columns.items(), 7)
    rows = _row_dicts(table)
    assert len(table) == 7
    for indent in (0, 2, 4):
        assert cli.render_json(table, indent) == _recursive_render_json(rows, indent)
    report = {"command": "x", "rows": table, "tail": [1.5]}
    assert cli.render_json(report) == _recursive_render_json(dict(report, rows=rows))
    # the CSV header quotes no name, so it takes identifiers only, as reports hold
    plain = cli.Columns([(k, c) for k, c in columns.items() if k.isidentifier()], 7)
    assert _csv_text(plain) == _rowwise_csv(_row_dicts(plain))
    empty = cli.Columns({"a": np.zeros(0), "none": None}.items(), 0)
    assert cli.render_json(empty) == "[]" and len(empty) == 0
    assert _csv_text(empty) == "a,none\n"
