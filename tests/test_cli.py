"""Tests for the command-line interface: config handling and reports."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from lvphoton import cli
from lvphoton import fock_space as fs
from lvphoton import kappa_tensor as kt

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


# ------------------------------------------------------------- config


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


def test_rejects_out_of_range_cutoff(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", dict(SAMPLE, cutoff=9))
    status, _, err = _run(capsys, ["decompose", "--config", path])
    assert status == 2


def test_rejects_nonperturbative_scales(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", dict(SAMPLE, scales=[0.5]))
    status, _, err = _run(capsys, ["spectrum", "--config", path])
    assert status == 2


def test_rejects_inconsistent_dual_input(tmp_path, capsys):
    kf = kt.as_kf_components(
        kt.kf_from_kappas(kt.random_kappas(np.random.default_rng(1), 1e-2))
    )
    payload = dict(SAMPLE, kf_components=kf.tolist())
    path = _write(tmp_path, "cfg.json", payload)
    status, _, err = _run(capsys, ["decompose", "--config", path])
    assert status == 2
    assert "different tensors" in err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"cutoff": 2.9}, "cutoff must be an integer"),
        ({"cutoff": None}, "cutoff must be an integer"),
        ({"cutoff": True}, "cutoff must be an integer"),
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
    ],
)
def test_mistyped_config_is_one_line_usage_error(tmp_path, capsys, payload, message):
    path = _write(tmp_path, "cfg.json", payload)
    status, out, err = _run(capsys, ["decompose", "--config", path])
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_direction_is_normalized(tmp_path):
    path = _write(tmp_path, "cfg.json", {"direction": [0.0, 0.0, 4.0]})
    config = cli.load_config(path)
    assert np.allclose(config.direction, [0.0, 0.0, 1.0])


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


def test_strict_rejects_perturbed_tensor(tmp_path, capsys):
    rng = np.random.default_rng(5)
    kf = kt.as_kf_components(kt.kf_from_kappas(kt.random_kappas(rng, 1e-2)))
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


def test_dispersion_birefringent_reports_null_delta(tmp_path, capsys):
    k = kt.random_kappas(np.random.default_rng(7), 1e-2, birefringent=True)
    payload = {
        "kappa_e_minus": k.e_minus.tolist(),
        "kappa_o_plus": k.o_plus.tolist(),
        "kappa_tr": k.tr,
        "kappa_e_plus": k.e_plus.tolist(),
        "kappa_o_minus": k.o_minus.tolist(),
    }
    path = _write(tmp_path, "cfg.json", payload)
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


def test_spectrum_rejects_shallow_cutoff(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", SAMPLE)
    status, _, err = _run(capsys, ["spectrum", "--config", path, "--cutoff", "1"])
    assert status == 2
    assert "headroom" in err


def test_spectrum_rejects_sweep_of_zero_parameters(tmp_path, capsys):
    path = _write(tmp_path, "zero.json", {"scales": [1e-2]})
    status, _, err = _run(capsys, ["spectrum", "--config", path])
    assert status == 2


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
    # the sparse coupler acts as strength (|c><Ma| + |a><Mc|) on any vector
    space = fs.build_space(2)
    zero = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    defect = cli._inject_c_defect(space, zero, strength=1e-3)
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


# ------------------------------------------------------------ emitter


def test_float_rendering_round_trips_doubles():
    values = [0.1, 1.0 / 3.0, 1e-17, -2.5e300, 0.015625]
    text = cli.render_json({"values": values})
    assert json.loads(text)["values"] == values


def test_render_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        cli.render_json({"bad": object()})
