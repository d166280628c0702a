"""The benchmark's dispersion-grid passes must run on its known hard seeds.

`benchmarks/workloads.py` draws a birefringent config per seed and gates
`dispersion --grid 5000` on a root-residual bound.  On seeds 24, 58 and
65 some directions move a transverse root by more than five times the
largest tensor component, which a fixed 5 s root bracket missed, so
the whole pass exited with an error.  This test reads the generator
and the gate from that file, without changing it, and runs one whole
pass through the CLI for each seed.
"""

import contextlib
import importlib.util
import io
import pathlib

import pytest

from lvphoton import cli

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("_lvphoton_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [24, 58, 65])
def test_dispersion_grid_pass_holds_the_root_bound(workloads, tmp_path, seed):
    one_pass = workloads.dispersion_grid(seed, str(tmp_path))
    statuses, stdouts = [], []
    for argv in one_pass.argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            statuses.append(cli.main(argv))
        stdouts.append(out.getvalue())
    attempted, failures = one_pass.gate(statuses, stdouts)
    assert statuses == [0, 0, 0]
    assert attempted == 5002
    assert failures == {"missing_rows": 0, "root_residual": 0, "decompose_round_trip": 0}
