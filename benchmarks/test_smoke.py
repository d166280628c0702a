"""Smoke test of the benchmark itself.

Runs ``benchmarks/run.py --smoke``: every workload once at its smallest
size, the report schema against BENCHMARK.json, and the injected verify
failure counted as exactly one failed op.  Run it from the repository
root with ``python -m pytest benchmarks/test_smoke.py``; it takes about
a minute and a half on two cores.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke: ok")
