"""The lvphoton benchmark: three CLI workloads, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload verify-aniso --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --smoke

Each run measures set-up in several fresh processes, then runs the
workload's passes in one more process (benchmarks/worker.py) for the given
number of seconds, one process at a time.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics.  Every pass's outputs go through
the workload's gate (benchmarks/workloads.py).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report, which is also
written under ``.bench_out/``.  ``--smoke`` runs each workload once at its
smallest size, checks that every metric of BENCHMARK.json is reported with
its unit, and checks that an injected verify failure is counted.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh processes timed for set-up besides the measuring one; the
#: reported set-up time is the median over all of them.
SETUP_SAMPLES = 4
#: BLAS threads in every benchmark process.  The work is sparse products
#: and tiny dense solves, which do not use BLAS threads; one thread keeps
#: a shared machine from adding oversubscription noise.
BLAS_THREADS = 1
#: A whole run must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for name in sorted(tracing.LAYER_NAMES):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(tracing.SIZES)
    units.update(
        {
            "cli.self_s": "s",
            "kappa_tensor.first_basis_s": "s",
            "dispersion.warnings": "count",
            "tracing_overhead_s": "s",
            "fail_ratio": "ratio",
        }
    )
    return units


class BenchError(Exception):
    """The run cannot produce a result."""


def _env():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(job, deadline):
    """Start a worker; return (seconds until it printed ready, its result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE,
        text=True,
        env=_env(),
        cwd=ROOT,
    )
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if first.strip() != "ready":
            raise BenchError("worker failed during set-up")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran past the deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def _machine():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "lvphoton")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "package_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def measure(workload, seed, seconds, trace, smoke=False, inject=False):
    """Run one benchmark run; return the worker result plus set-up samples."""
    deadline = time.perf_counter() + DEADLINE_S
    tag = f"{workload}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke else "")
    workdir = os.path.join(OUT, tag)
    setups = []
    for _ in range(SETUP_SAMPLES):
        setups.append(_spawn({"setup_only": True}, deadline)[0])
    job = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "smoke": smoke,
        "inject": inject,
        "workdir": workdir,
        "spans": os.path.join(OUT, f"spans-{tag}.npz"),
    }
    setup_s, result = _spawn(job, deadline)
    if result is None:
        raise BenchError("worker printed no result")
    setups.append(setup_s)
    result["setup_samples"] = setups
    result["tag"] = tag
    return result


def metrics_of(result, trace):
    """Every metric of one mode as {name: (value, unit)}."""
    if trace:
        values, units = result["per_layer"], per_layer_units()
    else:
        values = {
            "setup_s": statistics.median(result["setup_samples"]),
            "run_s": statistics.median(result["run_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    return {name: (values[name], unit) for name, unit in units.items()}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def select(spec, measured, trace):
    """The metrics BENCHMARK.json names for this mode, with matching units."""
    out = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        if entry["name"] not in measured:
            raise BenchError(f"metric {entry['name']} was not measured")
        value, unit = measured[entry["name"]]
        if unit != entry["unit"]:
            raise BenchError(f"metric {entry['name']} has unit {unit}, not {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def run(args):
    spec = load_spec()
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    metrics = select(spec, metrics_of(result, args.trace), args.trace)
    meta = dict(_machine(), workload=args.workload, seed=args.seed, **result["meta"])
    report = {
        "meta": meta,
        "samples": {
            "setup_s": len(result["setup_samples"]),
            "run_s": len(result["run_s"]),
            "traced_s": len(result["traced_s"]),
        },
        "raw": {
            "setup_s": result["setup_samples"],
            "run_s": result["run_s"],
            "traced_s": result["traced_s"],
        },
        "failures": result["failures"],
        "known_defects": result["known_defects"],
        "metrics": metrics,
    }
    if args.trace:
        report["calls_repeat"] = result["calls_repeat"]
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"report-{result['tag']}.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


def smoke():
    """Each workload once at its smallest size; schema and gate checks."""
    spec = load_spec()
    problems = []
    want = {
        "end_to_end": END_TO_END,
        "per_layer": per_layer_units(),
    }
    for key, units in want.items():
        declared = {entry["name"]: entry["unit"] for entry in spec[key]}
        if declared != units:
            problems.append(f"BENCHMARK.json {key} does not match the benchmark")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match the benchmark")
    for name in WORKLOADS:
        before = len(problems)
        result = measure(name, 1, 0, trace=True, smoke=True)
        for trace in (False, True):
            try:
                select(spec, metrics_of(result, trace), trace)
            except BenchError as exc:
                problems.append(f"{name}: {exc}")
        if result["failed"]:
            problems.append(f"{name}: {result['failed']} of {result['attempted']} ops failed")
        if not result["calls_repeat"]:
            problems.append(f"{name}: call counts differ between traced passes")
        ok = len(problems) == before
        print(f"{name}: ok={ok} attempted={result['attempted']}", flush=True)
    injected = measure("verify-aniso", 1, 0, trace=False, smoke=True, inject=True)
    if injected["failed"] != 1:
        problems.append(
            f"injected leakage counted as {injected['failed']} failed ops, not 1"
        )
    print(f"verify-aniso --inject-c-leakage: failed={injected['failed']}", flush=True)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lvphoton", "cli.py")):
        print("error: no lvphoton sources under src/ in this checkout", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
