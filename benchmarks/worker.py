"""One benchmark process: set up lvphoton, run timed passes, report.

Started by run.py with one JSON argument describing the job.  It imports
``lvphoton.cli`` from the checkout's ``src/``, builds the lazy constraint
basis (the first ``kf_from_kappas``) and prints ``ready``; run.py times
the process from its start to that line.  A set-up-only job exits there.
Otherwise it runs passes of the workload's command lines through
``lvphoton.cli.main`` for the requested number of seconds, gates every
pass's outputs, and prints one JSON result line.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_lvphoton():
    """Import the package from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import lvphoton

    if os.path.dirname(os.path.dirname(os.path.abspath(lvphoton.__file__))) != SRC:
        raise ImportError(f"lvphoton imported from {lvphoton.__file__}, not {SRC}")
    import lvphoton.cli  # noqa: F401  (importing the CLI is part of set-up)
    from lvphoton import kappa_tensor

    start = time.perf_counter()
    kappa_tensor.kf_from_kappas(kappa_tensor.KappaSet())
    return time.perf_counter() - start


def main():
    job = json.loads(sys.argv[1])
    first_basis_s = _import_lvphoton()
    print("ready", flush=True)
    if job.get("setup_only"):
        return 0

    # The benchmark's own imports come after "ready", so that set-up time
    # is lvphoton's alone.
    import collections
    import contextlib
    import gc
    import io
    import resource
    import statistics
    import warnings

    import numpy as np
    import scipy

    import lvphoton
    from lvphoton import cli
    from lvphoton import dispersion, fock_space, hamiltonian, interaction
    from lvphoton import kappa_tensor, lorenz

    import tracing
    from workloads import WORKLOADS

    os.makedirs(job["workdir"], exist_ok=True)
    extra = {"inject": True} if job.get("inject") else {}
    work = WORKLOADS[job["workload"]](job["seed"], job["workdir"], job["smoke"], **extra)
    modules = {
        "kappa_tensor": kappa_tensor,
        "dispersion": dispersion,
        "fock_space": fock_space,
        "hamiltonian": hamiltonian,
        "lorenz": lorenz,
        "interaction": interaction,
        "cli": cli,
    }
    tracer = tracing.Tracer(modules)
    attempted = 0
    failures = collections.Counter()

    def run_cli(argvs=work.argvs):
        statuses, stdouts = [], []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                statuses.append(cli.main(argv))
            stdouts.append(out.getvalue())
        return statuses, stdouts

    def one_pass(traced):
        nonlocal attempted
        for path in work.files:
            if os.path.exists(path):
                os.remove(path)
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            statuses, stdouts = tracer.run_pass(run_cli) if traced else run_cli()
            elapsed = time.perf_counter() - start
        ops, failed = work.gate(statuses, stdouts)
        attempted += ops
        failures.update(failed)
        sigma_warnings = sum("sigma^2" in str(w.message) for w in caught)
        return elapsed, sigma_warnings

    untraced, traced, sigma_warnings = [], [], []
    clock = time.perf_counter()
    while True:
        untraced.append(one_pass(False)[0])
        if job["trace"]:
            elapsed, warned = one_pass(True)
            traced.append(elapsed)
            sigma_warnings.append(warned)
        if time.perf_counter() - clock >= job["seconds"]:
            break

    known_defects = work.probe(*run_cli(work.probe_argvs)) if work.probe else {}

    result = {
        "first_basis_s": first_basis_s,
        "known_defects": known_defects,
        "run_s": untraced,
        "traced_s": traced,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": {k: n for k, n in failures.items() if n},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "meta": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "lvphoton": lvphoton.__version__,
            "cutoff": work.cutoff,
            "fock_dim": work.fock_dim,
            "argvs": work.argvs,
        },
    }
    if job["trace"]:
        passes = tracer.per_pass()
        layer = {}
        for name in tracing.LAYER_NAMES:
            layer[f"{name}.calls"] = passes[0]["calls"][name]
            layer[f"{name}.self_s"] = statistics.median(p["self_s"][name] for p in passes)
        layer["cli.self_s"] = statistics.median(p["self_s"][tracing.ROOT] for p in passes)
        for name in tracing.SIZES:
            layer[name] = max(sizes.get(name, 0) for sizes in tracer.pass_sizes)
        layer["kappa_tensor.first_basis_s"] = first_basis_s
        layer["dispersion.warnings"] = sigma_warnings[0]
        layer["tracing_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        layer["fail_ratio"] = result["failed"] / result["attempted"]
        result["per_layer"] = layer
        result["calls_repeat"] = all(p["calls"] == passes[0]["calls"] for p in passes)
        np.savez_compressed(job["spans"], **tracer.arrays())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
