"""The benchmark's workloads: seeded configs, CLI calls and output gates.

A workload turns a seed into config files and the list of ``lvphoton``
command lines that make up one pass.  After a pass its gate judges the
captured outputs and returns the number of operations attempted and a
``{reason: count}`` dict of the ones that failed.
Every input comes from ``numpy.random.default_rng(seed)``, so a seed
gives the same configs, and the program never sees the seed except as
the ``--seed`` of ``dispersion`` (its grid directions).
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

#: Anisotropy magnitude (largest parameter entry) of every generated config.
KAPPA = 1e-2
#: Number of named checks in ``lvphoton verify``.
VERIFY_CHECKS = 31
#: Spectrum scale sweep; the exponent fit needs at least two points.  The
#: residual cross coupling is c2*s^2 + c3*s^3 + ...; where a config's c2
#: happens to be small, the s^3 term still bends a fit that reaches 1e-2
#: (about one seed in thirty; see NOTES.md), so the sweep stays where the
#: quadratic term dominates.
SPECTRUM_SCALES = (1e-3, 3e-4, 1e-4)
#: Gap residual bound, C * scale^2, as in acceptance criterion 07.
GAP_RESIDUAL_C = 5.0
#: Bound on |fitted cross-coupling exponent - 2|, as in the verify check
#: cross_term_suppression_quadratic.
EXPONENT_TOL = 0.2
#: Root-vs-closed-form residual bound, C * magnitude^2 (the quadratic
#: scaling of acceptance criterion 03).  Over 5001 directions, seeds 1-12
#: peak between 1.4 and 4.8 magnitude^2; a first-order error would reach
#: about 100 magnitude^2.
ROOT_RESIDUAL_C = 20.0


@dataclass
class Pass:
    """The command lines of one pass and the gate that judges them."""

    argvs: list
    gate: object  # callable(statuses, stdouts) -> (attempted, failures)
    cutoff: int | None
    fock_dim: int | None
    files: list = field(default_factory=list)  # outputs to delete per pass
    #: Command lines run once after the timed passes, untimed and ungated,
    #: and the function that turns their (statuses, stdouts) into a dict
    #: for the report's ``known_defects`` block.
    probe_argvs: list = field(default_factory=list)
    probe: object = None


def _oblique_direction(rng):
    """A random unit vector at least ~11 degrees away from every axis plane."""
    while True:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if np.min(np.abs(v)) > 0.2:
            return v


def _sym_traceless(rng):
    m = rng.normal(size=(3, 3))
    m = 0.5 * (m + m.T)
    return m - np.eye(3) * np.trace(m) / 3.0


def _kappas(rng, birefringent):
    """Parameter blocks scaled so the largest entry is exactly KAPPA."""
    a = rng.normal(size=(3, 3))
    blocks = {
        "kappa_e_minus": _sym_traceless(rng),
        "kappa_o_plus": 0.5 * (a - a.T),
        "kappa_tr": float(rng.normal()),
    }
    if birefringent:
        blocks["kappa_e_plus"] = _sym_traceless(rng)
        blocks["kappa_o_minus"] = _sym_traceless(rng)
    top = max(float(np.max(np.abs(v))) for v in blocks.values())
    return {k: (np.asarray(v) * (KAPPA / top)).tolist() for k, v in blocks.items()}


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _parse(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# verify-aniso


def _verify_gate(statuses, stdouts):
    """Each of the 31 checks is one op; a nonzero exit with no failed
    check, or a report that cannot be read, counts as a failure too."""
    report = _parse(stdouts[0])
    checks = report.get("checks") if isinstance(report, dict) else None
    if not isinstance(checks, list):
        return VERIFY_CHECKS, {"unreadable_report": VERIFY_CHECKS}
    failures = {
        c["name"]: 1
        for c in checks
        if not (c["pass"] and c["measured"] <= c["tolerance"])
    }
    if len(checks) < VERIFY_CHECKS:
        failures["missing_checks"] = VERIFY_CHECKS - len(checks)
    if statuses[0] != 0 and not failures:
        failures["exit_status"] = 1
    return max(VERIFY_CHECKS, len(checks)), failures


def verify_aniso(seed, workdir, smoke=False, inject=False):
    rng = np.random.default_rng(seed)
    cutoff = 1 if smoke else 2
    config = _kappas(rng, birefringent=False)
    config.update(direction=_oblique_direction(rng).tolist(), cutoff=cutoff, time=10.0)
    path = _write(os.path.join(workdir, "verify.json"), config)
    # verify's own --seed only picks the draws of its internal checks, and
    # is left at its default, as in the README's usage.  With it set to
    # the workload seed, ampere_scaling_exponent (a slope fitted to the
    # worst of 10 draws per scale, tolerance 0.2) fails on about one seed
    # in twenty whatever the config; see NOTES.md.
    argv = ["verify", "--config", path]
    if inject:
        argv.append("--inject-c-leakage")
    return Pass([argv], _verify_gate, cutoff, (cutoff + 1) ** 8)


# ---------------------------------------------------------------------------
# spectrum-c4


def _spectrum_gate(statuses, stdouts):
    """Each row's gap residual is one op, the exponent fit one more."""
    attempted = len(SPECTRUM_SCALES) + 1
    report = _parse(stdouts[0])
    if statuses[0] != 0 or not isinstance(report, dict):
        return attempted, {"exit_status": attempted}
    rows = {row["scale"]: row for row in report.get("rows", [])}
    failures = {"gap_residual": 0, "exponent_fit": 0}
    for scale in SPECTRUM_SCALES:
        row = rows.get(scale)
        residual = None if row is None else max(
            abs(row[f"gap_{side}"] - 1.0 - row[f"delta_{side}"])
            for side in ("plus", "minus")
        )
        failures["gap_residual"] += not (
            residual is not None and residual <= GAP_RESIDUAL_C * scale**2
        )
    fit = report.get("cross_fit_exponent")
    failures["exponent_fit"] += fit is None or not abs(fit - 2.0) <= EXPONENT_TOL
    return attempted, failures


def spectrum_c4(seed, workdir, smoke=False):
    rng = np.random.default_rng(seed)
    cutoff = 2 if smoke else 4
    config = _kappas(rng, birefringent=False)
    config.update(
        direction=_oblique_direction(rng).tolist(),
        cutoff=cutoff,
        scales=list(SPECTRUM_SCALES),
    )
    path = _write(os.path.join(workdir, "spectrum.json"), config)
    argvs = [["spectrum", "--config", path]]
    return Pass(argvs, _spectrum_gate, cutoff, (cutoff + 1) ** 8)


# ---------------------------------------------------------------------------
# dispersion-grid


def dispersion_grid(seed, workdir, smoke=False):
    rng = np.random.default_rng(seed)
    grid = 20 if smoke else 5000
    config = _kappas(rng, birefringent=True)
    config["direction"] = _oblique_direction(rng).tolist()
    path = _write(os.path.join(workdir, "dispersion.json"), config)
    first = os.path.join(workdir, "decompose-1.json")
    second = os.path.join(workdir, "decompose-2.json")
    bound = ROOT_RESIDUAL_C * KAPPA**2

    def gate(statuses, stdouts):
        """Each grid row is one op, the decompose round trip one more."""
        attempted = grid + 2
        report = _parse(stdouts[0])
        if statuses[0] != 0 or not isinstance(report, dict):
            return attempted, {"exit_status": attempted}
        rows = report.get("rows", [])
        failures = {"missing_rows": max(0, grid + 1 - len(rows)), "root_residual": 0}
        for row in rows:
            worst = max(
                abs(row[f"omega_{side}_root"] - row[f"omega_{side}"])
                for side in ("minus", "plus")
            )
            failures["root_residual"] += not (math.isfinite(worst) and worst <= bound)
        same = statuses[1] == statuses[2] == 0
        if same:
            with open(first, "rb") as a, open(second, "rb") as b:
                same = a.read() == b.read()
        failures["decompose_round_trip"] = int(not same)
        return attempted, failures

    # The gated round trip passes --strict-symmetry, as the repository's
    # test_decompose_round_trip_is_byte_identical does.  Without it the
    # second call projects the report's matrices again, and that projection
    # moves a diagonal entry by one unit in the last place on most seeds;
    # the probe below records that outcome in every report.
    argvs = [
        ["dispersion", "--config", path, "--grid", str(grid), "--seed", str(seed)],
        ["decompose", "--config", path, "--strict-symmetry", "--output", first],
        ["decompose", "--config", first, "--strict-symmetry", "--output", second],
    ]
    loose_first = os.path.join(workdir, "decompose-default-1.json")
    loose_second = os.path.join(workdir, "decompose-default-2.json")
    probe_argvs = [
        ["decompose", "--config", path, "--output", loose_first],
        ["decompose", "--config", loose_first, "--output", loose_second],
    ]

    def probe(statuses, stdouts):
        same = statuses == [0, 0]
        if same:
            with open(loose_first, "rb") as a, open(loose_second, "rb") as b:
                same = a.read() == b.read()
        return {"decompose_default_round_trip_identical": same}

    return Pass(
        argvs,
        gate,
        None,
        None,
        files=[first, second],
        probe_argvs=probe_argvs,
        probe=probe,
    )


WORKLOADS = {
    "verify-aniso": verify_aniso,
    "spectrum-c4": spectrum_c4,
    "dispersion-grid": dispersion_grid,
}
