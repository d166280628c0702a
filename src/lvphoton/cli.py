"""Command-line entry point: config ingestion, command dispatch, reports.

Four subcommands operate on a JSON config file:

    decompose   parameter matrices <-> rank-4 tensor, with symmetry report
    dispersion  phase-velocity shifts and numeric wave roots per direction
    spectrum    transformed single-photon gaps and residual cross couplings
    verify      the cross-module invariant suite, nonzero exit on failure

This module parses arguments and configs and renders reports; the
physics lives in the library modules.  At import it loads only the
standard library, numpy, kappa_tensor and dispersion, which is all that
decompose and dispersion need.  spectrum adds the numpy-only modes
module.  The Fock-space stack (scipy, fock_space, hamiltonian,
interaction, lorenz) loads only when verify runs (the checks module).

Config keys: kappa_e_minus / kappa_o_plus (3x3 nested lists), kappa_tr
(scalar), optional kappa_e_plus / kappa_o_minus (dispersion only), or a
raw rank-4 tensor under kf_components (4x4x4x4); plus direction, scales,
time, output.  The keys cutoff, command and symmetry are accepted with
any value and ignored.  Matrices are orthogonally projected onto their
symmetry class on load unless --strict-symmetry is passed, in which case
any violation beyond 1e-12 is rejected.

Reports are JSON objects (one object per check or grid row) with every
float printed to 17 significant digits, which round-trips doubles
exactly; grid commands can emit CSV instead via --format csv.  All
randomness is drawn from --seed, so reports are deterministic.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import dispersion as dp
from . import kappa_tensor as kt

#: Every key a config may hold.  `command`, `symmetry` and `cutoff` are
#: accepted with any value and ignored: the first two so that a decompose
#: report loads back as a config, and `cutoff` because configs written
#: when commands took a Fock cutoff still carry it (no command reads one:
#: `verify` picks its own and `spectrum` rows are exact).
CONFIG_KEYS = frozenset({
    "kappa_e_minus", "kappa_o_plus", "kappa_tr", "kappa_e_plus",
    "kappa_o_minus", "kf_components", "direction", "cutoff", "scales",
    "time", "output", "command", "symmetry",
})
#: Default evolution time, in 1/omega units: the longest that the
#: evolution checks accept (lorenz.MAX_LEAKAGE_TIME).
TIME_HORIZON = 10.0


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A loaded and validated run configuration.

    The field defaults are the run without a config file, and a config
    key that is absent keeps its field's default.
    """

    kappas: kt.KappaSet = field(default_factory=kt.KappaSet)
    kf_raw: np.ndarray | None = None
    direction: np.ndarray = field(default_factory=dp.Z_AXIS.copy)
    scales: tuple = ()
    time: float = TIME_HORIZON
    output: str | None = None


def _real(key, value):
    """A finite float from a JSON number; bools, strings and null are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the double range
        value = np.inf
    if not np.isfinite(value):
        raise ValueError(f"{key} must be finite")
    return value


def _real_array(key, value, shape):
    """A float array of the given shape from nested JSON lists of numbers."""
    try:
        cells = np.array(value, dtype=object)
    except ValueError:  # ragged nesting
        cells = None
    if cells is None or cells.shape != shape:
        what = f"{shape[0]}-vector" if len(shape) == 1 else (
            "x".join(str(n) for n in shape) + " array"
        )
        raise ValueError(f"{key} must be a {what} of numbers")
    entries = [_real(f"every entry of {key}", v) for v in cells.flat]
    return np.array(entries).reshape(shape)


def _load_kappas(raw, strict):
    """Build the KappaSet from kappa_* keys; None when no key is present."""
    fields = {}
    for key, name in (
        ("kappa_e_minus", "e_minus"),
        ("kappa_o_plus", "o_plus"),
        ("kappa_e_plus", "e_plus"),
        ("kappa_o_minus", "o_minus"),
    ):
        if key in raw:
            fields[name] = _real_array(key, raw[key], (3, 3))
    if "kappa_tr" in raw:
        fields["tr"] = _real("kappa_tr", raw["kappa_tr"])
    if not fields:
        return None
    if strict:
        return kt.KappaSet(**fields)
    return kt.KappaSet.from_projection(**fields)


def _load_kf(raw, strict):
    """Raw tensor components from kf_components; None when absent."""
    if "kf_components" not in raw:
        return None
    components = _real_array("kf_components", raw["kf_components"], (4, 4, 4, 4))
    if strict:
        report = kt.check_invariants(components)
        if not report.ok():
            raise ValueError(
                "kf_components violates structural invariants "
                f"(max {report.max_violation:.3e} > {kt.INVARIANT_TOL:g})"
            )
    return components


def load_config(path, strict=False):
    """Parse and validate a JSON config file into a RunConfig.

    Raises ValueError with a readable message for anything malformed,
    mistyped, outside the perturbative regime or under a key the loader
    does not know; the caller maps that to exit status 2.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(raw) - CONFIG_KEYS)
    if unknown:
        raise ValueError(
            "unknown config key " + ", ".join(json.dumps(key) for key in unknown)
        )

    kappas = _load_kappas(raw, strict)
    kf_raw = _load_kf(raw, strict)
    if kappas is None and kf_raw is not None:
        kappas = kt.kappas_from_kf(kf_raw if strict else kt.project_kf(kf_raw))
    elif kappas is not None and kf_raw is not None:
        derived = kt.kf_from_kappas(kappas)
        if np.max(np.abs(derived - kt.project_kf(kf_raw))) > 1e-10:
            raise ValueError(
                "config provides both kappa matrices and kf_components "
                "and they describe different tensors"
            )
    fields = {"kf_raw": kf_raw}
    if kappas is not None:
        kt.check_perturbative(kappas.magnitude)
        fields["kappas"] = kappas

    if "direction" in raw:
        direction = _real_array("direction", raw["direction"], (3,))
        with np.errstate(all="ignore"):  # scale first where |d|^2 leaves the normal range
            if not sys.float_info.min <= direction @ direction <= sys.float_info.max:
                direction = direction / np.max(np.abs(direction))
            norm = np.linalg.norm(direction)
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("direction must be a nonzero finite 3-vector")
        fields["direction"] = direction / norm

    if "scales" in raw:
        scales = raw["scales"]
        if not isinstance(scales, list):
            raise ValueError("scales must be a list of numbers")
        scales = tuple(_real("every entry of scales", s) for s in scales)
        if any(s <= 0.0 for s in scales):
            raise ValueError("scales must be positive")
        kt.check_perturbative(max(scales, default=0.0))  # each scale is a magnitude
        fields["scales"] = scales

    if "time" in raw:
        time = _real("time", raw["time"])
        if time <= 0.0:
            raise ValueError("time must be a positive real")
        fields["time"] = time

    if "output" in raw:
        output = raw["output"]
        if output is not None and not isinstance(output, str):
            raise ValueError("output must be a path string")
        fields["output"] = output

    return RunConfig(**fields)


def _scalar(value):
    """JSON text of one scalar report value, floats at 17 significant digits."""
    if value is None or isinstance(value, (bool, np.bool_)):
        return json.dumps(bool(value) if value is not None else None)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


class Columns:
    """Report rows held as columns: row i reads as {name: column[i]}.

    columns maps each name, in report order, to a float array with one
    entry per row, or to None for a column that is null in every row.
    Indexing and iteration give row dicts, as a list of rows would;
    render_json and render_csv fill one row template with every value.
    """

    def __init__(self, columns, length):
        self.columns, self.length = dict(columns), length

    def __len__(self):
        return self.length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self.length))]
        index = range(self.length)[index]  # IndexError past either end
        return {k: None if c is None else float(c[index]) for k, c in self.columns.items()}

    def values(self):
        """Every non-null value as a float, row after row, in one flat tuple."""
        floats = [c for c in self.columns.values() if c is not None]
        return tuple(np.column_stack(floats).ravel().tolist()) if floats else ()


def render_json(value, indent=0):
    """JSON text with every float at 17 significant digits.

    The stdlib encoder prints shortest-roundtrip floats and offers no
    hook to change that, so this walks the structure itself.  Lists of
    scalars stay on one line; insertion order of dicts is preserved.
    Columns render as a list of row objects: one %-format of their row
    template, repeated once per row, takes all of their values.
    """
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 2)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, Columns):
        if not value:
            return "[]"
        inner = pad + "  "
        items = [
            f"{inner}  {json.dumps(str(k))}: ".replace("%", "%%")
            + ("null" if c is None else "%.17g")
            for k, c in value.columns.items()
        ]
        row = "{\n" + ",\n".join(items) + "\n" + inner + "}"
        rows = (",\n" + inner).join([row] * len(value)) % value.values()
        return "[\n" + inner + rows + "\n" + pad + "]"
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in value):
            return "[" + ", ".join(_scalar(v) for v in value) + "]"
        items = [f"{pad}  {render_json(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _scalar(value)


def render_csv(rows):
    """CSV text for Columns: a header row, then floats at 17 digits, nulls empty."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(rows.columns)
    line = ",".join("" if c is None else "%.17g" for c in rows.columns.values()) + "\n"
    return buf.getvalue() + "".join([line] * len(rows)) % rows.values()


def _emit(text, output):
    text += "" if text.endswith("\n") else "\n"
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write report: {exc}") from exc


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(config):
    """Both parameter representations plus the structural symmetry report.

    The symmetry block reports the raw input tensor when one was given
    (so violations survive into the report even when projection repaired
    them) and the derived tensor otherwise.  Output of this command is
    itself a valid config, and feeding it back reproduces it exactly.
    """
    kf = kt.kf_from_kappas(config.kappas)
    source = config.kf_raw if config.kf_raw is not None else kf
    report = kt.check_invariants(source)
    k = config.kappas
    return {
        "command": "decompose",
        "kappa_e_minus": k.e_minus,
        "kappa_o_plus": k.o_plus,
        "kappa_tr": k.tr,
        "kappa_e_plus": k.e_plus,
        "kappa_o_minus": k.o_minus,
        "kf_components": kf,
        "symmetry": {
            "first_pair_antisymmetry": report.first_pair_antisymmetry,
            "second_pair_antisymmetry": report.second_pair_antisymmetry,
            "pair_exchange": report.pair_exchange,
            "bianchi": report.bianchi,
            "double_trace": report.double_trace,
            "max_violation": report.max_violation,
            "ok": report.ok(),
        },
    }


# ---------------------------------------------------------------------------
# dispersion


#: Columns of a dispersion row, in report order.
_DISPERSION_COLUMNS = (
    "kx", "ky", "kz", "delta", "rho", "sigma", "omega_minus", "omega_plus",
    "omega_minus_root", "omega_plus_root", "residual_minus", "residual_plus",
)


def cmd_dispersion(config, grid=0, seed=0):
    """Shift parameters, closed-form and numeric roots, per direction.

    The config direction is always the first row; --grid N appends N
    seeded random unit directions.  Unlike the other commands this one
    accepts birefringent parameter sets, where delta is reported as null
    and the two roots split by 2 sigma |k|.  The tensor is built once,
    every direction goes through one batched call per solver, and the
    report holds the resulting columns as Columns.  A parameter set whose
    roots the solver cannot bracket is refused like any other config
    outside the supported range.
    """
    kf = kt.kf_from_kappas(config.kappas)
    rng = np.random.default_rng(seed)
    directions = np.vstack((config.direction, dp.random_directions(rng, grid)))
    shifts = dp.summarize(config.kappas, kf, directions)
    try:
        roots = dp.ampere_roots(kf, directions)
    except RuntimeError as exc:
        raise ValueError(str(exc)) from exc
    closed = np.column_stack((shifts.omega_minus, shifts.omega_plus))
    columns = (
        *directions.T, shifts.delta, shifts.rho, shifts.sigma,
        *closed.T, *roots.T, *np.abs(roots - closed).T,
    )
    rows = Columns(zip(_DISPERSION_COLUMNS, columns), len(directions))
    return {"command": "dispersion", "rows": rows}


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(config):
    """Transformed transverse gaps and the residual +-k cross coupling.

    One row for the config parameters; with a scale sweep, one row per
    scale (config parameters rescaled to that magnitude) plus a log-log
    exponent fit of the residual cross coupling, which the transform
    suppresses from O(kappa) to O(kappa^2).  Every row is exact, with
    no Fock truncation (modes.spectrum_values: the 8 x 8 Bogoliubov
    matrix of Xi applied to the terms of H), and the report holds the
    rows as Columns: scale, then the spectrum_values keys in their order.

    cross_fit_exponent fits O(kappa^2) residuals of O(kappa) terms, so
    its digits below about 1e-10 are roundoff: a different but equally
    exact order of the arithmetic (the Fock-factor evolution of
    tests/spectrum_reference.py at a deep cutoff, say) moves them.
    """
    from . import modes as md

    frame = dp.polarization_frame(config.direction)
    magnitude = config.kappas.magnitude
    if config.scales and magnitude == 0.0:
        raise ValueError("cannot sweep scales of an all-zero parameter set")
    if config.scales:
        sweep = [(s, config.kappas.scaled(s / magnitude)) for s in config.scales]
    else:
        sweep = [(magnitude, config.kappas)]
    values = [{"scale": s, **md.spectrum_values(k, frame)} for s, k in sweep]
    rows = Columns(((key, np.array([v[key] for v in values])) for key in values[0]), len(values))

    fit = None
    crosses, scales = rows.columns["cross_after"], rows.columns["scale"]
    if len(rows) >= 2 and np.all(crosses > 0.0):
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


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lvphoton",
        description="Vacuum anisotropy parameter analysis and consistency checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required):
        p.add_argument(
            "--config",
            required=config_required,
            help="JSON config file",
        )
        p.add_argument(
            "--strict-symmetry",
            action="store_true",
            help="reject parameter matrices that violate their symmetry "
            "class instead of projecting them onto it",
        )
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("decompose", help="parameter matrices <-> rank-4 tensor")
    common(p, True)

    p = sub.add_parser("dispersion", help="phase-velocity shifts and wave roots")
    common(p, True)
    p.add_argument(
        "--grid", type=int, default=0, help="number of extra seeded directions"
    )
    p.add_argument("--seed", type=int, default=0, help="grid direction seed")
    p.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )

    p = sub.add_parser("spectrum", help="transformed gaps and cross couplings")
    common(p, True)
    p.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    common(p, False)
    p.add_argument("--seed", type=int, default=0, help="seed for the check draws")
    p.add_argument(
        "--inject-c-leakage",
        action="store_true",
        help="add an artificial A-to-C coupling so the leakage check "
        "must fail (fixture for testing the verifier itself)",
    )

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        for flag in ("grid", "seed"):
            if getattr(args, flag, 0) < 0:
                raise ValueError(f"--{flag} must be a non-negative integer")
        if args.config is not None:
            config = load_config(args.config, strict=args.strict_symmetry)
        else:
            config = RunConfig()

        status = 0
        if args.command == "decompose":
            report = cmd_decompose(config)
        elif args.command == "dispersion":
            report = cmd_dispersion(config, grid=args.grid, seed=args.seed)
        elif args.command == "spectrum":
            report = cmd_spectrum(config)
        else:
            from . import checks

            report, status = checks.cmd_verify(
                config, seed=args.seed, inject_c_leakage=args.inject_c_leakage
            )

        if getattr(args, "format", "json") == "csv":
            text = render_csv(report["rows"])
        else:
            text = render_json(report)
        _emit(text, args.output if args.output is not None else config.output)
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
