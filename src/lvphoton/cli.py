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
        try:
            fields["direction"] = dp.direction_draws(direction)
        except ValueError:
            raise ValueError("direction must be a nonzero finite 3-vector") from None

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
    The JSON and CSV writers fill one row template with the values of
    dp.BLOCK_ROWS rows at a time.
    """

    def __init__(self, columns, length):
        self.columns, self.length = dict(columns), length

    def __len__(self):
        return self.length

    def values(self, start, stop):
        """The non-null values of rows start to stop as floats, row after row, in one tuple."""
        floats = [c[start:stop] for c in self.columns.values() if c is not None]
        return tuple(np.column_stack(floats).ravel().tolist()) if floats else ()

    def blocks(self, template, separator=""):
        """The rows filled into template, one string per block of dp.BLOCK_ROWS rows.

        template takes one row's non-null values as %-format fields,
        and separator goes between every two consecutive rows, also
        where one block ends and the next begins.
        """
        for start in range(0, self.length, dp.BLOCK_ROWS):
            count = min(dp.BLOCK_ROWS, self.length - start)
            text = separator.join([template] * count) % self.values(start, start + count)
            yield text if start == 0 else separator + text


def render_json(value, indent=0):
    """JSON text with every float at 17 significant digits.

    The stdlib encoder prints shortest-roundtrip floats and offers no
    hook to change that, so this walks the structure itself.  Lists of
    scalars stay on one line; insertion order of dicts is preserved.
    The text is that of _json_pieces, joined.
    """
    return "".join(_json_pieces(value, indent))


def _json_pieces(value, indent):
    """render_json's text in order, in pieces: Columns give one piece per block of rows.

    Columns render as a list of row objects: one %-format of their row
    template, repeated once per row of a block, takes that block's
    values.
    """
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        separator = "{\n"
        for k, v in value.items():
            yield f"{separator}{pad}  {json.dumps(str(k))}: "
            yield from _json_pieces(v, indent + 2)
            separator = ",\n"
        yield "\n" + pad + "}"
        return
    if isinstance(value, Columns):
        if not value:
            yield "[]"
            return
        inner = pad + "  "
        items = [
            f"{inner}  {json.dumps(str(k))}: ".replace("%", "%%")
            + ("null" if c is None else "%.17g")
            for k, c in value.columns.items()
        ]
        row = "{\n" + ",\n".join(items) + "\n" + inner + "}"
        yield "[\n" + inner
        yield from value.blocks(row, ",\n" + inner)
        yield "\n" + pad + "]"
        return
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
        elif all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in value):
            yield "[" + ", ".join(_scalar(v) for v in value) + "]"
        else:
            items = [f"{pad}  {render_json(v, indent + 2)}" for v in value]
            yield "[\n" + ",\n".join(items) + "\n" + pad + "]"
        return
    yield _scalar(value)


def _csv_pieces(rows):
    """CSV text for Columns in pieces: the header row, then one piece per block of rows.

    Floats are printed at 17 significant digits, and nulls are empty.
    """
    yield ",".join(rows.columns) + "\n"  # the names are identifiers: CSV quotes none
    line = ",".join("" if c is None else "%.17g" for c in rows.columns.values())
    yield from rows.blocks(line + "\n")


def _emit(pieces, output):
    """Write the report text, piece by piece, to stdout or to the file output.

    The text ends with a newline: one is added when its last piece has
    none.  No piece is joined to another, so a Columns report is never
    held as one string.
    """

    def write(stream):
        end = "\n"
        for piece in pieces:
            if piece:
                stream.write(piece)
                end = "" if piece.endswith("\n") else "\n"
        stream.write(end)

    if output is None:
        write(sys.stdout)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            write(fh)
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


def cmd_dispersion(config, grid=0, seed=0):
    """Shift parameters, closed-form and numeric roots, per direction.

    The config direction is always the first row; --grid N appends N
    seeded random unit directions.  Unlike the other commands this one
    accepts birefringent parameter sets, where delta is reported as null
    and the two roots split by 2 sigma |k|.  A parameter set whose
    roots the solver cannot bracket is refused like any other config
    outside the supported range.  The rows are the Columns of
    dispersion.dispersion_table, which main's writer prints one block of
    dp.BLOCK_ROWS rows at a time, never as one string.
    """
    rng = np.random.default_rng(seed)
    directions = np.vstack((config.direction, dp.random_directions(rng, grid)))
    try:
        table = dp.dispersion_table(config.kappas, directions)
    except RuntimeError as exc:
        raise ValueError(str(exc)) from exc
    return {"command": "dispersion", "rows": Columns(table, len(directions))}


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(config):
    """Transformed transverse gaps and the residual +-k cross coupling.

    One row for the config parameters; with a scale sweep, one row per
    scale (config parameters rescaled to that magnitude) plus a log-log
    exponent fit of the residual cross coupling, which the transform
    suppresses from O(kappa) to O(kappa^2).  Every row is exact, with
    no Fock truncation (modes.spectrum_values: the 8 x 8 Bogoliubov
    matrix of Xi applied to the terms of H).  The rows are the columns
    of modes.spectrum_sweep, one spectrum_values call on one stacked
    KappaSet: scale, then the spectrum_values keys in their order.

    cross_fit_exponent fits O(kappa^2) residuals of O(kappa) terms, so
    its digits below about 1e-10 are roundoff: a different but equally
    exact order of the arithmetic (the Fock-factor evolution of
    tests/spectrum_reference.py at a deep cutoff, say) moves them.
    """
    from . import modes as md

    scales = config.scales or (config.kappas.magnitude,)
    frame = dp.polarization_frame(config.direction)
    columns = md.spectrum_sweep(config.kappas, frame, scales)
    return {
        "command": "spectrum",
        "kx": config.direction[0],
        "ky": config.direction[1],
        "kz": config.direction[2],
        "rows": Columns(columns, len(scales)),
        "cross_fit_exponent": md.loglog_slope(scales, columns["cross_after"]),
    }


# ---------------------------------------------------------------------------
# argument parsing and dispatch


#: The subcommands, in the order that help and usage lines list them.
COMMANDS = ("decompose", "dispersion", "spectrum", "verify")


def build_parser(command=None):
    """The argument parser: the top level and every subcommand's parser.

    Given the name of a subcommand, it builds the top level and that
    subcommand's parser alone (main passes the first argument): the
    other three cost about 0.4 ms per call and would parse nothing.
    Their names stay in the usage line, as the subparsers' metavar.
    The metavar is not given to the full parser, where it would also
    name the argument in the "required" and "invalid choice" errors
    that only the full parser prints.
    """
    parser = argparse.ArgumentParser(
        prog="lvphoton",
        description="Vacuum anisotropy parameter analysis and consistency checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = (command,) if command in COMMANDS else COMMANDS
    if len(names) == 1:
        sub.metavar = "{" + ",".join(COMMANDS) + "}"

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

    if "decompose" in names:
        p = sub.add_parser("decompose", help="parameter matrices <-> rank-4 tensor")
        common(p, True)

    if "dispersion" in names:
        p = sub.add_parser("dispersion", help="phase-velocity shifts and wave roots")
        common(p, True)
        p.add_argument(
            "--grid", type=int, default=0, help="number of extra seeded directions"
        )
        p.add_argument("--seed", type=int, default=0, help="grid direction seed")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json", help="report format"
        )

    if "spectrum" in names:
        p = sub.add_parser("spectrum", help="transformed gaps and cross couplings")
        common(p, True)
        p.add_argument(
            "--format", choices=("json", "csv"), default="json", help="report format"
        )

    if "verify" in names:
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
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
            pieces = _csv_pieces(report["rows"])
        else:
            pieces = _json_pieces(report, 0)
        _emit(pieces, args.output if args.output is not None else config.output)
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
