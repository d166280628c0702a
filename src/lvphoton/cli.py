"""Command-line entry point: config ingestion, analysis commands, reports.

Four subcommands operate on a JSON config file:

    decompose   parameter matrices <-> rank-4 tensor, with symmetry report
    dispersion  phase-velocity shifts and numeric wave roots per direction
    spectrum    transformed single-photon gaps and residual cross couplings
    verify      the cross-module invariant suite, nonzero exit on failure

Config keys: kappa_e_minus / kappa_o_plus (3x3 nested lists), kappa_tr
(scalar), optional kappa_e_plus / kappa_o_minus (dispersion only), or a
raw rank-4 tensor under kf_components (4x4x4x4); plus direction, cutoff,
scales, time, output.  Matrices are orthogonally projected onto their
symmetry class on load unless --strict-symmetry is passed, in which case
any violation beyond 1e-12 is rejected.

Reports are JSON objects (one object per check or grid row) with every
float printed to 17 significant digits, which round-trips doubles
exactly; grid commands can emit CSV instead via --format csv.  All
randomness is drawn from --seed, so reports are deterministic.
"""

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from . import dispersion as dp
from . import fock_space as fs
from . import hamiltonian as hm
from . import interaction as ia
from . import kappa_tensor as kt
from . import lorenz as lz

#: Fock cutoffs the commands accept.  `spectrum` works on the 4-mode
#: transverse factor and needs one level of ladder headroom; the other
#: commands build the 8-mode space.
CUTOFF_RANGE = (1, 4)
SPECTRUM_CUTOFF_RANGE = (2, 12)
#: Every key a config may hold.  `command` and `symmetry` are in the list
#: (and ignored) so that a decompose report loads back as a config.
CONFIG_KEYS = frozenset({
    "kappa_e_minus", "kappa_o_plus", "kappa_tr", "kappa_e_plus",
    "kappa_o_minus", "kf_components", "direction", "cutoff", "scales",
    "time", "output", "command", "symmetry",
})
#: Evolution checks are specified for t*omega <= this horizon.
TIME_HORIZON = 10.0


@dataclass(frozen=True)
class RunConfig:
    """A loaded and validated run configuration."""

    kappas: kt.KappaSet
    kf_raw: np.ndarray | None
    direction: np.ndarray
    cutoff: int
    scales: tuple
    time: float
    output: str | None


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
        valid = kf_raw if strict else kt.project_kf(kf_raw).components
        kappas = kt.kappas_from_kf(valid)
    elif kappas is not None and kf_raw is not None:
        derived = kt.as_kf_components(kt.kf_from_kappas(kappas))
        if np.max(np.abs(derived - kt.project_kf(kf_raw).components)) > 1e-10:
            raise ValueError(
                "config provides both kappa matrices and kf_components "
                "and they describe different tensors"
            )
    elif kappas is None:
        kappas = kt.KappaSet()
    if kappas.magnitude > kt.PERTURBATIVE_LIMIT:
        raise ValueError(
            "kappa parameters must be perturbative "
            f"(magnitude <= {kt.PERTURBATIVE_LIMIT:g})"
        )

    direction = dp.Z_AXIS.copy()
    if "direction" in raw:
        direction = _real_array("direction", raw["direction"], (3,))
    norm = np.linalg.norm(direction)
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("direction must be a nonzero finite 3-vector")
    direction = direction / norm

    # its range depends on the command: main and cmd_spectrum check it
    cutoff = raw.get("cutoff", 2)
    if isinstance(cutoff, bool) or not isinstance(cutoff, int):
        raise ValueError("cutoff must be an integer")

    scales = raw.get("scales", [])
    if not isinstance(scales, list):
        raise ValueError("scales must be a list of numbers")
    scales = tuple(_real("every entry of scales", s) for s in scales)
    if any(s <= 0.0 or s > kt.PERTURBATIVE_LIMIT for s in scales):
        raise ValueError(
            f"scales must be positive and perturbative (<= {kt.PERTURBATIVE_LIMIT:g})"
        )

    time = _real("time", raw.get("time", TIME_HORIZON))
    if time <= 0.0:
        raise ValueError("time must be a positive real")

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ValueError("output must be a path string")

    return RunConfig(
        kappas=kappas,
        kf_raw=kf_raw,
        direction=direction,
        cutoff=cutoff,
        scales=scales,
        time=time,
        output=output,
    )


def default_config():
    """The all-zero configuration used when no --config is given."""
    return RunConfig(
        kappas=kt.KappaSet(),
        kf_raw=None,
        direction=dp.Z_AXIS.copy(),
        cutoff=2,
        scales=(),
        time=TIME_HORIZON,
        output=None,
    )


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


_SCALAR_TYPES = (type(None), bool, int, float, str, np.generic)


@functools.lru_cache(maxsize=256)
def _dict_template(indent, keys, types):
    """%-template of a dict of scalars with these keys and value types.

    Float slots are %.17g, every other slot takes _scalar's text; None
    when a value is not a scalar, so the dict is rendered item by item.
    """
    if not all(issubclass(kind, _SCALAR_TYPES) for kind in types):
        return None
    pad = " " * indent
    floats = tuple(issubclass(kind, (float, np.floating)) for kind in types)
    items = [
        f"{pad}  {json.dumps(str(key))}: ".replace("%", "%%") + ("%.17g" if is_float else "%s")
        for key, is_float in zip(keys, floats)
    ]
    return "{\n" + ",\n".join(items) + "\n" + pad + "}", floats


def render_json(value, indent=0):
    """JSON text with every float at 17 significant digits.

    The stdlib encoder prints shortest-roundtrip floats and offers no
    hook to change that, so this walks the structure itself.  Lists of
    scalars stay on one line; insertion order of dicts is preserved.  A
    dict of scalars (a report row) is one %-format of a template cached
    per indent, keys and value types, so a long list of rows renders
    its keys once.
    """
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        values = tuple(value.values())
        template = _dict_template(indent, tuple(value), tuple(map(type, values)))
        if template is not None:
            text, floats = template
            return text % tuple(
                v if is_float else _scalar(v) for v, is_float in zip(values, floats)
            )
        items = [
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 2)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
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
    """CSV text for a list of flat row dicts, floats at 17 digits."""
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
    source = config.kf_raw if config.kf_raw is not None else kt.as_kf_components(kf)
    report = kt.check_invariants(source)
    k = config.kappas
    return {
        "command": "decompose",
        "kappa_e_minus": k.e_minus,
        "kappa_o_plus": k.o_plus,
        "kappa_tr": k.tr,
        "kappa_e_plus": k.e_plus,
        "kappa_o_minus": k.o_minus,
        "kf_components": kt.as_kf_components(kf),
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


def _dispersion_row(khat, result, roots):
    return {
        "kx": khat[0],
        "ky": khat[1],
        "kz": khat[2],
        "delta": result.delta,
        "rho": result.rho,
        "sigma": result.sigma,
        "omega_minus": result.omega_minus,
        "omega_plus": result.omega_plus,
        "omega_minus_root": roots[0],
        "omega_plus_root": roots[1],
        "residual_minus": abs(roots[0] - result.omega_minus),
        "residual_plus": abs(roots[1] - result.omega_plus),
    }


def cmd_dispersion(config, grid=0, seed=0):
    """Shift parameters, closed-form and numeric roots, per direction.

    The config direction is always the first row; --grid N appends N
    seeded random unit directions.  Unlike the other commands this one
    accepts birefringent parameter sets, where delta is reported as null
    and the two roots split by 2 sigma |k|.  The tensor is built once and
    every direction goes through one batched call per solver.
    """
    kf = kt.kf_from_kappas(config.kappas)
    rng = np.random.default_rng(seed)
    directions = np.vstack((config.direction, dp.random_directions(rng, grid)))
    results = dp.summarize_batch(config.kappas, kf, directions)
    omegas, _ = dp.solve_ampere_batch(kf, directions)
    rows = [
        _dispersion_row(khat, result, roots)
        for khat, result, roots in zip(directions, results, omegas)
    ]
    return {
        "command": "dispersion",
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# spectrum


def _photon_index(space, *modes):
    """Transverse-factor index of the state with one quantum in each listed mode."""
    occ = [0] * len(hm.TRANSVERSE_SLOTS)
    for mode in modes:
        occ[hm.TRANSVERSE_SLOTS.index(mode.slot)] += 1
    return space.index_of(occ)


def _transverse_values(space, frame, kappas):
    """Transformed gaps and the pair-vacuum cross terms on one transverse factor."""
    h, xi = hm.build_transverse(space, kappas, frame)
    pair = _photon_index(space, fs.ModeId(fs.PLUS_K, 1), fs.ModeId(fs.MINUS_K, 1))
    # vacuum, the four transverse one-photon states (+k then -k), the pair
    indices = [_photon_index(space)]
    for direction in (fs.PLUS_K, fs.MINUS_K):
        indices += [_photon_index(space, fs.ModeId(direction, pol)) for pol in (1, 2)]
    indices.append(pair)
    states = np.zeros((len(indices), space.dim), dtype=complex)
    states[np.arange(len(indices)), indices] = 1.0
    g = hm.transverse_matrix(space, h, xi, states)
    energies = g.diagonal().real
    values = {}
    for name, first in (("plus", 1), ("minus", 3)):
        gap = 0.0
        for energy in energies[first : first + 2]:
            gap = max(gap, float(abs(energy - energies[0])))
        values[f"gap_{name}"] = gap
    # h_pm_t is the only part of h that joins the pair to the vacuum
    values["cross_before"] = float(abs(h[pair, indices[0]]))
    values["cross_after"] = float(abs(g[-1, 0]))
    return values


def _spectrum_row(spaces, frame, kappas, scale_label):
    """One row on the transverse factors `spaces` at cutoffs c and c + 1.

    The row's values come from cutoff c; truncation_shift is how far the
    gaps and the transformed cross term move at c + 1.
    """
    values = _transverse_values(spaces[0], frame, kappas)
    deeper = _transverse_values(spaces[1], frame, kappas)
    row = {"scale": scale_label}
    for name, khat in (("plus", frame.khat), ("minus", -frame.khat)):
        want = 1.0 + dp.delta_nonbiref(kappas, khat)
        row[f"gap_{name}"] = values[f"gap_{name}"]
        row[f"delta_{name}"] = want - 1.0
        row[f"gap_residual_{name}"] = abs(values[f"gap_{name}"] - want)
    row["cross_before"] = values["cross_before"]
    row["cross_after"] = values["cross_after"]
    row["truncation_shift"] = max(
        abs(deeper[key] - values[key]) for key in ("gap_plus", "gap_minus", "cross_after")
    )
    return row


def cmd_spectrum(config):
    """Transformed transverse gaps and the residual +-k cross coupling.

    One row for the config parameters; with a scale sweep, one row per
    scale (config parameters rescaled to that magnitude) plus a log-log
    exponent fit of the residual cross coupling, which the transform
    suppresses from O(kappa) to O(kappa^2).  Every row is computed on
    the 4-mode transverse factor (hm.build_transverse), at the config's
    cutoff and one above it.

    cross_fit_exponent fits O(kappa^2) residuals of O(kappa) terms, so
    its digits below about 1e-10 are arithmetic-order roundoff: any
    other exact evolution of the states moves them.
    """
    if config.cutoff < SPECTRUM_CUTOFF_RANGE[0]:
        raise ValueError(
            "spectrum expectations need cutoff >= 2 for ladder headroom"
        )
    if config.cutoff > SPECTRUM_CUTOFF_RANGE[1]:
        raise ValueError(f"spectrum cutoff must lie in {SPECTRUM_CUTOFF_RANGE}")
    spaces = (
        hm.transverse_space(config.cutoff),
        hm.transverse_space(config.cutoff + 1),
    )
    frame = dp.polarization_frame(config.direction)
    magnitude = config.kappas.magnitude
    if config.scales and magnitude == 0.0:
        raise ValueError("cannot sweep scales of an all-zero parameter set")
    if config.scales:
        sweep = [(s, config.kappas.scaled(s / magnitude)) for s in config.scales]
    else:
        sweep = [(magnitude, config.kappas)]
    rows = [_spectrum_row(spaces, frame, k, s) for s, k in sweep]

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
        "cutoff": config.cutoff,
        "rows": rows,
        "cross_fit_exponent": fit,
    }


# ---------------------------------------------------------------------------
# verify


def _check(name, measured, tolerance, **extra):
    record = {"name": name, "tolerance": tolerance, "measured": float(measured)}
    record.update(extra)
    record["pass"] = bool(record["measured"] <= tolerance)
    return record


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        # proper rotations only; a reflection flips the sign of the
        # antisymmetric parameter block and breaks covariance
        q[:, 0] = -q[:, 0]
    return q


def _tensor_checks(rng):
    worst_round = 0.0
    for _ in range(200):
        k = kt.random_kappas(rng, 1e-2, birefringent=bool(rng.integers(2)))
        worst_round = max(worst_round, kt.kappa_distance(k, kt.kappas_from_kf(kt.kf_from_kappas(k))))
    yield _check("kappa_roundtrip", worst_round, 1e-12)

    worst = 0.0
    for _ in range(50):
        kf = kt.kf_from_kappas(kt.random_kappas(rng, 1e-2, birefringent=True))
        worst = max(worst, kt.check_invariants(kf).max_violation)
    yield _check("kf_structural_invariants", worst, 1e-12)

    worst_sym = 0.0
    worst_bianchi = 0.0
    worst_identity = 0.0
    for _ in range(200):
        k = kt.random_kappas(rng, 1e-2)
        kf = kt.kf_from_kappas(k)
        vecs = [kt.FourVector.from_components(rng.normal(size=4)) for _ in range(4)]
        w, x, y, z = vecs
        base = kt.contract4(kf, w, x, y, z)
        worst_sym = max(
            worst_sym,
            abs(base + kt.contract4(kf, x, w, y, z)),
            abs(base + kt.contract4(kf, w, x, z, y)),
            abs(base - kt.contract4(kf, y, z, w, x)),
        )
        worst_bianchi = max(
            worst_bianchi,
            abs(
                base
                + kt.contract4(kf, w, z, x, y)
                + kt.contract4(kf, w, y, z, x)
            ),
        )
        closed = kt.contract4_kappa(k, w, x, y, z)
        scale = max(abs(base), abs(closed), 1e-30)
        worst_identity = max(worst_identity, abs(base - closed) / scale)
    yield _check("contraction_antisymmetry", worst_sym, 1e-12)
    yield _check("contraction_bianchi", worst_bianchi, 1e-12)
    yield _check("contraction_closed_form", worst_identity, 1e-10)


def _dispersion_checks(rng):
    worst_parity = 0.0
    for _ in range(100):
        khat = dp.random_directions(rng)
        f = dp.polarization_frame(khat)
        g = dp.polarization_frame(-khat)
        worst_parity = max(
            worst_parity,
            float(np.max(np.abs(g.eps1 - f.eps1))),
            float(np.max(np.abs(g.eps2 + f.eps2))),
            float(np.max(np.abs(g.eps3 + f.eps3))),
        )
    yield _check("frame_parity", worst_parity, 0.0)

    worst_rho = 0.0
    worst_sigma = 0.0
    for _ in range(50):
        k = kt.random_kappas(rng, 1e-2)
        kf = kt.kf_from_kappas(k)
        khat = dp.random_directions(rng)
        rho, sigma = dp.rho_sigma(kf, khat)
        worst_rho = max(worst_rho, abs(rho - dp.delta_nonbiref(k, khat)))
        worst_sigma = max(worst_sigma, sigma)
    yield _check("rho_equals_delta", worst_rho, 1e-12)
    # sigma is the square root of a quadratically small discriminant, so
    # its noise floor sits near sqrt(eps * kappa^2), not near eps
    yield _check("sigma_nonbirefringent", worst_sigma, 1e-7)

    worst_cov = 0.0
    for _ in range(20):
        k = kt.random_kappas(rng, 1e-2)
        khat = dp.random_directions(rng)
        rot = _random_rotation(rng)
        worst_cov = max(
            worst_cov,
            abs(
                dp.delta_nonbiref(k.rotated(rot), rot @ khat)
                - dp.delta_nonbiref(k, khat)
            ),
        )
    yield _check("delta_rotation_covariance", worst_cov, 1e-12)

    residuals = []
    for scale in (1e-2, 1e-3, 1e-4):
        worst = 0.0
        for _ in range(10):
            k = kt.random_kappas(rng, scale)
            kf = kt.kf_from_kappas(k)
            khat = dp.random_directions(rng)
            delta = dp.delta_nonbiref(k, khat)
            for omega, _ in dp.solve_ampere(kf, khat):
                worst = max(worst, abs(omega - (1.0 + delta)))
        residuals.append(worst)
    slope, _ = np.polyfit(
        np.log10([1e-2, 1e-3, 1e-4]), np.log10(residuals), 1
    )
    yield _check(
        "ampere_scaling_exponent",
        abs(slope - 2.0),
        0.2,
        residuals=residuals,
    )


def _fock_checks(rng, cutoff):
    space = fs.build_space(min(cutoff, 2))
    m = fs.metric_M(space)
    eye = sp.identity(space.dim, format="csr")
    yield _check(
        "metric_involution",
        max(abs(m @ m - eye).max(), abs(m - m.conj().T).max()),
        0.0,
    )

    interior = fs.interior_projector(space)
    worst = 0.0
    modes = [fs.ModeId(d, r) for d in (fs.PLUS_K, fs.MINUS_K) for r in range(4)]
    lower = {mode: fs.annihilator(space, mode) for mode in modes}
    bar = {mode: fs.bar_adjoint(space, a) for mode, a in lower.items()}
    for a_mode in modes:
        a = lower[a_mode]
        for b_mode in modes:
            comm = a @ bar[b_mode] - bar[b_mode] @ a
            if a_mode == b_mode:
                comm = comm - fs.ZETA[a_mode.polarization] * eye
            worst = max(worst, abs(interior @ comm @ interior).max())
    yield _check("ladder_commutators_interior", worst, 1e-13)

    worst = 0.0
    for _ in range(5):
        ops = []
        for _ in range(2):
            mode = modes[rng.integers(len(modes))]
            coeff = rng.normal() + 1j * rng.normal()
            ops.append(coeff * lower[mode] + bar[modes[rng.integers(len(modes))]])
        ab = ops[0] @ ops[1]
        worst = max(
            worst,
            abs(
                fs.bar_adjoint(space, ab)
                - fs.bar_adjoint(space, ops[1]) @ fs.bar_adjoint(space, ops[0])
            ).max(),
        )
    yield _check("bar_antihomomorphism", worst, 1e-12)

    worst = 0.0
    for direction in (fs.PLUS_K, fs.MINUS_K):
        a_d, a_g = fs.dg_operators(space, direction)
        a3 = fs.annihilator(space, fs.ModeId(direction, 3))
        worst = max(worst, abs((a_g - 1j * a_d) / np.sqrt(2) - a3).max())
    yield _check("dg_inversion", worst, 1e-15)


def _hamiltonian_checks(rng, config):
    space = fs.build_space(2)
    worst = 0.0
    for _ in range(3):
        k = kt.random_kappas(rng, 1e-2)
        frame = dp.polarization_frame(dp.random_directions(rng))
        raw = hm.build_raw(space, kt.kf_from_kappas(k), frame)
        bundle = hm.build_grouped(space, k, frame)
        worst = max(worst, abs(raw - bundle.total).max())
    yield _check("raw_grouped_equivalence", worst, 1e-12)

    frame = dp.polarization_frame(config.direction)
    mdiag = fs.metric_diagonal(space)
    worst = 0.0
    for k in (config.kappas, kt.random_kappas(rng, 1e-2)):
        bundle = hm.build_grouped(space, k, frame)
        for block in bundle.blocks + (bundle.total,):
            bar = sp.diags(mdiag) @ block.conj().T @ sp.diags(mdiag)
            worst = max(worst, abs(bar - block).max())
    yield _check("bar_self_adjoint", worst, 1e-13)

    small = fs.build_space(1)
    t = min(config.time, TIME_HORIZON)
    k = kt.random_kappas(rng, 1e-2)
    h = hm.build_grouped(small, k, dp.polarization_frame(config.direction)).total
    u = expm(-1j * t * h.toarray())
    m_small = fs.metric_diagonal(small)
    bar_u = (m_small[:, None] * u.conj().T) * m_small[None, :]
    yield _check(
        "metric_unitarity",
        np.max(np.abs(bar_u @ u - np.eye(small.dim))),
        1e-10,
        time=t,
    )

    h0 = hm.build_grouped(space, kt.KappaSet(), frame).total
    worst = 0.0
    for direction in (fs.PLUS_K, fs.MINUS_K):
        for pol in (1, 2):
            n = fs.number_operator(space, fs.ModeId(direction, pol))
            worst = max(worst, abs(h0 @ n - n @ h0).max())
    yield _check("kappa_zero_number_conservation", worst, 0.0)

    kvec = config.direction
    p_with = hm.momentum_operator(space, kvec, kappas=config.kappas)
    p_without = hm.momentum_operator(space, kvec)
    worst_same = max(abs(a - b).max() for a, b in zip(p_with, p_without))
    yield _check("momentum_kappa_independent", worst_same, 0.0)

    h = hm.build_grouped(space, kt.random_kappas(rng, 1e-2), frame).total
    worst = max(abs(p @ h - h @ p).max() for p in p_without)
    yield _check("momentum_commutes", worst, 1e-12)

    shape = kt.random_kappas(rng, 1e-2)
    residuals = []
    crosses = []
    spaces = (hm.transverse_space(2), hm.transverse_space(3))
    for scale in (1e-2, 1e-3):
        k = shape.scaled(scale / shape.magnitude)
        row = _spectrum_row(spaces, frame, k, scale)
        residuals.append(
            max(row["gap_residual_plus"], row["gap_residual_minus"])
        )
        crosses.append(row["cross_after"])
    slope_gap, _ = np.polyfit(np.log10([1e-2, 1e-3]), np.log10(residuals), 1)
    slope_cross, _ = np.polyfit(np.log10([1e-2, 1e-3]), np.log10(crosses), 1)
    yield _check(
        "transverse_gap_quadratic",
        abs(slope_gap - 2.0),
        0.2,
        residuals=residuals,
    )
    yield _check(
        "cross_term_suppression_quadratic",
        abs(slope_cross - 2.0),
        0.2,
        residuals=crosses,
    )


def _inject_c_defect(space, h, strength=1e-3):
    """A bar-self-adjoint rank-2 coupler between an A and a C state.

    Used as a verification fixture: a Hamiltonian with this added leaks
    A-class amplitude into the C class, which the invariance check must
    catch.
    """
    vacuum = (0, 0, 0, 0)
    states = fs.dg_basis_columns(
        space, [((1, 0, 0, 0), vacuum), ((0, 0, 1, 1), vacuum)]
    )
    bras = (fs.metric_M(space) @ states).conj().T.tocsr()
    defect = states[:, [1]] @ bras[[0]] + states[:, [0]] @ bras[[1]]
    return h + strength * defect


def _lorenz_checks(rng, config, inject_c_leakage):
    g = lz.ghost_space(3)
    gram = lz.ghost_pairing(g)
    occ = g.occupations
    bad_norm = 0
    bad_pairing = 0
    dense = gram.toarray()
    for i in range(g.dim):
        nd, ng, ndp, ngp = (int(x) for x in occ[i])
        label = lz._classify_tuple(nd, ng, ndp, ngp)
        self_paired = label in (lz.StateClass.A, lz.StateClass.C)
        if (dense[i, i] != 0) != self_paired:
            bad_norm += 1
        partner = g.index_of((ng, nd, ngp, ndp))
        row = dense[i]
        # the row's entry sits at the partner column and carries the
        # partner's phase, i^((nd - ng) + (ndp - ngp))
        want_phase = lz.pairing_phase((0, 0, ng, nd), (0, 0, ngp, ndp))
        if row[partner] != want_phase or np.count_nonzero(row) != 1:
            bad_pairing += 1
    yield _check("ghost_norm_classification", bad_norm, 0.0)
    yield _check("ghost_pairing_phase", bad_pairing, 0.0)

    lslv = lz.ghost_lslv(g, 0.37)
    tls = lz.ghost_pm_tls(g, 0.61, 0.83)
    eye = sp.identity(g.dim, format="csr", dtype=complex)
    pow_lslv = [eye]
    pow_tls = [eye]
    for _ in range(3):
        pow_lslv.append((pow_lslv[-1] @ lslv).tocsr())
        pow_tls.append((pow_tls[-1] @ tls).tocsr())
    self_paired = (occ[:, 0] == occ[:, 1]) & (occ[:, 2] == occ[:, 3])
    disagreements = 0
    for n1 in range(4):
        for n2 in range(4 - n1):
            best = np.abs((pow_lslv[n1] @ pow_tls[n2]).toarray()[self_paired, :]).max(axis=0)
            for start in range(g.dim):
                nd, ng, ndp, ngp = (int(x) for x in occ[start])
                oracle = lz.counting_oracle(nd, ng, ndp, ngp, n1, n2)
                if not oracle and best[start] >= 1e-12:
                    disagreements += 1
                elif (
                    oracle
                    and nd + n1 + n2 <= g.cutoff
                    and ngp + n1 + n2 <= g.cutoff
                    and best[start] <= 1e-12
                ):
                    disagreements += 1
    yield _check("counting_oracle_agreement", disagreements, 0.0)

    space = fs.build_space(2)
    failures = 0
    for _ in range(10):
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi = (
            coeffs[0] * fs.dg_basis_state(space, (0, 0, 0, 0))
            + coeffs[1] * fs.dg_basis_state(space, (1, 0, 0, 1))
            + coeffs[2]
            * fs.dg_basis_state(space, (0, 1, 0, 0), (0, 0, 0, int(rng.integers(3))))
        )
        if lz.gupta_bleuler_check(space, psi) and not lz.weak_lorenz_check(space, psi):
            failures += 1
    yield _check("gb_implies_weak_lorenz", failures, 0.0)

    observable = (
        fs.number_operator(space, fs.ModeId(fs.PLUS_K, 1))
        + 0.7 * fs.number_operator(space, fs.ModeId(fs.MINUS_K, 2))
    ).tocsr()
    pure = fs.dg_basis_state(space, (1, 1, 0, 0), (0, 1, 0, 0))
    dressed = 0.8 * pure + 0.5 * fs.dg_basis_state(
        space, (1, 1, 0, 1), (0, 1, 0, 0)
    )
    mean_pure = fs.indefinite_inner(space, pure, observable @ pure) / fs.indefinite_inner(
        space, pure, pure
    )
    mean_dressed = fs.indefinite_inner(
        space, dressed, observable @ dressed
    ) / fs.indefinite_inner(space, dressed, dressed)
    yield _check("g_photon_decoupling", abs(mean_dressed - mean_pure), 1e-12)

    frame = dp.polarization_frame(config.direction)
    magnitude = config.kappas.magnitude
    leak_scale = magnitude
    leak_kappas = config.kappas
    if magnitude > 1e-3:
        # the C-leakage bound is certified in the truncation-artifact-free
        # regime; larger parameters are checked at a rescaled magnitude
        leak_scale = 1e-3
        leak_kappas = config.kappas.scaled(leak_scale / magnitude)
    h = hm.build_grouped(space, leak_kappas, frame).total
    if inject_c_leakage:
        h = _inject_c_defect(space, h)
    t = min(config.time, TIME_HORIZON)
    yield _check(
        "c_class_leakage",
        lz.invariance_leakage(space, h, t),
        1e-12,
        scale=leak_scale,
        time=t,
        injected=bool(inject_c_leakage),
    )

    worst = 0.0
    for _ in range(20):
        c_t = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = c_t[0] * fs.dg_basis_state(space, (0, 0, 0, 0)) + c_t[
            1
        ] * fs.dg_basis_state(space, (1, 0, 0, 0))
        c_b = rng.normal(size=2) + 1j * rng.normal(size=2)
        varphi = c_b[0] * fs.dg_basis_state(space, (0, 0, 2, 0)) + c_b[
            1
        ] * fs.dg_basis_state(space, (1, 0, 1, 0), (0, 0, 1, 0))
        c1, c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        mean1, mean2 = lz.observable_indistinguishability(
            space, psi, varphi, c1, c2, observable
        )
        worst = max(worst, abs(mean1 - mean2))
    yield _check("observable_indistinguishability", worst, 1e-12)


def _interaction_checks(rng):
    worst = 0.0
    for _ in range(20):
        k = kt.random_kappas(rng, 1e-2)
        table = ia.vint_coefficients(k)
        want = (k.e_minus[1, 1] - k.e_minus[0, 0]) / 2.0
        worst = max(worst, abs(table.polarization_asymmetry - want))
        khat = dp.random_directions(rng)
        frame = dp.polarization_frame(khat)
        delta1, _ = ia.mixing_deltas(k, frame)
        oblique = ia.vint_coefficients(k, khat)
        worst = max(worst, abs(oblique.polarization_asymmetry - (-2.0 * delta1)))
    yield _check("coupling_asymmetry", worst, 1e-15)

    space = hm.transverse_space(1)
    frame = dp.polarization_frame(dp.Z_AXIS)
    worst = 0.0
    for _ in range(5):
        k = kt.random_kappas(rng, 1e-2)
        first_1, first_2 = ia.first_order_potentials(space, k, frame)
        got = ia.extract_couplings(space, first_1, first_2)
        want = ia.vint_coefficients(k)
        worst = max(
            worst,
            abs(got.j1_pol1 - want.j1_pol1),
            abs(got.j2_pol1 - want.j2_pol1),
            abs(got.j1_pol2 - want.j1_pol2),
            abs(got.j2_pol2 - want.j2_pol2),
        )
    yield _check("coupling_extraction", worst, 1e-12)


def cmd_verify(config, seed=0, inject_c_leakage=False):
    """Run the invariant suite of every module; report and aggregate.

    Returns the report dict and the exit status (0 all pass, 1 any
    failure).  Checks draw their own deterministic inputs from the seed;
    the config parameters additionally feed the Hamiltonian adjointness,
    unitarity horizon, and leakage checks.
    """
    rng = np.random.default_rng(seed)
    checks = []
    checks.extend(_tensor_checks(rng))
    checks.extend(_dispersion_checks(rng))
    checks.extend(_fock_checks(rng, config.cutoff))
    checks.extend(_hamiltonian_checks(rng, config))
    checks.extend(_lorenz_checks(rng, config, inject_c_leakage))
    checks.extend(_interaction_checks(rng))
    failures = [c["name"] for c in checks if not c["pass"]]
    report = {
        "command": "verify",
        "seed": seed,
        "checks": checks,
        "failures": failures,
        "pass": not failures,
    }
    return report, (0 if not failures else 1)


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
        p.add_argument(
            "--cutoff", type=int, help="override the Fock cutoff (not for verify)"
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
            config = default_config()
        if args.cutoff is not None:
            if args.command == "verify":
                raise ValueError(
                    "--cutoff does not apply to verify; its checks pick their own cutoffs"
                )
            config = replace(config, cutoff=args.cutoff)
        in_range = CUTOFF_RANGE[0] <= config.cutoff <= CUTOFF_RANGE[1]
        if args.command != "spectrum" and not in_range:  # spectrum checks its own
            raise ValueError(f"cutoff must lie in {CUTOFF_RANGE}")

        status = 0
        if args.command == "decompose":
            report = cmd_decompose(config)
        elif args.command == "dispersion":
            report = cmd_dispersion(config, grid=args.grid, seed=args.seed)
        elif args.command == "spectrum":
            report = cmd_spectrum(config)
        else:
            report, status = cmd_verify(
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
