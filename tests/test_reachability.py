"""Every public function of the package is reached by a subcommand, or is listed.

The four subcommands run in process, in every report format, on a
non-birefringent config, a birefringent one, one with scales and one
given as a raw tensor, with `verify` also run with its injected defect.
A profiler records every code object that runs.  The public module-level
functions that none of these runs reach must be exactly the ones listed
below, each with the reason it stays: a new unreached function, and a
listed one that a command comes to reach, both fail the test.
"""

import importlib
import inspect
import json
import pkgutil
import sys

import numpy as np

import lvphoton
from lvphoton import cli
from lvphoton import kappa_tensor as kt

#: Unreached public functions, "module.function" -> why they stay.
UNREACHED = {
    "dispersion.ampere_matrix": "solver oracle of criterion 03 and the dispersion tests; traced",
    "dispersion.solve_ampere": "solver oracle of criterion 03 and the dispersion tests; traced",
    "hamiltonian.transformed_matrices": "Fock conjugation the transformed_* oracles use; traced",
    "hamiltonian.transformed_expectation": "oracle of criteria 07 and 08; traced",
    "hamiltonian.transformed_element": "oracle of criteria 07 and 08; traced",
    "kappa_tensor.single_trace": "observer frames (ROADMAP item 3) decide its use",
    "kappa_tensor.coordinate_shift": "observer frames (ROADMAP item 3) decide its use",
    "fock_space.vacuum_state": "Lorenz classification API (ROADMAP item 11)",
    "fock_space.check_dg_occupations": "Lorenz classification API (ROADMAP item 11)",
    "lorenz.classify": "Lorenz classification API (ROADMAP item 11)",
    "lorenz.partner_occupations": "Lorenz classification API (ROADMAP item 11)",
    "lorenz.ghost_class_weights": "Lorenz classification API (ROADMAP item 11)",
    "modes.exact_couplings": "exact coupling table for the sky-map columns (ROADMAP item 2)",
    "modes.quadratic_form": "the tests derive spectrum_values' cell tables from it; "
    "normal modes and the exact Lorenz invariant (ROADMAP items 9 and 11)",
    "modes.factor_vector": "the factor vectors of quadratic_form and of the table tests",
}


def _public_functions():
    """{"module.function": code object} over every module of the package."""
    out = {}
    for info in pkgutil.iter_modules(lvphoton.__path__):
        module = importlib.import_module(f"lvphoton.{info.name}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name[0] != "_":
                out[f"{info.name}.{name}"] = fn.__code__
    return out


def _configs(tmp_path):
    """Paths of the four configs."""
    rng = np.random.default_rng(250)
    nonbiref = kt.random_kappas(rng, 1e-2)
    biref = kt.random_kappas(rng, 1e-2, birefringent=True)

    def kappa_keys(k):
        keys = {"kappa_e_minus": k.e_minus, "kappa_o_plus": k.o_plus, "kappa_tr": k.tr}
        if k.is_birefringent:
            keys.update(kappa_e_plus=k.e_plus, kappa_o_minus=k.o_minus)
        return keys

    raws = {
        "nonbiref": {**kappa_keys(nonbiref), "direction": [0.3, -0.4, 0.8]},
        "biref": kappa_keys(biref),
        "scales": {**kappa_keys(nonbiref), "scales": [1e-2, 1e-3]},
        "kf": {"kf_components": kt.kf_from_kappas(nonbiref)},
    }
    paths = {}
    for name, raw in raws.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({k: np.asarray(v).tolist() for k, v in raw.items()}))
        paths[name] = str(path)
    return paths


def _runs(configs, out):
    """(argv, expected exit status) of every traced run."""
    runs = []
    for name, path in configs.items():
        ok = 2 if name == "biref" else 0  # spectrum refuses birefringent sets
        runs += [
            (["decompose", "--config", path], 0),
            (["dispersion", "--config", path, "--grid", "4"], 0),
            (["dispersion", "--config", path, "--grid", "4", "--format", "csv"], 0),
            (["spectrum", "--config", path], ok),
            (["spectrum", "--config", path, "--format", "csv"], ok),
        ]
    runs += [
        (["verify", "--config", configs["nonbiref"]], 0),
        (["verify", "--config", configs["nonbiref"], "--inject-c-leakage"], 1),
    ]
    return [(argv + ["--output", out], status) for argv, status in runs]


def test_unreached_public_functions_are_exactly_the_listed_ones(tmp_path, capsys):
    functions = _public_functions()
    runs = _runs(_configs(tmp_path), str(tmp_path / "report.out"))
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    statuses = []
    sys.setprofile(record)
    try:
        for argv, _ in runs:
            statuses.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert statuses == [status for _, status in runs]
    unreached = {name for name, code in functions.items() if code not in reached}
    assert set(UNREACHED) <= set(functions)
    assert sorted(unreached) == sorted(UNREACHED)
