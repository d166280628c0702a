"""The benchmark's tracer must find every function it wraps.

`benchmarks/tracing.py` looks each name in its LAYERS and OBSERVED
tables up on the lvphoton module with no default, so renaming or
deleting one of those functions would only show as a crash of a traced
benchmark run.  This test reads the two tables and checks the names.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing_tables():
    spec = importlib.util.spec_from_file_location("_lvphoton_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS, module.OBSERVED


def test_every_traced_name_exists():
    layers, observed = _tracing_tables()
    names = [(mod, fn) for mod, fns in layers.items() for fn in fns]
    names += list(observed)
    assert len(names) > len(observed)
    missing = [
        f"{mod}.{fn}"
        for mod, fn in names
        if not callable(getattr(importlib.import_module(f"lvphoton.{mod}"), fn, None))
    ]
    assert missing == []
