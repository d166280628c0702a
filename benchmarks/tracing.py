"""Span recording around the public functions of each lvphoton layer.

The tracer replaces module attributes such as ``fock_space.annihilator``
with timing wrappers for the length of one pass and puts the originals
back afterwards; nothing in ``src/`` changes.  Because a module-level
call like ``fs.annihilator(...)`` inside ``hamiltonian`` looks the name
up at call time, those inner calls are caught too.  Names that another
lvphoton module bound with ``from ... import`` (for example
``dispersion.kf_from_kappas``) are rebound to the same wrapper, so they
are measured as well.  References captured before the wrappers go in
(closures, default arguments, containers) would escape; none of the
traced functions is held that way at this commit.

Spans are kept in flat in-memory arrays (name, parent, start, end) and
only written out when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

import functools
import time
from array import array

import numpy as np
import scipy.sparse as sp

#: Traced functions per lvphoton module.  Every one reports
#: ``<module>.<function>.calls`` and ``<module>.<function>.self_s``.
LAYERS = {
    "kappa_tensor": ("kf_from_kappas", "kappas_from_kf"),
    "dispersion": ("solve_ampere", "ampere_matrix", "rho_sigma"),
    "fock_space": ("annihilator", "bar_adjoint", "dg_operators", "dg_basis_state"),
    "hamiltonian": (
        "build_grouped",
        "build_raw",
        "xi_generators",
        "transformed_expectation",
        "transformed_element",
    ),
    "lorenz": (
        "invariance_leakage",
        "nonzero_norm_component",
        "weak_lorenz_check",
        "gupta_bleuler_check",
        "counting_oracle",
    ),
    "interaction": ("first_order_potentials", "extract_couplings"),
    "cli": ("load_config", "render_json"),
}

LAYER_NAMES = {f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns}

#: The span that covers one whole pass; its self time is ``cli.self_s``.
ROOT = "cli"

#: Functions whose arguments or results give the size metrics.
OBSERVED = (
    ("fock_space", "build_space"),
    ("hamiltonian", "build_raw"),
    ("hamiltonian", "transformed_expectation"),
    ("hamiltonian", "transformed_element"),
    ("lorenz", "invariance_leakage"),
)
OBSERVED_NAMES = {f"{mod}.{fn}" for mod, fn in OBSERVED}

#: Size metrics, recorded as the largest value seen in a pass.
SIZES = {
    "fock_space.dim": "states",
    "hamiltonian.h_nnz": "count",
    "hamiltonian.h_bytes": "B",
}


def _stored_bytes(h):
    """Bytes of a compressed sparse matrix, computed from its arrays."""
    return int(h.data.nbytes + h.indices.nbytes + h.indptr.nbytes)


class Tracer:
    """Collects spans for the traced passes of one run."""

    def __init__(self, modules):
        self._modules = modules  # short name -> imported lvphoton module
        self.names = [ROOT] + sorted(LAYER_NAMES)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._patches = []
        self.sizes = {}  # largest sizes seen in the current pass
        self.pass_sizes = []

    def _open(self, name_id):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _note(self, key, value):
        self.sizes[key] = max(value, self.sizes.get(key, 0))

    def _observe(self, qualname, args, result):
        if qualname == "fock_space.build_space":
            self._note("fock_space.dim", result.dim)
            return
        h = result if qualname == "hamiltonian.build_raw" else args[1]
        if sp.issparse(h) and h.format in ("csr", "csc"):
            self._note("hamiltonian.h_nnz", int(h.nnz))
            self._note("hamiltonian.h_bytes", _stored_bytes(h))

    def _wrap(self, qualname, fn):
        name_id = self.names.index(qualname) if qualname in LAYER_NAMES else None
        observe = qualname in OBSERVED_NAMES
        stack = self._stack
        span_name = self.span_name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a recursive call (render_json walks its input) stays
            # inside the outermost span instead of opening its own
            if name_id is None or (stack and span_name[stack[-1]] == name_id):
                result = fn(*args, **kwargs)
            else:
                idx = self._open(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
            if observe:
                self._observe(qualname, args, result)
            return result

        return wrapper

    def install(self):
        """Swap every traced function for its wrapper, in every module."""
        for qualname in sorted(LAYER_NAMES | OBSERVED_NAMES):
            mod, fn_name = qualname.split(".")
            original = getattr(self._modules[mod], fn_name)
            wrapper = self._wrap(qualname, original)
            for module in self._modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def run_pass(self, fn):
        """Call ``fn()`` as one traced pass under a root span."""
        self.sizes = {}
        self.install()
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)
            self.uninstall()
            self.pass_sizes.append(self.sizes)

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def per_pass(self):
        """Per traced pass, per span name: call count and total self time."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_s = dur - child
        roots = np.flatnonzero(~has_parent)
        bounds = list(roots) + [dur.size]
        passes = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            ids = a["name"][lo:hi]
            calls = np.bincount(ids, minlength=n_names)
            selfs = np.bincount(ids, weights=self_s[lo:hi], minlength=n_names)
            passes.append(
                {
                    "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
                    "self_s": {n: float(selfs[i]) for i, n in enumerate(self.names)},
                }
            )
        return passes
