"""Layer spans for the benchmark's traced run, recorded from outside heatlab.

A ``Tracer`` wraps every public function of the heatlab layer modules, three
methods that carry per-solve work (``RadialManifold.log_area``,
``WeightedOperator.banded`` and ``WeightedOperator.apply``) and the scipy
tridiagonal solve that ``heatlab.solver`` calls (span ``solver.kernel``).
Each call becomes one span (name, start, end, parent) held in flat arrays
in memory.  Self time is a span's duration minus the durations of its
direct children, so the self times of all spans inside a root span add up
to the root's duration.

``experiments`` and ``cli`` import solver functions by name, so a wrapper is
swapped into every module-level binding of the original function in every
loaded ``heatlab`` module, and everything is restored on exit.  The run must
be single-threaded: spans nest through one stack.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("geometry", "grid", "operator", "solver", "functionals",
          "experiments", "cli")
KERNEL = "solver.kernel"
# (module, class, method, span name)
METHODS = (("geometry", "RadialManifold", "log_area", "geometry.log_area"),
           ("operator", "WeightedOperator", "banded", "operator.banded"),
           ("operator", "WeightedOperator", "apply", "operator.apply"))


def layer_of(name: str) -> str:
    """Layer a span name belongs to; the kernel counts as its own layer."""
    return KERNEL if name.startswith(KERNEL) else name.split(".", 1)[0]


def _count_kernel(counters, args, out):
    ab, rhs = args[1], args[2]
    counters["solver.kernel.cells"] += rhs.size
    counters["solver.kernel.bytes_computed"] += ab.nbytes + rhs.nbytes + out.nbytes


def _count_grid(counters, args, out):
    counters["grid.cells_built"] += out.N


COUNT_HOOKS = {KERNEL: _count_kernel, "grid.grid_from_faces": _count_grid}


class Tracer:
    """In-memory span recorder with per-name self time and call counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []
        self._child: list[float] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def enter(self, nid: int):
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self._open.append(len(self.span_start))
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)

    def exit(self):
        end = time.perf_counter()
        idx = self._open.pop()
        duration = end - self.span_start[idx]
        self.span_end[idx] = end
        nid = self.span_name[idx]
        self.self_s[nid] += duration - self._child.pop()
        self.calls[nid] += 1
        if self._child:
            self._child[-1] += duration

    @contextmanager
    def span(self, name: str):
        self.enter(self._intern(name))
        try:
            yield
        finally:
            self.exit()

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        hook = COUNT_HOOKS.get(name)
        enter, exit_, counters = self.enter, self.exit, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_()
            if hook is not None:
                hook(counters, args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Swap wrappers into heatlab for the duration of the block."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"heatlab.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        kernel = sys.modules["heatlab.solver"].solve_banded
        wrappers[id(kernel)] = (kernel, self._wrap(KERNEL, kernel))

        patches = []  # (owner, attribute, original)
        for modname, mod in list(sys.modules.items()):
            if modname != "heatlab" and not modname.startswith("heatlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for modname, clsname, meth, name in METHODS:
            cls = getattr(sys.modules[f"heatlab.{modname}"], clsname)
            original = cls.__dict__[meth]
            patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_of(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def layer_totals(self) -> tuple[dict, dict]:
        """Self time and call count summed over the spans of each layer."""
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        for nid, name in enumerate(self.names):
            layer = layer_of(name)
            self_s[layer] = self_s.get(layer, 0.0) + self.self_s[nid]
            calls[layer] += self.calls[nid]
        return self_s, calls

    def deterministic_counts(self) -> dict:
        """Counts that must repeat exactly when the same pass runs again."""
        out = {f"{name}.calls": self.calls[nid]
               for nid, name in enumerate(self.names)}
        out.update(self.counters)
        return out


def save(path: str, tracers) -> None:
    """Write the spans of several traced passes to one ``.npz`` file."""
    arrays = {}
    for i, t in enumerate(tracers, start=1):
        arrays[f"pass{i}_names"] = np.asarray(t.names)
        arrays[f"pass{i}_span_name"] = np.frombuffer(t.span_name, dtype=np.int32)
        arrays[f"pass{i}_span_parent"] = np.frombuffer(t.span_parent, dtype=np.int32)
        arrays[f"pass{i}_span_start"] = np.frombuffer(t.span_start)
        arrays[f"pass{i}_span_end"] = np.frombuffer(t.span_end)
    np.savez_compressed(path, **arrays)
