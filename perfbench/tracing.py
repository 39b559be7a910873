"""Layer spans recorded from outside the package.

``Tracer.install`` replaces each layer's functions with wrappers at the
module attribute, so calls made through the module (``bounds.tau(...)``)
and calls inside it (a global name lookup) both pass through a wrapper.
Names that ``cli`` and ``bounds`` bind with ``from ... import`` are
separate attributes and are wrapped as well. On ``SurfaceModel`` the
methods ``create``, ``intersect`` and ``exceptional_curves`` are wrapped
on the class. ``uninstall`` puts every original back.

Every wrapped call is one span: function, parent span, start and end.
Spans stay in flat arrays in memory; ``write`` stores them at the end.
A span's self time is its duration minus the durations of its direct
children, which cover disjoint parts of it because the program runs in
one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from pathlib import Path

LAYERS = ("cli", "surface_io", "surface", "lattice", "zariski", "cycles", "bounds", "reporting")
SURFACE_METHODS = ("create", "intersect", "exceptional_curves")
# The one private function that is wrapped: the obstruction box. The
# entries it returns are summed into Tracer.entries.
BOX = "bounds._enumerate_box"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[object, int] = {}
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.entries = 0
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _fid(self, layer: str, func) -> int:
        if func not in self._ids:
            self._ids[func] = len(self.names)
            self.names.append(f"{layer}.{func.__name__}")
        return self._ids[func]

    def _wrap(self, fid: int, func):
        fns, parents, starts, ends = self.fn, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        is_box = self.names[fid] == BOX

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if is_box:
                self.entries += len(result.entries)
            return result

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = {layer: sys.modules[f"surfbound.{layer}"] for layer in LAYERS}
        home = {m.__name__: layer for layer, m in modules.items()}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType) or obj.__module__ not in home:
                    continue
                layer = home[obj.__module__]
                if attr.startswith("_") and f"{layer}.{attr}" != BOX:
                    continue
                self._undo.append((module, attr, obj))
                setattr(module, attr, self._wrap(self._fid(layer, obj), obj))
        cls = modules["surface"].SurfaceModel
        for attr in SURFACE_METHODS:
            raw = cls.__dict__[attr]
            self._undo.append((cls, attr, raw))
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(self._fid("surface", raw.__func__), raw.__func__))
            else:
                wrapped = self._wrap(self._fid("surface", raw), raw)
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive seconds and self seconds. The
        inclusive time of a recursive function counts nested calls again."""
        n = len(self.fn)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, fid in enumerate(self.fn):
            row = out[self.names[fid]]
            row["calls"] += 1
            row["incl_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as four columns in ``path.bin`` (int32 fn, int32 parent,
        float64 start, float64 end, in native byte order) and the function
        table in ``path.json``. A parent of -1 marks a top-level span."""
        with open(path.with_suffix(".bin"), "wb") as handle:
            for column in (self.fn, self.parent, self.start, self.end):
                column.tofile(handle)
        meta = {
            "spans": len(self.fn),
            "columns": ["fn:int32", "parent:int32", "start:float64", "end:float64"],
            "byteorder": sys.byteorder,
            "functions": self.names,
            "entries": self.entries,
        }
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1), encoding="utf-8")
