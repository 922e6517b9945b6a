"""Outside-in span tracer for the masec benchmark.

The tracer wraps public masec functions and methods from outside the
package: each target name is rebound in every loaded ``masec`` module that
holds it (for functions) or on its class (for methods), so calls made by
masec's own code are seen too.  Each call records a span (name, start, end,
parent span, op id) into flat in-memory arrays; nothing is written until the
caller asks.  A target that no longer exists is listed in ``absent`` rather
than raising, so a later refactor that deletes a layer still gets a report.

Self time of a span is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

ROOT = "op"  # name of the span the runner opens around each op


@dataclass(frozen=True)
class Target:
    """One traced callable: ``attr`` is ``"func"`` or ``"Class.method"`` in ``module``."""

    span: str
    module: str
    attr: str
    observe: Callable | None = None  # (counters, args, kwargs, result) -> None


class Tracer:
    """Span recorder; install() patches targets, uninstall() restores them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, sid: int) -> int:
        idx = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int):
        self.end[idx] = self.clock()
        self._stack.pop()

    def run_op(self, op_id: int, fn: Callable, *args):
        """Call ``fn(*args)`` inside a root span tagged with ``op_id``."""
        self.op_id = op_id
        idx = self._open(self._intern(ROOT))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, span: str, fn: Callable, observe: Callable | None = None) -> Callable:
        sid = self._intern(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self, targets: list[Target]):
        for t in targets:
            try:
                module = importlib.import_module(t.module)
            except ImportError:
                self.absent.append(t.span)
                continue
            cls_name, _, meth = t.attr.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name, None)
                orig = vars(cls).get(meth) if isinstance(cls, type) else None
                if orig is None:
                    self.absent.append(t.span)
                    continue
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(t.span, orig, t.observe))
                continue
            orig = getattr(module, t.attr, None)
            if orig is None:
                self.absent.append(t.span)
                continue
            traced = self.wrap(t.span, orig, t.observe)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "masec" or mod_name.startswith("masec.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, traced)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as parallel arrays (plus the name table)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Child intervals are clipped to the parent's and merged, so overlapping
    or overhanging children are not subtracted twice.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    children: dict[int, list[int]] = {}
    for i, p in enumerate(np.asarray(parent)):
        if p >= 0:
            children.setdefault(int(p), []).append(i)
    out = end - start
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered, cur_lo, cur_hi = 0.0, None, None
        for i in sorted(kids, key=lambda j: start[j]):
            lo, hi = max(start[i], lo_p), min(end[i], hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out
