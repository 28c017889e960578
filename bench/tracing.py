"""Span tracing around the public functions of lrtdrom, from outside the package.

Each traced function is wrapped in every module of the package that holds a
reference to it, so a call is recorded the way the calling module sees it:
``lrtdrom.study.tt_svd``, ``lrtdrom.tensors.solve_fom``,
``lrtdrom.rom.interpolate_coefficients`` and so on. The span name is
``<defining module>.<function>``, which is the layer name followed by the
function. Spans stay in memory until :meth:`Tracer.write` is called.

A span's parent is the innermost open span on the same thread. A span opened
on a pool thread that has no open span of its own hangs under the innermost
open span of the thread that created the tracer, which is the one that
submitted the work (``run_study`` hands its solves to a thread pool).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import lrtdrom
from lrtdrom import fem, interp, rom, study, tensors, tt

_MODULES = (lrtdrom, fem, tensors, tt, interp, rom, study)

# (defining module, function name) of every traced free function.
TRACED_FUNCTIONS = (
    (fem, "build_mesh"),
    (fem, "assemble_mass"),
    (fem, "assemble_h1_gram"),
    (fem, "assemble_operator"),
    (fem, "backward_euler_solve"),
    (fem, "solve_fom"),
    (tensors, "generate_snapshots"),
    (tensors, "max_trajectory_norm"),
    (tensors, "spectral_norm"),
    (tt, "frobenius_tolerance"),
    (tt, "tt_svd"),
    (tt, "interpolate_coefficients"),
    (interp, "weight_vectors"),
    (rom, "local_basis"),
    (rom, "rom_solve"),
    (rom, "trajectory_error_sq"),
    (rom, "correlation_spectrum"),
    (study, "run_study"),
)

# (class, method, span name) of every traced method.
TRACED_METHODS = (
    (rom.RomTrajectory, "lift", "rom.lift"),
    (study.FomCache, "lookup", "study.fom_cache.lookup"),
    (study.FomCache, "store", "study.fom_cache.store"),
)


def svd_flops(rows: int, cols: int) -> float:
    """Computed flop count of one thin SVD with both factors (R-SVD).

    6 * M * k**2 + 20 * k**3 with M = max(rows, cols), k = min(rows, cols),
    after Golub and Van Loan, *Matrix Computations*, the R-SVD row for
    Sigma, U_1 and V. It counts arithmetic only and ignores cache misses.
    """
    big, k = max(rows, cols), min(rows, cols)
    return 6.0 * big * k * k + 20.0 * k**3


def unfolding_shapes(dims: tuple[int, ...], ranks: tuple[int, ...]) -> list[tuple[int, int]]:
    """Shapes of the matrices that TT-SVD factors, from the tensor's dims and ranks."""
    shapes = []
    r_prev = 1
    for k in range(len(dims) - 1):
        rest = 1
        for n in dims[k + 1:]:
            rest *= n
        shapes.append((r_prev * dims[k], rest))
        r_prev = ranks[k]
    return shapes


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts while :meth:`active` patches the package."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {
            "fem.steps": 0,
            "study.fom_cache.hits": 0,
            "study.fom_cache.misses": 0,
            "tensors.snapshot_bytes_computed": 0,
            "tt.tt_svd.flop_computed": 0.0,
        }
        self.reports: list = []  # every CompressionReport tt_svd returned
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def _record(self, name, args, kwargs, result) -> None:
        if name == "fem.backward_euler_solve":
            tg = kwargs["tg"] if "tg" in kwargs else args[4]
            self.counts["fem.steps"] += tg.steps
        elif name == "tensors.generate_snapshots":
            self.counts["tensors.snapshot_bytes_computed"] += result.nbytes
        elif name == "tt.tt_svd":
            tensor = kwargs["tensor"] if "tensor" in kwargs else args[0]
            train, report = result
            self.reports.append(report)
            for rows, cols in unfolding_shapes(tensor.shape, train.ranks):
                self.counts["tt.tt_svd.flop_computed"] += svd_flops(rows, cols)
        elif name == "study.fom_cache.lookup":
            key = "hits" if result is not None else "misses"
            self.counts[f"study.fom_cache.{key}"] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the body of a ``with`` block."""
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, tid))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._record(name, args, kwargs, result)
            return result

        return traced

    def active(self):
        """Context manager: wrap every traced function, restore them on exit."""
        return _Patched(self)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            entry = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += s.duration
            entry["self_s"] += s.duration - _covered(s, children.get(s.id, []))
        return out

    def write(self, path: Path) -> None:
        """Write every span, one JSON object a line, plus the counts last."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start": s.start - t0,
                            "end": s.end - t0,
                            "parent": s.parent,
                            "thread": s.thread,
                        }
                    )
                    + "\n"
                )
            f.write(json.dumps({"counts": self.counts}) + "\n")


def _covered(span: Span, kids: list[Span]) -> float:
    """Length of the part of ``span`` that the union of ``kids`` covers."""
    total, reach = 0.0, span.start
    for k in sorted(kids, key=lambda k: k.start):
        lo, hi = max(k.start, reach), min(k.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class _Patched:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for home, fname in TRACED_FUNCTIONS:
            original = getattr(home, fname)
            wrapper = self.tracer._wrap(f"{home.__name__.rsplit('.', 1)[-1]}.{fname}", original)
            for mod in _MODULES:
                if getattr(mod, fname, None) is original:
                    self.saved.append((mod, fname, original))
                    setattr(mod, fname, wrapper)
        for cls, mname, span_name in TRACED_METHODS:
            original = cls.__dict__[mname]
            self.saved.append((cls, mname, original))
            setattr(cls, mname, self.tracer._wrap(span_name, original))
        return self.tracer

    def __exit__(self, *exc) -> bool:
        for owner, name, original in reversed(self.saved):
            setattr(owner, name, original)
        self.saved.clear()
        return False
