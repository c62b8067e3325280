"""Clock and span recorder for the benchmark.

`Clock` is the stopwatch every workload times itself with: it stops while
an untimed correctness check runs, so checks never count as work.

`Tracer` is a `Clock` that also records spans.  While installed it rebinds
the public entry points listed in `ENTRY_POINTS` in every `biotfem` module
namespace that holds them (class constructors and methods are patched on
the class), and wraps scipy's sparse-LU entry points to count
factorizations and distinct matrices.  Spans are kept in memory and written
once, after the traced pass.  Nothing inside `src/` is modified.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute) pairs; "Class.__init__" spans are named after the
# class, other methods after the method.
ENTRY_POINTS = (
    ("meshing", "structured_mesh"),
    ("meshing", "from_arrays"),
    ("elements", "FESpace.__init__"),
    ("elements", "FESpace.tabulate_at"),
    ("elements", "project_qh"),
    ("assembly", "FormOperators.__init__"),
    ("assembly", "FormOperators.block_system"),
    ("assembly", "FormOperators.norm_blocks"),
    ("solver", "solve_direct"),
    ("solver", "build_preconditioner"),
    ("solver", "minres_solve"),
    ("analysis", "error_norms"),
    ("analysis", "best_approximation_errors"),
    ("analysis", "convergence_study"),
    ("analysis", "conservation_audit"),
    ("analysis", "infsup_constant"),
    ("analysis", "infsup_sweep"),
    ("cli", "timestep_drive"),
)

LU_ENTRY_POINTS = ("factorized", "splu")
TASK = "task"


def span_name(module: str, attr: str) -> str:
    owner, _, method = attr.partition(".")
    if not method:
        return f"{module}.{owner}"
    return f"{module}.{owner if method == '__init__' else method}"


class Clock:
    """perf_counter that stands still inside `paused()`."""

    def __init__(self):
        self._paused_total = 0.0
        self._paused_at = None

    @property
    def recording(self) -> bool:
        return self._paused_at is None

    def now(self) -> float:
        t = time.perf_counter() if self._paused_at is None else self._paused_at
        return t - self._paused_total

    @contextmanager
    def paused(self):
        self._paused_at = time.perf_counter()
        try:
            yield
        finally:
            self._paused_total += time.perf_counter() - self._paused_at
            self._paused_at = None

    @contextmanager
    def task(self):
        """Time one task; yields a dict whose "seconds" is set on exit."""
        out = {}
        t0 = self.now()
        try:
            yield out
        finally:
            out["seconds"] = self.now() - t0


class Tracer(Clock):
    """Clock that records one span per traced call.

    A span is [name, start, end, parent index, op id].  The op id advances
    each time `op_marker` (the first library call of every op in the
    workload) is entered; time inside a task before its first marker is
    the task's own set-up and belongs to no op.
    """

    def __init__(self, op_marker: str):
        super().__init__()
        self.op_marker = op_marker
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._op_bounds: list[list[float]] = []
        self.tasks = 0
        self.lu_factorizations = 0
        self.lu_distinct = 0
        self._lu_hashes: set[bytes] = set()

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.now(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = self.now()

    def _next_op(self):
        t = self.now()
        if self._op_bounds and self._op_bounds[-1][1] is None:
            self._op_bounds[-1][1] = t
        self._op = len(self._op_bounds)
        self._op_bounds.append([t, None])

    @contextmanager
    def task(self):
        self._op = None
        self._lu_hashes.clear()
        self._open(TASK)
        with super().task() as out:
            try:
                yield out
            finally:
                self._close()
                if self._op_bounds and self._op_bounds[-1][1] is None:
                    self._op_bounds[-1][1] = self.now()
                self._op = None
                self.lu_distinct += len(self._lu_hashes)
                self.tasks += 1

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if name == tracer.op_marker:
                tracer._next_op()
            tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        return traced

    def _wrap_lu(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(A, *args, **kwargs):
            if tracer.recording and tracer._stack:  # inside a task
                tracer.lu_factorizations += 1
                tracer._lu_hashes.add(_matrix_digest(A))
            return fn(A, *args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        import scipy.sparse.linalg as spla

        undo = []
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if k == "biotfem" or k.startswith("biotfem.")]
        try:
            for module, attr in ENTRY_POINTS:
                mod = sys.modules[f"biotfem.{module}"]
                owner, _, method = attr.partition(".")
                if method:
                    cls = getattr(mod, owner)
                    orig = cls.__dict__[method]
                    setattr(cls, method, self._wrap(span_name(module, attr),
                                                    orig))
                    undo.append((cls, method, orig))
                    continue
                orig = getattr(mod, owner)
                wrapped = self._wrap(span_name(module, attr), orig)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, key, wrapped)
                            undo.append((ns, key, orig))
            for name in LU_ENTRY_POINTS:
                orig = getattr(spla, name)
                setattr(spla, name, self._wrap_lu(orig))
                undo.append((spla, name, orig))
            yield self
        finally:
            for target, key, orig in reversed(undo):
                setattr(target, key, orig)

    # -- summaries ----------------------------------------------------------

    def layer_totals(self):
        """{span name: (calls, self seconds)} over every recorded span, plus
        the task spans' self time (work outside any traced call)."""
        child_time = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[i]
        return {k: (calls[k], self_s[k]) for k in calls}

    def op_durations(self) -> np.ndarray:
        return np.array([t1 - t0 for t0, t1 in self._op_bounds])

    def dump(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")


def _matrix_digest(A) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((type(A).__name__, A.shape)).encode())
    for arr in (A.indptr, A.indices, A.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.digest()
