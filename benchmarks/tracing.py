"""Outside-in tracing of the package's layers.

A ``Tracer`` wraps public functions of the ``sasakian`` modules from outside,
rebinding each one at every module or class attribute that holds it, since
callers look functions up under their own names (``report`` binds ``frenet``
directly, ``Jet.__mul__`` lives on the class).  Each call records a span
(name, start, end, parent) in memory.  A layer's self time is its spans'
durations minus the time covered by their child spans.

Jet-by-jet products also add computed work counts: multiply-adds, and the
bytes of the operands, the two gathered operand arrays, the elementwise
product and the result, at 8 bytes per float64.  These follow from array
shapes alone and repeat exactly.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

IMMERSION_FUNCTIONS = (
    "sample_geometry",
    "check_C_parallel",
    "check_normal_laplacian",
    "bitension",
    "check_integral",
    "check_unit_norm",
    "coordinate_laplacian_eigencheck",
    "lattice_check",
    "require_flat_chart",
)
CLASSIFIER_FUNCTIONS = ("isolate_real_roots", "solve_flat", "solve_minus4_flat", "solve_caseII")
FLOAT_BYTES = 8


def _nterms(nvars: int, acc: int) -> int:
    return math.comb(nvars + acc, nvars)


@functools.lru_cache(maxsize=None)
def _npairs(nvars: int, acc: int) -> int:
    """Coefficient pairs (a, b) with deg(a) + deg(b) <= acc."""
    per_degree = [math.comb(d + nvars - 1, nvars - 1) for d in range(acc + 1)]
    return sum(per_degree[i] * per_degree[j] for i in range(acc + 1) for j in range(acc + 1 - i))


class Tracer:
    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._rebound: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, fn, namer):
        start, end, parent, span_name, stack = self.start, self.end, self.parent, self.span_name, self._stack
        name_id = self._name_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            span_name.append(name_id(namer(args, kwargs)))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def _name_id(self, name: str) -> int:
        i = self.name_ids.get(name)
        if i is None:
            i = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    # -- installation --------------------------------------------------

    def _rebind(self, original, wrapped, holders) -> None:
        """Replace ``original`` by ``wrapped`` under every name that holds it."""
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapped)
                    self._rebound.append((holder, attr, original))

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "sasakian" or name.startswith("sasakian.")]
        mod = {m.__name__.rpartition(".")[2]: m for m in modules}
        Jet = mod["jets"].Jet
        Immersion = mod["immersion"].ParametricImmersion

        def fixed(name):
            return lambda args, kwargs: name

        def mul_name(args, kwargs):
            a, b = args
            if not isinstance(b, Jet):
                return f"jets.mul.v{a.nvars}a{a.acc}"
            acc = min(a.acc, b.acc)
            lead_a, lead_b = a.coef.shape[:-1], b.coef.shape[:-1]
            lead = math.prod(np.broadcast_shapes(lead_a, lead_b))
            pairs, terms = _npairs(a.nvars, acc), _nterms(a.nvars, acc)
            operands = math.prod(lead_a) + math.prod(lead_b)
            self.counters["jets.mul.madds"] += lead * pairs
            self.counters["jets.mul.bytes"] += FLOAT_BYTES * (
                operands * terms + operands * pairs + lead * pairs + lead * terms
            )
            return f"jets.mul.v{a.nvars}a{acc}"

        def jets_name(args, kwargs):
            acc = kwargs["acc"] if "acc" in kwargs else args[2]
            return f"immersion.jets.acc{acc}"

        targets = [
            (Jet, "__mul__", mul_name),
            (Jet, "sincos", fixed("jets.sincos")),
            (Immersion, "jets", jets_name),
            (mod["catalog"], "circle_decomposition", fixed("catalog.circle_decomposition")),
            (mod["frenet"], "frenet", fixed("frenet.frenet")),
            (mod["shape_algebra"], "expanded_system_residual", fixed("shape_algebra.expanded_system_residual")),
            (mod["report"], "build_report", fixed("report.build_report")),
            (mod["report"], "classification_report", fixed("report.classification_report")),
            (mod["cli"], "main", fixed("cli.main")),
        ]
        targets += [(mod["immersion"], f, fixed(f"immersion.{f}")) for f in IMMERSION_FUNCTIONS]
        targets += [(mod["classifier"], f, fixed(f"classifier.{f}")) for f in CLASSIFIER_FUNCTIONS]
        for owner, attr, namer in targets:
            original = vars(owner)[attr]
            holders = [owner] if isinstance(owner, type) else modules
            self._rebind(original, self._wrap(original, namer), holders)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._rebound):
            setattr(holder, attr, original)
        self._rebound.clear()

    # -- results -------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans from a mark on form one pass."""
        self.counters.clear()
        return len(self.start)

    def layer_totals(self, first: int) -> dict[str, float]:
        """``<layer>.calls`` and ``<layer>.self_s`` over the spans from ``first``."""
        self_time = [0.0] * (len(self.start) - first)
        for i in range(first, len(self.start)):
            duration = self.end[i] - self.start[i]
            self_time[i - first] += duration
            p = self.parent[i]
            if p >= first:
                self_time[p - first] -= duration
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self_time, start=first):
            name = self.names[self.span_name[i]]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += s
        out.update(self.counters)
        return dict(out)

    def write(self, path) -> None:
        """All spans as gzip JSON: names, then [name, start, end, parent] rows."""
        t0 = self.start[0] if self.start else 0.0
        rows = [
            [n, round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(self.span_name, self.start, self.end, self.parent)
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))

