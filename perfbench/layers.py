"""Per-layer spans and counters, installed around freediv from outside.

Every public function of freediv.{poly, matrices, linalg, saito, families,
obstruction, cli} is replaced, in every freediv namespace that bound the name,
by a wrapper that records a span: name, start, end, parent span, item id.  The
layer is the module the function is defined in.  `PolyMatrix.det` is wrapped on
the class.  `Poly.__mul__` and `divide_exact` run far too often for spans: they
are aggregated as call count plus inclusive time of outermost calls.

Spans are kept in memory, never read while an item is timed, and written out
when the run ends.  A traced pass must run on one thread: spans nest on a
single stack.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("poly", "matrices", "linalg", "saito", "families", "obstruction", "cli")
NAMESPACES = ("freediv",) + tuple(f"freediv.{layer}" for layer in LAYERS)
# The grevlex sort key runs once per term comparison; a span per call would
# cost more than the work it measures.
NO_SPAN = {"poly.grevlex_key"}

# Every per-layer metric, in the order BENCHMARK.json lists them.
METRICS = (
    ("poly.squarefree_gcd.calls", "count"),
    ("poly.squarefree_gcd.self_s", "s"),
    ("poly.squarefree_gcd.in_terms_max", "terms"),
    ("poly.squarefree_gcd.per_cert", "ratio"),
    ("poly.mul.calls", "count"),
    ("poly.mul.busy_s", "s"),
    ("poly.divide_exact.calls", "count"),
    ("poly.divide_exact.busy_s", "s"),
    ("poly.poly_gcd.calls", "count"),
    ("poly.poly_gcd.self_s", "s"),
    ("poly.substitute.self_s", "s"),
    ("poly.parse_poly.self_s", "s"),
    ("poly.poly_to_str.self_s", "s"),
    ("matrices.det.calls", "count"),
    ("matrices.det.self_s", "s"),
    ("matrices.det.n_max", "rows"),
    ("matrices.det.crosschecked_calls", "count"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.cells", "count"),
    ("linalg.bounded_syzygy_solve.self_s", "s"),
    ("linalg.graded_membership.self_s", "s"),
    ("linalg.euler_annihilators.self_s", "s"),
    ("saito.verify_saito.calls", "count"),
    ("saito.verify_saito.self_s", "s"),
    ("saito.verify_saito.reject_share", "ratio"),
    ("saito.frame_divisor.self_s", "s"),
    ("saito.euler_frame.self_s", "s"),
    ("saito.hilbert_burch_from_framed.self_s", "s"),
    ("saito.free_multiple_via_xifi.self_s", "s"),
    ("families.calls", "count"),
    ("families.self_s", "s"),
    ("obstruction.smooth_times_nc_verdict.calls", "count"),
    ("obstruction.smooth_times_nc_verdict.self_s", "s"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("cli.corpus_run_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_s", "s"),
)


class Tracer:
    """Installs the wrappers, records spans and counters, computes layer metrics."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item id, raised]
        self.item = None
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._kernels: dict[str, list] = {}  # name -> [calls, busy seconds, depth]
        self._undo: list[tuple] = []
        self.squarefree_terms_max = 0
        self.det_n_max = 0
        self.det_crosschecked = 0
        self.rref_cells = 0

    # -- hooks that record the sizes a layer worked on ------------------------

    def _on_squarefree(self, args, kwargs):
        self.squarefree_terms_max = max(self.squarefree_terms_max, len(args[0].terms))

    def _on_det(self, args, kwargs):
        from freediv import matrices

        m = args[0]
        self.det_n_max = max(self.det_n_max, m.nrows)
        strategy = args[1] if len(args) > 1 else kwargs.get("strategy")
        if strategy is None and matrices.crosscheck_enabled and m.nrows <= matrices.CROSSCHECK_LIMIT:
            self.det_crosschecked += 1

    def _on_rref(self, args, kwargs):
        rows = args[0]
        self.rref_cells += len(rows) * (len(rows[0]) if len(rows) else 0)

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, hook=None):
        spans, stack, active = self.spans, self._stack, self._active
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in active:  # recursion: only the outermost call is a span
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.item, False]
            stack.append(len(spans))
            spans.append(span)
            active.add(name)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                active.discard(name)

        return wrapper

    def _counter(self, name, fn):
        cell = self._kernels.setdefault(name, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cell[2]:
                return fn(*args, **kwargs)
            cell[2] = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += perf_counter() - start
                cell[0] += 1
                cell[2] = 0

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import freediv.cli  # noqa: F401  (binds every freediv namespace)
        from freediv.matrices import PolyMatrix
        from freediv.poly import Poly

        hooks = {"poly.squarefree_gcd": self._on_squarefree, "linalg.rref": self._on_rref}
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"freediv.{layer}"]
            for attr, obj in vars(module).items():
                full = f"{layer}.{attr}"
                if (attr.startswith("_") or full in NO_SPAN or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                if full == "poly.divide_exact":
                    wrapped[obj] = self._counter(full, obj)
                else:
                    wrapped[obj] = self._span(full, obj, hooks.get(full))
        for ns in NAMESPACES:
            module = sys.modules[ns]
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(module, attr, wrapped[obj])
        mul = self._counter("poly.mul", Poly.__mul__)
        self._set(Poly, "__mul__", mul)
        self._set(Poly, "__rmul__", mul)
        self._set(PolyMatrix, "det", self._span("matrices.det", PolyMatrix.det, self._on_det))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def _aggregate(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        raised_n: dict[str, int] = defaultdict(int)
        top: dict = defaultdict(float)
        for i, (name, start, end, parent, item, raised) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            inclusive[name] += end - start
            raised_n[name] += raised
            if parent < 0:
                top[item] += end - start
        return calls, self_s, inclusive, raised_n, top

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self and inclusive seconds per span name."""
        _, self_s, inclusive, _, _ = self._aggregate()
        return dict(self_s), dict(inclusive)

    def metrics(self, item_seconds: dict) -> dict[str, float]:
        """Layer metrics from the recorded spans; item_seconds maps item id -> duration."""
        calls, self_s, _, raised_n, top = self._aggregate()
        out = {name: 0.0 for name, _ in METRICS}
        for name in calls:
            for suffix, table in ((".calls", calls), (".self_s", self_s)):
                if name + suffix in out:
                    out[name + suffix] = table[name]
        for name, (n, busy, _) in self._kernels.items():
            out[name + ".calls"] = n
            out[name + ".busy_s"] = busy
        out["poly.squarefree_gcd.in_terms_max"] = self.squarefree_terms_max
        verify = calls.get("saito.verify_saito", 0)
        if verify:
            out["poly.squarefree_gcd.per_cert"] = calls.get("poly.squarefree_gcd", 0) / verify
            out["saito.verify_saito.reject_share"] = raised_n["saito.verify_saito"] / verify
        out["matrices.det.n_max"] = self.det_n_max
        out["matrices.det.crosschecked_calls"] = self.det_crosschecked
        out["linalg.rref.cells"] = self.rref_cells
        families = [name for name in calls if name.startswith("families.")]
        out["families.calls"] = sum(calls[name] for name in families)
        out["families.self_s"] = sum(self_s[name] for name in families)
        out["trace.unattributed_s"] = sum(t - top.get(item, 0.0) for item, t in item_seconds.items())
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
