"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each ``tropical_transient``
module from outside the package, records one span per call (name, start,
end, parent span, op id) in memory, and counts work at the same
boundaries.  :meth:`Tracer.install` patches every package module that
binds a wrapped function (``cli`` imports ``fold`` by name, for example)
and swaps ``_kernels.ACTIVE`` for a counting backend; :meth:`uninstall`
puts every original back.

This module imports nothing from the package at import time, so the
traced CLI wrapper can time the package import itself.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

PACKAGE = "tropical_transient"

# (module, attribute, span name).  "Class.attr" names a class member.
SPANS = (
    ("cli", "main", "cli.main"),
    ("io", "load_family", "io.load_family"),
    ("io", "load_sequence", "io.load_sequence"),
    ("report", "base_report", "report.sections"),
    ("report", "validation_section", "report.sections"),
    ("report", "boundary_section", "report.sections"),
    ("report", "derived_section", "report.sections"),
    ("report", "bound_section", "report.sections"),
    ("report", "transient_section", "report.sections"),
    ("report", "lemma_section", "report.sections"),
    ("report", "attach_deviations", "report.sections"),
    ("report", "render", "report.render"),
    ("family", "MatrixFamily.validation", "family.validate"),
    ("family", "MatrixFamily.sup_derived", "family.sup_derived"),
    ("family", "MatrixFamily.inf_walk_to_one", "family.inf_vectors"),
    ("family", "MatrixFamily.inf_walk_from_one", "family.inf_vectors"),
    ("digraph", "max_cycle_mean", "digraph.max_cycle_mean"),
    ("digraph", "best_paths_to_one", "digraph.paths"),
    ("digraph", "best_paths_from_one", "digraph.paths"),
    ("digraph", "avoiding_walk_weights", "digraph.paths"),
    ("matrix", "walk_closure", "matrix.walk_closure"),
    ("matrix", "TropicalMatrix.from_rows", "matrix.from_rows"),
    ("matrix", "rank_one_factor", "matrix.rank_one_factor"),
    ("bounds", "compute_bound_report", "bounds.compute_bound_report"),
    ("products", "fold", "products.fold"),
    ("products", "estimate_transient", "products.estimate_transient"),
    ("trellis", "check_lemma_bounds", "trellis.check_lemma_bounds"),
    ("trellis", "initial_weights_all", "trellis.walk_summary"),
    ("trellis", "final_weights_all", "trellis.walk_summary"),
    ("trellis", "optimal_full_walk", "trellis.walk_summary"),
    ("trellis", "optimal_initial_walk", "trellis.walk_summary"),
    ("trellis", "optimal_final_walk", "trellis.walk_summary"),
    ("trellis", "best_through_one_weight", "trellis.walk_summary"),
    ("trellis", "best_avoiding_full_weight", "trellis.walk_summary"),
)

# Kernel backend fields that run a trellis sweep; argument 2 is the sequence.
SWEEPS = (
    "forward_full",
    "forward_avoid",
    "backward_avoid",
    "initial_to_anchor",
    "final_from_anchor",
    "through_anchor",
)


def _count_calls(name):
    def after(counts, args, result):
        counts[name] += 1
    return after


def _count_report_bytes(counts, args, result):
    counts["report.bytes"] += len(result.encode("utf-8"))


def _count_examined(counts, args, result):
    counts["products.examined"] += result.examined


def _count_lemma_pairs(counts, args, result):
    counts["trellis.lemma_pairs_checked"] += sum(
        c.checked
        for c in (
            result.initial_length,
            result.final_length,
            result.through_one_decomposition,
            result.avoiding_strictly_below,
        )
    )


def _count_matmul(counts, args, result):
    a_num, b_num = args[0], args[2]
    counts["kernels.matmul_calls"] += 1
    counts["kernels.matmul_ops"] += a_num.shape[0] * a_num.shape[1] * b_num.shape[1]


def _count_sweep(counts, args, result):
    counts["kernels.sweep_calls"] += 1
    counts["kernels.sweep_layers"] += len(args[2])


AFTER = {
    "report.render": _count_report_bytes,
    "family.inf_vectors": _count_calls("family.inf_vector_calls"),
    "digraph.max_cycle_mean": _count_calls("digraph.max_cycle_mean_calls"),
    "products.fold": _count_calls("products.fold_calls"),
    "products.estimate_transient": _count_examined,
    "trellis.check_lemma_bounds": _count_lemma_pairs,
}


class Tracer:
    """In-memory spans and counters; patches the package while installed."""

    def __init__(self):
        # Each span is [name, start, end, parent index or -1, op id].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def add_span(self, name, start, end):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op])

    def merge(self, spans, counts, op):
        """Append spans and counts recorded by another process under op id op."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
        self.counts.update(counts)

    def timed(self, name, fn, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, original, wrapper):
        # Rebind every package module name that refers to the original.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _patch_member(self, cls, attr, wrap):
        raw = cls.__dict__[attr]
        if isinstance(raw, functools.cached_property):
            new = functools.cached_property(wrap(raw.func))
            new.__set_name__(cls, attr)
        elif isinstance(raw, classmethod):
            new = classmethod(wrap(raw.__func__))
        else:
            new = wrap(raw)
        self._set(cls, attr, new)

    def install(self):
        """Wrap the layer functions and the kernel backend."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {
            name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in {m for m, _, _ in SPANS} | {"_kernels"}
        }
        for mod_name, attr, span in SPANS:
            mod = modules[mod_name]
            wrap = lambda fn, span=span: self.timed(span, fn, AFTER.get(span))
            if "." in attr:
                cls_name, member = attr.split(".")
                self._patch_member(getattr(mod, cls_name), member, wrap)
            else:
                original = getattr(mod, attr)
                self._patch_function(original, wrap(original))
        self._patch_member(
            modules["matrix"].TropicalMatrix,
            "__matmul__",
            lambda fn: self.counted("matrix.matmul_calls", fn),
        )
        kernels = modules["_kernels"]
        base = kernels.ACTIVE
        fields = {
            "matmul": self.timed("kernels.matmul", base.matmul, _count_matmul),
            "fold": self.timed("kernels.fold", base.fold),
        }
        for sweep in SWEEPS:
            fields[sweep] = self.timed("kernels.sweep", getattr(base, sweep), _count_sweep)
        self._set(kernels, "ACTIVE", base._replace(**fields))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()  # undo a partial install before re-raising
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def self_times(self) -> Counter:
        """Seconds of self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
        return out
