"""Span tracing around the calls into each ncg layer, from outside.

The tracer wraps public functions by rebinding their names: a module-level
function is looked up in its caller's globals, so the wrapper replaces
every ``ncg`` module attribute bound to it (``ncg.cli.categorify``,
``ncg.geometry.category_from_bundle``, ``ncg.cstarcat.check_fell_axioms``
and so on).  A class span wraps the constructor; a method span wraps the
class attribute.  Spans ``[name, start, end, parent, op_id]`` stay in
memory until :meth:`Tracer.dump`; counters are computed from the wrapped
call's arguments and result, after its span has closed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _products(b, full_only=False, saturation=False):
    """Basis products over composable arrow pairs of bundle ``b``."""
    p = b.blocks.p
    total = 0
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            e1 = b.fibres[(i, j)]
            for k in range(1, p + 1):
                e2, target = b.fibres[(j, k)], b.fibres[(i, k)]
                if not (e1.dim and e2.dim) or (saturation and not target.dim):
                    continue
                if full_only and target.dim != target.rows * target.cols:
                    continue
                total += e1.dim * e2.dim
    return total


def _unit_stack_bytes(t, operator):
    if getattr(t, operator) is None:
        return 0
    return 16 * t.blocks.algebra_dim() * t.n * t.n


# span name -> counter(args, result) -> {count name: increment}, run
# after a successful call.
COUNTERS = {
    "cli.run": lambda a, r: {f"cli.run.exit_{r}": 1},
    "fellbundle.check_fell_axioms": lambda a, r: {
        "fellbundle.check_fell_axioms.basis_products": _products(a[0]),
        "fellbundle.check_fell_axioms.full_target_products":
            _products(a[0], full_only=True)},
    "fellbundle.check_saturated": lambda a, r: {
        "fellbundle.check_saturated.basis_products":
            _products(a[0], saturation=True)},
    "sptriple.check_even_axioms": lambda a, r: {
        "sptriple.unit_stack_bytes": _unit_stack_bytes(a[0], "gamma")},
    "sptriple.check_real_axioms": lambda a, r: {
        "sptriple.unit_stack_bytes": _unit_stack_bytes(a[0], "K")},
    "matops.SubspaceBasis": lambda a, r: {
        "matops.SubspaceBasis.flat_elems": a[0].stack.size},
    "climit.flat_lattice_dirac": lambda a, r: {
        "climit.dense_bytes": 16 * a[0].n ** 2},
    "climit.gauge_unitary": lambda a, r: {
        "climit.dense_bytes": 16 * a[1].n ** 2},
}


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self, span_names):
        self.span_names = tuple(span_names)
        self.spans = []
        self.counts = defaultdict(int)
        self.op_id = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name == "cli.run":
                    self.counts["cli.run.raised"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "ncg" or key.startswith("ncg.")]
        for name in self.span_names:
            layer, _, path = name.partition(".")
            owner = sys.modules[f"ncg.{layer}"]
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part)
            attr = path.split(".")[-1]
            target = getattr(owner, attr)
            if isinstance(target, type):
                owner, attr, target = target, "__init__", target.__init__
            wrapper = self._wrap(name, target)
            if isinstance(owner, type):
                self._rebind(owner, attr, target, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._rebind(module, key, target, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self):
        """``{span: (calls, total_s, self_s)}``; self time is the span's
        duration minus that of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in self.span_names}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[idx]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)},
                      fh)
