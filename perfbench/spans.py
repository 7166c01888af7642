"""Span tracing of qeci's public functions, installed from outside the package.

``Tracer.install()`` replaces every binding of each traced function (the
defining module, every module that imported it, the package namespace) with a
wrapper that records one span per call: name, start, end, parent span and op
id. Spans are kept in memory; self time is a span's duration minus the part of
it covered by its child spans. ``uninstall()`` puts the original objects back.

This module imports neither numpy nor qeci at import time, so the CLI launcher
can load it before timing ``import qeci.cli``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import warnings

# (module, attribute path) of each traced function. Keys name the layer by its
# defining module, without the package prefix.
TRACED = (
    ("qeci.linalg", "hermitian_eig"),
    ("qeci.linalg", "partial_trace"),
    ("qeci.linalg", "swap_subsystems"),
    ("qeci.density", "validate_density"),
    ("qeci.density", "instance_conditional"),
    ("qeci.density", "star_product"),
    ("qeci.density", "von_neumann_entropy"),
    ("qeci.coupling", "greedy_min_entropy_coupling"),
    ("qeci.coupling", "MarginalSet.from_rows"),
    ("qeci.coupling", "shannon_entropy"),
    ("qeci.causal", "qeci_infer"),
    ("qeci.causal", "conditional_spectra"),
    ("qeci.causal", "classical_eci"),
    ("qeci.channels", "ChannelSpec.joint"),
    ("qeci.classicalmap", "rotate_to_classical"),
    ("qeci.fileio", "load_density_file"),
    ("qeci.fileio", "load_marginal_rows"),
    ("qeci.cli", "main"),
)


# Per-layer metrics in the order they are reported. "calls" counts spans per
# op, "self_ms" is self time per op, and the remaining names are counters.
PER_LAYER = (
    ("linalg.hermitian_eig.calls", "count"),
    ("linalg.hermitian_eig.self_ms", "ms"),
    ("linalg.hermitian_eig.n3", "count"),
    ("linalg.hermitian_eig.repeat_frac", "ratio"),
    ("linalg.partial_trace.calls", "count"),
    ("linalg.partial_trace.self_ms", "ms"),
    ("linalg.swap_subsystems.calls", "count"),
    ("density.validate_density.calls", "count"),
    ("density.validate_density.self_ms", "ms"),
    ("density.instance_conditional.calls", "count"),
    ("density.instance_conditional.self_ms", "ms"),
    ("density.star_product.self_ms", "ms"),
    ("density.von_neumann_entropy.self_ms", "ms"),
    ("coupling.greedy_min_entropy_coupling.calls", "count"),
    ("coupling.greedy_min_entropy_coupling.self_ms", "ms"),
    ("coupling.placements", "count"),
    ("coupling.MarginalSet.from_rows.self_ms", "ms"),
    ("coupling.shannon_entropy.self_ms", "ms"),
    ("causal.qeci_infer.self_ms", "ms"),
    ("causal.conditional_spectra.self_ms", "ms"),
    ("causal.classical_eci.self_ms", "ms"),
    ("causal.degeneracy_warnings", "count"),
    ("channels.ChannelSpec.joint.self_ms", "ms"),
    ("classicalmap.rotate_to_classical.self_ms", "ms"),
    ("fileio.load_density_file.self_ms", "ms"),
    ("fileio.load_marginal_rows.self_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("tracing.overhead_frac", "ratio"),
)

COUNTERS = ("eig_calls", "eig_repeats", "eig_n3", "placements", "degeneracy_warnings")


class Tracer:
    """Collects spans and counters for ops run while the wrappers are installed."""

    def __init__(self):
        self.spans = []  # (span id, parent id, op id, key, start ns, end ns)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.extra_ms = {"cli.import_ms": 0.0, "cli.main_ms": 0.0}
        self.ops = 0
        self._op = None
        self._stack = []
        self._next_id = 0
        self._seen = set()
        self._restore = []

    # -- installing the wrappers ------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of each traced function in the loaded qeci modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qeci" or name.startswith("qeci."))]
        for module_name, attr in TRACED:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            key = f"{module_name.removeprefix('qeci.')}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(key, raw.__func__))
                else:
                    new = self._wrap(key, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(key, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, name, value))
                        setattr(m, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def _wrap(self, key, fn):
        # Counting hooks run inside the span: their cost lands in the layer's
        # self time and in tracing.overhead_frac, not in the caller's.
        before = _BEFORE.get(key)
        after = _AFTER.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                if before:
                    before(self, *args, **kwargs)
                result = fn(*args, **kwargs)
                if after:
                    after(self, result)
                return result
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, self._op, key, start, end))

        return wrapper

    # -- ops ------------------------------------------------------------------

    def run_op(self, op_id: int, fn):
        """Run fn() as one traced op, counting the DegeneracyWarnings it raises."""
        self._op = op_id
        self._seen = set()
        self.ops += 1
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                return fn()
        finally:
            self.counters["degeneracy_warnings"] += sum(
                w.category.__name__ == "DegeneracyWarning" for w in caught)
            self._op = None

    def merge_child(self, op_id: int, doc: dict) -> None:
        """Add the spans and counters a traced CLI child wrote for one op."""
        self.ops += 1
        offset = self._next_id
        for sid, parent, _, key, start, end in doc["spans"]:
            self.spans.append((sid + offset, None if parent is None else parent + offset,
                               op_id, key, start, end))
        self._next_id += doc["next_id"]
        for name in COUNTERS:
            self.counters[name] += doc["counters"][name]
        for name in self.extra_ms:
            self.extra_ms[name] += doc["extra_ms"][name]

    def dump(self) -> dict:
        return {"spans": self.spans, "next_id": self._next_id,
                "counters": self.counters, "extra_ms": self.extra_ms}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["id", "parent", "op", "name", "start_ns", "end_ns"]}\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- per-layer metrics ------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per span key: number of calls and summed self time in ns."""
        children = {}
        for sid, parent, op, key, start, end in self.spans:
            if parent is not None:
                children.setdefault((op, parent), []).append((start, end))
        totals = {}
        for sid, parent, op, key, start, end in self.spans:
            covered = _covered(children.get((op, sid), ()))
            calls, self_ns = totals.get(key, (0, 0))
            totals[key] = (calls + 1, self_ns + (end - start) - covered)
        return totals

    def per_layer(self, overhead_frac: float) -> dict:
        """Every PER_LAYER metric, per op over the traced ops."""
        ops = max(self.ops, 1)
        totals = self.layer_totals()
        c = self.counters
        values = {
            "linalg.hermitian_eig.n3": c["eig_n3"] / ops,
            "linalg.hermitian_eig.repeat_frac":
                c["eig_repeats"] / c["eig_calls"] if c["eig_calls"] else 0.0,
            "coupling.placements": c["placements"] / ops,
            "causal.degeneracy_warnings": c["degeneracy_warnings"] / ops,
            "tracing.overhead_frac": overhead_frac,
        }
        values.update({name: ms / ops for name, ms in self.extra_ms.items()})
        out = {}
        for name, unit in PER_LAYER:
            if name not in values:
                key, _, kind = name.rpartition(".")
                calls, self_ns = totals.get(key, (0, 0))
                values[name] = calls / ops if kind == "calls" else self_ns / 1e6 / ops
            out[name] = {"value": values[name], "unit": unit}
        return out


def _covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _count_eig(tracer, a, *args, **kwargs):
    import numpy as np

    m = np.asarray(a, dtype=complex)
    key = (m.shape, m.tobytes())
    tracer.counters["eig_calls"] += 1
    tracer.counters["eig_n3"] += m.shape[0] ** 3
    if key in tracer._seen:
        tracer.counters["eig_repeats"] += 1
    else:
        tracer._seen.add(key)


def _count_placements(tracer, result):
    tracer.counters["placements"] += len(result.placements)


_BEFORE = {"linalg.hermitian_eig": _count_eig}
_AFTER = {"coupling.greedy_min_entropy_coupling": _count_placements}
