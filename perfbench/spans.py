"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: each layer below is a
public function (or method) of a circleinv module, and the tracer swaps a
timing wrapper into every place a caller resolves it - every attribute of a
loaded ``circleinv`` module bound to that function object, or the class
attribute for methods.  Nothing under ``src/`` is edited; ``uninstall``
puts the originals back.

Each span records its name, start, end, parent span and vector id.  A
layer's self time is its duration minus the time covered by its child
spans; its total time counts only the outermost span of that name, so a
layer that recurses into itself is not counted twice.
"""

import functools
import sys
import time

# (span name, module, attribute path); order is report order
LAYERS = (
    ("cli.scan_candidates", "circleinv.cli", "_scan_candidates"),
    ("weights.validate", "circleinv.weights", "validate"),
    ("gorenstein.analyze", "circleinv.gorenstein", "analyze"),
    ("cli.report_json", "circleinv.cli", "report_json"),
    ("hilbert.series", "circleinv.hilbert", "hilbert_series"),
    ("hilbert.generic", "circleinv.hilbert", "hilbert_generic"),
    ("hilbert.degenerate", "circleinv.hilbert", "hilbert_degenerate"),
    ("hilbert.oracle", "circleinv.hilbert", "oracle_coefficients"),
    ("exact.from_factored", "circleinv.exact", "RationalFunction.from_factored"),
    ("exact.present", "circleinv.exact", "present_with_factors"),
    ("exact.series_at_zero", "circleinv.exact", "RationalFunction.series_at_zero"),
    ("exact.laurent_at_one", "circleinv.exact", "RationalFunction.laurent_at_one"),
    ("laurent.gamma0", "circleinv.laurent", "gamma0"),
    ("laurent.gamma1", "circleinv.laurent", "gamma1"),
    ("laurent.gamma2", "circleinv.laurent", "gamma2"),
    ("laurent.gamma3", "circleinv.laurent", "gamma3"),
    ("schur.partial_schur", "circleinv.schur", "partial_schur"),
    ("cyclotomic.constrained_unity_sum", "circleinv.cyclotomic", "constrained_unity_sum"),
)

SPAN_NAMES = tuple(name for name, _, _ in LAYERS)


class Tracer:
    """Collects spans and the counts measured at layer boundaries."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, vector id, outermost)
        self.vector = None
        self.active = False
        self.present_calls = 0
        self.present_full = 0
        self.oracle_cells = 0
        self.analyze_calls = 0
        self.analyze_series = 0
        self._stack = []
        self._depth = {}
        self._undo = []

    # -- observers: counts computed from a call's arguments and result

    def _observe_present(self, args, kwargs, result):
        nfactors = kwargs.get("nfactors", args[1] if len(args) > 1 else None)
        view = result.factored_denominator
        self.present_calls += 1
        if view is not None and sum(m for _, m in view) == nfactors:
            self.present_full += 1

    def _observe_oracle(self, args, kwargs, result):
        v = args[0]
        depth = kwargs.get("upto", args[1] if len(args) > 1 else 0)
        widest = max(abs(w) for w in v.weights)
        # cells of the dense counting table, computed from the arguments
        self.oracle_cells += (depth + 1) * (2 * depth * widest + 1)

    def _observe_analyze(self, args, kwargs, result):
        self.analyze_calls += 1
        # the series route is the one that leaves a series behind without
        # the n=2 closed form
        if result.hilbert is not None and "N2Polynomial" not in result.sufficient_condition_hits:
            self.analyze_series += 1

    # -- wrapping

    def wrap(self, name, fn, observe=None):
        spans = self.spans
        stack = self._stack
        depth = self._depth
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = not depth.get(name)
            depth[name] = depth.get(name, 0) + 1
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[name] -= 1
                spans[index] = (name, start, end, parent, self.vector, outermost)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Swap wrappers in at every site a caller resolves each layer."""
        observers = {
            "exact.present": self._observe_present,
            "hilbert.oracle": self._observe_oracle,
            "gorenstein.analyze": self._observe_analyze,
        }
        for name, module_name, path in LAYERS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.wrap(name, raw.__func__, observers.get(name)))
                else:
                    wrapped = self.wrap(name, raw, observers.get(name))
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            fn = getattr(owner, path)
            wrapped = self.wrap(name, fn, observers.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "circleinv" or mod_name.startswith("circleinv.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- aggregation

    def layer_metrics(self) -> dict:
        """``<span>.total_s``, ``<span>.self_s`` and ``<span>.calls`` for
        every layer (zeros for layers the workload never reached), plus the
        boundary counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        own = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for index, (name, start, end, _, _, outermost) in enumerate(self.spans):
            duration = end - start
            calls[name] += 1
            own[name] += duration - child_time[index]
            if outermost:
                total[name] += duration
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.total_s"] = (total[name], "s")
            out[f"{name}.self_s"] = (own[name], "s")
            out[f"{name}.calls"] = (calls[name], "count")
        out["exact.present_full_frac"] = (_share(self.present_full, self.present_calls), "fraction")
        out["hilbert.oracle_cells"] = (self.oracle_cells, "cells-computed")
        out["gorenstein.series_route_frac"] = (_share(self.analyze_series, self.analyze_calls), "fraction")
        return out

    def span_records(self):
        for name, start, end, parent, vector, _ in self.spans:
            yield {"name": name, "start": start, "end": end, "parent": parent, "vector": vector}


def _share(part: int, base: int) -> float:
    # the base is reported alongside as the matching ``.calls`` count
    return part / base if base else 0.0
