"""Spans around the library's public functions, from the benchmark's side.

The package's modules import each other's functions by name, so a
function is wrapped in every module namespace where callers look it up;
each wrapper records a span (name, start, end, parent) and, for a few
functions, a count of the work it was given.  Spans stay in memory and
are reduced to per-layer metrics when the traced run ends.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict

# span name -> (module namespaces the function is looked up in, work counter)
# A work counter names the argument (position, keyword) whose value is
# added to the span's "work" total: draws, trials.
TRACED = {
    "quadrature.adaptive_simpson": (("measures", "geometry"), None),
    "measures.cap_averaged_p1": (("measures",), None),
    "measures.condition": (("conditional", "measures"), None),
    "measures.sample_state_array": (("conditional", "measures"), (2, "n")),
    "geometry.sample_uniform_cap_array": (("measures",), (2, "n")),
    "geometry.sample_uniform_sphere_array": (("measures", "survey"), (1, "n")),
    "geometry.cap_intersection_fraction": (("measures",), None),
    "machine.estimate_probability_mc": (("machine",), (2, "n")),
    "conditional.sweep": (("conditional",), None),
    "conditional.conditional_quad": (("conditional", "survey"), None),
    "conditional.conditional_mc": (("conditional",), (1, "trials")),
    "conditional.conditional_closed_form": (("conditional",), None),
    "embedding.check_kolmogorov": (("embedding", "survey"), None),
    "embedding.check_hilbert2d": (("embedding", "survey"), None),
    "embedding.classify": (("embedding", "survey"), None),
    "survey.build_survey_model": (("survey",), None),
    "survey.predict_conditionals": (("survey",), None),
    "survey.region_census": (("survey",), (1, "trials")),
    "survey.classify_survey": (("survey",), None),
}


def _argument(args, kwargs, where):
    pos, key = where
    return args[pos] if len(args) > pos else kwargs[key]


class Tracer:
    """Wraps the functions in TRACED while installed; the benchmark installs
    it around each timed library call only, so verification is not traced."""

    def __init__(self, qm):
        self.qm = qm
        # Each span: [name, start_ns, end_ns, parent index, children's ns]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.work: dict[str, int] = defaultdict(int)
        self.integrand_evals = 0
        self.closed_form_valid = 0
        self.mc_peak_bytes = 0
        self.saved: list[tuple] = []

    def install(self) -> None:
        for name, (namespaces, counter) in TRACED.items():
            home, attr = name.split(".")
            fn = getattr(getattr(self.qm, home), attr)
            wrapper = self._wrap(name, fn, counter)
            for ns in namespaces:
                module = getattr(self.qm, ns)
                self.saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    def _wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.work[name] += _argument(args, kwargs, counter)
            if name == "quadrature.adaptive_simpson":
                f = args[0]

                def counted(x):
                    self.integrand_evals += 1
                    return f(x)

                args = (counted,) + args[1:]
            parent = self.stack[-1] if self.stack else -1
            span = [name, 0, 0, parent, 0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            measure_memory = name == "conditional.conditional_mc"
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                if measure_memory:
                    self.mc_peak_bytes += tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.stack.pop()
                span[1], span[2] = start, end
                if parent >= 0:
                    self.spans[parent][4] += end - start
            if name == "conditional.conditional_closed_form" and result.validity.value == "valid":
                self.closed_form_valid += 1
            return result

        return wrapper

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics over `ops` traced ops: counts and self times
        per op, latencies as medians, costs per unit of work."""
        self_ns: dict[str, int] = defaultdict(int)
        durations: dict[str, list[int]] = defaultdict(list)
        for name, start, end, _parent, child_ns in self.spans:
            self_ns[name] += end - start - child_ns
            durations[name].append(end - start)
        calls = defaultdict(int, {name: len(d) for name, d in durations.items()})

        def per_op(x: float) -> float:
            return x / ops

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def p50(name: str, unit_ns: float) -> float:
            return statistics.median(durations[name]) / unit_ns if durations[name] else 0.0

        def ns_per_work(name: str) -> float:
            # Inclusive time: mixture measures, which would make condition and
            # sample_state_array recurse into themselves, occur in no workload.
            return ratio(sum(durations[name]), self.work[name])

        def self_ms(name: str) -> float:
            return per_op(self_ns[name] / 1e6)

        quad = "quadrature.adaptive_simpson"
        return {
            f"{quad}.calls": per_op(calls[quad]),
            "quadrature.integrand_evals": per_op(self.integrand_evals),
            "quadrature.evals_per_call": ratio(self.integrand_evals, calls[quad]),
            "quadrature.self_ms": self_ms(quad),
            "measures.cap_averaged_p1.self_ms": self_ms("measures.cap_averaged_p1"),
            "measures.condition.self_ms": self_ms("measures.condition"),
            "measures.sample_state_array.ns_per_draw": ns_per_work("measures.sample_state_array"),
            "geometry.sample_uniform_cap_array.ns_per_draw": ns_per_work("geometry.sample_uniform_cap_array"),
            "geometry.sample_uniform_sphere_array.ns_per_draw": ns_per_work("geometry.sample_uniform_sphere_array"),
            "geometry.cap_intersection_fraction.calls": per_op(calls["geometry.cap_intersection_fraction"]),
            "machine.estimate_probability_mc.ns_per_trial": ns_per_work("machine.estimate_probability_mc"),
            "conditional.conditional_quad.calls": per_op(calls["conditional.conditional_quad"]),
            "conditional.conditional_quad.p50_us": p50("conditional.conditional_quad", 1e3),
            "conditional.conditional_quad.self_ms": self_ms("conditional.conditional_quad"),
            "conditional.conditional_mc.calls": per_op(calls["conditional.conditional_mc"]),
            "conditional.conditional_mc.ns_per_trial": ns_per_work("conditional.conditional_mc"),
            "conditional.conditional_mc.self_ms": self_ms("conditional.conditional_mc"),
            "conditional.conditional_mc.rss_bytes_per_trial": ratio(self.mc_peak_bytes, self.work["conditional.conditional_mc"]),
            "conditional.conditional_closed_form.calls": per_op(calls["conditional.conditional_closed_form"]),
            "conditional.conditional_closed_form.p50_us": p50("conditional.conditional_closed_form", 1e3),
            "conditional.conditional_closed_form.valid_ratio": ratio(
                self.closed_form_valid, calls["conditional.conditional_closed_form"]
            ),
            "embedding.check_kolmogorov.calls": per_op(calls["embedding.check_kolmogorov"]),
            "embedding.check_kolmogorov.p50_ms": p50("embedding.check_kolmogorov", 1e6),
            "embedding.check_kolmogorov.self_ms": self_ms("embedding.check_kolmogorov"),
            "embedding.check_kolmogorov.per_classification": ratio(
                calls["embedding.check_kolmogorov"], calls["embedding.classify"]
            ),
            "embedding.check_hilbert2d.p50_us": p50("embedding.check_hilbert2d", 1e3),
            "embedding.classify.self_ms": self_ms("embedding.classify"),
            "survey.build_survey_model.p50_ms": p50("survey.build_survey_model", 1e6),
            "survey.predict_conditionals.p50_ms": p50("survey.predict_conditionals", 1e6),
            "survey.region_census.ns_per_draw": ns_per_work("survey.region_census"),
            "survey.classify_survey.p50_ms": p50("survey.classify_survey", 1e6),
        }
