"""In-memory span tracing around the public functions of stochlogistic.

A span is (name, start, end, parent).  `Tracer.install` wraps every
public function of the layer modules, plus the class methods named in
`METHODS`, and rebinds each wrapped object under every name that any
loaded stochlogistic module holds it by, so that calls through
``from .measure import pf_step`` are traced as well as calls through
``measure.pf_step``.  Names a later version of the package no longer has
are simply not wrapped; their metrics are reported as absent.

No wrapped function calls itself, so a span's total time is its
duration and its self time is that duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

PACKAGE = "stochlogistic"
LAYERS = ("maps", "measure", "analytic", "experiments", "svgplot", "cli")

#: Class methods traced in addition to module-level functions.
METHODS = ("measure.Ensemble.__post_init__", "measure.Histogram.from_samples")


def _ensemble_size(args, kwargs, result):
    return len(args[0].particles)


def _sweep_steps(args, kwargs, result):
    return int(result.terminal_states.size) * int(result.n_iter)


#: Work counters taken at a span boundary: span -> (counter, function of
#: the call's arguments and result).
COUNTERS = {
    "measure.pf_step": ("particle_steps", _ensemble_size),
    "experiments.deterministic_bifurcation": ("steps", _sweep_steps),
}


def _span_stat(span, stat):
    return lambda agg: agg[span].get(stat) if span in agg else None


def _ns_per_unit(span, counter):
    def value(agg):
        if span not in agg or counter not in agg[span]:
            return None
        count = agg[span][counter]
        return 1e9 * agg[span]["total_s"] / count if count else 0.0

    return value


def _layer_self(layer):
    def value(agg):
        return sum(v["self_s"] for k, v in agg.items() if k.split(".", 1)[0] == layer)

    return value


#: Per-layer metrics: name -> (unit, function of the per-span aggregate
#: that returns the value, or None when the span or counter is absent).
METRICS = {
    "maps.stream_rng.calls": ("count", _span_stat("maps.stream_rng", "calls")),
    "maps.stream_rng.total_s": ("s", _span_stat("maps.stream_rng", "total_s")),
    "measure.pf_step.calls": ("count", _span_stat("measure.pf_step", "calls")),
    "measure.pf_step.particle_steps": ("count", _span_stat("measure.pf_step", "particle_steps")),
    "measure.pf_step.self_s": ("s", _span_stat("measure.pf_step", "self_s")),
    "measure.pf_step.ns_per_particle_step": ("ns", _ns_per_unit("measure.pf_step", "particle_steps")),
    "measure.Ensemble.validate_s": ("s", _span_stat("measure.Ensemble.__post_init__", "total_s")),
    "measure.uniform_ensemble.calls": ("count", _span_stat("measure.uniform_ensemble", "calls")),
    "measure.stationary_stats.self_s": ("s", _span_stat("measure.stationary_stats", "self_s")),
    "measure.variance_of_right_peak.self_s": (
        "s",
        _span_stat("measure.variance_of_right_peak", "self_s"),
    ),
    "measure.ensemble_time_mean.self_s": ("s", _span_stat("measure.ensemble_time_mean", "self_s")),
    "measure.Histogram.from_samples.total_s": (
        "s",
        _span_stat("measure.Histogram.from_samples", "total_s"),
    ),
    "analytic.detect_period.calls": ("count", _span_stat("analytic.detect_period", "calls")),
    "analytic.detect_period.total_s": ("s", _span_stat("analytic.detect_period", "total_s")),
    "analytic.periodic_orbit.self_s": ("s", _span_stat("analytic.periodic_orbit", "self_s")),
    "analytic.h_function_roots.total_s": ("s", _span_stat("analytic.h_function_roots", "total_s")),
    **{
        f"experiments.{fn}.self_s": ("s", _span_stat(f"experiments.{fn}", "self_s"))
        for fn in (
            "lemma_suite",
            "flipflop_scan",
            "mean_comparison",
            "distribution_evolution",
            "deterministic_bifurcation",
            "stochastic_bifurcation",
        )
    },
    "experiments.deterministic_bifurcation.ns_per_step": (
        "ns",
        _ns_per_unit("experiments.deterministic_bifurcation", "steps"),
    ),
    "svgplot.render_histograms.total_s": ("s", _span_stat("svgplot.render_histograms", "total_s")),
    "svgplot.render_scatter.total_s": ("s", _span_stat("svgplot.render_scatter", "total_s")),
    "cli.parse_and_dispatch.self_s": ("s", _span_stat("cli.parse_and_dispatch", "self_s")),
    **{f"{layer}.self_s": ("s", _layer_self(layer)) for layer in LAYERS},
}


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []  # (name index, start ns, end ns, parent index)
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        self.counts[name] = {}
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = COUNTERS.get(name)
        counts = self.counts[name]
        if counter is not None:
            counts[counter[0]] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal counter
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent)
            if counter is not None:
                key, measure = counter
                try:
                    counts[key] = counts.get(key, 0) + measure(args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    # the package changed shape: report the counter absent
                    counts.pop(key, None)
                    counter = None
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layer functions and rebind them in every loaded module
        of the package."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                continue  # a merged or deleted layer: its metrics are absent
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                wrapped[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for dotted in METHODS:
            layer, cls_name, attr = dotted.split(".")
            cls = getattr(modules.get(layer), cls_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(dotted, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(dotted, raw))
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._patch(module, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        """Restore every rebound name."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        """Drop recorded spans and counts, keeping the installation."""
        self.spans.clear()
        for counts in self.counts.values():
            for key in counts:
                counts[key] = 0

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and the work counters."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        agg = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, **self.counts[name]}
            for name in self.names
        }
        for i, (index, start, end, _) in enumerate(self.spans):
            entry = agg[self.names[index]]
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[i]) / 1e9
        return agg


def layer_metrics(agg: dict) -> dict[str, float]:
    """METRICS evaluated on one aggregate; absent metrics are left out."""
    values = {name: fn(agg) for name, (_, fn) in METRICS.items()}
    return {name: value for name, value in values.items() if value is not None}


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over rounds (metrics absent in any round are dropped)."""
    names = set.intersection(*(set(r) for r in rounds)) if rounds else set()
    return {name: statistics.median(r[name] for r in rounds) for name in names}
