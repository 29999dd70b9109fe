"""Outside-in layer tracing: wrap the public functions of nestedmzi.

The tracer swaps, at run time, every binding of every traced function for a
wrapper that records a span (name id, start, end, parent span, op id). A
binding is any module global of a ``nestedmzi`` module (the package
re-exports, ``spectra.check_frequency_plan`` imported by name), any class
attribute (``EpsSeries.__rmul__`` is ``__mul__``) and any module-level tuple
of traced functions (``validate.ALL_CHECKS``, which ``run_all`` reads).
Nothing under ``src/`` changes. Spans stay in memory and are written out
when the run ends.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over the layer's spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "scenario", "series", "fock", "beam", "spectra", "validate")

# Class methods traced besides every public module-level function.
METHODS = {
    "series": {"EpsSeries": ("__mul__", "__add__", "eval")},
    "scenario": {"Scenario": ("__post_init__", "with_overrides")},
}

VALIDATE_CHECKS = (
    "check_standard_plans",
    "check_kick_norm_preservation",
    "check_case_tables",
    "check_witness_proportionality",
    "check_transcription",
    "check_detector_oracles",
    "check_translation_invariance",
    "check_single_mirror_null",
    "check_quartic_remainder",
    "check_case_c_quintic_quadcell",
    "check_parseval",
    "check_attribution_soundness",
    "check_spectral_cases",
)

WRITERS = tuple(
    f"spectra.{w}"
    for w in ("write_timeseries_csv", "write_spectrum_csv", "write_attribution_json", "write_bars_csv")
)

# Metric group -> traced names it covers.
GROUPS = {
    "beam.field_at": ("beam.field_at",),
    "beam.detector": ("beam.total_intensity", "beam.quadcell_signal", "beam.linearized_field_intensity"),
    "beam.oracle": ("beam.total_intensity_quadrature", "beam.quadcell_signal_quadrature"),
    "beam.second_order": ("beam.second_order_intensity",),
    "spectra.sample_detector": ("spectra.sample_detector",),
    "spectra.power_spectrum": ("spectra.power_spectrum",),
    "spectra.attribute_peaks": ("spectra.attribute_peaks",),
    "spectra.write": WRITERS,
    "series.mul": ("series.EpsSeries.__mul__",),
    "series.add": ("series.EpsSeries.__add__",),
    "series.eval": ("series.EpsSeries.eval",),
    "fock.output_state": ("fock.output_state",),
    "fock.apply_mirror_kick": ("fock.apply_mirror_kick",),
    "fock.readout": (
        "fock.mode_projection_probability",
        "fock.zero_mode_probability",
        "fock.bcjlss_witness",
        "fock.norm_series",
        "fock.projection_leading_coeff",
    ),
    "fock.compare_transcription": ("fock.compare_transcription",),
    "scenario.construct": ("scenario.Scenario.__post_init__", "scenario.Scenario.with_overrides"),
    "scenario.check_frequency_plan": ("scenario.check_frequency_plan",),
    "cli.main": ("cli.main",),
}

# Per-layer metrics: (name, unit, better). Order is the printing order.
PER_LAYER = (
    *(
        metric
        for layer in LAYERS
        for metric in (
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.self_frac", "ratio", "lower"),
        )
    ),
    ("beam.field_at.calls", "count", "lower"),
    ("beam.field_at.self_s", "s", "lower"),
    ("beam.detector.calls", "count", "lower"),
    ("beam.detector.self_s", "s", "lower"),
    ("beam.oracle.calls", "count", "lower"),
    ("beam.oracle.self_s", "s", "lower"),
    ("beam.second_order.self_s", "s", "lower"),
    ("beam.samples", "count", "higher"),
    ("beam.field_at.per_sample", "ratio", "lower"),
    ("spectra.sample_detector.self_s", "s", "lower"),
    ("spectra.power_spectrum.self_s", "s", "lower"),
    ("spectra.attribute_peaks.self_s", "s", "lower"),
    ("spectra.write.self_s", "s", "lower"),
    ("spectra.write.bytes", "B", "lower"),
    ("spectra.write.mb_per_s", "MB/s", "higher"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.add.calls", "count", "lower"),
    ("series.eval.calls", "count", "lower"),
    ("fock.output_state.calls", "count", "lower"),
    ("fock.output_state.self_s", "s", "lower"),
    ("fock.apply_mirror_kick.calls", "count", "lower"),
    ("fock.apply_mirror_kick.self_s", "s", "lower"),
    ("fock.readout.self_s", "s", "lower"),
    ("fock.compare_transcription.self_s", "s", "lower"),
    ("series.mul.per_kick", "ratio", "lower"),
    ("scenario.construct.calls", "count", "lower"),
    ("scenario.construct.self_s", "s", "lower"),
    ("scenario.check_frequency_plan.calls", "count", "lower"),
    ("scenario.check_frequency_plan.self_s", "s", "lower"),
    ("scenario.plan_checks.per_spectrum", "ratio", "lower"),
    ("cli.main.self_s", "s", "lower"),
    *((f"validate.{check}.s", "s", "lower") for check in VALIDATE_CHECKS),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.expected_uncalled", "count", "lower"),
)


def _count_samples(counters, args, kwargs, result):
    counters["beam.samples"] += len(result.samples)


def _count_bytes(counters, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counters["spectra.write.bytes"] += os.path.getsize(path)


HOOKS = {"spectra.sample_detector": _count_samples, **{w: _count_bytes for w in WRITERS}}


def traced_functions() -> dict:
    """id -> (function, traced name) for every function the tracer wraps."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"nestedmzi.{layer}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                found[id(obj)] = (obj, f"{layer}.{name}")
        for cls_name, attrs in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for attr in attrs:
                obj = vars(cls)[attr]
                found[id(obj)] = (obj, f"{layer}.{cls_name}.{attr}")
    return found


def _traced(found: dict, value):
    entry = found.get(id(value))
    return entry is not None and entry[0] is value


def bindings(found: dict) -> list:
    """(owner, attribute, value) for every place a traced function is bound."""
    out = []
    modules = [m for n, m in sorted(sys.modules.items()) if n == "nestedmzi" or n.startswith("nestedmzi.")]
    for mod in modules:
        for attr, value in vars(mod).items():
            if _traced(found, value) or (
                isinstance(value, tuple) and any(_traced(found, v) for v in value)
            ):
                out.append((mod, attr, value))
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                out.extend(
                    (value, cattr, cvalue)
                    for cattr, cvalue in vars(value).items()
                    if _traced(found, cvalue)
                )
    return out


class Tracer:
    """Spans of the traced functions, recorded while ``installed``."""

    def __init__(self):
        found = traced_functions()
        self.names = sorted(name for _, name in found.values())
        fid = {name: i for i, name in enumerate(self.names)}
        self.spans = []
        self.counters = Counter()
        self.op = 0
        self._stack = [-1]
        wrappers = {key: self._wrap(fn, fid[name], HOOKS.get(name)) for key, (fn, name) in found.items()}
        self._swaps = []
        for owner, attr, value in bindings(found):
            if isinstance(value, tuple):
                new = tuple(wrappers[id(v)] if _traced(found, v) else v for v in value)
            else:
                new = wrappers[id(value)]
            self._swaps.append((owner, attr, value, new))

    def _wrap(self, fn, fid: int, hook):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (fid, start, clock(), parent, self.op)
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, op: int) -> None:
        self.op = op
        for owner, attr, _, new in self._swaps:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old, _ in self._swaps:
            setattr(owner, attr, old)

    def stats(self) -> dict:
        """Traced name -> (calls, self seconds, total seconds)."""
        k = len(self.names)
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        fid = arr[:, 0].astype(np.int64)
        parent = arr[:, 3].astype(np.int64)
        dur = arr[:, 2] - arr[:, 1]
        child = parent >= 0
        own = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        calls = np.bincount(fid, minlength=k)
        self_s = np.bincount(fid, weights=own, minlength=k)
        total = np.bincount(fid, weights=dur, minlength=k)
        return {
            name: (int(calls[i]), float(self_s[i]), float(total[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=arr[:, 0].astype(np.int32),
            start=arr[:, 1],
            end=arr[:, 2],
            parent=arr[:, 3].astype(np.int64),
            op=arr[:, 4].astype(np.int64),
        )


def per_layer_metrics(stats: dict, counters: Counter, traced_wall: float,
                      untraced_wall: float, expected: tuple) -> dict:
    """Metric name -> value, for every name in PER_LAYER."""

    def total(names, field):
        return sum(stats[n][field] for n in names if n in stats)

    def ratio(a, b):
        return a / b if b else 0.0

    calls = {g: total(names, 0) for g, names in GROUPS.items()}
    own = {g: total(names, 1) for g, names in GROUPS.items()}
    out = {}
    for layer in LAYERS:
        names = [n for n in stats if n.startswith(layer + ".")]
        out[f"{layer}.calls"] = total(names, 0)
        out[f"{layer}.self_s"] = total(names, 1)
        out[f"{layer}.self_frac"] = ratio(out[f"{layer}.self_s"], traced_wall)
    for g in GROUPS:
        out[f"{g}.calls"] = calls[g]
        out[f"{g}.self_s"] = own[g]
    samples = counters["beam.samples"]
    out["beam.samples"] = samples
    out["beam.field_at.per_sample"] = ratio(calls["beam.field_at"], samples)
    out["spectra.write.bytes"] = counters["spectra.write.bytes"]
    out["spectra.write.mb_per_s"] = ratio(counters["spectra.write.bytes"] / 1e6, own["spectra.write"])
    out["series.mul.per_kick"] = ratio(calls["series.mul"], calls["fock.apply_mirror_kick"])
    out["scenario.plan_checks.per_spectrum"] = ratio(
        calls["scenario.check_frequency_plan"], calls["spectra.power_spectrum"]
    )
    for check in VALIDATE_CHECKS:
        out[f"validate.{check}.s"] = total([f"validate.{check}"], 2)
    out["trace.overhead_frac"] = ratio(traced_wall, untraced_wall) - 1.0
    out["trace.expected_uncalled"] = len(uncalled(stats, expected))
    return {name: out[name] for name, _, _ in PER_LAYER}


def uncalled(stats: dict, expected: tuple) -> list:
    """Expected traced names that recorded no call (missing names count too)."""
    return [n for n in expected if stats.get(n, (0,))[0] == 0]
