"""Self-tests of the benchmark: generators, gates, tracing and metric names."""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from nestedmzi import beam, spectra, validate  # noqa: E402
from nestedmzi.scenario import check_frequency_plan  # noqa: E402
from nestedmzi.series import EpsSeries  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return wl.load_reference()


def _describe(w, i):
    op = w.inputs(i)
    if isinstance(w, wl.Scan):
        sc, det, model, spots = op
        return (sc.to_json(), det, model, tuple(spots))
    return op


@pytest.mark.parametrize("name", ["figure", "scan", "fock"])
def test_inputs_repeat_per_seed_and_differ_across_seeds(name, tmp_path):
    a, b, c = (wl.make(name, seed, tmp_path) for seed in (3, 3, 4))
    ops = range(24)
    assert [_describe(a, i) for i in ops] == [_describe(b, i) for i in ops]
    assert [_describe(a, i) for i in ops] != [_describe(c, i) for i in ops]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scan_scenarios_are_valid_collision_free_with_integer_sample_counts(seed, tmp_path):
    w = wl.Scan(seed, tmp_path)
    sizes = []
    for i in range(16):
        sc, det, model, spots = w.inputs(i)
        n = sc.sample_rate * sc.duration
        assert n == int(n) and 1024 <= n <= 8192
        assert check_frequency_plan(sc).ok
        assert len(set(sc.mirror_freq.values())) == 5
        assert all(f == int(f) for f in sc.mirror_freq.values())
        assert sum(a == 0 for a in sc.vib_amplitude.values()) <= 2
        assert all(0 <= k < n for k in spots)
        sizes.append(int(n))
    assert sorted(n // 1024 for n in sizes[:8]) == list(range(1, 9))
    assert all(n % wl.SCAN_STEP == 0 for n in sizes)


def test_gate_rejects_a_planted_wrong_sample(tmp_path, reference):
    # Default seed, op 0: the stored reference catches it.
    w = wl.Scan(wl.DEFAULT_SEED, tmp_path)
    op = w.inputs(0)
    ts, spec, report = w.run(op)
    w.check(0, op, (ts, spec, report), reference)
    ts.samples[17] += 1e-12
    spec = spectra.power_spectrum(ts)
    with pytest.raises(wl.GateError, match="reference"):
        w.check(0, op, (ts, spec, report), reference)

    # Any seed, exact model: the quadrature spot check catches it.
    w = wl.Scan(7, tmp_path)
    i = next(i for i in range(8) if w.inputs(i)[2] == "exact")
    op = w.inputs(i)
    ts, spec, report = w.run(op)
    w.check(i, op, (ts, spec, report), reference)
    ts.samples[op[3][0]] *= 1.0 + 1e-6
    spec = spectra.power_spectrum(ts)
    with pytest.raises(wl.GateError, match="quadrature"):
        w.check(i, op, (ts, spec, report), reference)


def test_gate_rejects_a_wrong_witness_and_a_wrong_figure(tmp_path, reference):
    w = wl.Fock(5, tmp_path)
    op = w.inputs(1)
    out = w.run(op)
    w.check(1, op, out, reference)
    out[4]["E"] += 1e-9
    with pytest.raises(wl.GateError, match="witness"):
        w.check(1, op, out, reference)

    w = wl.Figure(5, tmp_path)
    combo = w.inputs(0)
    assert w.run(combo) == 0
    w.check(0, combo, 0, reference)
    assert not list(w.out.iterdir())
    assert w.run(combo) == 0
    path = w.out / "timeseries.csv"
    lines = path.read_text().splitlines()
    t, v = lines[5].split(",")
    lines[5] = f"{t},{float(v) + 1e-12!r}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(wl.GateError, match="reference"):
        w.check(0, combo, 0, reference)


def test_tracer_wraps_every_binding_and_restores_them():
    found = tracing.traced_functions()
    tracer = tracing.Tracer()
    originals = (spectra.check_frequency_plan, EpsSeries.__mul__, validate.ALL_CHECKS, beam.field_at)
    tracer.install(0)
    try:
        assert spectra.check_frequency_plan.__wrapped__ is originals[0]
        assert EpsSeries.__rmul__ is EpsSeries.__mul__
        assert EpsSeries.__mul__.__wrapped__ is originals[1]
        assert all(c.__wrapped__ is o for c, o in zip(validate.ALL_CHECKS, originals[2]))
        assert tracing.bindings(found) == []
        EpsSeries.const(1.0, 3) * 2.0
    finally:
        tracer.uninstall()
    assert (spectra.check_frequency_plan, EpsSeries.__mul__, validate.ALL_CHECKS, beam.field_at) == originals
    assert tracer.stats()["series.EpsSeries.__mul__"][0] == 1


def _traced_counts(name, ops, tmp_path, reference):
    w = wl.make(name, 11, tmp_path)
    tracer = tracing.Tracer()
    for i in range(ops):
        assert run.run_op(w, i, reference, tracer)[1] is None
    metrics = tracing.per_layer_metrics(tracer.stats(), tracer.counters, 1.0, 1.0, w.expected_calls)
    return {k: v for k, v in metrics.items() if ".calls" in k or k in (
        "beam.samples", "spectra.write.bytes", "beam.field_at.per_sample",
        "scenario.plan_checks.per_spectrum", "series.mul.per_kick", "trace.expected_uncalled")}


@pytest.mark.parametrize("name,ops,busy", [("fock", 17, "series.mul.calls"), ("figure", 2, "spectra.write.bytes")])
def test_traced_counts_repeat_exactly(name, ops, busy, tmp_path, reference):
    first = _traced_counts(name, ops, tmp_path, reference)
    assert first == _traced_counts(name, ops, tmp_path, reference)
    assert first[busy] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace, monkeypatch, tmp_path, capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setitem(run.TAIL_PCT, "fock", 50)
    monkeypatch.setitem(run.TRACE_OPS, "fock", 4)
    code = run.main(["--workload", "fock", "--seed", "2", "--seconds", "0.01", "--trace", trace])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [(m["name"], m["unit"]) for m in declared]
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())

