"""Schema of the BENCH_N.json record that scripts/bench.py writes."""
import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", REPO / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_line(metrics=METRICS, attempted=41, failed=0):
    """A last line as perfbench/run.py prints it."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": 0.5 + i, "unit": "u"} for i, name in enumerate(metrics)},
    })


def test_record_schema_from_canned_run_lines():
    bench = load_bench()
    lines = {w["name"]: run_line(attempted=10 + i) for i, w in enumerate(BENCHMARK["workloads"])}
    layers = {"best_of": 5, "validate_check_s": {}, "oracle_fields": 1000,
              "oracle_batched_per_field_s": {}}
    record = json.loads(json.dumps(bench.bench_record(3, BENCHMARK, lines, layers)))
    assert set(record) == {"change", "machine", "end_to_end", "layers"}
    assert record["change"] == 3 and record["layers"] == layers
    assert set(record["machine"]) == {
        "cpu_model", "nproc", "python", "numpy", "commit", "uncommitted_changes", "thread_env"
    }
    assert set(record["machine"]["thread_env"]) == {
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"
    }
    e2e = record["end_to_end"]
    assert e2e["seed"] == 1 and e2e["seconds"] == BENCHMARK["run_seconds"]
    assert list(e2e["workloads"]) == [w["name"] for w in BENCHMARK["workloads"]]
    for i, entry in enumerate(e2e["workloads"].values()):
        assert entry == {
            "attempted": 10 + i,
            "failed": 0,
            "metrics": {name: 0.5 + k for k, name in enumerate(METRICS)},
        }


def test_a_run_line_without_a_metric_is_refused():
    bench = load_bench()
    assert bench.workload_entry(run_line(failed=2), METRICS)["failed"] == 2
    with pytest.raises(ValueError, match="ops_per_s"):
        bench.workload_entry(run_line([m for m in METRICS if m != "ops_per_s"]), METRICS)


def test_layer_timings_cover_every_layer(monkeypatch):
    bench = load_bench()
    monkeypatch.setattr(bench, "BEST_OF", 1)
    monkeypatch.setattr(bench, "CALLS", 1)
    layers = json.loads(json.dumps(bench.layer_timings()))
    timed = ("validate_check", "oracle_batched_per_field",
             "samples_per_call", "fock_per_call", "write_artifacts", "write_artifacts_cold",
             "cli_main")
    assert set(layers) == {"best_of", "oracle_fields"} | {
        f"{name}{suffix}" for name in timed for suffix in ("_s", "_median_s")
    }
    assert layers["best_of"] == 1 and layers["oracle_fields"] == 1000
    names = [c.__name__ for c in bench.validate.ALL_CHECKS]
    assert list(layers["validate_check_s"]) == names
    for name in timed:
        best, median = layers[f"{name}_s"], layers[f"{name}_median_s"]
        # one repeat: the median is that repeat, as is the best
        assert median == best, name
    assert set(layers["oracle_batched_per_field_s"]) == {
        "quadrature_intensity", "quadrature_quadcell"
    }
    assert set(layers["samples_per_call_s"]) == {"64", "1024", "8192"}
    engine = {
        "beam.path_shifts", "beam.exact_intensity", "beam.exact_quadcell",
        "beam.second_order_intensities", "beam.linearized_intensity",
        "beam.linearized_quadcell",
    }
    # case a's frequency plan cannot be sampled 64 times a second
    assert set(layers["samples_per_call_s"]["64"]) == engine
    for n in ("1024", "8192"):
        assert set(layers["samples_per_call_s"][n]) == engine | {
            "spectra.power_spectrum", "spectra.attribute_peaks",
        }
    assert set(layers["fock_per_call_s"]) == {"4", "12", "40"}
    for per_call in layers["fock_per_call_s"].values():
        assert set(per_call) == {
            "fock.output_state", "fock.norm_series",
            "fock.mode_projection_probability_x5", "fock.bcjlss_output_state",
            "fock.compare_transcription",
        }
    times = [
        layers["write_artifacts_s"],
        layers["write_artifacts_cold_s"],
        layers["cli_main_s"],
        *layers["validate_check_s"].values(),
        *layers["oracle_batched_per_field_s"].values(),
        *(t for d in layers["samples_per_call_s"].values() for t in d.values()),
        *(t for d in layers["fock_per_call_s"].values() for t in d.values()),
    ]
    assert all(t > 0 for t in times)


def test_best_and_median_keeps_the_shape_of_nested_times():
    bench = load_bench()
    times = {"x": [3.0, 1.0, 2.0], "y": {"z": [4.0, 8.0, 5.0]}}
    assert bench.best_and_median("layer", times) == {
        "layer_s": {"x": 1.0, "y": {"z": 4.0}},
        "layer_median_s": {"x": 2.0, "y": {"z": 5.0}},
    }
    assert bench.best_and_median("w", [0.5, 0.25]) == {"w_s": 0.25, "w_median_s": 0.375}
