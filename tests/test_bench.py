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
    layers = {"best_of": 5, "validate_check_s": {}, "oracle_fields": 1000, "oracle_per_call_s": {}}
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
