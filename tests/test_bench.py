"""Schema of the BENCH_N.json record that scripts/bench.py writes, and the
two-tree comparison of scripts/abtest.py."""
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_bench():
    return load_script("bench")


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
    timed = ("validate_check", "validate_cold", "oracle_batched_per_field",
             "samples_per_call", "fock_per_call", "write_artifacts", "write_artifacts_cold",
             "cli_main")
    assert set(layers) == {"best_of", "oracle_fields"} | {
        f"{name}{suffix}" for name in timed for suffix in ("_s", "_median_s")
    }
    assert layers["best_of"] == 1 and layers["oracle_fields"] == 1000
    names = [c.__name__ for c in bench.validate.ALL_CHECKS]
    assert list(layers["validate_check_s"]) == list(layers["validate_cold_s"]) == names
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
            "fock.compare_transcription", "series.EpsSeries.__mul__",
            "series.inv_sqrt_one_plus_sq", "fock.apply_mirror_kick",
        }
    times = [
        layers["write_artifacts_s"],
        layers["write_artifacts_cold_s"],
        layers["cli_main_s"],
        *layers["validate_check_s"].values(),
        *layers["validate_cold_s"].values(),
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


def run_abtest(*args):
    """Exit code and last-line JSON of scripts/abtest.py run with args."""
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "abtest.py"), *map(str, args)],
        capture_output=True, text=True,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_abtest_loads_each_tree_on_its_own_modules_and_restores_the_callers():
    abtest = load_script("abtest")
    before = {name: module for name, module in sys.modules.items() if name.startswith("nestedmzi")}
    a, b = abtest.load(REPO), abtest.load(REPO)
    assert a is not b and a.fock is not b.fock and a.fock.EpsSeries is not b.fock.EpsSeries
    assert a.fock.norm_series.__globals__["EpsSeries"] is a.fock.EpsSeries
    assert {name: module for name, module in sys.modules.items() if name.startswith("nestedmzi")} == before
    with pytest.raises(abtest.TreeError):
        abtest.load(REPO / "tests")


def test_abtest_cancels_the_speed_up_of_the_second_op_of_a_pair():
    # 3% faster in second place, whichever tree runs there: the ratio is 1
    abtest = load_script("abtest")
    rng = np.random.default_rng(0)
    base = rng.lognormal(-9.0, 0.3, 400)
    a_first = np.arange(400) % 2 == 0
    a = base * np.where(a_first, 1.0, 0.97)
    b = base * np.where(a_first, 0.97, 1.0)
    result = abtest.bootstrap(a, b, a_first, seed=0)
    assert result["median_ratio"] == pytest.approx(1.0, abs=1e-12)
    lo, hi = result["median_ratio_ci"]
    assert lo <= 1.0 <= hi and hi - lo < 1e-9
    lo, hi = result["mean_ratio_ci"]
    assert lo <= result["mean_ratio"] <= hi


def test_abtest_a_against_a_gives_an_interval_containing_one():
    # A 95% interval misses by design in 1 run of 20, and two loads of one
    # tree can differ by about 1% in where their arrays land; so up to
    # four runs.
    intervals = []
    for seed in range(4):
        code, result, stderr = run_abtest(REPO, REPO, "--workload", "fock", "--ops", 200, "--seed", seed)
        assert code == 0, stderr
        assert result["a"]["failed"] == result["b"]["failed"] == 0
        lo, hi = result["median_ratio_ci"]
        intervals.append((lo, hi))
        if lo <= 1.0 <= hi:
            return
    pytest.fail(f"A/A intervals {intervals} all miss 1")


def test_abtest_detects_a_sleep_in_output_state_and_a_wrong_output(tmp_path):
    slow, wrong = tmp_path / "slow", tmp_path / "wrong"
    for tree in (slow, wrong):
        for part in ("src", "perfbench"):
            shutil.copytree(REPO / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    fock = slow / "src" / "nestedmzi" / "fock.py"
    text = fock.read_text()
    head = "def output_state(phi: float, kappa: float, order: int = 4) -> ModeState:\n"
    assert text.count(head) == 1
    fock.write_text(text.replace(head, head + "    __import__('time').sleep(0.0005)\n"))
    code, result, stderr = run_abtest(REPO, slow, "--workload", "fock", "--ops", 40)
    assert code == 0, stderr
    assert result["median_ratio_ci"][0] > 2.0 and result["mean_ratio_ci"][0] > 2.0

    fock = wrong / "src" / "nestedmzi" / "fock.py"
    text = fock.read_text()
    assert text.count("weight / 3.0") == 2
    fock.write_text(text.replace("weight / 3.0", "weight / 3.1"))
    code, result, stderr = run_abtest(REPO, wrong, "--workload", "fock", "--ops", 40, "--seed", 0)
    assert code == 1 and result["a"]["failed"] == 0 and result["b"]["failed"] > 0
    assert "reference" in stderr
