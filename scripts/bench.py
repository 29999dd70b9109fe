#!/usr/bin/env python3
"""Write BENCH_N.json: the benchmark's end-to-end metrics and per-layer
timings, with the machine they were measured on.

Run from a checkout, with the number N of the change being measured, to
write BENCH_N.json at its root:

    python scripts/bench.py N

For each workload in BENCHMARK.json it runs ``perfbench/run.py --trace 0
--seed 1`` for the file's ``run_seconds`` in a fresh interpreter and copies
``attempted``, ``failed`` and the end-to-end metrics from the run's last
line. In this process it then times, in 5 repeats: each check of
``validate.run_all``; both batched quadrature oracles, per field over the
1000 fields of the oracle check (``validate.oracle_fields``); the beam
engine on 64, 1024 and 8192 samples of case a, and ``power_spectrum`` and
``attribute_peaks`` on the last two;
``fock.output_state``, ``norm_series``, ``bcjlss_output_state``, the
projector probabilities of all five mirrors (``mode_projection_probability_x5``,
on a new state of the same arrays each time) and ``compare_transcription``
at orders 4, 12 and 40 (``norm_series`` takes three 16-power blocks there);
``spectra.write_artifacts`` of case a, warm and with the CSV row
template cache cleared before each call (``write_artifacts_cold``, the
write of a one-shot ``nestedmzi spectrum`` process); and
``cli.main(["plan-check", "--case", "a"])`` with standard output
discarded, the fixed cost of one in-process CLI call. Each layer
``<name>_s`` is the best of the repeats, and ``<name>_median_s`` next to
it their median. It imports nestedmzi
from ``src/`` of the same checkout, with one BLAS thread, as perfbench does.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread, as perfbench/run.py sets; before numpy is imported.
    os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from nestedmzi import beam, cli, fock, spectra, validate  # noqa: E402
from nestedmzi.scenario import MIRRORS, standard_case  # noqa: E402
from run import THREAD_ENV, cpu_model, git_commit  # noqa: E402  (perfbench/run.py)

SEED = 1
BEST_OF = 5
SPECTRUM_SAMPLE_COUNTS = (1024, 8192)  # samples of case a in one second
SAMPLE_COUNTS = (64, *SPECTRUM_SAMPLE_COUNTS)  # 64: the beam layers alone
FOCK_ORDERS = (4, 12, 40)
EPSILON = 0.01  # kick amplitude of the timed projector readout
CALLS = 20  # calls per timed repeat of the layers below validate


def run_workload(name: str, seconds: float) -> str:
    """Last line of standard output of one end-to-end perfbench run."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    # exit 1 means some op missed its gate; the line still counts them
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return lines[-1]


def workload_entry(line: str, metric_names) -> dict:
    """attempted, failed and the named metrics' values from a run's last line."""
    run = json.loads(line)
    missing = [name for name in metric_names if name not in run["metrics"]]
    if missing:
        raise ValueError(f"run line lacks metrics {missing}")
    return {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: run["metrics"][name]["value"] for name in metric_names},
    }


def repeat_times(fn, calls=1) -> list:
    """Mean seconds per call of fn() in each of BEST_OF repeats."""
    times = []
    for _ in range(BEST_OF):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return times


def best_and_median(name: str, times) -> dict:
    """``name_s``, the best, and ``name_median_s``, the median, of times: a
    list of repeat times, or a dict whose values are such lists or dicts."""
    def reduce(f, t):
        return {k: reduce(f, v) for k, v in t.items()} if isinstance(t, dict) else float(f(t))

    return {f"{name}_s": reduce(min, times), f"{name}_median_s": reduce(np.median, times)}


def oracle_timings() -> dict:
    """Seconds per field of each batched quadrature oracle, the forms
    ``validate`` calls."""
    coeffs, shifts = validate.oracle_fields()
    fields = coeffs.shape[1]
    batched = {
        oracle.__name__: [t / fields for t in repeat_times(lambda: oracle(coeffs, shifts))]
        for oracle in (beam.quadrature_intensity, beam.quadrature_quadcell)
    }
    return {"oracle_fields": fields, **best_and_median("oracle_batched_per_field", batched)}


def sample_layer_timings(samples: int) -> dict:
    """Repeat times per call of each layer of one case-a run of ``samples``
    in one second. Case a's frequency plan refuses fewer than 473 samples
    per second, so at 64 only the beam layers are timed, on 64 times as the
    validate checks take them; there the engine's fixed cost per call shows."""
    sc = standard_case("a")
    t = np.arange(samples) / float(samples)
    coeffs, shifts = beam.path_coefficients(sc), beam.path_shifts(sc, t)
    layers = {
        "beam.path_shifts": lambda: beam.path_shifts(sc, t),
        "beam.exact_intensity": lambda: beam.exact_intensity(coeffs, shifts),
        "beam.exact_quadcell": lambda: beam.exact_quadcell(coeffs, shifts),
        "beam.second_order_intensities": lambda: beam.second_order_intensities(coeffs, shifts),
        "beam.linearized_intensity": lambda: beam.linearized_intensity(coeffs, shifts),
        "beam.linearized_quadcell": lambda: beam.linearized_quadcell(coeffs, shifts),
    }
    if samples in SPECTRUM_SAMPLE_COUNTS:
        run = sc.with_overrides(sample_rate=float(samples))
        ts = spectra.sample_detector(run, "total", "exact")
        spec = spectra.power_spectrum(ts)
        layers["spectra.power_spectrum"] = lambda: spectra.power_spectrum(ts)
        layers["spectra.attribute_peaks"] = lambda: spectra.attribute_peaks(spec, run, "total")
    return {name: repeat_times(fn, CALLS) for name, fn in layers.items()}


def fock_timings(order: int) -> dict:
    """Repeat times per call of the case-a output state, its norm series,
    its projector probabilities of all five mirrors (one call each, timed
    together), the case-a BCJLSS state and the transcription comparison at
    case a's phi. A state keeps its projector
    probabilities for the last epsilon asked, so the projectors read a new
    state of the same arrays each time, as each op of perfbench's fock
    workload does."""
    sc = standard_case("a")
    state = fock.output_state(sc.phi, sc.kappa, order)

    def projectors():
        fresh = fock.ModeState._of(state.coeffs, state.mask)
        return [fock.mode_projection_probability(fresh, m, EPSILON) for m in MIRRORS]

    return {
        "fock.output_state": repeat_times(
            lambda: fock.output_state(sc.phi, sc.kappa, order), CALLS
        ),
        "fock.norm_series": repeat_times(lambda: fock.norm_series(state), CALLS),
        "fock.mode_projection_probability_x5": repeat_times(projectors, CALLS),
        "fock.bcjlss_output_state": repeat_times(
            lambda: fock.bcjlss_output_state(sc.phi, sc.kappa, order), CALLS
        ),
        "fock.compare_transcription": repeat_times(
            lambda: fock.compare_transcription(sc.phi, order), CALLS
        ),
    }


def cli_main_times() -> list:
    """Repeat times per in-process ``nestedmzi plan-check --case a``."""
    argv = ["plan-check", "--case", "a"]
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        if cli.main(argv) != 0:
            raise RuntimeError(f"nestedmzi {' '.join(argv)} failed")
        return repeat_times(lambda: cli.main(argv), CALLS)


def write_artifacts_cold(outdir, run) -> None:
    """spectra.write_artifacts with no CSV row template cached, as in the
    first write of a one-shot ``nestedmzi spectrum`` process."""
    spectra._row_template.cache_clear()
    spectra.write_artifacts(outdir, *run)


def layer_timings() -> dict:
    """Best and median of 5 repeats of each validate check (interleaved
    passes of validate.run_all) and of each layer above."""
    passes = {check.__name__: [] for check in validate.ALL_CHECKS}
    for _ in range(BEST_OF):
        for check, result in zip(validate.ALL_CHECKS, validate.run_all()):
            passes[check.__name__].append(result.seconds)
    run = spectra.run(standard_case("a"), "total", "exact")
    with tempfile.TemporaryDirectory() as outdir:
        write = repeat_times(lambda: spectra.write_artifacts(outdir, *run), CALLS)
        write_cold = repeat_times(lambda: write_artifacts_cold(outdir, run), CALLS)
    return {
        "best_of": BEST_OF,
        **best_and_median("validate_check", passes),
        **oracle_timings(),
        **best_and_median(
            "samples_per_call", {str(n): sample_layer_timings(n) for n in SAMPLE_COUNTS}
        ),
        **best_and_median("fock_per_call", {str(k): fock_timings(k) for k in FOCK_ORDERS}),
        **best_and_median("write_artifacts", write),
        **best_and_median("write_artifacts_cold", write_cold),
        **best_and_median("cli_main", cli_main_times()),
    }


def uncommitted_changes():
    """Whether tracked files differ from the commit; None outside a git checkout."""
    proc = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"],
        cwd=ROOT, capture_output=True, text=True,
    )
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def machine() -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "uncommitted_changes": uncommitted_changes(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
    }


def bench_record(change: int, benchmark: dict, lines: dict, layers: dict) -> dict:
    """The BENCH_N.json object from each workload's run line and the layers."""
    names = [m["name"] for m in benchmark["end_to_end"]]
    return {
        "change": change,
        "machine": machine(),
        "end_to_end": {
            "command": "perfbench/run.py --trace 0",
            "seed": SEED,
            "seconds": benchmark["run_seconds"],
            "workloads": {name: workload_entry(line, names) for name, line in lines.items()},
        },
        "layers": layers,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("change", type=int, help="number N of the change; names BENCH_N.json")
    args = p.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = {
        w["name"]: run_workload(w["name"], benchmark["run_seconds"])
        for w in benchmark["workloads"]
    }
    record = bench_record(args.change, benchmark, lines, layer_timings())
    path = ROOT / f"BENCH_{args.change}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
