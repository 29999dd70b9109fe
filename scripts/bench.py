#!/usr/bin/env python3
"""Write BENCH_N.json: the benchmark's end-to-end metrics and per-layer
timings of validate, with the machine they were measured on.

Run from a checkout, with the number N of the change being measured, to
write BENCH_N.json at its root:

    python scripts/bench.py N

For each workload in BENCHMARK.json it runs ``perfbench/run.py --trace 0
--seed 1`` for the file's ``run_seconds`` in a fresh interpreter and copies
``attempted``, ``failed`` and the end-to-end metrics from the run's last
line. In this process it then times, best of 5, each check of
``validate.run_all`` and each quadrature oracle per call over the 1000
fields of ``validate.check_detector_oracles``. It imports nestedmzi from
``src/`` of the same checkout, with one BLAS thread, as perfbench does.
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
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from nestedmzi import beam, validate  # noqa: E402
from run import THREAD_ENV, cpu_model, git_commit  # noqa: E402  (perfbench/run.py)

SEED = 1
BEST_OF = 5
ORACLE_SEED = 20240824  # the fields of validate.check_detector_oracles
ORACLE_FIELDS = 1000


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


def layer_timings() -> dict:
    """Best-of-5 seconds of each validate check and of each oracle per call."""
    checks = {}
    for _ in range(BEST_OF):
        for check, result in zip(validate.ALL_CHECKS, validate.run_all()):
            name = check.__name__
            checks[name] = min(checks.get(name, np.inf), result.seconds)
    fields = list(validate._random_fields(np.random.default_rng(ORACLE_SEED), ORACLE_FIELDS))
    oracles = {}
    for oracle in (beam.total_intensity_quadrature, beam.quadcell_signal_quadrature):
        best = np.inf
        for _ in range(BEST_OF):
            start = time.perf_counter()
            for field in fields:
                oracle(field)
            best = min(best, time.perf_counter() - start)
        oracles[oracle.__name__] = best / len(fields)
    return {
        "best_of": BEST_OF,
        "validate_check_s": checks,
        "oracle_fields": len(fields),
        "oracle_per_call_s": oracles,
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
