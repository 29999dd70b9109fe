"""Benchmark of nestedmzi: seeded closed-loop workloads, checked op by op.

Run from the repository root:

    python3 perfbench/run.py --workload figure --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up time (median over fresh
interpreters that import nestedmzi and run one op), throughput, median and
tail op latency, and peak RSS. ``--trace 1`` runs a fixed number of ops,
each untraced and traced, and prints the per-layer metrics of tracing.py.
Every op is gated outside its timed region; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 1 when any op failed, 2 when the program
cannot be found. A run record with the machine, versions and op counts goes
to ``.bench_out/runs/``.
"""
from __future__ import annotations

import os

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # One BLAS thread in this process and in the set-up probes; set before
    # numpy is imported.
    os.environ.update({var: "1" for var in THREAD_ENV})

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("figure", "scan", "fock", "validate")

# End-to-end metrics: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Tail percentile per workload, fixed so that it means the same in every
# run. fock's p99 sits on its sparse order-12 transcription ops and swung by
# 20% between runs, so fock reports p90. A timed loop runs at least enough
# ops that ten of them lie beyond the percentile.
TAIL_PCT = {"figure": 95, "scan": 95, "fock": 90, "validate": 75}
# Ops per pass of a traced run; fixed so that every count repeats exactly.
# Whole cycles of each workload's input blocks: 4 x 12 figure combinations,
# 3 x 8 scan bands, 4 x 144 fock ops (orders in 9s, transcriptions every 16th).
TRACE_OPS = {"figure": 48, "scan": 24, "fock": 576, "validate": 4}
SETUP_RUNS = 5
PROBE_TIMEOUT_S = 120


def min_ops(pct: float) -> int:
    return math.ceil(round(10.0 / (1.0 - pct / 100.0), 6))


def run_op(w, i: int, reference: dict, tracer=None):
    """Run and gate op i. Returns (seconds, error message or None)."""
    op = w.inputs(i)
    if tracer is not None:
        tracer.install(i)
    start = time.perf_counter()
    try:
        out = w.run(op)
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = exc
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if error is None:
        try:
            w.check(i, op, out, reference)
        except Exception as exc:  # a gate miss or a crash in the gate
            error = exc
    return seconds, None if error is None else f"op {i}: {type(error).__name__}: {error}"


class Ops:
    """Durations and failures of the ops of one run."""

    def __init__(self):
        self.failures = []
        self.attempted = 0

    def add(self, seconds: float, failure) -> float:
        self.attempted += 1
        if failure is not None:
            self.failures.append(failure)
        return seconds


def measure_setup(name: str, workdir: Path) -> list:
    """Seconds from starting a fresh interpreter to the end of its first op.

    The probe prints ``time.perf_counter()`` when its op is done; on Linux
    that clock is CLOCK_MONOTONIC, shared by every process.
    """
    times = []
    for k in range(SETUP_RUNS):
        cmd = [sys.executable, str(HERE / "probe.py"), name, str(workdir / f"probe{k}")]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        words = out.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {out!r}")
        times.append(float(words[1]) - start)
    return times


def end_to_end(w, seconds: float, reference: dict, workdir: Path):
    setup = measure_setup(w.name, workdir)
    ops = Ops()
    ops.add(*run_op(w, 0, reference))  # warm-up, untimed
    need = min_ops(TAIL_PCT[w.name])
    timed = []
    i = 1
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(timed) < need:
        timed.append(ops.add(*run_op(w, i, reference)))
        i += 1
    ms = np.array(timed) * 1e3
    pct = TAIL_PCT[w.name]
    t = float(np.percentile(ms, pct))
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(timed) / float(np.sum(timed)),
        "op_ms.p50": float(np.median(ms)),
        "op_ms.tail": t,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "setup_runs_s": setup,
        "tail": {"percentile": pct, "beyond": int(np.sum(ms > t)), "samples": len(ms)},
        "op_ms": ms.round(6).tolist(),
    }
    return metrics, ops, details


def per_layer(w, reference: dict):
    n = TRACE_OPS[w.name]
    ops = Ops()
    ops.add(*run_op(w, 0, reference))  # warm-up
    tracer = tracing.Tracer()
    wall = {None: 0.0, tracer: 0.0}
    # Each op runs untraced and traced back to back, alternating which goes
    # first, so that drift in the machine's speed cancels from the overhead.
    for i in range(1, n + 1):
        for t in ((None, tracer) if i % 2 else (tracer, None)):
            wall[t] += ops.add(*run_op(w, i, reference, t))
    untraced, traced = wall[None], wall[tracer]
    stats = tracer.stats()
    metrics = tracing.per_layer_metrics(stats, tracer.counters, traced, untraced, w.expected_calls)
    spans = OUT / f"spans-{w.name}.npz"
    tracer.save(spans)
    details = {
        "trace_ops": n,
        "traced_wall_s": traced,
        "untraced_wall_s": untraced,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans, ROOT),
        "expected_uncalled": tracing.uncalled(stats, w.expected_calls),
        "calls": {name: s[0] for name, s in stats.items()},
    }
    return metrics, ops, details


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, ops: Ops, details: dict, metrics: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "failures": ops.failures[:20],
        "details": details,
        "metrics": metrics,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nestedmzi" / "__init__.py").is_file():
        print(f"error: no nestedmzi package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nestedmzi
    import workloads

    if SRC.resolve() not in Path(nestedmzi.__file__).resolve().parents:
        print(f"error: imported nestedmzi from {nestedmzi.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        w = workloads.make(args.workload, args.seed, workdir)
        reference = workloads.load_reference()
        if args.trace:
            values, ops, details = per_layer(w, reference)
            spec = tracing.PER_LAYER
        else:
            values, ops, details = end_to_end(w, args.seconds, reference, workdir)
            spec = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    record = run_record(args, ops, details, metrics)
    runs = OUT / "runs"
    runs.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    if "tail" in details:
        t = details["tail"]
        print(f"  op_ms.tail is p{t['percentile']}: {t['beyond']} of {t['samples']} timed ops beyond it")
    if details.get("expected_uncalled"):
        print(f"warning: traced names with no call: {details['expected_uncalled']}", file=sys.stderr)
    for failure in ops.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"  {len(ops.failures)} of {ops.attempted} ops failed; record in {os.path.relpath(path, ROOT)}")
    correct = not ops.failures
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
