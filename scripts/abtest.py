#!/usr/bin/env python3
"""Compare two trees of nestedmzi op by op, interleaved in one process.

    python scripts/abtest.py A [B] --workload W --ops N [--seed S]

A and B are git revisions of this repository, whose ``src/`` and
``perfbench/`` are exported with ``git archive`` into a temporary directory,
or directories that hold both; B defaults to the working tree of this
checkout. Each tree's ``perfbench/workloads.py`` is imported against that
tree's ``src/nestedmzi``, and the modules of one load are taken out of
``sys.modules`` before the next, so each tree runs its own code: every import
inside the package is relative. Both trees run op 0 untimed, then op i of
both back to back for i = 1..N, each tree first in half of the ops, in a
random order drawn from the seed. Each op goes through ``run_op`` of this
checkout's ``perfbench/run.py``: only a workload's ``run`` is timed, and each
tree's own ``check`` gates its op after it. The output gives each tree's
mean and median op time, the median per-op ratio B/A and the ratio of the
mean op times B/A, each with a bootstrap 95% interval, then one JSON line. The exit code is 1 when any op
fails its gate, 2 when a tree cannot be loaded.

It times op bodies only, so it says nothing of set-up time, peak RSS or the
tail, and both trees share one heap; perfbench/run.py measures those.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread, as perfbench/run.py sets; before numpy is imported.
    os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import argparse  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS, run_op  # noqa: E402  (perfbench/run.py: the harness's own runner)

LOADED = ("nestedmzi", "workloads")  # top-level modules each tree imports afresh
RESAMPLES = 2000
RESAMPLED_VALUES = 2**20  # op indices drawn per bootstrap chunk, to bound its memory


class TreeError(Exception):
    """A tree that cannot be exported or loaded."""


def export(rev: str, dest: Path) -> Path:
    """``src/`` and ``perfbench/`` of git revision rev, extracted under dest."""
    proc = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src", "perfbench"], cwd=ROOT, capture_output=True
    )
    if proc.returncode != 0:
        raise TreeError(f"git archive {rev}: {proc.stderr.decode().strip()}")
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def _loaded(name: str) -> bool:
    return name.partition(".")[0] in LOADED


def load(tree: Path):
    """The ``workloads`` module of tree, bound to tree's own ``nestedmzi``.

    The modules already in ``sys.modules`` under those names are put back
    afterwards, so loading changes nothing for the caller."""
    if not (tree / "perfbench" / "workloads.py").is_file() or not (tree / "src" / "nestedmzi").is_dir():
        raise TreeError(f"{tree} holds no perfbench/workloads.py and src/nestedmzi")
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if _loaded(name)}
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    try:
        workloads = importlib.import_module("workloads")
        package = sys.modules["nestedmzi"]
    finally:
        del sys.path[:2]
        for name in [name for name in sys.modules if _loaded(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
    if (tree / "src").resolve() not in Path(package.__file__).resolve().parents:
        raise TreeError(f"{tree}: imported nestedmzi from {package.__file__}")
    return workloads


def interleave(sides, ops: int, seed: int):
    """(times, a_first, failures) of two sides, each a (workload, reference)
    pair: times[k, i - 1] is the seconds of op i of side k, after op 0 of
    both untimed, and a_first[i - 1] says whether side 0 ran op i first.
    Each side runs first in half the ops (one more if ops is odd), in a
    seeded random order."""
    a_first = np.random.default_rng([seed, 0xAB]).permutation(np.arange(ops) % 2 == 0)
    times = np.zeros((2, ops + 1))
    failures = ([], [])

    def step(k: int, i: int) -> None:
        w, reference = sides[k]
        times[k, i], failure = run_op(w, i, reference)
        if failure is not None:
            failures[k].append(failure)

    step(0, 0)
    step(1, 0)
    for i, first in enumerate(a_first.tolist(), start=1):
        for k in (0, 1) if first else (1, 0):
            step(k, i)
    return times[:, 1:], a_first, failures


def bootstrap(a: np.ndarray, b: np.ndarray, a_first: np.ndarray, seed: int,
              resamples: int = RESAMPLES) -> dict:
    """Ratios of b's op times to a's, paired op by op, with the 2.5 and 97.5
    percentiles over resamples drawn within each running order.

    The second op of a pair runs faster (about 3% for fock, on the same
    inputs and warm caches), so the per-op ratios form two clusters, one
    per order. ``median_ratio`` is the geometric mean of the two orders'
    median ratios, which that speed-up cancels from; ``mean_ratio`` is the
    ratio of the mean op times."""
    rng = np.random.default_rng([seed, 0xB007])
    ratios = b / a
    orders = (np.flatnonzero(a_first), np.flatnonzero(~a_first))

    def median_ratio(picks):
        return np.sqrt(np.prod([np.median(ratios[p], axis=-1) for p in picks], axis=0))

    def mean_ratio(picks):
        return sum(b[p].sum(axis=-1) for p in picks) / sum(a[p].sum(axis=-1) for p in picks)

    medians, means = np.empty(resamples), np.empty(resamples)
    step = max(1, RESAMPLED_VALUES // len(a))
    for start in range(0, resamples, step):
        m = min(step, resamples - start)
        picks = [o[rng.integers(0, len(o), (m, len(o)))] for o in orders]
        medians[start : start + m] = median_ratio(picks)
        means[start : start + m] = mean_ratio(picks)
    return {
        "median_ratio": float(median_ratio(orders)),
        "median_ratio_ci": np.percentile(medians, [2.5, 97.5]).tolist(),
        "mean_ratio": float(mean_ratio(orders)),
        "mean_ratio_ci": np.percentile(means, [2.5, 97.5]).tolist(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", metavar="A", help="git revision or directory of the first tree")
    p.add_argument("b", metavar="B", nargs="?", default=str(ROOT),
                   help="git revision or directory of the second tree (default: the working tree)")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--ops", type=int, required=True, help="timed ops per tree")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.ops < 2 or args.seed < 0:
        p.error("--ops must be >= 2 and --seed >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="abtest-") as scratch:
        sides, names = [], []
        try:
            for label, tree in (("A", args.a), ("B", args.b)):
                path = Path(tree).resolve() if Path(tree).is_dir() else export(tree, Path(scratch) / label)
                workloads = load(path)
                w = workloads.make(args.workload, args.seed, Path(scratch) / f"work-{label}")
                sides.append((w, workloads.load_reference()))
                names.append(f"{label} = {tree} ({path})")
        except TreeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        (a, b), a_first, failures = interleave(sides, args.ops, args.seed)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": args.ops,
        **{
            label: {"tree": tree, "mean_ms": float(t.mean()) * 1e3,
                    "median_ms": float(np.median(t)) * 1e3, "failed": len(failed)}
            for label, tree, t, failed in zip("ab", (args.a, args.b), (a, b), failures)
        },
        **bootstrap(a, b, a_first, args.seed),
    }
    print(f"workload {args.workload}, seed {args.seed}, {args.ops} timed ops per tree, interleaved")
    for label, name in zip("ab", names):
        side = result[label]
        print(f"  {name}: mean {side['mean_ms']:.4f} ms, median {side['median_ms']:.4f} ms")
    for key, what in (("median_ratio", "median per-op ratio"), ("mean_ratio", "ratio of mean op times")):
        lo, hi = result[f"{key}_ci"]
        print(f"  B/A {what} {result[key]:.4f} [{lo:.4f}-{hi:.4f}] (bootstrap 95%, {RESAMPLES} resamples)")
    for label, failed in zip("AB", failures):
        for failure in failed[:5]:
            print(f"FAILED {label} {failure}", file=sys.stderr)
    print(f"  {len(failures[0])} of {args.ops + 1} A ops and {len(failures[1])} of {args.ops + 1} B ops failed")
    print(json.dumps(result))
    return 1 if failures[0] or failures[1] else 0


if __name__ == "__main__":
    sys.exit(main())
