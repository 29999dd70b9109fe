"""Command-line front end: fock, spectrum, plan-check, validate.

Exit codes: 0 success, 1 validation/physics failure, 2 usage error,
141 (128 + SIGPIPE, the shell's status for a closed pipe) when the reader of
standard output went away before the output was written.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from . import fock, spectra, validate
from .scenario import MIRRORS, Scenario, check_frequency_plan, standard_case


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_freq_overrides(items):
    out = {}
    for item in items or ():
        try:
            mirror, value = item.split("=", 1)
            mirror = mirror.strip().upper()
            if mirror not in MIRRORS:
                raise ValueError
            out[mirror] = float(value)
        except ValueError:
            _usage_error(f"bad --freq override {item!r}; expected e.g. A=31")
    return out


def _read_scenario_file(path: str) -> Scenario:
    """The scenario in a JSON file; exit 2 if the file holds no JSON object.

    Values inside the object are checked by Scenario (exit 1 on a bad one).
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        _usage_error(f"cannot read --scenario-file {path}: {exc.strerror or exc}")
    except ValueError as exc:
        _usage_error(f"--scenario-file {path} is not JSON: {exc}")
    if not isinstance(data, dict):
        _usage_error(f"--scenario-file {path} holds no JSON object")
    return Scenario.from_dict(data)


def build_scenario(args) -> Scenario:
    """Precedence: flags > scenario file > standard-case defaults."""
    sc = standard_case(args.case)
    if getattr(args, "scenario_file", None):
        sc = _read_scenario_file(args.scenario_file)
    overrides = {}
    if getattr(args, "epsilon", None) is not None:
        sc = sc.with_epsilon(args.epsilon)
    if getattr(args, "duration", None) is not None:
        overrides["duration"] = args.duration
    if getattr(args, "rate", None) is not None:
        overrides["sample_rate"] = args.rate
    if getattr(args, "order", None) is not None:
        overrides["series_order"] = args.order
    freq = _parse_freq_overrides(getattr(args, "freq", None))
    if freq:
        overrides["mirror_freq"] = {**sc.mirror_freq, **freq}
    if overrides:
        sc = sc.with_overrides(**overrides)
    return sc


def _add_scenario_flags(p):
    p.add_argument("--case", choices=["a", "b", "c"], required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--freq", action="append", metavar="M=HZ",
                   help="override one mirror frequency, e.g. --freq A=31")
    p.add_argument("--scenario-file", default=None,
                   help="JSON scenario to start from instead of case defaults")


def cmd_fock(args) -> int:
    sc = build_scenario(args)
    order = sc.series_order

    def projector_table():
        return fock.probability_table(sc.phi, sc.kappa, sc.epsilon, order)

    def bcjlss_table():
        state = fock.bcjlss_output_state(sc.phi, sc.kappa, order)
        return {m: fock.bcjlss_witness(state, m) for m in MIRRORS}

    if args.compare:
        proj = projector_table()
        wit = bcjlss_table()
        ratio = {
            m: (proj[m] / wit[m] if wit[m] else float("nan")) for m in MIRRORS
        }
        payload = {"projector": proj, "bcjlss": wit, "ratio": ratio}
    elif args.procedure == "projector":
        payload = {"projector": projector_table()}
    else:
        payload = {"bcjlss": bcjlss_table()}

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for name, table in payload.items():
            print(f"[{name}]")
            for key in (*MIRRORS, "zero"):
                if key in table:
                    print(f"  {key:>4}  {table[key]:.12e}")
    return 0


def cmd_spectrum(args) -> int:
    sc = build_scenario(args)
    outdir = Path(args.out)
    existing = [str(outdir / a) for a in spectra.ARTIFACTS if (outdir / a).exists()]
    if existing and not args.force:
        print(
            f"error: refusing to overwrite {existing}; pass --force to allow",
            file=sys.stderr,
        )
        return 1

    ts, spec, report = spectra.run(sc, args.detector, args.model)
    try:
        spectra.write_artifacts(outdir, ts, spec, report)
    except OSError as exc:
        _usage_error(f"cannot write --out {outdir}: {exc.strerror or exc}")

    bars = report.normalized_bars()
    print(f"case {args.case}, detector {args.detector}, model {args.model}")
    for m in MIRRORS:
        if m in bars:
            print(f"  {m}  {bars[m]:.6f}")
    if report.note:
        print(f"  note: {report.note}")
    print(f"wrote {len(spectra.ARTIFACTS)} files to {outdir}")
    return 0


def cmd_plan_check(args) -> int:
    sc = build_scenario(args)
    report = check_frequency_plan(sc)
    for kind in ("fundamentals", "doubles", "sums", "diffs"):
        print(f"{kind + ':':14}{list(getattr(report, kind))}")
    if report.ok:
        print("plan is attribution-safe (no collisions)")
        return 0
    for c in report.collisions:
        print(f"collision: {c}")
    return 1


def cmd_validate(args) -> int:
    start = time.perf_counter()
    results = validate.run_all()
    failed = [r for r in results if not r.passed]
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in results], indent=2))
    else:
        for r in results:
            tag = "PASS" if r.passed else "FAIL"
            print(f"[{tag}] {r.name}: {r.detail}")
        elapsed = time.perf_counter() - start
        print(f"{len(results) - len(failed)}/{len(results)} checks passed in {elapsed:.1f}s")
    return 1 if failed else 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestedmzi",
        description="Nested Mach-Zehnder which-path witness simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fock", help="frequency-mode probability tables")
    _add_scenario_flags(p)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--procedure", choices=["projector", "bcjlss"],
                   default="projector")
    p.add_argument("--compare", action="store_true",
                   help="print both procedures and their ratio")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fock)

    p = sub.add_parser("spectrum", help="sample a detector and attribute peaks")
    _add_scenario_flags(p)
    p.add_argument("--detector", choices=list(spectra.DETECTORS), default="total")
    p.add_argument("--model", choices=list(spectra.MODELS), default="exact")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing output files")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("plan-check", help="tone catalog and collision report")
    _add_scenario_flags(p)
    p.set_defaults(func=cmd_plan_check)

    p = sub.add_parser("validate", help="run the full self-check suite")
    p.add_argument("--json", action="store_true",
                   help="print [{name, passed, detail, seconds}] instead of text")
    p.set_defaults(func=cmd_validate)

    return parser


EXIT_BROKEN_PIPE = 141


def guard_stdout(func, *args) -> int:
    """func(*args), with standard output flushed before it returns.

    Returns EXIT_BROKEN_PIPE, silently, if the reader of standard output
    went away before the output was written.
    """
    try:
        code = func(*args)
        # Output still buffered fails here, not at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so that the interpreter's final flush of
        # what is left in the buffer cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return guard_stdout(args.func, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
