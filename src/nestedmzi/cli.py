"""Command-line front end: fock, spectrum, plan-check, validate.

Exit codes: 0 success, 1 validation/physics failure, 2 usage error,
141 (128 + SIGPIPE, the shell's status for a closed pipe) when the reader of
standard output went away before the output was written.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
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
            if mirror in out:
                _usage_error(f"--freq sets mirror {mirror} more than once")
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
    """The scenario file if one is given, else the standard case, with every
    flag laid over it in one Scenario.with_overrides call."""
    if args.scenario_file:
        sc = _read_scenario_file(args.scenario_file)
    elif args.case:
        sc = standard_case(args.case)
    else:
        _usage_error("one of --case or --scenario-file is required")
    flags = {"epsilon": args.epsilon, "duration": args.duration, "sample_rate": args.rate,
             "series_order": getattr(args, "order", None)}  # --order is fock's alone
    overrides = {name: value for name, value in flags.items() if value is not None}
    if freq := _parse_freq_overrides(args.freq):
        overrides["mirror_freq"] = {**sc.mirror_freq, **freq}
    return sc.with_overrides(**overrides) if overrides else sc


def _add_scenario_flags(p):
    p.add_argument("--case", choices=["a", "b", "c"], help="ignored with --scenario-file")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--freq", action="append", metavar="M=HZ",
                   help="override one mirror frequency, e.g. --freq A=31")
    p.add_argument("--scenario-file", default=None,
                   help="JSON scenario to start from instead of case defaults")


def cmd_fock(args) -> int:
    sc = build_scenario(args)
    if off := [m for m, a in sc.vib_amplitude.items() if a != sc.epsilon]:
        raise ValueError(f"fock needs vib_amplitude = epsilon; it differs on {', '.join(off)}")
    order = sc.series_order
    payload = {}
    if args.compare or args.procedure == "projector":
        payload["projector"] = fock.probability_table(sc.phi, sc.kappa, sc.epsilon, order)
    if args.compare or args.procedure == "bcjlss":
        state = fock.bcjlss_output_state(sc.phi, sc.kappa, order)
        payload["bcjlss"] = {m: fock.bcjlss_witness(state, m) for m in MIRRORS}
    if args.compare:
        proj, wit = payload["projector"], payload["bcjlss"]
        payload["ratio"] = {m: proj[m] / w if w else None for m, w in wit.items()}

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for name, table in payload.items():
            print(f"[{name}]")
            for key, value in table.items():
                print(f"  {key:>4}  {float('nan') if value is None else value:.12e}")
    return 0


def _run_and_write(sc: Scenario, detector: str, model: str, outdir: Path):
    """spectra.run's report, its artifacts written to outdir (exit 2 if they cannot be)."""
    ts, spec, report = spectra.run(sc, detector, model)
    try:
        spectra.write_artifacts(outdir, ts, spec, report)
    except OSError as exc:
        _usage_error(f"cannot write --out {outdir}: {exc.strerror or exc}")
    return report


def cmd_spectrum(args) -> int:
    sc = build_scenario(args)
    outdir = Path(args.out)
    if not args.force:
        existing = [str(outdir / a) for a in spectra.ARTIFACTS if (outdir / a).exists()]
        if existing:
            raise ValueError(f"refusing to overwrite {existing}; pass --force to allow")

    report = _run_and_write(sc, args.detector, args.model, outdir)

    source = f"scenario file {args.scenario_file}" if args.scenario_file else f"case {args.case}"
    print(f"{source}, detector {args.detector}, model {args.model}")
    for m, bar in report.normalized_bars().items():
        print(f"  {m}  {bar:.6f}")
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
    results = validate.run_all()
    failed = [r for r in results if not r.passed]
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in results], indent=2))
    else:
        for r in results:
            tag = "PASS" if r.passed else "FAIL"
            print(f"[{tag}] {r.name}: {r.detail}")
        ms = 1e3 * sum(r.seconds for r in results)
        print(f"{len(results) - len(failed)}/{len(results)} checks passed in {ms:.1f} ms")
    return 1 if failed else 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one.

    It binds no command function: main looks up ``cmd_<command>`` when the
    command runs, so a later rebinding of that module global takes effect.
    """
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

    p = sub.add_parser("spectrum", help="sample a detector and attribute peaks")
    _add_scenario_flags(p)
    p.add_argument("--detector", choices=list(spectra.DETECTORS), default="total")
    p.add_argument("--model", choices=list(spectra.MODELS), default="exact")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing output files")

    p = sub.add_parser("plan-check", help="tone catalog and collision report")
    _add_scenario_flags(p)

    p = sub.add_parser("validate", help="run the full self-check suite")
    p.add_argument("--json", action="store_true",
                   help="print [{name, passed, detail, seconds}] instead of text")

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
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return guard_stdout(command, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
