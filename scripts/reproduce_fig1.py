#!/usr/bin/env python3
"""Reproduce the Fig. 1B-style bar charts for all three cases.

Runs the exact total-intensity model for cases a, b, c (and the quad-cell
detector for comparison), writes the CSV/JSON artifacts under out/, and
prints normalized bar tables to stdout. Like the nestedmzi CLI, it exits
with status 141 when the reader of stdout goes away early, and with status 2
and one error line when it cannot write a directory under --out.
"""
import argparse
import sys
from pathlib import Path

from nestedmzi import spectra
from nestedmzi.cli import guard_stdout
from nestedmzi.scenario import standard_case


def run_case(case, detector, model, outdir):
    ts, spec, report = spectra.run(standard_case(case), detector, model)
    try:
        spectra.write_artifacts(outdir, ts, spec, report)
    except OSError as exc:
        print(f"error: cannot write --out {outdir}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2)

    print(f"case ({case})  detector={detector}  model={model}")
    for m, value in report.normalized_bars().items():
        bar = "#" * int(round(40 * value))
        print(f"  {m}  {value:8.4f}  {bar}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/fig1", help="output directory root")
    args = ap.parse_args()

    root = Path(args.out)
    for case in "abc":
        for det in spectra.DETECTORS:
            run_case(case, det, "exact", root / f"case_{case}_{det}_exact")
    # the linearized quad-cell signal for case (c) is identically zero --
    # the disagreement the exact model exposes
    run_case("c", "quad", "linearized", root / "case_c_quad_linearized")
    return 0


if __name__ == "__main__":
    sys.exit(guard_stdout(main))
