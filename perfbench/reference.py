"""Write reference.npz: the outputs the benchmark's gates compare against.

Stores the samples of all 12 figure combinations, the samples of the first
scan ops and the output-state and norm series of the first fock ops of the
default seed. Regenerate only when a physics result changes on purpose:

    PYTHONPATH=src python3 perfbench/reference.py
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import workloads as wl
from nestedmzi import fock, spectra
from nestedmzi.scenario import standard_case


def build() -> dict:
    ref = {}
    for combo in wl.FIGURE_COMBOS:
        case, det, model = combo
        ref[wl.figure_key(combo)] = spectra.sample_detector(standard_case(case), det, model).samples
    scan = wl.Scan(wl.DEFAULT_SEED, Path("."))
    for i in range(wl.REFERENCE_OPS["scan"]):
        sc, det, model, _ = scan.inputs(i)
        ref[wl.scan_key(i)] = spectra.sample_detector(sc, det, model).samples
    focks = wl.Fock(wl.DEFAULT_SEED, Path("."))
    for i in range(wl.REFERENCE_OPS["fock"]):
        phi, kappa, order, _, _ = focks.inputs(i)
        state = fock.output_state(phi, kappa, order)
        labels, coeffs = wl.state_table(state)
        k_labels, k_coeffs, k_norm = wl.fock_keys(i)
        ref[k_labels] = np.array(labels)
        ref[k_coeffs] = coeffs
        ref[k_norm] = np.array(fock.norm_series(state).coeffs)
    return ref


if __name__ == "__main__":
    np.savez_compressed(wl.REFERENCE_FILE, **build())
    print(f"wrote {wl.REFERENCE_FILE}", file=sys.stderr)
