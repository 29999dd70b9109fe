"""Seeded closed-loop workloads against the public API of nestedmzi.

Every workload has one client: the next op starts when the previous one has
completed, in one process and one thread. ``inputs(i)`` builds op ``i`` from
the seed alone, ``run`` is the timed call into the program and ``check`` is
the correctness gate, which runs outside the timed region. A gate failure
raises ``GateError``.

Why these four (see README.md for the metric predictions):

* ``figure``: the user-facing reproduce-the-figure path, ``nestedmzi
  spectrum`` for all 12 case/detector/model combinations with artifact
  writes. Shows artifact I/O and per-spectrum fixed costs.
* ``scan``: fresh random scenarios through sample -> periodogram ->
  attribution, in memory. Per-sample beam evaluation dominates; no input
  repeats, so a cache keyed on inputs cannot help.
* ``fock``: seeded eps-series tables; series/fock do all the work and beam
  none.
* ``validate``: the 13-check self-test suite, the only caller of the
  quadrature oracles.

Functions of the program are always reached through their module
(``spectra.sample_detector``), so the tracer's attribute swaps are seen.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

from nestedmzi import beam, cli, fock, spectra, validate
from nestedmzi.scenario import MIRRORS, Scenario, check_frequency_plan

DEFAULT_SEED = 0
# Absolute tolerance for agreement with the stored reference results
# (samples and series coefficients), as fixed by the ROADMAP.
REFERENCE_TOL = 1e-14
# Ops of the default seed whose outputs are stored in reference.npz.
REFERENCE_OPS = {"scan": 4, "fock": 32}
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.npz"

PARSEVAL_TOL = 1e-9
ORACLE_TOL = 1e-9
WITNESS_TOL = 1e-10
BAR_TOL = 0.01


class GateError(Exception):
    """An op's output failed its correctness check."""


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def _parseval_mismatch(samples: np.ndarray, power: np.ndarray) -> float:
    x = samples - samples.mean()
    rhs = float(np.mean(x**2))
    return abs(float(np.sum(power)) - rhs) / max(rhs, 1e-30)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


def _compare(name: str, got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    _require(got.shape == want.shape, f"{name}: shape {got.shape} != reference {want.shape}")
    worst = float(np.max(np.abs(got - want), initial=0.0))
    _require(worst <= REFERENCE_TOL, f"{name}: off the reference by {worst:.3e}")


# -- figure ----------------------------------------------------------------

FIGURE_COMBOS = tuple(
    (case, det, model)
    for case in "abc"
    for det in spectra.DETECTORS
    for model in spectra.MODELS
)

# Normalized bars in mirror order A,B,C,E,F. The total/exact rows are the
# predictions of validate.check_spectral_cases; the others were measured at
# the commit that added this benchmark. "c quad exact" is the quintic
# blocked-arm signal; "c quad linearized" is flat (all zero).
FIGURE_BARS = {
    ("a", "total", "exact"): (0, 0, 1, 1, 1),
    ("a", "total", "linearized"): (1 / 16, 1 / 16, 1 / 16, 1, 1),
    ("a", "quad", "exact"): (0.25, 0.25, 0.25, 1, 1),
    ("a", "quad", "linearized"): (0.25, 0.25, 0.25, 1, 1),
    ("b", "total", "exact"): (1, 0, 0, 0, 0),
    ("b", "total", "linearized"): (1, 1, 1, 0, 0),
    ("b", "quad", "exact"): (1, 1, 1, 0, 0),
    ("b", "quad", "linearized"): (1, 1, 1, 0, 0),
    ("c", "total", "exact"): (1, 1, 0, 0, 0),
    ("c", "total", "linearized"): (1, 1, 0, 0, 0),
    ("c", "quad", "exact"): (0.0087, 0.0087, 0.41, 1, 1),
    ("c", "quad", "linearized"): (0, 0, 0, 0, 0),
}

ARTIFACTS = ("timeseries.csv", "spectrum.csv", "attribution.json", "bars.csv")


def _read_csv(path: Path, header: str) -> list:
    lines = path.read_text().splitlines()
    _require(bool(lines) and lines[0] == header, f"{path.name}: header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _read_numeric_csv(path: Path, header: str, rows: int) -> np.ndarray:
    table = np.array(_read_csv(path, header), dtype=float)
    _require(table.shape == (rows, 2), f"{path.name}: shape {table.shape}, want ({rows}, 2)")
    return table


def figure_key(combo) -> str:
    return "figure_" + "_".join(combo)


class Figure:
    name = "figure"
    expected_calls = (
        "cli.main", "cli.cmd_spectrum", "cli.build_scenario",
        "scenario.standard_case", "scenario.Scenario.__post_init__", "scenario.check_frequency_plan",
        "spectra.sample_detector", "spectra.power_spectrum", "spectra.attribute_peaks",
        "spectra.write_timeseries_csv", "spectra.write_spectrum_csv",
        "spectra.write_attribution_json", "spectra.write_bars_csv",
        "beam.field_at", "beam.mirror_shifts", "beam.total_intensity", "beam.quadcell_signal",
        "beam.linearized_field_intensity", "beam.linearized_profile",
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = Path(workdir) / "figure"

    def inputs(self, i: int):
        cycle, k = divmod(i, len(FIGURE_COMBOS))
        order = _rng(self.seed, 1, cycle).permutation(len(FIGURE_COMBOS))
        return FIGURE_COMBOS[order[k]]

    def run(self, combo):
        case, det, model = combo
        argv = ["spectrum", "--case", case, "--detector", det, "--model", model,
                "--out", str(self.out), "--force"]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, i: int, combo, code, reference) -> None:
        """Gate the artifacts, then delete them.

        Each op thus writes fresh files. Rewriting files in place makes
        ext4 flush them on close (auto_da_alloc), which swung p95 between
        25 and 51 ms from run to run.
        """
        try:
            self._check(combo, code, reference)
        finally:
            for name in ARTIFACTS:
                (self.out / name).unlink(missing_ok=True)

    def _check(self, combo, code, reference) -> None:
        _require(code == 0, f"exit code {code}")
        missing = [a for a in ARTIFACTS if not (self.out / a).is_file()]
        _require(not missing, f"missing artifacts {missing}")
        n = 1024
        ts = _read_numeric_csv(self.out / "timeseries.csv", "t,value", n)
        spec = _read_numeric_csv(self.out / "spectrum.csv", "freq_hz,power", n // 2 + 1)
        samples = ts[:, 1]
        _require(bool(np.all(np.isfinite(samples))), "non-finite samples")
        mismatch = _parseval_mismatch(samples, spec[:, 1])
        _require(mismatch <= PARSEVAL_TOL, f"Parseval mismatch {mismatch:.3e}")
        report = json.loads((self.out / "attribution.json").read_text())
        _require(report["detector"] == combo[1], "attribution.json names the wrong detector")
        bars = {m: float(v) for m, v in _read_csv(self.out / "bars.csv", "mirror,attributed_power")}
        _require(tuple(bars) == MIRRORS, f"bars.csv mirrors {tuple(bars)}")
        for m, want in zip(MIRRORS, FIGURE_BARS[combo]):
            _require(abs(bars[m] - want) <= BAR_TOL, f"bar {m} = {bars[m]:.4f}, want {want:.4f}")
        _compare(figure_key(combo), samples, reference[figure_key(combo)])


# -- scan ------------------------------------------------------------------

# Sample counts: one op per block in each band [1024 k, 1024 (k + 1)),
# k = 1..8 (the top band is just 8192), at a random multiple of 64 inside it.
# Continuous sizes keep the median op away from a gap between size classes.
SCAN_BANDS = 8
SCAN_STEP = 64
SCAN_MODES = tuple((det, model) for det in spectra.DETECTORS for model in spectra.MODELS)
SCAN_SPOT_CHECKS = 3


def random_scenario(rng: np.random.Generator, n: int) -> Scenario:
    """A valid, collision-free scenario with exactly n samples per window.

    Mirror frequencies are distinct integers, so with a window of 1 or 2 s
    every tone has an integer number of cycles. Up to two mirrors are at
    rest (zero vibration amplitude).
    """
    duration = float(rng.choice((1.0, 2.0)))
    rate = n / duration
    epsilon = float(rng.uniform(0.002, 0.05))
    at_rest = int(rng.choice((0, 0, 1, 2)))
    fmax = min(int(rate / 8.0) - 1, 250)
    for _ in range(1000):
        freqs = rng.choice(np.arange(3, fmax + 1), size=len(MIRRORS), replace=False)
        rest = set(rng.choice(len(MIRRORS), size=at_rest, replace=False).tolist())
        sc = Scenario(
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
            kappa=float(rng.integers(0, 2)),
            epsilon=epsilon,
            mirror_freq={m: float(f) for m, f in zip(MIRRORS, freqs)},
            vib_amplitude={m: 0.0 if k in rest else epsilon for k, m in enumerate(MIRRORS)},
            duration=duration,
            sample_rate=rate,
        )
        if check_frequency_plan(sc).ok:
            return sc
    raise RuntimeError("no collision-free frequency plan found")


def scan_key(i: int) -> str:
    return f"scan_{i}"


class Scan:
    name = "scan"
    expected_calls = (
        "spectra.sample_detector", "spectra.power_spectrum", "spectra.attribute_peaks",
        "scenario.check_frequency_plan",
        "beam.field_at", "beam.mirror_shifts", "beam.total_intensity", "beam.quadcell_signal",
        "beam.linearized_field_intensity", "beam.linearized_profile",
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def inputs(self, i: int):
        """Op i. Each block of 8 ops has one sample count in every band and
        uses every detector/model pair twice, so a run's mix barely depends
        on where the loop stops."""
        block, k = divmod(i, SCAN_BANDS)
        perm = _rng(self.seed, 2, block)
        band = 1 + perm.permutation(SCAN_BANDS)[k]
        det, model = (SCAN_MODES * 2)[perm.permutation(SCAN_BANDS)[k]]
        rng = _rng(self.seed, 3, i)
        offset = 0 if band == SCAN_BANDS else SCAN_STEP * int(rng.integers(0, 1024 // SCAN_STEP))
        n = 1024 * band + offset
        sc = random_scenario(rng, n)
        spots = rng.choice(n, size=SCAN_SPOT_CHECKS, replace=False)
        return sc, det, model, spots

    def run(self, op):
        sc, det, model, _ = op
        ts = spectra.sample_detector(sc, det, model)
        spec = spectra.power_spectrum(ts)
        report = spectra.attribute_peaks(spec, sc, det)
        return ts, spec, report

    def check(self, i: int, op, out, reference) -> None:
        sc, det, model, spots = op
        ts, spec, report = out
        x = ts.samples
        n = int(round(sc.sample_rate * sc.duration))
        _require(len(x) == n, f"{len(x)} samples, want {n}")
        _require(bool(np.all(np.isfinite(x))), "non-finite samples")
        mismatch = _parseval_mismatch(x, spec.power)
        _require(mismatch <= PARSEVAL_TOL, f"Parseval mismatch {mismatch:.3e}")
        active = {m for m in MIRRORS if sc.vib_amplitude[m] > 0}
        _require(set(report.mirrors) == active, f"attributed {sorted(report.mirrors)}, active {sorted(active)}")
        if model == "exact":
            for k in spots:
                field = beam.field_at(sc, k / sc.sample_rate)
                if det == "total":
                    want = beam.total_intensity_quadrature(field)
                    scale = max(abs(want), 1e-30)
                else:
                    want = beam.quadcell_signal_quadrature(field)
                    scale = max(abs(want), beam.total_intensity(field))
                err = abs(x[k] - want) / scale
                _require(err <= ORACLE_TOL, f"sample {k} off the quadrature oracle by {err:.3e}")
        if self.seed == DEFAULT_SEED and i < REFERENCE_OPS["scan"]:
            _compare(scan_key(i), x, reference[scan_key(i)])


# -- fock ------------------------------------------------------------------

FOCK_ORDERS = tuple(range(4, 13))
TRANSCRIPTION_EVERY = 16


def state_table(state) -> tuple:
    """(sorted labels, coefficient matrix) of a ModeState."""
    labels = sorted(state.amplitudes)
    coeffs = np.array([state.amplitudes[lab].coeffs for lab in labels], dtype=complex)
    return labels, coeffs


def fock_keys(i: int) -> tuple:
    return f"fock_{i}_labels", f"fock_{i}_coeffs", f"fock_{i}_norm"


class Fock:
    name = "fock"
    expected_calls = (
        "fock.output_state", "fock.apply_mirror_kick", "fock.label_has_bit", "fock.label_with_bit",
        "fock.mode_projection_probability", "fock.zero_mode_probability", "fock.norm_series",
        "fock.bcjlss_output_state", "fock.bcjlss_witness",
        "fock.compare_transcription", "fock.reference_output_state",
        "series.EpsSeries.__mul__", "series.EpsSeries.__add__", "series.EpsSeries.eval",
        "series.inv_sqrt_one_plus_sq",
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def inputs(self, i: int):
        """(phi, kappa, order, epsilon, transcribe); each block of 9 ops
        uses every order 4..12 once."""
        block, k = divmod(i, len(FOCK_ORDERS))
        order = FOCK_ORDERS[_rng(self.seed, 4, block).permutation(len(FOCK_ORDERS))[k]]
        rng = _rng(self.seed, 5, i)
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        kappa = float(rng.integers(0, 2))
        epsilon = float(rng.uniform(0.002, 0.05))
        return phi, kappa, order, epsilon, i % TRANSCRIPTION_EVERY == 0

    def run(self, op):
        phi, kappa, order, eps, transcribe = op
        state = fock.output_state(phi, kappa, order)
        projector = {m: fock.mode_projection_probability(state, m, eps) for m in MIRRORS}
        zero = fock.zero_mode_probability(state, eps)
        norm = fock.norm_series(state)
        bstate = fock.bcjlss_output_state(phi, kappa, order)
        witness = {m: fock.bcjlss_witness(bstate, m) for m in MIRRORS}
        report = fock.compare_transcription(phi, order) if transcribe else None
        return state, projector, zero, norm, witness, report

    def check(self, i: int, op, out, reference) -> None:
        state, projector, zero, norm, witness, report = out
        for m in MIRRORS:
            p = projector[m]
            _require(math.isfinite(p) and p >= 0.0, f"projector {m} = {p}")
            lead = fock.projection_leading_coeff(state, m)
            gap = abs(lead - witness[m])
            _require(gap <= WITNESS_TOL, f"mirror {m}: eps^2 projector {lead} vs witness {witness[m]}")
        _require(math.isfinite(zero) and zero >= 0.0, f"zero-mode probability {zero}")
        if report is not None:
            _require(report.ok and report.extra_term_detected, "transcription comparison failed")
        if self.seed == DEFAULT_SEED and i < REFERENCE_OPS["fock"]:
            k_labels, k_coeffs, k_norm = fock_keys(i)
            labels, coeffs = state_table(state)
            _require(labels == list(reference[k_labels]), f"labels {labels} differ from the reference")
            _compare(k_coeffs, coeffs, reference[k_coeffs])
            _compare(k_norm, norm.coeffs, reference[k_norm])


# -- validate --------------------------------------------------------------

_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed", re.MULTILINE)


class Validate:
    name = "validate"
    expected_calls = (
        "cli.main", "cli.cmd_validate", "validate.run_all",
        *(f"validate.{c.__name__}" for c in validate.ALL_CHECKS),
        "beam.field_at", "beam.total_intensity", "beam.quadcell_signal",
        "beam.total_intensity_quadrature", "beam.quadcell_signal_quadrature",
        "beam.second_order_intensity", "beam.linearized_field_intensity",
        "fock.output_state", "fock.apply_mirror_kick", "fock.norm_series",
        "fock.case_probability_table", "fock.projection_leading_coeff",
        "fock.bcjlss_output_state", "fock.bcjlss_witness", "fock.compare_transcription",
        "spectra.sample_detector", "spectra.power_spectrum", "spectra.attribute_peaks",
        "scenario.standard_case", "scenario.check_frequency_plan",
        "scenario.Scenario.__post_init__", "scenario.Scenario.with_overrides",
        "series.EpsSeries.__mul__", "series.EpsSeries.__add__", "series.EpsSeries.eval",
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def inputs(self, i: int):
        return None

    def run(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["validate"])
        return code, buf.getvalue()

    def check(self, i: int, op, out, reference) -> None:
        code, text = out
        _require(code == 0, f"exit code {code}")
        found = _SUMMARY.search(text)
        total = len(validate.ALL_CHECKS)
        _require(
            found is not None and found.group(1) == found.group(2) == str(total),
            f"summary {found.group(0) if found else 'missing'}, want {total}/{total}",
        )


WORKLOADS = {w.name: w for w in (Figure, Scan, Fock, Validate)}


def make(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](seed, workdir)


def load_reference() -> dict:
    with np.load(REFERENCE_FILE) as data:
        return {k: data[k] for k in data.files}
