"""Detector time series, periodograms, and per-mirror peak attribution.

The frequency plan puts an integer number of cycles of every tone in the
window, so a rectangular-window periodogram is leakage-free and each tone
occupies exactly one bin. scenario.tone_catalogue defines the tones, and
DETECTOR_BINS each detector's kind of tone. Attribution reads one bin per
mirror and reports everything else above threshold as residual.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import beam
from .scenario import _FREQ_TOL, Scenario, _whole, check_frequency_plan, tone_catalogue

RESIDUAL_THRESHOLD = 1e-3

# Attribution reads mirror m at its tone of this kind: 2 f_m (total) or f_m (quad).
DETECTOR_BINS = {"total": "doubles", "quad": "fundamentals"}
DETECTORS = tuple(DETECTOR_BINS)
MODELS = ("exact", "linearized")
_ENGINES = {
    ("total", "exact"): beam.exact_intensity,
    ("quad", "exact"): beam.exact_quadcell,
    ("total", "linearized"): beam.linearized_intensity,
    ("quad", "linearized"): beam.linearized_quadcell,
}


@dataclass(frozen=True)
class TimeSeries:
    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        object.__setattr__(
            self, "samples", np.asarray(self.samples, dtype=float)
        )
        if len(self.samples) == 0:
            raise ValueError("empty series")
        if not 0.0 < self.sample_rate < np.inf:
            raise ValueError(f"sample_rate must be positive and finite, got {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("series contains NaN/Inf")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.samples)) / self.sample_rate


@dataclass(frozen=True)
class PowerSpectrum:
    freqs: np.ndarray
    power: np.ndarray
    duration: float

    def bin_index(self, freq: float) -> int:
        """Bin k of freq: freq * duration and freqs[k] * duration must both be k, in range."""
        cycles = freq * self.duration
        if not _whole(cycles):
            raise ValueError(f"frequency {freq} is not on a bin of the {self.duration} s window")
        k = int(round(cycles))
        if not 0 <= k < len(self.power):
            raise ValueError(f"frequency {freq} outside spectrum range")
        if abs(self.freqs[k] * self.duration - k) > _FREQ_TOL:
            raise ValueError(f"bin {k} sits at {self.freqs[k]} Hz, not {freq} Hz: "
                             f"freqs disagree with the {self.duration} s window")
        return k

    def bin_power(self, freq: float) -> float:
        return float(self.power[self.bin_index(freq)])


@dataclass(frozen=True)
class AttributionReport:
    mirrors: dict  # MirrorId -> {"freq": Hz, "power": value}
    residual: tuple  # ((freq, power), ...)
    detector: str
    model: str
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "mirror": {m: dict(v) for m, v in self.mirrors.items()},
            "residual": [[f, p] for f, p in self.residual],
            "detector": self.detector,
            "model": self.model,
            "note": self.note,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def max_power(self) -> float:
        return max((v["power"] for v in self.mirrors.values()), default=0.0)

    def normalized_bars(self) -> dict:
        """Per-mirror power scaled so the largest bar is 1 (all zero if flat)."""
        top = self.max_power()
        if top <= 0.0:
            return {m: 0.0 for m in self.mirrors}
        return {m: v["power"] / top for m, v in self.mirrors.items()}


def sample_detector(
    scenario: Scenario, detector: str = "total", model: str = "exact"
) -> TimeSeries:
    """Evaluate the chosen detector at t_n = n / sample_rate (DC retained)."""
    if (engine := _ENGINES.get((detector, model))) is None:
        raise ValueError(f"no engine for detector {detector!r}, model {model!r}: "
                         f"detectors are {DETECTORS}, models {MODELS}")
    coeffs = beam.path_coefficients(scenario)
    shifts = beam.path_shifts(scenario, np.arange(scenario.sample_count) / scenario.sample_rate)
    out = engine(coeffs, shifts)
    return TimeSeries(out, scenario.sample_rate)


def power_spectrum(ts: TimeSeries) -> PowerSpectrum:
    """Mean-removed rectangular-window one-sided periodogram.

    Normalized so an on-bin tone a*sin(2 pi f t) puts a^2/2 in its bin;
    the sum over bins then equals the mean square of the mean-removed
    signal (Parseval).
    """
    x = ts.samples
    n = len(x)
    x = x - x.mean()
    spec = np.fft.rfft(x)
    power = np.abs(spec) ** 2 / n**2
    power[1:] *= 2.0
    if n % 2 == 0:
        power[-1] /= 2.0
    freqs = np.fft.rfftfreq(n, d=1.0 / ts.sample_rate)
    return PowerSpectrum(freqs=freqs, power=power, duration=ts.duration)


def attribute_peaks(
    spec: PowerSpectrum, scenario: Scenario, detector: str, *, model: str = ""
) -> AttributionReport:
    """Read each mirror's bin, its tone of kind DETECTOR_BINS[detector].

    Refuses to attribute when the frequency plan has collisions, since a
    colliding combination tone would be credited to the wrong mirror.
    ``model`` is recorded in the report; attribution does not depend on it.
    """
    if (kind := DETECTOR_BINS.get(detector)) is None:
        raise ValueError(f"no attribution for detector {detector!r}: detectors are {DETECTORS}")
    plan = check_frequency_plan(scenario)
    if not plan.ok:
        details = "; ".join(map(str, plan.collisions))
        raise ValueError(f"frequency plan has collisions: {details}")

    mirrors = {}
    residual_bins = np.ones(len(spec.power), dtype=bool)
    residual_bins[0] = False
    for _, freq, (m,) in tone_catalogue(scenario)[kind]:
        k = spec.bin_index(freq)
        mirrors[m] = {"freq": freq, "power": float(spec.power[k])}
        residual_bins[k] = False

    top = max((v["power"] for v in mirrors.values()), default=0.0)
    threshold = RESIDUAL_THRESHOLD * top
    residual_bins &= (spec.power > threshold) & (spec.power > 0.0)
    (ks,) = np.nonzero(residual_bins)

    note = ""
    if top <= 0.0:
        note = "all attributed powers are zero (flat spectrum)"
    return AttributionReport(
        mirrors=mirrors,
        residual=tuple(zip(spec.freqs[ks].tolist(), spec.power[ks].tolist())),
        detector=detector,
        model=model,
        note=note,
    )


def run(
    scenario: Scenario, detector: str = "total", model: str = "exact"
) -> tuple:
    """Sample, transform and attribute one detector: (ts, spec, report)."""
    ts = sample_detector(scenario, detector, model)
    spec = power_spectrum(ts)
    return ts, spec, attribute_peaks(spec, scenario, detector, model=model)


# -- file output ---------------------------------------------------------

ARTIFACTS = ("timeseries.csv", "spectrum.csv", "attribution.json", "bars.csv")


def write_artifacts(outdir, ts: TimeSeries, spec: PowerSpectrum,
                    report: AttributionReport) -> None:
    """Write the four ARTIFACTS of one run into outdir (created if missing)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_timeseries_csv(ts, outdir / "timeseries.csv")
    write_spectrum_csv(spec, outdir / "spectrum.csv")
    write_attribution_json(report, outdir / "attribution.json")
    write_bars_csv(report, outdir / "bars.csv")


def write_timeseries_csv(ts: TimeSeries, path) -> None:
    _write_columns(path, "t,value", ts.times, ts.samples)


def write_spectrum_csv(spec: PowerSpectrum, path) -> None:
    _write_columns(path, "freq_hz,power", spec.freqs, spec.power)


def _write_columns(path, header: str, x, y) -> None:
    """A header line, then one "x,y" row per element, each as %.17g.

    The x column repeats from run to run (times and bin frequencies depend
    only on the sample count and rate), so its text is formatted once into
    a template whose rows hold a %.17g slot for y; one % fills the slots.
    Only the x text is cached, keyed on (header, x's bytes), and only the
    last two templates are kept: one time column and one frequency column.
    y is never cached; it is formatted on every call. Columns of unequal
    length raise ValueError before the file is opened.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise ValueError(f"x has {len(x)} values but y has {len(y)}")
    template = _row_template(header, x.tobytes())
    with open(path, "w") as fh:
        fh.write(template % tuple(y.tolist()))


@functools.lru_cache(maxsize=2)
def _row_template(header: str, x_bytes: bytes) -> str:
    """header, then "<x as %.17g>,%.17g" rows for the float64 x in x_bytes."""
    x = np.frombuffer(x_bytes).tolist()
    return header + "\n" + "%.17g,%%.17g\n" * len(x) % tuple(x)


def write_attribution_json(report: AttributionReport, path) -> None:
    with open(path, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")


def write_bars_csv(report: AttributionReport, path) -> None:
    with open(path, "w") as fh:
        fh.write("mirror,attributed_power\n")
        for m, bar in report.normalized_bars().items():
            fh.write(f"{m},{bar:.17g}\n")
