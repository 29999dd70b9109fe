"""Experiment configuration: canonical cases and frequency-plan checking.

The nested interferometer has five vibrating mirrors: A and B inside the
inner loop, E and F routing light into and out of it, and C on the free
arm. A Scenario fixes the interferometer phase, whether arm C is open,
the vibration amplitudes/frequencies, and the sampling window.
"""
from __future__ import annotations

import cmath
import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import chain, combinations
from types import MappingProxyType

import numpy as np

MIRRORS = ("A", "B", "C", "E", "F")

# The mirrors of each path from the source to the detector port, in the
# order the photon meets them: the free arm C, then the inner arm through A
# and the inner arm through B, which both enter via E and leave via F. The
# Fock and beam models both read this table and index paths in its order.
PATHS = (("C",), ("E", "A", "F"), ("E", "B", "F"))
# (path, mirror) incidence of PATHS: 1 where the path meets the mirror.
INCIDENCE = np.array([[m in path for m in MIRRORS] for path in PATHS], dtype=float)


def path_weights(phi: float, kappa: float) -> tuple:
    """Weights of the PATHS (C, A, B): (kappa, e^{i phi}, -1).

    Matching the known output state fixes them: the C-mode term forces
    kappa, the A-mode term e^{i phi} and the B-mode term -1 (each over 3);
    the zero-mode coefficient e^{i phi}/3 and the E/F coefficients
    (e^{i phi} - 1)/3 then come out as consistency checks.

    The Fock model (fock.output_state) gives the paths these weights divided
    by 3; the beam model (beam.path_coefficients) takes them as they are
    but with the A-path and B-path entries swapped. The models agree at
    phi = pi; at phi = 0 they differ in which inner arm is out of phase
    with C. The swap only relabels mirrors A and B: the paths (E, A, F) and
    (E, B, F) differ only in that mirror, and their weights have modulus 1.
    So swapping them leaves every Fock projector probability and the norm
    series as they are, and in the beam model it is the same as exchanging
    A and B.
    """
    return (kappa, cmath.exp(1j * phi), -1.0)


DEFAULT_FREQS = {"A": 31.0, "B": 37.0, "C": 41.0, "E": 47.0, "F": 59.0}

_CASE_PHI_KAPPA = {
    "a": (math.pi, 1.0),
    "b": (0.0, 1.0),
    "c": (0.0, 0.0),
}

_FREQ_TOL = 1e-9


def _whole(count: float) -> bool:
    """count (samples, a tone's cycles, a bin) is finite and within _FREQ_TOL of an integer."""
    return math.isfinite(count) and abs(count - round(count)) <= _FREQ_TOL


# Powers of eps above ~20 carry nothing in double precision for eps < 0.1.
MAX_SERIES_ORDER = 64
# A detector run holds about 17 doubles per sample (the mirror rows, the path
# shifts and the quad-cell pair sum's temporaries): some 140 MB at this bound.
MAX_SAMPLES = 2**20

# The per-mirror fields, each stored as a read-only {mirror: float} map.
_PER_MIRROR = ("mirror_freq", "vib_amplitude")


def _float(name: str, value, finite: bool = False) -> float:
    """value as a float, or a ValueError naming the field.

    A bool is not a number, and an int beyond the float range is refused
    here rather than overflowing in the checks that follow. A float, the
    usual value, skips the numbers.Real check, which is most of the cost.
    """
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"{name} is beyond the float range") from None
    if finite and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class Scenario:
    """Full experiment configuration. Immutable after construction: the
    per-mirror maps are read-only views of the validated values."""

    phi: float
    kappa: float
    epsilon: float = 0.01
    mirror_freq: Mapping = field(default_factory=lambda: dict(DEFAULT_FREQS))
    vib_amplitude: Mapping = None
    duration: float = 1.0
    sample_rate: float = 1024.0
    series_order: int = 4

    def __post_init__(self):
        if self.vib_amplitude is None:
            object.__setattr__(
                self, "vib_amplitude", {m: self.epsilon for m in MIRRORS}
            )
        # Store every number as a float (series_order as an int), so the
        # checks below and every model see one numeric type.
        for name in ("phi", "kappa", "epsilon", "duration", "sample_rate"):
            value = _float(name, getattr(self, name), finite=name == "phi")
            object.__setattr__(self, name, value)
        # before the per-mirror maps, which __post_init__ and with_overrides fill from epsilon
        if not (0.0 < self.epsilon < 0.1):
            raise ValueError(f"epsilon must lie in (0, 0.1), got {self.epsilon}")
        if not isinstance(self.series_order, numbers.Integral):
            raise ValueError(f"series_order must be an int, got {self.series_order!r}")
        object.__setattr__(self, "series_order", int(self.series_order))
        for name in _PER_MIRROR:
            values = getattr(self, name)
            if not isinstance(values, Mapping) or set(values) != set(MIRRORS):
                raise ValueError(f"{name} must map exactly the five mirrors A,B,C,E,F")
            values = {
                m: _float(f"{name}[{m}]", values[m], finite=True) for m in MIRRORS
            }
            object.__setattr__(self, name, MappingProxyType(values))
        if self.kappa not in (0.0, 1.0):
            raise ValueError(f"kappa must be 0 or 1, got {self.kappa}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        samples = self.sample_rate * self.duration
        if not _whole(samples) or self.sample_count > MAX_SAMPLES:
            # the periodogram is leakage-free only over whole samples; MAX_SAMPLES bounds memory
            fault = (f"{samples} is not an integer number of samples" if not _whole(samples)
                     else f"{samples:g} samples, more than MAX_SAMPLES = {MAX_SAMPLES}")
            raise ValueError(f"sample_rate {self.sample_rate} * duration {self.duration} = {fault}")
        if not 3 <= self.series_order <= MAX_SERIES_ORDER:
            raise ValueError(f"series_order must lie in [3, {MAX_SERIES_ORDER}]")
        for m in MIRRORS:
            f = self.mirror_freq[m]
            if f <= 0:
                raise ValueError(f"mirror_freq[{m}] must be positive")
            cycles = f * self.duration
            if not _whole(cycles) or round(cycles) < 1:
                raise ValueError(
                    f"mirror_freq[{m}]={f} is not an integer number of cycles "
                    f"per window T={self.duration}"
                )
            if self.vib_amplitude[m] < 0:
                raise ValueError(f"vib_amplitude[{m}] must be >= 0")
        # the highest tone, 2 f_max, bounds every f_i + f_j as well
        top = 2.0 * max(self.mirror_freq.values())
        if self.sample_rate <= 4.0 * top:
            raise ValueError(
                f"sample_rate {self.sample_rate} too low; need > {4.0 * top}"
            )

    @property
    def sample_count(self) -> int:
        """Samples in the window: sample_rate * duration, a whole number once checked."""
        return int(round(self.sample_rate * self.duration))

    # -- JSON round trip -------------------------------------------------

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in _PER_MIRROR:
            data[name] = dict(data[name])
        return data

    def __reduce__(self):
        # pickle and deepcopy go through to_dict: a mappingproxy has no pickle form
        return type(self).from_dict, (self.to_dict(),)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ValueError(f"a scenario must be a JSON object, got {data!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        missing = {
            f.name
            for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING
        } - set(data)
        if missing:
            raise ValueError(f"missing scenario keys: {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def with_overrides(self, **kwargs) -> "Scenario":
        """A new, checked scenario with kwargs replaced. An epsilon given without
        vib_amplitude moves every mirror not at rest to it; one at rest stays at 0."""
        if "epsilon" in kwargs and "vib_amplitude" not in kwargs:
            amps = self.vib_amplitude.items()
            kwargs["vib_amplitude"] = {m: kwargs["epsilon"] if a > 0 else 0.0 for m, a in amps}
        return replace(self, **kwargs)


def standard_case(case_id: str) -> Scenario:
    """Canonical configurations: (a) phi=pi arm C open, (b) phi=0 arm C
    open, (c) phi=0 arm C blocked."""
    if case_id not in _CASE_PHI_KAPPA:
        raise ValueError(f"unknown case {case_id!r}; expected one of a, b, c")
    phi, kappa = _CASE_PHI_KAPPA[case_id]
    return Scenario(phi=phi, kappa=kappa)


@dataclass(frozen=True)
class Collision:
    tone_desc: str
    tone_freq: float
    bin_desc: str
    bin_freq: float

    def __str__(self) -> str:
        return f"{self.tone_desc}={self.tone_freq:g} hits {self.bin_desc}={self.bin_freq:g}"


@dataclass(frozen=True)
class CollisionReport:
    fundamentals: tuple
    doubles: tuple
    sums: tuple
    diffs: tuple
    collisions: tuple

    @property
    def ok(self) -> bool:
        return len(self.collisions) == 0


def tone_catalogue(scenario: Scenario) -> dict:
    """Every tone of the active mirrors once: {kind: ((label, freq, mirrors), ...)}.

    The quad cell carries the fundamentals f_m; the total intensity the
    doubles 2 f_m and the sums and differences f_m +/- f_n. Mirrors with
    zero vibration amplitude carry no tone. Tones follow MIRRORS order.
    """
    f = {m: scenario.mirror_freq[m] for m in MIRRORS if scenario.vib_amplitude[m] > 0}
    pairs = list(combinations(f, 2))
    return {
        "fundamentals": tuple((f"f_{m}", f[m], (m,)) for m in f),
        "doubles": tuple((f"2f_{m}", 2.0 * f[m], (m,)) for m in f),
        "sums": tuple((f"f_{m}+f_{n}", f[m] + f[n], (m, n)) for m, n in pairs),
        "diffs": tuple((f"f_{m}-f_{n}", abs(f[m] - f[n]), (m, n)) for m, n in pairs),
    }


def check_frequency_plan(scenario: Scenario) -> CollisionReport:
    """The tone_catalogue, each kind sorted by frequency, and its collisions.

    A collision is a catalogue tone within _FREQ_TOL of a bin (a fundamental
    or a double) with another label; attribution refuses such a plan. Each
    pair's sum and difference, then each mirror's fundamental and double,
    is checked against the fundamentals, then the doubles.
    """
    tones = tone_catalogue(scenario)
    bins = tones["fundamentals"] + tones["doubles"]
    collisions = tuple(
        Collision(label, freq, bin_label, bin_freq)
        for label, freq, _ in chain(
            *zip(tones["sums"], tones["diffs"]),
            *zip(tones["fundamentals"], tones["doubles"]),
        )
        for bin_label, bin_freq, _ in bins
        if abs(freq - bin_freq) < _FREQ_TOL and bin_label != label
    )
    kinds = {kind: tuple(sorted(freq for _, freq, _ in ts)) for kind, ts in tones.items()}
    return CollisionReport(**kinds, collisions=collisions)
