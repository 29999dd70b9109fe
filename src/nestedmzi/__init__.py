"""Nested Mach-Zehnder which-path witness simulator.

Quantum side: single-photon frequency-mode bookkeeping with truncated
power series in the kick amplitude, projector probabilities, and the
coherent scalar-product witness. Classical side: exact Gaussian-beam
overlap integrals for the total-intensity and quad-cell detectors, their
first-order linearization, periodograms, and per-mirror peak attribution.
"""

from .scenario import (
    MIRRORS,
    CollisionReport,
    Scenario,
    check_frequency_plan,
    standard_case,
)
from .series import EpsSeries, inv_sqrt_one_plus_sq
from .fock import (
    ModeState,
    apply_mirror_kick,
    bcjlss_output_state,
    bcjlss_witness,
    case_probability_table,
    compare_transcription,
    mode_projection_probability,
    output_state,
    reference_output_state,
    zero_mode_probability,
)
from .beam import (
    BeamComponent,
    BeamField,
    field_at,
    quadcell_signal,
    total_intensity,
)
from .spectra import (
    AttributionReport,
    PowerSpectrum,
    TimeSeries,
    attribute_peaks,
    power_spectrum,
    sample_detector,
)

__all__ = [
    "MIRRORS",
    "CollisionReport",
    "Scenario",
    "check_frequency_plan",
    "standard_case",
    "EpsSeries",
    "inv_sqrt_one_plus_sq",
    "ModeState",
    "apply_mirror_kick",
    "bcjlss_output_state",
    "bcjlss_witness",
    "case_probability_table",
    "compare_transcription",
    "mode_projection_probability",
    "output_state",
    "reference_output_state",
    "zero_mode_probability",
    "BeamComponent",
    "BeamField",
    "field_at",
    "quadcell_signal",
    "total_intensity",
    "AttributionReport",
    "PowerSpectrum",
    "TimeSeries",
    "attribute_peaks",
    "power_spectrum",
    "sample_detector",
]

__version__ = "0.1.0"
