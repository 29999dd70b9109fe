"""Single-photon frequency-mode model of the nested interferometer.

A photon bouncing off a vibrating mirror picks up a small sideband at the
mirror's frequency. Modes are labeled by a 5-bit occupancy string in mirror
order A,B,C,E,F ("10000" = sideband from mirror A only, "00000" = the
unmodulated zero mode). Amplitudes are truncated power series in the kick
amplitude eps (see series.EpsSeries), so each order can be inspected
exactly.

Two detection procedures are implemented side by side:

* projector probabilities -- incoherent sum of |amplitude|^2 over every
  basis label carrying a given mirror's bit;
* the BCJLSS scalar-product witness -- a coherent sum of amplitudes over
  the same labels, squared afterwards.

They agree whenever at most one label with the bit is populated and differ
otherwise, which is the crux of the dispute the models reproduce.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

from .scenario import MIRRORS, Scenario, standard_case
from .series import EpsSeries, inv_sqrt_one_plus_sq

ZERO_LABEL = "00000"

_BIT = {m: i for i, m in enumerate(MIRRORS)}

# Detector-port path decomposition: amplitude and mirrors encountered.
# path-C = kappa/3 via the free arm; path-A and path-B thread the inner
# loop via E and F. The phases are fixed uniquely by matching the known
# output state: the C-mode term forces kappa/3, the A-mode term e^{i phi}/3
# and the B-mode term -1/3; the zero-mode coefficient e^{i phi}/3 and the
# E/F coefficients (e^{i phi}-1)/3 then come out as consistency checks.
def _detector_paths(phi: float, kappa: float):
    return (
        (kappa / 3.0, ("C",)),
        (cmath.exp(1j * phi) / 3.0, ("E", "A", "F")),
        (-1.0 / 3.0, ("E", "B", "F")),
    )


def label_has_bit(label: str, mirror: str) -> bool:
    return label[_BIT[mirror]] == "1"


def label_with_bit(label: str, mirror: str) -> str:
    i = _BIT[mirror]
    return label[:i] + "1" + label[i + 1 :]


def _check_label(label: str) -> None:
    if len(label) != 5 or any(ch not in "01" for ch in label):
        raise ValueError(f"bad mode label {label!r}")


@dataclass(frozen=True)
class ModeState:
    """Map from 5-bit mode label to amplitude series. Missing label = 0."""

    amplitudes: dict

    def __post_init__(self):
        for label in self.amplitudes:
            _check_label(label)
        orders = {s.order for s in self.amplitudes.values()}
        if len(orders) > 1:
            raise ValueError("mixed series orders in one state")

    @property
    def order(self) -> int:
        if not self.amplitudes:
            return 0
        return next(iter(self.amplitudes.values())).order

    def amplitude(self, label: str) -> EpsSeries:
        _check_label(label)
        return self.amplitudes.get(label, EpsSeries.zero(self.order))

    def support(self):
        return sorted(self.amplitudes)

    def eval(self, eps: float) -> dict:
        return {lab: s.eval(eps) for lab, s in self.amplitudes.items()}

    def to_dict(self) -> dict:
        return {
            lab: [[c.real, c.imag] for c in s.coeffs]
            for lab, s in sorted(self.amplitudes.items())
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModeState":
        return cls(
            {
                lab: EpsSeries(tuple(complex(re, im) for re, im in coeffs))
                for lab, coeffs in data.items()
            }
        )


def apply_mirror_kick(state: ModeState, mirror: str) -> ModeState:
    """One bounce off a vibrating mirror, Fock-space form.

    c_bit0 -> (c_bit0 + eps * c_bit1) / sqrt(1 + eps^2) on the mirror's
    bit. Each path meets each mirror at most once, so a label that already
    carries the bit is a usage error, not a physical branch.
    """
    if mirror not in _BIT:
        raise ValueError(f"unknown mirror {mirror!r}")
    order = state.order
    stay = inv_sqrt_one_plus_sq(order)
    flip = EpsSeries.monomial(1.0, 1, order) * stay
    out: dict = {}
    for label, amp in state.amplitudes.items():
        if label_has_bit(label, mirror):
            raise ValueError(
                f"mirror {mirror} bit already set in label {label}; "
                "each mirror is visited at most once per path"
            )
        kicked = label_with_bit(label, mirror)
        for lab, term in ((label, amp * stay), (kicked, amp * flip)):
            if lab in out:
                out[lab] = out[lab] + term
            else:
                out[lab] = term
    return ModeState(out)


def output_state(phi: float, kappa: float, order: int = 4) -> ModeState:
    """Detector-port state from explicit path enumeration."""
    total: dict = {}
    for base_amp, mirrors in _detector_paths(phi, kappa):
        if base_amp == 0:
            continue
        st = ModeState({ZERO_LABEL: EpsSeries.const(base_amp, order)})
        for m in mirrors:
            st = apply_mirror_kick(st, m)
        for lab, amp in st.amplitudes.items():
            if lab in total:
                total[lab] = total[lab] + amp
            else:
                total[lab] = amp
    return ModeState(total)


def propagate_detector_port(scenario: Scenario) -> ModeState:
    return output_state(scenario.phi, scenario.kappa, scenario.series_order)


def reference_output_state(phi: float, order: int = 4) -> ModeState:
    """Literal transcription of the corrected output state (arm C open).

    No normalization corrections are applied: this is the hand-written
    expression kept verbatim for comparison against the path enumeration.
    """
    n = 1.0 / 3.0
    e = cmath.exp(1j * phi)

    def mono(value, power):
        return EpsSeries.monomial(n * value, power, order)

    return ModeState(
        {
            "00000": mono(e, 0),
            "00100": mono(1.0, 1),
            "00010": mono(e - 1.0, 1),
            "00001": mono(e - 1.0, 1),
            "10000": mono(e, 1),
            "01000": mono(-1.0, 1),
            "10010": mono(e, 2),
            "10001": mono(e, 2),
            "01010": mono(-1.0, 2),
            "01001": mono(-1.0, 2),
            "10011": mono(e, 3),
            "01011": mono(-1.0, 3),
        }
    )


def norm_series(state: ModeState) -> EpsSeries:
    """Sum of |amplitude|^2 as a series (real coefficients up to rounding)."""
    total = EpsSeries.zero(state.order)
    for amp in state.amplitudes.values():
        total = total + amp * amp.conjugate()
    return total


def mode_projection_probability(state: ModeState, mirror: str, epsilon: float) -> float:
    """Incoherent projector probability onto all labels with the mirror's bit."""
    return sum(
        abs(amp.eval(epsilon)) ** 2
        for lab, amp in state.amplitudes.items()
        if label_has_bit(lab, mirror)
    )


def zero_mode_probability(state: ModeState, epsilon: float) -> float:
    return abs(state.amplitude(ZERO_LABEL).eval(epsilon)) ** 2


def projection_leading_coeff(state: ModeState, mirror: str) -> float:
    """Exact eps^2 coefficient of the projector probability series."""
    total = EpsSeries.zero(state.order)
    for lab, amp in state.amplitudes.items():
        if label_has_bit(lab, mirror):
            total = total + amp * amp.conjugate()
    return total.coeffs[2].real


def probability_table(
    phi: float, kappa: float, epsilon: float, order: int = 4
) -> dict:
    """Projector probabilities for all five mirrors plus the zero mode."""
    state = output_state(phi, kappa, order)
    table = {m: mode_projection_probability(state, m, epsilon) for m in MIRRORS}
    table["zero"] = zero_mode_probability(state, epsilon)
    return table


def case_probability_table(case_id: str, epsilon: float, order: int = 4) -> dict:
    """probability_table of a canonical case (a, b or c)."""
    sc = standard_case(case_id)
    return probability_table(sc.phi, sc.kappa, epsilon, order)


def bcjlss_output_state(phi: float, kappa: float, order: int = 4) -> ModeState:
    """Three-term output state used by BCJLSS (eps-independent coefficients)."""
    amps = {
        "01011": EpsSeries.const(-1.0 / 3.0, order),
        "10011": EpsSeries.const(cmath.exp(1j * phi) / 3.0, order),
    }
    if kappa != 0:
        amps["00100"] = EpsSeries.const(kappa / 3.0, order)
    return ModeState(amps)


def bcjlss_witness(state: ModeState, mirror: str, epsilon: float = 0.0) -> float:
    """Squared scalar product with the unweighted sum of bit-set kets.

    Coherent: amplitudes on different labels interfere before squaring.
    Kept unnormalized exactly as defined (the post-selected ket has norm
    4, not 1).
    """
    total = sum(
        amp.eval(epsilon)
        for lab, amp in state.amplitudes.items()
        if label_has_bit(lab, mirror)
    )
    return abs(total) ** 2


# -- transcription comparison -------------------------------------------


@dataclass(frozen=True)
class CoefficientDiff:
    label: str
    power: int
    computed: complex
    transcribed: complex


@dataclass(frozen=True)
class TranscriptionReport:
    """Path enumeration vs literal transcription, coefficient by coefficient.

    extra_terms: labels the transcription omits entirely but the path model
    produces (the E+F-only label "00011" at second order).
    normalization_drift: per-mirror 1/sqrt(1+eps^2) corrections appearing
    two powers above a transcribed label's leading order; the transcription
    omits them by construction.
    unexpected: anything else -- must be empty for the check to pass.
    """

    agreed: tuple
    extra_terms: tuple
    normalization_drift: tuple
    unexpected: tuple

    @property
    def ok(self) -> bool:
        return len(self.unexpected) == 0

    @property
    def extra_term_detected(self) -> bool:
        return any(d.label == "00011" and d.power == 2 for d in self.extra_terms)


def compare_transcription(
    phi: float, order: int = 4, tol: float = 1e-12
) -> TranscriptionReport:
    computed = output_state(phi, 1.0, order)
    transcribed = reference_output_state(phi, order)

    leading = {}
    for lab, amp in transcribed.amplitudes.items():
        for k, c in enumerate(amp.coeffs):
            if abs(c) > 0:
                leading[lab] = k
                break

    agreed, extra, drift, unexpected = [], [], [], []
    labels = sorted(set(computed.amplitudes) | set(transcribed.amplitudes))
    for lab in labels:
        a = computed.amplitude(lab)
        b = transcribed.amplitude(lab)
        for k in range(order + 1):
            if abs(a.coeffs[k] - b.coeffs[k]) <= tol:
                agreed.append((lab, k))
                continue
            diff = CoefficientDiff(lab, k, a.coeffs[k], b.coeffs[k])
            if lab not in leading:
                extra.append(diff)
            elif k > leading[lab]:
                drift.append(diff)
            else:
                unexpected.append(diff)
    return TranscriptionReport(
        agreed=tuple(agreed),
        extra_terms=tuple(extra),
        normalization_drift=tuple(drift),
        unexpected=tuple(unexpected),
    )
