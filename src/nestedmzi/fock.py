"""Single-photon frequency-mode model of the nested interferometer.

A photon bouncing off a vibrating mirror picks up a small sideband at the
mirror's frequency. Modes are labeled by an occupancy string with one bit
per mirror, in mirror order A,B,C,E,F ("10000" = sideband from mirror A
only, "00000" = the unmodulated zero mode). Amplitudes are truncated power
series in the kick amplitude eps (see series.EpsSeries), so each order can
be inspected exactly; a ModeState keeps them as one row per mode.

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
from itertools import combinations

import numpy as np

from .scenario import MIRRORS, PATHS, path_weights, standard_case
from .series import EpsSeries, inv_sqrt_one_plus_sq

ZERO_LABEL = "0" * len(MIRRORS)

# Row i is the mode whose label, read as a binary number, is i: the first
# mirror is the highest bit, and row order is sorted-label order.
_ROWS = np.arange(2 ** len(MIRRORS))
_BIT = {m: 1 << (len(MIRRORS) - 1 - i) for i, m in enumerate(MIRRORS)}
# Per mirror: (rows without its bit, the same rows with the bit set).
_PAIRS = {
    m: np.stack((_ROWS[_ROWS & b == 0], _ROWS[_ROWS & b == 0] | b))
    for m, b in _BIT.items()
}
# Per path of scenario.PATHS, per subset size k: the rows of the modes that
# carry the bits of a k-mirror subset of the path's mirrors.
_SUBSETS = [
    [
        np.array([sum(_BIT[m] for m in subset) for subset in combinations(path, k)])
        for k in range(len(path) + 1)
    ]
    for path in PATHS
]


def _row(label: str) -> int:
    if len(label) != len(MIRRORS) or any(ch not in "01" for ch in label):
        raise ValueError(f"bad mode label {label!r}")
    return int(label, 2)


def _label(row) -> str:
    return format(row, f"0{len(MIRRORS)}b")


class ModeState:
    """Built from {label: EpsSeries}; a label not given has amplitude 0.

    ``coeffs[i]`` holds the series coefficients of the mode in row i and
    ``mask[i]`` marks it populated. The mask is not derived from the
    coefficients: a populated mode may cancel to an all-zero series.
    """

    __slots__ = ("coeffs", "mask")

    def __init__(self, amplitudes: dict):
        rows = [_row(label) for label in amplitudes]
        orders = {s.order for s in amplitudes.values()}
        if len(orders) > 1:
            raise ValueError("mixed series orders in one state")
        self.coeffs = np.zeros((len(_ROWS), max(orders, default=0) + 1), complex)
        for row, s in zip(rows, amplitudes.values()):
            self.coeffs[row] = s.coeffs
        self.mask = np.zeros(len(_ROWS), bool)
        self.mask[rows] = True

    @classmethod
    def _of(cls, coeffs: np.ndarray, mask: np.ndarray) -> "ModeState":
        state = cls.__new__(cls)
        state.coeffs, state.mask = coeffs, mask
        return state

    @property
    def order(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def amplitudes(self) -> dict:
        """{label: EpsSeries} of the populated modes, in label order."""
        return {label: self.amplitude(label) for label in self.support()}

    def amplitude(self, label: str) -> EpsSeries:
        return EpsSeries(self.coeffs[_row(label)])

    def support(self):
        return [_label(i) for i in np.flatnonzero(self.mask)]

    def eval(self, eps: float) -> dict:
        return {lab: s.eval(eps) for lab, s in self.amplitudes.items()}


def apply_mirror_kick(state: ModeState, mirror: str) -> ModeState:
    """One bounce off a vibrating mirror, Fock-space form.

    c_bit0 -> (c_bit0 + eps * c_bit1) / sqrt(1 + eps^2) on the mirror's
    bit: each row without the bit is multiplied by the series of
    1/sqrt(1 + eps^2), and the row with the bit set gets the same product
    one power of eps up. Each path meets each mirror at most once, so a
    label that already carries the bit is a usage error, not a physical
    branch.
    """
    if mirror not in _BIT:
        raise ValueError(f"unknown mirror {mirror!r}")
    low, high = _PAIRS[mirror]
    if state.mask[high].any():
        raise ValueError(
            f"mirror {mirror} bit already set in label "
            f"{_label(high[state.mask[high]][0])}; "
            "each mirror is visited at most once per path"
        )
    rows, n = state.coeffs[low], state.order + 1
    product = np.zeros_like(rows)
    for k, s in enumerate(inv_sqrt_one_plus_sq(state.order).coeffs):
        product[:, k:] += s * rows[:, : n - k]
    coeffs = np.zeros_like(state.coeffs)
    coeffs[low] = product
    coeffs[high, 1:] = product[:, :-1]
    mask = np.zeros_like(state.mask)
    mask[low] = mask[high] = state.mask[low]
    return ModeState._of(coeffs, mask)


def output_state(phi: float, kappa: float, order: int = 4) -> ModeState:
    """Detector-port state: apply_mirror_kick chained along each of the
    scenario.PATHS, in closed form.

    Every kick multiplies by 1/sqrt(1 + eps^2), and by eps on the branch
    that sets the mirror's bit. So a path of weight w (scenario.path_weights)
    through the mirrors M puts (w/3) eps^|S| (1 + eps^2)^(-|M|/2) on the
    mode of every subset S of M. A path of weight 0 populates nothing; the
    modes of the others stay populated where the paths cancel.
    """
    stay = inv_sqrt_one_plus_sq(order)
    powers = [stay]  # powers[k] = stay ** (k + 1)
    while len(powers) < max(map(len, PATHS)):
        powers.append(powers[-1] * stay)
    coeffs = np.zeros((len(_ROWS), order + 1), complex)
    mask = np.zeros(len(_ROWS), bool)
    for weight, mirrors, subsets in zip(path_weights(phi, kappa), PATHS, _SUBSETS):
        if weight == 0:
            continue
        base = np.array(powers[len(mirrors) - 1].coeffs) * (weight / 3.0)
        for size, rows in enumerate(subsets):
            coeffs[rows, size:] += base[: max(order + 1 - size, 0)]
            mask[rows] = True
    return ModeState._of(coeffs, mask)


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
    c, n = state.coeffs[state.mask], state.order + 1
    conj, norm = c.conj(), np.zeros(n, complex)
    for k in range(n):
        norm[k:] += c[:, k] @ conj[:, : n - k]
    return EpsSeries(norm)


def mode_projection_probability(state: ModeState, mirror: str, epsilon: float) -> float:
    """Incoherent projector probability onto all labels with the mirror's bit."""
    values = state.coeffs[_PAIRS[mirror][1]] @ epsilon ** np.arange(state.order + 1)
    return float(np.sum(np.abs(values) ** 2))


def zero_mode_probability(state: ModeState, epsilon: float) -> float:
    return abs(state.amplitude(ZERO_LABEL).eval(epsilon)) ** 2


def projection_leading_coeff(state: ModeState, mirror: str) -> float:
    """Exact eps^2 coefficient of the projector probability series:
    c_0 c_2* + c_1 c_1* + c_2 c_0* summed over the rows with the bit."""
    if state.order < 2:
        raise ValueError(f"the eps^2 coefficient needs order >= 2, got {state.order}")
    c = state.coeffs[_PAIRS[mirror][1]]
    return float(np.sum(c[:, :3] * c[:, 2::-1].conj()).real)


def probability_table(
    phi: float, kappa: float, epsilon: float, order: int = 4
) -> dict:
    """Projector probabilities for every mirror plus the zero mode."""
    state = output_state(phi, kappa, order)
    table = {m: mode_projection_probability(state, m, epsilon) for m in MIRRORS}
    table["zero"] = zero_mode_probability(state, epsilon)
    return table


def case_probability_table(case_id: str, epsilon: float) -> dict:
    """probability_table of a canonical case (a, b or c), at order 4."""
    sc = standard_case(case_id)
    return probability_table(sc.phi, sc.kappa, epsilon)


def bcjlss_output_state(phi: float, kappa: float, order: int = 4) -> ModeState:
    """Three-term output state used by BCJLSS (eps-independent coefficients)."""
    amps = {
        "01011": EpsSeries.const(-1.0 / 3.0, order),
        "10011": EpsSeries.const(cmath.exp(1j * phi) / 3.0, order),
    }
    if kappa != 0:
        amps["00100"] = EpsSeries.const(kappa / 3.0, order)
    return ModeState(amps)


def bcjlss_witness(state: ModeState, mirror: str) -> float:
    """Squared scalar product with the unweighted sum of bit-set kets.

    Coherent: the eps^0 amplitudes on different labels interfere before
    squaring. Kept unnormalized exactly as defined (the post-selected ket
    has norm 4, not 1).
    """
    return float(abs(np.sum(state.coeffs[_PAIRS[mirror][1], 0])) ** 2)


# -- transcription comparison -------------------------------------------


@dataclass(frozen=True)
class CoefficientDiff:
    label: str
    power: int
    computed: complex
    transcribed: complex


@dataclass(frozen=True)
class TranscriptionReport:
    """Path enumeration vs literal transcription: the coefficients off by > 1e-12.

    extra_terms: labels the transcription omits entirely but the path model
    produces (the E+F-only label "00011" at second order).
    normalization_drift: per-mirror 1/sqrt(1+eps^2) corrections appearing
    two powers above a transcribed label's leading order; the transcription
    omits them by construction.
    unexpected: anything else -- must be empty for the check to pass.
    """

    extra_terms: tuple
    normalization_drift: tuple
    unexpected: tuple

    @property
    def ok(self) -> bool:
        return len(self.unexpected) == 0

    @property
    def extra_term_detected(self) -> bool:
        return any(d.label == "00011" and d.power == 2 for d in self.extra_terms)


def compare_transcription(phi: float, order: int = 4) -> TranscriptionReport:
    """Compare output_state(phi, 1, order) with reference_output_state
    coefficient by coefficient; only the disagreeing ones are visited."""
    computed = output_state(phi, 1.0, order)
    transcribed = reference_output_state(phi, order)
    rows = np.flatnonzero(computed.mask | transcribed.mask)
    a, b = computed.coeffs[rows], transcribed.coeffs[rows]
    nonzero = b != 0
    # power of each row's first transcribed term, -1 for rows not transcribed
    leading = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), -1)[:, None]
    conditions = [np.abs(a - b) <= 1e-12, leading < 0, np.arange(order + 1) > leading]
    # 0 agreed, 1 extra term, 2 normalization drift, 3 unexpected
    kind = np.select(conditions, [0, 1, 2], 3)
    found = ([], [], [])
    for i, k in zip(*np.nonzero(kind)):
        found[kind[i, k] - 1].append(
            CoefficientDiff(_label(rows[i]), int(k), complex(a[i, k]), complex(b[i, k]))
        )
    return TranscriptionReport(*map(tuple, found))
