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
import functools
from dataclasses import dataclass

import numpy as np

from .scenario import MIRRORS, PATHS, path_weights, standard_case
from .series import EpsSeries, inv_sqrt_one_plus_sq

# Row i is the mode whose label, read as a binary number, is i: the first
# mirror is the highest bit, and row order is sorted-label order.
_ROWS = np.arange(2 ** len(MIRRORS))


class _ByMirror(dict):
    def __missing__(self, mirror):
        raise ValueError(f"unknown mirror {mirror!r}")


# Each mirror's index in MIRRORS; _BITS[i] is mirror i's bit in a row number.
_INDEX = _ByMirror((m, i) for i, m in enumerate(MIRRORS))
_BITS = 1 << np.arange(len(MIRRORS))[::-1]
# [0, i]: the rows without mirror i's bit; [1, i]: the same rows with the bit set.
_LOW = np.array([_ROWS[_ROWS & b == 0] for b in _BITS])
_BIT_ROWS = np.stack((_LOW, _LOW | _BITS[:, None]))
# Per path of scenario.PATHS: the row of the mode of all its mirrors, and per
# row, how many of its mirrors have their bit set there, or -1 if the row has
# the bit of a mirror off the path (output_state adds 0 there, bit for bit).
_PATH_BITS = [sum(_BITS[_INDEX[m]] for m in path) for path in PATHS]
_SIZES = np.where(_ROWS & ~np.array(_PATH_BITS)[:, None], -1, np.bitwise_count(_ROWS).astype(int))
_BLOCK = 16  # powers of eps per norm_series block: its memory grows as 16 (order + 1)


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
    Both arrays are read-only, so the readouts' memos of them stay valid.
    """

    __slots__ = ("coeffs", "mask", "_probs", "_sums")

    def __init__(self, amplitudes: dict):
        rows = [_row(label) for label in amplitudes]
        orders = {s.order for s in amplitudes.values()}
        if len(orders) > 1:
            raise ValueError("mixed series orders in one state")
        coeffs = np.zeros((len(_ROWS), max(orders, default=0) + 1), complex)
        for row, s in zip(rows, amplitudes.values()):
            coeffs[row] = s.coeffs
        mask = np.zeros(len(_ROWS), bool)
        mask[rows] = True
        self._set(coeffs, mask)

    @classmethod
    def _of(cls, coeffs: np.ndarray, mask: np.ndarray) -> "ModeState":
        return cls.__new__(cls)._set(coeffs, mask)

    def _set(self, coeffs: np.ndarray, mask: np.ndarray) -> "ModeState":
        coeffs.setflags(write=False)
        mask.setflags(write=False)
        self.coeffs, self.mask, self._probs, self._sums = coeffs, mask, None, None
        return self

    def _probabilities(self, epsilon: float) -> tuple:
        """(zero mode, projector of each mirror) at epsilon, from one evaluation
        of every row; kept for the last epsilon."""
        memo = self._probs
        if memo is None or memo[0] != epsilon:
            probs = np.abs(self.coeffs @ epsilon ** np.arange(self.order + 1)) ** 2
            memo = self._probs = (epsilon, (float(probs[0]), *probs[_BIT_ROWS[1]].sum(1).tolist()))
        return memo[1]

    def _bit_sums(self) -> np.ndarray:
        if self._sums is None:
            self._sums = self.coeffs[_BIT_ROWS[1], 0].sum(axis=1)
        return self._sums

    @property
    def order(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def amplitudes(self) -> dict:
        """{label: EpsSeries} of the populated modes, in label order."""
        return {_label(i): EpsSeries(self.coeffs[i]) for i in np.flatnonzero(self.mask)}

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
    low, high = _BIT_ROWS[:, _INDEX[mirror]]
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
    paths = zip(path_weights(phi, kappa), PATHS, _SIZES, _gathers(order))
    for weight, mirrors, sizes, gather in paths:
        if weight == 0:
            continue
        padded = np.zeros(order + 2, complex)
        np.multiply(powers[len(mirrors) - 1].coeffs, weight / 3.0, out=padded[:-1])
        coeffs += padded[gather]
        mask |= sizes >= 0
    return ModeState._of(coeffs, mask)


@functools.lru_cache(maxsize=16)
def _gathers(order: int) -> np.ndarray:
    """[path, row, j]: where the path's series is read for eps^j of the row; order + 1 reads 0."""
    sizes, j = np.where(_SIZES < 0, order + 1, _SIZES)[:, :, None], np.arange(order + 1)
    table = np.where(j >= sizes, j - sizes, order + 1)
    table.setflags(write=False)
    return table


# The transcription term by term: (row, power of eps, 3 x amplitude), e = exp(i phi).
_TRANSCRIPTION = tuple((_row(label), power, value) for label, power, value in (
    ("00000", 0, "e"), ("00100", 1, "1"), ("00010", 1, "e - 1"), ("00001", 1, "e - 1"),
    ("10000", 1, "e"), ("01000", 1, "-1"), ("10010", 2, "e"), ("10001", 2, "e"),
    ("01010", 2, "-1"), ("01001", 2, "-1"), ("10011", 3, "e"), ("01011", 3, "-1"),
))
_TRANSCRIBED = np.isin(_ROWS, [row for row, _, _ in _TRANSCRIPTION])


def reference_output_state(phi: float, order: int = 4) -> ModeState:
    """Literal transcription of the corrected output state (arm C open).

    No normalization corrections are applied: this is the hand-written
    expression kept verbatim for comparison against the path enumeration.
    Terms above the order are dropped; their labels stay populated.
    """
    n, e = 1.0 / 3.0, cmath.exp(1j * phi)
    values = {"e": e, "1": 1.0, "e - 1": e - 1.0, "-1": -1.0}
    coeffs = np.zeros((len(_ROWS), order + 1), complex)
    for row, power, value in _TRANSCRIPTION:
        if power <= order:
            coeffs[row, power] = n * values[value]
    return ModeState._of(coeffs, _TRANSCRIBED)


def norm_series(state: ModeState) -> EpsSeries:
    """Sum of |amplitude|^2 as a series (real coefficients up to rounding)."""
    c, n = state.coeffs[state.mask], state.order + 1
    conj, norm = c.conj(), np.zeros(n, complex)
    for j in range(0, n, _BLOCK):
        # gram[i, k] lands on eps^(j + i + k): read one column short, padded row i moves i right
        gram = c[:, j : j + _BLOCK].T @ conj
        rows = len(gram)
        skew = np.concatenate((gram, np.zeros((rows, rows))), axis=1)
        norm[j:] += skew.ravel()[:-rows].reshape(rows, -1).sum(axis=0)[: n - j]
    return EpsSeries(norm)


def mode_projection_probability(state: ModeState, mirror: str, epsilon: float) -> float:
    """Incoherent projector probability onto all labels with the mirror's bit."""
    return state._probabilities(epsilon)[1 + _INDEX[mirror]]


def zero_mode_probability(state: ModeState, epsilon: float) -> float:
    """|amplitude|^2 of the zero mode "00000", from the projectors' evaluation."""
    return state._probabilities(epsilon)[0]


def projection_leading_coeff(state: ModeState, mirror: str) -> float:
    """Exact eps^2 coefficient of the projector probability series:
    c_0 c_2* + c_1 c_1* + c_2 c_0* summed over the rows with the bit."""
    if state.order < 2:
        raise ValueError(f"the eps^2 coefficient needs order >= 2, got {state.order}")
    c = state.coeffs[_BIT_ROWS[1, _INDEX[mirror]]]
    return float((c[:, :3] * c[:, 2::-1].conj()).sum().real)


def probability_table(phi: float, kappa: float, epsilon: float, order: int = 4) -> dict:
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
    """BCJLSS's eps-independent state: a path of weight w (scenario.path_weights)
    puts w/3 at eps^0 on the mode of all its mirrors, none if w = 0 (as output_state)."""
    coeffs, mask = np.zeros((len(_ROWS), order + 1), complex), np.zeros(len(_ROWS), bool)
    for weight, row in zip(path_weights(phi, kappa), _PATH_BITS):
        if weight != 0:
            coeffs[row, 0], mask[row] = weight / 3.0, True
    return ModeState._of(coeffs, mask)


def bcjlss_witness(state: ModeState, mirror: str) -> float:
    """Squared scalar product with the unweighted sum of bit-set kets.

    Coherent: the eps^0 amplitudes on different labels interfere before
    squaring. Kept unnormalized exactly as defined (the post-selected ket
    has norm 4, not 1).
    """
    return float(abs(state._bit_sums()[_INDEX[mirror]]) ** 2)


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
    def extra_term(self):
        """The CoefficientDiff of the E+F-only label "00011" at eps^2, or None."""
        return next((d for d in self.extra_terms if d.label == "00011" and d.power == 2), None)

    @property
    def extra_term_detected(self) -> bool:
        return self.extra_term is not None


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
    at = np.nonzero(kind)
    labels = [_label(row) for row in rows.tolist()]
    found = ([], [], [])
    for i, k, t, x, y in zip(*(v.tolist() for v in (*at, kind[at], a[at], b[at]))):
        found[t - 1].append(CoefficientDiff(labels[i], k, x, y))
    return TranscriptionReport(*map(tuple, found))
