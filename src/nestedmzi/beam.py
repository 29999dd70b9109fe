"""Exact classical Gaussian-beam model of the interferometer output.

The output field is a sum of up to three shifted Gaussians
coeff * exp(-(y - shift)^2), one per interferometer path, with beam width
fixed to 1 (shifts are measured in beam widths). Overlap integrals of
shifted Gaussians have closed forms, so the total-intensity and quad-cell
detector signals are exact. One array engine evaluates them, and the
first-order linearization, over whole arrays of times or fields; the
scalar per-field functions wrap it. Quadrature versions exist only as
independent test oracles.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .scenario import INCIDENCE, MIRRORS, Scenario, path_weights

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


@functools.lru_cache(maxsize=8)
def _leggauss_cached(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


@dataclass(frozen=True)
class BeamComponent:
    """One Gaussian addend coeff * exp(-(y - shift)^2)."""

    coeff: complex
    shift: float


@dataclass(frozen=True)
class BeamField:
    components: tuple

    def value(self, y):
        """Field amplitude at y (scalar or numpy array)."""
        total = 0j if np.isscalar(y) else np.zeros(np.shape(y), dtype=complex)
        for c in self.components:
            total = total + c.coeff * np.exp(-((y - c.shift) ** 2))
        return total

    def arrays(self) -> tuple:
        """(coeffs, shifts) of shape (P,), the array engine's input."""
        return (
            np.array([c.coeff for c in self.components], dtype=complex),
            np.array([c.shift for c in self.components], dtype=float),
        )


def mirror_shifts(scenario: Scenario, t) -> dict:
    """d_i(t) = amplitude_i * sin(2 pi f_i t) for every mirror.

    ``t`` is a time or an array of times; each value has the shape of ``t``.
    """
    return {
        m: scenario.vib_amplitude[m]
        * np.sin(2.0 * math.pi * scenario.mirror_freq[m] * t)
        for m in MIRRORS
    }


# -- path table ----------------------------------------------------------


def path_coefficients(scenario: Scenario) -> np.ndarray:
    """Coefficients of the scenario.PATHS (C, A, B): (kappa, -1, e^{i phi}),
    the path_weights with the A-path and B-path entries swapped."""
    return np.array(path_weights(scenario.phi, scenario.kappa), complex)[[0, 2, 1]]


def path_shifts(scenario: Scenario, t) -> np.ndarray:
    """Shifts of the scenario.PATHS, shape (len(PATHS),) + shape(t).

    ``t`` is a time or a 1-D array of times. A path's shift is the sum of
    the shifts of the mirrors it meets.
    """
    d = mirror_shifts(scenario, t)
    return INCIDENCE @ np.array([d[m] for m in MIRRORS])


# -- erf -----------------------------------------------------------------
#
# A numpy port of erf from fdlibm's s_erf.c (Sun Microsystems, freely
# redistributable; glibc's erf descends from it): the same bands, rational
# approximations and coefficients, each band evaluated only on its own
# elements. It agrees with the standard library's erf within 1 ulp.
# scipy.special is not used because importing it costs more than a spectrum
# run spends sampling.

_ERF_TINY = 2.0**-28
_ERF_SMALL = 0.84375
# |x| below which erfc uses the ra/sa fit: the double with the high word
# 0x4006DB6E and a zero low word, about 1/0.35, as s_erf.c compares it.
_ERFC_SPLIT = float.fromhex("0x1.6db6ep+1")
_ERF_ONE = 6.0  # erf rounds to +-1 from here on
_HIGH_WORD = np.uint64(0xFFFFFFFF00000000)

_EFX = 1.28379167095512586316e-01  # 2/sqrt(pi) - 1
_ERX = 8.45062911510467529297e-01  # erf(x) = erx + P/Q on [0.84375, 1.25)
# Coefficients, lowest order first; each denominator starts with 1.
_PP = (
    1.28379167095512558561e-01, -3.25042107247001499370e-01,
    -2.84817495755985104766e-02, -5.77027029648944159157e-03,
    -2.37630166566501626084e-05,
)
_QQ = (
    1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
    5.08130628187576562776e-03, 1.32494738004321644526e-04,
    -3.96022827877536812320e-06,
)
_PA = (
    -2.36211856075265944077e-03, 4.14856118683748331666e-01,
    -3.72207876035701323847e-01, 3.18346619901161753674e-01,
    -1.10894694282396677476e-01, 3.54783043256182359371e-02,
    -2.16637559486879084300e-03,
)
_QA = (
    1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01,
    7.18286544141962662868e-02, 1.26171219808761642112e-01,
    1.36370839120290507362e-02, 1.19844998467991074170e-02,
)
_RA = (
    -9.86494403484714822705e-03, -6.93858572707181764372e-01,
    -1.05586262253232909814e01, -6.23753324503260060396e01,
    -1.62396669462573470355e02, -1.84605092906711035994e02,
    -8.12874355063065934246e01, -9.81432934416914548592e00,
)
_SA = (
    1.0, 1.96512716674392571292e01, 1.37657754143519042600e02,
    4.34565877475229228821e02, 6.45387271733267880336e02,
    4.29008140027567833386e02, 1.08635005541779435134e02,
    6.57024977031928170135e00, -6.04244152148580987438e-02,
)
_RB = (
    -9.86494292470009928597e-03, -7.99283237680523006574e-01,
    -1.77579549177547519889e01, -1.60636384855821916062e02,
    -6.37566443368389627722e02, -1.02509513161107724954e03,
    -4.83519191608651397019e02,
)
_SB = (
    1.0, 3.03380607434824582924e01, 3.25792512996573918826e02,
    1.53672958608443695994e03, 3.19985821950859553908e03,
    2.55305040643316442583e03, 4.74528541206955367215e02,
    -2.24409524465858183362e01,
)


def _horner(z, coeffs):
    """c0 + z (c1 + z (c2 + ...)), nested and rounded as in s_erf.c."""
    out = z * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        out += c
        out *= z
    out += coeffs[0]
    return out


def _erf_small(x, ax):
    """|x| < 0.84375: x + x P(x^2)/Q(x^2), and x + efx x below 2^-28.

    s_erf.c rescales below 2^-1015 only to keep the underflow flag clear;
    x + efx x is as accurate there.
    """
    z = x * x
    y = _horner(z, _PP)
    y /= _horner(z, _QQ)
    np.copyto(y, _EFX, where=ax < _ERF_TINY)
    y *= x
    y += x
    return y


def _erf_middle(x, ax):
    """0.84375 <= |x| < 1.25: sign(x) (erx + P(|x| - 1)/Q(|x| - 1))."""
    s = ax - 1.0
    p = _horner(s, _PA)
    p /= _horner(s, _QA)
    p += _ERX
    return np.copysign(p, x)


def _erf_tail(x, ax, r_coeffs, s_coeffs):
    """1.25 <= |x| < 6: sign(x) (1 - erfc|x|), erfc x = exp(-x^2 - 0.5625 + R/S) / x.

    R/S is a rational function of 1/x^2. z is |x| with the low 32 bits of
    its mantissa cleared, so z^2 is exact and only the small remainder
    x^2 - z^2 = (x - z)(x + z) rounds.
    """
    s = 1.0 / (ax * ax)
    ratio = _horner(s, r_coeffs) / _horner(s, s_coeffs)
    z = (ax.view(np.uint64) & _HIGH_WORD).view(np.float64)
    r = np.exp(-z * z - 0.5625) * np.exp((z - ax) * (z + ax) + ratio)
    return np.copysign(1.0 - r / ax, x)


# (upper bound of |x|, kernel) per band below 6, in increasing order.
_ERF_BANDS = (
    (_ERF_SMALL, _erf_small),
    (1.25, _erf_middle),
    (_ERFC_SPLIT, functools.partial(_erf_tail, r_coeffs=_RA, s_coeffs=_SA)),
    (_ERF_ONE, functools.partial(_erf_tail, r_coeffs=_RB, s_coeffs=_SB)),
)


def erf(x) -> np.ndarray:
    """Error function of a float array (or scalar), as a float array.

    NaN propagates, erf(-0.0) is -0.0 and |x| >= 6 gives +-1. When every
    |x| < 0.84375, as for every quad-cell argument at small shifts, one
    rational function runs on the whole array.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.ravel()
    ax = np.abs(x)
    if ax.max(initial=0.0) < _ERF_SMALL:  # False when x holds a NaN
        return _erf_small(x, ax).reshape(shape)
    out = np.where(ax >= _ERF_ONE, np.copysign(1.0, x), x)
    low = 0.0
    for high, kernel in _ERF_BANDS:
        inside = (ax >= low) & (ax < high)
        if inside.any():
            out[inside] = kernel(x[inside], ax[inside])
        low = high
    return out.reshape(shape)


# -- array engine --------------------------------------------------------
#
# Every closed form takes coefficients of shape (P,) or (P, N) and shifts of
# shape (P,) or (P, N) and returns values of the broadcast trailing shape:
# N time samples of one scenario, or N fields padded to P paths with zero
# coefficients. The scalar functions further down wrap these.


def _pairs(coeffs, shifts):
    """(weight, s_j, s_k) for every path pair j <= k with a nonzero weight.

    weight = Re(c_j conj(c_k)), doubled for j != k: the Gaussian overlap
    and the erf argument of the closed forms are symmetric in j and k.
    """
    for j in range(len(shifts)):
        for k in range(j, len(shifts)):
            weight = (coeffs[j] * np.conj(coeffs[k])).real
            if not np.any(weight):
                continue
            yield (weight if j == k else 2.0 * weight), shifts[j], shifts[k]


def exact_intensity(coeffs, shifts):
    """I_T = integral |Psi|^2 dy of Psi = sum_j c_j exp(-(y - s_j)^2).

    integral exp(-(y-a)^2) exp(-(y-b)^2) dy = sqrt(pi/2) exp(-(a-b)^2/2).
    """
    total = 0.0
    for weight, a, b in _pairs(coeffs, shifts):
        total = total + weight * np.exp(-((a - b) ** 2) / 2.0)
    return SQRT_HALF_PI * total


def exact_quadcell(coeffs, shifts):
    """Quad-cell difference dI = int_0^inf |Psi|^2 - int_-inf^0 |Psi|^2.

    Each Gaussian pair contributes
    sqrt(pi/2) * exp(-(a-b)^2/2) * erf((a+b)/sqrt(2)).
    """
    total = 0.0
    for weight, a, b in _pairs(coeffs, shifts):
        total = total + (
            weight
            * np.exp(-((a - b) ** 2) / 2.0)
            * erf((a + b) / math.sqrt(2.0))
        )
    return SQRT_HALF_PI * total


def second_order_intensities(coeffs, shifts):
    """Taylor expansion of exact_intensity through second order in shifts.

    I_T / sqrt(pi/2) = sum_j |c_j|^2
                     + sum_{j != k} Re(c_j conj(c_k)) (1 - (s_j - s_k)^2 / 2).
    """
    total = 0.0
    for weight, a, b in _pairs(coeffs, shifts):
        total = total + weight * (1.0 - ((a - b) ** 2) / 2.0)
    return SQRT_HALF_PI * total


def linear_moments(coeffs, shifts):
    """(s0, s1) of the first-order field Psi_lin(y) = exp(-y^2)(s0 + 2 s1 y).

    Each component is expanded exp(-(y-d)^2) ~ exp(-y^2)(1 + 2 y d), so
    s0 = sum of coefficients and s1 = sum of coeff * shift. For the
    blocked-arm case the static parts cancel (s0 = 0) and Psi_lin reduces
    to 2 y exp(-y^2) (d_B - d_A).
    """
    s0 = sum(coeffs)
    s1 = sum(c * s for c, s in zip(coeffs, shifts))
    return s0, s1


def linearized_intensities(coeffs, shifts):
    """(I_T, dI) of the linearized field, closed form.

    With Psi_lin = exp(-y^2)(s0 + 2 s1 y):
      I_T  = sqrt(pi/2) (|s0|^2 + |s1|^2)
      dI   = 2 Re(s0 conj(s1))
    using the Gaussian moments int exp(-2y^2) = sqrt(pi/2),
    int y^2 exp(-2y^2) = sqrt(pi/2)/4 and int_0^inf y exp(-2y^2) = 1/4.
    """
    s0, s1 = linear_moments(coeffs, shifts)
    i_lin = SQRT_HALF_PI * (np.abs(s0) ** 2 + np.abs(s1) ** 2)
    di_lin = 2.0 * (s0 * np.conj(s1)).real
    return i_lin, di_lin


def stack_fields(fields) -> tuple:
    """(coeffs, shifts) of shape (P, N) for N fields, P = most components.

    Fields with fewer components are padded with zero coefficients, which
    add nothing to any closed form.
    """
    width = max((len(f.components) for f in fields), default=0)
    coeffs = np.zeros((width, len(fields)), dtype=complex)
    shifts = np.zeros((width, len(fields)))
    for i, field in enumerate(fields):
        for p, c in enumerate(field.components):
            coeffs[p, i] = c.coeff
            shifts[p, i] = c.shift
    return coeffs, shifts


# -- scalar wrappers -----------------------------------------------------


def field_at(scenario: Scenario, t: float) -> BeamField:
    """Three-path output field; zero-coefficient components are dropped."""
    coeffs = path_coefficients(scenario)
    shifts = path_shifts(scenario, t)
    return BeamField(
        tuple(
            BeamComponent(complex(c), float(s))
            for c, s in zip(coeffs, shifts)
            if c != 0
        )
    )


def total_intensity(field: BeamField) -> float:
    """I_T = integral |Psi|^2 dy, in closed form (see exact_intensity)."""
    return float(exact_intensity(*field.arrays()))


def total_intensity_quadrature(
    field: BeamField, half_width: float = 8.0, step: float = 1e-3
) -> float:
    """Trapezoid oracle for total_intensity over y in [-half_width, half_width]."""
    if half_width < 8.0:
        raise ValueError("half_width must be >= 8")
    if step > 1e-2:
        raise ValueError("step must be <= 1e-2")
    n = int(round(2.0 * half_width / step)) + 1
    y = np.linspace(-half_width, half_width, n)
    if not field.components:
        return 0.0
    return float(np.trapezoid(np.abs(field.value(y)) ** 2, y))


def quadcell_signal(field: BeamField) -> float:
    """Quad-cell difference, in closed form (see exact_quadcell)."""
    return float(exact_quadcell(*field.arrays()))


def quadcell_signal_quadrature(
    field: BeamField, half_width: float = 8.0, nodes: int = 400
) -> float:
    """Gauss-Legendre oracle for quadcell_signal, one rule per half-line.

    A fixed high-order rule is used instead of the trapezoid because the
    integrand is truncated at y = 0 where its derivatives do not vanish.
    """
    if half_width < 8.0:
        raise ValueError("half_width must be >= 8")
    if nodes < 16:
        raise ValueError("nodes must be >= 16")
    x, w = _leggauss_cached(nodes)
    # map [-1, 1] -> [0, half_width]
    y = 0.5 * half_width * (x + 1.0)
    wy = 0.5 * half_width * w
    pos = float(np.sum(wy * np.abs(field.value(y)) ** 2))
    neg = float(np.sum(wy * np.abs(field.value(-y)) ** 2))
    return pos - neg


def linearized_profile(scenario: Scenario, t: float):
    """(s0, s1) of the first-order field at time t (see linear_moments)."""
    return linear_moments(path_coefficients(scenario), path_shifts(scenario, t))


def linearized_field_intensity(scenario: Scenario, t: float):
    """(I_T, dI) of the linearized field at time t (see linearized_intensities)."""
    return linearized_intensities(
        path_coefficients(scenario), path_shifts(scenario, t)
    )


def second_order_intensity(scenario: Scenario, t: float) -> float:
    """second_order_intensities of the scenario's field at time t.

    Predicts which doubled tones survive per case; differs from the exact
    value at fourth order in the shifts. The smallness bound applies to the
    individual mirror shifts (component shifts are sums of up to three).
    """
    bound = max(abs(d) for d in mirror_shifts(scenario, t).values())
    if bound > 0.05:
        raise ValueError(f"mirror shift {bound} exceeds the 0.05 expansion bound")
    return float(
        second_order_intensities(
            path_coefficients(scenario), path_shifts(scenario, t)
        )
    )
