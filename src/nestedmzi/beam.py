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


# -- quadrature rules of the oracles -------------------------------------
#
# Each rule is built on first use and cached read-only as a (nodes, weights)
# pair, so an oracle call is one weighted sum of |Psi|^2 over the nodes.


@functools.cache
def _trapezoid_rule() -> tuple:
    """16001-point trapezoid rule (step 1e-3) on [-8, 8].

    Each interval d of np.diff(y) puts d/2 on both of its ends: the rule of
    np.trapezoid(f, y), summed in a different order.
    """
    y = np.linspace(-8.0, 8.0, 16001)
    half = np.diff(y) / 2.0
    w = np.zeros(len(y))
    w[:-1] += half
    w[1:] += half
    y.flags.writeable = w.flags.writeable = False
    return y, w


@functools.cache
def _half_line_rule() -> tuple:
    """Gauss-Legendre rule for int_0^8 f - int_-8^0 f.

    The 400-point rule mapped to [0, 8], followed by its mirror image on
    [-8, 0] with negated weights.
    """
    x, w = np.polynomial.legendre.leggauss(400)
    y = 4.0 * (x + 1.0)  # [-1, 1] -> [0, 8]
    y, w = np.concatenate([y, -y]), np.concatenate([4.0 * w, -4.0 * w])
    y.flags.writeable = w.flags.writeable = False
    return y, w


def _rule_intensity(coeffs, gaussians, w) -> float:
    """sum_n w_n |Psi(y_n)|^2 of Psi = coeffs @ gaussians.

    The real and imaginary parts of Psi are the two rows of one real
    product; no complex array is formed.
    """
    parts = np.array([coeffs.real, coeffs.imag]) @ gaussians
    parts *= parts
    return float(np.sum(parts @ w))


@dataclass(frozen=True)
class BeamComponent:
    """One Gaussian addend coeff * exp(-(y - shift)^2)."""

    coeff: complex
    shift: float


@dataclass(frozen=True)
class BeamField:
    components: tuple

    def arrays(self) -> tuple:
        """(coeffs, shifts) of shape (P,), the array engine's input."""
        return (
            np.array([c.coeff for c in self.components], dtype=complex),
            np.array([c.shift for c in self.components], dtype=float),
        )


def _gaussian_block(field: BeamField, y) -> tuple:
    """(coeffs, gaussians) of a field at y: coeffs of shape (P,) and
    exp(-(y - shift_p)^2) of shape (P,) + shape(y), one real block."""
    coeffs, shifts = field.arrays()
    block = np.subtract.outer(shifts, y)
    np.square(block, out=block)
    np.negative(block, out=block)
    return coeffs, np.exp(block, out=block)


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
# |x| < 0.84375 holds for every quad-cell argument at small shifts, and only
# that band of erf from fdlibm's s_erf.c (Sun Microsystems, freely
# redistributable; glibc's erf descends from it) is ported to numpy, with its
# coefficients and nesting order. math.erf takes every other element.
# scipy.special is not used because importing it costs more than a spectrum
# run spends sampling.

_ERF_TINY = 2.0**-28
_ERF_SMALL = 0.84375

_EFX = 1.28379167095512586316e-01  # 2/sqrt(pi) - 1
# Coefficients, lowest order first; the denominator starts with 1.
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


def erf(x) -> np.ndarray:
    """Error function of a float array (or scalar), as a float array.

    Elements with |x| < 0.84375 go through one rational function, on the
    whole array when every element is that small, as for every quad-cell
    argument at small shifts. The rest, +-inf and NaN included, go to
    math.erf one at a time. erf(-0.0) is -0.0, +-inf gives +-1 and NaN
    propagates.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.ravel()
    ax = np.abs(x)
    if ax.max(initial=0.0) < _ERF_SMALL:  # False when x holds a NaN
        return _erf_small(x, ax).reshape(shape)
    small = ax < _ERF_SMALL
    out = np.empty_like(x)
    out[small] = _erf_small(x[small], ax[small])
    out[~small] = [math.erf(v) for v in x[~small].tolist()]
    return out.reshape(shape)


# -- array engine --------------------------------------------------------
#
# Every closed form takes coefficients of shape (P,) or (P, N) and shifts of
# shape (P,) or (P, N) and returns values of the broadcast trailing shape:
# N time samples of one scenario, or N fields padded to P paths with zero
# coefficients. The scalar functions further down wrap these.


def _zeros(coeffs, shifts):
    """Zeros of the broadcast trailing shape: where every engine sum starts."""
    return np.zeros(np.broadcast_shapes(np.shape(coeffs)[1:], np.shape(shifts)[1:]))


def _pair_sum(coeffs, shifts, kernel):
    """sum_{j,k} Re(c_j conj(c_k)) K(s_j, s_k) for a symmetric kernel K.

    Summed as sum_j K_jj Re(c_j conj(S)) + sum_{j<k} Re(c_j conj(c_k))
    (2 K_jk - K_jj - K_kk) with S = sum_j c_j, so two paths of equal shift
    add exactly 0 and nearly cancelling paths leave |S|^2, not a difference
    of O(1) terms. Zero-coefficient rows are skipped.
    """
    rows = [j for j in range(len(shifts)) if np.any(coeffs[j])]
    conj_sum = np.conj(sum(coeffs[j] for j in rows))
    diag = {j: kernel(shifts[j], shifts[j]) for j in rows}
    total = sum(
        (diag[j] * (coeffs[j] * conj_sum).real for j in rows), _zeros(coeffs, shifts)
    )
    for i, j in enumerate(rows):
        for k in rows[i + 1:]:
            weight = (coeffs[j] * np.conj(coeffs[k])).real
            total += weight * (2.0 * kernel(shifts[j], shifts[k]) - diag[j] - diag[k])
    return total


def _overlap(a, b):
    return np.exp(-((a - b) ** 2) / 2.0)


def exact_intensity(coeffs, shifts):
    """I_T = integral |Psi|^2 dy of Psi = sum_j c_j exp(-(y - s_j)^2).

    integral exp(-(y-a)^2) exp(-(y-b)^2) dy = sqrt(pi/2) exp(-(a-b)^2/2).
    """
    return SQRT_HALF_PI * _pair_sum(coeffs, shifts, _overlap)


def exact_quadcell(coeffs, shifts):
    """Quad-cell difference dI = int_0^inf |Psi|^2 - int_-inf^0 |Psi|^2.

    Each Gaussian pair contributes
    sqrt(pi/2) * exp(-(a-b)^2/2) * erf((a+b)/sqrt(2)).
    """
    return SQRT_HALF_PI * _pair_sum(
        coeffs, shifts, lambda a, b: _overlap(a, b) * erf((a + b) / math.sqrt(2.0))
    )


def second_order_intensities(coeffs, shifts):
    """Taylor expansion of exact_intensity through second order in shifts.

    I_T / sqrt(pi/2) = sum_j |c_j|^2
                     + sum_{j != k} Re(c_j conj(c_k)) (1 - (s_j - s_k)^2 / 2).
    """
    return SQRT_HALF_PI * _pair_sum(
        coeffs, shifts, lambda a, b: 1.0 - ((a - b) ** 2) / 2.0
    )


def linear_moments(coeffs, shifts):
    """(s0, s1) of the first-order field Psi_lin(y) = exp(-y^2)(s0 + 2 s1 y).

    Each component is expanded exp(-(y-d)^2) ~ exp(-y^2)(1 + 2 y d), so
    s0 = sum of coefficients and s1 = sum of coeff * shift. For the
    blocked-arm case the static parts cancel (s0 = 0) and Psi_lin reduces
    to 2 y exp(-y^2) (d_B - d_A).
    """
    s0 = sum(coeffs, _zeros(coeffs, shifts))
    s1 = sum((c * s for c, s in zip(coeffs, shifts)), _zeros(coeffs, shifts))
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


def total_intensity_quadrature(field: BeamField) -> float:
    """Trapezoid oracle for total_intensity: 16001 points, step 1e-3, on [-8, 8].

    |Psi|^2 is the square of the field evaluated term by term on the grid.
    """
    y, w = _trapezoid_rule()
    return _rule_intensity(*_gaussian_block(field, y), w)


def quadcell_signal(field: BeamField) -> float:
    """Quad-cell difference, in closed form (see exact_quadcell)."""
    return float(exact_quadcell(*field.arrays()))


def quadcell_signal_quadrature(field: BeamField) -> float:
    """Gauss-Legendre oracle for quadcell_signal, 400 nodes per half of [-8, 8].

    A fixed high-order rule is used instead of the trapezoid because the
    integrand is truncated at y = 0 where its derivatives do not vanish.
    """
    y, w = _half_line_rule()
    return _rule_intensity(*_gaussian_block(field, y), w)
