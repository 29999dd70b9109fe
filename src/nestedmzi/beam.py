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

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .scenario import MIRRORS, Scenario

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
    """Coefficients of the C, A and B paths: (kappa, -1, e^{i phi})."""
    return np.array(
        [scenario.kappa, -1.0, cmath.exp(1j * scenario.phi)], dtype=complex
    )


def path_shifts(scenario: Scenario, t) -> np.ndarray:
    """Shifts of the C, A and B paths, shape (3,) + shape(t).

    Path C hits mirror C only; the inner-arm paths hit A or B plus the
    outer mirrors E and F.
    """
    d = mirror_shifts(scenario, t)
    outer = d["E"] + d["F"]
    return np.array([d["C"], d["A"] + outer, d["B"] + outer])


# -- array engine --------------------------------------------------------
#
# Every closed form takes coefficients of shape (P,) or (P, N) and shifts of
# shape (P,) or (P, N) and returns values of the broadcast trailing shape:
# N time samples of one scenario, or N fields padded to P paths with zero
# coefficients. The scalar functions further down wrap these.

_erf_object = np.frompyfunc(math.erf, 1, 1)


def _erf(x) -> np.ndarray:
    # frompyfunc returns a Python float on 0-d input and an object array
    # otherwise; both become float arrays here.
    return np.asarray(_erf_object(x), dtype=float)


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
            * _erf((a + b) / math.sqrt(2.0))
        )
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
    """Taylor expansion of total_intensity through second order in shifts.

    I_T / sqrt(pi/2) = sum_j |c_j|^2
                     + sum_{j != k} c_j conj(c_k) (1 - (s_j - s_k)^2 / 2).
    Predicts which doubled tones survive per case; differs from the exact
    value at fourth order in the shifts. The smallness bound applies to the
    individual mirror shifts (component shifts are sums of up to three).
    """
    bound = max(abs(d) for d in mirror_shifts(scenario, t).values())
    if bound > 0.05:
        raise ValueError(f"mirror shift {bound} exceeds the 0.05 expansion bound")
    field = field_at(scenario, t)
    comps = field.components
    total = sum(abs(c.coeff) ** 2 for c in comps)
    for j in range(len(comps)):
        for k in range(len(comps)):
            if j == k:
                continue
            cj, ck = comps[j], comps[k]
            cross = (cj.coeff * ck.coeff.conjugate()).real
            total += cross * (1.0 - ((cj.shift - ck.shift) ** 2) / 2.0)
    return SQRT_HALF_PI * total
