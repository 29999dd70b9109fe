"""Exact classical Gaussian-beam model of the interferometer output.

The output field is a sum of up to three shifted Gaussians
coeff * exp(-(y - shift)^2), one per interferometer path, with beam width
fixed to 1 (shifts are measured in beam widths). Overlap integrals of
shifted Gaussians have closed forms, so the total-intensity and quad-cell
detector signals are exact. One array engine, a sum over pairs of
components, evaluates them, their second-order expansion and the
first-order linearization over whole arrays of times or fields; the
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
# |Psi|^2 is a sum of terms c exp(-2 (y - (a + b) / 2)^2), so a Gauss rule
# of weight exp(-2 y^2) integrates an entire function: Gauss-Hermite for the
# total, and for the quad cell Gauss-Laguerre in u = y^2, in which the odd
# bracket |Psi(y)|^2 - |Psi(-y)|^2 over y is entire. Each rule is built on
# first use and cached read-only as a (nodes, weights) pair.


@functools.cache
def _hermite_rule() -> tuple:
    """Gauss-Hermite rule for int |Psi|^2 dy, for shifts |s| <= 0.5: the 16
    nodes of weight exp(-2 y^2), that weight folded into the weights. On a
    lone Gaussian it holds 1e-15 to |s| = 0.7, where 12 nodes err 1.5e-12."""
    x, w = np.polynomial.hermite.hermgauss(16)
    y = x / math.sqrt(2.0)
    w = w / math.sqrt(2.0) * np.exp(2.0 * y * y)
    y.flags.writeable = w.flags.writeable = False
    return y, w


@functools.cache
def _laguerre_rule() -> tuple:
    """Gauss-Laguerre rule in u = y^2 for int_0^inf |Psi(y)|^2 - |Psi(-y)|^2 dy
    (not smooth at y = 0), for shifts |s| <= 0.5: nodes +-y = +-sqrt(x / 2),
    weights +-W exp(x) / (4 y) of the 8-node rule (x, W) of weight exp(-x), from
    its Jacobi matrix's eigenvectors (Golub & Welsch, Math. Comp. 23 (1969)
    221-230), as laggauss(8)'s weights are off by up to 8e-15. On a lone
    Gaussian it holds 1e-15 to |s| = 0.7, where 6 nodes err 3e-13."""
    k = np.arange(1.0, 8.0)
    x, v = np.linalg.eigh(np.diag(2.0 * np.arange(8.0) + 1.0) + np.diag(k, 1) + np.diag(k, -1))
    y = np.sqrt(x / 2.0)
    w = v[0] ** 2 * np.exp(x) / (4.0 * y)
    y, w = np.concatenate([y, -y]), np.concatenate([w, -w])
    y.flags.writeable = w.flags.writeable = False
    return y, w


_CHUNK = 250  # fields per block of Gaussians, about 0.1 MB at 3 x 16 nodes


def _rule_sum(coeffs, shifts, rule) -> np.ndarray:
    """sum_n w_n |Psi(y_n)|^2 for each of F fields, shape (F,).

    ``coeffs`` and ``shifts`` have shape (P, F), as from stack_fields, and
    are evaluated _CHUNK fields at a time.
    """
    out = np.empty(np.shape(coeffs)[1])
    for i in range(0, len(out), _CHUNK):
        out[i:i + _CHUNK] = _chunk_sum(coeffs[:, i:i + _CHUNK], shifts[:, i:i + _CHUNK], *rule)
    return out


def _chunk_sum(coeffs, shifts, y, w) -> np.ndarray:
    """_rule_sum of one chunk: the Gaussians exp(-(y_n - s_pf)^2) of every
    component on every node, summed over components into the real and
    imaginary parts of Psi, squared and weighted."""
    block = np.subtract.outer(shifts, y)
    np.square(block, out=block)
    np.negative(block, out=block)
    np.exp(block, out=block)
    re = np.einsum("pf,pfn->fn", coeffs.real, block)
    im = np.einsum("pf,pfn->fn", coeffs.imag, block)
    re *= re
    im *= im
    re += im
    re *= w
    return re.sum(axis=1)


def quadrature_intensity(coeffs, shifts) -> np.ndarray:
    """Gauss-Hermite oracle for exact_intensity over (P, F) stacked fields."""
    return _rule_sum(coeffs, shifts, _hermite_rule())


def quadrature_quadcell(coeffs, shifts) -> np.ndarray:
    """Gauss-Laguerre oracle for exact_quadcell over (P, F) stacked fields."""
    return _rule_sum(coeffs, shifts, _laguerre_rule())


@dataclass(frozen=True)
class BeamComponent:
    """One Gaussian addend coeff * exp(-(y - shift)^2)."""

    coeff: complex
    shift: float


@dataclass(frozen=True)
class BeamField:
    components: tuple


# -- path table ----------------------------------------------------------


def path_coefficients(scenario: Scenario) -> np.ndarray:
    """Coefficients of the scenario.PATHS (C, A, B): (kappa, -1, e^{i phi}),
    the path_weights with the A-path and B-path entries swapped."""
    return np.array(path_weights(scenario.phi, scenario.kappa), complex)[[0, 2, 1]]


def path_shifts(scenario: Scenario, t) -> np.ndarray:
    """Shifts of the scenario.PATHS, shape (len(PATHS),) + shape(t).

    ``t`` is a time or a 1-D array of times. Mirror m is displaced by
    d_m(t) = amplitude_m * sin(2 pi f_m t), and a path's shift is the sum of
    the d_m of the mirrors it meets. Each d_m is formed in place in its row,
    and a mirror at rest keeps its row of zeros without a sin pass.
    """
    rows = np.zeros((len(MIRRORS),) + np.shape(t))
    for k, m in enumerate(MIRRORS):
        if scenario.vib_amplitude[m]:
            row = rows[k, ...]
            np.multiply(2.0 * math.pi * scenario.mirror_freq[m], t, out=row)
            np.sin(row, out=row)
            row *= scenario.vib_amplitude[m]
    return INCIDENCE @ rows


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


def _erf_small(x, tiny):
    """|x| < 0.84375: x + x P(x^2)/Q(x^2), and x + efx x below 2^-28.

    s_erf.c rescales below 2^-1015 only to keep the underflow flag clear;
    x + efx x is as accurate there.
    """
    z = x * x
    y = _horner(z, _PP)
    y /= _horner(z, _QQ)
    np.copyto(y, _EFX, where=tiny)
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
        tiny = ax < _ERF_TINY
        del ax  # one temporary fewer while the polynomial runs
        return _erf_small(x, tiny).reshape(shape)
    small = ax < _ERF_SMALL
    out = np.empty_like(x)
    out[small] = _erf_small(x[small], ax[small] < _ERF_TINY)
    out[~small] = [math.erf(v) for v in x[~small].tolist()]
    return out.reshape(shape)


# -- array engine --------------------------------------------------------
#
# Every closed form takes coefficients of shape (P,) or (P, N) and shifts of
# shape (P,) or (P, N) and returns values of the broadcast trailing shape:
# N time samples of one scenario, or N fields padded to P paths with zero
# coefficients. The scalar functions further down wrap these.


def _pair_sum(coeffs, shifts, diag, excess):
    """sum_{j,k} Re(c_j conj(c_k)) K(s_j, s_k) for a symmetric kernel K, given
    as its diagonal D(s) = K(s, s) and excess E(a, b, D_a, D_b) = 2 K(a, b) - D_a - D_b,
    or None where the excess is 0.

    Summed as sum_j D_j Re(c_j conj(S)) + sum_{j<k} Re(c_j conj(c_k)) E_jk with
    S = sum_j c_j, so nearly cancelling paths leave |S|^2 plus excesses that
    each kernel forms without cancellation. Zero-coefficient rows are skipped.
    Terms are formed and added in place, in the order of the formula.
    """
    coeffs, shifts = np.asarray(coeffs), np.asarray(shifts)
    shape = np.broadcast_shapes(coeffs.shape[1:], shifts.shape[1:])
    total = np.zeros(shape)
    # each row of shifts, and so each excess, takes the shape of total
    shifts = [row if row.shape == shape else np.broadcast_to(row, shape) for row in shifts]
    rows = [j for j in range(len(shifts)) if coeffs[j].any()]
    conj_sum = np.conj(sum(coeffs[j] for j in rows))
    diags = {j: diag(shifts[j]) for j in rows}
    for j in rows:
        total += diags[j] * (coeffs[j] * conj_sum).real
    for i, j in enumerate(rows if excess else ()):
        for k in rows[i + 1:]:
            term = excess(shifts[j], shifts[k], diags[j], diags[k])
            term *= (coeffs[j] * np.conj(coeffs[k])).real
            total += term
    return total


def exact_intensity(coeffs, shifts):
    """I_T = integral |Psi|^2 dy of Psi = sum_j c_j exp(-(y - s_j)^2).

    integral exp(-(y-a)^2) exp(-(y-b)^2) dy = sqrt(pi/2) exp(-(a-b)^2/2),
    a pair sum of diagonal 1 and excess 2 expm1(-(a-b)^2/2).
    """
    return SQRT_HALF_PI * _pair_sum(
        coeffs, shifts, lambda s: 1.0,
        lambda a, b, da, db: 2.0 * np.expm1(-((a - b) ** 2) / 2.0),
    )


def exact_quadcell(coeffs, shifts):
    """Quad-cell difference dI = int_0^inf |Psi|^2 - int_-inf^0 |Psi|^2.

    Each Gaussian pair contributes
    sqrt(pi/2) * exp(-(a-b)^2/2) * erf((a+b)/sqrt(2)).
    """
    return SQRT_HALF_PI * _pair_sum(
        coeffs, shifts, lambda s: erf((s + s) / math.sqrt(2.0)), _quadcell_excess
    )


def _quadcell_excess(a, b, da, db):
    out = erf((a + b) / math.sqrt(2.0))
    out *= np.exp(-((a - b) ** 2) / 2.0)
    out *= 2.0
    out -= da
    out -= db
    return out


def second_order_intensities(coeffs, shifts):
    """Taylor expansion of exact_intensity through second order in shifts.

    I_T / sqrt(pi/2) = sum_j |c_j|^2
                     + sum_{j != k} Re(c_j conj(c_k)) (1 - (s_j - s_k)^2 / 2),
    a pair sum of diagonal 1 and excess -(s_j - s_k)^2.
    """
    return SQRT_HALF_PI * _pair_sum(coeffs, shifts, lambda s: 1.0, _minus_gap_squared)


def _minus_gap_squared(a, b, da, db):
    return -((a - b) ** 2)


# The linearized model expands each component to first order,
# exp(-(y-s)^2) ~ exp(-y^2)(1 + 2 y s). A pair then contributes
# exp(-2y^2)(1 + 2y a)(1 + 2y b), whose integral is sqrt(pi/2)(1 + ab) and
# whose half-line difference is a + b, by the Gaussian moments
# int exp(-2y^2) = sqrt(pi/2), int 4y^2 exp(-2y^2) = sqrt(pi/2) and
# int_0^inf 2y exp(-2y^2) = 1/2. The quad-cell kernel a + b is the first-order
# term of exact_quadcell's. In the blocked-arm case sum_j c_j = 0, so every
# diagonal term vanishes and the linearized quad cell is exactly 0.


def linearized_intensity(coeffs, shifts):
    """I_T of the linearized field: a pair sum of kernel sqrt(pi/2)(1 + ab),
    diagonal 1 + s^2 and excess -(a-b)^2."""
    return SQRT_HALF_PI * _pair_sum(coeffs, shifts, lambda s: 1.0 + s * s, _minus_gap_squared)


def linearized_quadcell(coeffs, shifts):
    """Quad-cell dI of the linearized field: a pair sum of kernel a + b,
    diagonal 2s and excess 0."""
    return _pair_sum(coeffs, shifts, lambda s: s + s, None)


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
    return float(exact_intensity(*stack_fields([field]))[0])


def total_intensity_quadrature(field: BeamField) -> float:
    """Gauss-Hermite oracle for total_intensity (see quadrature_intensity)."""
    return float(quadrature_intensity(*stack_fields([field]))[0])


def quadcell_signal(field: BeamField) -> float:
    """Quad-cell difference, in closed form (see exact_quadcell)."""
    return float(exact_quadcell(*stack_fields([field]))[0])


def quadcell_signal_quadrature(field: BeamField) -> float:
    """Gauss-Laguerre oracle for quadcell_signal (see quadrature_quadcell)."""
    return float(quadrature_quadcell(*stack_fields([field]))[0])
