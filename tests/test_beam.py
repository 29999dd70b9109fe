import cmath
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nestedmzi import beam
from nestedmzi.beam import (
    SQRT_HALF_PI,
    BeamComponent,
    BeamField,
    exact_quadcell,
    field_at,
    linearized_intensity,
    linearized_quadcell,
    path_coefficients,
    path_shifts,
    quadcell_signal,
    quadcell_signal_quadrature,
    second_order_intensities,
    total_intensity,
    total_intensity_quadrature,
)
from nestedmzi.scenario import MIRRORS, Scenario, standard_case
from nestedmzi.spectra import sample_detector


def scaled_case(case, eps):
    return standard_case(case).with_overrides(
        epsilon=eps, vib_amplitude={m: eps for m in MIRRORS}
    )


def path_arrays(sc, t):
    """(coeffs, shifts) of the scenario's paths at time(s) t."""
    return path_coefficients(sc), path_shifts(sc, t)


# -- field construction --------------------------------------------------


def plain_shifts(sc, t):
    """{mirror: amplitude * sin(2 pi f t)}, one plain sin pass per mirror."""
    return {
        m: sc.vib_amplitude[m] * np.sin(2.0 * math.pi * sc.mirror_freq[m] * t)
        for m in MIRRORS
    }


def test_shifts_equal_one_sin_pass_per_mirror():
    # The plain shifts summed along the paths against path_shifts: equal bit
    # for bit, also with mirrors at rest and at a scalar time. So every path
    # starts at 0 and stays within the amplitudes of the mirrors it meets.
    rng = np.random.default_rng(3)
    scenarios = [
        standard_case(case).with_overrides(
            vib_amplitude={m: 0.0 if m in rest else rng.uniform(0.001, 0.05) for m in MIRRORS}
        )
        for case in "abc"
        for rest in ((), ("C",), ("A", "B"))
    ]
    # Five distinct amplitudes: a swap of two mirrors' frequencies (E and F
    # here) moves the path shifts, where equal amplitudes would hide it.
    distinct = standard_case("b").with_overrides(
        vib_amplitude=dict(zip(MIRRORS, (0.011, 0.023, 0.037, 0.041, 0.053)))
    )
    freqs = distinct.mirror_freq
    swapped = distinct.with_overrides(mirror_freq={**freqs, "E": freqs["F"], "F": freqs["E"]})
    times = np.arange(3072) / 1024.0
    assert not np.array_equal(path_shifts(swapped, times), path_shifts(distinct, times))
    for sc in scenarios + [distinct]:
        reach = beam.INCIDENCE @ np.array([sc.vib_amplitude[m] for m in MIRRORS])
        for t in (times, 0.377, 0.0):
            plain = plain_shifts(sc, t)
            got = path_shifts(sc, t)
            assert np.array_equal(got, beam.INCIDENCE @ np.array([plain[m] for m in MIRRORS]))
            assert np.all(np.abs(got).T <= reach + 1e-15)
        assert not np.any(path_shifts(sc, 0.0))


def test_case_c_field_two_components():
    field = field_at(standard_case("c"), 0.123)
    assert len(field.components) == 2
    coeffs = sorted(c.coeff.real for c in field.components)
    assert coeffs == [-1.0, 1.0]


def test_static_field_components():
    sc = standard_case("b").with_overrides(
        vib_amplitude={m: 0.0 for m in MIRRORS}
    )
    field = field_at(sc, 0.5)
    assert all(c.shift == 0.0 for c in field.components)
    # kappa - 1 + e^{i phi} = 1 at phi=0
    assert sum(c.coeff for c in field.components) == pytest.approx(1.0)


def test_case_a_with_only_c_vibrating():
    sc = standard_case("a").with_overrides(
        vib_amplitude={"A": 0, "B": 0, "C": 0.01, "E": 0, "F": 0}
    )
    t = 1.0 / (4 * 41.0)  # quarter period of mirror C
    field = field_at(sc, t)
    shifts = {round(c.coeff.real, 6): c.shift for c in field.components}
    assert shifts[1.0] == pytest.approx(0.01)
    assert field.components[1].shift == 0.0
    assert field.components[2].shift == 0.0


# -- total intensity -----------------------------------------------------


def test_single_component_independent_of_shift():
    vals = [
        total_intensity(BeamField((BeamComponent(1.0, d),)))
        for d in (-0.3, 0.0, 0.08, 2.0)
    ]
    assert all(v == pytest.approx(SQRT_HALF_PI, rel=1e-14) for v in vals)


def test_perfect_destructive_overlap():
    field = BeamField((BeamComponent(1.0, 0.0), BeamComponent(-1.0, 0.0)))
    assert total_intensity(field) == pytest.approx(0.0, abs=1e-15)


def test_two_component_closed_form_vs_oracle():
    delta = 0.07
    field = BeamField((BeamComponent(-1.0, delta), BeamComponent(1.0, 0.0)))
    expected = SQRT_HALF_PI * 2.0 * (1.0 - math.exp(-(delta**2) / 2.0))
    assert total_intensity(field) == pytest.approx(expected, rel=1e-14)
    oracle = total_intensity_quadrature(field)
    assert total_intensity(field) == pytest.approx(oracle, rel=1e-9)


def test_quadrature_basics():
    assert total_intensity_quadrature(BeamField(())) == 0.0
    one = BeamField((BeamComponent(1.0, 0.0),))
    assert total_intensity_quadrature(one) == pytest.approx(SQRT_HALF_PI, rel=1e-9)


def test_quadrature_step_halving_agreement():
    # The Gauss-Hermite oracle against the plain trapezoid at step 5e-4.
    field = BeamField((BeamComponent(0.4 - 0.3j, 0.05), BeamComponent(1.0, -0.02)))
    coarse = total_intensity_quadrature(field)
    fine = reference_total(field, 8.0, 5e-4)
    assert coarse == pytest.approx(fine, rel=1e-12)


component = st.builds(
    BeamComponent,
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-0.1, max_value=0.1),
)
fields = st.builds(
    BeamField, st.lists(component, min_size=1, max_size=3).map(tuple)
)


@settings(max_examples=60, deadline=None)
@given(fields)
def test_total_intensity_matches_quadrature(field):
    closed = total_intensity(field)
    oracle = total_intensity_quadrature(field)
    assert closed == pytest.approx(oracle, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(fields, st.floats(min_value=-0.5, max_value=0.5))
def test_translation_invariance(field, offset):
    moved = BeamField(
        tuple(BeamComponent(c.coeff, c.shift + offset) for c in field.components)
    )
    assert total_intensity(moved) == pytest.approx(
        total_intensity(field), abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(fields, st.floats(min_value=-0.3, max_value=0.3))
def test_quadcell_not_translation_invariant_but_oracle_agrees(field, offset):
    moved = BeamField(
        tuple(BeamComponent(c.coeff, c.shift + offset) for c in field.components)
    )
    closed = quadcell_signal(moved)
    oracle = quadcell_signal_quadrature(moved)
    scale = max(abs(oracle), total_intensity(moved), 1e-12)
    assert abs(closed - oracle) / scale < 1e-9


# -- nearly cancelling paths ---------------------------------------------
#
# With A and B at rest and phi near 0 the two inner-arm paths share one
# shift and their coefficients -1 and e^{i phi} nearly cancel. A sum of
# |c_j|^2 + 2 Re(c_j conj(c_k)) terms then loses the result to rounding.


def test_cancelling_inner_arms_match_the_oracles():
    # a random scan scenario (phi 8.08e-6, kappa 0, I_T ~ 1e-10): a pair sum
    # of O(1) terms misses the quad-cell oracle here by 2.7e-9 of I_T
    eps = 0.04489207730054839
    sc = Scenario(
        phi=8.077829456023838e-06,
        kappa=0.0,
        epsilon=eps,
        mirror_freq={"A": 45.0, "B": 167.0, "C": 235.0, "E": 66.0, "F": 127.0},
        vib_amplitude={"A": 0.0, "B": 0.0, "C": eps, "E": eps, "F": eps},
        duration=1.0,
        sample_rate=3072.0,
    )
    quads = sample_detector(sc, "quad", "exact").samples
    for k in (876, 1299, 1157):
        field = field_at(sc, k / sc.sample_rate)
        oracle = quadcell_signal_quadrature(field)
        scale = max(abs(oracle), total_intensity(field))
        assert abs(quads[k] - oracle) <= 1e-12 * scale
        oracle = total_intensity_quadrature(field)
        assert abs(total_intensity(field) - oracle) <= 1e-12 * oracle


def test_cancelling_pair_of_equal_shift_is_exact():
    for phi in (1e-8, 1e-6, 1e-4, 1e-2):
        c = cmath.exp(1j * phi)
        for s in (-0.07, 0.003, 0.05):
            field = BeamField((BeamComponent(-1.0, s), BeamComponent(c, s)))
            total = SQRT_HALF_PI * abs(c - 1.0) ** 2
            quad = total * math.erf(math.sqrt(2.0) * s)
            assert abs(total_intensity(field) - total) <= 1e-12 * total
            assert abs(quadcell_signal(field) - quad) <= 1e-12 * abs(quad)


# -- quad-cell detector --------------------------------------------------


def test_quadcell_single_component():
    for d in (0.01, -0.04, 0.08):
        field = BeamField((BeamComponent(1.0, d),))
        expected = SQRT_HALF_PI * math.erf(math.sqrt(2.0) * d)
        assert quadcell_signal(field) == pytest.approx(expected, rel=1e-12)
        assert quadcell_signal(field) == pytest.approx(
            quadcell_signal_quadrature(field), rel=1e-9
        )


def test_quadcell_zero_shifts():
    field = BeamField((BeamComponent(1.0, 0.0), BeamComponent(-0.5j, 0.0)))
    assert quadcell_signal(field) == 0.0


def test_case_c_quadcell_is_quintic():
    # linear and cubic orders cancel exactly for a (-1, +1) pair; the
    # residual is fifth order: amplitude ratio 32 under eps halving
    vals = []
    for eps in (0.02, 0.01):
        sc = scaled_case("c", eps)
        worst = max(
            abs(quadcell_signal(field_at(sc, i / 128.0))) for i in range(128)
        )
        vals.append(worst)
    assert vals[0] / vals[1] == pytest.approx(32.0, rel=0.05)


def test_case_c_quadcell_nonzero_exact_zero_linearized():
    sc = standard_case("c")
    exact = [abs(quadcell_signal(field_at(sc, i / 64.0))) for i in range(1, 64)]
    assert max(exact) > 0.0
    di_lin = linearized_quadcell(*path_arrays(sc, np.arange(64) / 64.0))
    assert np.all(di_lin == 0.0)


# -- linearized model ----------------------------------------------------


def moments(coeffs, shifts):
    """(s0, s1) of the first-order field Psi_lin(y) = exp(-y^2)(s0 + 2 s1 y):
    exp(-(y-s)^2) ~ exp(-y^2)(1 + 2 y s), so s0 = sum c and s1 = sum c s."""
    return np.sum(coeffs, axis=0), np.sum(coeffs * shifts, axis=0)


def test_linearized_forms_match_the_moments_formula():
    # I_T = sqrt(pi/2)(|s0|^2 + |s1|^2) and dI = 2 Re(s0 conj(s1)), by the
    # Gaussian moments; checked on padded (P, F) fields with a zero row
    # and an empty field.
    rng = np.random.default_rng(17)
    coeffs = rng.uniform(-1, 1, (4, 2000)) + 1j * rng.uniform(-1, 1, (4, 2000))
    shifts = rng.uniform(-0.1, 0.1, coeffs.shape)
    coeffs[rng.random(coeffs.shape) < 0.3] = 0.0  # padding
    coeffs[2] = 0.0
    coeffs[:, 0] = 0.0
    s0, s1 = moments(coeffs, shifts)
    want_i = SQRT_HALF_PI * (np.abs(s0) ** 2 + np.abs(s1) ** 2)
    want_d = 2.0 * (s0 * np.conj(s1)).real
    got_i = linearized_intensity(coeffs, shifts)
    got_d = linearized_quadcell(coeffs, shifts)
    assert got_i[0] == got_d[0] == 0.0
    assert np.all(np.abs(got_i - want_i) <= 1e-14 * want_i)
    assert np.all(np.abs(got_d - want_d) <= 1e-15 * want_i)
    empty = (np.zeros((0, 3), complex), np.zeros((0, 3)))
    for f in (linearized_intensity, linearized_quadcell):
        assert np.array_equal(f(*empty), np.zeros(3))


def test_linearized_quadcell_is_the_first_order_of_the_exact_one():
    # Both quad-cell kernels are odd in the shifts and agree at first
    # order, so their difference is third order: 8x smaller per halving.
    rng = np.random.default_rng(23)
    coeffs = rng.uniform(-1, 1, (3, 400)) + 1j * rng.uniform(-1, 1, (3, 400))
    shifts = rng.uniform(-1, 1, coeffs.shape)
    gaps = [
        np.max(np.abs(exact_quadcell(coeffs, t * shifts) - linearized_quadcell(coeffs, t * shifts)))
        for t in (2e-2, 1e-2)
    ]
    assert gaps[0] / gaps[1] == pytest.approx(8.0, rel=0.01)


def test_case_c_linearized_profile():
    sc = standard_case("c")
    for t in np.linspace(0.0, 1.0, 100):
        s0, s1 = moments(*path_arrays(sc, t))
        d = plain_shifts(sc, t)
        assert abs(s0) < 1e-15
        # |Psi_lin| = |2 y e^{-y^2} (d_A - d_B)| pointwise (sign is the
        # unphysical overall phase of the field)
        for y in (-1.2, -0.3, 0.4, 2.0):
            lin = abs(s0 + 2.0 * s1 * y) * math.exp(-(y**2))
            target = abs(2.0 * y * math.exp(-(y**2)) * (d["A"] - d["B"]))
            assert lin == pytest.approx(target, abs=1e-12)


def test_linearized_static_matches_exact():
    sc = standard_case("a").with_overrides(vib_amplitude={m: 0.0 for m in MIRRORS})
    i_lin = linearized_intensity(*path_arrays(sc, 0.37))
    di_lin = linearized_quadcell(*path_arrays(sc, 0.37))
    assert i_lin == pytest.approx(total_intensity(field_at(sc, 0.37)), rel=1e-14)
    assert di_lin == 0.0


def test_linearized_intensity_matches_quadrature():
    sc = standard_case("b")
    x, w = np.polynomial.legendre.leggauss(200)
    y = 4.0 * (x + 1.0)  # [0, 8]
    wy = 4.0 * w
    for t in (0.1, 0.31, 0.77):
        s0, s1 = moments(*path_arrays(sc, t))

        def intensity(yv):
            return np.abs(np.exp(-(yv**2)) * (s0 + 2.0 * s1 * yv)) ** 2

        pos = float(np.sum(wy * intensity(y)))
        neg = float(np.sum(wy * intensity(-y)))
        i_lin = linearized_intensity(*path_arrays(sc, t))
        di_lin = linearized_quadcell(*path_arrays(sc, t))
        assert i_lin == pytest.approx(pos + neg, rel=1e-9)
        assert di_lin == pytest.approx(pos - neg, rel=1e-9, abs=1e-14)


@pytest.mark.parametrize("s", [1e-2, 1e-3])
def test_linearized_quadcell_is_first_order_accurate(s):
    # Psi - Psi_lin = O(sum |c_j| s^2) pointwise, so dI - dI_lin is within
    # (sum |c_j|)^2 s^2 for generic complex coefficients.
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = int(rng.integers(1, 4))
        coeffs = rng.normal(size=p) + 1j * rng.normal(size=p)
        shifts = rng.uniform(-s, s, size=p)
        field = BeamField(tuple(map(BeamComponent, coeffs, shifts)))
        di_lin = linearized_quadcell(coeffs, shifts)
        bound = np.sum(np.abs(coeffs)) ** 2 * s**2
        assert abs(di_lin - quadcell_signal_quadrature(field)) <= bound


# -- second-order expansion ----------------------------------------------


def test_second_order_symbolic_forms():
    # case b: I/sqrt(pi/2) = 1 + 2 (d_A - d_B)(d_A - d_C + d_E + d_F)
    times = np.array([0.11, 0.29, 0.83])
    sc = standard_case("b")
    d = plain_shifts(sc, times)
    expected = SQRT_HALF_PI * (
        1.0 + 2.0 * (d["A"] - d["B"]) * (d["A"] - d["C"] + d["E"] + d["F"])
    )
    got = second_order_intensities(*path_arrays(sc, times))
    assert got == pytest.approx(expected, rel=1e-12)
    # case c: I/sqrt(pi/2) = (d_A - d_B)^2. The static part |S|^2 is exactly
    # 0 here; the implementation takes d_A - d_B as the difference of the
    # path shifts (d_A + d_E + d_F) - (d_B + d_E + d_F), whose rounding is
    # ~1e-10 relative to d_A - d_B
    sc = standard_case("c")
    d = plain_shifts(sc, times)
    expected = SQRT_HALF_PI * (d["A"] - d["B"]) ** 2
    got = second_order_intensities(*path_arrays(sc, times))
    assert got == pytest.approx(expected, rel=1e-8, abs=1e-15)


def test_second_order_matches_exact_to_quartic():
    times = np.arange(64) / 64.0
    consts = []
    for eps in (0.04, 0.02, 0.01):
        sc = scaled_case("a", eps)
        second = second_order_intensities(*path_arrays(sc, times))
        worst = 0.0
        for t, approx in zip(times, second):
            diff = abs(total_intensity(field_at(sc, t)) - approx)
            shift = max(abs(v) for v in plain_shifts(sc, t).values())
            if shift > 1e-6:
                worst = max(worst, diff / shift**4)
        consts.append(worst)
    assert max(consts) / min(consts) < 1.5


def test_single_mirror_total_intensity_null():
    values = []
    for i in range(512):
        t = i / 512.0
        d = 0.01 * math.sin(2 * math.pi * 41.0 * t)
        values.append(total_intensity(BeamField((BeamComponent(1.0, d),))))
    values = np.array(values)
    assert (values.max() - values.min()) / values.mean() < 1e-12


# -- quadrature oracles against plain references -------------------------
#
# The references evaluate the field as a per-component complex sum and apply
# the rules as np.trapezoid and as one np.sum per half-line.


def reference_value(field, y):
    total = np.zeros(np.shape(y), dtype=complex)
    for c in field.components:
        total = total + c.coeff * np.exp(-((y - c.shift) ** 2))
    return total


def reference_total(field, half_width, step):
    n = int(round(2.0 * half_width / step)) + 1
    y = np.linspace(-half_width, half_width, n)
    return float(np.trapezoid(np.abs(reference_value(field, y)) ** 2, y))


def reference_quadcell(field, half_width, nodes, panels=1):
    """Gauss-Legendre of the given nodes on each of ``panels`` equal panels
    of [0, half_width], and the same nodes mirrored on [-half_width, 0]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    width = half_width / panels
    y = np.concatenate([p * width + 0.5 * width * (x + 1.0) for p in range(panels)])
    wy = np.tile(0.5 * width * w, panels)
    pos = float(np.sum(wy * np.abs(reference_value(field, y)) ** 2))
    neg = float(np.sum(wy * np.abs(reference_value(field, -y)) ** 2))
    return pos - neg


def random_field(rng, size, span=0.1):
    return BeamField(
        tuple(
            BeamComponent(complex(*rng.uniform(-1, 1, 2)), float(rng.uniform(-span, span)))
            for _ in range(size)
        )
    )


def trapezoid_rule(half_width, step):
    y = np.linspace(-half_width, half_width, int(round(2.0 * half_width / step)) + 1)
    half = np.diff(y) / 2.0
    w = np.zeros(len(y))
    w[:-1] += half
    w[1:] += half
    return y, w


def half_line_rule(half_width, nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    y, w = 0.5 * half_width * (x + 1.0), 0.5 * half_width * w
    return np.concatenate([y, -y]), np.concatenate([w, -w])


def hermite_rule(nodes):
    """Gauss-Hermite for the weight exp(-2 y^2), folded into the weights."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    y = x / math.sqrt(2.0)
    return y, w / math.sqrt(2.0) * np.exp(2.0 * y * y)


def laguerre_rule(nodes):
    """Gauss-Laguerre in u = y^2 for the half-line difference: nodes +-y,
    y = sqrt(x / 2), weights +-W exp(x) / (4 y) for the rule (x, W) of the
    weight exp(-x), from the eigenvectors of its Jacobi matrix."""
    k = np.arange(1.0, nodes)
    jacobi = np.diag(2.0 * np.arange(nodes) + 1.0) + np.diag(k, 1) + np.diag(k, -1)
    x, v = np.linalg.eigh(jacobi)
    y = np.sqrt(x / 2.0)
    w = v[0] ** 2 * np.exp(x) / (4.0 * y)
    return np.concatenate([y, -y]), np.concatenate([w, -w])


def worst_errors(fields, total_rule, quad_rule):
    """Worst errors of two rules over fields against the wide references,
    scaled as validate.check_detector_oracles scales them."""
    worst_t = worst_q = 0.0
    for field in fields:
        ref_total = reference_total(field, 10.0, 0.125)
        ref_quad = reference_quadcell(field, 8.0, 16, panels=8)
        total = on_rule(field, *total_rule)
        quad = on_rule(field, *quad_rule)
        worst_t = max(worst_t, abs(total - ref_total) / ref_total)
        worst_q = max(worst_q, abs(quad - ref_quad) / max(abs(ref_quad), ref_total))
    return worst_t, worst_q


def on_rule(field, y, w):
    return beam._rule_sum(*beam.stack_fields([field]), (y, w))[0]


@pytest.mark.parametrize(
    "half_width,step,nodes", [(8.0, 0.25, 60), (10.0, 2e-3, 64), (12.5, 1e-2, 16)]
)
def test_oracles_match_plain_references(half_width, step, nodes):
    # The oracles' evaluation (real blocks of Gaussians, precomputed weights)
    # on each grid against the plain term-by-term references on that grid.
    total_rule = trapezoid_rule(half_width, step)
    quad_rule = half_line_rule(half_width, nodes)
    rng = np.random.default_rng(11)
    for i in range(60):
        field = random_field(rng, i % 4)
        ref_total = reference_total(field, half_width, step)
        ref_quad = reference_quadcell(field, half_width, nodes)
        total = on_rule(field, *total_rule)
        quad = on_rule(field, *quad_rule)
        assert abs(total - ref_total) <= 1e-14 * ref_total
        assert abs(quad - ref_quad) <= 1e-14 * max(abs(ref_quad), ref_total)


def test_oracles_are_their_rules_on_plain_references():
    # Both oracles equal their evaluation on the Gauss-Hermite 16 and
    # Gauss-Laguerre 8 rules built here exactly, and the plain term-by-term
    # sums on those nodes within 1e-14. The Laguerre rule is numpy's laggauss
    # rule, whose weights are off the exact ones by up to 8e-15 at 8 nodes.
    total_rule, quad_rule = hermite_rule(16), laguerre_rule(8)
    x, w = np.polynomial.laguerre.laggauss(8)
    y = np.sqrt(x / 2.0)
    assert np.allclose(quad_rule[0][:8], y, rtol=2e-15, atol=0.0)
    assert np.allclose(quad_rule[1][:8], w * np.exp(x) / (4.0 * y), rtol=1e-14, atol=0.0)
    rng = np.random.default_rng(11)
    for i in range(60):
        field = random_field(rng, i % 4)
        total = on_rule(field, *total_rule)
        quad = on_rule(field, *quad_rule)
        assert total_intensity_quadrature(field) == total
        assert quadcell_signal_quadrature(field) == quad
        (yt, wt), (yq, wq) = total_rule, quad_rule
        ref_total = float(np.sum(wt * np.abs(reference_value(field, yt)) ** 2))
        ref_quad = float(np.sum(wq * np.abs(reference_value(field, yq)) ** 2))
        assert abs(total - ref_total) <= 1e-14 * ref_total
        assert abs(quad - ref_quad) <= 1e-14 * max(abs(ref_quad), ref_total)


def test_oracles_hold_on_their_shift_domain():
    # Fields with shifts up to 0.5 against the wide references, scaled as
    # validate scales them. Gauss-Hermite 12 and Gauss-Laguerre 5 miss the
    # bound on the same fields, so neither node count can be cut that far.
    rng = np.random.default_rng(29)
    fields = [random_field(rng, int(size), span=0.5) for size in rng.integers(1, 4, 300)]
    worst_t, worst_q = worst_errors(fields, beam._hermite_rule(), beam._laguerre_rule())
    assert worst_t <= 2e-15 and worst_q <= 2e-15
    worst_t, worst_q = worst_errors(fields, hermite_rule(12), laguerre_rule(5))
    assert worst_t > 2e-15 and worst_q > 1e-13


@pytest.mark.parametrize("s", [0.5, -0.6, 0.7, -0.7])
def test_oracle_rules_keep_a_margin_beyond_the_domain(s):
    # A lone Gaussian at s: int exp(-2 (y - s)^2) = sqrt(pi/2), with quad-cell
    # difference sqrt(pi/2) erf(sqrt(2) s). Both rules hold 1e-15 to |s| = 0.7;
    # Gauss-Hermite 12 and Gauss-Laguerre 6 lose it there.
    coeffs, shifts = np.ones((1, 1), complex), np.full((1, 1), s)
    quad = SQRT_HALF_PI * math.erf(math.sqrt(2.0) * s)
    assert abs(beam.quadrature_intensity(coeffs, shifts)[0] / SQRT_HALF_PI - 1) <= 1e-15
    assert abs(beam.quadrature_quadcell(coeffs, shifts)[0] - quad) <= 1e-15 * SQRT_HALF_PI
    if abs(s) == 0.7:
        coarse = beam._rule_sum(coeffs, shifts, hermite_rule(12))[0]
        assert abs(coarse / SQRT_HALF_PI - 1) > 1e-13
        coarse = beam._rule_sum(coeffs, shifts, laguerre_rule(6))[0]
        assert abs(coarse - quad) > 1e-14 * SQRT_HALF_PI


def test_oracles_match_plain_references_on_a_finer_wider_grid():
    # The oracles' fixed rules (Gauss-Hermite 16, Gauss-Laguerre 8 in y^2)
    # against the trapezoid of step 0.125 on [-10, 10] and 8 panels of 16
    # Gauss-Legendre nodes per half-line on [-8, 8], which are within 3.7e-16
    # of I_T of 40-digit mpmath. The worst quad-cell error here is 2.4e-16 of I_T.
    rng = np.random.default_rng(11)
    for i in range(60):
        field = random_field(rng, i % 4)
        ref_total = reference_total(field, 10.0, 0.125)
        ref_quad = reference_quadcell(field, 8.0, 16, panels=8)
        total = total_intensity_quadrature(field)
        quad = quadcell_signal_quadrature(field)
        # the quad-cell error is measured against I_T, as validate does: the
        # two half-lines can cancel
        assert abs(total - ref_total) <= 1e-14 * ref_total
        assert abs(quad - ref_quad) <= 1e-14 * max(abs(ref_quad), ref_total)


def test_cached_rules_are_read_only():
    for rule in (beam._hermite_rule, beam._laguerre_rule):
        y, w = rule()
        assert rule() is rule()
        assert y.shape == w.shape == (16,)
        assert np.abs(y).max() <= 3.4
        for a in (y, w):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


def test_rules_are_not_built_at_import():
    code = (
        "from nestedmzi import beam; "
        "print(beam._hermite_rule.cache_info().currsize, "
        "beam._laguerre_rule.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(beam.__file__).parents[1])},
    ).stdout
    assert out.split() == ["0", "0"]


@pytest.mark.parametrize("count", [1, 249, 250, 251, 1000])
def test_batched_oracles_equal_the_scalar_wrappers(count):
    # Columns of mixed widths, padded to 3 components, across the chunk
    # boundary of 250 fields, with an empty field among them.
    rng = np.random.default_rng(count)
    fields = [random_field(rng, int(size)) for size in rng.integers(1, 4, count)]
    fields[count // 2] = BeamField(())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs, shifts = beam.stack_fields(fields)
        totals = beam.quadrature_intensity(coeffs, shifts)
        quads = beam.quadrature_quadcell(coeffs, shifts)
        for k, field in enumerate(fields):
            assert totals[k] == total_intensity_quadrature(field)
            assert quads[k] == quadcell_signal_quadrature(field)
    assert totals.shape == quads.shape == (count,)
    assert totals[count // 2] == quads[count // 2] == 0.0


def test_oracle_rules_converge_on_a_lone_gaussian():
    # int exp(-2 (y - s)^2) = sqrt(pi/2) over the line, and its quad-cell
    # difference is sqrt(pi/2) erf(sqrt(2) s). A trapezoid of step 0.5 and 30
    # Gauss-Legendre nodes per half-line miss the 1e-15 bound. At s = 0
    # every mirrored half-line rule gives 0, so only s != 0 can miss.
    coarse_total = trapezoid_rule(8.0, 0.5)
    coarse_quad = half_line_rule(8.0, 30)
    for s in (0.0, 0.03, -0.07, 0.1):
        coeffs, shifts = np.ones((1, 1), complex), np.full((1, 1), s)
        quad = SQRT_HALF_PI * math.erf(math.sqrt(2.0) * s)
        assert abs(beam.quadrature_intensity(coeffs, shifts)[0] / SQRT_HALF_PI - 1) <= 1e-15
        assert abs(beam.quadrature_quadcell(coeffs, shifts)[0] - quad) <= 1e-15 * SQRT_HALF_PI
        coarse = beam._rule_sum(coeffs, shifts, coarse_total)[0]
        assert abs(coarse / SQRT_HALF_PI - 1) > 1e-15
        if s:
            coarse = beam._rule_sum(coeffs, shifts, coarse_quad)[0]
            assert abs(coarse - quad) > 1e-15 * SQRT_HALF_PI


@pytest.mark.parametrize("shift", [20.0, -50.0, 1e3, 1e4, -1e4])
def test_far_off_grid_shifts_match_the_direct_evaluation(shift):
    # The oracle against the plain term-by-term evaluation on its nodes,
    # alone and next to a component on the grid: no overflow warning, and
    # equal within 1e-14 or both exactly 0 where every node underflows.
    y, w = beam._hermite_rule()
    far = BeamComponent(0.7 - 0.3j, shift)
    for field in (BeamField((far,)), BeamField((far, BeamComponent(0.2 + 0.5j, 0.05)))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = total_intensity_quadrature(field)
        want = float(np.sum(w * np.abs(reference_value(field, y)) ** 2))
        assert got == want == 0.0 or abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize(
    "eta,delta", [(2**-20, 1e-6), (2**-17, 3e-5), (0.0, 1e-6), (2**-10, 1e-3)]
)
def test_nearly_cancelling_pair_matches_its_exact_value(eta, delta):
    # Psi = -G(y - s) + (1 + i eta) G(y - s - delta): |Psi|^2 integrates to
    # sqrt(pi/2) (eta^2 - 2 expm1(-delta^2 / 2)), which is O(delta^2 + eta^2)
    # while each term is O(1).
    field = BeamField(
        (BeamComponent(-1.0, 0.01), BeamComponent(1.0 + 1j * eta, 0.01 + delta))
    )
    delta = (0.01 + delta) - 0.01  # the shift difference as stored, exactly
    exact = SQRT_HALF_PI * (eta**2 - 2.0 * math.expm1(-(delta**2) / 2.0))
    assert abs(total_intensity_quadrature(field) - exact) <= 1e-10 * exact
    assert abs(total_intensity(field) - exact) <= 1e-12 * exact


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 3e-4])
def test_case_c_total_intensity_is_the_pair_excess(eps):
    # Blocked arm: coefficients -1 and +1 sum to S = 0, so I_T is the lone
    # pair term sqrt(pi/2) * (-1) * 2 expm1(-(s_A - s_B)^2 / 2), exactly.
    sc = scaled_case("c", eps)
    coeffs, shifts = path_arrays(sc, np.arange(1024) / 1024.0)
    assert coeffs.sum() == 0.0
    want = -2.0 * SQRT_HALF_PI * np.expm1(-((shifts[1] - shifts[2]) ** 2) / 2.0)
    got = beam.exact_intensity(coeffs, shifts)
    assert np.count_nonzero(want) > 1000
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


@pytest.mark.parametrize("phi", [math.pi / 2, 3 * math.pi / 2])
def test_zero_weight_pair_matches_both_oracles(phi):
    # Re(c_A conj(c_B)) = -cos(phi) = 0 up to the rounding of cos(phi), and
    # exactly 0 for the two-component field: a pair whose weight is 0.
    sc = scaled_case("a", 0.05).with_overrides(phi=phi)
    coeffs = path_coefficients(sc)
    assert abs((coeffs[1] * np.conj(coeffs[2])).real) < 1e-15
    fields = [field_at(sc, t) for t in np.linspace(0.0, 1.0, 17)]
    pair = BeamField((BeamComponent(0.6, 0.04), BeamComponent(0.8j, -0.03)))
    assert (pair.components[0].coeff * np.conj(pair.components[1].coeff)).real == 0.0
    for field in [*fields, pair]:
        total = total_intensity(field)
        assert abs(total - total_intensity_quadrature(field)) <= 1e-12 * total
        quad = quadcell_signal_quadrature(field)
        assert abs(quadcell_signal(field) - quad) <= 1e-12 * max(abs(quad), total)
