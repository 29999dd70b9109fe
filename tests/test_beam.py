import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nestedmzi import beam
from nestedmzi.beam import (
    SQRT_HALF_PI,
    BeamComponent,
    BeamField,
    field_at,
    linear_moments,
    linearized_intensities,
    mirror_shifts,
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


def test_mirror_shifts_bounds_and_zero_start():
    sc = standard_case("a")
    d0 = mirror_shifts(sc, 0.0)
    assert all(v == 0.0 for v in d0.values())
    for t in np.linspace(0, 1, 37):
        d = mirror_shifts(sc, t)
        for m in MIRRORS:
            assert abs(d[m]) <= sc.vib_amplitude[m] + 1e-15


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
    # The oracle's step 1e-3 against the plain trapezoid at step 5e-4.
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
    _, di_lin = linearized_intensities(*path_arrays(sc, np.arange(64) / 64.0))
    assert np.all(di_lin == 0.0)


# -- linearized model ----------------------------------------------------


def test_case_c_linearized_profile():
    sc = standard_case("c")
    for t in np.linspace(0.0, 1.0, 100):
        s0, s1 = linear_moments(*path_arrays(sc, t))
        d = mirror_shifts(sc, t)
        assert abs(s0) < 1e-15
        # |Psi_lin| = |2 y e^{-y^2} (d_A - d_B)| pointwise (sign is the
        # unphysical overall phase of the field)
        for y in (-1.2, -0.3, 0.4, 2.0):
            lin = abs(s0 + 2.0 * s1 * y) * math.exp(-(y**2))
            target = abs(2.0 * y * math.exp(-(y**2)) * (d["A"] - d["B"]))
            assert lin == pytest.approx(target, abs=1e-12)


def test_linearized_static_matches_exact():
    sc = standard_case("a").with_overrides(vib_amplitude={m: 0.0 for m in MIRRORS})
    i_lin, di_lin = linearized_intensities(*path_arrays(sc, 0.37))
    assert i_lin == pytest.approx(total_intensity(field_at(sc, 0.37)), rel=1e-14)
    assert di_lin == 0.0


def test_linearized_intensity_matches_quadrature():
    sc = standard_case("b")
    x, w = np.polynomial.legendre.leggauss(200)
    y = 4.0 * (x + 1.0)  # [0, 8]
    wy = 4.0 * w
    for t in (0.1, 0.31, 0.77):
        s0, s1 = linear_moments(*path_arrays(sc, t))

        def intensity(yv):
            return np.abs(np.exp(-(yv**2)) * (s0 + 2.0 * s1 * yv)) ** 2

        pos = float(np.sum(wy * intensity(y)))
        neg = float(np.sum(wy * intensity(-y)))
        i_lin, di_lin = linearized_intensities(*path_arrays(sc, t))
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
        _, di_lin = linearized_intensities(coeffs, shifts)
        bound = np.sum(np.abs(coeffs)) ** 2 * s**2
        assert abs(di_lin - quadcell_signal_quadrature(field)) <= bound


# -- second-order expansion ----------------------------------------------


def test_second_order_symbolic_forms():
    # case b: I/sqrt(pi/2) = 1 + 2 (d_A - d_B)(d_A - d_C + d_E + d_F)
    times = np.array([0.11, 0.29, 0.83])
    sc = standard_case("b")
    d = mirror_shifts(sc, times)
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
    d = mirror_shifts(sc, times)
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
            shift = max(abs(v) for v in mirror_shifts(sc, t).values())
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


def reference_quadcell(field, half_width, nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    y = 0.5 * half_width * (x + 1.0)
    wy = 0.5 * half_width * w
    pos = float(np.sum(wy * np.abs(reference_value(field, y)) ** 2))
    neg = float(np.sum(wy * np.abs(reference_value(field, -y)) ** 2))
    return pos - neg


def random_field(rng, size):
    return BeamField(
        tuple(
            BeamComponent(complex(*rng.uniform(-1, 1, 2)), float(rng.uniform(-0.1, 0.1)))
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


def on_rule(field, y, w):
    return beam._rule_intensity(*beam._gaussian_block(field, y), w)


@pytest.mark.parametrize(
    "half_width,step,nodes", [(8.0, 1e-3, 400), (10.0, 2e-3, 64), (12.5, 1e-2, 16)]
)
def test_oracles_match_plain_references(half_width, step, nodes):
    # The oracles' evaluation (one real block per field, precomputed weights)
    # on each grid against the plain term-by-term references on that grid;
    # the first grid is the oracles' own.
    total_rule = trapezoid_rule(half_width, step)
    quad_rule = half_line_rule(half_width, nodes)
    own = (half_width, step, nodes) == (8.0, 1e-3, 400)
    rng = np.random.default_rng(11)
    for i in range(60):
        field = random_field(rng, i % 4)
        ref_total = reference_total(field, half_width, step)
        ref_quad = reference_quadcell(field, half_width, nodes)
        total = on_rule(field, *total_rule)
        quad = on_rule(field, *quad_rule)
        if own:
            assert total_intensity_quadrature(field) == total
            assert quadcell_signal_quadrature(field) == quad
        assert abs(total - ref_total) <= 1e-14 * ref_total
        assert abs(quad - ref_quad) <= 1e-14 * max(abs(ref_quad), ref_total)


def test_oracles_match_plain_references_on_a_finer_wider_grid():
    # The oracles' fixed grids (step 1e-3 and 400 nodes per half-line on
    # [-8, 8]) against half the step, twice the nodes and half-width 10.
    rng = np.random.default_rng(11)
    for i in range(60):
        field = random_field(rng, i % 4)
        ref_total = reference_total(field, 10.0, 5e-4)
        ref_quad = reference_quadcell(field, 10.0, 800)
        total = total_intensity_quadrature(field)
        quad = quadcell_signal_quadrature(field)
        # the quad-cell error is measured against I_T, as validate does: the
        # two half-lines can cancel
        assert abs(total - ref_total) <= 1e-14 * ref_total
        assert abs(quad - ref_quad) <= 1e-14 * max(abs(ref_quad), ref_total)


def test_cached_rules_are_read_only():
    rules = (beam._trapezoid_rule, beam._half_line_rule)
    for rule, size in zip(rules, (16001, 800)):
        y, w = rule()
        assert rule() is rule()
        assert y.shape == w.shape == (size,)
        assert np.abs(y).max() <= 8.0
        for a in (y, w):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


def test_rules_are_not_built_at_import():
    code = (
        "from nestedmzi import beam; "
        "print(beam._trapezoid_rule.cache_info().currsize, "
        "beam._half_line_rule.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(beam.__file__).parents[1])},
    ).stdout
    assert out.split() == ["0", "0"]


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
