"""The array detector engine against per-sample evaluations and references."""
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nestedmzi import beam, spectra
from nestedmzi.beam import BeamComponent, BeamField
from nestedmzi.scenario import MIRRORS, Scenario, standard_case

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.npz"
TOL = 1e-14


def per_sample(sc, detector, model):
    """The detector evaluated one time at a time through the scalar API."""
    n = int(round(sc.sample_rate * sc.duration))
    out = []
    for i in range(n):
        t = i / sc.sample_rate
        if model == "exact":
            field = beam.field_at(sc, t)
            value = (
                beam.total_intensity(field)
                if detector == "total"
                else beam.quadcell_signal(field)
            )
        else:
            engine = beam.linearized_intensity if detector == "total" else beam.linearized_quadcell
            value = engine(beam.path_coefficients(sc), beam.path_shifts(sc, t))
        out.append(value)
    return np.array(out)


def loop_closed_forms(field):
    """(total, quad) by the per-pair Python loops of the closed forms."""
    total = quad = 0.0
    for cj in field.components:
        for ck in field.components:
            cross = (cj.coeff * complex(ck.coeff).conjugate()).real
            overlap = cross * math.exp(-((cj.shift - ck.shift) ** 2) / 2.0)
            total += overlap
            quad += overlap * math.erf((cj.shift + ck.shift) / math.sqrt(2.0))
    return beam.SQRT_HALF_PI * total, beam.SQRT_HALF_PI * quad


def loop_second_order(sc, t):
    """Second-order Taylor form by the per-component Python loop."""
    comps = beam.field_at(sc, t).components
    total = sum(abs(c.coeff) ** 2 for c in comps)
    for j, cj in enumerate(comps):
        for k, ck in enumerate(comps):
            if j != k:
                cross = (cj.coeff * ck.coeff.conjugate()).real
                total += cross * (1.0 - ((cj.shift - ck.shift) ** 2) / 2.0)
    return beam.SQRT_HALF_PI * total


@st.composite
def scenarios(draw):
    freqs = draw(
        st.lists(
            st.integers(min_value=1, max_value=24),
            min_size=len(MIRRORS),
            max_size=len(MIRRORS),
            unique=True,
        )
    )
    top = max(a + b for i, a in enumerate(freqs) for b in freqs[i + 1:])
    top = max(top, 2 * max(freqs))
    eps = draw(st.floats(min_value=1e-3, max_value=0.09))
    at_rest = draw(st.sets(st.sampled_from(MIRRORS), max_size=2))
    return Scenario(
        phi=draw(st.floats(min_value=0.0, max_value=2.0 * math.pi)),
        kappa=float(draw(st.integers(min_value=0, max_value=1))),
        epsilon=eps,
        mirror_freq={m: float(f) for m, f in zip(MIRRORS, freqs)},
        vib_amplitude={m: 0.0 if m in at_rest else eps for m in MIRRORS},
        duration=1.0,
        sample_rate=float(draw(st.integers(min_value=4 * top + 1, max_value=256))),
    )


@settings(max_examples=25, deadline=None)
@given(scenarios())
def test_sample_detector_matches_per_sample_scalar_calls(sc):
    for detector in spectra.DETECTORS:
        for model in spectra.MODELS:
            got = spectra.sample_detector(sc, detector, model).samples
            want = per_sample(sc, detector, model)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= TOL, (detector, model)


@settings(max_examples=25, deadline=None)
@given(scenarios())
def test_samples_are_finite_and_spectra_satisfy_parseval(sc):
    for detector in spectra.DETECTORS:
        for model in spectra.MODELS:
            ts = spectra.sample_detector(sc, detector, model)
            assert np.all(np.isfinite(ts.samples)), (detector, model)
            x = ts.samples - ts.samples.mean()
            lhs = float(np.sum(spectra.power_spectrum(ts).power))
            rhs = float(np.mean(x**2))
            assert abs(lhs - rhs) <= 1e-9 * rhs, (detector, model)


def test_scalar_wrappers_match_the_per_pair_loops():
    rng = np.random.default_rng(3)
    # shifts up to 3 put the erf arguments in every band below 6
    for max_shift in (0.5, 3.0):
        for _ in range(200):
            field = BeamField(
                tuple(
                    BeamComponent(
                        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                        float(rng.uniform(-max_shift, max_shift)),
                    )
                    for _ in range(rng.integers(0, 4))
                )
            )
            total, quad = loop_closed_forms(field)
            assert abs(beam.total_intensity(field) - total) <= TOL
            assert abs(beam.quadcell_signal(field) - quad) <= TOL


def test_padded_fields_match_unpadded_scalar_calls():
    rng = np.random.default_rng(5)
    fields = [
        BeamField(
            tuple(
                BeamComponent(
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    float(rng.uniform(-0.1, 0.1)),
                )
                for _ in range(size)
            )
        )
        for size in rng.integers(1, 4, size=300)
    ]
    coeffs, shifts = beam.stack_fields(fields)
    assert coeffs.shape == shifts.shape == (3, len(fields))
    totals = beam.exact_intensity(coeffs, shifts)
    quads = beam.exact_quadcell(coeffs, shifts)
    i_lin = beam.linearized_intensity(coeffs, shifts)
    di_lin = beam.linearized_quadcell(coeffs, shifts)
    for k, field in enumerate(fields):
        assert abs(totals[k] - beam.total_intensity(field)) <= TOL
        assert abs(quads[k] - beam.quadcell_signal(field)) <= TOL
        one = beam.stack_fields([field])
        assert abs(i_lin[k] - beam.linearized_intensity(*one)) <= TOL
        assert abs(di_lin[k] - beam.linearized_quadcell(*one)) <= TOL


@pytest.mark.parametrize(
    "coeffs,shifts",
    [
        (np.zeros((3, 4), complex), np.zeros((3, 4))),
        (np.zeros((2, 4), complex), np.zeros(2)),
        beam.stack_fields([BeamField(()), BeamField(()), BeamField(()), BeamField(())]),
    ],
)
def test_no_populated_row_gives_zeros_of_the_trailing_shape(coeffs, shifts):
    for f in (
        beam.exact_intensity, beam.exact_quadcell, beam.second_order_intensities,
        beam.linearized_intensity, beam.linearized_quadcell,
    ):
        values = f(coeffs, shifts)
        assert values.shape == (4,) and not values.any()


def test_scalar_calls_return_python_floats():
    field = beam.field_at(standard_case("a"), 0.3)
    assert type(beam.total_intensity(field)) is float
    assert type(beam.quadcell_signal(field)) is float
    assert beam.total_intensity(BeamField(())) == 0.0
    assert beam.quadcell_signal(BeamField(())) == 0.0


@pytest.mark.parametrize(
    "case,detector,model",
    [(c, d, m) for c in "abc" for d in spectra.DETECTORS for m in spectra.MODELS],
)
def test_figure_samples_match_stored_reference(case, detector, model):
    with np.load(REFERENCE) as ref:
        want = ref["_".join(("figure", case, detector, model))]
    got = spectra.sample_detector(standard_case(case), detector, model).samples
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL


@pytest.mark.parametrize("case", "abc")
def test_second_order_array_form_matches_the_per_time_loop(case):
    sc = standard_case(case).with_overrides(
        epsilon=0.04, vib_amplitude={m: 0.04 for m in MIRRORS}
    )
    times = np.arange(64) / 64.0
    got = beam.second_order_intensities(
        beam.path_coefficients(sc), beam.path_shifts(sc, times)
    )
    want = np.array([loop_second_order(sc, t) for t in times])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL


def plain_pair_sum(coeffs, shifts, diag, excess):
    """The pair sum with every term a fresh array, summed in the same order."""
    rows = [j for j in range(len(shifts)) if np.any(coeffs[j])]
    conj_sum = np.conj(sum(coeffs[j] for j in rows))
    diags = {j: diag(shifts[j]) for j in rows}
    zeros = np.zeros(np.broadcast_shapes(np.shape(coeffs)[1:], np.shape(shifts)[1:]))
    total = sum((diags[j] * (coeffs[j] * conj_sum).real for j in rows), zeros)
    for i, j in enumerate(rows):
        for k in rows[i + 1:]:
            weight = (coeffs[j] * np.conj(coeffs[k])).real
            total += weight * excess(shifts[j], shifts[k], diags[j], diags[k])
    return total


# (diagonal, excess) of each kernel. The total and second-order excesses are
# the cancellation-free forms; the quad cell keeps 2 K_ab - D_a - D_b.
PLAIN_KERNELS = {
    "exact_intensity": (
        lambda s: 1.0,
        lambda a, b, da, db: 2.0 * np.expm1(-((a - b) ** 2) / 2.0),
    ),
    "exact_quadcell": (
        lambda s: beam.erf((s + s) / math.sqrt(2.0)),
        lambda a, b, da, db: (
            2.0 * (np.exp(-((a - b) ** 2) / 2.0) * beam.erf((a + b) / math.sqrt(2.0)))
            - da - db
        ),
    ),
    "second_order_intensities": (lambda s: 1.0, lambda a, b, da, db: -((a - b) ** 2)),
    "linearized_quadcell": (lambda s: s + s, lambda a, b, da, db: 0.0),
}
# the linearized quad cell carries no sqrt(pi/2)
SCALES = dict.fromkeys(PLAIN_KERNELS, beam.SQRT_HALF_PI) | {"linearized_quadcell": 1.0}


@pytest.mark.parametrize("name", PLAIN_KERNELS)
def test_engine_equals_the_plain_pair_sum_bit_for_bit(name):
    # The engine forms and adds its terms in place; the values must not move.
    rng = np.random.default_rng(9)
    fields = [
        BeamField(tuple(
            BeamComponent(complex(*rng.uniform(-1, 1, 2)), float(rng.uniform(-0.1, 0.1)))
            for _ in range(size)
        ))
        for size in rng.integers(1, 4, 200)
    ]
    coeffs, shifts = beam.stack_fields(fields)
    middle_row_zero = coeffs.copy()
    middle_row_zero[1] = 0.0
    inputs = [
        (coeffs, shifts),
        (coeffs[:, 0], shifts[:, 0]),  # one field: (P,) coefficients and shifts
        (coeffs, rng.uniform(-0.1, 0.1, 3)),  # (P, N) coefficients with (P,) shifts
        (middle_row_zero, shifts),
    ]
    for case in "abc":
        sc = standard_case(case)
        inputs.append((beam.path_coefficients(sc), beam.path_shifts(sc, np.arange(1024) / 1024.0)))
    # Python complex coefficients, with case c's zero first
    inputs.append((tuple(complex(c) for c in beam.path_coefficients(sc)), inputs[-1][1]))
    for coeffs, shifts in inputs:
        got = getattr(beam, name)(coeffs, shifts)
        want = SCALES[name] * plain_pair_sum(coeffs, shifts, *PLAIN_KERNELS[name])
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


# -- erf kernel ------------------------------------------------------------

# Band edges of the fdlibm erf; the kernel switches formulas at each.
ERF_EDGES = (2.0**-28, 0.84375, 1.25, float.fromhex("0x1.6db6ep+1"), 6.0)


def erf_grid():
    parts = [np.linspace(0.0, 30.0, 30001)]
    for edge in ERF_EDGES:
        parts.append(edge + np.arange(-1000, 1001) * np.spacing(edge))
        parts.append(np.linspace(0.5 * edge, 1.5 * edge, 5001))
    parts.append(np.geomspace(5e-324, 2.3e-308, 1001))  # subnormals
    parts.append(np.geomspace(2.3e-308, 1.0, 2001))
    x = np.concatenate(parts)
    return np.concatenate([x, -x])


def test_erf_within_one_ulp_of_math_erf():
    x = erf_grid()
    got = beam.erf(x)
    want = np.array([math.erf(v) for v in x])
    miss = np.abs(got - want) > np.spacing(np.abs(want))
    assert not np.any(miss), x[miss][:5]


def test_erf_is_math_erf_from_0_84375_on():
    x = erf_grid()
    x = np.concatenate([x[np.abs(x) >= 0.84375], [np.inf, -np.inf, np.nan]])
    want = np.array([math.erf(v) for v in x])
    assert np.array_equal(beam.erf(x), want, equal_nan=True)


def test_erf_below_two_to_minus_28_is_the_linear_term():
    # s_erf.c: erf(x) = x + efx x there, efx = 2/sqrt(pi) - 1
    x = np.geomspace(2.0**-1015, 2.0**-28, 2001)[:-1]
    x = np.concatenate([x, -x])
    assert np.array_equal(beam.erf(x), x + 1.28379167095512586316e-01 * x)


def test_erf_special_values():
    got = beam.erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
    assert got[0] == 0.0 and not np.signbit(got[0])
    assert got[1] == 0.0 and np.signbit(got[1])
    assert got[2] == 1.0 and got[3] == -1.0
    assert np.isnan(got[4])
    # NaN takes the math.erf path; a lone NaN is still NaN
    assert np.isnan(beam.erf(np.nan))
    assert np.isnan(beam.erf(np.array([0.1, np.nan]))[1])


def test_erf_shapes_and_scalars():
    for value in (0.3, np.float64(0.3), np.array(0.3), 2.0, np.float64(-4.0)):
        got = beam.erf(value)
        assert isinstance(got, np.ndarray) and got.shape == ()
        want = math.erf(float(value))
        assert abs(float(got) - want) <= np.spacing(abs(want))
    rng = np.random.default_rng(11)
    for scale in (0.5, 5.0):
        x = rng.uniform(-scale, scale, size=(3, 40))
        got = beam.erf(x)
        assert got.shape == x.shape
        assert np.array_equal(got, beam.erf(x.ravel()).reshape(x.shape))
    assert beam.erf(np.array([])).shape == (0,)


def test_erf_value_does_not_depend_on_the_rest_of_the_array():
    # An all-small array takes the single-ratio path; one large element
    # sends the same values through the path that also calls math.erf.
    x = np.concatenate([erf_grid(), [0.0]])
    small = x[np.abs(x) < 0.84375]
    assert np.array_equal(beam.erf(small), beam.erf(np.append(small, 5.0))[:-1])
