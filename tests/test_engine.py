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
            value = beam.linearized_field_intensity(sc, t)[
                spectra.DETECTORS.index(detector)
            ]
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


def test_scalar_wrappers_match_the_per_pair_loops():
    rng = np.random.default_rng(3)
    for _ in range(200):
        field = BeamField(
            tuple(
                BeamComponent(
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    float(rng.uniform(-0.5, 0.5)),
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
    i_lin, di_lin = beam.linearized_intensities(coeffs, shifts)
    for k, field in enumerate(fields):
        assert abs(totals[k] - beam.total_intensity(field)) <= TOL
        assert abs(quads[k] - beam.quadcell_signal(field)) <= TOL
        want_i, want_di = beam.linearized_intensities(*field.arrays())
        assert abs(i_lin[k] - want_i) <= TOL
        assert abs(di_lin[k] - want_di) <= TOL


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
