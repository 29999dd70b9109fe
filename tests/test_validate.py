"""The validate checks must still catch a wrong table, line or closed form."""
import numpy as np
import pytest

from nestedmzi import beam, fock, spectra, validate
from nestedmzi.scenario import standard_case


def test_derived_checks_pass_on_the_model():
    assert validate.check_case_tables().passed
    assert validate.check_spectral_cases().passed


def _patch_table(monkeypatch, case, key, change):
    real = fock.case_probability_table

    def patched(case_id, epsilon, *args):
        table = real(case_id, epsilon, *args)
        if case_id == case:
            table[key] = change(table[key])
        return table

    monkeypatch.setattr(fock, "case_probability_table", patched)


@pytest.mark.parametrize(
    "case,key", [("a", "A"), ("a", "E"), ("a", "zero"), ("b", "C"), ("c", "B")]
)
def test_case_tables_catch_a_scaled_entry(monkeypatch, case, key):
    _patch_table(monkeypatch, case, key, lambda p: p * (1 + 1e-4))
    assert not validate.check_case_tables().passed


@pytest.mark.parametrize(
    "case,key", [("b", "E"), ("b", "F"), ("c", "C"), ("c", "E"), ("c", "zero")]
)
def test_case_tables_catch_a_predicted_zero_entry(monkeypatch, case, key):
    _patch_table(monkeypatch, case, key, lambda p: p + 1e-10)
    assert not validate.check_case_tables().passed


@pytest.mark.parametrize(
    "case,mirror", [("b", "A"), ("a", "C"), ("a", "F"), ("c", "A"), ("c", "B")]
)
def test_spectral_cases_catch_a_scaled_line(monkeypatch, case, mirror):
    real = spectra.run

    def patched(scenario, detector="total", model="exact"):
        ts, spec, report = real(scenario, detector, model)
        if scenario == standard_case(case):
            report.mirrors[mirror]["power"] *= 1.01
        return ts, spec, report

    monkeypatch.setattr(spectra, "run", patched)
    assert not validate.check_spectral_cases().passed


@pytest.mark.parametrize("name", ["exact_intensity", "exact_quadcell"])
def test_detector_oracles_catch_a_closed_form_off_by_1e8(monkeypatch, name):
    real = getattr(beam, name)
    monkeypatch.setattr(beam, name, lambda coeffs, shifts: real(coeffs, shifts) * (1 + 1e-8))
    assert not validate.check_detector_oracles().passed


def scalar_random_fields(rng, count):
    # One rng.uniform call per value: the draw order validate._random_fields
    # must reproduce.
    for _ in range(count):
        n = rng.integers(1, 4)
        yield beam.BeamField(
            tuple(
                beam.BeamComponent(
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    float(rng.uniform(-0.1, 0.1)),
                )
                for _ in range(n)
            )
        )


def draw_field(draw):
    return beam.BeamField(
        tuple(beam.BeamComponent(complex(re, im), s) for re, im, s in draw.tolist())
    )


@pytest.mark.parametrize("seed,count", [(20240824, 1000), (7, 200)])
def test_random_fields_match_one_draw_per_value(seed, count):
    draws = list(validate._random_fields(np.random.default_rng(seed), count))
    want = list(scalar_random_fields(np.random.default_rng(seed), count))
    assert [draw_field(d) for d in draws] == want
    # the scattered (P, F) arrays are those of beam.stack_fields
    for got, expected in zip(validate._stack_draws(draws), beam.stack_fields(want)):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    # with an offset drawn after each field, as check_translation_invariance does
    rng = np.random.default_rng(seed)
    runs = [[(draw_field(d), rng.uniform(-0.5, 0.5)) for d in validate._random_fields(rng, count)]]
    rng = np.random.default_rng(seed)
    runs.append([(f, rng.uniform(-0.5, 0.5)) for f in scalar_random_fields(rng, count)])
    assert runs[0] == runs[1]
