"""The derived validate checks must still catch a wrong table or line."""
import pytest

from nestedmzi import fock, spectra, validate
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
