"""The validate checks must still catch a wrong table, line or closed form."""
import numpy as np
import pytest

from nestedmzi import beam, fock, spectra, validate
from nestedmzi.scenario import MIRRORS, standard_case


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


@pytest.mark.parametrize("seed,count", [(20240824, 1000), (7, 200)])
def test_random_fields_follow_the_draw_contract(seed, count):
    coeffs, shifts = validate.random_fields(np.random.default_rng(seed), count)
    assert coeffs.shape == shifts.shape == (3, count)
    assert coeffs.dtype == complex and shifts.dtype == float
    # each field's nonzero coefficients form a prefix of length 1-3
    sizes = np.count_nonzero(coeffs, axis=0)
    assert np.array_equal(coeffs != 0, np.arange(3)[:, np.newaxis] < sizes)
    assert set(sizes.tolist()) == {1, 2, 3}
    padded = coeffs == 0
    assert np.all(shifts[padded] == 0)
    for part in (coeffs.real, coeffs.imag):
        assert np.all((-1 <= part[~padded]) & (part[~padded] < 1))
    assert np.all((-0.1 <= shifts) & (shifts < 0.1))
    # the columns are the padded arrays of beam.stack_fields
    fields = [
        beam.BeamField(tuple(
            beam.BeamComponent(complex(c), float(s)) for c, s in zip(cs[:n], ss[:n])
        ))
        for cs, ss, n in zip(coeffs.T, shifts.T, sizes)
    ]
    for got, want in zip((coeffs, shifts), beam.stack_fields(fields)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
    # the same seed gives the same fields
    again = validate.random_fields(np.random.default_rng(seed), count)
    assert np.array_equal(again[0], coeffs) and np.array_equal(again[1], shifts)


def test_quartic_constants_equal_one_engine_call_per_run():
    # the 9 (case, eps) runs, each through its own engine calls
    times = np.arange(64) / 64.0
    want = []
    for case in "abc":
        for eps in (0.04, 0.02, 0.01):
            sc = standard_case(case).with_overrides(epsilon=eps)
            coeffs, shifts = beam.path_coefficients(sc), beam.path_shifts(sc, times)
            exact = beam.exact_intensity(coeffs, shifts)
            second = beam.second_order_intensities(coeffs, shifts)
            shift = np.max(np.abs(shifts[coeffs != 0]), axis=0)
            want.append(float(np.max(np.abs(exact - second) / np.maximum(shift, 1e-30) ** 4)))
    assert validate._quartic_constants().tolist() == np.reshape(want, (3, 3)).tolist()
    assert validate.check_quartic_remainder().detail == (
        "fitted-constant spread per case: ['1.00', '1.00', '1.00']"
    )


def test_quintic_amplitudes_equal_one_engine_call_per_run():
    times = np.arange(128) / 128.0
    want = []
    for eps in (0.01, 0.005):
        sc = standard_case("c").with_overrides(epsilon=eps)
        quad = beam.exact_quadcell(beam.path_coefficients(sc), beam.path_shifts(sc, times))
        want.append(float(np.max(np.abs(quad))))
    sc = standard_case("c")
    di_lin = beam.linearized_quadcell(beam.path_coefficients(sc), beam.path_shifts(sc, times))
    vals, got_lin = validate._quintic_quadcell()
    assert vals == want
    assert np.array_equal(got_lin, di_lin)
    assert np.array_equal(np.signbit(got_lin), np.signbit(di_lin))
    assert validate.check_case_c_quintic_quadcell().detail == (
        "amplitude ratio under eps halving: 31.984"
    )


def test_spectral_cases_detail_is_unchanged():
    assert validate.check_spectral_cases().detail == (
        "worst deviation 6.5 eps^2 of the top line (bound 10 eps^2)"
    )


def _fresh_translation_fields():
    rng = np.random.default_rng(7)
    coeffs, shifts = validate.random_fields(rng, 200)
    return coeffs, shifts, shifts + rng.uniform(-0.5, 0.5, 200)


def _fresh_planted_signal():
    sc = standard_case("a")
    t = np.arange(sc.sample_count) / sc.sample_rate
    amps = {"A": 0.3, "B": 0.11, "C": 0.22, "E": 0.04, "F": 0.15}
    x = np.zeros_like(t)
    for m in MIRRORS:
        x += amps[m] * np.sin(2 * np.pi * 2 * sc.mirror_freq[m] * t)
    return x


# Each cached builder of validate._TEST_DATA, built afresh as the checks once did.
FRESH_TEST_DATA = {
    "oracle_fields": lambda: validate.random_fields(np.random.default_rng(20240824), 1000),
    "_translation_fields": _fresh_translation_fields,
    "_planted_signal": _fresh_planted_signal,
}


def test_every_cached_builder_is_tested():
    assert [cached.__name__ for cached in validate._TEST_DATA] == list(FRESH_TEST_DATA)


@pytest.mark.parametrize("name", FRESH_TEST_DATA)
def test_cached_test_data_is_read_only_and_equals_a_fresh_build(name):
    cached = getattr(validate, name)
    got, want = cached(), FRESH_TEST_DATA[name]()
    if isinstance(got, np.ndarray):
        got, want = (got,), (want,)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert not a.flags.writeable
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert cached() is cached()  # built once


def test_two_runs_in_one_process_give_the_same_results():
    # the first run builds the test data, the second reads it from the caches
    for cached in validate._TEST_DATA:
        cached.cache_clear()
    first, second = validate.run_all(), validate.run_all()
    assert len(first) == len(validate.ALL_CHECKS)
    assert all(r.passed for r in first)
    assert [(r.name, r.passed, r.detail) for r in first] == [
        (r.name, r.passed, r.detail) for r in second
    ]
