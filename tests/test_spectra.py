import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nestedmzi import spectra
from nestedmzi.scenario import MIRRORS, standard_case
from nestedmzi.spectra import (
    TimeSeries,
    attribute_peaks,
    power_spectrum,
    sample_detector,
)


def tone_series(amps_freqs, rate=1024.0, duration=1.0, dc=0.0):
    n = int(round(rate * duration))
    t = np.arange(n) / rate
    x = np.full(n, dc)
    for amp, freq in amps_freqs:
        x = x + amp * np.sin(2 * np.pi * freq * t)
    return TimeSeries(x, rate, duration)


def dft_bin_power_oracle(ts, freq):
    """Direct DFT by definition at one bin (no FFT)."""
    x = ts.samples - ts.samples.mean()
    n = len(x)
    k = int(round(freq * ts.duration))
    w = np.exp(-2j * np.pi * k * np.arange(n) / n)
    return abs(np.dot(x, w)) ** 2 * 2.0 / n**2


# -- periodogram ---------------------------------------------------------


def test_unit_tone_power():
    spec = power_spectrum(tone_series([(1.0, 41.0)]))
    assert spec.bin_power(41.0) == pytest.approx(0.5, rel=1e-12)
    others = np.delete(spec.power, int(round(41.0)))
    assert others.max() < 1e-20


def test_constant_series_flat():
    spec = power_spectrum(tone_series([], dc=3.7))
    assert spec.power.max() < 1e-25


def test_two_tone_powers_match_direct_dft():
    ts = tone_series([(0.3, 31.0), (0.4, 47.0)])
    spec = power_spectrum(ts)
    for freq, expected in ((31.0, 0.045), (47.0, 0.08)):
        oracle = dft_bin_power_oracle(ts, freq)
        assert oracle == pytest.approx(expected, rel=1e-12)
        assert spec.bin_power(freq) == pytest.approx(oracle, rel=1e-9)


def test_bin_freqs_layout():
    spec = power_spectrum(tone_series([(1.0, 41.0)]))
    assert spec.freqs[0] == 0.0
    assert spec.freqs[1] == pytest.approx(1.0)
    assert spec.freqs[-1] == pytest.approx(512.0)


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        TimeSeries(np.array([]), 1024.0, 1.0)


def test_nan_rejected():
    x = np.zeros(1024)
    x[3] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        TimeSeries(x, 1024.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=2.0),
            st.integers(min_value=1, max_value=500),
        ),
        min_size=1,
        max_size=5,
    ),
    st.floats(min_value=-5, max_value=5),
)
def test_parseval(tones, dc):
    ts = tone_series([(a, float(f)) for a, f in tones], dc=dc)
    spec = power_spectrum(ts)
    x = ts.samples - ts.samples.mean()
    assert float(np.sum(spec.power)) == pytest.approx(
        float(np.mean(x**2)), rel=1e-9, abs=1e-15
    )


@pytest.mark.parametrize("n", [1024, 1023])
def test_parseval_on_white_noise(n):
    # white noise has Nyquist content, which an even length puts in one
    # unpaired bin
    x = np.random.default_rng(n).standard_normal(n)
    spec = power_spectrum(TimeSeries(x, float(n), 1.0))
    x = x - x.mean()
    assert float(np.sum(spec.power)) == pytest.approx(float(np.mean(x**2)), rel=1e-12)


# -- attribution ---------------------------------------------------------


def test_attribution_recovers_planted_tones():
    sc = standard_case("a")
    amps = {"A": 0.3, "B": 0.11, "C": 0.22, "E": 0.04, "F": 0.15}
    ts = tone_series([(amps[m], 2 * sc.mirror_freq[m]) for m in MIRRORS])
    report = attribute_peaks(power_spectrum(ts), sc, "total")
    for m in MIRRORS:
        assert report.mirrors[m]["freq"] == 2 * sc.mirror_freq[m]
        assert report.mirrors[m]["power"] == pytest.approx(
            amps[m] ** 2 / 2, rel=1e-9
        )
    assert report.residual == ()


def test_attribution_quad_uses_fundamentals():
    sc = standard_case("b")
    ts = tone_series([(0.2, sc.mirror_freq["C"])])
    report = attribute_peaks(power_spectrum(ts), sc, "quad")
    assert report.mirrors["C"]["freq"] == sc.mirror_freq["C"]
    assert report.mirrors["C"]["power"] == pytest.approx(0.02, rel=1e-9)


def test_attribution_reports_combination_tones_as_residual():
    sc = standard_case("a")
    ts = tone_series([(0.3, 2 * 31.0), (0.1, 31.0 + 37.0)])
    report = attribute_peaks(power_spectrum(ts), sc, "total")
    assert report.mirrors["A"]["power"] == pytest.approx(0.045, rel=1e-9)
    assert len(report.residual) == 1
    freq, power = report.residual[0]
    assert freq == 68.0
    assert power == pytest.approx(0.005, rel=1e-9)


def test_attribution_refuses_colliding_plan():
    sc = standard_case("b").with_overrides(
        mirror_freq={"A": 37.0, "B": 41.0, "C": 43.0, "E": 47.0, "F": 53.0}
    )
    ts = tone_series([(0.1, 37.0)])
    with pytest.raises(ValueError, match="collision"):
        attribute_peaks(power_spectrum(ts), sc, "total")


def test_attribution_refuses_a_bin_beyond_the_spectrum():
    # 200 samples in 1 s keep bins 0-100; case a's 2 f_i lines reach 118 Hz
    spec = power_spectrum(tone_series([(0.1, 62.0)], rate=200.0))
    with pytest.raises(ValueError, match="frequency 118.0 outside spectrum range"):
        attribute_peaks(spec, standard_case("a"), "total")
    with pytest.raises(ValueError, match="frequency 118.0 outside spectrum range"):
        spec.bin_power(118.0)


def test_attribution_skips_inactive_mirrors():
    sc = standard_case("b").with_overrides(
        vib_amplitude={"A": 0.01, "B": 0, "C": 0, "E": 0, "F": 0}
    )
    ts = tone_series([(0.1, 2 * 31.0)])
    report = attribute_peaks(power_spectrum(ts), sc, "total")
    assert set(report.mirrors) == {"A"}


# -- detector sampling ---------------------------------------------------


def test_static_scenario_constant_series():
    sc = standard_case("a").with_overrides(vib_amplitude={m: 0.0 for m in MIRRORS})
    ts = sample_detector(sc, "total", "exact")
    assert np.ptp(ts.samples) == 0.0


def test_case_b_total_dc_level():
    sc = standard_case("b")
    ts = sample_detector(sc, "total", "exact")
    assert ts.samples.mean() == pytest.approx(math.sqrt(math.pi / 2), rel=1e-3)


def test_case_c_quad_linearized_identically_zero():
    ts = sample_detector(standard_case("c"), "quad", "linearized")
    assert np.all(ts.samples == 0.0)


def test_quad_case_b_leading_structure():
    # first-order erf expansion: dI ~ 2 (d_C - d_A + d_B), amplitude 2 eps
    sc = standard_case("b")
    ts = sample_detector(sc, "quad", "exact")
    report = attribute_peaks(power_spectrum(ts), sc, "quad")
    expected = (2 * sc.epsilon) ** 2 / 2
    for m in ("A", "B", "C"):
        assert report.mirrors[m]["power"] == pytest.approx(expected, rel=0.01)
    for m in ("E", "F"):
        assert report.mirrors[m]["power"] < 0.01 * report.mirrors["C"]["power"]


def test_quad_case_a_e_f_four_times_c():
    # dI ~ -2 (d_C - d_A - d_B - 2 d_E - 2 d_F)
    sc = standard_case("a")
    ts = sample_detector(sc, "quad", "exact")
    report = attribute_peaks(power_spectrum(ts), sc, "quad")
    c_power = report.mirrors["C"]["power"]
    assert all(report.mirrors[m]["power"] > 0 for m in MIRRORS)
    for m in ("E", "F"):
        assert report.mirrors[m]["power"] == pytest.approx(4 * c_power, rel=0.1)


def test_quad_case_c_quintic_power_scaling():
    # exact dI carries signal at A, B, E, F; its total power falls by
    # 2^10 = 1024 when eps halves (fifth-order amplitude law)
    totals = []
    for eps in (0.01, 0.005):
        sc = standard_case("c").with_overrides(
            epsilon=eps, vib_amplitude={m: eps for m in MIRRORS}
        )
        ts = sample_detector(sc, "quad", "exact")
        spec = power_spectrum(ts)
        totals.append(float(np.sum(spec.power)))
        report = attribute_peaks(spec, sc, "quad")
        for m in ("A", "B", "E", "F"):
            assert report.mirrors[m]["power"] > 0
    assert totals[0] / totals[1] == pytest.approx(1024.0, rel=0.1)


def test_report_json_shape():
    sc = standard_case("b")
    ts = sample_detector(sc, "total", "exact")
    report = attribute_peaks(power_spectrum(ts), sc, "total")
    data = report.to_dict()
    assert set(data) == {"mirror", "residual", "detector", "model", "note"}
    assert set(data["mirror"]) == set(MIRRORS)
    assert all(set(v) == {"freq", "power"} for v in data["mirror"].values())


def residual_by_loop(spec, report):
    """The residual scan one bin at a time: every bin above the threshold
    except DC and the attributed bins, as Python floats in bin order."""
    attributed = {int(round(v["freq"] * spec.duration)) for v in report.mirrors.values()}
    threshold = spectra.RESIDUAL_THRESHOLD * report.max_power()
    out = []
    for k in range(1, len(spec.power)):
        p = float(spec.power[k])
        if k not in attributed and p > threshold and p > 0.0:
            out.append((float(spec.freqs[k]), p))
    return tuple(out)


def test_residual_matches_bin_by_bin_scan():
    sizes = []
    for case in "abc":
        sc = standard_case(case)
        for detector in spectra.DETECTORS:
            spec = power_spectrum(sample_detector(sc, detector, "exact"))
            report = attribute_peaks(spec, sc, detector)
            assert report.residual == residual_by_loop(spec, report)
            assert all(type(f) is float and type(p) is float for f, p in report.residual)
            sizes.append(len(report.residual))
    assert max(sizes) > 0  # combination tones make some residuals non-empty


def test_attribution_records_model():
    sc = standard_case("b")
    spec = power_spectrum(sample_detector(sc, "total", "linearized"))
    assert attribute_peaks(spec, sc, "total").model == ""
    report = attribute_peaks(spec, sc, "total", model="linearized")
    assert report.model == "linearized"
    assert report.to_dict()["model"] == "linearized"


def test_run_chains_sample_spectrum_and_attribution():
    sc = standard_case("c")
    ts, spec, report = spectra.run(sc, "quad", "exact")
    assert np.array_equal(ts.samples, sample_detector(sc, "quad", "exact").samples)
    assert np.array_equal(spec.power, power_spectrum(ts).power)
    assert report == attribute_peaks(spec, sc, "quad", model="exact")


def test_write_artifacts_matches_the_four_writers(tmp_path):
    ts, spec, report = spectra.run(standard_case("a"), "total", "exact")
    spectra.write_artifacts(tmp_path / "new" / "run", ts, spec, report)
    old = tmp_path / "old"
    old.mkdir()
    spectra.write_timeseries_csv(ts, old / "timeseries.csv")
    spectra.write_spectrum_csv(spec, old / "spectrum.csv")
    spectra.write_attribution_json(report, old / "attribution.json")
    spectra.write_bars_csv(report, old / "bars.csv")
    assert sorted(p.name for p in old.iterdir()) == sorted(spectra.ARTIFACTS)
    for name in spectra.ARTIFACTS:
        assert (tmp_path / "new" / "run" / name).read_bytes() == (old / name).read_bytes()


def test_dc_bin_is_never_residual():
    sc = standard_case("a")
    power = np.zeros(513)
    power[0] = 1.0  # DC is removed before the transform; plant it anyway
    power[62] = 0.5  # 2 f_A
    power[68] = 0.25  # f_A + f_B
    spec = spectra.PowerSpectrum(np.arange(513.0), power, 1.0)
    report = attribute_peaks(spec, sc, "total")
    assert report.residual == ((68.0, 0.25),)


def rows_by_loop(header, x, y):
    return header + "\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x, y))


@pytest.mark.parametrize("model", spectra.MODELS)
@pytest.mark.parametrize("detector", spectra.DETECTORS)
@pytest.mark.parametrize("case", "abc")
def test_csv_writers_match_a_per_row_writer(tmp_path, case, detector, model):
    ts, spec, _ = spectra.run(standard_case(case), detector, model)
    spectra.write_timeseries_csv(ts, tmp_path / "timeseries.csv")
    spectra.write_spectrum_csv(spec, tmp_path / "spectrum.csv")
    assert (tmp_path / "timeseries.csv").read_bytes() == rows_by_loop(
        "t,value", ts.times, ts.samples
    ).encode()
    assert (tmp_path / "spectrum.csv").read_bytes() == rows_by_loop(
        "freq_hz,power", spec.freqs, spec.power
    ).encode()


def rows_by_column_stack(header, x, y):
    """The writer before the x text was cached: every row formatted at once."""
    rows = np.column_stack([x, y]).ravel().tolist()
    return header + "\n" + "%.17g,%.17g\n" * len(x) % tuple(rows)


def assert_csvs_match_both_references(outdir, ts, spec):
    for name, header, x, y in (
        ("timeseries.csv", "t,value", ts.times, ts.samples),
        ("spectrum.csv", "freq_hz,power", spec.freqs, spec.power),
    ):
        written = (outdir / name).read_bytes()
        assert written == rows_by_loop(header, x, y).encode(), name
        assert written == rows_by_column_stack(header, x, y).encode(), name


@pytest.mark.parametrize(
    "overrides, samples",
    [({"duration": 2.0}, 2048), ({"sample_rate": 3000.0}, 3000)],
    ids=["duration-2", "rate-3000"],
)
def test_csv_writers_match_at_other_sample_counts(tmp_path, overrides, samples):
    sc = standard_case("a").with_overrides(**overrides)
    ts, spec, report = spectra.run(sc, "quad", "exact")
    assert len(ts.samples) == samples and len(spec.freqs) == samples // 2 + 1
    spectra.write_artifacts(tmp_path, ts, spec, report)
    assert_csvs_match_both_references(tmp_path, ts, spec)


SPECIAL_VALUES = [-0.0, math.inf, -math.inf, math.nan, 5e-324,
                  1.7976931348623157e308, 1 / 3, 0.0]


def test_csv_writer_keeps_special_values(tmp_path):
    freqs = np.array(SPECIAL_VALUES)
    power = freqs[::-1].copy()
    spec = spectra.PowerSpectrum(freqs, power, 1.0)
    spectra.write_spectrum_csv(spec, tmp_path / "spectrum.csv")
    text = (tmp_path / "spectrum.csv").read_text()
    assert text == rows_by_loop("freq_hz,power", freqs, power)
    assert text == rows_by_column_stack("freq_hz,power", freqs, power)
    assert text.splitlines()[1:3] == ["-0,0", "inf,0.33333333333333331"]


def test_equal_length_columns_get_their_own_x_text(tmp_path):
    power = np.array([0.25, 0.5, 1.0, 2.0])
    specs = [
        spectra.PowerSpectrum(np.arange(4.0), power, 1.0),
        spectra.PowerSpectrum(np.arange(4.0) / 3, power, 3.0),
        # the same values as the first but a negative zero: other bytes
        spectra.PowerSpectrum(np.array([-0.0, 1.0, 2.0, 3.0]), power, 1.0),
    ]
    for spec in specs + specs[::-1]:
        spectra.write_spectrum_csv(spec, tmp_path / "spectrum.csv")
        assert (tmp_path / "spectrum.csv").read_text() == rows_by_loop(
            "freq_hz,power", spec.freqs, spec.power
        )


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats()), max_size=20))
def test_column_writer_matches_a_per_row_writer_on_any_floats(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("columns") / "columns.csv"
    x, y = (np.array([r[k] for r in rows], dtype=float) for k in (0, 1))
    spectra._write_columns(path, "x,y", x, y)
    assert path.read_text() == rows_by_loop("x,y", x, y)


def test_row_templates_are_bounded_and_reused_across_the_figure(tmp_path):
    cache = spectra._row_template
    assert cache.cache_info().maxsize == 2
    combos = [(c, d, m) for c in "abc" for d in spectra.DETECTORS for m in spectra.MODELS]
    runs = [spectra.run(standard_case(c), d, m) for c, d, m in combos]
    spectra.write_artifacts(tmp_path / "first", *runs[0])
    misses = cache.cache_info().misses
    for k, run in enumerate(runs):
        spectra.write_artifacts(tmp_path / str(k), *run)
        assert_csvs_match_both_references(tmp_path / str(k), *run[:2])
    info = cache.cache_info()
    assert info.misses == misses and info.currsize <= 2


@pytest.mark.parametrize("y_len", [4, 6], ids=["y-shorter", "y-longer"])
def test_mismatched_columns_raise_before_the_file_is_opened(tmp_path, y_len):
    spec = spectra.PowerSpectrum(np.arange(5.0), np.ones(y_len), 1.0)
    missing, existing = tmp_path / "missing.csv", tmp_path / "existing.csv"
    existing.write_bytes(b"freq_hz,power\n0,1\n")
    for path in (missing, existing):
        with pytest.raises(ValueError, match=f"x has 5 values but y has {y_len}"):
            spectra.write_spectrum_csv(spec, path)
    assert not missing.exists()
    assert existing.read_bytes() == b"freq_hz,power\n0,1\n"
