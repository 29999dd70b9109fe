import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nestedmzi import spectra, validate
from nestedmzi.cli import main
from nestedmzi.scenario import standard_case


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fock_projector_case_a(capsys):
    code, out, _ = run(
        capsys,
        "fock", "--case", "a", "--epsilon", "0.001",
        "--procedure", "projector", "--json",
    )
    assert code == 0
    table = json.loads(out)["projector"]
    assert table["E"] == pytest.approx(4e-6 / 9, rel=1e-4)
    assert table["A"] == pytest.approx(1e-6 / 9, rel=1e-4)


def test_fock_case_c_zero_mode_row(capsys):
    code, out, _ = run(
        capsys, "fock", "--case", "c", "--procedure", "projector", "--json"
    )
    assert code == 0
    table = json.loads(out)["projector"]
    assert table["zero"] == 0.0
    assert table["C"] == 0.0


def test_fock_bcjlss_case_b(capsys):
    code, out, _ = run(
        capsys, "fock", "--case", "b", "--procedure", "bcjlss", "--json"
    )
    assert code == 0
    table = json.loads(out)["bcjlss"]
    assert table["E"] == pytest.approx(0.0, abs=1e-15)
    assert table["F"] == pytest.approx(0.0, abs=1e-15)
    for m in ("A", "B", "C"):
        assert table[m] == pytest.approx(1 / 9, rel=1e-12)


def test_fock_compare(capsys):
    code, out, _ = run(capsys, "fock", "--case", "a", "--compare", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"projector", "bcjlss", "ratio"}
    # projector probs are eps^2 * witness at leading order
    eps2 = standard_case("a").epsilon ** 2
    assert payload["ratio"]["E"] == pytest.approx(eps2, rel=0.01)


def test_fock_text_output(capsys):
    code, out, _ = run(capsys, "fock", "--case", "a")
    assert code == 0
    assert "[projector]" in out
    assert "zero" in out


def test_unknown_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fock", "--case", "a", "--bogus"])
    assert exc.value.code == 2


def test_unknown_case_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fock", "--case", "z"])
    assert exc.value.code == 2


def test_spectrum_case_b_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run(
        capsys,
        "spectrum", "--case", "b", "--detector", "total",
        "--model", "exact", "--out", str(out_dir),
    )
    assert code == 0
    for name in ("timeseries.csv", "spectrum.csv", "attribution.json", "bars.csv"):
        assert (out_dir / name).exists()
    bars = {}
    lines = (out_dir / "bars.csv").read_text().splitlines()
    assert lines[0] == "mirror,attributed_power"
    for line in lines[1:]:
        m, v = line.split(",")
        bars[m] = float(v)
    assert bars["A"] == 1.0
    assert all(bars[m] < 0.01 for m in ("B", "C", "E", "F"))
    report = json.loads((out_dir / "attribution.json").read_text())
    assert report["detector"] == "total"
    assert report["model"] == "exact"
    assert (out_dir / "timeseries.csv").read_text().startswith("t,value\n")
    assert (out_dir / "spectrum.csv").read_text().startswith("freq_hz,power\n")


def test_spectrum_refuses_overwrite(tmp_path, capsys):
    out_dir = tmp_path / "run"
    args = (
        "spectrum", "--case", "c", "--detector", "quad",
        "--model", "linearized", "--out", str(out_dir),
    )
    code, _, _ = run(capsys, *args)
    assert code == 0
    code, _, err = run(capsys, *args)
    assert code == 1
    assert "refusing to overwrite" in err
    code, _, _ = run(capsys, *args, "--force")
    assert code == 0


def test_spectrum_case_c_quad_linearized_flat(tmp_path, capsys):
    out_dir = tmp_path / "flat"
    code, out, _ = run(
        capsys,
        "spectrum", "--case", "c", "--detector", "quad",
        "--model", "linearized", "--out", str(out_dir),
    )
    assert code == 0
    report = json.loads((out_dir / "attribution.json").read_text())
    assert "zero" in report["note"]
    assert all(v["power"] == 0.0 for v in report["mirror"].values())
    values = [
        float(line.split(",")[1])
        for line in (out_dir / "timeseries.csv").read_text().splitlines()[1:]
    ]
    assert all(v == 0.0 for v in values)


def test_spectrum_case_a_bars(tmp_path, capsys):
    out_dir = tmp_path / "a"
    code, _, _ = run(
        capsys,
        "spectrum", "--case", "a", "--detector", "total",
        "--model", "exact", "--out", str(out_dir),
    )
    assert code == 0
    bars = {}
    for line in (out_dir / "bars.csv").read_text().splitlines()[1:]:
        m, v = line.split(",")
        bars[m] = float(v)
    for m in ("C", "E", "F"):
        assert bars[m] == pytest.approx(1.0, abs=0.05)
    assert bars["A"] < 0.01 and bars["B"] < 0.01


def test_spectrum_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        code, _, _ = run(
            capsys,
            "spectrum", "--case", "b", "--detector", "quad",
            "--model", "exact", "--out", str(d),
        )
        assert code == 0
    for name in ("timeseries.csv", "spectrum.csv", "attribution.json", "bars.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_plan_check_ok(capsys):
    code, out, _ = run(capsys, "plan-check", "--case", "b")
    assert code == 0
    assert "attribution-safe" in out


def test_plan_check_collision(capsys):
    code, out, _ = run(
        capsys,
        "plan-check", "--case", "b",
        "--freq", "A=37", "--freq", "B=41", "--freq", "C=43",
        "--freq", "E=47", "--freq", "F=53",
    )
    assert code == 1
    assert "collision" in out


def test_plan_check_prints_the_catalogue_and_every_collision(capsys):
    code, out, _ = run(
        capsys, "plan-check", "--case", "b", "--freq", "A=62", "--freq", "C=31"
    )
    assert code == 1
    assert out == (
        "fundamentals: [31.0, 37.0, 47.0, 59.0, 62.0]\n"
        "doubles:      [62.0, 74.0, 94.0, 118.0, 124.0]\n"
        "sums:         [68.0, 78.0, 84.0, 90.0, 93.0, 96.0, 99.0, 106.0, 109.0, 121.0]\n"
        "diffs:        [3.0, 6.0, 10.0, 12.0, 15.0, 16.0, 22.0, 25.0, 28.0, 31.0]\n"
        "collision: f_A-f_C=31 hits f_C=31\n"
        "collision: f_A=62 hits 2f_C=62\n"
        "collision: 2f_C=62 hits f_A=62\n"
    )


@pytest.mark.parametrize("detector", ["quad", "total"])
def test_attribution_error_lists_the_collisions_plan_check_prints(capsys, detector):
    _, out, _ = run(
        capsys, "plan-check", "--case", "b", "--freq", "A=62", "--freq", "C=31"
    )
    printed = [line[len("collision: "):] for line in out.splitlines()[4:]]
    assert len(printed) == 3
    sc = standard_case("b").with_overrides(
        mirror_freq={**standard_case("b").mirror_freq, "A": 62.0, "C": 31.0}
    )
    spec = spectra.power_spectrum(spectra.sample_detector(sc, detector, "exact"))
    with pytest.raises(ValueError) as err:
        spectra.attribute_peaks(spec, sc, detector)
    assert str(err.value) == "frequency plan has collisions: " + "; ".join(printed)


def test_validate_json_lists_the_text_results(capsys):
    code, out, _ = run(capsys, "validate", "--json")
    assert code == 0
    results = json.loads(out)
    assert len(results) == len(validate.ALL_CHECKS) == 13
    for r in results:
        assert list(r) == ["name", "passed", "detail", "seconds"]
        assert r["passed"] is True
        assert isinstance(r["seconds"], float) and r["seconds"] >= 0.0
    code, out, _ = run(capsys, "validate")
    assert code == 0
    lines = out.splitlines()
    assert lines[:-1] == [f"[PASS] {r['name']}: {r['detail']}" for r in results]
    assert re.fullmatch(r"13/13 checks passed in \d+\.\ds", lines[-1])


def test_validate_json_exits_one_on_a_failed_check(capsys, monkeypatch):
    def failing():
        return validate.CheckResult("planted", False, "always fails")

    monkeypatch.setattr(validate, "ALL_CHECKS", (validate.check_standard_plans, failing))
    code, out, _ = run(capsys, "validate", "--json")
    assert code == 1
    assert [r["passed"] for r in json.loads(out)] == [True, False]


def test_freq_override_and_epsilon(capsys):
    code, out, _ = run(
        capsys,
        "fock", "--case", "a", "--epsilon", "0.002", "--json",
    )
    assert code == 0
    table = json.loads(out)["projector"]
    assert table["E"] == pytest.approx(4 * 0.002**2 / 9, rel=1e-4)


def test_invalid_epsilon_exits_one(capsys):
    code, _, err = run(capsys, "fock", "--case", "a", "--epsilon", "0.5")
    assert code == 1
    assert "error" in err


def test_scenario_file_layering(tmp_path, capsys):
    sc = standard_case("b").with_overrides(epsilon=0.02)
    path = tmp_path / "scenario.json"
    path.write_text(sc.to_json())
    # file overrides the case default; flag overrides the file
    code, out, _ = run(
        capsys,
        "fock", "--case", "b", "--scenario-file", str(path), "--json",
    )
    assert code == 0
    assert json.loads(out)["projector"]["A"] == pytest.approx(
        0.02**2 / 9, rel=1e-3
    )
    code, out, _ = run(
        capsys,
        "fock", "--case", "b", "--scenario-file", str(path),
        "--epsilon", "0.005", "--json",
    )
    assert code == 0
    assert json.loads(out)["projector"]["A"] == pytest.approx(
        0.005**2 / 9, rel=1e-3
    )


def test_epsilon_flag_keeps_mirrors_at_rest(tmp_path, capsys):
    amps = {**standard_case("a").vib_amplitude, "B": 0.0}
    path = tmp_path / "rest_b.json"
    path.write_text(standard_case("a").with_overrides(vib_amplitude=amps).to_json())
    for extra in ((), ("--epsilon", "0.02")):
        code, out, _ = run(
            capsys, "plan-check", "--case", "a", "--scenario-file", str(path), *extra
        )
        assert code == 0
        assert out.splitlines()[0] == "fundamentals: [31.0, 41.0, 47.0, 59.0]"
    code, out, _ = run(
        capsys, "spectrum", "--case", "a", "--scenario-file", str(path),
        "--epsilon", "0.02", "--out", str(tmp_path / "run"),
    )
    assert code == 0
    bars = json.loads((tmp_path / "run" / "attribution.json").read_text())["mirror"]
    assert sorted(bars) == ["A", "C", "E", "F"]


def test_fock_scenario_file_phi_is_honoured(tmp_path, capsys):
    # phi = 1 moves the case-b E/F projector probabilities from the
    # eps^4 floor (2.2e-9) to 1.02e-5
    path = tmp_path / "phi1.json"
    path.write_text(standard_case("b").with_overrides(phi=1.0).to_json())
    code, out, _ = run(
        capsys, "fock", "--case", "b", "--scenario-file", str(path), "--json"
    )
    assert code == 0
    table = json.loads(out)["projector"]
    assert table["E"] == pytest.approx(1.0215682914413006e-05, rel=1e-12)
    assert table["F"] == pytest.approx(1.0215682914413006e-05, rel=1e-12)
    code, out, _ = run(capsys, "fock", "--case", "b", "--json")
    assert json.loads(out)["projector"]["E"] < 1e-8


def test_fock_scenario_file_kappa_is_honoured(tmp_path, capsys):
    path = tmp_path / "blocked.json"
    path.write_text(standard_case("b").with_overrides(kappa=0.0).to_json())
    code, out, _ = run(
        capsys, "fock", "--case", "b", "--scenario-file", str(path), "--json"
    )
    assert code == 0
    assert json.loads(out)["projector"]["C"] == 0.0


def test_non_integer_sample_count_exits_one(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "spectrum", "--case", "b", "--rate", "1000.4", "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert err.startswith("error: ") and "1000.4" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def _cli(*argv, cwd=None):
    """Run the CLI in a fresh interpreter; (exit code, stderr)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )}
    proc = subprocess.run(
        [sys.executable, "-m", "nestedmzi.cli", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, cwd=cwd,
        timeout=120,
    )
    return proc.returncode, proc.stderr.decode()


@pytest.mark.parametrize(
    "argv,field",
    [
        (["plan-check", "--case", "a", "--freq", "A=inf"], "mirror_freq[A]"),
        (["plan-check", "--case", "a", "--freq", "A=nan"], "mirror_freq[A]"),
        (["fock", "--case", "b", "--scenario-file", "phi.json"], "phi"),
    ],
)
def test_non_finite_field_exits_one_without_traceback(tmp_path, argv, field):
    (tmp_path / "phi.json").write_text('{"phi": 1e400, "kappa": 1.0}')
    code, err = _cli(*argv, cwd=tmp_path)
    assert code == 1, err
    assert err.startswith(f"error: {field} must be finite")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content,reason",
    [(None, "No such file"), ("5", "holds no JSON object"), ("{", "is not JSON")],
)
def test_unreadable_scenario_file_is_a_usage_error(tmp_path, capsys, content, reason):
    path = tmp_path / "scenario.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["fock", "--case", "a", "--scenario-file", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err
    assert err.count("\n") == 1


def test_closed_stdout_pipe_exits_quietly():
    # The read end is closed before the CLI starts, so its first write
    # meets a pipe with no reader.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nestedmzi.cli",
             "fock", "--case", "a", "--compare", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    stderr = proc.stderr.decode()
    assert proc.returncode == 141, stderr
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr


def test_unwritable_out_is_a_usage_error(tmp_path):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "run"
    code, err = _cli("spectrum", "--case", "a", "--out", str(out))
    assert code == 2, err
    assert err.startswith(f"error: cannot write --out {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_refusing_to_overwrite_is_an_error_line(tmp_path, capsys):
    args = ("spectrum", "--case", "b", "--out", str(tmp_path))
    assert run(capsys, *args)[0] == 0
    code, _, err = run(capsys, *args)
    assert code == 1
    assert err.startswith("error: refusing to overwrite ")


@pytest.mark.parametrize("item", ["Z=1", "A=x", "A"])
def test_bad_freq_override_is_a_usage_error(capsys, item):
    with pytest.raises(SystemExit) as exc:
        main(["plan-check", "--case", "a", "--freq", item])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"error: bad --freq override {item!r}; expected e.g. A=31\n"


def test_series_order_above_bound_exits_one_without_traceback():
    code, err = _cli("fock", "--case", "a", "--order", "100000")
    assert code == 1, err
    assert err == "error: series_order must lie in [3, 64]\n"


REPO = Path(__file__).resolve().parent.parent
FIG1_DIRS = {
    f"case_{case}_{detector}_exact" for case in "abc" for detector in ("total", "quad")
} | {"case_c_quad_linearized"}


def _reproduce_fig1(*argv, stdout):
    """Run scripts/reproduce_fig1.py in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH")))
    )}
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "reproduce_fig1.py"), *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
    )


def test_reproduce_fig1_writes_what_the_cli_writes(tmp_path, capsys):
    # The script and `nestedmzi spectrum` share one pipeline, so each of its
    # directories holds the same bytes as the CLI run for that combination.
    proc = _reproduce_fig1("--out", str(tmp_path / "fig1"), stdout=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr.decode()
    dirs = {p.name for p in (tmp_path / "fig1").iterdir()}
    assert dirs == FIG1_DIRS
    for name in sorted(dirs):
        _, case, detector, model = name.split("_")
        out = tmp_path / "cli" / name
        code = main(["spectrum", "--case", case, "--detector", detector,
                     "--model", model, "--out", str(out)])
        assert code == 0
        for artifact in spectra.ARTIFACTS:
            script_bytes = (tmp_path / "fig1" / name / artifact).read_bytes()
            assert script_bytes == (out / artifact).read_bytes(), (name, artifact)
    capsys.readouterr()


def test_reproduce_fig1_closed_stdout_pipe_exits_quietly(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _reproduce_fig1("--out", str(tmp_path / "x"), stdout=write_end)
    finally:
        os.close(write_end)
    stderr = proc.stderr.decode()
    assert proc.returncode == 141, stderr
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr
