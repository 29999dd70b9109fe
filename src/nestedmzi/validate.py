"""Self-check suite: every model-level invariant, runnable from the CLI.

Each check returns (name, passed, detail). The transcription check passes
by CONFIRMING the documented extra "00011" term, not by agreement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import beam, fock, spectra
from .scenario import MIRRORS, Scenario, check_frequency_plan, standard_case
from .series import EpsSeries


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail=""):
    return CheckResult(name, bool(passed), detail)


def check_standard_plans():
    bad = [c for c in "abc" if not check_frequency_plan(standard_case(c)).ok]
    return _result(
        "frequency plans collision-free",
        not bad,
        f"colliding cases: {bad}" if bad else "cases a,b,c all clean",
    )


def check_kick_norm_preservation(order=6):
    state = fock.ModeState(
        {
            "00000": EpsSeries.const(0.6 + 0.2j, order),
            "01000": EpsSeries.monomial(-0.3j, 1, order),
        }
    )
    before = fock.norm_series(state)
    after = fock.norm_series(fock.apply_mirror_kick(state, "C"))
    worst = max(abs(a - b) for a, b in zip(before.coeffs, after.coeffs))
    return _result(
        "mirror kick preserves norm as a series identity",
        worst < 1e-12,
        f"max coefficient drift {worst:.2e}",
    )


def check_case_tables(epsilon=1e-3):
    checks = []
    t = fock.case_probability_table("a", epsilon)
    for m in ("A", "B", "C"):
        checks.append(abs(t[m] / (epsilon**2 / 9) - 1) < 1e-5)
    for m in ("E", "F"):
        checks.append(abs(t[m] / (4 * epsilon**2 / 9) - 1) < 1e-5)
    checks.append(abs(t["zero"] / (1 / 9) - 1) < 1e-5)
    t = fock.case_probability_table("b", epsilon)
    for m in ("A", "B", "C"):
        checks.append(abs(t[m] / (epsilon**2 / 9) - 1) < 1e-5)
    for m in ("E", "F"):
        checks.append(t[m] <= 10 * epsilon**4)
    t = fock.case_probability_table("c", epsilon)
    checks.append(t["C"] == 0.0 and t["zero"] < 1e-28)
    for m in ("A", "B"):
        checks.append(abs(t[m] / (epsilon**2 / 9) - 1) < 1e-5)
    for m in ("E", "F"):
        checks.append(t[m] <= 10 * epsilon**4)
    return _result(
        "case probability tables match closed forms",
        all(checks),
        f"{sum(checks)}/{len(checks)} subchecks pass",
    )


def check_witness_proportionality():
    worst = 0.0
    for case in ("a", "b"):
        sc = standard_case(case)
        state = fock.output_state(sc.phi, sc.kappa)
        bstate = fock.bcjlss_output_state(sc.phi, sc.kappa)
        for m in MIRRORS:
            lead = fock.projection_leading_coeff(state, m)
            wit = fock.bcjlss_witness(bstate, m)
            worst = max(worst, abs(lead - wit))
    return _result(
        "witness proportional to leading-order projector probabilities",
        worst < 1e-10,
        f"max entrywise deviation {worst:.2e}",
    )


def check_transcription():
    report = fock.compare_transcription(math.pi)
    ok = report.ok and report.extra_term_detected
    extra = [d for d in report.extra_terms if d.label == "00011" and d.power == 2]
    coeff_ok = bool(extra) and abs(extra[0].computed - (-2.0 / 3.0)) < 1e-12
    return _result(
        "transcription agrees; extra 00011 term confirmed",
        ok and coeff_ok,
        f"unexpected diffs: {len(report.unexpected)}, "
        f"00011 eps^2 coefficient: {extra[0].computed if extra else 'missing'}",
    )


def _random_fields(rng, count, max_shift=0.1):
    for _ in range(count):
        n = rng.integers(1, 4)
        comps = tuple(
            beam.BeamComponent(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                float(rng.uniform(-max_shift, max_shift)),
            )
            for _ in range(n)
        )
        yield beam.BeamField(comps)


def check_detector_oracles(count=1000, seed=20240824):
    rng = np.random.default_rng(seed)
    fields = list(_random_fields(rng, count))
    coeffs, shifts = beam.stack_fields(fields)
    totals = beam.exact_intensity(coeffs, shifts)
    quads = beam.exact_quadcell(coeffs, shifts)
    worst_t = worst_q = 0.0
    for field, it, dq in zip(fields, totals, quads):
        itq = beam.total_intensity_quadrature(field)
        worst_t = max(worst_t, abs(it - itq) / max(abs(itq), 1e-30))
        dqq = beam.quadcell_signal_quadrature(field)
        scale = max(abs(dqq), it)
        worst_q = max(worst_q, abs(dq - dqq) / scale)
    return _result(
        "closed-form detectors agree with quadrature oracles",
        worst_t < 1e-9 and worst_q < 1e-9,
        f"total rel err {worst_t:.2e}, quad rel err {worst_q:.2e} over {count} fields",
    )


def check_translation_invariance(count=200, seed=7):
    rng = np.random.default_rng(seed)
    fields, offsets = [], []
    for field in _random_fields(rng, count):
        fields.append(field)
        offsets.append(float(rng.uniform(-0.5, 0.5)))
    coeffs, shifts = beam.stack_fields(fields)
    moved = shifts + np.array(offsets)
    drift = beam.exact_intensity(coeffs, shifts) - beam.exact_intensity(coeffs, moved)
    worst = float(np.max(np.abs(drift)))
    return _result(
        "total intensity invariant under common shift offset",
        worst < 1e-12,
        f"max drift {worst:.2e}",
    )


def check_single_mirror_null():
    d = 0.01 * np.sin(2 * math.pi * 41.0 * (np.arange(256) / 256.0))
    values = beam.exact_intensity(np.ones(1, dtype=complex), d[np.newaxis])
    rel = (values.max() - values.min()) / values.mean()
    return _result(
        "single vibrating mirror leaves total intensity constant",
        rel < 1e-12,
        f"(max-min)/mean = {rel:.2e}",
    )


def check_quartic_remainder():
    """|exact - second order| scales as (max shift)^4."""
    times = np.arange(64) / 64.0
    ratios = []
    for case in ("a", "b", "c"):
        consts = []
        for eps in (0.04, 0.02, 0.01):
            sc = standard_case(case).with_overrides(
                epsilon=eps, vib_amplitude={m: eps for m in MIRRORS}
            )
            coeffs = beam.path_coefficients(sc)
            shifts = beam.path_shifts(sc, times)
            exact = beam.exact_intensity(coeffs, shifts)
            second = beam.second_order_intensities(coeffs, shifts)
            # largest shift among the paths that carry light
            shift = np.max(np.abs(shifts[coeffs != 0]), axis=0)
            consts.append(
                float(np.max(np.abs(exact - second) / np.maximum(shift, 1e-30) ** 4))
            )
        ratios.append(max(consts) / min(consts))
    ok = all(r < 2.0 for r in ratios)
    return _result(
        "second-order remainder scales quartically in shifts",
        ok,
        f"fitted-constant spread per case: {[f'{r:.2f}' for r in ratios]}",
    )


def check_case_c_quintic_quadcell():
    """The blocked-arm quad-cell signal is nonzero but fifth order.

    With arm C blocked and phi = 0 the field is Psi = -G(y - a) + G(y - b),
    G(y) = exp(-y^2), a = d_A + d_E + d_F, b = d_B + d_E + d_F. Expanding
    the closed form of ``beam.quadcell_signal`` in eps gives zero
    coefficients at orders 1-4 and the leading term

        dI ~ (d_A - d_B)^2 (d_A + d_B + 2 d_E + 2 d_F)^3 / 3 + O(eps^7).

    The linear order cancels because the static parts of the pair cancel;
    the cubic order of |Psi|^2 is proportional to G'G'', whose half-line
    integral is [G'^2 / 2] from 0 to inf = 0 because G'(0) = 0. Halving
    eps thus divides the amplitude by 32 and the power by 1024.
    """
    times = np.arange(128) / 128.0
    vals = []
    for eps in (0.01, 0.005):
        sc = standard_case("c").with_overrides(
            epsilon=eps, vib_amplitude={m: eps for m in MIRRORS}
        )
        quad = beam.exact_quadcell(
            beam.path_coefficients(sc), beam.path_shifts(sc, times)
        )
        vals.append(float(np.max(np.abs(quad))))
    ratio = vals[0] / vals[1]
    sc = standard_case("c")
    _, di_lin = beam.linearized_intensities(
        beam.path_coefficients(sc), beam.path_shifts(sc, times)
    )
    lin_ok = bool(np.all(di_lin == 0.0))
    return _result(
        "blocked-arm quad-cell signal is quintic (and zero when linearized)",
        vals[1] > 0 and abs(ratio - 32.0) / 32.0 < 0.05 and lin_ok,
        f"amplitude ratio under eps halving: {ratio:.3f}",
    )


def check_parseval():
    sc = standard_case("b")
    ts = spectra.sample_detector(sc, "total", "exact")
    spec = spectra.power_spectrum(ts)
    x = ts.samples - ts.samples.mean()
    lhs = float(np.sum(spec.power))
    rhs = float(np.mean(x**2))
    rel = abs(lhs - rhs) / max(rhs, 1e-30)
    return _result(
        "periodogram satisfies Parseval",
        rel < 1e-9,
        f"relative mismatch {rel:.2e}",
    )


def check_attribution_soundness():
    sc = standard_case("a")
    n = int(round(sc.sample_rate * sc.duration))
    t = np.arange(n) / sc.sample_rate
    amps = {"A": 0.3, "B": 0.11, "C": 0.22, "E": 0.04, "F": 0.15}
    x = np.zeros(n)
    for m in MIRRORS:
        x += amps[m] * np.sin(2 * np.pi * 2 * sc.mirror_freq[m] * t)
    ts = spectra.TimeSeries(x, sc.sample_rate, sc.duration)
    report = spectra.attribute_peaks(spectra.power_spectrum(ts), sc, "total")
    worst = max(
        abs(report.mirrors[m]["power"] / (amps[m] ** 2 / 2) - 1) for m in MIRRORS
    )
    return _result(
        "attribution recovers planted tone powers",
        worst < 1e-9 and len(report.residual) == 0,
        f"max relative error {worst:.2e}, residual bins {len(report.residual)}",
    )


def _spectral_subchecks(case, bars):
    """Subchecks that the normalized total/exact bars of a case must pass."""
    if case == "b":  # only the A bar
        return [bars["A"] == 1.0, all(bars[m] < 0.01 for m in ("B", "C", "E", "F"))]
    if case == "a":  # C = E = F, no A or B
        trio = [bars[m] for m in ("C", "E", "F")]
        return [max(trio) / min(trio) < 1.05, bars["A"] < 0.01 and bars["B"] < 0.01]
    # case c: A = B, nothing else
    return [
        abs(bars["A"] - bars["B"]) < 0.01,
        all(bars[m] < 1e-3 for m in ("C", "E", "F")),
    ]


def check_spectral_cases():
    subchecks = []
    for case in "bac":
        _, _, report = spectra.run(standard_case(case), "total", "exact")
        subchecks += _spectral_subchecks(case, report.normalized_bars())
    return _result(
        "total-intensity spectra match per-case predictions",
        all(subchecks),
        f"{sum(subchecks)}/{len(subchecks)} subchecks pass",
    )


ALL_CHECKS = (
    check_standard_plans,
    check_kick_norm_preservation,
    check_case_tables,
    check_witness_proportionality,
    check_transcription,
    check_detector_oracles,
    check_translation_invariance,
    check_single_mirror_null,
    check_quartic_remainder,
    check_case_c_quintic_quadcell,
    check_parseval,
    check_attribution_soundness,
    check_spectral_cases,
)


def run_all():
    return [chk() for chk in ALL_CHECKS]
