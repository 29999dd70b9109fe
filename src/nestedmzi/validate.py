"""Self-check suite: every model-level invariant, runnable from the CLI.

Each check returns (name, passed, detail); run_all adds each check's wall
time. The transcription check passes by CONFIRMING the documented extra
"00011" term, not by agreement.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import beam, fock, spectra
from .scenario import INCIDENCE, MIRRORS, check_frequency_plan, path_weights, standard_case
from .series import EpsSeries


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0  # wall time of the check, set by run_all


def _result(name, passed, detail=""):
    return CheckResult(name, bool(passed), detail)


def check_standard_plans():
    bad = [c for c in "abc" if not check_frequency_plan(standard_case(c)).ok]
    return _result(
        "frequency plans collision-free",
        not bad,
        f"colliding cases: {bad}" if bad else "cases a,b,c all clean",
    )


def check_kick_norm_preservation():
    state = fock.ModeState(
        {
            "00000": EpsSeries.const(0.6 + 0.2j, 6),
            "01000": EpsSeries.monomial(-0.3j, 1, 6),
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


def check_case_tables():
    """Projector tables against their leading order, w = path_weights / 3:
    eps^2 |sum of w over the paths through m|^2 for mirror m, |sum w|^2 for
    the zero mode. Bound: relative 1e-5, or 10 eps^4 where that is 0."""
    epsilon = 1e-3
    worst_rel = worst_zero = 0.0
    for case in "abc":
        sc = standard_case(case)
        w = np.array(path_weights(sc.phi, sc.kappa)) / 3.0
        predicted = [*epsilon**2 * np.abs(w @ INCIDENCE) ** 2, abs(w.sum()) ** 2]
        table = fock.case_probability_table(case, epsilon)
        for m, want in zip((*MIRRORS, "zero"), predicted):
            if want:
                worst_rel = max(worst_rel, abs(table[m] / want - 1))
            else:
                worst_zero = max(worst_zero, table[m] / epsilon**4)
    return _result(
        "case probability tables match closed forms",
        worst_rel < 1e-5 and worst_zero <= 10,
        f"worst relative deviation {worst_rel:.1e} (bound 1e-05), "
        f"worst predicted-zero entry {worst_zero:.2g} eps^4 (bound 10 eps^4)",
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
    extra = report.extra_term
    return _result(
        "transcription agrees; extra 00011 term confirmed",
        report.ok and extra is not None and abs(extra.computed - (-2.0 / 3.0)) < 1e-12,
        f"unexpected diffs: {len(report.unexpected)}, "
        f"00011 eps^2 coefficient: {'missing' if extra is None else extra.computed}",
    )


def random_fields(rng, count) -> tuple:
    """(coeffs, shifts) of shape (3, count): count fields of 1-3 components
    from two rng calls, coefficient re and im uniform on [-1, 1) and shifts on
    [-0.1, 0.1). Past each field's size both are 0, as beam.stack_fields pads."""
    sizes = rng.integers(1, 4, size=count)
    span = np.array([2.0, 2.0, 0.2])[:, np.newaxis, np.newaxis]
    re, im, shifts = span * rng.random((3, 3, count)) - span / 2
    coeffs = re + 1j * im
    padding = np.arange(3)[:, np.newaxis] >= sizes
    coeffs[padding] = shifts[padding] = 0.0
    return coeffs, shifts


def oracle_fields() -> tuple:
    """(coeffs, shifts) of the 1000 random fields of check_detector_oracles."""
    return random_fields(np.random.default_rng(20240824), 1000)


def check_detector_oracles():
    coeffs, shifts = oracle_fields()
    totals = beam.exact_intensity(coeffs, shifts)
    quads = beam.exact_quadcell(coeffs, shifts)
    want_t = beam.quadrature_intensity(coeffs, shifts)
    want_q = beam.quadrature_quadcell(coeffs, shifts)
    worst_t = np.max(np.abs(totals - want_t) / np.maximum(np.abs(want_t), 1e-30))
    worst_q = np.max(np.abs(quads - want_q) / np.maximum(np.abs(want_q), totals))
    return _result(
        "closed-form detectors agree with quadrature oracles",
        worst_t < 1e-9 and worst_q < 1e-9,
        f"total rel err {worst_t:.2e}, quad rel err {worst_q:.2e} over {len(totals)} fields",
    )


def check_translation_invariance():
    rng = np.random.default_rng(7)
    coeffs, shifts = random_fields(rng, 200)
    moved = shifts + rng.uniform(-0.5, 0.5, 200)
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


def _quartic_constants() -> np.ndarray:
    """max |exact - second order| / (max shift)^4 over 64 times, shape
    (3 cases, 3 eps). The 9 (case, eps) runs are one (3, 576) stack, so each
    engine is called once; every column is evaluated as in its own run."""
    times = np.arange(64) / 64.0
    cases = map(standard_case, "abc")
    runs = [sc.with_overrides(epsilon=eps) for sc in cases for eps in (0.04, 0.02, 0.01)]
    coeffs = np.repeat(np.array([beam.path_coefficients(sc) for sc in runs]).T, len(times), axis=1)
    shifts = np.hstack([beam.path_shifts(sc, times) for sc in runs])
    remainder = np.abs(
        beam.exact_intensity(coeffs, shifts) - beam.second_order_intensities(coeffs, shifts)
    )
    # largest shift among the paths that carry light
    shift = np.where(coeffs != 0, np.abs(shifts), 0.0).max(axis=0)
    return np.max((remainder / np.maximum(shift, 1e-30) ** 4).reshape(3, 3, -1), axis=2)


def check_quartic_remainder():
    """|exact - second order| scales as (max shift)^4."""
    consts = _quartic_constants()
    ratios = (consts.max(axis=1) / consts.min(axis=1)).tolist()
    ok = all(r < 2.0 for r in ratios)
    return _result(
        "second-order remainder scales quartically in shifts",
        ok,
        f"fitted-constant spread per case: {[f'{r:.2f}' for r in ratios]}",
    )


def _quintic_quadcell() -> tuple:
    """([max |dI| at eps 0.01, at eps 0.005], linearized dI at eps 0.01) of
    case c over 128 times. Both eps runs share the coefficients and go through
    one exact_quadcell call; the linearized call reuses the eps 0.01 shifts."""
    times = np.arange(128) / 128.0
    case_c = standard_case("c")
    runs = [case_c.with_overrides(epsilon=eps) for eps in (0.01, 0.005)]
    coeffs = beam.path_coefficients(runs[0])
    shifts = [beam.path_shifts(sc, times) for sc in runs]
    quad = beam.exact_quadcell(coeffs, np.hstack(shifts))
    vals = np.max(np.abs(quad.reshape(len(runs), -1)), axis=1).tolist()
    return vals, beam.linearized_quadcell(coeffs, shifts[0])


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
    vals, di_lin = _quintic_quadcell()
    ratio = vals[0] / vals[1]
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
    t = np.arange(sc.sample_count) / sc.sample_rate
    amps = {"A": 0.3, "B": 0.11, "C": 0.22, "E": 0.04, "F": 0.15}
    x = np.zeros_like(t)
    for m in MIRRORS:
        x += amps[m] * np.sin(2 * np.pi * 2 * sc.mirror_freq[m] * t)
    ts = spectra.TimeSeries(x, sc.sample_rate)
    report = spectra.attribute_peaks(spectra.power_spectrum(ts), sc, "total")
    worst = max(
        abs(report.mirrors[m]["power"] / (amps[m] ** 2 / 2) - 1) for m in MIRRORS
    )
    return _result(
        "attribution recovers planted tone powers",
        worst < 1e-9 and len(report.residual) == 0,
        f"max relative error {worst:.2e}, residual bins {len(report.residual)}",
    )


def check_spectral_cases():
    """Total/exact 2 f_i lines against second order in the shifts, I2: mirror
    i alone at a_i sin(2 pi f_i t) adds (I2(a_i) - I2(0)) sin^2, a line of
    amplitude (I2(a_i) - I2(0)) / 2 at 2 f_i. Bound: 10 eps^2 of the top line."""
    worst = 0.0
    for case in "bac":
        sc = standard_case(case)
        _, _, report = spectra.run(sc, "total", "exact")
        coeffs = beam.path_coefficients(sc)
        amps = np.array([sc.vib_amplitude[m] for m in MIRRORS])
        # columns: each mirror alone at its amplitude, then all at rest
        i2 = beam.second_order_intensities(coeffs, np.hstack([INCIDENCE * amps, 0 * INCIDENCE]))
        predicted = ((i2[:len(MIRRORS)] - i2[len(MIRRORS):]) / 2) ** 2 / 2
        measured = np.array([report.mirrors[m]["power"] for m in MIRRORS])
        unit = np.max(predicted) * sc.epsilon**2
        worst = max(worst, np.max(np.abs(measured - predicted)) / unit)
    return _result(
        "total-intensity spectra match per-case predictions",
        worst <= 10,
        f"worst deviation {worst:.2g} eps^2 of the top line (bound 10 eps^2)",
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
    """Run ALL_CHECKS in order, timing each one."""
    results = []
    for chk in ALL_CHECKS:
        start = time.perf_counter()
        result = chk()
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
