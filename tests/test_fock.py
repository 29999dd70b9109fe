import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from nestedmzi import beam, fock
from nestedmzi.fock import (
    ModeState,
    apply_mirror_kick,
    bcjlss_output_state,
    bcjlss_witness,
    case_probability_table,
    compare_transcription,
    mode_projection_probability,
    norm_series,
    output_state,
    projection_leading_coeff,
    reference_output_state,
    zero_mode_probability,
)
from nestedmzi.scenario import MIRRORS, PATHS, path_weights, standard_case
from nestedmzi.series import EpsSeries

ALL_LABELS = ["".join(bits) for bits in itertools.product("01", repeat=5)]


def state_vector(state, eps):
    """32-component complex vector of amplitudes at fixed eps."""
    amps = state.eval(eps)
    return np.array([amps.get(lab, 0j) for lab in ALL_LABELS])


def kick_matrix(mirror, eps):
    """Brute-force 32x32 matrix of the kick on the bit-unset subspace."""
    idx = MIRRORS.index(mirror)
    mat = np.zeros((32, 32), dtype=complex)
    norm = 1.0 / math.sqrt(1.0 + eps**2)
    for j, lab in enumerate(ALL_LABELS):
        if lab[idx] == "1":
            continue
        flipped = lab[:idx] + "1" + lab[idx + 1 :]
        mat[j, j] = norm
        mat[ALL_LABELS.index(flipped), j] = eps * norm
    return mat


# -- mirror kick ---------------------------------------------------------


def test_kick_vacuum_at_c():
    st = ModeState({"00000": EpsSeries.const(1.0, 4)})
    out = apply_mirror_kick(st, "C")
    assert out.amplitude("00000").coeffs == (1, 0, -0.5, 0, 0.375)
    assert out.amplitude("00100").coeffs == (0, 1, 0, -0.5, 0)


def test_kick_is_identity_at_eps_zero():
    st = ModeState(
        {"00000": EpsSeries.const(0.5j, 4), "01000": EpsSeries.const(0.2, 4)}
    )
    out = apply_mirror_kick(st, "E")
    before = state_vector(st, 0.0)
    after = state_vector(out, 0.0)
    assert np.allclose(before, after, atol=1e-15)


@pytest.mark.parametrize("mirror", MIRRORS)
def test_kick_matches_matrix_oracle(mirror):
    eps = 0.01
    st = ModeState(
        {
            "00010" if mirror != "E" else "00100": EpsSeries.const(0.3 + 0.4j, 8),
            "00000": EpsSeries.const(-0.1j, 8),
        }
    )
    out = apply_mirror_kick(st, mirror)
    expected = kick_matrix(mirror, eps) @ state_vector(st, eps)
    assert np.allclose(state_vector(out, eps), expected, atol=1e-12)


def test_kick_rejects_set_bit():
    st = ModeState({"00100": EpsSeries.const(1.0, 4)})
    with pytest.raises(ValueError, match="already set"):
        apply_mirror_kick(st, "C")


def test_kick_preserves_norm_series():
    st = ModeState(
        {"00000": EpsSeries.const(0.6 + 0.2j, 6), "01000": EpsSeries.monomial(1j, 1, 6)}
    )
    before = norm_series(st)
    after = norm_series(apply_mirror_kick(st, "F"))
    for a, b in zip(before.coeffs, after.coeffs):
        assert abs(a - b) < 1e-12


def test_norm_series_is_the_norm_of_the_evaluated_state():
    # At order 12 and eps <= 0.05 the products of coefficients above the
    # truncation order weigh less than 1e-16.
    rng = np.random.default_rng(9)
    for _ in range(50):
        phi, kappa = rng.uniform(0, 2 * math.pi), rng.uniform(0, 1)
        eps = rng.uniform(1e-3, 0.05)
        state = output_state(phi, kappa, 12)
        want = sum(abs(v) ** 2 for v in state.eval(eps).values())
        assert abs(norm_series(state).eval(eps) - want) <= 1e-12


# -- output state --------------------------------------------------------


def test_case_a_e_mode_first_order():
    st = output_state(math.pi, 1.0)
    assert st.amplitude("00010").coeffs[1] == pytest.approx(-2.0 / 3.0, abs=1e-12)


def test_case_c_zero_mode_vanishes_all_orders():
    st = output_state(0.0, 0.0)
    assert st.amplitude("00000").is_zero(tol=1e-15)


def test_case_b_second_order_ae_mode():
    st = output_state(0.0, 1.0)
    assert st.amplitude("10010").coeffs[2] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_output_state_unitarity_bound():
    for case in ("a", "b"):
        sc = standard_case(case)
        st = output_state(sc.phi, 1.0, order=6)
        for eps in (0.01, 0.03, 0.05):
            n2 = sum(abs(a) ** 2 for a in st.eval(eps).values())
            assert n2 <= (1.0 / 9.0) * (1.0 + 10.0 * eps**2)


def test_blocked_arm_norm_small_and_monotone():
    # case c (phi=0, arm C blocked): the detector port sees only disturbed
    # photons, so its norm is O(eps^2), far below the open-arm 1/9, and
    # shrinks monotonically as eps does
    open_arm = output_state(0.0, 1.0, order=6)
    blocked = output_state(0.0, 0.0, order=6)
    previous = None
    for eps in (0.05, 0.03, 0.01):
        n_open = sum(abs(a) ** 2 for a in open_arm.eval(eps).values())
        n_blocked = sum(abs(a) ** 2 for a in blocked.eval(eps).values())
        assert n_blocked < n_open
        assert n_blocked == pytest.approx(2 * eps**2 / (9 * (1 + eps**2)), rel=1e-6)
        if previous is not None:
            assert n_blocked < previous
        previous = n_blocked


# -- reference transcription --------------------------------------------


def test_reference_fixed_coefficients():
    for phi in (0.0, 1.0, math.pi):
        ref = reference_output_state(phi)
        assert ref.amplitude("01000").coeffs[1] == pytest.approx(-1 / 3, abs=1e-15)
        assert ref.amplitude("01011").coeffs[3] == pytest.approx(-1 / 3, abs=1e-15)
        assert ref.amplitude("00011").is_zero()


def test_transcription_agreement_and_extra_term():
    for phi in (math.pi, 1.3):
        report = compare_transcription(phi)
        assert report.ok, report.unexpected
        assert report.extra_term_detected
        extra = {(d.label, d.power): d.computed for d in report.extra_terms}
        expected = (cmath.exp(1j * phi) - 1.0) / 3.0
        assert abs(extra[("00011", 2)] - expected) < 1e-12
        # orders 0 and 1 agree for every label
        assert all(d.power >= 2 for d in report.extra_terms)
        assert all(d.power >= 2 for d in report.normalization_drift)


def _classify_each_entry(phi, order):
    """Each coefficient classified on its own, entry by entry: (extra terms,
    normalization drift, unexpected) as (label, power, computed, transcribed)."""
    computed = output_state(phi, 1.0, order)
    transcribed = reference_output_state(phi, order)
    found = ([], [], [])
    for label in ALL_LABELS:
        if label not in computed.support() and label not in transcribed.support():
            continue
        a = computed.amplitude(label).coeffs
        b = transcribed.amplitude(label).coeffs
        powers = [k for k in range(order + 1) if b[k] != 0]
        for k in range(order + 1):
            if abs(a[k] - b[k]) <= 1e-12:
                continue
            which = 0 if not powers else 1 if k > powers[0] else 2
            found[which].append((label, k, complex(a[k]), complex(b[k])))
    return found


@pytest.mark.parametrize("order", [4, 8, 12])
@pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2, math.pi, 4.4])
def test_transcription_report_matches_a_per_entry_classification(phi, order):
    report = compare_transcription(phi, order)
    got = [
        [(d.label, d.power, d.computed, d.transcribed) for d in part]
        for part in (report.extra_terms, report.normalization_drift, report.unexpected)
    ]
    assert got == list(_classify_each_entry(phi, order))
    assert all(type(d.power) is int for d in report.extra_terms)


def test_transcription_drift_is_per_mirror_normalization():
    report = compare_transcription(math.pi)
    # the zero-mode eps^2 drift is the three-path normalization pull
    drift = {(d.label, d.power): d for d in report.normalization_drift}
    d = drift[("00000", 2)]
    # e^{ipi}/3 and -1/3 each pick up -3/2, kappa/3 picks up -1/2
    expected = (-1.0 / 3.0) * (-1.5) + (-1.0 / 3.0) * (-1.5) + (1.0 / 3.0) * (-0.5)
    assert d.computed.real == pytest.approx(expected, abs=1e-12)


# -- projector probabilities --------------------------------------------


def test_projection_leading_coeff_needs_order_two():
    # amplitude 1 + eps on one mode: probability 1 + 2 eps + eps^2
    for order in (0, 1):
        st = ModeState({"10000": EpsSeries((1.0, 1.0)[: order + 1])})
        with pytest.raises(ValueError, match=f"got {order}"):
            projection_leading_coeff(st, "A")
    st = ModeState({"10000": EpsSeries((1.0, 1.0, 0.0))})
    assert projection_leading_coeff(st, "A") == 1.0


def test_projection_empty_state_is_zero():
    st = ModeState({})
    assert mode_projection_probability(st, "A", 0.01) == 0.0


def test_projection_matches_matrix_oracle():
    eps = 0.01
    st = output_state(math.pi, 1.0)
    vec = state_vector(st, eps)
    for mirror in MIRRORS:
        idx = MIRRORS.index(mirror)
        proj = np.array([1.0 if lab[idx] == "1" else 0.0 for lab in ALL_LABELS])
        oracle = float(np.sum(proj * np.abs(vec) ** 2))
        assert mode_projection_probability(st, mirror, eps) == pytest.approx(
            oracle, rel=1e-12
        )


def test_reference_phi0_e_projection():
    eps = 0.01
    st = reference_output_state(0.0)
    # only 10010, 10001, 01010, 01001, 10011, 01011 carry E/F weight at phi=0;
    # E-labels with nonzero amplitude: 10010, 01010, 10011, 01011
    expected = 2 * (eps**2 / 3) ** 2 + 2 * (eps**3 / 3) ** 2
    assert mode_projection_probability(st, "E", eps) == pytest.approx(
        expected, rel=1e-12
    )
    assert expected == pytest.approx(2 * eps**4 / 9, rel=1e-3)


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_case_tables(eps):
    t = case_probability_table("a", eps)
    for m in ("A", "B", "C"):
        assert t[m] == pytest.approx(eps**2 / 9, rel=5 * eps**2 + 1e-8)
    for m in ("E", "F"):
        assert t[m] == pytest.approx(4 * eps**2 / 9, rel=5 * eps**2 + 1e-8)
    assert t["zero"] == pytest.approx(1 / 9, rel=5 * eps**2 + 1e-8)

    t = case_probability_table("b", eps)
    for m in ("A", "B", "C"):
        assert t[m] == pytest.approx(eps**2 / 9, rel=5 * eps**2 + 1e-8)
    for m in ("E", "F"):
        assert t[m] <= 10 * eps**4

    t = case_probability_table("c", eps)
    assert t["C"] == 0.0
    assert t["zero"] < 1e-28
    for m in ("A", "B"):
        assert t[m] == pytest.approx(eps**2 / 9, rel=5 * eps**2 + 1e-8)
    for m in ("E", "F"):
        assert t[m] <= 10 * eps**4


def test_zero_mode_probability_case_a():
    st = output_state(math.pi, 1.0)
    assert zero_mode_probability(st, 1e-3) == pytest.approx(1 / 9, rel=1e-5)


# -- BCJLSS witness ------------------------------------------------------


def test_bcjlss_state_terms():
    st = bcjlss_output_state(0.0, 1.0)
    assert st.amplitude("00100").coeffs[0] == pytest.approx(1 / 3)
    assert st.amplitude("01011").coeffs[0] == pytest.approx(-1 / 3)
    assert st.amplitude("10011").coeffs[0] == pytest.approx(1 / 3)
    assert bcjlss_output_state(math.pi, 1.0).amplitude("10011").coeffs[
        0
    ] == pytest.approx(-1 / 3, abs=1e-12)
    assert "00100" not in bcjlss_output_state(0.7, 0.0).amplitudes


def _witness_oracle(state, mirror, eps=0.0):
    """Coherent sum via explicit 16-ket post-selected vector."""
    idx = MIRRORS.index(mirror)
    pi_vec = np.array([1.0 if lab[idx] == "1" else 0.0 for lab in ALL_LABELS])
    vec = state_vector(state, eps)
    return abs(np.dot(pi_vec, vec)) ** 2


def test_bcjlss_witness_examples():
    st = bcjlss_output_state(math.pi, 1.0)
    assert bcjlss_witness(st, "E") == pytest.approx(4 / 9, abs=1e-12)
    assert bcjlss_witness(st, "E") == pytest.approx(_witness_oracle(st, "E"))
    st = bcjlss_output_state(0.0, 1.0)
    assert bcjlss_witness(st, "E") == pytest.approx(0.0, abs=1e-15)
    assert bcjlss_witness(st, "A") == pytest.approx(1 / 9, abs=1e-12)
    for m in MIRRORS:
        assert bcjlss_witness(st, m) == pytest.approx(_witness_oracle(st, m))


def test_witness_vs_projector_structure():
    # single populated bit-carrying label: the two procedures agree
    st = ModeState({"10000": EpsSeries.const(0.3 + 0.1j, 4)})
    assert bcjlss_witness(st, "A") == pytest.approx(
        mode_projection_probability(st, "A", 0.0)
    )
    # two populated labels with the same bit: coherent vs incoherent differ
    st = ModeState(
        {
            "10011": EpsSeries.const(1 / 3, 4),
            "01011": EpsSeries.const(-1 / 3, 4),
        }
    )
    assert bcjlss_witness(st, "E") == pytest.approx(0.0, abs=1e-15)
    assert mode_projection_probability(st, "E", 0.0) == pytest.approx(2 / 9)


@pytest.mark.parametrize(
    "case,expected",
    [
        ("a", {"A": 1 / 9, "B": 1 / 9, "C": 1 / 9, "E": 4 / 9, "F": 4 / 9}),
        ("b", {"A": 1 / 9, "B": 1 / 9, "C": 1 / 9, "E": 0.0, "F": 0.0}),
    ],
)
def test_witness_proportional_to_leading_probabilities(case, expected):
    sc = standard_case(case)
    state = output_state(sc.phi, sc.kappa)
    bstate = bcjlss_output_state(sc.phi, sc.kappa)
    for m in MIRRORS:
        lead = projection_leading_coeff(state, m)
        wit = bcjlss_witness(bstate, m)
        assert abs(lead - wit) < 1e-10
        assert wit == pytest.approx(expected[m], abs=1e-12)


# -- phase convention shared with the beam model -------------------------


@pytest.mark.parametrize("kappa", [0.0, 1.0])
@pytest.mark.parametrize("phi", [0.0, 0.3, math.pi / 2, 2.0, math.pi, 4.4])
def test_beam_coefficients_are_fock_amplitudes_with_inner_arms_swapped(phi, kappa):
    # A path's Fock amplitude is the eps^len(path) coefficient of the mode
    # carrying the bits of all its mirrors: only that path reaches the mode,
    # and it gets there by one eps kick per mirror.
    state = output_state(phi, kappa)
    labels = ["".join("1" if m in path else "0" for m in MIRRORS) for path in PATHS]
    amps = [state.amplitude(lab).coeffs[len(p)] for lab, p in zip(labels, PATHS)]
    sc = standard_case("b").with_overrides(phi=phi, kappa=kappa)
    c_path, a_path, b_path = range(len(PATHS))
    swapped = [amps[c_path], amps[b_path], amps[a_path]]
    assert np.max(np.abs(beam.path_coefficients(sc) - 3 * np.array(swapped))) < 1e-15


def test_swapping_the_inner_arm_weights_changes_no_fock_readout(monkeypatch):
    # Paths (E, A, F) and (E, B, F) differ only in mirror A against B, so
    # swapping their weights relabels A and B. The two weights have modulus
    # 1, so the projector probabilities, the zero mode and the norm series
    # stay as they are.
    rng = np.random.default_rng(5)
    draws = [
        (rng.uniform(0, 2 * math.pi), rng.uniform(0, 1), rng.uniform(1e-3, 0.1),
         int(rng.integers(3, 13)))
        for _ in range(200)
    ]

    def readouts():
        return [
            (fock.probability_table(phi, kappa, eps, order),
             np.array(norm_series(output_state(phi, kappa, order)).coeffs))
            for phi, kappa, eps, order in draws
        ]

    def swapped(phi, kappa):
        c, a, b = path_weights(phi, kappa)
        return c, b, a

    before, state = readouts(), output_state(1.0, 0.5).coeffs
    monkeypatch.setattr(fock, "path_weights", swapped)
    after = readouts()
    assert not np.allclose(output_state(1.0, 0.5).coeffs, state)  # the swap took
    for (table, norm), (table2, norm2) in zip(before, after):
        assert table.keys() == table2.keys()
        assert max(abs(table[k] - table2[k]) for k in table) <= 1e-13
        assert np.max(np.abs(norm - norm2)) <= 1e-13


# -- closed form against the kick enumeration ----------------------------


def kick_enumeration(phi, kappa, order):
    """apply_mirror_kick chained along each path from the zero mode, weighted
    and summed: the construction output_state writes in closed form."""
    coeffs = np.zeros((32, order + 1), complex)
    mask = np.zeros(32, bool)
    for weight, path in zip(path_weights(phi, kappa), PATHS):
        if weight == 0:
            continue
        state = ModeState({"00000": EpsSeries.const(weight / 3.0, order)})
        for mirror in path:
            state = apply_mirror_kick(state, mirror)
        coeffs += state.coeffs
        mask |= state.mask
    return coeffs, mask


@pytest.mark.parametrize("kappa", [0.0, 1.0])
@pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2, 2.5, math.pi, 5.1])
def test_output_state_is_the_kick_enumeration(phi, kappa):
    for order in range(3, 21):
        state = output_state(phi, kappa, order)
        coeffs, mask = kick_enumeration(phi, kappa, order)
        assert np.max(np.abs(state.coeffs - coeffs)) <= 1e-15
        assert np.array_equal(state.mask, mask)


def test_output_state_memory_grows_with_order_not_its_square():
    tracemalloc.start()
    try:
        norm_series(output_state(1.0, 1.0, 500))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
