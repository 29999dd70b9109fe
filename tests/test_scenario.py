import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from nestedmzi.scenario import (
    MAX_SERIES_ORDER,
    MIRRORS,
    Scenario,
    check_frequency_plan,
    standard_case,
)


def test_standard_cases_phi_kappa():
    assert standard_case("a").phi == pytest.approx(math.pi)
    assert standard_case("a").kappa == 1.0
    assert standard_case("b").phi == 0.0
    assert standard_case("b").kappa == 1.0
    assert standard_case("c").phi == 0.0
    assert standard_case("c").kappa == 0.0


def test_standard_case_defaults():
    sc = standard_case("b")
    assert sc.epsilon == 0.01
    assert sc.duration == 1.0
    assert sc.sample_rate == 1024.0
    assert sc.mirror_freq == {"A": 31.0, "B": 37.0, "C": 41.0, "E": 47.0, "F": 59.0}
    assert sc.series_order == 4
    assert all(sc.vib_amplitude[m] == sc.epsilon for m in MIRRORS)


def test_standard_case_pure():
    assert standard_case("a") == standard_case("a")


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        standard_case("d")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"epsilon": 0.2},
        {"kappa": 0.5},
        {"duration": 0.0},
        {"series_order": 2},
        {"sample_rate": 100.0},
        {"mirror_freq": {"A": 31.5, "B": 37, "C": 41, "E": 47, "F": 59}},
        {"mirror_freq": {"A": 31, "B": 37, "C": 41, "E": 47}},
    ],
)
def test_invariant_violations_rejected(kwargs):
    base = standard_case("b").to_dict()
    base.update(kwargs)
    with pytest.raises(ValueError):
        Scenario.from_dict(base)


def test_json_round_trip():
    sc = standard_case("a")
    again = Scenario.from_json(sc.to_json())
    assert again == sc


def test_json_unknown_key_rejected():
    data = standard_case("a").to_dict()
    data["extra"] = 1
    with pytest.raises(ValueError, match="unknown"):
        Scenario.from_dict(data)


def test_default_plan_collision_free():
    for case in "abc":
        report = check_frequency_plan(standard_case(case))
        assert report.ok
        assert report.doubles == (62.0, 74.0, 82.0, 94.0, 118.0)


def _exhaustive_tone_collisions(freqs):
    """Independent oracle: enumerate the full tone set by brute force."""
    vals = list(freqs.values())
    bins = set(vals) | {2 * f for f in vals}
    hits = []
    for i, fi in enumerate(vals):
        for j, fj in enumerate(vals):
            if i == j:
                continue
            for tone in (fi + fj, abs(fi - fj)):
                if tone in bins:
                    hits.append(tone)
    for i, fi in enumerate(vals):
        for j, fj in enumerate(vals):
            if i != j and (fi == 2 * fj or fi == fj):
                hits.append(fi)
    return hits


def test_default_plan_matches_brute_force():
    sc = standard_case("b")
    assert _exhaustive_tone_collisions(sc.mirror_freq) == []
    assert check_frequency_plan(sc).ok


def test_colliding_plan_detected():
    freqs = {"A": 37.0, "B": 41.0, "C": 43.0, "E": 47.0, "F": 53.0}
    assert _exhaustive_tone_collisions(freqs) != []
    sc = standard_case("b").with_overrides(mirror_freq=freqs)
    report = check_frequency_plan(sc)
    assert not report.ok
    # 41 + 53 = 94 = 2 * 47
    assert any(
        c.tone_freq == 94.0 and c.bin_freq == 94.0 for c in report.collisions
    )


def test_single_mirror_plan_trivially_clean():
    sc = standard_case("b").with_overrides(
        vib_amplitude={"A": 0, "B": 0, "C": 0.01, "E": 0, "F": 0}
    )
    report = check_frequency_plan(sc)
    assert report.ok
    assert report.fundamentals == (41.0,)
    assert report.sums == ()


@pytest.mark.parametrize(
    "rate,duration", [(1000.4, 1.0), (1024.3, 2.0), (math.inf, 1.0), (math.nan, 1.0)]
)
def test_non_integer_sample_count_rejected(rate, duration):
    with pytest.raises(ValueError) as exc:
        standard_case("b").with_overrides(sample_rate=rate, duration=duration)
    assert str(rate) in str(exc.value) and str(duration) in str(exc.value)


def test_sample_count_within_rounding_accepted():
    sc = standard_case("b").with_overrides(duration=1.0 + 1e-13)
    assert int(round(sc.sample_rate * sc.duration)) == 1024


def test_rate_bound_compares_mirror_indices_not_float_identity():
    # one float object for every mirror: the pair-sum bound must still see
    # the five distinct mirrors (identity comparison left no pairs and
    # max() failed on an empty sequence)
    f = 31.0
    sc = Scenario(phi=0.0, kappa=1.0, mirror_freq={m: f for m in MIRRORS})
    assert sc.mirror_freq["A"] is sc.mirror_freq["F"]
    with pytest.raises(ValueError, match="too low; need > 248"):
        Scenario(
            phi=0.0, kappa=1.0, mirror_freq={m: f for m in MIRRORS}, sample_rate=200.0
        )


def _with(key, value):
    """Case b as a dict with one field, or one mirror's entry, replaced."""
    data = standard_case("b").to_dict()
    if isinstance(key, tuple):
        data[key[0]][key[1]] = value
    else:
        data[key] = value
    return data


@pytest.mark.parametrize(
    "key,value,field",
    [
        # nestedmzi plan-check --freq A=inf (used to end in OverflowError)
        (("mirror_freq", "A"), math.inf, "mirror_freq[A]"),
        # --freq A=nan (used to say "cannot convert float NaN to integer")
        (("mirror_freq", "A"), math.nan, "mirror_freq[A]"),
        # "phi": 1e400 in a scenario file (fock printed a table of nan)
        ("phi", json.loads("1e400"), "phi"),
        # a NaN amplitude (plan-check took mirror A for at rest)
        (("vib_amplitude", "A"), math.nan, "vib_amplitude[A]"),
        # "phi": "x" and "series_order": 4.0 (TypeError tracebacks)
        ("phi", "x", "phi"),
        ("series_order", 4.0, "series_order"),
    ],
    ids=["freq-inf", "freq-nan", "phi-1e400", "amplitude-nan", "phi-str", "order-float"],
)
def test_non_finite_or_non_numeric_field_rejected(key, value, field):
    with pytest.raises(ValueError) as exc:
        Scenario.from_dict(_with(key, value))
    assert str(exc.value).startswith(field + " ")


def test_int_beyond_float_range_rejected():
    with pytest.raises(ValueError, match="duration is beyond the float range"):
        Scenario.from_dict(_with("duration", 10**400))


def test_scenario_file_must_be_an_object():
    with pytest.raises(ValueError, match="JSON object"):
        Scenario.from_json("5")
    with pytest.raises(ValueError, match="missing scenario keys: \\['phi'\\]"):
        Scenario.from_dict({"kappa": 1.0})


@pytest.mark.parametrize("order", [2, MAX_SERIES_ORDER + 1, 100_000, 10**400])
def test_series_order_out_of_bounds_names_the_field(order):
    with pytest.raises(ValueError, match="series_order must lie in"):
        standard_case("a").with_overrides(series_order=order)
    top = standard_case("a").with_overrides(series_order=MAX_SERIES_ORDER)
    assert top.series_order == MAX_SERIES_ORDER


def test_numbers_are_stored_as_floats():
    sc = Scenario.from_json('{"phi": 0, "kappa": 1, "series_order": 5}')
    assert type(sc.phi) is float and type(sc.kappa) is float
    assert all(type(f) is float for f in sc.mirror_freq.values())
    assert type(sc.series_order) is int


def test_with_epsilon_keeps_mirrors_at_rest():
    amps = {**standard_case("a").vib_amplitude, "B": 0.0, "E": 0.0}
    sc = standard_case("a").with_overrides(vib_amplitude=amps).with_epsilon(0.02)
    assert sc.epsilon == 0.02
    assert sc.vib_amplitude == {"A": 0.02, "B": 0.0, "C": 0.02, "E": 0.0, "F": 0.02}


def test_with_epsilon_moves_every_vibrating_mirror():
    sc = standard_case("c").with_epsilon(0.005)
    assert sc == standard_case("c").with_overrides(
        epsilon=0.005, vib_amplitude={m: 0.005 for m in MIRRORS}
    )
    with pytest.raises(ValueError, match="epsilon"):
        standard_case("c").with_epsilon(0.5)


@st.composite
def valid_scenarios(draw):
    """Any valid scenario: whole cycles and samples per window, fast rate."""
    duration = draw(st.sampled_from([0.5, 1.0, 2.0]))
    cycles = draw(st.lists(st.integers(1, 500), min_size=5, max_size=5))
    freqs = [k / duration for k in cycles]
    top = max(max(2.0 * f for f in freqs), max(
        fi + fj for i, fi in enumerate(freqs) for j, fj in enumerate(freqs) if i != j
    ))
    samples = draw(st.integers(math.floor(4.0 * top * duration) + 1, 100_000))
    return Scenario(
        phi=draw(st.floats(allow_nan=False, allow_infinity=False)),
        kappa=draw(st.sampled_from([0.0, 1.0])),
        epsilon=draw(st.floats(0.0, 0.1, exclude_min=True, exclude_max=True)),
        mirror_freq=dict(zip(MIRRORS, freqs)),
        vib_amplitude={
            m: draw(st.floats(min_value=0.0, allow_infinity=False)) for m in MIRRORS
        },
        duration=duration,
        sample_rate=samples / duration,
        series_order=draw(st.integers(3, MAX_SERIES_ORDER)),
    )


@settings(max_examples=200, deadline=None)
@given(valid_scenarios())
def test_json_round_trip_property(sc):
    again = Scenario.from_json(sc.to_json())
    assert again == sc
    assert again.to_json() == sc.to_json()


# Values that are wrong for every field: not numbers, not finite, or ints
# beyond the float range.
BAD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)]),
)


@st.composite
def invalid_scenario_dicts(draw):
    data = draw(valid_scenarios()).to_dict()
    key = draw(st.sampled_from(sorted(data) + ["missing", "unknown"]))
    if key == "missing":
        del data[draw(st.sampled_from(["phi", "kappa"]))]
    elif key == "unknown":
        data[draw(st.text().filter(lambda k: k not in data))] = 1.0
    elif key in ("mirror_freq", "vib_amplitude") and draw(st.booleans()):
        data[key][draw(st.sampled_from(MIRRORS))] = draw(BAD_VALUES)
    elif key == "vib_amplitude":
        # None asks for the default amplitudes
        data[key] = draw(BAD_VALUES.filter(lambda v: v is not None))
    else:
        data[key] = draw(BAD_VALUES)
    return data


@settings(max_examples=300, deadline=None)
@given(invalid_scenario_dicts())
def test_invalid_scenario_dicts_raise_only_value_error(data):
    with pytest.raises(ValueError):
        Scenario.from_dict(data)
