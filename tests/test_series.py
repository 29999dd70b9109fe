import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nestedmzi.scenario import Scenario
from nestedmzi.series import EpsSeries, inv_sqrt_one_plus_sq


def test_inv_sqrt_expansion():
    s = inv_sqrt_one_plus_sq(6)
    assert s.coeffs[0] == 1
    assert s.coeffs[2] == -0.5
    assert s.coeffs[4] == 0.375
    assert s.coeffs[6] == -0.3125
    assert s.coeffs[1] == s.coeffs[3] == s.coeffs[5] == 0


def test_inv_sqrt_matches_function():
    s = inv_sqrt_one_plus_sq(10)
    for eps in (1e-3, 1e-2, 0.05):
        exact = 1.0 / math.sqrt(1.0 + eps**2)
        assert abs(s.eval(eps) - exact) < 1e-12


def test_truncated_multiplication():
    a = EpsSeries((1, 2, 3))  # 1 + 2x + 3x^2, order 2
    b = EpsSeries((4, 5, 6))
    prod = a * b
    # full product 4 + 13x + 28x^2 + 27x^3 + 18x^4, truncated at order 2
    assert prod.coeffs == (4, 13, 28)


def test_scalar_and_neg():
    a = EpsSeries((1 + 1j, 2))
    assert (2 * a).coeffs == (2 + 2j, 4)


def test_monomial_beyond_order_is_zero():
    assert EpsSeries.monomial(3.0, 5, 4).is_zero()
    assert EpsSeries.monomial(3.0, 2, 4).coeffs[2] == 3.0


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        EpsSeries((1, 2)) * EpsSeries((1, 2, 3))


@pytest.mark.parametrize("bad", [(), ((1, 2), (3, 4)), 5])
def test_coefficients_must_be_a_flat_non_empty_sequence(bad):
    with pytest.raises((TypeError, ValueError)):
        EpsSeries(bad)


def test_coefficients_are_stored_as_python_complex():
    s = EpsSeries([1, 2.5, 3j])
    assert s.coeffs == (1, 2.5, 3j)
    assert all(type(c) is complex for c in s.coeffs)


coeffs = st.lists(
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
    min_size=5,
    max_size=5,
)


@given(coeffs, coeffs, st.floats(min_value=1e-4, max_value=0.1))
def test_product_eval_consistent(ca, cb, eps):
    a, b = EpsSeries(tuple(ca)), EpsSeries(tuple(cb))
    direct = a.eval(eps) * b.eval(eps)
    truncated = (a * b).eval(eps)
    # dropped terms are bounded by sum_{i+j>4} |a_i||b_j| eps^(i+j)
    bound = 30.0 * 4.0 * eps**5 + 1e-12
    assert abs(direct - truncated) <= bound


@given(coeffs, coeffs, st.floats(min_value=0.0, max_value=0.1))
def test_addition_eval_exact(ca, cb, eps):
    a, b = EpsSeries(tuple(ca)), EpsSeries(tuple(cb))
    assert abs((a + b).eval(eps) - (a.eval(eps) + b.eval(eps))) < 1e-9


@pytest.mark.parametrize("product", [
    lambda s: s * "2",
    lambda s: "2" * s,
    lambda s: s + 1,
], ids=["series-times-str", "str-times-series", "series-plus-int"])
def test_non_number_operands_raise_type_error(product):
    with pytest.raises(TypeError):
        product(EpsSeries.const(1.0, 3))


def _bits(s):
    return np.array(s.coeffs, complex).view(np.uint64)


@pytest.mark.parametrize("order", range(65))
def test_trusted_results_equal_the_validating_constructor_bit_for_bit(order):
    """Products, sums, scalar products and the 1/sqrt(1 + eps^2) row skip
    revalidation; they still hold exactly what the constructor would."""
    n = order + 1
    stay = inv_sqrt_one_plus_sq(order)
    rows = [0j] * n
    for k in range(0, n, 2):
        rows[k] = (-1) ** (k // 2) * math.comb(k, k // 2) / 4 ** (k // 2)
    rng = np.random.default_rng(order)
    a, b = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    x, y = EpsSeries(a), EpsSeries(b)
    pairs = [
        (stay, EpsSeries(rows)),
        (stay * stay, EpsSeries(np.convolve(rows, rows)[:n])),
        (x * y, EpsSeries(np.convolve(a, b)[:n])),
        (x + y, EpsSeries(a + b)),
        (x * 0.5j, EpsSeries(a * 0.5j)),
    ]
    for got, want in pairs:
        assert np.array_equal(_bits(got), _bits(want))
        assert type(got.coeffs) is tuple
        assert all(type(c) is complex for c in got.coeffs)


def test_inv_sqrt_refuses_a_negative_order_every_time():
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ValueError):
            inv_sqrt_one_plus_sq(-1)
    assert inv_sqrt_one_plus_sq(0).coeffs == (1,)


# Not an order: negative, a bool, a float, a string, None, and unhashable
# values, which the cached series row must refuse by the same rule.
BAD_ORDERS = [-1, -3, True, 2.5, "4", None, [4], {}, np.array([4])]
SERIES_BUILDERS = {
    "inv_sqrt": ("order", inv_sqrt_one_plus_sq),
    "const": ("order", lambda n: EpsSeries.const(1.0, n)),
    "monomial-order": ("order", lambda n: EpsSeries.monomial(1.0, 0, n)),
    "monomial-power": ("power", lambda n: EpsSeries.monomial(1.0, n, 4)),
}


@pytest.mark.parametrize("bad", BAD_ORDERS, ids=repr)
@pytest.mark.parametrize("builder", SERIES_BUILDERS)
def test_every_series_builder_refuses_a_bad_order_every_time(builder, bad):
    field, build = SERIES_BUILDERS[builder]
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 0, got {re.escape(repr(bad))}$"):
            build(bad)


def test_a_refused_true_is_not_served_the_cached_order_one_row():
    assert inv_sqrt_one_plus_sq(1).coeffs == (1, 0)
    for _ in range(2):
        with pytest.raises(ValueError, match="got True$"):
            inv_sqrt_one_plus_sq(True)


@pytest.mark.parametrize("builder", SERIES_BUILDERS)
def test_a_numpy_integer_order_builds_the_int_order_series(builder):
    build = SERIES_BUILDERS[builder][1]
    for n in (0, 4):
        got, want = build(np.int64(n)), build(n)
        assert np.array_equal(_bits(got), _bits(want))
        assert all(type(c) is complex for c in got.coeffs)


@pytest.mark.parametrize("value", [1.0, -0.0, 0.6 + 0.2j, -1e-300j, complex(math.nan, 1.0)])
def test_const_is_the_order_zero_monomial_bit_for_bit(value):
    for n in range(65):
        want = _bits(EpsSeries((complex(value),) + (0j,) * n))
        assert np.array_equal(_bits(EpsSeries.const(value, n)), want)
        assert np.array_equal(_bits(EpsSeries.monomial(value, 0, n)), want)


def test_scenario_series_order_follows_the_order_rule():
    for _ in range(2):
        with pytest.raises(ValueError, match="^series_order must be an integer >= 0, got True$"):
            Scenario(0.0, 1.0, series_order=True)
    assert type(Scenario(0.0, 1.0, series_order=np.int64(5)).series_order) is int


@pytest.mark.parametrize("combine", [EpsSeries.__add__, EpsSeries.__mul__], ids=["add", "mul"])
def test_mismatched_orders_raise_value_error(combine):
    for a, b in (((1, 2), (1, 2, 3)), ((1, 2, 3), (1,))):
        with pytest.raises(ValueError, match="order mismatch"):
            combine(EpsSeries(a), EpsSeries(b))
