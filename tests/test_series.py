import math

import pytest
from hypothesis import given, strategies as st

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
    assert (-a).coeffs == (-1 - 1j, -2)
    assert a.conjugate().coeffs == (1 - 1j, 2)


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
