"""Truncated complex power series in the small vibration parameter eps.

All mode amplitudes in the Fock model are carried as series in eps rather
than floats at a fixed eps, so that leading-order coefficients can be
compared exactly and tolerances stated per power of eps.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np


def _order(name: str, value) -> int:
    """value as an int >= 0 (an order, or a power of eps), or a ValueError naming
    the field. A bool is not one; an int, the usual value, skips numbers.Integral."""
    if type(value) is not int and not isinstance(value, bool) and isinstance(value, numbers.Integral):
        value = int(value)
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class EpsSeries:
    """Coefficients c[k] of eps**k, truncated at a fixed maximum order.

    Multiplication drops every power above the common order, so products of
    truncated series equal the truncation of the exact product.
    """

    coeffs: tuple

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, complex)
        if coeffs.ndim != 1 or len(coeffs) < 1:
            raise ValueError("series needs a flat sequence of at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(coeffs.tolist()))

    @classmethod
    def _of(cls, coeffs) -> "EpsSeries":
        """A series of a non-empty sequence of Python complex, stored as given,
        without the constructor's conversion: for the package's own results."""
        series = cls.__new__(cls)
        object.__setattr__(series, "coeffs", tuple(coeffs))
        return series

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def const(cls, value, order: int) -> "EpsSeries":
        return cls.monomial(value, 0, order)

    @classmethod
    def monomial(cls, value, power: int, order: int) -> "EpsSeries":
        power, order = _order("power", power), _order("order", order)
        return cls(tuple(complex(value) if k == power else 0j for k in range(order + 1)))

    def _check_order(self, other: "EpsSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")

    def __add__(self, other: "EpsSeries") -> "EpsSeries":
        if not isinstance(other, EpsSeries):
            return NotImplemented
        self._check_order(other)
        return EpsSeries._of([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, EpsSeries):
            self._check_order(other)
            product = np.convolve(self.coeffs, other.coeffs)
            return EpsSeries._of(product[: self.order + 1].tolist())
        if not isinstance(other, numbers.Number):
            return NotImplemented
        factor = complex(other)
        return EpsSeries._of([factor * c for c in self.coeffs])

    __rmul__ = __mul__

    def eval(self, eps: float) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * eps + c
        return acc

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.coeffs)


def inv_sqrt_one_plus_sq(order: int) -> EpsSeries:
    """Series for 1/sqrt(1 + eps^2): 1 - eps^2/2 + 3 eps^4/8 - ...

    Only even powers appear; coefficient of eps^(2k) is
    (-1)^k * C(2k, k) / 4^k.
    """
    try:
        row = _inv_sqrt_row(order)
    except TypeError:  # the cache hashes order first; an unhashable one is no order
        _order("order", order)
        raise
    return EpsSeries._of(row)


@functools.lru_cache(maxsize=16, typed=True)  # typed: a refused True never gets order 1's row
def _inv_sqrt_row(order: int) -> tuple:
    """The coefficients of inv_sqrt_one_plus_sq(order), computed once per order."""
    order = _order("order", order)
    c = [0j] * (order + 1)
    for k in range(order // 2 + 1):
        c[2 * k] = complex((-1) ** k * math.comb(2 * k, k) / 4**k)
    return tuple(c)
