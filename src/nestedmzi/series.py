"""Truncated complex power series in the small vibration parameter eps.

All mode amplitudes in the Fock model are carried as series in eps rather
than floats at a fixed eps, so that leading-order coefficients can be
compared exactly and tolerances stated per power of eps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def const(cls, value, order: int) -> "EpsSeries":
        return cls((complex(value),) + (0j,) * order)

    @classmethod
    def monomial(cls, value, power: int, order: int) -> "EpsSeries":
        return cls(tuple(complex(value) if k == power else 0j for k in range(order + 1)))

    def _check_order(self, other: "EpsSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")

    def __add__(self, other: "EpsSeries") -> "EpsSeries":
        self._check_order(other)
        return EpsSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, EpsSeries):
            self._check_order(other)
            product = np.convolve(self.coeffs, other.coeffs)
            return EpsSeries(product[: self.order + 1])
        return EpsSeries(tuple(complex(other) * c for c in self.coeffs))

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
    c = [0j] * (order + 1)
    for k in range(order // 2 + 1):
        c[2 * k] = complex((-1) ** k * math.comb(2 * k, k) / 4**k)
    return EpsSeries(tuple(c))
