"""Finite abelian groups in a fixed cyclic factorization.

A group is Z_m1 x ... x Z_mn with the factor order given by the user and
never rearranged: all downstream formulas read exponents relative to this
fixed ordering.  Elements are exponent vectors reduced componentwise.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod
from operator import mul

import numpy as np


@dataclass(frozen=True)
class Group:
    """Direct product of cyclic groups given by a tuple of orders, each >= 2."""

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(_integer(m, "cyclic factor order") for m in self.orders)
        if len(orders) == 0:
            raise ValueError("need at least one cyclic factor")
        for m in orders:
            if m < 2:
                raise ValueError(f"cyclic factor of order {m}; orders must be >= 2")
        object.__setattr__(self, "orders", orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def order(self) -> int:
        return prod(self.orders)

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element(self, exps) -> "GroupElement":
        """Build an element from any integer exponent sequence (reduced here)."""
        if len(exps) != self.rank:
            raise ValueError(f"expected {self.rank} exponents, got {len(exps)}")
        return GroupElement(self, tuple(_integer(e, "exponent") for e in exps))

    def generator(self, i: int) -> "GroupElement":
        """The i-th standard generator (unit exponent vector), 0-based."""
        if not 0 <= i < self.rank:
            raise ValueError(f"generator index {i} out of range")
        exps = [0] * self.rank
        exps[i] = 1
        return GroupElement(self, tuple(exps))

    @cached_property
    def place_values(self) -> tuple[int, ...]:
        """The index weight of each factor, the product of the orders after it:
        element_index(x) is the sum of x.exps[l] * place_values[l]."""
        return tuple(prod(self.orders[l + 1:]) for l in range(self.rank))

    @lru_cache(maxsize=64)
    def digits(self) -> np.ndarray:
        """Read-only (N, rank) int64 array: row k is the exponent vector of
        element k, the exponent vectors in lexicographic order."""
        digits = np.indices(self.orders, dtype=np.int64).reshape(self.rank, -1).T
        digits.setflags(write=False)
        return digits

    @lru_cache(maxsize=64)
    def _elements(self) -> tuple:
        return tuple(GroupElement(self, exps) for exps in zip(*self.digits().T.tolist()))

    def elements(self):
        """All group elements in index order, the rows of digits(): a new list
        on each call, of element objects built once per group."""
        return list(self._elements())

    @lru_cache(maxsize=64)
    def mul_table(self) -> np.ndarray:
        """Read-only (N, N) array: entry [a, b] is the index of x_a * x_b;
        computed once per group."""
        table = (self.digits()[:, None] + self.digits()) % self.orders @ self.place_values
        table.setflags(write=False)
        return table

    def element_index(self, x: "GroupElement") -> int:
        """The index of x: its exponents weighted by the place values."""
        if x.group != self:
            raise ValueError("element belongs to a different group")
        return sum(map(mul, x.exps, self.place_values))

    def from_index(self, idx: int) -> "GroupElement":
        if not 0 <= idx < self.order:
            raise ValueError(f"index {idx} out of range for group of order {self.order}")
        return GroupElement(self, tuple(idx // p for p in self.place_values))


@dataclass(frozen=True)
class GroupElement:
    """An element as its reduced exponent vector.  Its hash is the one the
    generated dataclass hash gives, hash((group, exps)), stored at
    construction: elements are dict keys throughout."""

    group: Group
    exps: tuple[int, ...]

    def __post_init__(self):
        reduced = tuple(e % m for e, m in zip(self.exps, self.group.orders))
        object.__setattr__(self, "exps", reduced)
        object.__setattr__(self, "_hash", hash((self.group, reduced)))

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.group != other.group:
            raise ValueError("cannot multiply elements of different groups")
        return GroupElement(self.group, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __pow__(self, k: int) -> "GroupElement":
        k = _integer(k, "power")
        return GroupElement(self.group, tuple(e * k for e in self.exps))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-e for e in self.exps))

    def is_identity(self) -> bool:
        return all(e == 0 for e in self.exps)

    def __repr__(self):
        return f"g{self.exps}"


def _integer(value, what: str) -> int:
    """value as an int; ValueError for bools and values that are not integers."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def carry(i: int, j: int, m: int) -> int:
    """Carry digit floor((i+j)/m) for reduced exponents 0 <= i, j < m."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if not (0 <= i < m and 0 <= j < m):
        raise ValueError(f"arguments ({i}, {j}) out of range for modulus {m}")
    return (i + j) // m


def remainder(s: int, t: int) -> int:
    """Least non-negative remainder of s modulo t, t >= 1."""
    if t == 0:
        raise ZeroDivisionError("remainder modulus is zero")
    return s % t
