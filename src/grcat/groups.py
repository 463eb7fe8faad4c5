"""Finite abelian groups in a fixed cyclic factorization.

A group is Z_m1 x ... x Z_mn with the factor order given by the user and
never rearranged: all downstream formulas read exponents relative to this
fixed ordering.  Elements are exponent vectors reduced componentwise.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np


@dataclass(frozen=True)
class Group:
    """Direct product of cyclic groups given by a tuple of orders, each >= 2."""

    orders: tuple[int, ...]

    def __post_init__(self):
        for m in self.orders:
            if not isinstance(m, numbers.Integral):
                raise ValueError(f"cyclic factor order {m!r} is not an integer")
        orders = tuple(int(m) for m in self.orders)
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
        return GroupElement(self, tuple(int(e) for e in exps))

    def generator(self, i: int) -> "GroupElement":
        """The i-th standard generator (unit exponent vector), 0-based."""
        if not 0 <= i < self.rank:
            raise ValueError(f"generator index {i} out of range")
        exps = [0] * self.rank
        exps[i] = 1
        return GroupElement(self, tuple(exps))

    def elements(self):
        """All group elements in lexicographic order on exponent vectors."""
        return [GroupElement(self, exps)
                for exps in itertools.product(*(range(m) for m in self.orders))]

    @lru_cache(maxsize=64)
    def mul_table(self) -> np.ndarray:
        """Read-only (N, N) array: entry [a, b] is the index of x_a * x_b.

        Indices follow the lexicographic order of elements(); computed once
        per group.
        """
        digits = np.array(list(itertools.product(*(range(m) for m in self.orders))),
                          dtype=np.int64)
        weights = np.array([prod(self.orders[k + 1:]) for k in range(self.rank)],
                           dtype=np.int64)
        table = ((digits[:, None, :] + digits[None, :, :])
                 % np.array(self.orders, dtype=np.int64)) @ weights
        table.setflags(write=False)
        return table

    def element_index(self, x: "GroupElement") -> int:
        """Lexicographic rank of x within elements()."""
        if x.group != self:
            raise ValueError("element belongs to a different group")
        idx = 0
        for e, m in zip(x.exps, self.orders):
            idx = idx * m + e
        return idx

    def from_index(self, idx: int) -> "GroupElement":
        if not 0 <= idx < self.order:
            raise ValueError(f"index {idx} out of range for group of order {self.order}")
        exps = []
        for m in reversed(self.orders):
            exps.append(idx % m)
            idx //= m
        return GroupElement(self, tuple(reversed(exps)))


@dataclass(frozen=True)
class GroupElement:
    group: Group
    exps: tuple[int, ...]

    def __post_init__(self):
        reduced = tuple(e % m for e, m in zip(self.exps, self.group.orders))
        object.__setattr__(self, "exps", reduced)

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.group != other.group:
            raise ValueError("cannot multiply elements of different groups")
        return GroupElement(self.group, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __pow__(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple(e * k for e in self.exps))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-e for e in self.exps))

    def is_identity(self) -> bool:
        return all(e == 0 for e in self.exps)

    def __repr__(self):
        return f"g{self.exps}"


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
