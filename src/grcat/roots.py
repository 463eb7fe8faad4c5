"""Exact arithmetic with complex roots of unity.

A root exp(2*pi*i * p/q) is stored as the reduced fraction p/q taken mod 1,
so multiplication of roots is addition of fractions and equality is
structural.  No floating point anywhere.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Root:
    """A root of unity, as its exponent in Q/Z (canonical representative in [0,1))."""

    exponent: Fraction

    def __post_init__(self):
        if not isinstance(self.exponent, numbers.Rational):
            raise ValueError(f"root exponent must be rational, got {self.exponent!r}")
        object.__setattr__(self, "exponent", Fraction(self.exponent) % 1)

    @staticmethod
    def one() -> "Root":
        return Root(Fraction(0))

    @staticmethod
    def of(num: int, den: int = 1) -> "Root":
        return Root(Fraction(num, den))

    @staticmethod
    def primitive(m: int) -> "Root":
        """A fixed primitive m-th root of unity, m >= 1."""
        if m < 1:
            raise ValueError("order must be >= 1")
        return Root(Fraction(1, m))

    @staticmethod
    def parse(text: str) -> "Root":
        """Read "p/q" or "p"; ValueError on any other text or on q = 0."""
        return Root(Fraction(*parse_exponent(text)))

    @property
    def order(self) -> int:
        """Multiplicative order: the denominator of the reduced exponent."""
        return self.exponent.denominator

    def is_one(self) -> bool:
        return self.exponent == 0

    def __mul__(self, other: "Root") -> "Root":
        return Root(self.exponent + other.exponent)

    def __truediv__(self, other: "Root") -> "Root":
        return Root(self.exponent - other.exponent)

    def inv(self) -> "Root":
        return Root(-self.exponent)

    def __pow__(self, k: int) -> "Root":
        return Root(self.exponent * k)

    def __str__(self):
        return f"{self.exponent.numerator}/{self.exponent.denominator}"

    def __repr__(self):
        return f"Root({self})"


# the one numerator -> Root view for the other modules: Root is immutable, so
# instances are shared, and the bound keeps a long session's values from piling up
_root = functools.lru_cache(maxsize=4096)(Root.of)


def _common_denominator(roots, what="value", L=1):
    """(L', nums): the exponents of roots as integer numerators over L', the lcm
    of L and their denominators; "<what> <v> must be a Root" (ValueError) for
    a value v that is not a Root."""
    for v in roots:
        if not isinstance(v, Root):
            raise ValueError(f"{what} {v!r} must be a Root")
    fracs = [v.exponent for v in roots]
    L = math.lcm(L, *(f.denominator for f in fracs))
    return L, [f.numerator * (L // f.denominator) for f in fracs]


def canonical_root(a: Root, k: int) -> Root:
    """The deterministic k-th root num/(den*k) of a; any fixed section would do."""
    if k <= 0:
        raise ValueError("root index must be positive")
    return Root(Fraction(a.exponent.numerator, a.exponent.denominator * k))


def parse_exponent(text: str) -> tuple[int, int]:
    """(p, q) with q > 0 from "p/q" or "p"; ValueError on any other text or on q = 0."""
    if not isinstance(text, str):
        raise ValueError(f'root must be a string "p/q", got {text!r}')
    num, slash, den = text.partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError(f'root must be "p/q" with integers p and q, '
                         f'got {text!r}') from None
    if q == 0:
        raise ValueError(f"root {text!r} has a zero denominator")
    return (-p, -q) if q < 0 else (p, q)
