import itertools
import pathlib
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import grcat
from grcat.roots import Root, canonical_root


def test_one_and_parse():
    assert Root.one().is_one()
    assert str(Root.one()) == "0/1"
    assert Root.parse("0/1").is_one()
    assert Root.parse("3/4") == Root(Fraction(3, 4))
    assert Root.parse("5") == Root(Fraction(5)) == Root.one()


def test_parse_rejects_malformed_text():
    for bad in ("1/0", "0/0", "x", "1/", "1/2/3", "1.5", "", 0.5, None):
        with pytest.raises(ValueError):
            Root.parse(bad)


def test_exponent_reduced_mod_one():
    assert Root(Fraction(5, 4)) == Root(Fraction(1, 4))
    assert Root(Fraction(-1, 4)) == Root(Fraction(3, 4))
    assert Root(Fraction(7)) == Root.one()


def test_exponent_must_be_rational():
    # a float would put a binary approximation into exact arithmetic
    for bad in (0.1, 0.5, "1/2", None, complex(1, 0)):
        with pytest.raises(ValueError, match="must be rational"):
            Root(bad)
    assert Root(3) == Root(np.int64(7)) == Root(Fraction(1, 1)) == Root.one()
    assert Root(Fraction(1, 3)).order == 3


def test_primitive_and_of():
    assert Root.primitive(4) == Root(Fraction(1, 4))
    assert Root.of(3, 4) == Root(Fraction(3, 4))
    assert Root.of(4, 4).is_one()
    with pytest.raises(ValueError):
        Root.primitive(0)


def test_multiplication_is_exponent_addition():
    assert Root.of(1, 4) * Root.of(1, 4) == Root.of(1, 2)
    assert Root.of(1, 2) * Root.of(1, 2) == Root.one()
    assert Root.of(1, 3) * Root.of(1, 2) == Root.of(5, 6)


def test_division_and_inverse():
    a = Root.of(1, 3)
    assert a / a == Root.one()
    assert a * a.inv() == Root.one()
    assert Root.one() / a == a.inv() == Root.of(2, 3)


def test_powers():
    i = Root.of(1, 4)
    assert i ** 2 == Root.of(1, 2)
    assert i ** 4 == Root.one()
    assert i ** -1 == Root.of(3, 4)
    assert i ** 0 == Root.one()


def test_order():
    assert Root.one().order == 1
    assert Root.of(1, 2).order == 2
    assert Root.of(2, 4).order == 2
    assert Root.of(3, 12).order == 4


def test_group_axioms_denominators_up_to_24():
    roots = sorted({Root.of(n, d) for d in range(1, 25) for n in range(d)},
                   key=lambda r: r.exponent)
    for a in roots:
        assert a * Root.one() == a
        assert (a * a.inv()).is_one()
        assert (a ** a.order).is_one()
        # no smaller power annihilates
        for k in range(1, a.order):
            assert not (a ** k).is_one()
    # commutativity and exact exponent addition on every pair
    for a in roots:
        for b in roots:
            p = a * b
            assert p == b * a
            assert p.exponent == (a.exponent + b.exponent) % 1
    # associativity: exhaustive for denominators up to 12, sampled beyond
    small = [r for r in roots if r.exponent.denominator <= 12]
    for a in small:
        for b in small:
            ab = a * b
            for c in small:
                assert ab * c == a * (b * c)
    rng = random.Random(23)
    for _ in range(5000):
        a, b, c = (rng.choice(roots) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_canonical_root():
    # canonical_root(a, k)^k == a, with the smallest nonnegative numerator
    cases = [(Root.of(1, 2), 2, Root.of(1, 4)),
             (Root.of(1, 4), 2, Root.of(1, 8)),
             (Root.one(), 3, Root.one()),
             (Root.of(2, 3), 3, Root.of(2, 9)),
             (Root.of(3, 4), 5, Root.of(3, 20))]
    for a, k, want in cases:
        got = canonical_root(a, k)
        assert got == want
        assert got ** k == a
    with pytest.raises(ValueError):
        canonical_root(Root.one(), 0)


def test_canonical_root_random_round_trip():
    rng = random.Random(5)
    for _ in range(300):
        d = rng.randrange(1, 30)
        a = Root.of(rng.randrange(d), d)
        k = rng.randrange(1, 12)
        assert canonical_root(a, k) ** k == a


def test_str_round_trip():
    for text in ("0/1", "1/2", "3/4", "5/6", "7/12"):
        assert str(Root.parse(text)) == text


def test_roots_from_numerators_have_one_view():
    # outside roots.py a Root is built from a numerator and a denominator only
    # through roots._root, so no module holds its own Root cache
    modules = sorted(p for p in pathlib.Path(grcat.__file__).parent.glob("*.py")
                     if p.name != "roots.py")
    assert len(modules) > 5
    for path in modules:
        text = path.read_text()
        assert "Root(Fraction(" not in text, path.name
        assert not re.search(r"lru_cache\b.*\(Root\.of\)", text), path.name
