import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from grcat.groups import Group, GroupElement, carry, remainder


def factorizations_up_to(bound, max_rank=None):
    """All ordered tuples of factors >= 2 with product <= bound."""
    out = []

    def extend(prefix, prod):
        if prefix:
            out.append(tuple(prefix))
        if max_rank is not None and len(prefix) >= max_rank:
            return
        for m in range(2, bound // prod + 1):
            prefix.append(m)
            extend(prefix, prod * m)
            prefix.pop()

    extend([], 1)
    return out


def test_constructor_rejects_bad_orders():
    with pytest.raises(ValueError):
        Group(())
    with pytest.raises(ValueError):
        Group((1,))
    with pytest.raises(ValueError):
        Group((2, 0))
    with pytest.raises(ValueError):
        Group((2, -3))
    # orders are integers: no truncation of 2.9 to 2, no parsing of "2", no bools
    for bad in ((2.9,), (2.0,), ("2",), (2, None), (True, 2)):
        with pytest.raises(ValueError, match="is not an integer"):
            Group(bad)
    assert Group((np.int64(4), 2)).orders == (4, 2)


def test_basic_attributes():
    g = Group((4, 2, 3))
    assert g.rank == 3
    assert g.order == 24
    assert g.identity().exps == (0, 0, 0)
    assert g.generator(0).exps == (1, 0, 0)
    assert g.generator(2).exps == (0, 0, 1)


def test_element_reduction():
    g = Group((4, 2))
    x = g.element((5, 3))
    assert x.exps == (1, 1)
    assert g.element((-1, -1)).exps == (3, 1)


def test_exponents_and_powers_must_be_integers():
    # no truncation of 1.7, no True for 1, no float exponents from ** 1.5
    g = Group((4, 2))
    for bad in ([1.7, True], [1, True], [2.0, 0], ["1", 0], [None, 0], [Fraction(1), 0]):
        with pytest.raises(ValueError, match=r"^exponent .* is not an integer$"):
            g.element(bad)
    x = g.generator(0)
    for bad in (1.5, 2.0, True, None, Fraction(2)):
        with pytest.raises(ValueError, match=r"^power .* is not an integer$"):
            x ** bad
    # numpy integers stay accepted and become ints
    y = g.element([np.int64(5), np.int8(-1)])
    assert y == g.element([1, 1]) and all(type(e) is int for e in y.exps)
    assert x ** np.int64(3) == g.element([3, 0])


def test_element_length_check():
    g = Group((4, 2))
    with pytest.raises(ValueError):
        g.element((1,))


def test_multiplication_and_power_small_groups():
    for orders in ((2,), (3,), (4,), (2, 2), (4, 3), (2, 2, 3)):
        g = Group(orders)
        elems = list(g.elements())
        assert len(elems) == g.order
        e = g.identity()
        for x in elems:
            assert x * e == x
            assert x * x.inverse() == e
            assert (x ** g.order).is_identity()
        for x, y in itertools.product(elems, repeat=2):
            assert x * y == y * x


def test_group_axioms_exhaustive_up_to_64():
    # every ordered factorization with |G| <= 64; associativity checked over
    # all |G|^3 triples through the multiplication index table
    for orders in factorizations_up_to(64):
        g = Group(orders)
        elems = list(g.elements())
        N = g.order
        e = g.identity()
        for x in elems:
            assert x * e == x == e * x
            assert (x * x.inverse()).is_identity()
        T = np.empty((N, N), dtype=np.int64)
        for a, x in enumerate(elems):
            for b, y in enumerate(elems):
                T[a, b] = g.element_index(x * y)
        assert (T[T] == T[:, T]).all()
        assert (g.mul_table() == T).all() and not g.mul_table().flags.writeable


def test_associativity_sampled_larger():
    rng = random.Random(7)
    g = Group((6, 4, 5))
    for _ in range(300):
        x, y, z = (g.element(tuple(rng.randrange(m) for m in g.orders))
                   for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_power_negative_exponent():
    g = Group((5,))
    x = g.element((2,))
    assert x ** -1 == x.inverse()
    assert x ** -3 == (x ** 3).inverse()


def test_cross_group_multiplication_rejected():
    a = Group((2,)).element((1,))
    b = Group((3,)).element((1,))
    with pytest.raises(ValueError):
        a * b


def test_indexing_round_trip():
    # one layout: digits() holds the exponent vectors in lexicographic order,
    # the place values weight them, and elements(), from_index and
    # element_index all read it
    for orders in factorizations_up_to(64):
        g = Group(orders)
        digits = g.digits()
        assert not digits.flags.writeable
        assert digits.tolist() == [list(e) for e in itertools.product(*map(range, orders))]
        assert g.place_values == tuple(math.prod(orders[l + 1:]) for l in range(g.rank))
        assert (digits @ g.place_values == np.arange(g.order)).all()
        assert [x.exps for x in g.elements()] == list(map(tuple, digits.tolist()))
        for idx, row in enumerate(digits.tolist()):
            x = g.from_index(idx)
            assert list(x.exps) == row and g.element_index(x) == idx
    g = Group((3, 2, 2))
    with pytest.raises(ValueError):
        g.from_index(g.order)
    with pytest.raises(ValueError):
        g.from_index(-1)


def test_element_hash_and_identity_contract():
    # every way of building (1, 2) in Z_4 x Z_3 gives an element equal to it
    # that hashes as the dataclass hash of (group, exps) would
    g = Group((4, 3))
    x = g.element((1, 2))
    ways = [g.element((5, -1)), g.from_index(g.element_index(x)),
            g.generator(0) * g.generator(1) ** 2, g.element((1, 1)) ** 5,
            g.element((3, 1)).inverse(), g.elements()[g.element_index(x)],
            Group((4, 3)).elements()[5], copy.copy(x), copy.deepcopy(x),
            pickle.loads(pickle.dumps(x))]
    for y in ways:
        assert y == x and y.exps == (1, 2)
        assert hash(y) == hash(x) == hash((g, (1, 2)))
        assert {y: "y"}[x] == "y" and {x: "x"}[y] == "x"
    assert len(set(ways)) == 1
    # elements(): a new list on each call, of the same element objects
    first, second = g.elements(), g.elements()
    assert first is not second and first == second
    assert all(p is q for p, q in zip(first, second))
    first.pop()
    assert len(g.elements()) == g.order


def test_element_index_rejects_foreign_element():
    g = Group((4,))
    h = Group((2, 2))
    with pytest.raises(ValueError):
        g.element_index(h.identity())


def test_enumeration_is_lexicographic():
    g = Group((2, 3))
    exps = [x.exps for x in g.elements()]
    assert exps == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_carry():
    assert carry(1, 1, 2) == 1
    assert carry(0, 1, 2) == 0
    assert carry(3, 3, 4) == 1
    assert carry(0, 0, 5) == 0
    # carry is the coboundary of the mod-m reduction
    for m in (2, 3, 4, 6):
        for i in range(m):
            for j in range(m):
                assert i + j == (i + j) % m + carry(i, j, m) * m


def test_carry_rejects_out_of_range():
    with pytest.raises(ValueError):
        carry(2, 0, 2)
    with pytest.raises(ValueError):
        carry(-1, 0, 2)
    with pytest.raises(ValueError):
        carry(0, 0, 1)


def test_remainder():
    assert remainder(7, 3) == 1
    assert remainder(-1, 4) == 3
    assert remainder(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        remainder(3, 0)


def test_floor_carry_identity_spot():
    # floor((s + t mod r) / r) = floor((s+t)/r) - floor(t/r), spot values
    for s, t, r in ((5, 7, 3), (0, 9, 2), (11, 13, 5), (100, 3, 7)):
        assert (s + (t % r)) // r == (s + t) // r - t // r
    # the worked instance: (5,7,3) gives 2 = 4 - 2
    assert (5 + remainder(7, 3)) // 3 == 2
    assert (5 + 7) // 3 - 7 // 3 == 4 - 2


def test_floor_carry_identity_full_range():
    # all 0 <= s,t < 1000 and 1 <= r <= 50, in r-slices
    s = np.arange(1000, dtype=np.int64)[:, None]
    t = np.arange(1000, dtype=np.int64)[None, :]
    for r in range(1, 51):
        assert ((s + t % r) // r == (s + t) // r - t // r).all()


def test_carry_matches_remainder_identity():
    for m in range(2, 31):
        for i in range(m):
            for j in range(m):
                assert carry(i, j, m) == (i + j - remainder(i + j, m)) // m
