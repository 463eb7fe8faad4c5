"""Braiding existence, closed-form enumeration, and the two oracles."""

import itertools
import math
import random

import pytest

from grcat.braidings import (QuasiBicharacter, braiding_count, braiding_exists,
                             braiding_function_table, brute_force_braidings,
                             brute_force_full_function_space,
                             enumerate_braidings, eval_R, verify_hexagons)
from grcat.cocycles import CocycleParams, enumerate_params, eval_cocycle
from grcat.groups import Group
from grcat.roots import Root

ORACLE_GROUPS = [(2,), (3,), (4,), (2, 2), (4, 2), (2, 2, 2)]


def zero_params(group):
    from grcat.cocycles import pair_indices, triple_indices
    n = group.rank
    return CocycleParams(group, (0,) * n, (0,) * len(pair_indices(n)),
                         (0,) * len(triple_indices(n)))


def test_eval_R_examples():
    z2 = Group((2,))
    g = z2.generator(0)
    R = QuasiBicharacter(z2, ((Root.of(1, 4),),))
    assert eval_R(R, g, g) == Root.of(1, 4)
    assert eval_R(R, g, z2.identity()).is_one()
    assert eval_R(R, z2.identity(), g).is_one()

    four = Group((2, 2))
    half = Root.of(1, 2)
    S = QuasiBicharacter(four, ((half, half), (half, half)))
    both = four.element((1, 1))
    assert eval_R(S, both, both).is_one()

    with pytest.raises(ValueError):
        eval_R(R, four.identity(), four.identity())


def test_quasibicharacter_shape_check():
    group = Group((2, 2))
    with pytest.raises(ValueError):
        QuasiBicharacter(group, ((Root.one(),),))


def test_braiding_exists_examples():
    z3 = Group((3,))
    ok, reason = braiding_exists(CocycleParams(z3, (1,), (), ()))
    assert not ok and "a[1] = 1" in reason and "(mod 3)" in reason

    four = Group((2, 2))
    ok, reason = braiding_exists(CocycleParams(four, (1, 1), (0,), ()))
    assert ok and reason is None

    ok, reason = braiding_exists(CocycleParams(four, (0, 0), (1,), ()))
    assert not ok and "a[1,2]" in reason

    eight = Group((2, 2, 2))
    ok, reason = braiding_exists(
        CocycleParams(eight, (0, 0, 0), (0, 0, 0), (1,)))
    assert not ok and "a[1,2,3]" in reason


def test_enumerate_frozen_small_cases():
    z2 = Group((2,))
    flat = enumerate_braidings(CocycleParams(z2, (0,), (), ()))
    assert [str(R.r[0][0]) for R in flat] == ["0/1", "1/2"]
    twisted = enumerate_braidings(CocycleParams(z2, (1,), (), ()))
    assert [str(R.r[0][0]) for R in twisted] == ["1/4", "3/4"]

    z3 = Group((3,))
    assert enumerate_braidings(CocycleParams(z3, (1,), (), ())) == []

    four = Group((2, 2))
    sixteen = enumerate_braidings(zero_params(four))
    assert len(sixteen) == 16
    assert all(v.is_one() for row in sixteen[0].r for v in row)
    assert all(v == Root.of(1, 2) for row in sixteen[-1].r for v in row)
    # last slot (off-diagonal (1,0)) varies fastest
    assert sixteen[1].r[1][0] == Root.of(1, 2)
    assert sixteen[1].r[0][1].is_one()


def test_count_law_against_closed_form():
    for orders in ORACLE_GROUPS + [(6, 4)]:
        group = Group(orders)
        n = group.rank
        expected = math.prod(orders)
        for i in range(n):
            for j in range(n):
                if i != j:
                    expected *= math.gcd(orders[i], orders[j])
        for a in enumerate_params(group):
            got = enumerate_braidings(a)
            if braiding_exists(a)[0]:
                assert len(got) == expected, (orders, a)
                assert len(set(got)) == len(got)
            else:
                assert got == []


def test_braiding_count_matches_enumeration():
    for orders in ((2,), (4,), (2, 2), (4, 2)):
        for a in enumerate_params(Group(orders)):
            assert braiding_count(a) == len(enumerate_braidings(a)), (orders, a)


def test_soundness_every_enumerated_braiding_passes_hexagons():
    for orders in ORACLE_GROUPS:
        group = Group(orders)
        for a in enumerate_params(group):
            for R in enumerate_braidings(a):
                assert verify_hexagons(a, R) is None, (orders, a, R)


def test_completeness_matches_brute_force():
    # rank three gets the two interesting parameter choices; the quarter
    # million point grid is too slow to sweep against all 128 classes
    for orders in ORACLE_GROUPS[:-1]:
        group = Group(orders)
        for a in enumerate_params(group):
            mine = set(enumerate_braidings(a))
            oracle = set(brute_force_braidings(a))
            assert mine == oracle, (orders, a)
    eight = Group((2, 2, 2))
    for a in (zero_params(eight),
              CocycleParams(eight, (0, 0, 0), (0, 0, 0), (1,))):
        assert set(enumerate_braidings(a)) == set(brute_force_braidings(a))


def first_multiplicative_failure(a, R):
    """First (x, y, z, which) in lexicographic order where a hexagon fails,
    read off the multiplicative form with eval_R and eval_cocycle."""
    elems = a.group.elements()
    w = lambda p, q, r: eval_cocycle(a, p, q, r)
    for x in elems:
        for y in elems:
            for z in elems:
                if eval_R(R, x * y, z) != (eval_R(R, x, z) * eval_R(R, y, z)
                                           * w(z, x, y) * w(x, y, z) / w(x, z, y)):
                    return (x, y, z, 1)
                if eval_R(R, x, y * z) != (eval_R(R, x, y) * eval_R(R, x, z)
                                           * w(y, x, z) / (w(y, z, x) * w(x, y, z))):
                    return (x, y, z, 2)
    return None


def test_grid_oracle_agrees_with_multiplicative_form():
    # the candidate-grid oracle against the Root-level hexagons: every
    # survivor satisfies them, and seeded non-survivors violate them
    four = Group((2, 2))
    rng = random.Random(53)
    grid = [QuasiBicharacter(four, ((Root.of(u, 4), Root.of(v, 4)),
                                    (Root.of(s, 4), Root.of(t, 4))))
            for u, v, s, t in itertools.product(range(4), repeat=4)]
    for a in (zero_params(four), CocycleParams(four, (1, 1), (0,), ())):
        survivors = brute_force_braidings(a)
        assert survivors
        for R in survivors:
            assert first_multiplicative_failure(a, R) is None, (a, R)
        rejected = [R for R in grid if R not in set(survivors)]
        assert len(rejected) + len(survivors) == len(grid)
        for R in rng.sample(rejected, 12):
            assert first_multiplicative_failure(a, R) is not None, (a, R)


def test_hexagon_witness_matches_multiplicative_scan():
    # off-grid generator values: verify_hexagons reports the same first
    # failing (x, y, z, which) as the Root-level scan
    rng = random.Random(61)
    for orders in ((4, 2), (2, 2, 2), (3, 3), (4,)):
        group = Group(orders)
        params = enumerate_params(group)
        n = group.rank
        for _ in range(4):
            a = rng.choice(params)
            R = QuasiBicharacter(group, [[Root.of(rng.randrange(24), rng.choice((4, 8, 12, 16)))
                                          for _ in range(n)] for _ in range(n)])
            assert verify_hexagons(a, R) == first_multiplicative_failure(a, R), (orders, a, R)


def test_hexagon_failure_witness():
    z2 = Group((2,))
    g = z2.generator(0)
    a = CocycleParams(z2, (1,), (), ())
    R = QuasiBicharacter(z2, ((Root.of(1, 2),),))
    assert verify_hexagons(a, R) == (g, g, g, 1)
    with pytest.raises(ValueError):
        verify_hexagons(zero_params(Group((2, 2))), R)


def test_hexagons_in_original_multiplicative_form():
    # R(xy,z) = R(x,z) R(y,z) w(z,x,y) w(x,y,z) / w(x,z,y)
    # R(x,yz) = R(x,y) R(x,z) w(y,x,z) / (w(y,z,x) w(x,y,z))
    group = Group((4, 2))
    a = CocycleParams(group, (2, 1), (0,), ())
    assert braiding_exists(a)[0]
    rng = random.Random(37)
    braidings = enumerate_braidings(a)
    elems = group.elements()
    for R in rng.sample(braidings, 4):
        assert verify_hexagons(a, R) is None
        for _ in range(60):
            x, y, z = (rng.choice(elems) for _ in range(3))
            w = lambda p, q, r: eval_cocycle(a, p, q, r)
            lhs1 = eval_R(R, x * y, z)
            rhs1 = (eval_R(R, x, z) * eval_R(R, y, z)
                    * w(z, x, y) * w(x, y, z) / w(x, z, y))
            assert lhs1 == rhs1
            lhs2 = eval_R(R, x, y * z)
            rhs2 = (eval_R(R, x, y) * eval_R(R, x, z)
                    * w(y, x, z) / (w(y, z, x) * w(x, y, z)))
            assert lhs2 == rhs2


def test_oracle_guard():
    group = Group((8, 4))
    with pytest.raises(ValueError):
        brute_force_braidings(zero_params(group))
    small = Group((2,))
    with pytest.raises(ValueError):
        brute_force_braidings(zero_params(small), max_candidates=3)


def test_full_function_space_z2():
    z2 = Group((2,))
    g = z2.generator(0)
    for a_val, expected in ((0, {"0/1", "1/2"}), (1, {"1/4", "3/4"})):
        a = CocycleParams(z2, (a_val,), (), ())
        sols = brute_force_full_function_space(a, 8)
        assert len(sols) == 2
        assert {str(t[(g, g)]) for t in sols} == expected
        # no solution beyond the product-form ones
        product_tables = [braiding_function_table(R)
                          for R in enumerate_braidings(a)]
        for t in sols:
            assert t in product_tables
        literal = brute_force_full_function_space(a, 8, max_candidates=8 ** 4,
                                                  prune_identity=False)
        assert sorted(literal, key=str) == sorted(sols, key=str)


def test_full_function_space_z3():
    z3 = Group((3,))
    sols = brute_force_full_function_space(zero_params(z3), 9,
                                           max_candidates=9 ** 4)
    assert len(sols) == 3
    product_tables = [braiding_function_table(R)
                      for R in enumerate_braidings(zero_params(z3))]
    for t in sols:
        assert t in product_tables


def test_full_function_space_guard():
    four = Group((2, 2))
    with pytest.raises(ValueError):
        brute_force_full_function_space(zero_params(four), 8)
    with pytest.raises(ValueError):
        brute_force_full_function_space(zero_params(Group((2,))), 0)


def test_function_table_unit_rows():
    group = Group((4, 2))
    a = CocycleParams(group, (0, 1), (0,), ())
    for R in enumerate_braidings(a)[:5]:
        table = braiding_function_table(R)
        for x in group.elements():
            assert table[(x, group.identity())].is_one()
            assert table[(group.identity(), x)].is_one()
