"""Braiding existence, closed-form enumeration, and the two oracles."""

import hashlib
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


def test_braiding_values_must_be_roots():
    # the values are read where their exponents are used, not at construction
    z2 = Group((2,))
    g = z2.generator(0)
    R = QuasiBicharacter(z2, [[0.5]])
    for read in (lambda: verify_hexagons(zero_params(z2), R), lambda: eval_R(R, g, g),
                 lambda: braiding_function_table(R)):
        with pytest.raises(ValueError, match=r"^braiding value 0\.5 must be a Root$"):
            read()


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


# sha256 of the ordered enumerate_braidings matrices over each group's
# braidable classes (all of them, or a seeded sample), computed before the
# enumeration shared its row tuples
ENUMERATE_PINS = {
    (2, 2, 2): (None, "30bae806caac99644aba4cac3c9c4b942da96b91197b39f401fa53dea06684bc"),
    (4, 4): (None, "9aaafd32d3cbb8f940556b3ce65d5b109a1a489eca589a69e57b83063fdf60b7"),
    (2, 2, 2, 2): (1, "bd2951adc1cb7b014f84e546fbbc046bfe0c7be8b79cd3c8938cbb5b63346d27"),
}


def test_enumerate_braidings_pinned():
    for orders, (count, expected) in ENUMERATE_PINS.items():
        group = Group(orders)
        braided = [a for a in enumerate_params(group) if braiding_exists(a)[0]]
        if count is not None:
            braided = random.Random(f"enumerate {orders}").sample(braided, count)
        found = [enumerate_braidings(a) for a in braided]
        rows = [[[[str(v) for v in row] for row in R.r] for R in Rs] for Rs in found]
        assert _digest(rows) == expected, orders
        # an enumerated braiding equals and hashes like one built from its matrix
        for R in found[-1][::97]:
            again = QuasiBicharacter(group, [list(row) for row in R.r])
            assert again == R and hash(again) == hash(R)


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
    for orders in ORACLE_GROUPS + [(3, 3), (4, 3)]:
        group = Group(orders)
        for a in enumerate_params(group):
            mine = set(enumerate_braidings(a))
            oracle = set(brute_force_braidings(a))
            assert mine == oracle, (orders, a)


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
    # a 2^70 denominator takes the exponent tables past int64
    group = Group((4, 2))
    R = QuasiBicharacter(group, [[Root.of(1, 2 ** 70), Root.of(1, 4)],
                                 [Root.of(3, 8), Root.of(1, 2)]])
    for a in enumerate_params(group)[:3]:
        assert verify_hexagons(a, R) == first_multiplicative_failure(a, R), a


# sha256 of repr(verify_hexagons(a, R)) over a seeded set, computed before
# verify_hexagons and the oracles shared one residual kernel
HEXAGON_GROUPS = [(2,), (4,), (2, 2), (4, 2), (3, 3), (2, 2, 2), (4, 3), (4, 4),
                  (2, 2, 2, 2), (8, 8)]
HEXAGON_PIN = "83175f042f727a762b72bb8afcdd0a4d5c0d6011f211acdb665f4e57d5399e30"


def test_verify_hexagons_pinned():
    # per group 3 seeded classes that admit braidings, each with 4 off-grid
    # braidings and its first 3 enumerated ones
    rng = random.Random(71)
    results = []
    for orders in HEXAGON_GROUPS:
        group = Group(orders)
        braided = [a for a in enumerate_params(group) if braiding_exists(a)[0]]
        n = group.rank
        for a in (rng.choice(braided) for _ in range(3)):
            off_grid = [QuasiBicharacter(group, [[Root.of(rng.randrange(24),
                                                          rng.choice((4, 8, 12, 16)))
                                                  for _ in range(n)] for _ in range(n)])
                        for _ in range(4)]
            for R in off_grid + enumerate_braidings(a)[:3]:
                results.append(verify_hexagons(a, R))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == HEXAGON_PIN


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
    # the refusal comes before anything is built: 64^9 points on Z_8^3
    for orders, total in (((8, 4), 64 * 32 * 32 * 16), ((8, 8, 8), 64 ** 9)):
        with pytest.raises(ValueError, match=rf"^candidate grid has {total} points, "
                                             r"above the 1000000 bound$"):
            brute_force_braidings(zero_params(Group(orders)))
    small = Group((2,))
    with pytest.raises(ValueError, match=r"^candidate grid has 4 points, above the 3 bound$"):
        brute_force_braidings(zero_params(small), max_candidates=3)


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# sha256 of the ordered oracle outputs, computed before the oracles filtered
# the grid through the hexagons' linear forms: (class step, digest)
GRID_ORACLE_PINS = {
    (2, 2): (1, "d16e94902f6d32f58c6538c820532e973ad45d30e684e220f1edd1a64321dad0"),
    (4, 2): (1, "2709e59174760f8e2e06c93de9b72e614447faec28d8428e08a714bda04b4578"),
    (3, 3): (1, "b2850a82fedf99c206171e488f9fd59b4e4bcee3d775739927636bfc9d0ba8b5"),
    (4, 3): (1, "291daa4282cdebacea106ce90d338feb2e83267d2357d787108c1363ec7a9197"),
    (2, 2, 2): (8, "b975c9fa231cb44630311e0a7c410fd8961070f3e9e2c210a7b12a9404517210"),
}


def test_grid_oracle_outputs_pinned():
    for orders, (step, expected) in GRID_ORACLE_PINS.items():
        rows = [[[[str(v) for v in row] for row in R.r] for R in brute_force_braidings(a)]
                for a in enumerate_params(Group(orders))[::step]]
        assert _digest(rows) == expected, orders


# (orders, values order, prune_identity, digest over every class)
FULL_SPACE_PINS = [
    ((2,), 8, True, "4420ca04770af997e1b32e1eb936e42578644bed9697aac7da06eaf398335da5"),
    ((2,), 8, False, "4420ca04770af997e1b32e1eb936e42578644bed9697aac7da06eaf398335da5"),
    ((3,), 9, True, "5e52a004771252a1252463cf220980505906ea02176535f91e5a04e54dad819c"),
    ((2, 2), 4, True, "adc8ba5b475cab2f1f54eb59b21dd708441d1599424c9319f0490bc7ea7bcf81"),
    ((4,), 4, True, "423083d44f4b157add11c0b865fc6661c55b6f2456c207d9ec2b82b9d97f3369"),
    # mu_1: one function, whatever the number of cells
    ((20,), 1, True, "6b041bd0d9daa118e3be7d0c3b02f7a01cc34707666af2ed22ceb8316f53d06b"),
    ((4, 2), 1, False, "ea3f3f8bbea6f712190261f2ef884ace2c5dc7a5aeca4815acb96858122124a4"),
]


def test_full_space_oracle_outputs_pinned():
    for orders, N, prune, expected in FULL_SPACE_PINS:
        rows = [[[(x.exps, y.exps, str(v)) for (x, y), v in
                  sorted(t.items(), key=lambda kv: (kv[0][0].exps, kv[0][1].exps))]
                 for t in brute_force_full_function_space(a, N, prune_identity=prune)]
                for a in enumerate_params(Group(orders))]
        assert _digest(rows) == expected, (orders, N, prune)


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
    for orders, N, prune, total in (((2, 2), 8, True, 8 ** 9),
                                    ((4, 2), 64, False, 64 ** 64)):
        with pytest.raises(ValueError, match=rf"^function space has {total} points, "
                                             r"above the 1000000 bound$"):
            brute_force_full_function_space(zero_params(Group(orders)), N,
                                            prune_identity=prune)
    with pytest.raises(ValueError, match=r"^values order must be positive, got 0$"):
        brute_force_full_function_space(zero_params(Group((2,))), 0)


def test_function_table_unit_rows():
    group = Group((4, 2))
    a = CocycleParams(group, (0, 1), (0,), ())
    for R in enumerate_braidings(a)[:5]:
        table = braiding_function_table(R)
        for x in group.elements():
            assert table[(x, group.identity())].is_one()
            assert table[(group.identity(), x)].is_one()
