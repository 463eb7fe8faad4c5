"""Cocycle and coboundary decisions on both complexes, and classification."""

import copy
import dataclasses
import hashlib
import itertools
import math
import pickle
import random
from collections.abc import MutableMapping
from fractions import Fraction

import pytest

from grcat import cohomology
from grcat.cocycles import (CocycleParams, CocycleTable, build_table,
                            enumerate_params, pair_indices, table_from_doc,
                            verify_normalized, verify_pentagon)
from grcat.cohomology import (CoboundaryWitness2, TensorCochain3,
                              all_ones_cochain, bar_coboundary_table,
                              classify, h3_order, is_bar_coboundary,
                              is_tensor_coboundary, is_tensor_cocycle,
                              pullback_to_tensor, reduce_to_normal_form,
                              representative_cochain, tensor_coboundary,
                              trivial_witness)
from grcat.groups import Group
from grcat.intlinalg import solve_exponents
from grcat.roots import Root

GROUPS_UP_TO_8 = [(2,), (3,), (4,), (5,), (6,), (7,), (8,),
                  (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 2, 2)]

SIX_GROUPS = [(2,), (2, 2), (4, 2), (2, 2, 2), (6, 4), (3, 3)]


def one():
    return Root.one()


def test_cochain_value_accessor():
    group = Group((2, 2, 2))
    f = TensorCochain3(group,
                       (Root.of(1, 2), one(), one()),
                       (Root.of(1, 4), one(), one()),
                       (one(), Root.of(1, 2), one()),
                       (Root.of(1, 2),))
    assert f.value((3, 0, 0)) == Root.of(1, 2)
    assert f.value((0, 3, 0)) == one()
    assert f.value((2, 1, 0)) == Root.of(1, 4)
    assert f.value((1, 0, 2)) == Root.of(1, 2)
    assert f.value((1, 1, 1)) == Root.of(1, 2)
    for bad in ((1, 1, 0), (4, 0, 0), (1, 1), (1, 1, -1)):
        with pytest.raises(ValueError):
            f.value(bad)


def test_cochain_shape_validation():
    group = Group((2, 2))
    with pytest.raises(ValueError):
        TensorCochain3(group, (one(),), (one(),), (one(),), ())
    with pytest.raises(ValueError):
        CoboundaryWitness2(group, ())
    other = all_ones_cochain(Group((3,)))
    with pytest.raises(ValueError):
        all_ones_cochain(group) * other


@pytest.mark.parametrize("bad", [0.5, 1, "1/2", Fraction(1, 2), None],
                         ids=["float", "int", "str", "Fraction", "None"])
def test_values_must_be_roots(bad):
    # a non-Root value is refused at construction with one line, as Root,
    # Group and CocycleParams refuse theirs
    z2sq, z2cube = Group((2, 2)), Group((2, 2, 2))
    with pytest.raises(ValueError, match=r"^witness value .* \(0, 1\) must be a Root$"):
        CoboundaryWitness2(z2sq, (bad,))
    for group, name, values in (
            (z2sq, "diag", ([one(), bad], [one()], [one()], [])),
            (z2sq, "iij", ([one()] * 2, [bad], [one()], [])),
            (z2sq, "ijj", ([one()] * 2, [one()], [bad], [])),
            (z2cube, "rst", ([one()] * 3, [one()] * 3, [one()] * 3, [bad]))):
        with pytest.raises(ValueError, match=f"^{name} value .* must be a Root$"):
            TensorCochain3(group, *values)


def test_tensor_cocycle_examples():
    assert is_tensor_cocycle(all_ones_cochain(Group((4, 2)))) is None
    group = Group((2, 2))
    bad = TensorCochain3(group, (Root.of(1, 3), one()), (one(),), (one(),), ())
    assert is_tensor_cocycle(bad) == "f[1,1,1]^2 != 1"
    # pair equation: f_122^2 * f_112^2 = 1 fails for a lone 8th root
    bad_pair = TensorCochain3(group, (one(), one()), (Root.of(1, 8),),
                              (one(),), ())
    assert is_tensor_cocycle(bad_pair) == "f[1,2,2]^2 * f[1,1,2]^2 != 1"
    rank3 = Group((2, 2, 2))
    bad_triple = TensorCochain3(rank3, (one(),) * 3, (one(),) * 3,
                                (one(),) * 3, (Root.of(1, 3),))
    assert is_tensor_cocycle(bad_triple) == "f[1,2,3]^2 != 1"


def test_representatives_are_cocycles_small_groups():
    for orders in GROUPS_UP_TO_8:
        group = Group(orders)
        for a in enumerate_params(group):
            assert is_tensor_cocycle(representative_cochain(a)) is None


def test_representative_frozen_values():
    group = Group((2, 2))
    a = CocycleParams(group, (1, 0), (1,), ())
    f = representative_cochain(a)
    assert f.diag == (Root.of(1, 2), one())
    assert f.iij == (Root.of(1, 2),)
    assert f.ijj == (one(),)
    assert f.rst == ()

    big = Group((6, 4))
    b = CocycleParams(big, (0, 0), (1,), ())
    assert representative_cochain(b).iij == (Root.of(1, 4),)

    zero = CocycleParams(group, (0, 0), (0,), ())
    assert representative_cochain(zero) == all_ones_cochain(group)


def test_tensor_coboundary_examples():
    group = Group((2, 2))
    w = is_tensor_coboundary(all_ones_cochain(group))
    assert w is not None and all(v.is_one() for v in w.pairs)

    f = TensorCochain3(group, (one(), one()), (Root.of(1, 4),),
                       (Root.of(-1, 4),), ())
    w = is_tensor_coboundary(f)
    assert w is not None
    g12 = w.value(0, 1)
    assert g12 ** 2 == Root.of(1, 4)
    assert tensor_coboundary(w) == f

    stuck = TensorCochain3(group, (one(), one()), (Root.of(1, 2),),
                           (one(),), ())
    assert is_tensor_coboundary(stuck) is None


def test_tensor_coboundary_round_trip_random_witnesses():
    rng = random.Random(29)
    for orders in ((2, 2), (4, 2), (6, 4), (2, 2, 2)):
        group = Group(orders)
        npairs = len(trivial_witness(group).pairs)
        from grcat.cocycles import pair_indices
        idx = pair_indices(group.rank)
        for _ in range(10):
            pairs = []
            for i, j in idx:
                n = group.orders[i] * group.orders[j]
                pairs.append(Root.of(rng.randrange(n), n))
            w = CoboundaryWitness2(group, tuple(pairs))
            f = tensor_coboundary(w)
            assert is_tensor_cocycle(f) is None
            back = is_tensor_coboundary(f)
            assert back is not None
            assert tensor_coboundary(back) == f


def test_h3_order_values():
    expected = {(2,): 2, (2, 2): 8, (4, 2): 16, (2, 2, 2): 128,
                (6, 4): 48, (3, 3): 27, (3, 2): 6, (4, 2, 2): 256}
    for orders, value in expected.items():
        group = Group(orders)
        assert h3_order(group) == value
        assert h3_order(group) == len(enumerate_params(group))
    # 100 + 4,950 + 161,700 slots of modulus 2
    assert h3_order(Group((2,) * 100)) == 2 ** 166750


def test_reduce_round_trip_every_class():
    for orders in SIX_GROUPS:
        group = Group(orders)
        for a in enumerate_params(group):
            got, witness = reduce_to_normal_form(representative_cochain(a))
            assert got == a
            assert all(v.is_one() for v in witness.pairs)


def test_reduce_invariance_under_random_coboundaries():
    from grcat.cocycles import pair_indices
    rng = random.Random(41)
    for orders in ((2, 2), (4, 2), (6, 4), (2, 2, 2)):
        group = Group(orders)
        idx = pair_indices(group.rank)
        params = enumerate_params(group)
        for _ in range(20):
            a = rng.choice(params)
            pairs = []
            for i, j in idx:
                n = group.orders[i] * group.orders[j]
                pairs.append(Root.of(rng.randrange(n), n))
            w = CoboundaryWitness2(group, tuple(pairs))
            f = representative_cochain(a) * tensor_coboundary(w)
            got, back = reduce_to_normal_form(f)
            assert got == a, (orders, a, w)
            # the returned witness reproduces f exactly
            assert representative_cochain(got) * tensor_coboundary(back) == f


def test_reduce_coboundary_input_gives_zero_class():
    group = Group((2, 2))
    f = TensorCochain3(group, (one(), one()), (Root.of(1, 4),),
                       (Root.of(-1, 4),), ())
    a, witness = reduce_to_normal_form(f)
    assert a == CocycleParams(group, (0, 0), (0,), ())
    assert representative_cochain(a) * tensor_coboundary(witness) == f


def test_reduce_rejects_non_cocycle():
    group = Group((2, 2))
    bad = TensorCochain3(group, (Root.of(1, 3), one()), (one(),), (one(),), ())
    with pytest.raises(ValueError):
        reduce_to_normal_form(bad)


def test_distinct_parameters_are_never_tensor_cohomologous():
    for orders in GROUPS_UP_TO_8:
        group = Group(orders)
        reps = [representative_cochain(a) for a in enumerate_params(group)]
        for fa, fb in itertools.combinations(reps, 2):
            assert is_tensor_coboundary(fa / fb) is None, orders


def test_bar_coboundary_examples():
    group = Group((2,))
    g = group.generator(0)
    ones = build_table(CocycleParams(group, (0,), (), ()))
    w = is_bar_coboundary(ones)
    assert w is not None and all(v.is_one() for v in w.values())

    nontrivial = build_table(CocycleParams(group, (1,), (), ()))
    assert is_bar_coboundary(nontrivial) is None


def test_bar_coboundary_random_witness_round_trip():
    rng = random.Random(13)
    group = Group((2, 2))
    elems = group.elements()
    for _ in range(10):
        b = {}
        for x in elems:
            for y in elems:
                trivial = x.is_identity() or y.is_identity()
                b[(x, y)] = one() if trivial else Root.of(rng.randrange(8), 8)
        table = bar_coboundary_table(group, b)
        assert verify_pentagon(table) is None
        assert verify_normalized(table) is None
        w = is_bar_coboundary(table)
        assert w is not None
        assert bar_coboundary_table(group, w) == table


def test_bar_coboundary_guard():
    group = Group((2, 2, 2, 2))
    table = build_table(CocycleParams(group, (0,) * 4, (0,) * 6, (0,) * 4))
    with pytest.raises(ValueError):
        is_bar_coboundary(table)
    # classify has no order cap: it reads the class off the small complex
    assert classify(table) == CocycleParams(group, (0,) * 4, (0,) * 6, (0,) * 4)
    # the bound is adjustable in both directions
    small = build_table(CocycleParams(Group((2, 2)), (0, 0), (0,), ()))
    with pytest.raises(ValueError):
        is_bar_coboundary(small, max_group_order=2)


def test_classify_round_trip():
    for orders in ((2,), (3,), (4,), (2, 2), (4, 2)):
        group = Group(orders)
        for a in enumerate_params(group):
            assert classify(build_table(a)) == a, (orders, a)


def test_classify_ignores_bar_coboundaries():
    rng = random.Random(59)
    group = Group((2, 2))
    elems = group.elements()
    for a in (CocycleParams(group, (1, 0), (1,), ()),
              CocycleParams(group, (0, 1), (0,), ())):
        b = {}
        for x in elems:
            for y in elems:
                trivial = x.is_identity() or y.is_identity()
                b[(x, y)] = one() if trivial else Root.of(rng.randrange(8), 8)
        shifted = build_table(a) * bar_coboundary_table(group, b)
        assert classify(shifted) == a


def test_classify_trivial_table_and_uniqueness():
    group = Group((2, 2))
    zero = CocycleParams(group, (0, 0), (0,), ())
    assert classify(build_table(zero)) == zero
    a = CocycleParams(group, (1, 1), (1,), ())
    assert classify(build_table(a)) == a


def test_classify_rejects_non_cocycle():
    doc = {"orders": [2],
           "entries": [{"x": [1], "y": [1], "z": [1], "w": "1/3"}]}
    with pytest.raises(LookupError):
        classify(table_from_doc(doc))


def scan_classify(t):
    """Reference decider: the first parameter choice whose canonical table
    differs from t by a bar coboundary, one Smith-normal-form solve each.

    t must be a normalized cocycle, checked first; a ValueError from
    is_bar_coboundary is an internal failure and propagates.
    """
    if verify_normalized(t) is not None or verify_pentagon(t) is not None:
        raise LookupError("input is not a normalized cocycle")
    for a in enumerate_params(t.group):
        if is_bar_coboundary(t / build_table(a)) is not None:
            return a
    raise LookupError("no parameter choice matches")


def random_bar_coboundary(rng, group, den=8):
    elems = group.elements()
    b = {}
    for x in elems:
        for y in elems:
            trivial = x.is_identity() or y.is_identity()
            b[(x, y)] = one() if trivial else Root.of(rng.randrange(den), den)
    return bar_coboundary_table(group, b)


@pytest.mark.parametrize("orders, den", [((2, 2), 2 ** 70), ((4, 3), 3 * 2 ** 70)],
                         ids=["Z2^2", "Z4xZ3"])
def test_bar_coboundary_exact_witness_beyond_int64(orders, den):
    group = Group(orders)
    table = random_bar_coboundary(random.Random(79), group, den)
    assert table.exponents()[1].dtype == object
    w = is_bar_coboundary(table)
    assert w is not None
    assert bar_coboundary_table(group, w) == table


@pytest.mark.parametrize("orders, seed, digest", [
    ((4, 2), 83, "7cecafc259655984f5e86433eb49db41a714f7c8d7f707e84b8e7b6735e5748d"),
    ((2, 2, 2), 89, "98e04b5b6852e6fb0addf3dd673b2bdc823fce8494ca324e30fbe092568723bc"),
    ((2,), 97, "1de0f30b333586d6d8d56111f9bb263f6034c974e9f15078a6138aee93ec352f"),
    ((3,), 101, "1eab5b6ecf0cd3ff119b5533c740e97820f3f12e2057c994ffba5e73046b4e80"),
    ((2, 2), 103, "e831181674f0cf07fe4276c2372bc3971c889ec5076765ff66fb7ef270457901"),
    ((3, 3), 107, "81a54ecbd2c48ba5f3558216a32d1e6dbfe5455176e2d987a60d1bca3259a6dd"),
    ((4, 3), 109, "8c899b159ce2a177bb4e8eb2ab3c2e7ce3ecf0777657c749dd93b42829f13374"),
    ((6, 2), 113, "e8817b7c269b282dd1d652c6a8f6b90c4fe48b594b6135175bd0ddbe952c30d6"),
], ids=["Z4xZ2", "Z2^3", "Z2", "Z3", "Z2^2", "Z3^2", "Z4xZ3", "Z6xZ2"])
def test_bar_coboundary_witness_is_pinned(orders, seed, digest):
    group = Group(orders)
    w = is_bar_coboundary(random_bar_coboundary(random.Random(seed), group))
    # the pairs with an identity argument first, then the others, both in
    # lexicographic element order
    elems = group.elements()
    pairs = list(itertools.product(elems, elems))
    assert list(w) == ([p for p in pairs if p[0].is_identity() or p[1].is_identity()]
                       + [p for p in pairs if not (p[0].is_identity() or p[1].is_identity())])
    items = sorted((x.exps, y.exps, str(v)) for (x, y), v in w.items())
    assert hashlib.sha256(repr(items).encode()).hexdigest() == digest


EIGHT_GROUPS = [(2,), (3,), (2, 2), (4, 2), (3, 3), (2, 2, 2), (4, 3), (6, 2)]
EIGHT_IDS = ["Z2", "Z3", "Z2^2", "Z4xZ2", "Z3^2", "Z2^3", "Z4xZ3", "Z6xZ2"]


@pytest.mark.parametrize("orders, den", [(orders, 8) for orders in EIGHT_GROUPS]
                         + [((2, 2), 2 ** 70), ((4, 3), 3 * 2 ** 70)],
                         ids=EIGHT_IDS + ["Z2^2-2^70", "Z4xZ3-2^70"])
def test_bar_witness_mapping_contract(orders, den):
    # the witness holds numerators but reads, prints, compares and takes
    # writes as the dict of Roots it replaced; bar_coboundary_table reads its
    # numerators directly and must agree with the generic path over dict(w)
    group = Group(orders)
    table = random_bar_coboundary(random.Random(f"witness contract {orders}"), group, den)
    w = is_bar_coboundary(table)
    assert isinstance(w, MutableMapping) and type(w) is not dict
    plain = dict(w)
    assert w == plain and plain == w and len(w) == group.order ** 2
    assert repr(w) == str(w) == repr(plain)
    elems = group.elements()
    e, rest = elems[0], elems[1:]
    assert list(w) == ([(e, y) for y in elems] + [(x, e) for x in rest]
                       + list(itertools.product(rest, repeat=2)))
    assert bar_coboundary_table(group, w) == bar_coboundary_table(group, plain) == table
    assert bar_coboundary_table(Group(orders), w) == table

    # a value over a new denominator rescales the numerators; both paths see it
    key = (rest[-1], rest[0])
    for b in (w, plain):
        b[key] = b[key] * Root.of(1, 5)
    assert w == plain and w[key] == plain[key]
    shifted = bar_coboundary_table(group, w)
    assert shifted == bar_coboundary_table(group, dict(w))
    # on Z_2 every normalized 2-cochain is a cocycle, so only there db stays
    assert (shifted == table) == (group.order == 2)
    # an identity pair keeps what is written, and the table does not read it
    for b in (w, plain):
        b[(e, e)] = Root.of(1, 3)
    assert w == plain and bar_coboundary_table(group, w) == shifted

    twin = copy.copy(w)
    assert twin == w and pickle.loads(pickle.dumps(w)) == w
    twin[key] = Root.one()
    assert twin != w == plain

    with pytest.raises(ValueError, match=r"^witness value 0\.5 must be a Root$"):
        w[key] = 0.5
    stranger = Group((7,)).generator(0)
    with pytest.raises(KeyError):
        w[(stranger, e)]
    with pytest.raises(KeyError):
        w[(stranger, e)] = Root.one()
    assert (stranger, e) not in w and key in w
    with pytest.raises(TypeError, match="cannot be deleted"):
        del w[key]
    assert w == plain

    # over another group of the same order the generic path reads the keys
    # of that group, which neither mapping has
    other = Group((group.order,)) if group.rank > 1 else Group((2, group.order))
    for b in (w, plain):
        with pytest.raises(KeyError):
            bar_coboundary_table(other, b)


@pytest.mark.parametrize("orders, den", [(orders, 8) for orders in EIGHT_GROUPS]
                         + [((2, 2), 2 ** 70), ((4, 3), 3 * 2 ** 70)],
                         ids=EIGHT_IDS + ["Z2^2-2^70", "Z4xZ3-2^70"])
def test_bar_witness_reads_survive_a_rescale(orders, den):
    # a write over a new denominator rescales every numerator; each other
    # read still gives the value it gave before the write
    group = Group(orders)
    table = random_bar_coboundary(random.Random(f"witness rescale {orders}"), group, den)
    w = is_bar_coboundary(table)
    before = dict(w)
    key = (group.elements()[-1], group.elements()[1])
    w[key] = Root.of(2, 35)
    assert w.den % 35 == 0
    for k, v in before.items():
        assert w[k] == (Root.of(2, 35) if k == key else v)
    assert dict(w) == {**before, key: Root.of(2, 35)}


@pytest.mark.parametrize("orders, digest", zip(EIGHT_GROUPS, [
    "4319a2fb7977d757e3f143902141c0191eea33b44613fdbd9d47caee890aa2fb",
    "18bb4da0e6aeb0b68178f3ac9ccb58c8705b085e32c1ce996d8e534fa35c981a",
    "98d54a9f461fbb9b397d26e5e13952637676343990706a6670f0b2ac06afec6c",
    "7d16e15b85b3451035953dfb13483b2cb79656f387d22ea3b78b47340e12a7ed",
    "6d1a0bbbafe62bbcb7c183c2c024e0ad0dc1e5f8c6f64d1b43a325ffacaf1f09",
    "055774f18ff2de585330f3c1bf079451c24aec0425bd1bbb8cf3dd8d32d04bd2",
    "4f3a2693b4f40d129cdbbda8f797e19eb3b7b085a7f3d65380bc5f8d8d4af075",
    "fd7a475f48e614fee6e969899e09ac1a4c52ef8f5011bedcff53a242546eabe6",
]), ids=EIGHT_IDS)
def test_bar_coboundary_ratio_verdicts_pinned(orders, digest):
    # ratios of two canonical tables, the first shifted by a coboundary: None
    # between distinct classes, a witness (keys in order) within one
    group = Group(orders)
    rng = random.Random(f"ratios {orders}")
    params = enumerate_params(group)
    lines = []
    for _ in range(4):
        a = rng.choice(params)
        b = rng.choice([a, rng.choice(params)])
        w = is_bar_coboundary(build_table(a) * random_bar_coboundary(rng, group)
                              / build_table(b))
        assert (w is None) == (a != b)
        lines.append(None if w is None
                     else [(x.exps, y.exps, str(v)) for (x, y), v in w.items()])
    assert hashlib.sha256(repr(lines).encode()).hexdigest() == digest


@pytest.mark.parametrize("orders, digest", zip(EIGHT_GROUPS, [
    "d59f8c5d92db71a477884852c4133a3116a54107e9c399e279b671361859ebd8",
    "5be56de6cdc6ecba83b8b1a25b8c8f3ca38a6e04ad5bafc8d5f63f59884a53a8",
    "82ca659830a0a88ad638d78454110937b6be26a594fc5706dcfab89044686de8",
    "28301fb10f5c4a4870231f3f28bacb0751a3da02d4c697bdb45207955ce9e86b",
    "380a41408838cc2c2d084806d70731787cb9945f9846b93b1355de9ee657939d",
    "0819f4703ebc22474ae45cc0d7f5df3f090ad60d8b5aff5ba97420090dfd19a1",
    "564785e72eb0f387418624c54f45f400acf813a5eec28fb5468e6260d91a4ac1",
    "1918f9938ce781587e9135bf1e72bc480d10ddc8864554559d913277b245a437",
]), ids=EIGHT_IDS)
def test_bar_system_pinned(orders, digest):
    # the Smith decomposition of the bar coboundary system, as it was when
    # the rows were read off the public bar_differential
    snf = cohomology._bar_system(orders)
    canonical = ([sorted(row.items()) for row in snf.u_rows],
                 [sorted(row.items()) for row in snf.v_rows], snf.diagonal)
    assert hashlib.sha256(repr(canonical).encode()).hexdigest() == digest


def full_solve_bar_coboundary(t):
    """Reference for is_bar_coboundary: one solve_exponents over all rows of
    the bar system, zero rows first, then the substitution.  None when the
    system is unsolvable, the ValueError when it is solvable but db != t,
    else the witness's numerators over its denominator on the non-identity
    pairs."""
    group = t.group
    L, w = t.exponents()
    sol = solve_exponents(cohomology._bar_system(group.orders), L, w[1:, 1:, 1:].reshape(-1))
    if sol is None:
        return None
    if cohomology._bar_coboundary(group, *sol) != t:
        raise ValueError("table is not a normalized cocycle")
    return sol


def _outcome(decide, t):
    try:
        return decide(t)
    except ValueError as error:
        return repr(error)


def _tamper_identity_cell(rng, t):
    """t with one value at a triple with an identity argument multiplied by
    a primitive square root of 1: a cell that the bar system does not read."""
    N = t.group.order
    cell = rng.choice([c for c in range(N ** 3) if 0 in (c // (N * N), c // N % N, c % N)])
    values = list(t.values)
    values[cell] = values[cell] * Root.of(1, 2)
    return CocycleTable(t.group, values)


@pytest.mark.parametrize("orders", EIGHT_GROUPS, ids=EIGHT_IDS)
def test_bar_coboundary_outcomes_match_full_solve(orders):
    # seeded coboundaries, ratios of distinct classes, and each with one
    # identity-argument cell changed: the coboundaries then raise the
    # ValueError (system solvable, substitution fails) and the ratios give
    # None, as with the full solve
    group = Group(orders)
    rng = random.Random(f"full solve {orders}")
    params = enumerate_params(group)
    rest = group.elements()[1:]
    for _ in range(2):
        a, b = rng.sample(params, 2)
        coboundary = random_bar_coboundary(rng, group)
        ratio = build_table(a) * random_bar_coboundary(rng, group) / build_table(b)
        cases = [(coboundary, "witness"), (ratio, None),
                 (_tamper_identity_cell(rng, coboundary), "refused"),
                 (_tamper_identity_cell(rng, ratio), None)]
        for t, kind in cases:
            expected = _outcome(full_solve_bar_coboundary, t)
            got = _outcome(is_bar_coboundary, t)
            if kind == "witness":
                den, nums = expected
                assert all(v.is_one() for (x, y), v in got.items()
                           if x.is_identity() or y.is_identity())
                assert [got[(x, y)] for x in rest for y in rest] == [
                    Root(Fraction(k, den)) for k in nums]
            elif kind == "refused":
                assert got == expected == repr(ValueError("table is not a normalized cocycle"))
            else:
                assert got is expected is None


def _prime_power_parts(numbers):
    parts = []
    for x in numbers:
        p = 2
        while x > 1:
            q = 1
            while x % p == 0:
                x, q = x // p, q * p
            if q > 1:
                parts.append(q)
            p += 1
    return sorted(parts)


@pytest.mark.parametrize("orders", EIGHT_GROUPS + [(4, 4), (2, 2, 2, 2)],
                         ids=EIGHT_IDS + ["Z4^2", "Z2^4"])
def test_bar_system_diagonal_is_the_schur_multiplier(orders):
    # independent of the elimination: the system is the normalized bar
    # coboundary C^2 -> C^3, so its rank is (N-1)(N-2) and its non-unit
    # invariant factors are those of H_2(G, Z) = Lambda^2 G, the sum of
    # Z_gcd(m_i, m_j) over i < j (notes/decisions.md)
    N = math.prod(orders)
    diagonal = cohomology._bar_system(orders).diagonal
    assert sum(1 for d in diagonal if d) == (N - 1) * (N - 2)
    assert _prime_power_parts(d for d in diagonal if d > 1) == _prime_power_parts(
        math.gcd(a, b) for a, b in itertools.combinations(orders, 2))


def test_bar_solve_reads_only_the_rank_rows():
    # each outcome, a witness, None and the ValueError, is decided without
    # replaying u beyond its rank rows
    group = Group((5,))
    rng = random.Random("rank rows only")
    a, b = enumerate_params(group)[1:3]
    coboundary = random_bar_coboundary(rng, group)
    assert is_bar_coboundary(coboundary) is not None
    assert is_bar_coboundary(build_table(a) / build_table(b)) is None
    with pytest.raises(ValueError, match="^table is not a normalized cocycle$"):
        is_bar_coboundary(_tamper_identity_cell(rng, coboundary))
    snf = cohomology._bar_system(group.orders)
    assert "_rank_u" in snf.__dict__
    assert "u_rows" not in snf.__dict__ and "_zero_flat" not in snf.__dict__


def test_bar_coboundary_values_must_be_roots():
    group = Group((2,))
    e, g = group.elements()
    b = {(x, y): one() for x in (e, g) for y in (e, g)}
    b[(g, g)] = 0.5
    with pytest.raises(ValueError, match=r"^witness value 0\.5 must be a Root$"):
        bar_coboundary_table(group, b)


def test_classify_matches_scan_oracle():
    rng = random.Random(67)
    for orders in ((2,), (4,), (2, 2), (4, 2)):
        group = Group(orders)
        for a in enumerate_params(group):
            table = build_table(a)
            shifted = table * random_bar_coboundary(rng, group)
            for t in (table, shifted):
                assert classify(t) == scan_classify(t) == a, (orders, a)


def test_classify_every_class_z4_squared():
    group = Group((4, 4))
    for a in enumerate_params(group):
        assert classify(build_table(a)) == a, a


def test_classify_sampled_classes_z2_fourth():
    rng = random.Random(71)
    group = Group((2, 2, 2, 2))
    for a in rng.sample(enumerate_params(group), 12):
        assert classify(build_table(a)) == a, a


def test_pullback_to_tensor_of_canonical_table_is_cohomologous():
    for orders in ((4, 2), (3, 3), (2, 2, 2)):
        group = Group(orders)
        for a in enumerate_params(group)[::3]:
            f = pullback_to_tensor(build_table(a))
            assert is_tensor_cocycle(f) is None
            assert is_tensor_coboundary(f / representative_cochain(a)) is not None


def test_classify_rejects_unnormalized_cocycle():
    # the coboundary of a 2-cochain with b(1, g) != 1 passes the pentagon
    # (d d = 0) but is not 1 on the identity row
    group = Group((2,))
    elems = group.elements()
    e, g = elems
    b = {(x, y): one() for x in elems for y in elems}
    b[(e, g)] = Root.of(1, 2)
    values = [b[(y, z)] / b[(x * y, z)] * b[(x, y * z)] / b[(x, y)]
              for x in elems for y in elems for z in elems]
    table = CocycleTable(group, values)
    assert verify_pentagon(table) is None
    assert verify_normalized(table) is not None
    with pytest.raises(LookupError, match="not normalized"):
        classify(table)


def random_witness(rng, group, scale=1):
    return CoboundaryWitness2(group, tuple(
        Root.of(rng.randrange(n), n)
        for n in (group.orders[i] * group.orders[j] * scale
                  for i, j in pair_indices(group.rank))))


def tampered(rng, f):
    """f with one value times a root of order 3, 5, 7 or 8."""
    blocks = [list(f.diag), list(f.iij), list(f.ijj), list(f.rst)]
    block = rng.choice([b for b in blocks if b])
    k = rng.randrange(len(block))
    block[k] = block[k] * Root.of(1, rng.choice((3, 5, 7, 8)))
    return TensorCochain3(f.group, *blocks)


@pytest.mark.parametrize("orders, digest", [
    ((2, 2),
     "b2541dbac290c3856751400d771113d3df0aca8e6e2a7a2b4c2fe26d6e778c8e"),
    ((4, 2),
     "7138cf8bef85e71945ac3589acb1abad08410db358808b9c4636bb820de24105"),
    ((6, 4),
     "336e2d70c8ea11e2b23d9647d3baa0130f30dc919749d0a36439e4ac37ea5aa8"),
    ((2, 2, 2),
     "829749221933eeab90011d7856ddae87af173ecb12dc83faeb181c60cb374a75"),
    ((4, 3, 2),
     "951852cbe8543aec38f4fd2476dbf8536017a69a2dc8cd856239567d46c177b1"),
], ids=["Z2^2", "Z4xZ2", "Z6xZ4", "Z2^3", "Z4xZ3xZ2"])
def test_tensor_side_pinned(orders, digest):
    # normal form, witness, pullback and closure messages on seeded
    # coboundary-shifted representatives, as they were computed on Root blocks
    group = Group(orders)
    rng = random.Random(f"tensor side {orders}")
    params = enumerate_params(group)
    lines = []
    for _ in range(8):
        a = rng.choice(params)
        f = representative_cochain(a) * tensor_coboundary(
            random_witness(rng, group, 2 ** 70 if rng.random() < 0.25 else 1))
        got, witness = reduce_to_normal_form(f)
        lines.append((got.diag, got.pairs, got.triples, [str(v) for v in witness.pairs]))
        pulled = pullback_to_tensor(build_table(a) * random_bar_coboundary(rng, group))
        lines.append([[str(v) for v in block]
                      for block in (pulled.diag, pulled.iij, pulled.ijj, pulled.rst)])
        lines.append(is_tensor_cocycle(tampered(rng, f)))
    assert hashlib.sha256(repr(lines).encode()).hexdigest() == digest


@pytest.mark.parametrize("orders, digest", [
    ((2, 2), "e70b75e0efc82425b0b74e3ed7caa81faa3ec10443dd31650a4a38956a400a11"),
    ((4, 2), "c9888912cf616ae1a0016754770a8707b3f2823a56a0a676f8cf3896eb8b9788"),
    ((6, 4), "11dbabb70b943f99095317258086a50b65f3c2d9a82d94fe0ea2ee80cf98478c"),
    ((2, 2, 2), "f0721c77dde8d022c681f717fa19718c7dd4f45c8682d9dbcbe3e9c5e40c3ff6"),
    ((4, 3, 2), "58309024a0a4ce39df2d7eab33d76dc3f2c9e92455ba87308028ae579de9e3bb"),
], ids=["Z2^2", "Z4xZ2", "Z6xZ4", "Z2^3", "Z4xZ3xZ2"])
def test_tensor_coboundary_witness_pinned(orders, digest):
    # witnesses (or None) on seeded coboundaries, on coboundaries times a
    # representative and on tampered coboundaries, as solved on Root values
    group = Group(orders)
    rng = random.Random(f"tensor witness {orders}")
    params = enumerate_params(group)
    lines = []
    for _ in range(8):
        f = tensor_coboundary(random_witness(rng, group, 2 ** 70 if rng.random() < 0.25 else 1))
        for g in (f, f * representative_cochain(rng.choice(params)), tampered(rng, f)):
            w = is_tensor_coboundary(g)
            lines.append(None if w is None else [str(v) for v in w.pairs])
    assert hashlib.sha256(repr(lines).encode()).hexdigest() == digest


def test_tensor_coboundary_reuses_pair_systems():
    # one bounded cache entry per pair of orders, reused on every call
    assert cohomology._pair_system.cache_info().maxsize is not None
    group = Group((4, 3, 2))
    f = tensor_coboundary(random_witness(random.Random("pair systems"), group))
    is_tensor_coboundary(f)
    hits = cohomology._pair_system.cache_info().hits
    assert is_tensor_coboundary(f) is not None
    assert cohomology._pair_system.cache_info().hits == hits + 3


def test_cochains_compare_canonically():
    group = Group((4, 2))
    halves = TensorCochain3(group, (Root.of(2, 4), one()), (one(),), (one(),), ())
    assert halves == TensorCochain3(group, (Root.of(1, 2), one()), (one(),), (one(),), ())
    assert hash(halves) == hash(representative_cochain(CocycleParams(group, (2, 0), (0,), ())))
    f = representative_cochain(CocycleParams(group, (1, 1), (1,), ())) * tensor_coboundary(
        random_witness(random.Random(5), group))
    assert f / f == all_ones_cochain(group)
    assert f != all_ones_cochain(group)


def test_reduce_exact_beyond_int64():
    # a witness value 3/2^70 is carried through the normal form exactly
    group = Group((2, 2))
    a = CocycleParams(group, (1, 0), (1,), ())
    f = representative_cochain(a) * tensor_coboundary(
        CoboundaryWitness2(group, (Root.of(3, 2 ** 70),)))
    got, witness = reduce_to_normal_form(f)
    assert got == a
    assert representative_cochain(got) * tensor_coboundary(witness) == f


def test_coboundary_witness_repr_is_pinned():
    w = CoboundaryWitness2(Group((4, 2)), (Root.of(1, 8),))
    assert repr(w) == "CoboundaryWitness2(group=Group(orders=(4, 2)), pairs=(Root(1/8),))"
    assert repr(CoboundaryWitness2(Group((4, 2)), (Root.of(9, 8),))) == repr(w)


@pytest.mark.parametrize("orders, scale", [(orders, 1) for orders in EIGHT_GROUPS]
                         + [((4, 3), 2 ** 70)], ids=EIGHT_IDS + ["Z4xZ3-2^70"])
def test_coboundary_witness_value_contract(orders, scale):
    # equality and hash follow the values: the witnesses the solvers build
    # from numerators equal, and hash as, the ones built from their pairs
    group = Group(orders)
    rng = random.Random(f"witness values {orders}")
    params = enumerate_params(group)
    for _ in range(4):
        f = tensor_coboundary(random_witness(rng, group, scale))
        for w in (reduce_to_normal_form(representative_cochain(rng.choice(params)) * f)[1],
                  is_tensor_coboundary(f)):
            rebuilt = CoboundaryWitness2(group, w.pairs)
            assert rebuilt == w and w == rebuilt and hash(rebuilt) == hash(w)
            assert rebuilt.pairs == w.pairs and repr(rebuilt) == repr(w)
            assert copy.copy(w) == w and pickle.loads(pickle.dumps(w)) == w
            assert pickle.loads(pickle.dumps(w)).pairs == w.pairs
            with pytest.raises(dataclasses.FrozenInstanceError):
                w.pairs = rebuilt.pairs
            # the same store, but a witness is not a cochain
            twin = TensorCochain3._from_exponents(group, *w.exponents())
            assert twin.exponents() == w.exponents()
            assert w != twin and twin != w


def test_products_refuse_other_types():
    group = Group((4, 2))
    f = representative_cochain(CocycleParams(group, (1, 1), (1,), ()))
    t = build_table(CocycleParams(group, (1, 1), (1,), ()))
    w = CoboundaryWitness2(group, (Root.of(3, 8),))
    for left, right in ((f, 2), (2, f), (f, w), (w, f), (t, f), (f, t), (t, 2), (t, w)):
        with pytest.raises(TypeError):
            left * right
        with pytest.raises(TypeError):
            left / right
    assert f * f / f == f and t * t / t == t
