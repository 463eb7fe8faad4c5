"""Canonical cocycle construction and the three table verifiers."""

import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grcat.cocycles import (CocycleParams, CocycleTable, build_table,
                            enumerate_params, eval_cocycle, params_from_json,
                            params_to_doc, params_to_json, table_from_doc,
                            table_from_json, table_to_doc, table_to_json,
                            verify_normalized, verify_pentagon,
                            verify_symmetry_last_two)
from grcat.cohomology import h3_order
from grcat.groups import Group
from grcat.roots import Root


def zero_params(group):
    from grcat.cocycles import pair_indices, triple_indices
    n = group.rank
    return CocycleParams(group, (0,) * n, (0,) * len(pair_indices(n)),
                         (0,) * len(triple_indices(n)))


def test_parameter_counts():
    expected = {
        (2,): 2,
        (2, 2): 8,
        (4, 2): 16,
        (2, 2, 2): 128,
        (6, 4): 48,
        (3, 3): 27,
        (3, 2): 6,
    }
    for orders, count in expected.items():
        group = Group(orders)
        params = enumerate_params(group)
        assert len(params) == count
        assert len(params) == h3_order(group)
        assert len(set(params)) == count


def test_enumeration_order_and_shapes():
    group = Group((4, 2))
    params = enumerate_params(group)
    # trivial class first, last component varying fastest
    assert params[0].diag == (0, 0) and params[0].pairs == (0,)
    assert params[1].diag == (0, 0) and params[1].pairs == (1,)
    assert params[2].diag == (0, 1) and params[2].pairs == (0,)
    assert params[-1].diag == (3, 1) and params[-1].pairs == (1,)
    vectors = [p.diag + p.pairs + p.triples for p in params]
    assert vectors == sorted(vectors)


def test_frozen_diagonal_values():
    z2 = Group((2,))
    g = z2.generator(0)
    a = CocycleParams(z2, (1,), (), ())
    assert str(eval_cocycle(a, g, g, g)) == "1/2"

    z4 = Group((4,))
    h = z4.generator(0)
    b = CocycleParams(z4, (1,), (), ())
    assert str(eval_cocycle(b, h ** 2, h ** 3, h ** 3)) == "1/2"
    assert str(eval_cocycle(b, h ** 3, h ** 2, h ** 2)) == "3/4"
    assert str(eval_cocycle(b, h, h, h)) == "0/1"

    z3 = Group((3,))
    k = z3.generator(0)
    c = CocycleParams(z3, (1,), (), ())
    assert str(eval_cocycle(c, k ** 2, k ** 2, k ** 2)) == "2/3"


def test_frozen_pair_values():
    group = Group((2, 2))
    g1, g2 = group.generator(0), group.generator(1)
    a = CocycleParams(group, (0, 0), (1,), ())
    assert str(eval_cocycle(a, g2, g1, g1)) == "1/2"
    assert str(eval_cocycle(a, g1, g2, g2)) == "0/1"

    big = Group((6, 4))
    h1, h2 = big.generator(0), big.generator(1)
    b = CocycleParams(big, (0, 0), (1,), ())
    assert str(eval_cocycle(b, h2, h1 ** 3, h1 ** 3)) == "1/4"


def test_frozen_triple_values():
    group = Group((2, 2, 2))
    g1, g2, g3 = (group.generator(i) for i in range(3))
    a = CocycleParams(group, (0, 0, 0), (0, 0, 0), (1,))
    assert str(eval_cocycle(a, g3, g2, g1)) == "1/2"
    assert str(eval_cocycle(a, g3, g1, g2)) == "0/1"


def test_eval_matches_table_lookup():
    group = Group((6, 4))
    a = CocycleParams(group, (5, 3), (1,), ())
    table = build_table(a)
    rng = random.Random(7)
    elems = group.elements()
    for _ in range(100):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert table.value(x, y, z) == eval_cocycle(a, x, y, z)


def small_group_list(bound):
    out = []
    def extend(prefix, remaining):
        if prefix:
            out.append(tuple(prefix))
        for m in range(2, remaining + 1):
            extend(prefix + [m], remaining // m)
    extend([], bound)
    return [orders for orders in out
            if all(m >= 2 for m in orders)]


def test_pentagon_and_normalization_all_classes_small_groups():
    # every canonical table is a normalized 3-cocycle; the last-two-slot
    # symmetry holds exactly when every triple exponent vanishes
    for orders in small_group_list(12):
        group = Group(orders)
        for a in enumerate_params(group):
            table = build_table(a)
            assert verify_pentagon(table) is None, (orders, a)
            assert verify_normalized(table) is None, (orders, a)
            witness = verify_symmetry_last_two(table)
            if any(a.triples):
                assert witness is not None, (orders, a)
            else:
                assert witness is None, (orders, a)


def test_symmetry_boundary_spot_checks_rank_three():
    group = Group((3, 3, 3))
    for a3 in range(3):
        a = CocycleParams(group, (0, 0, 0), (0, 0, 0), (a3,))
        witness = verify_symmetry_last_two(build_table(a))
        assert (witness is None) == (a3 == 0)

    cyclic = Group((27,))
    for v in (0, 1, 13, 26):
        a = CocycleParams(cyclic, (v,), (), ())
        assert verify_symmetry_last_two(build_table(a)) is None


def test_symmetry_witness_is_lex_first():
    group = Group((2, 2, 2))
    a = CocycleParams(group, (0, 0, 0), (0, 0, 0), (1,))
    witness = verify_symmetry_last_two(build_table(a))
    assert witness is not None
    x, y, z = witness
    assert x.exps == (0, 0, 1)
    assert y.exps == (0, 1, 0)
    assert z.exps == (1, 0, 0)


def test_pentagon_tamper_detected():
    group = Group((2,))
    g = group.generator(0)
    doc = table_to_doc(build_table(CocycleParams(group, (1,), (), ())))
    assert doc["entries"] == [{"x": [1], "y": [1], "z": [1], "w": "1/2"}]
    doc["entries"][0]["w"] = "1/3"
    tampered = table_from_doc(doc)
    witness = verify_pentagon(tampered)
    assert witness == (g, g, g, g)
    assert verify_normalized(tampered) is None

    # erasing the single nontrivial entry leaves the trivial cocycle,
    # so the pentagon verifier must accept it
    doc["entries"] = []
    assert verify_pentagon(table_from_doc(doc)) is None


def test_normalization_tamper_detected():
    group = Group((2,))
    doc = {"orders": [2],
           "entries": [{"x": [0], "y": [1], "z": [1], "w": "1/2"}]}
    witness = verify_normalized(table_from_doc(doc))
    assert witness is not None
    x, y, z = witness
    assert x == group.identity()
    assert y == group.generator(0)
    assert z == group.generator(0)


def test_params_json_round_trip():
    group = Group((6, 3))
    a = CocycleParams(group, (5, 2), (2,), ())
    doc = params_to_doc(a)
    assert doc["orders"] == [6, 3]
    assert doc["a"] == [5, 2]
    assert doc["a2"] == {"1,2": 2}
    assert doc["a3"] == {}
    assert params_from_json(params_to_json(a)) == a

    # omitted off-diagonal blocks default to zero
    bare = params_from_json(json.dumps({"orders": [2, 2], "a": [1, 0]}))
    assert bare == CocycleParams(Group((2, 2)), (1, 0), (0,), ())

    rank3 = CocycleParams(Group((2, 2, 2)), (1, 0, 1), (0, 1, 0), (1,))
    doc3 = params_to_doc(rank3)
    assert doc3["a2"] == {"1,3": 1}
    assert doc3["a3"] == {"1,2,3": 1}
    assert params_from_json(params_to_json(rank3)) == rank3


def test_table_json_round_trip():
    group = Group((4, 2))
    a = CocycleParams(group, (1, 1), (1,), ())
    table = build_table(a)
    again = table_from_json(table_to_json(table))
    assert again == table

    doc = table_to_doc(table)
    for entry in doc["entries"]:
        assert entry["w"] != "0/1"
    # entries only cover nontrivial cells; absent cells read as one
    empty = table_from_doc({"orders": [4, 2], "entries": []})
    assert empty == build_table(zero_params(group))


def test_table_pointwise_operations():
    group = Group((2, 2))
    a = build_table(CocycleParams(group, (1, 0), (0,), ()))
    b = build_table(CocycleParams(group, (0, 1), (1,), ()))
    prod = a * b
    ratio = prod / b
    assert ratio == a
    g1 = group.generator(0)
    assert prod.value(g1, g1, g1) == a.value(g1, g1, g1) * b.value(g1, g1, g1)


def test_param_validation():
    group = Group((4, 2))
    with pytest.raises(ValueError):
        CocycleParams(group, (4, 0), (0,), ())
    with pytest.raises(ValueError):
        CocycleParams(group, (0, 0), (2,), ())
    with pytest.raises(ValueError):
        CocycleParams(group, (0,), (0,), ())
    with pytest.raises(ValueError):
        CocycleParams(group, (0, 0), (), ())
    with pytest.raises(ValueError):
        CocycleParams(Group((2, 2, 2)), (0, 0, 0), (0, 0, 0), (2,))


def test_build_table_cell_guard():
    group = Group((6, 4))
    a = zero_params(group)
    with pytest.raises(ValueError):
        build_table(a, max_cells=1000)
    assert build_table(a, max_cells=24 ** 3).group is group


def scan_witnesses(table):
    """First witnesses of the three verifiers, by a plain scan over the Roots."""
    elems = table.group.elements()
    v = table.value
    pentagon = next(((e, f, g, h) for e, f, g, h in itertools.product(elems, repeat=4)
                     if v(e * f, g, h) * v(e, f, g * h)
                     != v(e, f, g) * v(e, f * g, h) * v(f, g, h)), None)
    normalized = next(((x, y, z) for x, y, z in itertools.product(elems, repeat=3)
                       if (x.is_identity() or y.is_identity() or z.is_identity())
                       and not v(x, y, z).is_one()), None)
    symmetry = next(((x, y, z) for x, y, z in itertools.product(elems, repeat=3)
                     if table.group.element_index(y) < table.group.element_index(z)
                     and v(x, y, z) != v(x, z, y)), None)
    return pentagon, normalized, symmetry


def test_verifier_witnesses_match_root_scan():
    # seeded canonical tables with one to three cells multiplied by a root,
    # on cells with an identity argument for even k and off them for odd k
    rng = random.Random(29)
    for orders in ((4, 2), (3, 3), (2, 2, 2)):
        group = Group(orders)
        params = enumerate_params(group)
        n = group.order
        cells = ([], [])
        for c in range(n ** 3):
            cells[0 in (c // (n * n), c // n % n, c % n)].append(c)
        for k in range(6):
            values = list(build_table(rng.choice(params)).values)
            for _ in range(rng.randint(1, 3)):
                cell = rng.choice(cells[k % 2 == 0])
                values[cell] = values[cell] * Root.of(rng.randrange(1, 6), 6)
            table = CocycleTable(group, values)
            got = (verify_pentagon(table), verify_normalized(table),
                   verify_symmetry_last_two(table))
            assert got == scan_witnesses(table), (orders, k)


def test_huge_denominator_stays_exact():
    # 2^70 does not fit in int64: the exponent table falls back to Python ints
    group = Group((2,))
    g = group.generator(0)
    table = table_from_doc({"orders": [2], "entries": [
        {"x": [1], "y": [1], "z": [1], "w": "1/1180591620717411303424"}]})
    L, w = table.exponents()
    assert L == 2 ** 70 and w.dtype == object and int(w[1, 1, 1]) == 1
    assert verify_pentagon(table) == (g, g, g, g)
    assert verify_normalized(table) is None
    assert verify_symmetry_last_two(table) is None


def test_exponents_cached_and_read_only():
    table = build_table(CocycleParams(Group((4, 2)), (1, 1), (1,), ()))
    L, w = table.exponents()
    assert table.exponents()[1] is w
    assert L == 4 and w.shape == (8, 8, 8) and w.dtype == np.int64
    assert isinstance(table.values, tuple)
    with pytest.raises(ValueError):
        w[0, 0, 0] = 1


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


@st.composite
def table_docs(draw):
    """Arbitrary JSON, or a well-formed table document in which one field may
    be replaced by arbitrary JSON or removed, so that every check is reached."""
    if draw(st.booleans()) and draw(st.booleans()):
        return draw(JSON)
    orders = draw(st.lists(st.integers(2, 4), min_size=1, max_size=2))
    element = st.lists(st.integers(-3, 7), min_size=len(orders), max_size=len(orders))
    root = st.sampled_from(["1/2", "0", "3/4", "1/0", "1/", "x"])
    entries = [{"x": draw(element), "y": draw(element), "z": draw(element), "w": draw(root)}
               for _ in range(draw(st.integers(0, 3)))]
    doc = {"orders": orders, "entries": entries}
    if draw(st.booleans()):
        target = draw(st.sampled_from([doc] + entries))
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(JSON)
    return doc


@settings(max_examples=300, deadline=None)
@given(table_docs())
def test_table_from_doc_accepts_or_raises_value_error(doc):
    try:
        table = table_from_doc(doc)
    except ValueError:
        return
    assert isinstance(table, CocycleTable)
