"""Canonical cocycle construction and the three table verifiers."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grcat.cocycles import (CocycleParams, CocycleTable, build_table,
                            enumerate_params, eval_cocycle, params_from_doc,
                            params_from_json, params_to_doc, params_to_json,
                            slot_counts, slot_moduli, table_from_doc, table_from_json,
                            table_to_doc, table_to_json, verify_normalized,
                            verify_pentagon, verify_symmetry_last_two)
from grcat.cohomology import TensorCochain3, h3_order
from grcat.complexes import pullback_3cochain
from grcat.groups import Group
from grcat.intlinalg import _int_dtype
from grcat.roots import Root, parse_exponent


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


def paper_exponent(a, x, y, z):
    """E(x, y, z) of notes/decisions.md, summed in Fractions term by term: the
    paper's formula, sharing no code with the library's phi_3 kernel."""
    m = a.group.orders
    i, j, k = x.exps, y.exps, z.exps
    ranks = range(len(m))
    total = sum(Fraction(a.diag[l] * i[l] * (j[l] + k[l] >= m[l]), m[l]) for l in ranks)
    for s, t in itertools.combinations(ranks, 2):
        total += Fraction(a.pair_value(s, t) * i[t] * (j[s] + k[s] >= m[s]), m[t])
    for r, s, t in itertools.combinations(ranks, 3):
        total -= Fraction(a.triple_value(r, s, t) * k[r] * j[s] * i[t],
                          math.gcd(m[r], m[s], m[t]))
    return total


@pytest.mark.parametrize("orders, classes, cells", [
    ((2, 2, 2), 4, None), ((4, 3), 3, None), ((4, 4), 3, None),
    ((2, 2, 2, 2), 3, None), ((6, 4), 2, None), ((8, 8), 1, 2000)],
    ids=["Z2^3", "Z4xZ3", "Z4^2", "Z2^4", "Z6xZ4", "Z8^2"])
def test_table_and_eval_match_paper_formula(orders, classes, cells):
    # seeded classes plus the one with every exponent at its maximum; the whole
    # cube against the formula's own table, or sampled cells on Z_8^2
    group = Group(orders)
    rng = random.Random(str(orders))
    params = enumerate_params(group)
    elems = group.elements()
    for a in rng.sample(params[:-1], classes - 1) + [params[-1]]:
        table = build_table(a)
        if cells is None:
            assert table == CocycleTable(group, [
                Root(paper_exponent(a, x, y, z))
                for x, y, z in itertools.product(elems, repeat=3)]), (orders, a)
        else:
            for _ in range(cells):
                x, y, z = (rng.choice(elems) for _ in range(3))
                assert table.value(x, y, z) == Root(paper_exponent(a, x, y, z))
        for _ in range(50):
            x, y, z = (rng.choice(elems) for _ in range(3))
            assert eval_cocycle(a, x, y, z) == Root(paper_exponent(a, x, y, z))


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


# sha256 of table_to_json over each group's classes (all of them, or a seeded
# sample), computed before the writer joined precomputed text fragments
TABLE_JSON_PINS = {
    (2, 2, 2): (None, "1cb022270caf31cdd39868823d0d14b02d79fbf35de256087f5b5f03b77be83a"),
    (4, 3): (None, "54f15b8bdee5b9397442e1436b891b1a7274c6937b2542967c9973ae7755414c"),
    (4, 4): (8, "f0476e3a0bc4ea00426c520f7a5279642e6d1795f38f939ceb5d61dfdcde7514"),
    (2, 2, 2, 2): (8, "5cff80a43e92ca4545d31a2a026234723b192b44db1188b1f1074773513b12e1"),
    (8, 8): (1, "daed44e634ec2c164c312f5348f71974009309d394b345a07f7c2f9ea8f7f353"),
}


def test_table_json_pinned():
    for orders, (count, expected) in TABLE_JSON_PINS.items():
        params = enumerate_params(Group(orders))
        if count is not None:
            params = random.Random(f"table json {orders}").sample(params, count)
        digest = hashlib.sha256()
        for a in params:
            table = build_table(a)
            text = table_to_json(table)
            digest.update(text.encode() + b"\n")
            assert table_from_json(text) == table
            assert table_to_doc(table) == json.loads(text)
        assert digest.hexdigest() == expected, orders


def test_table_from_doc_later_entry_wins():
    # [3], [7] and [-1] all name the same element of Z_4; the last "w" counts,
    # whatever denominator earlier entries brought in
    def doc(*cells):
        return {"orders": [4], "entries": [
            {"x": [x], "y": [1], "z": [3], "w": w} for x, w in cells]}
    table = table_from_doc(doc((3, "1/3"), (7, "2/4"), (-1, "1/-2")))
    assert table.value(*(Group((4,)).element([e]) for e in (3, 1, 3))) == Root.of(1, 2)
    assert table.exponents()[0] == 2
    assert table == CocycleTable(Group((4,)), [
        Root.of(1, 2) if cell == (3 * 4 + 1) * 4 + 3 else Root.one() for cell in range(64)])
    # a later "0" clears the cell, and the denominator goes with it
    cleared = table_from_doc(doc((1, "1/3"), (1, "0/5")))
    assert cleared == table_from_doc({"orders": [4], "entries": []})
    assert cleared.exponents()[0] == 1


def test_table_pointwise_operations():
    group = Group((2, 2))
    a = build_table(CocycleParams(group, (1, 0), (0,), ()))
    b = build_table(CocycleParams(group, (0, 1), (1,), ()))
    prod = a * b
    ratio = prod / b
    assert ratio == a
    g1 = group.generator(0)
    assert prod.value(g1, g1, g1) == a.value(g1, g1, g1) * b.value(g1, g1, g1)
    # quotients bring (L, w) back to the least common denominator
    assert (prod / prod).exponents()[0] == 1
    assert (prod / prod) == build_table(zero_params(group))


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
    # at most 10^6 slots: rank 181 has 988,441, and rank 182 is refused
    # before any slot is built
    assert slot_counts(181) == (181, 16290, 971970)
    with pytest.raises(ValueError, match=r"^rank 182 has 1004913 parameter slots, "
                                         r"above the 10\^6 bound$"):
        slot_moduli((2,) * 182)


@pytest.mark.parametrize("value", [1.5, True, "1"], ids=["float", "bool", "str"])
def test_param_slots_must_be_integers(value):
    # the documents' rule: a JSON integer, not a float, bool or string
    with pytest.raises(ValueError, match=r"^diagonal exponent .* for factor 0 must be an "
                                         r"integer$"):
        CocycleParams(Group((4,)), (value,), (), ())
    with pytest.raises(ValueError, match=r"^pair exponent .* for factors \(0, 1\) must"):
        CocycleParams(Group((4, 2)), (0, 0), (value,), ())
    with pytest.raises(ValueError, match=r"^triple exponent .* for factors \(0, 1, 2\)"):
        CocycleParams(Group((2, 2, 2)), (0, 0, 0), (0, 0, 0), (value,))


@pytest.mark.parametrize("value", [0.5, 1, Fraction(1, 2)], ids=["float", "int", "Fraction"])
def test_table_values_must_be_roots(value):
    with pytest.raises(ValueError, match=r"^table value .* must be a Root$"):
        CocycleTable(Group((2,)), [value] * 8)
    with pytest.raises(ValueError, match=r"^table value .* must be a Root$"):
        CocycleTable(Group((2,)), [Root.one()] * 7 + [value])


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
    # the phi_3 kernel takes the same path: the pullback of the Z_2 cochain
    # with value 1/2^70 on Phi(3) is this table, exact through values and JSON
    pulled = pullback_3cochain(TensorCochain3(group, (Root.of(1, 2 ** 70),), (), (), ()),
                               group)
    assert pulled == table and pulled.exponents()[1].dtype == object
    assert pulled.values[-1] == Root.of(1, 2 ** 70)
    assert all(v.is_one() for v in pulled.values[:-1])
    assert json.loads(table_to_json(pulled))["entries"] == [
        {"x": [1], "y": [1], "z": [1], "w": "1/1180591620717411303424"}]


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


@st.composite
def adversarial_table_docs(draw):
    """A table document on a small group whose entries are either all
    readable (exponents out of range, negative or past 2^64, repeated cells,
    "1/-2", a later "0/5" clearing a cell) or mixed with what the reader must
    refuse: bools, floats, ragged or non-list coordinates, a missing or
    non-string "w", "1/0" and non-object entries."""
    orders = draw(st.lists(st.integers(2, 4), min_size=1, max_size=2))
    n = len(orders)
    digit = st.integers(-5, 8) | st.sampled_from([2 ** 70, -2 ** 70, 2 ** 63])
    coordinate = (st.lists(st.integers(0, 1), min_size=n, max_size=n)
                  | st.lists(digit, min_size=n, max_size=n))
    value = st.sampled_from(["1/2", "1/4", "0/5", "0", "2/4", "-3/8", "1/-2", "5/3"])
    if draw(st.booleans()):
        bad = st.sampled_from([True, False, 1.0, 0.0, None, "1", [1]])
        coordinate = st.one_of(
            coordinate,
            st.lists(digit | bad, min_size=n, max_size=n),
            st.lists(st.integers(0, 3), max_size=n + 1),
            st.integers(0, 3) | st.none() | st.text(max_size=2) | st.just({"0": 1}),
            st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple))
        value = value | st.sampled_from(["1/0", "x", "1/", 1, 0.5, None, ["1/2"]])
    entry = st.fixed_dictionaries({"x": coordinate, "y": coordinate, "z": coordinate},
                                  optional={"w": value})
    if draw(st.booleans()):
        entry = entry | st.sampled_from([[1], "x", None])
    return {"orders": orders, "entries": draw(st.lists(entry, max_size=8))}


def _int_list_reference(value, what):
    if not (isinstance(value, list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def reference_table_from_doc(doc):
    """The table reader as it was before it looked exponent lists up: every
    entry through the full check and every value parsed."""
    if not isinstance(doc, dict):
        raise ValueError(f"a table must be a JSON object, got {type(doc).__name__}")
    group = Group(_int_list_reference(doc.get("orders"), '"orders"'))
    orders = group.orders
    n = group.order
    if n ** 3 > 10 ** 6:
        raise ValueError("a table needs |G|^3 cells; above 10^6 (|G| > 100) is refused")
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f'"entries" must be a list, got {type(entries).__name__}')
    cells = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"a table entry must be an object, got {entry!r}")
        cell = 0
        for k in ("x", "y", "z"):
            exps = _int_list_reference(entry.get(k), f'entry "{k}"')
            if len(exps) != len(orders):
                raise ValueError(f"expected {len(orders)} exponents, got {len(exps)}")
            for e, m in zip(exps, orders):
                cell = cell * m + e % m
        if "w" not in entry:
            raise ValueError(f'a table entry has no "w": {entry!r}')
        cells[cell] = parse_exponent(entry["w"])
    L = math.lcm(*{q for _, q in cells.values()})
    w = np.zeros(n ** 3, dtype=_int_dtype(5 * L))
    if cells:
        w[list(cells)] = np.array([p * (L // q) % L for p, q in cells.values()],
                                  dtype=w.dtype)
    return CocycleTable._from_exponents(group, L, w.reshape(n, n, n))


def read_table_both_ways(doc):
    """What table_from_doc and the reference reader make of doc: the table's
    group and exponents, or the ValueError message."""
    outcomes = []
    for reader in (table_from_doc, reference_table_from_doc):
        try:
            table = reader(doc)
        except ValueError as exc:
            outcomes.append(str(exc))
        else:
            L, w = table.exponents()
            outcomes.append((table.group, L, w.dtype, w.tolist()))
    return outcomes


class Exponent(int):
    pass


def one_entry(**fields):
    entry = {"x": [1], "y": [1], "z": [1], "w": "1/2"}
    entry.update(fields)
    return {"orders": [2], "entries": [entry]}


@pytest.mark.parametrize("doc", [
    one_entry(x=[True]), one_entry(y=[1.0]), one_entry(z=[False]),
    one_entry(x=[2 ** 70 + 1]), one_entry(y=[-1]), one_entry(z=[Exponent(1)]),
    one_entry(x=[1, 0]), one_entry(y=[]), one_entry(z=5), one_entry(x=(1,)),
    one_entry(w=1), one_entry(w=None), one_entry(w="1/0"), one_entry(w="1/-2"),
    {"orders": [2], "entries": [{"x": [1], "y": [1], "z": [1]}]},
    {"orders": [2], "entries": [{"x": [1], "y": [1], "z": [1], "w": "1/4"},
                                {"x": [3], "y": [1], "z": [-1], "w": "1/2"}]},
    {"orders": [2], "entries": [{"x": [1], "y": [1], "z": [1], "w": "1/3"},
                                {"x": [1], "y": [1], "z": [1], "w": "0/5"}]},
    {"orders": [2], "entries": [{"x": [1], "y": [1], "z": [1], "w": "1/0"},
                                {"x": [True], "y": [1], "z": [1], "w": "1/2"}]},
])
def test_table_reader_matches_reference_examples(doc):
    ours, reference = read_table_both_ways(doc)
    assert ours == reference


@settings(max_examples=300, deadline=None)
@given(table_docs() | adversarial_table_docs())
def test_table_reader_matches_reference(doc):
    # the same table, exponents and dtype included, or the same ValueError
    ours, reference = read_table_both_ways(doc)
    assert ours == reference


@st.composite
def params_docs(draw):
    """Arbitrary JSON, or a params document whose fields are drawn near the
    schema, with one field possibly replaced by arbitrary JSON or removed."""
    if draw(st.booleans()) and draw(st.booleans()):
        return draw(JSON)
    orders = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    n = len(orders)
    exps = st.integers(0, 1) | st.integers(-1, 4)
    keys = (st.sampled_from(["1,2", "1,3", "2,3", "1,2,3"])
            | st.lists(st.integers(0, 4), min_size=2, max_size=3).map(
                lambda v: ",".join(map(str, v))))
    doc = {"orders": orders,
           "a": draw(st.lists(exps, min_size=n, max_size=n)),
           "a2": draw(st.dictionaries(keys, exps, max_size=2)),
           "a3": draw(st.dictionaries(keys, exps, max_size=2))}
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(JSON)
    return doc


@pytest.mark.parametrize("doc, message", [
    ([{"orders": [2], "a": [1]}], "must be a JSON object"),
    ({"a": [1]}, '"orders" must be a list of integers'),
    ({"orders": [2]}, '"a" must be a list of integers'),
    ({"orders": [2], "a": "1"}, '"a" must be a list of integers'),
    ({"orders": [2], "a": [True]}, '"a" must be a list of integers'),
    ({"orders": [2, 2], "a": [1, 0], "a2": [1]}, '"a2" must be an object'),
    ({"orders": [2, 2, 2], "a": [1, 0, 0], "a3": 1}, '"a3" must be an object'),
    ({"orders": [2, 2], "a": [1, 0], "a2": {"3,4": 1}}, '"a2" has no slot'),
    ({"orders": [2, 2], "a": [1, 0], "a3": {"1,2,3": 1}}, '"a3" has no slot'),
    ({"orders": [2, 2], "a": [1, 0], "a2": {"1,2": "1"}}, '"a2" value at'),
])
def test_malformed_params_documents(doc, message):
    with pytest.raises(ValueError) as info:
        params_from_doc(doc)
    assert message in str(info.value) and "\n" not in str(info.value)


@settings(max_examples=400, deadline=None)
@given(st.one_of(table_docs().map(lambda doc: (table_from_doc, CocycleTable, doc)),
                 params_docs().map(lambda doc: (params_from_doc, CocycleParams, doc))))
def test_documents_accept_or_raise_value_error(case):
    # both document readers: every input gives an object or a ValueError
    reader, kind, doc = case
    try:
        result = reader(doc)
    except ValueError:
        return
    assert isinstance(result, kind)
