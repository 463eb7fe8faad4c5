"""Resolutions, differentials, and the comparison maps between them."""

import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from grcat.cocycles import (CocycleParams, CocycleTable, build_table, enumerate_params,
                            pair_indices, triple_indices)
from grcat.cohomology import TensorCochain3, representative_cochain
from grcat import complexes
from grcat.complexes import (BarGenerator, ChainVector, GroupRingElement,
                             TensorGenerator, apply_chain_map,
                             bar_differential, bar_generator, chain_map,
                             contract, contract_tensor, degree3_indices,
                             norm_element, phi,
                             pullback_3cochain, single, t_element,
                             tensor_differential, tensor_to_bar,
                             tensor_to_bar_cells, verify_chain_map,
                             verify_tensor_to_bar)
from grcat.groups import Group
from grcat.roots import Root


def unit(group):
    return GroupRingElement.unit(group.identity())


def test_group_ring_arithmetic():
    group = Group((2,))
    g = group.generator(0)
    t = t_element(group, 0)
    n = norm_element(group, 0)
    # (g - 1)(1 + g) = 0 when g has order two
    assert not (t * n)
    assert not (n * t)
    assert t * t == GroupRingElement(group, {group.identity(): 2, g: -2})
    assert (t + n).terms == {g: 2}
    assert (-t).terms == {group.identity(): 1, g: -1}
    assert (t * 3).terms == {g: 3, group.identity(): -3}
    assert 3 * t == t * 3
    assert (g * t).terms == {group.identity(): 1, g: -1}
    assert t.augmentation() == 0
    assert n.augmentation() == 2
    assert GroupRingElement.zero(group).augmentation() == 0


def test_norm_annihilates_twist_every_cyclic_order():
    for m in range(2, 10):
        group = Group((m,))
        assert not (t_element(group, 0) * norm_element(group, 0))


def test_bar_generator_identity_collapse():
    group = Group((4,))
    g = group.generator(0)
    assert bar_generator([g, group.identity()]) is None
    assert bar_generator([group.identity()]) is None
    gen = bar_generator([g, g ** 2])
    assert gen.degree == 2 and gen.elems == (g, g ** 2)
    assert bar_generator([]).degree == 0


def test_bar_differential_frozen_cases():
    z4 = Group((4,))
    h = z4.generator(0)
    one4 = unit(z4)
    d = bar_differential(single(bar_generator([h, h ** 2]), one4))
    assert d.terms == {
        bar_generator([h ** 2]): GroupRingElement.unit(h),
        bar_generator([h ** 3]): one4 * -1,
        bar_generator([h]): one4,
    }

    z2 = Group((2,))
    g = z2.generator(0)
    one2 = unit(z2)
    # [g|g] hits [g^2] = [1] which collapses to zero in the normalized complex
    d2 = bar_differential(single(bar_generator([g, g]), one2))
    assert d2.terms == {bar_generator([g]): one2 + GroupRingElement.unit(g)}

    d1 = bar_differential(single(bar_generator([g]), one2))
    assert d1.terms == {BarGenerator(()): GroupRingElement.unit(g) - one2}


def test_tensor_differential_frozen_cases():
    group = Group((2, 2))
    one = unit(group)
    d = tensor_differential(single(phi((1, 1)), one))
    t1 = t_element(group, 0)
    t2 = t_element(group, 1)
    assert d.terms == {phi((0, 1)): t1, phi((1, 0)): t2 * -1}

    z4 = Group((4,))
    d_even = tensor_differential(single(phi((2,)), unit(z4)))
    assert d_even.terms == {phi((1,)): norm_element(z4, 0)}
    d_odd = tensor_differential(single(phi((1,)), unit(z4)))
    assert d_odd.terms == {phi((0,)): t_element(z4, 0)}


def test_differential_degree_guards():
    group = Group((2,))
    g = group.generator(0)
    with pytest.raises(ValueError):
        bar_differential(single(bar_generator([g] * 4), unit(group)))
    with pytest.raises(ValueError):
        tensor_differential(single(phi((5,)), unit(group)))


def small_group_list(bound):
    out = []
    def extend(prefix, remaining):
        if prefix:
            out.append(tuple(prefix))
        for m in range(2, remaining + 1):
            extend(prefix + [m], remaining // m)
    extend([], bound)
    return out


def test_tensor_differential_squares_to_zero():
    # degrees 4 down to 2, every generator, every group of order up to 16
    for orders in small_group_list(16):
        group = Group(orders)
        n = group.rank
        one = unit(group)
        for degree in (2, 3, 4):
            for index in itertools.product(range(degree + 1), repeat=n):
                if sum(index) != degree:
                    continue
                dd = tensor_differential(tensor_differential(single(phi(index), one)))
                assert not dd, (orders, index)


def test_bar_differential_squares_to_zero():
    # d d = 0 on every degree-2 and degree-3 generator of every group of order
    # up to 16, on the face arrays: each face of d x is pushed through its own
    # faces and the terms are summed by key
    for orders in small_group_list(16):
        mul = Group(orders).mul_table()
        N = len(mul)
        K = N - 1
        for n in (2, 3):
            outer = complexes._bar_faces(mul, K, n, np.arange(K ** n))
            inner = complexes._bar_faces(mul, K, n - 1, np.arange(K ** (n - 1)))
            terms = complexes._compose(mul, outer, outer.t, inner,
                                       complexes._offsets(inner.rows, K ** (n - 1)))
            assert len(terms.v) and not len(complexes._collect(terms, K ** (n - 2), N).v), (
                orders, n)
    # and through the public bar_differential on four small groups
    for orders in ((2,), (3,), (2, 2), (4,)):
        group = Group(orders)
        one = unit(group)
        nontrivial = [x for x in group.elements() if not x.is_identity()]
        for h1, h2 in itertools.product(nontrivial, repeat=2):
            assert not bar_differential(
                bar_differential(single(bar_generator([h1, h2]), one)))
        for h1, h2, h3 in itertools.product(nontrivial, repeat=3):
            assert not bar_differential(
                bar_differential(single(bar_generator([h1, h2, h3]), one)))


def test_chain_map_frozen_values():
    z2 = Group((2,))
    g = z2.generator(0)
    one2 = unit(z2)
    assert chain_map(z2, bar_generator([g])).terms == {phi((1,)): one2}
    assert chain_map(z2, bar_generator([g, g])).terms == {phi((2,)): one2}
    assert chain_map(z2, bar_generator([g, g, g])).terms == {phi((3,)): one2}

    z4 = Group((4,))
    h = z4.generator(0)
    f1 = chain_map(z4, bar_generator([h ** 2]))
    assert f1.terms == {phi((1,)): unit(z4) + GroupRingElement.unit(h)}
    f2 = chain_map(z4, bar_generator([h ** 2, h ** 3]))
    assert f2.terms == {phi((2,)): unit(z4)}

    # degree 0: [] goes to Phi(0, .., 0); nothing is defined above degree 3
    z42 = Group((4, 2))
    assert chain_map(z42, BarGenerator(())).terms == {phi((0, 0)): unit(z42)}
    with pytest.raises(ValueError):
        chain_map(z2, bar_generator([g] * 4))


def test_chain_map_linear_extension():
    group = Group((4,))
    h = group.generator(0)
    v = ChainVector(group)
    v.add_term(bar_generator([h]), GroupRingElement.unit(h, 2))
    v.add_term(bar_generator([h ** 2]), unit(group) * -1)
    image = apply_chain_map(group, v)
    expected = chain_map(group, bar_generator([h])).scaled(
        GroupRingElement.unit(h, 2)) - chain_map(group, bar_generator([h ** 2]))
    assert image == expected


def test_chain_map_commutes_with_differentials_small_groups():
    for orders in small_group_list(12):
        failures = verify_chain_map(Group(orders))
        assert failures == {1: None, 2: None, 3: None}, orders


def test_chain_map_commutes_order_sixteen_spots():
    for orders in ((16,), (4, 4), (2, 8), (4, 2, 2)):
        failures = verify_chain_map(Group(orders))
        assert failures == {1: None, 2: None, 3: None}, orders


def test_chain_map_check_size_guard():
    # refused before any work when |G|^4 is above max_cells; the order-16
    # groups above are inside the default bound
    with pytest.raises(ValueError, match="above the 1000000 bound"):
        verify_chain_map(Group((2, 2, 2, 2, 2)))
    with pytest.raises(ValueError, match="above the 15 bound"):
        verify_chain_map(Group((2,)), max_cells=15)
    assert verify_chain_map(Group((2,)), max_cells=16) == {1: None, 2: None, 3: None}


@pytest.mark.parametrize("orders, k, first", [
    ((2, 2), 1, [(0, 1)]),
    ((2, 2), 2, [(0, 1)] * 2),
    ((2, 2), 3, [(0, 1)] * 3),
    ((4, 4), 3, [(0, 1), (0, 1), (0, 3)]),
    ((4, 3), 2, [(0, 1), (0, 2)]),
    ((4, 3), 3, [(0, 1), (0, 1), (0, 2)]),
], ids=["1", "2", "3", "Z4^2-3", "Z4xZ3-2", "Z4xZ3-3"])
def test_chain_map_check_reports_first_failure(monkeypatch, orders, k, first):
    # with s_T replaced by zero on degree k - 1, phi_k vanishes and the square
    # in degree k fails, first at the lexicographically least generator whose
    # phi_(k-1)(d x) is nonzero; the degrees above lift the zero map and
    # commute again.  The patch sits on the index-level homotopy that the
    # recursion calls; chains there are dicts keyed on exponent tuples.
    group = Group(orders)
    real_contract = complexes._contract_tensor

    def broken(shape, v):
        if any(sum(gen) == k - 1 for gen in v):
            return {}
        return real_contract(shape, v)
    monkeypatch.setattr(complexes, "_contract_tensor", broken)
    failures = verify_chain_map(group)
    first = BarGenerator(tuple(group.element(e) for e in first))
    assert failures == {deg: first if deg == k else None for deg in (1, 2, 3)}


def dict_check(group, to_bar):
    """The square check as the dict recursion _Map.first_failures runs it."""
    def generators(deg):
        if to_bar:
            return (index for index in itertools.product(range(deg + 1), repeat=group.rank)
                    if sum(index) == deg)
        return itertools.product(range(1, group.order), repeat=deg)
    return complexes._Map(complexes._shape(group.orders), to_bar).first_failures(generators)


def zero_on_degree(real, degree, size):
    """real, except that it returns zero on chains of the given degree."""
    def broken(shape, v):
        if any(size(gen) == degree for gen in v):
            return {}
        return real(shape, v)
    return broken


AB_GROUPS = small_group_list(12) + [(16,), (4, 4), (2, 8), (4, 2, 2)]


@pytest.mark.parametrize("orders", AB_GROUPS, ids=map(str, AB_GROUPS))
def test_square_check_matches_dict_check(monkeypatch, orders):
    # the array check against the per-generator dict check, both directions,
    # as written and with each homotopy zeroed on one degree
    group = Group(orders)
    assert verify_chain_map(group) == dict_check(group, False), orders
    assert verify_tensor_to_bar(group) == dict_check(group, True), orders
    for k in (1, 2, 3):
        with monkeypatch.context() as patch:
            patch.setattr(complexes, "_contract_tensor",
                          zero_on_degree(complexes._contract_tensor, k - 1, sum))
            assert verify_chain_map(group) == dict_check(group, False), (orders, k)
        with monkeypatch.context() as patch:
            patch.setattr(complexes, "_contract", zero_on_degree(complexes._contract, k - 1, len))
            assert verify_tensor_to_bar(group) == dict_check(group, True), (orders, k)


@pytest.mark.parametrize("orders", [(2,), (3,), (2, 2)], ids=["Z2", "Z3", "Z2^2"])
def test_square_check_exact_past_int64(monkeypatch, orders):
    # homotopies scaled by 2^40 push the lifted coefficients past 2^63 by
    # degree 3, so the sums run on Python ints; every square fails, and the
    # array check names the same generators as the dict check
    def scaled(real):
        def homotopy(shape, v):
            return {gen: {g: c << 40 for g, c in coeff.items()}
                    for gen, coeff in real(shape, v).items()}
        return homotopy
    group = Group(orders)
    monkeypatch.setattr(complexes, "_contract_tensor", scaled(complexes._contract_tensor))
    monkeypatch.setattr(complexes, "_contract", scaled(complexes._contract))
    for to_bar, check in ((False, verify_chain_map), (True, verify_tensor_to_bar)):
        failures = check(group)
        assert failures == dict_check(group, to_bar), (orders, to_bar)
        assert None not in failures.values()


def test_bar_faces_are_the_bar_differential():
    # the face arrays, summed term by term, against the dict kernel on every
    # generator of degrees 1..3 of every group up to order 16
    for orders in small_group_list(16):
        shape = complexes._shape(orders)
        side = complexes._BarSide(shape)
        for n in (1, 2, 3):
            faces = side.faces(n, np.arange(side.count(n)))
            got = [{} for _ in range(side.count(n))]
            for row, t, h, v in zip(*(a.tolist() for a in faces[:4])):
                coeff = got[row].setdefault(side.symbol(n - 1, t), {})
                coeff[h] = coeff.get(h, 0) + v
                if not coeff[h]:
                    del coeff[h]
            for i, chain in enumerate(got):
                chain = {gen: coeff for gen, coeff in chain.items() if coeff}
                assert chain == complexes._bar_differential(shape, {side.symbol(n, i): {0: 1}}), (
                    orders, n, i)


def chain_map_digest(group):
    """sha256 of the canonically sorted chain_map images in degrees 1..3."""
    nonid = [x for x in group.elements() if not x.is_identity()]
    h = hashlib.sha256()
    for deg in (1, 2, 3):
        for elems in itertools.product(nonid, repeat=deg):
            image = chain_map(group, BarGenerator(elems))
            terms = sorted((gen.index, sorted((g.exps, c) for g, c in coeff.terms.items()))
                           for gen, coeff in image.terms.items())
            h.update(repr((tuple(e.exps for e in elems), terms)).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("orders, digest", [
    ((4, 2), "3938884c91119d5566c0c0350c44dd57459db6a9b3c231704e7e397d6d7c20c2"),
    ((2, 2, 2), "14b3407e0f73b7f6a5e51f2541b0fe93f2c65cbb5762383c1dc44a00a97de19b"),
], ids=["Z4xZ2", "Z2^3"])
def test_chain_map_images_pinned(orders, digest):
    # every image in degrees 1..3, term for term, as the hand-written
    # formulas for the paper's explicit phi_1, phi_2, phi_3 gave them
    assert chain_map_digest(Group(orders)) == digest


def test_pullback_reproduces_canonical_tables():
    for orders in ((2,), (4,), (2, 2), (4, 2), (3, 3)):
        group = Group(orders)
        for a in enumerate_params(group):
            f = representative_cochain(a)
            assert pullback_3cochain(f, group) == build_table(a), (orders, a)


def test_pullback_rank_three_spots():
    group = Group((2, 2, 2))
    picks = [
        CocycleParams(group, (0, 0, 0), (0, 0, 0), (0,)),
        CocycleParams(group, (0, 0, 0), (0, 0, 0), (1,)),
        CocycleParams(group, (1, 0, 1), (0, 1, 0), (1,)),
        CocycleParams(group, (1, 1, 1), (1, 1, 1), (1,)),
    ]
    for a in picks:
        f = representative_cochain(a)
        assert pullback_3cochain(f, group) == build_table(a), a


@pytest.mark.parametrize("orders", [(4, 2), (3, 3), (2, 2, 2)],
                         ids=["Z4xZ2", "Z3^2", "Z2^3"])
def test_pullback_matches_augmented_chain_map(orders):
    # the pullback by its definition: every cell sums the cochain over the
    # augmented coefficients of chain_map, on random cochains with ijj set
    group = Group(orders)
    n = group.rank
    images = [{} if gen is None else
              {t.index: c.augmentation() for t, c in chain_map(group, gen).terms.items()}
              for gen in (bar_generator(c) for c in
                          itertools.product(group.elements(), repeat=3))]
    rng = random.Random(str(orders))

    def roots(count, low=0):
        return [Root.of(rng.randrange(low, 12), 12) for _ in range(count)]

    pairs = len(pair_indices(n))
    for _ in range(3):
        f = TensorCochain3(group, roots(n), roots(pairs), roots(pairs, low=1),
                           roots(len(triple_indices(n))))
        expected = CocycleTable(group, [
            Root(sum((m * f.value(index).exponent for index, m in image.items()),
                     Fraction(0)))
            for image in images])
        assert pullback_3cochain(f, group) == expected, f


def test_pullback_cell_guard():
    group = Group((4, 2))
    a = enumerate_params(group)[0]
    with pytest.raises(ValueError):
        pullback_3cochain(representative_cochain(a), group, max_cells=10)
    # the cochain's numerators are read in the slot order of its own group
    with pytest.raises(ValueError, match="different group"):
        pullback_3cochain(representative_cochain(a), Group((2, 4)))


def test_contracting_homotopy_frozen_values():
    group = Group((4,))
    h = group.generator(0)
    v = ChainVector(group)
    v.add_term(bar_generator([h]), GroupRingElement(group, {h ** 2: 3,
                                                            group.identity(): 5}))
    # the identity part of a coefficient collapses to the normalized zero
    assert contract(v).terms == {bar_generator([h ** 2, h]): unit(group) * 3}


def test_tensor_contracting_homotopy_frozen_values():
    def s(group, index, g):
        return contract_tensor(single(phi(index), GroupRingElement.unit(g))).terms

    z4 = Group((4,))
    h = z4.generator(0)
    assert s(z4, (0,), h ** 2) == {phi((1,)): unit(z4) + GroupRingElement.unit(h)}
    assert s(z4, (1,), h ** 3) == {phi((2,)): unit(z4)}
    assert s(z4, (1,), h) == {}

    group = Group((2, 2))
    g1, g2 = group.generator(0), group.generator(1)
    assert s(group, (1, 0), g1) == {phi((2, 0)): unit(group)}
    # factor 1 acts past the odd factor 0, hence the sign
    assert s(group, (1, 0), g2) == {phi((1, 1)): unit(group) * -1}
    # factor 0 keeps its digit below the acting factor 1
    assert s(group, (0, 1), g1 * g2) == {phi((0, 2)): GroupRingElement.unit(g1)}


@pytest.mark.parametrize("side", ["bar", "tensor"])
@pytest.mark.parametrize("orders", [(4, 2), (3, 3), (2, 2, 2)],
                         ids=["Z4xZ2", "Z3^2", "Z2^3"])
def test_contracting_homotopy_identity(orders, side):
    # d s + s d = id - eta eps on g x, for every group element g and every
    # generator x; the bar side stops at degree 2, where d s reaches the
    # degree-3 end of bar_differential
    group = Group(orders)
    if side == "bar":
        nonid = [x for x in group.elements() if not x.is_identity()]
        s, d, base, top = contract, bar_differential, BarGenerator(()), 2

        def generators(deg):
            return map(BarGenerator, itertools.product(nonid, repeat=deg))
    else:
        s, d, base, top = contract_tensor, tensor_differential, phi((0,) * group.rank), 3

        def generators(deg):
            return (phi(index)
                    for index in itertools.product(range(deg + 1), repeat=group.rank)
                    if sum(index) == deg)
    for deg in range(top + 1):
        for gen in generators(deg):
            for g in group.elements():
                x = single(gen, GroupRingElement.unit(g))
                if deg == 0:
                    assert d(s(x)) == x - single(base, unit(group)), (gen, g)
                else:
                    assert d(s(x)) + s(d(x)) == x, (gen, g)


@pytest.mark.parametrize("orders", [(4, 2), (2, 2, 2)], ids=["Z4xZ2", "Z2^3"])
def test_phi3_contracts_the_left_translate(orders):
    # s_T kills phi_2 of the last three terms of d_B[x|y|z], so
    # phi_3[x|y|z] = s_T(x phi_2[y|z]) (the derivation in notes/decisions.md)
    group = Group(orders)
    nonid = [x for x in group.elements() if not x.is_identity()]
    for x, y, z in itertools.product(nonid, repeat=3):
        translate = chain_map(group, BarGenerator((y, z))).scaled(GroupRingElement.unit(x))
        assert chain_map(group, BarGenerator((x, y, z))) == contract_tensor(translate)


def test_tensor_to_bar_frozen_values():
    z2 = Group((2,))
    g = z2.generator(0)
    one2 = unit(z2)
    assert tensor_to_bar(z2, phi((0,))).terms == {BarGenerator(()): one2}
    assert tensor_to_bar(z2, phi((1,))).terms == {bar_generator([g]): one2}
    assert tensor_to_bar(z2, phi((2,))).terms == {bar_generator([g, g]): one2}
    assert tensor_to_bar(z2, phi((3,))).terms == {bar_generator([g, g, g]): one2}

    group = Group((2, 2))
    g1, g2 = group.generator(0), group.generator(1)
    one = unit(group)
    assert tensor_to_bar(group, phi((1, 1))).terms == {
        bar_generator([g1, g2]): one, bar_generator([g2, g1]): one * -1}
    with pytest.raises(ValueError):
        tensor_to_bar(z2, phi((4,)))


def test_tensor_to_bar_commutes_with_differentials():
    # the groups of acceptance criterion 3, and the order-16 spots
    for orders in ((2,), (4,), (2, 2), (4, 3), (2, 2, 2),
                   (16,), (4, 4), (4, 2, 2), (2, 2, 2, 2)):
        failures = verify_tensor_to_bar(Group(orders))
        assert failures == {1: None, 2: None, 3: None}, orders


def test_tensor_to_bar_check_reports_first_failure(monkeypatch):
    # with s replaced by zero, psi vanishes above degree 0 and only the
    # degree-1 square fails, first at the lexicographically least index
    monkeypatch.setattr(complexes, "_contract", lambda shape, v: {})
    failures = verify_tensor_to_bar(Group((2, 2)))
    assert failures == {1: phi((0, 1)), 2: None, 3: None}


@pytest.mark.parametrize("orders", [(2, 2), (4, 2), (4, 4)], ids=["Z2^2", "Z4xZ2", "Z4^2"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_tensor_to_bar_check_reports_first_failure_by_degree(monkeypatch, orders, k):
    # with s replaced by zero on bar chains of degree k - 1, psi_k vanishes
    # and the square in degree k fails, first at Phi(0, k), the least index
    # of degree k; the degrees above lift the zero map and commute again
    real_contract = complexes._contract

    def broken(shape, v):
        if any(len(gen) == k - 1 for gen in v):
            return {}
        return real_contract(shape, v)
    monkeypatch.setattr(complexes, "_contract", broken)
    failures = verify_tensor_to_bar(Group(orders))
    assert failures == {deg: phi((0, k)) if deg == k else None for deg in (1, 2, 3)}


def test_tensor_to_bar_cells_flatten_the_images():
    group = Group((4, 2))
    N = group.order
    cells = tensor_to_bar_cells(group.orders)
    indices = degree3_indices(group.rank)
    assert len(cells) == len(indices)
    for index, flat in zip(indices, cells):
        image = tensor_to_bar(group, TensorGenerator(index))
        expected = {}
        for gen, coeff in image.terms.items():
            x, y, z = (group.element_index(e) for e in gen.elems)
            expected[(x * N + y) * N + z] = coeff.augmentation()
        assert dict(flat) == expected, index


@pytest.mark.parametrize("orders", [(3,), (2, 2), (4, 2), (2, 2, 2)],
                         ids=["Z3", "Z2^2", "Z4xZ2", "Z2^3"])
def test_bar_boundary_cells_are_the_augmented_boundary(orders):
    # the oracle is the row builder of the bar coboundary system as it was
    # written on the public bar_differential
    group = Group(orders)
    nonid = group.elements()[1:]
    col = {pair: k for k, pair in enumerate(itertools.product(nonid, repeat=2))}
    expected = []
    for triple in itertools.product(nonid, repeat=3):
        d = bar_differential(single(BarGenerator(triple), unit(group)))
        expected.append(sorted((col[gen.elems], c.augmentation())
                               for gen, c in d.terms.items()))
    assert [list(cells) for cells in complexes.bar_boundary_cells(orders)] == expected


@pytest.mark.parametrize("orders, digest", [
    ((4, 3), "5ae4d4e22ddcb5a6f8dce3d07ea891e338ff67fa34f0cac5016a47e7dabf2818"),
    ((2, 2, 2, 2), "320413a502765d3dec7f2fef1fea063f18f7e7956cb25bd4c59d9ce62f3e087f"),
], ids=["Z4xZ3", "Z2^4"])
def test_tensor_to_bar_cells_pinned(orders, digest):
    # psi_3 as (cell, multiplicity) lists, as the GroupElement-keyed
    # recursion gave them
    assert hashlib.sha256(repr(tensor_to_bar_cells(orders)).encode()).hexdigest() == digest
