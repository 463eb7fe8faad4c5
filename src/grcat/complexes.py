"""Chain complexes over the group ring, and the comparison maps between them.

Two resolutions of the trivial module live here: the normalized bar complex,
whose degree-m generators are m-tuples of non-identity group elements, and
the Koszul-like tensor complex built from one periodic strand per cyclic
factor.  The degree 1..3 comparison maps from the bar side to the tensor
side turn small-complex cochains into explicit functions on G^3; the maps
back, built with the bar complex's contracting homotopy, turn functions on
G^3 into small-complex cochains.  Both come with a machine check that they
commute with the differentials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .cocycles import (CocycleTable, _common_denominator, _phi3_exponents,
                       pair_indices, triple_indices)
from .groups import Group, GroupElement


class GroupRingElement:
    """Finite integer combination of group elements."""

    __slots__ = ("group", "terms")

    def __init__(self, group: Group, terms=None):
        self.group = group
        pruned = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for g, c in items:
                if c:
                    acc = pruned.get(g, 0) + c
                    if acc:
                        pruned[g] = acc
                    elif g in pruned:
                        del pruned[g]
        self.terms = pruned

    @staticmethod
    def zero(group):
        return GroupRingElement(group)

    @staticmethod
    def unit(g, c=1):
        return GroupRingElement(g.group, {g: c})

    def __add__(self, other):
        merged = dict(self.terms)
        for g, c in other.terms.items():
            acc = merged.get(g, 0) + c
            if acc:
                merged[g] = acc
            else:
                del merged[g]
        out = GroupRingElement(self.group)
        out.terms = merged
        return out

    def __neg__(self):
        out = GroupRingElement(self.group)
        out.terms = {g: -c for g, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            out = GroupRingElement(self.group)
            if other:
                out.terms = {g: c * other for g, c in self.terms.items()}
            return out
        if isinstance(other, GroupElement):
            out = GroupRingElement(self.group)
            out.terms = {g * other: c for g, c in self.terms.items()}
            return out
        if isinstance(other, GroupRingElement):
            acc = {}
            for g1, c1 in self.terms.items():
                for g2, c2 in other.terms.items():
                    g = g1 * g2
                    s = acc.get(g, 0) + c1 * c2
                    if s:
                        acc[g] = s
                    elif g in acc:
                        del acc[g]
            out = GroupRingElement(self.group)
            out.terms = acc
            return out
        return NotImplemented

    __rmul__ = __mul__

    def augmentation(self) -> int:
        """Sum of coefficients (the image under ZG -> Z)."""
        return sum(self.terms.values())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{g!r}" for g, c in sorted(
            self.terms.items(), key=lambda t: t[0].exps))


def t_element(group, i):
    """g_i - 1, the twist coefficient of the periodic strand."""
    return GroupRingElement(group, {group.generator(i): 1, group.identity(): -1})


def norm_element(group, i):
    """1 + g_i + ... + g_i^(m_i - 1), the norm coefficient."""
    gi = group.generator(i)
    return GroupRingElement(group, {gi ** k: 1 for k in range(group.orders[i])})


@dataclass(frozen=True)
class BarGenerator:
    """[h_1 | ... | h_m]; in the normalized complex no h is the identity."""

    elems: tuple

    @property
    def degree(self):
        return len(self.elems)


def bar_generator(elems):
    """Canonical form of a bar symbol; None is the collapsed zero."""
    elems = tuple(elems)
    if any(e.is_identity() for e in elems):
        return None
    return BarGenerator(elems)


@dataclass(frozen=True)
class TensorGenerator:
    """Free generator of the tensor complex, one exponent per cyclic factor."""

    index: tuple

    @property
    def degree(self):
        return sum(self.index)


def phi(index):
    return TensorGenerator(tuple(index))


def _phi_at(n, *positions):
    idx = [0] * n
    for p in positions:
        idx[p] += 1
    return TensorGenerator(tuple(idx))


def degree3_indices(n):
    """The degree-3 multi-indices in the order diag, iij, ijj, rst.

    diag has 3 in one slot; iij and ijj follow the lexicographic pairs
    i < j with (2 in i, 1 in j) resp. (1 in i, 2 in j); rst follows the
    lexicographic triples.
    """
    return ([_phi_at(n, l, l, l).index for l in range(n)]
            + [_phi_at(n, i, i, j).index for i, j in pair_indices(n)]
            + [_phi_at(n, i, j, j).index for i, j in pair_indices(n)]
            + [_phi_at(n, r, s, t).index for r, s, t in triple_indices(n)])


class ChainVector:
    """Formal sum of generators of one complex with group ring coefficients."""

    __slots__ = ("group", "terms")

    def __init__(self, group):
        self.group = group
        self.terms = {}

    def add_term(self, gen, coeff):
        # gen None: the normalized-zero symbol; contributes nothing
        if gen is None or not coeff:
            return
        acc = self.terms.get(gen)
        s = coeff if acc is None else acc + coeff
        if s:
            self.terms[gen] = s
        else:
            del self.terms[gen]

    def __add__(self, other):
        out = ChainVector(self.group)
        out.terms = dict(self.terms)
        for gen, c in other.terms.items():
            out.add_term(gen, c)
        return out

    def __sub__(self, other):
        out = ChainVector(self.group)
        out.terms = dict(self.terms)
        for gen, c in other.terms.items():
            out.add_term(gen, -c)
        return out

    def scaled(self, coeff):
        out = ChainVector(self.group)
        for gen, c in self.terms.items():
            out.add_term(gen, coeff * c)
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, ChainVector) and self.terms == other.terms

    def __repr__(self):
        return f"ChainVector({self.terms!r})"


def single(gen, coeff):
    group = coeff.group
    v = ChainVector(group)
    v.add_term(gen, coeff)
    return v


def bar_differential(v: ChainVector) -> ChainVector:
    """Boundary of the normalized bar complex, degrees 1 to 3."""
    out = ChainVector(v.group)
    for gen, c in v.terms.items():
        m = gen.degree
        if not 1 <= m <= 3:
            raise ValueError(f"bar differential defined in degrees 1..3, got {m}")
        h = gen.elems
        out.add_term(bar_generator(h[1:]), h[0] * c)
        sign = 1
        for i in range(1, m):
            sign = -sign
            merged = h[: i - 1] + (h[i - 1] * h[i],) + h[i + 1:]
            out.add_term(bar_generator(merged), c * sign)
        out.add_term(bar_generator(h[:-1]), c * (1 if m % 2 == 0 else -1))
    return out


def tensor_differential(v: ChainVector) -> ChainVector:
    """Sum of the per-factor differentials: twist on odd, norm on even exponents."""
    out = ChainVector(v.group)
    group = v.group
    for gen, c in v.terms.items():
        if gen.degree > 4:
            raise ValueError("tensor differential capped at degree 4")
        a = gen.index
        sign = 1
        for i, ai in enumerate(a):
            if ai:
                op = t_element(group, i) if ai % 2 else norm_element(group, i)
                lowered = a[:i] + (ai - 1,) + a[i + 1:]
                out.add_term(TensorGenerator(lowered), (op * c) * sign)
            if ai % 2:
                sign = -sign
    return out


def _unit(group, parts, digits, sign=1):
    """sign times one group element, as a group ring element.

    Its exponent in factor l is the sum of v[l] over the (v, cut) in parts
    with l < cut, plus digits.get(l, 0).
    """
    exps = [0] * group.rank
    for v, cut in parts:
        for l in range(cut):
            exps[l] += v[l]
    for l, d in digits.items():
        exps[l] += d
    return GroupRingElement.unit(GroupElement(group, tuple(exps)), sign)


def _f1(group, gen):
    i = gen.elems[0].exps
    n = group.rank
    out = ChainVector(group)
    for s in range(n):
        for alpha in range(i[s]):
            out.add_term(_phi_at(n, s), _unit(group, [(i, s)], {s: alpha}))
    return out


def _f2(group, gen):
    i, j = (e.exps for e in gen.elems)
    n = group.rank
    out = ChainVector(group)
    for s in range(n):
        if i[s] + j[s] >= group.orders[s]:
            out.add_term(_phi_at(n, s, s), _unit(group, [(i, s), (j, s)], {}))
    for s, t in pair_indices(n):
        for alpha in range(j[s]):
            for beta in range(i[t]):
                out.add_term(_phi_at(n, s, t),
                             _unit(group, [(i, t), (j, s)], {s: alpha, t: beta}, -1))
    return out


def _f3(group, gen):
    i, j, k = (e.exps for e in gen.elems)
    n = group.rank
    orders = group.orders
    out = ChainVector(group)
    for r in range(n):
        if j[r] + k[r] >= orders[r]:
            for beta in range(i[r]):
                out.add_term(_phi_at(n, r, r, r),
                             _unit(group, [(j, r), (k, r), (i, r)], {r: beta}))
    for r, t in pair_indices(n):
        if j[r] + k[r] >= orders[r]:
            for beta in range(i[t]):
                out.add_term(_phi_at(n, r, r, t),
                             _unit(group, [(j, r), (k, r), (i, t)], {t: beta}))
    for r, t in pair_indices(n):
        if i[t] + j[t] >= orders[t]:
            for gamma in range(k[r]):
                out.add_term(_phi_at(n, r, t, t),
                             _unit(group, [(i, t), (j, t), (k, r)], {r: gamma}))
    for r, s, t in triple_indices(n):
        for beta in range(i[t]):
            for alpha in range(j[s]):
                for gamma in range(k[r]):
                    digits = {t: beta, s: alpha, r: gamma}
                    out.add_term(_phi_at(n, r, s, t),
                                 _unit(group, [(i, t), (j, s), (k, r)], digits, -1))
    return out


def chain_map(group: Group, gen: BarGenerator) -> ChainVector:
    """Image of a normalized bar generator in the tensor complex, degree 1..3."""
    if gen.degree == 1:
        return _f1(group, gen)
    if gen.degree == 2:
        return _f2(group, gen)
    if gen.degree == 3:
        return _f3(group, gen)
    raise ValueError(f"comparison map defined in degrees 1..3, got {gen.degree}")


def apply_chain_map(group, bar_vector: ChainVector) -> ChainVector:
    """Extend the comparison map linearly over group ring coefficients."""
    out = ChainVector(group)
    for gen, c in bar_vector.terms.items():
        image = chain_map(group, gen)
        for tgen, tc in image.terms.items():
            out.add_term(tgen, c * tc)
    return out


def _nonidentity(group):
    return [x for x in group.elements() if not x.is_identity()]


def verify_chain_map(group: Group):
    """Check commutation with the differentials degree by degree.

    Returns {1: None|gen, 2: None|gen, 3: None|gen}, the value being the
    first bar generator (lexicographic) where the square fails.
    """
    n = group.rank
    nonid = _nonidentity(group)
    results = {}

    phi0 = TensorGenerator((0,) * n)
    one = GroupRingElement.unit(group.identity())
    fail = None
    for x in nonid:
        gen = BarGenerator((x,))
        lhs = tensor_differential(apply_chain_map(group, single(gen, one)))
        # the degree-0 map sends [] to Phi(0,..,0) with the same coefficient
        boundary = bar_differential(single(gen, one))
        rhs = ChainVector(group)
        for bgen, c in boundary.terms.items():
            assert bgen.degree == 0
            rhs.add_term(phi0, c)
        if lhs != rhs:
            fail = gen
            break
    results[1] = fail

    for deg in (2, 3):
        fail = None
        for combo in itertools.product(nonid, repeat=deg):
            gen = BarGenerator(combo)
            lhs = tensor_differential(apply_chain_map(group, single(gen, one)))
            rhs = apply_chain_map(group, bar_differential(single(gen, one)))
            if lhs != rhs:
                fail = gen
                break
        results[deg] = fail
    return results


def contract(v: ChainVector) -> ChainVector:
    """The bar complex's contracting homotopy s(g[h_1|...|h_m]) = [g|h_1|...|h_m].

    s is Z-linear, not G-linear: each group element of a coefficient moves
    into the symbol, and the identity gives the collapsed zero.  On the
    normalized complex d s + s d is the identity in positive degrees.
    """
    group = v.group
    one = GroupRingElement.unit(group.identity())
    out = ChainVector(group)
    for gen, coeff in v.terms.items():
        for g, c in coeff.terms.items():
            out.add_term(bar_generator((g,) + gen.elems), one * c)
    return out


def tensor_to_bar(group: Group, gen: TensorGenerator) -> ChainVector:
    """Image of a tensor generator in the normalized bar complex, degree 0..3.

    psi_0(Phi_0) = [] and psi_n(Phi) = s(psi_(n-1)(d_T Phi)), with s the
    contracting homotopy; d_B s + s d_B = id makes this a chain map.
    """
    one = GroupRingElement.unit(group.identity())
    if gen.degree == 0:
        return single(BarGenerator(()), one)
    if gen.degree > 3:
        raise ValueError(f"comparison map defined in degrees 0..3, got {gen.degree}")
    return contract(apply_tensor_to_bar(group, tensor_differential(single(gen, one))))


def apply_tensor_to_bar(group, tensor_vector: ChainVector) -> ChainVector:
    """Extend tensor_to_bar linearly over group ring coefficients."""
    out = ChainVector(group)
    for gen, c in tensor_vector.terms.items():
        for bgen, bc in tensor_to_bar(group, gen).terms.items():
            out.add_term(bgen, c * bc)
    return out


def verify_tensor_to_bar(group: Group):
    """Check d_B psi = psi d_T on every tensor generator of degree 1..3.

    Returns {1: None|gen, 2: None|gen, 3: None|gen}, the value being the
    first tensor generator (lexicographic in its index) where the square
    fails.
    """
    n = group.rank
    one = GroupRingElement.unit(group.identity())
    results = {}
    for deg in (1, 2, 3):
        fail = None
        for index in itertools.product(range(deg + 1), repeat=n):
            if sum(index) != deg:
                continue
            gen = TensorGenerator(index)
            lhs = bar_differential(tensor_to_bar(group, gen))
            rhs = apply_tensor_to_bar(group, tensor_differential(single(gen, one)))
            if lhs != rhs:
                fail = gen
                break
        results[deg] = fail
    return results


@lru_cache(maxsize=32)
def tensor_to_bar_cells(orders: tuple):
    """psi_3 of the degree-3 tensor generators, as integer lists per group shape.

    One tuple per generator in degree3_indices order, holding (cell,
    multiplicity) pairs: the cell is the index of [x|y|z] in the G^3 layout
    of CocycleTable, the multiplicity the augmentation of its coefficient.
    """
    group = Group(orders)
    N = group.order
    out = []
    for index in degree3_indices(group.rank):
        cells = []
        for bgen, coeff in tensor_to_bar(group, TensorGenerator(index)).terms.items():
            x, y, z = (group.element_index(e) for e in bgen.elems)
            cells.append(((x * N + y) * N + z, coeff.augmentation()))
        out.append(tuple(sorted(cells)))
    return tuple(out)


def pullback_3cochain(f, group: Group, max_cells: int = 10 ** 6):
    """Compose a tensor 3-cochain with the degree-3 comparison map phi_3.

    f must expose value(index_tuple) -> Root on degree-3 multi-indices.
    Coefficients act through the augmentation since the values carry the
    trivial group action, so cell [x|y|z] takes the values of f weighted by
    the augmented coefficients of chain_map([x|y|z]).  Those multiplicities
    have a closed form in the digits and carries of x, y, z, which
    cocycles._phi3_exponents evaluates on all of G^3 over one common
    denominator (derived from _f3 in notes/decisions.md).  Returns the
    induced table on G^3.
    """
    size = group.order ** 3
    if size > max_cells:
        raise ValueError(f"table would need {size} cells, above the {max_cells} bound")
    L, nums = _common_denominator([f.value(index).exponent
                                   for index in degree3_indices(group.rank)])
    return CocycleTable._from_exponents(group, L, _phi3_exponents(group, nums, L))
