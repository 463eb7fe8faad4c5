"""Chain complexes over the group ring, and the comparison maps between them.

Two resolutions of the trivial module live here: the normalized bar complex,
whose degree-m generators are m-tuples of non-identity group elements, and
the Koszul-like tensor complex built from one periodic strand per cyclic
factor.  The degree 0..3 comparison maps from the bar side to the tensor
side turn small-complex cochains into explicit functions on G^3; the maps
back turn functions on G^3 into small-complex cochains.  One recursion
(_lift) builds both from the contracting homotopy of its target complex,
contract on the bar side and contract_tensor on the tensor side; one helper
(_extend) extends them linearly, and one square check (_first_failures)
certifies that each commutes with the differentials.  Group ring elements
and chain vectors share one formal-sum rule (_FormalSum).  The pullback
through phi_3 lives in cocycles; pullback_3cochain is re-exported here.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .cocycles import degree3_indices, pullback_3cochain
from .groups import Group, GroupElement


class _FormalSum:
    """Finite formal sum over one group: a dict from keys to nonzero coefficients."""

    __slots__ = ("group", "terms")

    def __init__(self, group: Group, terms=None):
        """Sum the (key, coefficient) pairs of terms, a dict or an iterable."""
        self.group = group
        self.terms = {}
        if terms:
            add = self.add_term
            for key, c in (terms.items() if isinstance(terms, dict) else terms):
                add(key, c)

    def add_term(self, key, coeff):
        """Add coeff at key; a key whose coefficients sum to zero is dropped."""
        acc = self.terms.get(key)
        s = coeff if acc is None else acc + coeff
        if s:
            self.terms[key] = s
        elif acc is not None:
            del self.terms[key]

    def __add__(self, other):
        out = type(self)(self.group)
        out.terms = dict(self.terms)
        add = out.add_term
        for key, c in other.terms.items():
            add(key, c)
        return out

    def __neg__(self):
        out = type(self)(self.group)
        out.terms = {key: -c for key, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.terms == other.terms


class GroupRingElement(_FormalSum):
    """Finite integer combination of group elements."""

    __slots__ = ()

    @staticmethod
    def zero(group):
        return GroupRingElement(group)

    @staticmethod
    def unit(g, c=1):
        return GroupRingElement(g.group, {g: c})

    def __mul__(self, other):
        # scaling by a nonzero int or translating by an element merges no terms
        out = GroupRingElement(self.group)
        if isinstance(other, int):
            if other:
                out.terms = {g: c * other for g, c in self.terms.items()}
        elif isinstance(other, GroupElement):
            out.terms = {g * other: c for g, c in self.terms.items()}
        elif isinstance(other, GroupRingElement):
            add = out.add_term
            for g1, c1 in self.terms.items():
                for g2, c2 in other.terms.items():
                    add(g1 * g2, c1 * c2)
        else:
            return NotImplemented
        return out

    __rmul__ = __mul__

    def augmentation(self) -> int:
        """Sum of coefficients (the image under ZG -> Z)."""
        return sum(self.terms.values())

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


class ChainVector(_FormalSum):
    """Formal sum of generators of one complex with group ring coefficients."""

    __slots__ = ()

    def add_term(self, gen, coeff):
        # gen None: the normalized-zero symbol; contributes nothing
        if gen is not None:
            _FormalSum.add_term(self, gen, coeff)

    def scaled(self, coeff):
        return ChainVector(self.group, ((gen, coeff * c) for gen, c in self.terms.items()))

    def __repr__(self):
        return f"ChainVector({self.terms!r})"


def single(gen, coeff):
    return ChainVector(coeff.group, ((gen, coeff),))


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


def _extend(image, v: ChainVector) -> ChainVector:
    """Extend a map given on generators (image) linearly over group ring coefficients."""
    out = ChainVector(v.group)
    for gen, c in v.terms.items():
        for tgen, tc in image(gen).terms.items():
            out.add_term(tgen, c * tc)
    return out


def apply_chain_map(group, bar_vector: ChainVector) -> ChainVector:
    """Extend the comparison map linearly over group ring coefficients."""
    return _extend(lambda gen: chain_map(group, gen), bar_vector)


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


def _strand_powers(a, e, m):
    """The k with g^k Phi_(a+1) a term of s(g^e Phi_a) on a strand of order m."""
    if a % 2 == 0:
        return range(e)
    return (0,) if e == m - 1 else ()


def contract_tensor(v: ChainVector) -> ChainVector:
    """The tensor complex's contracting homotopy s_T, Z-linear like contract.

    On one strand of order m, s(g^e Phi_a) = (1 + g + ... + g^(e-1)) Phi_(a+1)
    for even a, and for odd a it is Phi_(a+1) when e = m - 1 and 0
    otherwise.  On the product, factor l acts when every factor above it is
    in degree 0: from top, the last factor of nonzero degree, up to the
    last factor.  The factors below l keep their digits, those above drop
    theirs, and the sign is (-1)^(number of odd a_r with r < l).  Then
    d s + s d = id - eta eps, where eta eps(g Phi_0) = Phi_0.
    """
    group = v.group
    orders = group.orders
    n = group.rank
    out = ChainVector(group)
    for gen, coeff in v.terms.items():
        a = gen.index
        top = max((l for l in range(n) if a[l]), default=0)
        for l in range(top, n):
            sign = (-1) ** sum(ar % 2 for ar in a[:l])
            above = (0,) * (n - l - 1)
            terms = [(GroupElement(group, g.exps[:l] + (k,) + above), sign * c)
                     for g, c in coeff.terms.items()
                     for k in _strand_powers(a[l], g.exps[l], orders[l])]
            out.add_term(TensorGenerator(a[:l] + (a[l] + 1,) + a[l + 1:]),
                         GroupRingElement(group, terms))
    return out


def _lift(group, gen, base, contract, d_source, image):
    """A comparison map on one generator, built from a contracting homotopy.

    Degree 0 goes to base; in degrees 1..3 the image of gen is
    contract(image(d_source gen)), with image extended linearly.  When
    image commutes with the differentials below, image(d_source gen) is a
    cycle of augmentation 0, so d contract + contract d = id - eta eps makes
    the new square commute too (Brown, Cohomology of Groups, ch. I).
    """
    one = GroupRingElement.unit(group.identity())
    if gen.degree == 0:
        return single(base, one)
    if gen.degree > 3:
        raise ValueError(f"comparison map defined in degrees 0..3, got {gen.degree}")
    return contract(_extend(image, d_source(single(gen, one))))


def chain_map(group: Group, gen: BarGenerator) -> ChainVector:
    """Image of a normalized bar generator in the tensor complex, degree 0..3.

    phi_0([]) = Phi(0, .., 0) and phi_n(x) = s_T(phi_(n-1)(d_B x)), with s_T
    the tensor complex's contracting homotopy (contract_tensor).
    """
    return _lift(group, gen, TensorGenerator((0,) * group.rank), contract_tensor,
                 bar_differential, lambda g: chain_map(group, g))


def tensor_to_bar(group: Group, gen: TensorGenerator) -> ChainVector:
    """Image of a tensor generator in the normalized bar complex, degree 0..3.

    psi_0(Phi_0) = [] and psi_n(Phi) = s(psi_(n-1)(d_T Phi)), with s the bar
    complex's contracting homotopy (contract).
    """
    return _lift(group, gen, BarGenerator(()), contract, tensor_differential,
                 lambda g: tensor_to_bar(group, g))


def _first_failures(group, generators, base, contract, d_source, d_target):
    """The square check d_target(image(x)) == image(d_source(x)) in degrees 1..3.

    image is the map that _lift builds from base and contract, memoized
    here.  Since image(x) is contract(below) with below = image(d_source(x)),
    each square computes below once and compares d_target(contract(below))
    with it; only images below degree 3 are read, so only those are kept.
    generators(deg) lists the source generators of one degree in
    lexicographic order.  Returns {1: None|gen, 2: None|gen, 3: None|gen},
    the value being the first generator where the square fails.
    """
    one = GroupRingElement.unit(group.identity())

    @functools.cache
    def image(gen):
        return _lift(group, gen, base, contract, d_source, image)

    def fails(gen):
        below = _extend(image, d_source(single(gen, one)))
        return d_target(contract(below)) != below
    return {deg: next(filter(fails, generators(deg)), None) for deg in (1, 2, 3)}


def verify_chain_map(group: Group):
    """Check that phi commutes with the differentials, degree by degree.

    Returns {1: None|gen, 2: None|gen, 3: None|gen}, the value being the
    first bar generator (lexicographic) where the square fails.
    """
    nonid = [x for x in group.elements() if not x.is_identity()]
    return _first_failures(
        group, lambda deg: map(BarGenerator, itertools.product(nonid, repeat=deg)),
        TensorGenerator((0,) * group.rank), contract_tensor,
        bar_differential, tensor_differential)


def verify_tensor_to_bar(group: Group):
    """Check d_B psi = psi d_T on every tensor generator of degree 1..3.

    Returns {1: None|gen, 2: None|gen, 3: None|gen}, the value being the
    first tensor generator (lexicographic in its index) where the square
    fails.
    """
    def generators(deg):
        return (TensorGenerator(index)
                for index in itertools.product(range(deg + 1), repeat=group.rank)
                if sum(index) == deg)
    return _first_failures(group, generators, BarGenerator(()), contract,
                           tensor_differential, bar_differential)


@functools.lru_cache(maxsize=32)
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
