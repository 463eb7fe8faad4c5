"""Chain complexes over the group ring, and the comparison maps between them.

Two resolutions of the trivial module live here: the normalized bar complex,
whose degree-m generators are m-tuples of non-identity group elements, and
the Koszul-like tensor complex built from one periodic strand per cyclic
factor.  The degree 0..3 comparison maps from the bar side to the tensor
side turn small-complex cochains into explicit functions on G^3; the maps
back turn functions on G^3 into small-complex cochains.

The chain layer runs on element indices (Group.element_index, identity 0).
A group ring coefficient is a dict from index to nonzero int, multiplied
through the rows of Group.mul_table(); a chain is a dict from generator to
coefficient, a bar symbol being a tuple of nonzero indices and a tensor
generator its exponent tuple.  One recursion (_Map.lift) builds both maps
from the contracting homotopy of its target complex, _contract on the bar
side and _contract_tensor on the tensor side; _extend extends them
linearly.  Both maps are cached per group shape.  verify_chain_map and
verify_tensor_to_bar certify that each commutes with the differentials by
running the same recursion on index arrays (_square_failures), a block of
generators at a time, with every chain of a degree held as parallel arrays
of terms (_Terms); _Map.first_failures, the per-generator form of that
check, is kept as its test oracle.  ChainVector,
GroupRingElement, BarGenerator and TensorGenerator keep the public form,
keyed on GroupElement; they share one formal-sum rule (_FormalSum) and are
converted to and from indices only at the public entry points (_indices
and _vector).  The pullback through phi_3 lives in cocycles;
pullback_3cochain is re-exported here.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cocycles import degree3_indices, pullback_3cochain
from .groups import Group, GroupElement
from .intlinalg import _int_dtype


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


class _Shape:
    """One group shape on element indices: multiplication rows and strand data."""

    def __init__(self, orders):
        self.group = group = Group(orders)
        self.elements, self.mul = group.elements(), group.mul_table().tolist()
        # place[l] is the index weight of factor l; twist and norm hold the
        # strand coefficients g_l - 1 and 1 + g_l + ... + g_l^(m_l - 1)
        self.place = group.place_values
        self.twist = [{w: 1, 0: -1} for w in self.place]
        self.norm = [{k * w: 1 for k in range(m)} for m, w in zip(group.orders, self.place)]
        # strand[l][a % 2][g]: the indices g' with g' Phi_(a+1) a term of the
        # strand homotopy s(g Phi_a) on factor l (see contract_tensor)
        self.strand = [self._strand(m, w) for m, w in zip(group.orders, self.place)]

    def _strand(self, m, w):
        starts = [(g - g % (m * w), g // w % m) for g in range(len(self.elements))]
        return ([tuple(base + k * w for k in range(e)) for base, e in starts],
                [(base,) if e == m - 1 else () for base, e in starts])


_shape = functools.lru_cache(maxsize=64)(_Shape)


def _indices(shape, v: ChainVector, bar: bool) -> dict:
    """v on indices; a bar symbol holding the identity is the normalized zero."""
    idx = shape.group.element_index
    out = {}
    for gen, coeff in v.terms.items():
        key = tuple(map(idx, gen.elems)) if bar else gen.index
        if not (bar and 0 in key):
            out[key] = {idx(g): c for g, c in coeff.terms.items()}
    return out


def _generator(shape, key, bar: bool):
    if bar:
        return BarGenerator(tuple(shape.elements[i] for i in key))
    return TensorGenerator(key)


def _vector(shape, w: dict, bar: bool) -> ChainVector:
    """The ChainVector of a chain on indices."""
    out = ChainVector(shape.group)
    for key, coeff in w.items():
        out.terms[_generator(shape, key, bar)] = ring = GroupRingElement(shape.group)
        ring.terms = {shape.elements[g]: c for g, c in coeff.items()}
    return out


def _add(out: dict, key, coeff: dict):
    """Add coeff, a dict that no one else holds, at key; zero sums are dropped."""
    acc = out.get(key)
    if acc is None:
        if coeff:
            out[key] = coeff
        return
    for g, c in coeff.items():
        s = acc.get(g, 0) + c
        if s:
            acc[g] = s
        else:
            del acc[g]
    if not acc:
        del out[key]


def _rmul(mul, a: dict, b: dict, sign=1) -> dict:
    """The group ring product sign * a * b, as a new dict."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # a translate: the row of one element is a bijection, so nothing merges
        (x, cx), = a.items()
        row, cx = mul[x], cx * sign
        return {row[y]: cx * cy for y, cy in b.items()}
    out = {}
    for x, cx in a.items():
        row = mul[x]
        cx *= sign
        for y, cy in b.items():
            k = row[y]
            out[k] = out.get(k, 0) + cx * cy
    return {k: c for k, c in out.items() if c}


def _bar_differential(shape, v: dict) -> dict:
    mul = shape.mul
    out = {}
    for h, c in v.items():
        m = len(h)
        if not 1 <= m <= 3:
            raise ValueError(f"bar differential defined in degrees 1..3, got {m}")
        row = mul[h[0]]
        _add(out, h[1:], {row[g]: x for g, x in c.items()})
        sign = 1
        for i in range(1, m):
            sign = -sign
            merged = mul[h[i - 1]][h[i]]
            if merged:
                _add(out, h[: i - 1] + (merged,) + h[i + 1:],
                     {g: sign * x for g, x in c.items()})
        sign = 1 if m % 2 == 0 else -1
        _add(out, h[:-1], {g: sign * x for g, x in c.items()})
    return out


def _tensor_differential(shape, v: dict) -> dict:
    mul = shape.mul
    out = {}
    for a, c in v.items():
        if sum(a) > 4:
            raise ValueError("tensor differential capped at degree 4")
        sign = 1
        for i, ai in enumerate(a):
            if ai:
                op = shape.twist[i] if ai % 2 else shape.norm[i]
                _add(out, a[:i] + (ai - 1,) + a[i + 1:], _rmul(mul, op, c, sign))
            if ai % 2:
                sign = -sign
    return out


def _contract(shape, v: dict) -> dict:
    out = {}
    for h, coeff in v.items():
        for g, c in coeff.items():
            if g:
                _add(out, (g,) + h, {0: c})
    return out


def _contract_tensor(shape, v: dict) -> dict:
    n = shape.group.rank
    out = {}
    for a, coeff in v.items():
        top = max((l for l in range(n) if a[l]), default=0)
        sign = (-1) ** sum(ar % 2 for ar in a[:top])
        for l in range(top, n):
            odd = a[l] % 2
            targets = shape.strand[l][odd]
            terms = {}
            for g, c in coeff.items():
                for t in targets[g]:
                    terms[t] = terms.get(t, 0) + sign * c
            _add(out, a[:l] + (a[l] + 1,) + a[l + 1:], {g: c for g, c in terms.items() if c})
            if odd:
                sign = -sign
    return out


def _extend(shape, image, v: dict) -> dict:
    """Extend a map given on generators (image) linearly over group ring coefficients."""
    mul = shape.mul
    out = {}
    for gen, c in v.items():
        for tgen, tc in image(gen).items():
            _add(out, tgen, _rmul(mul, c, tc))
    return out


def _on_indices(kernel, v: ChainVector, bar: bool) -> ChainVector:
    shape = _shape(v.group.orders)
    return _vector(shape, kernel(shape, _indices(shape, v, bar)), bar)


def bar_differential(v: ChainVector) -> ChainVector:
    """Boundary of the normalized bar complex, degrees 1 to 3."""
    return _on_indices(_bar_differential, v, True)


def tensor_differential(v: ChainVector) -> ChainVector:
    """Sum of the per-factor differentials: twist on odd, norm on even exponents."""
    return _on_indices(_tensor_differential, v, False)


def contract(v: ChainVector) -> ChainVector:
    """The bar complex's contracting homotopy s(g[h_1|...|h_m]) = [g|h_1|...|h_m].

    s is Z-linear, not G-linear: each group element of a coefficient moves
    into the symbol, and the identity gives the collapsed zero.  On the
    normalized complex d s + s d is the identity in positive degrees.
    """
    return _on_indices(_contract, v, True)


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
    return _on_indices(_contract_tensor, v, False)


class _Map:
    """One comparison map on one group shape: psi (to_bar) or phi.

    Degree 0 goes to base; in degrees 1..3 lift(gen) is
    contract(image(d_source gen)), with image extended linearly, contract
    the homotopy of the target complex.  When image commutes with the
    differentials below, image(d_source gen) is a cycle of augmentation 0,
    so d contract + contract d = id - eta eps makes the new square commute
    too (Brown, Cohomology of Groups, ch. I).  image memoizes lift; the
    recursion reads it only below degree 3.
    """

    def __init__(self, shape, to_bar):
        self.shape, self.to_bar = shape, to_bar
        if to_bar:
            self.base, self.degree = (), sum
            self.contract, self.d_source, self.d_target = (
                _contract, _tensor_differential, _bar_differential)
        else:
            self.base, self.degree = (0,) * shape.group.rank, len
            self.contract, self.d_source, self.d_target = (
                _contract_tensor, _bar_differential, _tensor_differential)
        self.image = functools.cache(self.lift)

    def below(self, gen):
        """image(d_source gen), the chain that lift contracts."""
        return _extend(self.shape, self.image, self.d_source(self.shape, {gen: {0: 1}}))

    def lift(self, gen):
        degree = self.degree(gen)
        if degree == 0:
            return {self.base: {0: 1}}
        if degree > 3:
            raise ValueError(f"comparison map defined in degrees 0..3, got {degree}")
        return self.contract(self.shape, self.below(gen))

    def first_failures(self, generators):
        """The square check d_target(image(x)) == image(d_source(x)) in degrees 1..3,
        one generator at a time: the oracle of _square_failures.

        Since image(x) is contract(below) with below = image(d_source(x)),
        each square computes below once and compares d_target(contract(below))
        with it.  generators(deg) lists the source generators of one degree
        in lexicographic order.  Returns {1: None|gen, 2: None|gen, 3:
        None|gen}, the value being the first generator where the square fails.
        """
        shape = self.shape

        def fails(gen):
            below = self.below(gen)
            return self.d_target(shape, self.contract(shape, below)) != below
        found = {deg: next(filter(fails, generators(deg)), None) for deg in (1, 2, 3)}
        return {deg: None if key is None else _generator(shape, key, not self.to_bar)
                for deg, key in found.items()}


@functools.lru_cache(maxsize=64)
def _comparison(orders, to_bar) -> _Map:
    """psi or phi per group shape, so a standalone call reuses the images below it."""
    return _Map(_shape(orders), to_bar)


def apply_chain_map(group, bar_vector: ChainVector) -> ChainVector:
    """Extend the comparison map linearly over group ring coefficients."""
    m = _comparison(group.orders, False)
    return _vector(m.shape, _extend(m.shape, m.lift, _indices(m.shape, bar_vector, True)),
                   False)


def chain_map(group: Group, gen: BarGenerator) -> ChainVector:
    """Image of a normalized bar generator in the tensor complex, degree 0..3.

    phi_0([]) = Phi(0, .., 0) and phi_n(x) = s_T(phi_(n-1)(d_B x)), with s_T
    the tensor complex's contracting homotopy (contract_tensor).
    """
    return apply_chain_map(group, single(gen, GroupRingElement.unit(group.identity())))


def tensor_to_bar(group: Group, gen: TensorGenerator) -> ChainVector:
    """Image of a tensor generator in the normalized bar complex, degree 0..3.

    psi_0(Phi_0) = [] and psi_n(Phi) = s(psi_(n-1)(d_T Phi)), with s the bar
    complex's contracting homotopy (contract).
    """
    m = _comparison(group.orders, True)
    return _vector(m.shape, m.lift(gen.index), True)


class _Terms(NamedTuple):
    """Chains of one degree on index arrays, one chain per row: term k is
    v[k] times the element h[k] on generator t[k] of chain rows[k].  bound caps
    the absolute sum of the v of one row, so every sum over a row fits
    _int_dtype(bound)."""

    rows: np.ndarray
    t: np.ndarray
    h: np.ndarray
    v: np.ndarray
    bound: int


def _offsets(rows, count):
    """Where each of count rows starts in terms sorted by row, and where the last ends."""
    out = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=count), out=out[1:])
    return out


def _table(chains):
    """Terms from rows of (t, h, v) triples, and the offsets of the rows."""
    flat = list(itertools.chain.from_iterable(chains))
    t, h, v = zip(*flat) if flat else ((), (), ())
    bound = max((sum(abs(c) for _, _, c in chain) for chain in chains), default=0)
    rows = np.repeat(np.arange(len(chains)), [len(chain) for chain in chains])
    return _Terms(rows, np.array(t, dtype=np.int64), np.array(h, dtype=np.int64),
                  np.array(v, dtype=_int_dtype(bound)), bound), _offsets(rows, len(chains))


def _triples(chain: dict, index):
    """The (generator index, element, coefficient) triples of a chain on indices."""
    return [(index(gen), g, c) for gen, coeff in chain.items() for g, c in coeff.items()]


def _compose(mul, terms, keys, table, offsets):
    """Each term (r, key, g, c) of terms, its key given apart, against row key
    of table: the terms (r, t, g h, c v) for each (t, h, v) there, or
    (r, t, h, c v) when mul is None."""
    start = offsets[keys]
    length = offsets[keys + 1] - start
    owner = np.repeat(np.arange(len(keys)), length)
    pos = np.arange(len(owner)) + np.repeat(start - np.cumsum(length) + length, length)
    bound = terms.bound * table.bound
    dtype = _int_dtype(bound)
    h, v = table.h[pos], table.v[pos].astype(dtype, copy=False)
    return _Terms(terms.rows[owner], table.t[pos], h if mul is None else mul[terms.h[owner], h],
                  terms.v[owner].astype(dtype, copy=False) * v, bound)


def _collect(terms, width, N):
    """terms sorted by (row, t, h), equal keys summed by one sort and zero
    sums dropped; t runs below width and h below N."""
    key = (terms.rows * width + terms.t) * N + terms.h
    # the terms come in runs sorted by row, which the stable sort merges
    # faster than quicksort orders them
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    v = np.add.reduceat(terms.v[order], first)
    keep = v != 0
    rows, rest = np.divmod(key[first[keep]], width * N)
    t, h = np.divmod(rest, N)
    return _Terms(rows, t, h, v[keep], terms.bound)


def _difference(a, b):
    """The terms of a followed by those of b negated."""
    bound = a.bound + b.bound
    dtype = _int_dtype(bound)
    v = (a.v.astype(dtype, copy=False), -b.v.astype(dtype, copy=False))
    return _Terms(*(np.concatenate(pair) for pair in zip(a[:3], b[:3])), np.concatenate(v), bound)


def _bar_symbol(K, n, index):
    """The entries (1..K) of the degree-n bar symbol at index, C order over
    the K non-identity elements; index may be an int or an array."""
    return [index // K ** (n - 1 - i) % K + 1 for i in range(n)]


def _bar_index(K, symbol):
    """The index of a bar symbol, the inverse of _bar_symbol; the entries
    may be ints or arrays."""
    return functools.reduce(lambda acc, e: acc * K + e - 1, symbol, 0)


def _bar_faces(mul, K, n, gens) -> _Terms:
    """d_B of the degree-n bar symbols whose indices are gens, read off the
    multiplication table: one term per face, its row the position in gens, t
    the index of the face's symbol, h its translate.  Faces through the
    identity are the normalized zero and are dropped."""
    x = _bar_symbol(K, n, gens)
    zero = np.zeros_like(gens)
    faces, translates = [zero + _bar_index(K, x[1:])], [x[0]]
    for i in range(1, n):
        merged = mul[x[i - 1], x[i]]
        faces.append(np.where(merged > 0, _bar_index(K, x[:i - 1] + [merged] + x[i + 1:]), -1))
        translates.append(zero)
    faces.append(zero + _bar_index(K, x[:-1]))
    translates.append(zero)
    t = np.stack(faces, axis=1).ravel()
    keep = t >= 0
    return _Terms(np.repeat(np.arange(len(gens)), n + 1)[keep], t[keep],
                  np.stack(translates, axis=1).ravel()[keep],
                  np.tile([(-1) ** i for i in range(n + 1)], len(gens))[keep], n + 1)


class _BarSide:
    """The normalized bar complex of one shape as the square check reads it,
    degree-n generators indexed in C order of their symbols.  Tables hold for
    one check: the homotopy rows are built as the check meets them."""

    def __init__(self, shape):
        self.shape, self.K = shape, shape.group.order - 1
        self.units = {}

    def count(self, n):
        return self.K ** n

    def faces(self, n, gens):
        return _bar_faces(self.shape.group.mul_table(), self.K, n, gens)

    def face_table(self, n, t):
        """The faces of the generators t, as a table and the key of each t."""
        gens, keys = np.unique(t, return_inverse=True)
        faces = self.faces(n, gens)
        return faces, _offsets(faces.rows, len(gens)), keys

    def contract_table(self, n, cols):
        """s on the unit inputs g x, col = index(x) * |G| + g, x of degree
        n - 1: a table and the key of each col."""
        N = self.shape.group.order
        cols, keys = np.unique(cols, return_inverse=True)
        for col in cols.tolist():
            if (n, col) not in self.units:
                x, g = divmod(col, N)
                chain = _contract(self.shape, {self.symbol(n - 1, x): {g: 1}})
                self.units[n, col] = _triples(chain, self.index)
        return *_table([self.units[n, col] for col in cols.tolist()]), keys

    def symbol(self, n, i):
        return tuple(_bar_symbol(self.K, n, i))

    def index(self, symbol):
        return _bar_index(self.K, symbol)

    def generator(self, n, i):
        return _generator(self.shape, self.symbol(n, i), True)


class _TensorSide:
    """The tensor complex of one shape as the square check reads it, degree-n
    generators indexed in lexicographic order of exponents.  Its tables are
    small and built whole, once per check."""

    def __init__(self, shape):
        rank = shape.group.rank
        self.shape = shape
        self.gens = [[a for a in itertools.product(range(n + 1), repeat=rank) if sum(a) == n]
                     for n in range(4)]
        self.index = [{a: i for i, a in enumerate(gens)} for gens in self.gens]
        self.tables = {}

    def count(self, n):
        return len(self.gens[n])

    def _built(self, name, n, rows):
        if (name, n) not in self.tables:
            self.tables[name, n] = _table(list(rows))
        return self.tables[name, n]

    def face_table(self, n, t):
        """d_T of every degree-n generator as a table, and the key of each t."""
        return *self._built("d", n, (
            _triples(_tensor_differential(self.shape, {a: {0: 1}}), self.index[n - 1].get)
            for a in self.gens[n])), t

    def faces(self, n, gens):
        unit = _Terms(np.arange(len(gens)), gens, np.zeros_like(gens), np.ones_like(gens), 1)
        table, offsets, keys = self.face_table(n, gens)
        return _compose(None, unit, keys, table, offsets)

    def contract_table(self, n, cols):
        """s_T on every unit input g a, col = index(a) * |G| + g, a of degree
        n - 1, as a table, and the key of each col."""
        return *self._built("s", n, (
            _triples(_contract_tensor(self.shape, {a: {g: 1}}), self.index[n].get)
            for a in self.gens[n - 1] for g in range(self.shape.group.order))), cols

    def generator(self, n, i):
        return TensorGenerator(self.gens[n][i])


# source generators per block: a degree-3 block of Z_8^2 gathers about 10^5 terms
_BLOCK = 1 << 11


def _square_failures(shape, source, target):
    """The square check d f_n = f_(n-1) d of one comparison map, on index arrays.

    f is the recursion of _Map: f_0 sends the one degree-0 generator to the
    target's, and f_n(x) = s(below) with below = f_(n-1)(d x).  Each degree
    runs on blocks of source generators: below is gathered through the
    source faces and f_(n-1), s through its table on unit inputs (s is
    Z-linear) and the target d through its faces, and the residual
    d s(below) - below is summed.  The tables are built from the kernels as
    they stand on every call.  Returns {1: None|gen, 2: None|gen, 3:
    None|gen}, the value being the first source generator in index order
    where the square fails, as _Map.first_failures gives it.
    """
    N, mul = shape.group.order, shape.group.mul_table()
    zero, one = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    image, offsets = _Terms(zero, zero, zero, one, 1), np.array([0, 1])
    found = {}
    for n in (1, 2, 3):
        found[n], count, lifts = None, source.count(n), []
        for lo in range(0, count, _BLOCK):
            size = min(_BLOCK, count - lo)
            d = source.faces(n, np.arange(lo, lo + size))
            below = _collect(_compose(mul, d, d.t, image, offsets), target.count(n - 1), N)
            table, table_offsets, keys = target.contract_table(n, below.t * N + below.h)
            lift = _collect(_compose(None, below, keys, table, table_offsets),
                            target.count(n), N)
            table, table_offsets, keys = target.face_table(n, lift.t)
            residual = _collect(_difference(_compose(mul, lift, keys, table, table_offsets),
                                            below), target.count(n - 1), N)
            if found[n] is None and len(residual.rows):
                found[n] = source.generator(n, lo + int(residual.rows[0]))
                if n == 3:
                    break
            if n < 3:
                lifts.append(lift._replace(rows=lift.rows + lo))
        if n < 3:
            image = _Terms(*map(np.concatenate, zip(*(lift[:4] for lift in lifts))),
                           max(lift.bound for lift in lifts))
            offsets = _offsets(image.rows, count)
    return found


def verify_chain_map(group: Group, max_cells: int = 10 ** 6):
    """Check that phi commutes with the differentials, degree by degree.

    Returns {1: None|gen, 2: None|gen, 3: None|gen}, the value being the
    first bar generator (lexicographic) where the square fails.  The
    degree-3 squares take about |G|^4 steps; refuses when that is above
    max_cells.
    """
    N = group.order
    if N ** 4 > max_cells:
        raise ValueError(f"chain-map check would need {N ** 4} cells (|G|^4), "
                         f"above the {max_cells} bound")
    shape = _shape(group.orders)
    return _square_failures(shape, _BarSide(shape), _TensorSide(shape))


def verify_tensor_to_bar(group: Group):
    """Check d_B psi = psi d_T on every tensor generator of degree 1..3.

    Returns {1: None|gen, 2: None|gen, 3: None|gen}, the value being the
    first tensor generator (lexicographic in its index) where the square
    fails.
    """
    shape = _shape(group.orders)
    return _square_failures(shape, _TensorSide(shape), _BarSide(shape))


@functools.lru_cache(maxsize=32)
def tensor_to_bar_cells(orders: tuple):
    """psi_3 of the degree-3 tensor generators, as integer lists per group shape.

    One tuple per generator in degree3_indices order, holding (cell,
    multiplicity) pairs: the cell is the index of [x|y|z] in the G^3 layout
    of CocycleTable, the multiplicity the augmentation of its coefficient.
    """
    m = _comparison(orders, True)
    N = m.shape.group.order
    return tuple(tuple(sorted(((x * N + y) * N + z, sum(coeff.values()))
                              for (x, y, z), coeff in m.lift(index).items()))
                 for index in degree3_indices(len(orders)))


def bar_boundary_cells(orders: tuple):
    """The augmented boundary of each non-identity [x|y|z], in C order of indices,
    as (cell, multiplicity) pairs like tensor_to_bar_cells: the cell of [p|q] is
    (p - 1)(N - 1) + q - 1, its place among the non-identity pairs.  A face
    whose group ring coefficient is nonzero keeps its pair, even when the
    augmentation is 0."""
    group = _shape(orders).group
    N = group.order
    K = N - 1
    terms = _collect(_bar_faces(group.mul_table(), K, 3, np.arange(K ** 3)), K * K, N)
    key = terms.rows * K * K + terms.t
    first = np.flatnonzero(np.diff(key, prepend=-1))
    cells, counts = terms.t[first].tolist(), np.add.reduceat(terms.v, first).tolist()
    ends = np.searchsorted(terms.rows[first], np.arange(K ** 3 + 1)).tolist()
    return tuple(tuple(zip(cells[a:b], counts[a:b])) for a, b in zip(ends, ends[1:]))
