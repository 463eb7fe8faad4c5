"""Canonical 3-cocycles on a finite abelian group and their coherence checks.

A parameter choice assigns one exponent to each cyclic factor, each ordered
pair of factors, and each ordered triple of factors, bounded by the factor
order resp. the gcd of the orders involved.  The canonical cocycle is the
pullback of a tensor 3-cochain (representative_cochain) through phi_3,
whose multiplicities have a closed form in the digits and carries of the
three arguments; one kernel (_phi3) evaluates it on one triple or,
broadcast, on the whole cube.  Cochains and tables hold exponents: integer
numerators over one common denominator (CocycleTable.exponents, and the
_Exponents store of TensorCochain3 and cohomology.CoboundaryWitness2), with
roots of unity built through roots._root only at the API and JSON boundary.
The verifiers below read those exponents with the group's multiplication
table, and confirm (or refute, with the lexicographically first witness)
the pentagon identity, normalization, and symmetry in the last two
arguments over the whole cube of triples.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groups import Group, GroupElement
from .intlinalg import _int_dtype
from .roots import Root, _common_denominator, _root, parse_exponent


def pair_indices(n):
    return list(itertools.combinations(range(n), 2))


def triple_indices(n):
    return list(itertools.combinations(range(n), 3))


@dataclass(frozen=True)
class CocycleParams:
    """Exponent data (per factor, per pair, per triple) selecting one cocycle."""

    group: Group
    diag: tuple
    pairs: tuple
    triples: tuple

    def __post_init__(self):
        object.__setattr__(self, "diag", tuple(self.diag))
        object.__setattr__(self, "pairs", tuple(self.pairs))
        object.__setattr__(self, "triples", tuple(self.triples))
        n = self.group.rank
        # one iterator over the moduli, consumed block by block; slots(n)
        # names the slots and is built only for the message of a value that fails
        moduli = iter(slot_moduli(self.group.orders))
        for name, noun, values, count, slots in zip(
                ("diagonal", "pair", "triple"), ("factor", "factors", "factors"),
                (self.diag, self.pairs, self.triples), slot_counts(n),
                (range, pair_indices, triple_indices)):
            if len(values) != count:
                raise ValueError(f"need {count} {name} exponents, got {len(values)}")
            for k, (a, d) in enumerate(zip(values, moduli)):
                if type(a) is not int and (not isinstance(a, int) or isinstance(a, bool)):
                    raise ValueError(f"{name} exponent {a!r} for {noun} {slots(n)[k]} "
                                     "must be an integer")
                if not 0 <= a < d:
                    raise ValueError(f"{name} exponent {a} out of range for {noun} {slots(n)[k]}")

    def pair_value(self, s, t):
        return self.pairs[pair_indices(self.group.rank).index((s, t))]

    def triple_value(self, r, s, t):
        return self.triples[triple_indices(self.group.rank).index((r, s, t))]


def slot_counts(n: int) -> tuple:
    """The number of diagonal, pair and triple parameter slots at rank n;
    ValueError above 10^6 slots in all (rank 182 and up)."""
    counts = (n, math.comb(n, 2), math.comb(n, 3))
    if sum(counts) > 10 ** 6:
        raise ValueError(f"rank {n} has {sum(counts)} parameter slots, above the 10^6 bound")
    return counts


@functools.lru_cache(maxsize=256)
def slot_moduli(orders: tuple) -> tuple:
    """The modulus of each parameter slot: m_l per factor, gcd(m_s, m_t) per
    pair s < t and gcd(m_r, m_s, m_t) per triple r < s < t, in slot order.
    Refuses more than 10^6 slots before building any."""
    n, _, _ = slot_counts(len(orders))
    return (orders + tuple(math.gcd(orders[s], orders[t]) for s, t in pair_indices(n))
            + tuple(math.gcd(orders[r], orders[s], orders[t])
                    for r, s, t in triple_indices(n)))


def _power_product(values) -> int:
    """math.prod(values) with equal values taken as one power: one factor at a
    time costs the square of the product's size."""
    return math.prod(m ** k for m, k in collections.Counter(values).items())


def enumerate_params(group: Group):
    """All parameter choices for the group, lexicographic in (diag, pairs, triples)."""
    n = group.rank
    p = len(pair_indices(n))
    return [CocycleParams(group, combo[:n], combo[n:n + p], combo[n + p:])
            for combo in itertools.product(*map(range, slot_moduli(group.orders)))]


def degree3_indices(n):
    """The degree-3 multi-indices in the order diag, iij, ijj, rst.

    diag has 3 in one slot; iij and ijj follow the lexicographic pairs
    i < j with (2 in i, 1 in j) resp. (1 in i, 2 in j); rst follows the
    lexicographic triples.
    """
    def at(*positions):
        return tuple(positions.count(p) for p in range(n))
    return ([at(l, l, l) for l in range(n)]
            + [at(i, i, j) for i, j in pair_indices(n)]
            + [at(i, j, j) for i, j in pair_indices(n)]
            + [at(r, s, t) for r, s, t in triple_indices(n)])


@dataclass(frozen=True, init=False)
class _Exponents:
    """Roots of unity as integer numerators over one denominator, in the
    canonical form of _assign, so that equality and hash follow the values."""

    group: Group
    _L: int
    _nums: tuple

    @classmethod
    def _from_exponents(cls, group: Group, L: int, nums):
        """The object of the numerators nums over L."""
        f = cls.__new__(cls)
        f._assign(group, L, nums)
        return f

    def _assign(self, group, L, nums):
        """Hold nums over L reduced mod L and by their gcd with L: the canonical form."""
        nums = [k % L for k in nums]
        g = math.gcd(L, *nums)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "_L", L // g)
        object.__setattr__(self, "_nums", tuple(k // g for k in nums))

    def exponents(self):
        """(L, nums): the values as integer numerators mod their common denominator L."""
        return self._L, self._nums


@dataclass(frozen=True, init=False)
class TensorCochain3(_Exponents):
    """Root-of-unity values on the degree-3 generators of the small complex.

    The state is (L, nums) as exponents() returns it: the values' exponents
    as integer numerators over their least common denominator L, in
    degree3_indices order, which is the order _phi3 reads.  diag[l] is the
    value on the index with 3 in slot l; iij and ijj are aligned with the
    lexicographic pair list (i < j), carrying the values on (2 in i, 1 in
    j) resp. (1 in i, 2 in j); rst is aligned with the lexicographic triple
    list.  These four are tuples of Root, built on each access.
    """

    def __init__(self, group: Group, diag, iij, ijj, rst):
        blocks = (tuple(diag), tuple(iij), tuple(ijj), tuple(rst))
        n = group.rank
        p = len(pair_indices(n))
        if tuple(map(len, blocks)) != (n, p, p, len(triple_indices(n))):
            raise ValueError("value tuples do not match the index sets of the group")
        for name, block in zip(("diag", "iij", "ijj", "rst"), blocks):
            for v in block:
                if not isinstance(v, Root):
                    raise ValueError(f"{name} value {v!r} must be a Root")
        self._assign(group, *_common_denominator([v for block in blocks for v in block]))

    def _blocks(self):
        """The numerators split into the diag, iij, ijj and rst blocks."""
        n = self.group.rank
        p = len(pair_indices(n))
        cuts = (0, n, n + p, n + 2 * p, len(self._nums))
        return [self._nums[a:b] for a, b in zip(cuts, cuts[1:])]

    def _roots(self, block):
        return tuple(_root(k, self._L) for k in self._blocks()[block])

    diag = property(lambda self: self._roots(0))
    iij = property(lambda self: self._roots(1))
    ijj = property(lambda self: self._roots(2))
    rst = property(lambda self: self._roots(3))

    def value(self, index) -> Root:
        """Value on one degree-3 multi-index of the small complex."""
        index = tuple(index)
        n = self.group.rank
        if len(index) != n or sum(index) != 3 or any(a < 0 for a in index):
            raise ValueError(f"not a degree-3 multi-index: {index}")
        return _root(self._nums[degree3_indices(n).index(index)], self._L)

    def _combine(self, other, sign):
        if type(other) is not TensorCochain3:
            return NotImplemented
        if self.group != other.group:
            raise ValueError("cochains live over different groups")
        L = math.lcm(self._L, other._L)
        return TensorCochain3._from_exponents(self.group, L, [
            a * (L // self._L) + sign * b * (L // other._L)
            for a, b in zip(self._nums, other._nums)])

    def __mul__(self, other):
        return self._combine(other, 1)

    def __truediv__(self, other):
        return self._combine(other, -1)


@functools.lru_cache(maxsize=256)
def representative_cochain(params: CocycleParams) -> TensorCochain3:
    """The canonical cocycle on the small complex for one parameter choice.

    Its values are a_l/m_l on rrr, a_st/m_t on the rrt slot (s, t), 0 on
    rtt and a_rst/gcd(m_r, m_s, m_t) on rst.
    """
    orders = params.group.orders
    n = params.group.rank
    pairs = pair_indices(n)
    moduli = slot_moduli(orders)
    dens = (moduli[:n] + tuple(orders[t] for _, t in pairs) + (1,) * len(pairs)
            + moduli[n + len(pairs):])
    L = math.lcm(*dens)
    exps = params.diag + params.pairs + (0,) * len(pairs) + params.triples
    return TensorCochain3._from_exponents(params.group, L,
                                          [a * (L // d) for a, d in zip(exps, dens)])


def _phi3(orders, nums, i, j, k):
    """A tensor 3-cochain at phi_3[x|y|z]: an exponent numerator, unreduced.

    nums holds the cochain's numerators in degree3_indices order; i, j, k
    hold the digits of x, y, z per factor, as ints for one cell or as
    arrays that broadcast against each other.  After augmentation phi_3
    gives the slots the multiplicities i_r c(j_r, k_r) (rrr),
    i_t c(j_r, k_r) (rrt), k_r c(i_t, j_t) (rtt) and -k_r j_s i_t (rst),
    with c the carry digit (derived from phi_3 = s_T phi_2 d_B in
    notes/decisions.md).
    """
    n = len(orders)
    pairs, triples = pair_indices(n), triple_indices(n)
    carry_jk = [j[l] + k[l] >= orders[l] for l in range(n)]
    total = 0
    for l in range(n):
        if nums[l]:
            total = total + nums[l] * i[l] * carry_jk[l]
    for p, (r, t) in enumerate(pairs):
        rrt, rtt = nums[n + p], nums[n + len(pairs) + p]
        if rrt:
            total = total + rrt * i[t] * carry_jk[r]
        if rtt:
            total = total + rtt * k[r] * (i[t] + j[t] >= orders[t])
    for q, (r, s, t) in enumerate(triples):
        rst = nums[n + 2 * len(pairs) + q]
        if rst:
            total = total - rst * k[r] * j[s] * i[t]
    return total


def eval_cocycle(params: CocycleParams, x: GroupElement, y: GroupElement,
                 z: GroupElement) -> Root:
    """Value of the canonical cocycle at one triple, as an exact root of unity."""
    L, nums = representative_cochain(params).exponents()
    return _root(_phi3(params.group.orders, nums, x.exps, y.exps, z.exps), L)


class CocycleTable:
    """Explicit function on G^3 with values roots of unity, stored as exponents.

    The state is (L, w) as exponents() returns it: the values' exponents as
    integer numerators over their least common denominator L, in a read-only
    array of shape (N, N, N) indexed by element indices in lexicographic
    exponent order.  values, the same function as a tuple of Root in the
    flat layout ((ix * N) + iy) * N + iz, is built on first use.
    Construction takes only Root values (ValueError otherwise) but does not
    require them to satisfy any identity; the verify_* functions decide that
    on (L, w).
    """

    __slots__ = ("group", "_L", "_w", "_values")

    def __init__(self, group: Group, values):
        values = tuple(values)
        n = group.order
        if len(values) != n ** 3:
            raise ValueError(f"need {n ** 3} values for |G| = {n}, got {len(values)}")
        L, nums = _common_denominator(values, "table value")
        self._assign(group, L, np.array(nums, dtype=_int_dtype(5 * L)).reshape(n, n, n))
        self._values = values

    @classmethod
    def _from_exponents(cls, group: Group, L: int, w):
        """The table of the exponents w over L, reduced to the canonical (L, w)."""
        g = math.gcd(L, int(np.gcd.reduce(w.reshape(-1))))
        table = cls.__new__(cls)
        table._assign(group, L // g, w // g)
        table._values = None
        return table

    def _assign(self, group, L, w):
        self.group = group
        self._L = L
        self._w = w.astype(_int_dtype(5 * L), copy=False)
        self._w.setflags(write=False)

    def exponents(self):
        """(L, w): the values as integer numerators mod their common denominator L.

        w is a read-only array of shape (N, N, N) in the cell layout.  Its
        dtype is int64 when the verifiers' sums of five cells fit, Python
        ints otherwise.
        """
        return self._L, self._w

    @property
    def values(self):
        """The values as a tuple of Root in the flat cell layout."""
        if self._values is None:
            distinct, where = np.unique(self._w, return_inverse=True)
            roots = [_root(k, self._L) for k in distinct.tolist()]
            self._values = tuple(map(roots.__getitem__, where.reshape(-1).tolist()))
        return self._values

    def value(self, x, y, z) -> Root:
        g = self.group
        cell = self._w[g.element_index(x), g.element_index(y), g.element_index(z)]
        return _root(int(cell), self._L)

    def _combine(self, other, sign):
        if type(other) is not CocycleTable:
            return NotImplemented
        if self.group != other.group:
            raise ValueError("tables live over different groups")
        L = math.lcm(self._L, other._L)
        dtype = _int_dtype(5 * L)
        w = (self._w.astype(dtype) * (L // self._L)
             + sign * other._w.astype(dtype) * (L // other._L))
        return CocycleTable._from_exponents(self.group, L, w % L)

    def __mul__(self, other):
        return self._combine(other, 1)

    def __truediv__(self, other):
        return self._combine(other, -1)

    def __eq__(self, other):
        return (isinstance(other, CocycleTable) and self.group == other.group
                and self._L == other._L and np.array_equal(self._w, other._w))


def pullback_3cochain(f: TensorCochain3, group: Group,
                      max_cells: int = 10 ** 6) -> CocycleTable:
    """Compose a tensor 3-cochain with the degree-3 comparison map phi_3.

    Coefficients act through the augmentation since the values carry the
    trivial group action, so cell [x|y|z] takes the values of f weighted by
    the augmented coefficients of chain_map([x|y|z]).  Those multiplicities
    have a closed form in the digits and carries of x, y, z, which _phi3
    evaluates on all of G^3 at once, in int64 when no partial sum can
    overflow it and in Python ints otherwise.  Refuses above max_cells
    entries; returns the induced table on G^3.
    """
    if f.group != group:
        raise ValueError("the cochain lives over a different group")
    N = group.order
    if N ** 3 > max_cells:
        raise ValueError(f"table would need {N ** 3} cells, above the {max_cells} bound")
    L, nums = f.exponents()
    dtype = _int_dtype(len(nums) * L * max(group.orders) ** 3)
    digits = group.digits().T.astype(dtype)
    i, j, k = (digits.reshape(group.rank, *shape)
               for shape in ((N, 1, 1), (1, N, 1), (1, 1, N)))
    w = np.zeros((N, N, N), dtype=dtype)
    w += _phi3(group.orders, nums, i, j, k)
    w %= L
    return CocycleTable._from_exponents(group, L, w)


def build_table(params: CocycleParams, max_cells: int = 10 ** 6) -> CocycleTable:
    """Tabulate the cocycle over all of G^3; refuses above max_cells entries.

    The table is the pullback through phi_3 of the canonical tensor cochain.
    """
    return pullback_3cochain(representative_cochain(params), params.group, max_cells)


def _first_witness(group: Group, bad, offset: int = 0):
    """The elements at the first True cell of bad in C order, each axis
    starting at element index offset, or None."""
    if not bad.any():
        return None
    return tuple(group.from_index(int(i) + offset)
                 for i in np.unravel_index(int(bad.argmax()), bad.shape))


def verify_pentagon(table: CocycleTable):
    """None if the pentagon identity holds on all of G^4, else the first failure.

    w(ef, g, h) + w(e, f, gh) = w(e, f, g) + w(e, fg, h) + w(f, g, h) mod L,
    checked one slab of fixed e at a time.
    """
    group = table.group
    L, w = table.exponents()
    mul = group.mul_table()
    for e in range(group.order):
        we = w[e]
        res = w[mul[e]] + we[:, mul] - we[:, :, None] - we[mul] - w
        res %= L
        witness = _first_witness(group, res != 0)
        if witness is not None:
            return (group.from_index(e),) + witness
    return None


def verify_normalized(table: CocycleTable):
    """None if the value is 1 whenever an argument is the identity, else a witness."""
    _, w = table.exponents()
    on_identity = np.ones(w.shape, dtype=bool)
    on_identity[1:, 1:, 1:] = False
    return _first_witness(table.group, (w != 0) & on_identity)


def verify_symmetry_last_two(table: CocycleTable):
    """None if the value is unchanged under swapping the last two arguments."""
    _, w = table.exponents()
    above = np.triu(np.ones(w.shape[1:], dtype=bool), k=1)
    return _first_witness(table.group, (w != w.transpose(0, 2, 1)) & above)


def params_to_doc(params: CocycleParams) -> dict:
    n = params.group.rank
    return {
        "orders": list(params.group.orders),
        "a": list(params.diag),
        "a2": {f"{s + 1},{t + 1}": v
               for (s, t), v in zip(pair_indices(n), params.pairs) if v},
        "a3": {f"{r + 1},{s + 1},{t + 1}": v
               for (r, s, t), v in zip(triple_indices(n), params.triples) if v},
    }


def params_to_json(params: CocycleParams) -> str:
    return json.dumps(params_to_doc(params))


def _slot_values(doc: dict, field: str, n: int, slots) -> tuple:
    """The integers of the "a2"/"a3" object in slot order; absent keys are 0."""
    block = doc.get(field, {})
    if not isinstance(block, dict):
        raise ValueError(f'"{field}" must be an object, got {type(block).__name__}')
    keys = [",".join(str(i + 1) for i in slot) for slot in slots]
    for key, value in block.items():
        if key not in keys:
            raise ValueError(f'"{field}" has no slot {key!r} on a group of rank {n}')
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f'"{field}" value at {key!r} must be an integer, '
                             f'got {value!r}')
    return tuple(block.get(key, 0) for key in keys)


def params_from_doc(doc: dict) -> CocycleParams:
    """Read a params document; ValueError naming the field when it is malformed."""
    if not isinstance(doc, dict):
        raise ValueError("a params document must be a JSON object, "
                         f"got {type(doc).__name__}")
    group = Group(_int_list(doc.get("orders"), '"orders"'))
    n = group.rank
    return CocycleParams(group, _int_list(doc.get("a"), '"a"'),
                         _slot_values(doc, "a2", n, pair_indices(n)),
                         _slot_values(doc, "a3", n, triple_indices(n)))


def params_from_json(text: str) -> CocycleParams:
    return params_from_doc(json.loads(text))


@functools.lru_cache(maxsize=64)
def _element_texts(group: Group) -> tuple:
    """Each element's exponent list as JSON ("[0, 1, 1]"), in index order."""
    return tuple(map(json.dumps, group.digits().tolist()))


_JSON_CELL = ('{"x": ', ', "y": ', ', "z": ', ', "w": "', '"}')


def table_cells(table: CocycleTable, frame=_JSON_CELL):
    """The cells whose value is not 1, in C order, each as the text
    frame[0] x frame[1] y frame[2] z frame[3] w frame[4], with x, y and z the
    exponent lists as JSON ("[0, 1, 1]") and w the value as "p/q"."""
    L, w = table.exponents()
    N = table.group.order
    flat = w.reshape(-1)
    cells = np.flatnonzero(flat)
    nums = flat[cells].tolist()
    # 0 < k < L, so str(Fraction(k, L)) is the "p/q" that str(Root) prints
    text = {k: f"{frame[3]}{Fraction(k, L)}{frame[4]}" for k in set(nums)}
    elems = _element_texts(table.group)
    x, yz = np.divmod(cells, N * N)
    pieces = [[head + e for e in elems] for head in frame[:3]]
    return list(map("".join, zip(map(pieces[0].__getitem__, x.tolist()),
                                 map(pieces[1].__getitem__, (yz // N).tolist()),
                                 map(pieces[2].__getitem__, (yz % N).tolist()),
                                 map(text.__getitem__, nums))))


def table_to_json(table: CocycleTable) -> str:
    """The table document as json.dumps writes it: the nontrivial cells in C order."""
    return (f'{{"orders": {json.dumps(list(table.group.orders))}, '
            f'"entries": [{", ".join(table_cells(table))}]}}')


def table_to_doc(table: CocycleTable) -> dict:
    """The cells whose value is not 1, in C order, with values as "p/q"."""
    return json.loads(table_to_json(table))


def _int_list(value, what):
    """value as a tuple of ints if it is a JSON list of integers, else ValueError."""
    if not (isinstance(value, list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def table_from_doc(doc: dict) -> CocycleTable:
    """Read a table document; ValueError when its shape is not the table schema.

    Exponent vectors are reduced mod the orders; when two entries name the
    same cell, the later one wins.  The entries are read in one pass: when
    x, y and z are lists of plain ints within range they are looked up
    directly, otherwise all three go through the full check, and each
    distinct value text is parsed once.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a table must be a JSON object, got {type(doc).__name__}")
    group = Group(_int_list(doc.get("orders"), '"orders"'))
    n = group.order
    if n ** 3 > 10 ** 6:
        raise ValueError("a table needs |G|^3 cells; above 10^6 (|G| > 100) is refused")
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f'"entries" must be a list, got {type(entries).__name__}')
    index = {e: i for i, e in enumerate(map(tuple, group.digits().tolist()))}.get
    ints = {int}
    parsed = {}
    cells = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"a table entry must be an object, got {entry!r}")
        x, y, z = entry.get("x"), entry.get("y"), entry.get("z")
        # True and 1.0 hash like 1, so only lists of exact ints are looked up
        i = j = k = None
        if type(x) is type(y) is type(z) is list and set(map(type, x + y + z)) == ints:
            i, j, k = index(tuple(x)), index(tuple(y)), index(tuple(z))
        if i is None or j is None or k is None:
            i, j, k = (group.element_index(group.element(_int_list(v, f'entry "{c}"')))
                       for c, v in zip("xyz", (x, y, z)))
        cell = (i * n + j) * n + k
        if "w" not in entry:
            raise ValueError(f'a table entry has no "w": {entry!r}')
        text = entry["w"]
        value = parsed.get(text) if isinstance(text, str) else None
        if value is None:
            value = parsed[text] = parse_exponent(text)
        cells[cell] = value
    L = math.lcm(*{q for _, q in cells.values()})
    w = np.zeros(n ** 3, dtype=_int_dtype(5 * L))
    if cells:
        w[list(cells)] = np.array([p * (L // q) % L for p, q in cells.values()],
                                  dtype=w.dtype)
    return CocycleTable._from_exponents(group, L, w.reshape(n, n, n))


def table_from_json(text: str) -> CocycleTable:
    return table_from_doc(json.loads(text))
