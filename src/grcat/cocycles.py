"""Canonical 3-cocycles on a finite abelian group and their coherence checks.

A parameter choice assigns one exponent to each cyclic factor, each ordered
pair of factors, and each ordered triple of factors, bounded by the factor
order resp. the gcd of the orders involved.  Evaluating the closed-form
associator at a parameter choice gives an exact root of unity for every
triple of group elements.  A table stores those roots; the verifiers below
read its integer form (numerators modulo one common denominator, see
CocycleTable.exponents) with the group's multiplication table, and confirm
(or refute, with the lexicographically first witness) the pentagon
identity, normalization, and symmetry in the last two arguments over the
whole cube of triples.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groups import Group, GroupElement, carry
from .roots import Root


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
        orders = self.group.orders
        n = self.group.rank
        if len(self.diag) != n:
            raise ValueError(f"need {n} diagonal exponents, got {len(self.diag)}")
        for l, a in enumerate(self.diag):
            if not 0 <= a < orders[l]:
                raise ValueError(f"diagonal exponent {a} out of range for factor {l}")
        pi = pair_indices(n)
        if len(self.pairs) != len(pi):
            raise ValueError(f"need {len(pi)} pair exponents, got {len(self.pairs)}")
        for (s, t), a in zip(pi, self.pairs):
            d = math.gcd(orders[s], orders[t])
            if not 0 <= a < d:
                raise ValueError(f"pair exponent {a} out of range for factors {(s, t)}")
        ti = triple_indices(n)
        if len(self.triples) != len(ti):
            raise ValueError(f"need {len(ti)} triple exponents, got {len(self.triples)}")
        for (r, s, t), a in zip(ti, self.triples):
            d = math.gcd(math.gcd(orders[r], orders[s]), orders[t])
            if not 0 <= a < d:
                raise ValueError(f"triple exponent {a} out of range for factors {(r, s, t)}")

    def pair_value(self, s, t):
        return self.pairs[pair_indices(self.group.rank).index((s, t))]

    def triple_value(self, r, s, t):
        return self.triples[triple_indices(self.group.rank).index((r, s, t))]


def enumerate_params(group: Group):
    """All parameter choices for the group, lexicographic in (diag, pairs, triples)."""
    orders = group.orders
    n = group.rank
    diag_ranges = [range(m) for m in orders]
    pair_ranges = [range(math.gcd(orders[s], orders[t])) for s, t in pair_indices(n)]
    triple_ranges = [range(math.gcd(math.gcd(orders[r], orders[s]), orders[t]))
                     for r, s, t in triple_indices(n)]
    out = []
    for combo in itertools.product(*diag_ranges, *pair_ranges, *triple_ranges):
        diag = combo[:n]
        pairs = combo[n:n + len(pair_ranges)]
        triples = combo[n + len(pair_ranges):]
        out.append(CocycleParams(group, diag, pairs, triples))
    return out


def eval_cocycle(params: CocycleParams, x: GroupElement, y: GroupElement,
                 z: GroupElement) -> Root:
    """Value of the canonical cocycle at one triple, as an exact root of unity."""
    group = params.group
    orders = group.orders
    n = group.rank
    i, j, k = x.exps, y.exps, z.exps
    total = Fraction(0)
    for l in range(n):
        a = params.diag[l]
        if a:
            total += Fraction(a * i[l] * carry(j[l], k[l], orders[l]), orders[l])
    for idx, (s, t) in enumerate(pair_indices(n)):
        a = params.pairs[idx]
        if a:
            total += Fraction(a * i[t] * carry(j[s], k[s], orders[s]), orders[t])
    for idx, (r, s, t) in enumerate(triple_indices(n)):
        a = params.triples[idx]
        if a:
            d = math.gcd(math.gcd(orders[r], orders[s]), orders[t])
            total -= Fraction(a * k[r] * j[s] * i[t], d)
    return Root(total)


def _int_dtype(bound: int):
    """int64 when every value and sum stays below bound, exact Python ints else."""
    return np.int64 if bound < 2 ** 63 else object


class CocycleTable:
    """Explicit function on G^3 as a tuple of roots of unity.

    Index layout: ((ix * N) + iy) * N + iz with N = |G| and element indices
    in lexicographic exponent order.  Construction does not require the
    values to satisfy any identity; the verify_* functions decide that, on
    the integer form that exponents() gives.
    """

    __slots__ = ("group", "values", "_exponents")

    def __init__(self, group: Group, values):
        values = tuple(values)
        n = group.order
        if len(values) != n ** 3:
            raise ValueError(f"need {n ** 3} values for |G| = {n}, got {len(values)}")
        self.group = group
        self.values = values
        self._exponents = None

    def exponents(self):
        """(L, w): the values as integer numerators mod their common denominator L.

        w is a read-only array of shape (N, N, N) in the cell layout.  Its
        dtype is int64 when the verifiers' sums of five cells fit, Python
        ints otherwise.  Computed once per table.
        """
        if self._exponents is None:
            fracs = [v.exponent for v in self.values]
            L = math.lcm(*(f.denominator for f in fracs))
            n = self.group.order
            w = np.array([f.numerator * (L // f.denominator) for f in fracs],
                         dtype=_int_dtype(5 * L)).reshape(n, n, n)
            w.setflags(write=False)
            self._exponents = (L, w)
        return self._exponents

    def value(self, x, y, z) -> Root:
        g = self.group
        return self.values[(g.element_index(x) * g.order + g.element_index(y))
                           * g.order + g.element_index(z)]

    def __mul__(self, other):
        if self.group != other.group:
            raise ValueError("tables live over different groups")
        return CocycleTable(self.group,
                            [a * b for a, b in zip(self.values, other.values)])

    def __truediv__(self, other):
        if self.group != other.group:
            raise ValueError("tables live over different groups")
        return CocycleTable(self.group,
                            [a / b for a, b in zip(self.values, other.values)])

    def __eq__(self, other):
        return (isinstance(other, CocycleTable) and self.group == other.group
                and self.values == other.values)


def build_table(params: CocycleParams, max_cells: int = 10 ** 6) -> CocycleTable:
    """Tabulate the cocycle over all of G^3; refuses above max_cells entries."""
    group = params.group
    size = group.order ** 3
    if size > max_cells:
        raise ValueError(f"table would need {size} cells, above the {max_cells} bound")
    values = [eval_cocycle(params, x, y, z)
              for x in group.elements()
              for y in group.elements()
              for z in group.elements()]
    return CocycleTable(group, values)


def _first_witness(group: Group, bad):
    """The elements at the first True cell of bad in C order, or None."""
    if not bad.any():
        return None
    return tuple(group.from_index(int(i))
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


def params_from_doc(doc: dict) -> CocycleParams:
    group = Group(tuple(doc["orders"]))
    n = group.rank
    diag = tuple(doc["a"])
    a2 = doc.get("a2", {})
    a3 = doc.get("a3", {})
    pairs = tuple(int(a2.get(f"{s + 1},{t + 1}", 0)) for s, t in pair_indices(n))
    triples = tuple(int(a3.get(f"{r + 1},{s + 1},{t + 1}", 0))
                    for r, s, t in triple_indices(n))
    return CocycleParams(group, diag, pairs, triples)


def params_from_json(text: str) -> CocycleParams:
    return params_from_doc(json.loads(text))


def table_to_doc(table: CocycleTable) -> dict:
    group = table.group
    entries = []
    idx = 0
    for x in group.elements():
        for y in group.elements():
            for z in group.elements():
                v = table.values[idx]
                idx += 1
                if not v.is_one():
                    entries.append({"x": list(x.exps), "y": list(y.exps),
                                    "z": list(z.exps), "w": str(v)})
    return {"orders": list(group.orders), "entries": entries}


def table_to_json(table: CocycleTable) -> str:
    return json.dumps(table_to_doc(table))


def _int_list(value, what):
    """value as a tuple of ints if it is a JSON list of integers, else ValueError."""
    if not (isinstance(value, list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def table_from_doc(doc: dict) -> CocycleTable:
    """Read a table document; ValueError when its shape is not the table schema."""
    if not isinstance(doc, dict):
        raise ValueError(f"a table must be a JSON object, got {type(doc).__name__}")
    group = Group(_int_list(doc.get("orders"), '"orders"'))
    n = group.order
    if n ** 3 > 10 ** 6:
        raise ValueError("a table needs |G|^3 cells; above 10^6 (|G| > 100) is refused")
    values = [Root.one()] * (n ** 3)
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f'"entries" must be a list, got {type(entries).__name__}')
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"a table entry must be an object, got {entry!r}")
        x, y, z = (group.element(_int_list(entry.get(k), f'entry "{k}"'))
                   for k in ("x", "y", "z"))
        if "w" not in entry:
            raise ValueError(f'a table entry has no "w": {entry!r}')
        pos = (group.element_index(x) * n + group.element_index(y)) * n \
            + group.element_index(z)
        values[pos] = Root.parse(entry["w"])
    return CocycleTable(group, values)


def table_from_json(text: str) -> CocycleTable:
    return table_from_doc(json.loads(text))
