"""Canonical 3-cocycles on a finite abelian group and their coherence checks.

A parameter choice assigns one exponent to each cyclic factor, each ordered
pair of factors, and each ordered triple of factors, bounded by the factor
order resp. the gcd of the orders involved.  Evaluating the closed-form
associator at a parameter choice gives an exact root of unity for every
triple of group elements; the verifiers below confirm (or refute, with a
witness) the pentagon identity, normalization, and symmetry in the last two
arguments over the whole cube of triples.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

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


class CocycleTable:
    """Explicit function on G^3 stored as a flat list of roots of unity.

    Index layout: ((ix * N) + iy) * N + iz with N = |G| and element indices
    in lexicographic exponent order.  Construction does not require the
    values to satisfy any identity; the verify_* functions decide that.
    """

    __slots__ = ("group", "values")

    def __init__(self, group: Group, values):
        values = list(values)
        n = group.order
        if len(values) != n ** 3:
            raise ValueError(f"need {n ** 3} values for |G| = {n}, got {len(values)}")
        self.group = group
        self.values = values

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


def _int_encode(table: CocycleTable):
    # common denominator turns every check into integer arithmetic mod L
    L = 1
    for v in table.values:
        L = L * v.exponent.denominator // math.gcd(L, v.exponent.denominator)
    w = [int(v.exponent * L) for v in table.values]
    return L, w


def _mul_index(group: Group):
    n = group.order
    elems = list(group.elements())
    out = [0] * (n * n)
    for a in range(n):
        for b in range(n):
            out[a * n + b] = group.element_index(elems[a] * elems[b])
    return out


def verify_pentagon(table: CocycleTable):
    """None if the pentagon identity holds on all of G^4, else the first failure."""
    group = table.group
    n = group.order
    L, w = _int_encode(table)
    mul = _mul_index(group)
    elems = list(group.elements())
    for e in range(n):
        for f in range(n):
            ef = mul[e * n + f]
            for g in range(n):
                fg = mul[f * n + g]
                wefg = w[(e * n + f) * n + g]
                for h in range(n):
                    gh = mul[g * n + h]
                    lhs = w[(ef * n + g) * n + h] + w[(e * n + f) * n + gh]
                    rhs = wefg + w[(e * n + fg) * n + h] + w[(f * n + g) * n + h]
                    if (lhs - rhs) % L:
                        return (elems[e], elems[f], elems[g], elems[h])
    return None


def verify_normalized(table: CocycleTable):
    """None if the value is 1 whenever an argument is the identity, else a witness."""
    group = table.group
    n = group.order
    elems = list(group.elements())
    for ix in range(n):
        for iy in range(n):
            for iz in range(n):
                if ix and iy and iz:
                    continue
                if not table.values[(ix * n + iy) * n + iz].is_one():
                    return (elems[ix], elems[iy], elems[iz])
    return None


def verify_symmetry_last_two(table: CocycleTable):
    """None if the value is unchanged under swapping the last two arguments."""
    group = table.group
    n = group.order
    elems = list(group.elements())
    for ix in range(n):
        for iy in range(n):
            for iz in range(iy + 1, n):
                if table.values[(ix * n + iy) * n + iz] != table.values[(ix * n + iz) * n + iy]:
                    return (elems[ix], elems[iy], elems[iz])
    return None


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


def table_from_doc(doc: dict) -> CocycleTable:
    """Read a table document; ValueError when its shape is not the table schema."""
    if not isinstance(doc, dict):
        raise ValueError(f"a table must be a JSON object, got {type(doc).__name__}")
    group = Group(tuple(doc["orders"]))
    n = group.order
    values = [Root.one()] * (n ** 3)
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f'"entries" must be a list, got {type(entries).__name__}')
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"a table entry must be an object, got {entry!r}")
        x = group.element(tuple(entry["x"]))
        y = group.element(tuple(entry["y"]))
        z = group.element(tuple(entry["z"]))
        pos = (group.element_index(x) * n + group.element_index(y)) * n \
            + group.element_index(z)
        values[pos] = Root.parse(entry["w"])
    return CocycleTable(group, values)


def table_from_json(text: str) -> CocycleTable:
    return table_from_doc(json.loads(text))
