"""Degree-3 cohomology over a finite abelian group, on both complexes.

Tensor side: cochains live on the finitely many degree-3 generators of the
small complex, so the cocycle and coboundary conditions collapse to power
equations on roots of unity (solved exactly through the Q/Z linear algebra
in intlinalg).  Bar side: a table on G^3 is a coboundary iff an explicit
linear system over Q/Z in the unknowns b(x,y) is solvable.  Classification
composes the two: a normalized cocycle table on G^3 is pulled back through
the comparison map psi_3 to a tensor cocycle, whose class is then read off
in closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cocycles import (CocycleParams, CocycleTable, pair_indices,
                       triple_indices, verify_normalized, verify_pentagon)
from .complexes import tensor_to_bar_cells
from .groups import Group
from .intlinalg import smith_normal_form, solve_mod1, solve_with_snf
from .roots import Root, canonical_root


@dataclass(frozen=True)
class TensorCochain3:
    """Root-of-unity values on the degree-3 generators of the small complex.

    diag[l] is the value on the index with 3 in slot l; iij and ijj are
    aligned with the lexicographic pair list (i < j), carrying the values on
    (2 in i, 1 in j) resp. (1 in i, 2 in j); rst is aligned with the
    lexicographic triple list.
    """

    group: Group
    diag: tuple
    iij: tuple
    ijj: tuple
    rst: tuple

    def __post_init__(self):
        object.__setattr__(self, "diag", tuple(self.diag))
        object.__setattr__(self, "iij", tuple(self.iij))
        object.__setattr__(self, "ijj", tuple(self.ijj))
        object.__setattr__(self, "rst", tuple(self.rst))
        n = self.group.rank
        np_, nt = len(pair_indices(n)), len(triple_indices(n))
        if len(self.diag) != n or len(self.iij) != np_ \
                or len(self.ijj) != np_ or len(self.rst) != nt:
            raise ValueError("value tuples do not match the index sets of the group")

    def value(self, index) -> Root:
        """Value on one degree-3 multi-index of the small complex."""
        index = tuple(index)
        n = self.group.rank
        if len(index) != n or sum(index) != 3 or any(a < 0 for a in index):
            raise ValueError(f"not a degree-3 multi-index: {index}")
        support = [(pos, a) for pos, a in enumerate(index) if a]
        if len(support) == 1:
            return self.diag[support[0][0]]
        if len(support) == 2:
            (i, ai), (j, aj) = support
            k = pair_indices(n).index((i, j))
            return self.iij[k] if ai == 2 else self.ijj[k]
        r, s, t = (pos for pos, _ in support)
        return self.rst[triple_indices(n).index((r, s, t))]

    def __mul__(self, other):
        if self.group != other.group:
            raise ValueError("cochains live over different groups")
        return TensorCochain3(
            self.group,
            tuple(a * b for a, b in zip(self.diag, other.diag)),
            tuple(a * b for a, b in zip(self.iij, other.iij)),
            tuple(a * b for a, b in zip(self.ijj, other.ijj)),
            tuple(a * b for a, b in zip(self.rst, other.rst)))

    def __truediv__(self, other):
        if self.group != other.group:
            raise ValueError("cochains live over different groups")
        return TensorCochain3(
            self.group,
            tuple(a / b for a, b in zip(self.diag, other.diag)),
            tuple(a / b for a, b in zip(self.iij, other.iij)),
            tuple(a / b for a, b in zip(self.ijj, other.ijj)),
            tuple(a / b for a, b in zip(self.rst, other.rst)))


def all_ones_cochain(group: Group) -> TensorCochain3:
    n = group.rank
    one = Root.one()
    return TensorCochain3(group, (one,) * n,
                          (one,) * len(pair_indices(n)),
                          (one,) * len(pair_indices(n)),
                          (one,) * len(triple_indices(n)))


@dataclass(frozen=True)
class CoboundaryWitness2:
    """One root of unity per factor pair i < j, defining a degree-2 coboundary."""

    group: Group
    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if len(self.pairs) != len(pair_indices(self.group.rank)):
            raise ValueError("need one witness value per factor pair")

    def value(self, i, j) -> Root:
        return self.pairs[pair_indices(self.group.rank).index((i, j))]


def trivial_witness(group: Group) -> CoboundaryWitness2:
    return CoboundaryWitness2(group, (Root.one(),) * len(pair_indices(group.rank)))


def tensor_coboundary(witness: CoboundaryWitness2) -> TensorCochain3:
    """The degree-3 cochain with iij component g^(m_i) and ijj component g^(-m_j)."""
    group = witness.group
    n = group.rank
    orders = group.orders
    one = Root.one()
    iij = tuple(witness.pairs[k] ** orders[i]
                for k, (i, j) in enumerate(pair_indices(n)))
    ijj = tuple(witness.pairs[k] ** (-orders[j])
                for k, (i, j) in enumerate(pair_indices(n)))
    return TensorCochain3(group, (one,) * n, iij, ijj,
                          (one,) * len(triple_indices(n)))


def is_tensor_cocycle(f: TensorCochain3):
    """None when every closure equation holds, else a string naming the first failure.

    The equations, scanned diagonal then pairs then triples: the diagonal
    value has order dividing m_i; per pair, f_ijj^(m_i) * f_iij^(m_j) = 1;
    per triple, the value is killed by each of the three orders.
    """
    orders = f.group.orders
    n = f.group.rank
    for l in range(n):
        if not (f.diag[l] ** orders[l]).is_one():
            return f"f[{l + 1},{l + 1},{l + 1}]^{orders[l]} != 1"
    for k, (i, j) in enumerate(pair_indices(n)):
        if not (f.ijj[k] ** orders[i] * f.iij[k] ** orders[j]).is_one():
            return (f"f[{i + 1},{j + 1},{j + 1}]^{orders[i]} * "
                    f"f[{i + 1},{i + 1},{j + 1}]^{orders[j]} != 1")
    for k, (r, s, t) in enumerate(triple_indices(n)):
        for m, label in ((orders[r], r), (orders[s], s), (orders[t], t)):
            if not (f.rst[k] ** m).is_one():
                return f"f[{r + 1},{s + 1},{t + 1}]^{orders[label]} != 1"
    return None


def is_tensor_coboundary(f: TensorCochain3):
    """A CoboundaryWitness2 with coboundary f, or None when there is none.

    Requires trivial diagonal and triple components; per pair the two power
    equations g^(m_i) = f_iij, g^(-m_j) = f_ijj are solved simultaneously
    over Q/Z.
    """
    group = f.group
    orders = group.orders
    n = group.rank
    if any(not v.is_one() for v in f.diag):
        return None
    if any(not v.is_one() for v in f.rst):
        return None
    witness = []
    for k, (i, j) in enumerate(pair_indices(n)):
        sol = solve_mod1([[orders[i]], [-orders[j]]], [f.iij[k], f.ijj[k]])
        if sol is None:
            return None
        witness.append(sol[0])
    return CoboundaryWitness2(group, tuple(witness))


def h3_order(group: Group) -> int:
    """Size of the degree-3 cohomology group, as a product of gcds."""
    orders = group.orders
    n = group.rank
    total = math.prod(orders)
    for i, j in pair_indices(n):
        total *= math.gcd(orders[i], orders[j])
    for r, s, t in triple_indices(n):
        total *= math.gcd(math.gcd(orders[r], orders[s]), orders[t])
    return total


def representative_cochain(a: CocycleParams) -> TensorCochain3:
    """The canonical cocycle on the small complex for one parameter choice."""
    group = a.group
    orders = group.orders
    n = group.rank
    diag = tuple(Root.of(a.diag[l], orders[l]) for l in range(n))
    iij = tuple(Root.of(a.pairs[k], orders[j])
                for k, (i, j) in enumerate(pair_indices(n)))
    ijj = (Root.one(),) * len(pair_indices(n))
    rst = tuple(Root.of(a.triples[k],
                        math.gcd(math.gcd(orders[r], orders[s]), orders[t]))
                for k, (r, s, t) in enumerate(triple_indices(n)))
    return TensorCochain3(group, diag, iij, ijj, rst)


def reduce_to_normal_form(f: TensorCochain3):
    """Parameters a and witness W with f = representative(a) * coboundary(W).

    Raises ValueError when f is not a cocycle.  Per pair: W starts as the
    m_j-th root of the inverse ijj component (clearing ijj), the remaining
    iij exponent is then reduced modulo gcd(m_i, m_j) by a further root of
    unity of order dividing m_j.
    """
    violation = is_tensor_cocycle(f)
    if violation is not None:
        raise ValueError(f"not a cocycle: {violation}")
    group = f.group
    orders = group.orders
    n = group.rank

    diag = tuple(int(f.diag[l].exponent * orders[l]) for l in range(n))

    pairs = []
    witness = []
    for k, (i, j) in enumerate(pair_indices(n)):
        mi, mj = orders[i], orders[j]
        g0 = canonical_root(f.ijj[k].inv(), mj)
        v = f.iij[k] * g0 ** (-mi)
        # closure forces v^(m_j) = 1
        c = int(v.exponent * mj)
        d = math.gcd(mi, mj)
        a_ij = c % d
        e = (pow(mi // d, -1, mj // d) * ((c - a_ij) // d)) % (mj // d)
        pairs.append(a_ij)
        witness.append(g0 * Root.of(e, mj))

    triples = []
    for k, (r, s, t) in enumerate(triple_indices(n)):
        d = math.gcd(math.gcd(orders[r], orders[s]), orders[t])
        triples.append(int(f.rst[k].exponent * d) % d)

    return (CocycleParams(group, diag, tuple(pairs), tuple(triples)),
            CoboundaryWitness2(group, tuple(witness)))


@lru_cache(maxsize=32)
def _bar_system(orders: tuple):
    """Exponent-linear system for "is this G^3 table a coboundary".

    Unknowns: b(x,y) for non-identity x, y.  One row per non-identity
    triple; rows and columns in lexicographic element order.  Equations at
    triples with an identity argument are identically zero on both sides for
    normalized inputs, so they are omitted.
    """
    group = Group(orders)
    nonid = [x for x in group.elements() if not x.is_identity()]
    col = {(p, q): idx for idx, (p, q) in
           enumerate(itertools.product(nonid, nonid))}
    rows = []
    triples = []
    for x, y, z in itertools.product(nonid, repeat=3):
        row = [0] * len(col)
        row[col[(y, z)]] += 1
        xy = x * y
        if not xy.is_identity():
            row[col[(xy, z)]] -= 1
        yz = y * z
        if not yz.is_identity():
            row[col[(x, yz)]] += 1
        row[col[(x, y)]] -= 1
        rows.append(row)
        triples.append((x, y, z))
    return smith_normal_form(rows), triples, list(col)


def bar_coboundary_table(group: Group, b: dict) -> CocycleTable:
    """Table of the coboundary of a normalized 2-cochain given on G x G."""
    one = Root.one()

    def val(p, q):
        if p.is_identity() or q.is_identity():
            return one
        return b[(p, q)]

    values = []
    for x in group.elements():
        for y in group.elements():
            xy = x * y
            for z in group.elements():
                values.append(val(y, z) * val(xy, z).inv()
                              * val(x, y * z) * val(x, y).inv())
    return CocycleTable(group, values)


def is_bar_coboundary(t: CocycleTable, max_group_order: int = 12):
    """A normalized 2-cochain b with coboundary t, or None.

    t must be a normalized cocycle table; the witness is verified by
    substitution before being returned.  Groups above max_group_order are
    refused, the system grows as |G|^3 x |G|^2.
    """
    group = t.group
    if group.order > max_group_order:
        raise ValueError(
            f"group order {group.order} above the {max_group_order} bound")
    snf, triples, cols = _bar_system(group.orders)
    rhs = [t.value(x, y, z) for x, y, z in triples]
    sol = solve_with_snf(snf, rhs)
    if sol is None:
        return None
    witness = {}
    for x in group.elements():
        for y in group.elements():
            if x.is_identity() or y.is_identity():
                witness[(x, y)] = Root.one()
    for (p, q), v in zip(cols, sol):
        witness[(p, q)] = v
    if bar_coboundary_table(group, witness) != t:
        raise ValueError("table is not a normalized cocycle")
    return witness


def pullback_to_tensor(t: CocycleTable) -> TensorCochain3:
    """The tensor 3-cochain t o psi_3, read off the cells of the table.

    Each degree-3 generator takes the sum of the exponents of the cells in
    its psi_3 image, weighted by their multiplicities.  For a normalized
    cocycle table the result is a tensor cocycle in the same class.
    """
    group = t.group
    n = group.rank
    L, w = t.exponents()
    flat = w.reshape(-1).tolist()
    values = [Root(Fraction(sum(m * flat[cell] for cell, m in cells), L))
              for cells in tensor_to_bar_cells(group.orders)]
    np_ = len(pair_indices(n))
    return TensorCochain3(group, values[:n], values[n:n + np_],
                          values[n + np_:n + 2 * np_], values[n + 2 * np_:])


def classify(t: CocycleTable, verify_unique: bool = False) -> CocycleParams:
    """The unique parameter choice whose canonical cocycle is cohomologous to t.

    t must be a normalized cocycle: normalization and then the pentagon over
    G^4 are checked, and a failure raises LookupError.  t is pulled back
    through psi_3 to a tensor cocycle, and reduce_to_normal_form reads its
    class off in closed form.  Uniqueness holds by construction: the normal
    form is a function of the class, and distinct canonical classes are
    never cohomologous (acceptance criterion 4), so verify_unique changes
    nothing and is kept for callers that ask for the check.
    """
    witness = verify_normalized(t)
    if witness is not None:
        raise LookupError("input is not normalized: the value at "
                          f"{tuple(e.exps for e in witness)} is not 1")
    witness = verify_pentagon(t)
    if witness is not None:
        raise LookupError("input is not a cocycle: the pentagon fails at "
                          f"{tuple(e.exps for e in witness)}")
    params, _ = reduce_to_normal_form(pullback_to_tensor(t))
    return params
