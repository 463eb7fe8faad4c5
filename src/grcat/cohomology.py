"""Degree-3 cohomology over a finite abelian group, on both complexes.

Tensor side: cochains (cocycles.TensorCochain3) live on the finitely many
degree-3 generators of the small complex, as integer numerators over one
common denominator, so the cocycle condition is a divisibility test per
generator and the normal form of a class is read off in closed form;
is_tensor_coboundary decides coboundaries independently through the Q/Z
linear algebra in intlinalg.  Bar side: a table on G^3 is a coboundary iff
an explicit linear system over Q/Z in the unknowns b(x,y) is solvable.
Classification composes the two: a normalized cocycle table on G^3 is
pulled back through the comparison map psi_3 to a tensor cocycle, whose
class is then read off in closed form.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import MutableMapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# representative_cochain is not used here; callers import it from this module too
from .cocycles import (CocycleParams, CocycleTable, TensorCochain3, _Exponents, _power_product,
                       degree3_indices, pair_indices, representative_cochain, slot_moduli,
                       triple_indices, verify_normalized, verify_pentagon)
from .complexes import bar_boundary_cells, tensor_to_bar_cells
from .groups import Group
from .intlinalg import (_int_dtype, _rank_solution, _sparse_smith_normal_form,
                        smith_normal_form, solve_exponents)
from .roots import Root, _common_denominator, _root


def all_ones_cochain(group: Group) -> TensorCochain3:
    return TensorCochain3._from_exponents(group, 1, [0] * len(degree3_indices(group.rank)))


@dataclass(frozen=True, init=False, repr=False)
class CoboundaryWitness2(_Exponents):
    """One root of unity per factor pair i < j, defining a degree-2 coboundary.

    Held as TensorCochain3 holds its values, in pair_indices order; pairs,
    a tuple of Root, is built on each access.  It never equals a cochain.
    """

    def __init__(self, group: Group, pairs):
        pairs = tuple(pairs)
        if len(pairs) != len(pair_indices(group.rank)):
            raise ValueError("need one witness value per factor pair")
        for (i, j), v in zip(pair_indices(group.rank), pairs):
            if not isinstance(v, Root):
                raise ValueError(f"witness value {v!r} for factors ({i}, {j}) must be a Root")
        self._assign(group, *_common_denominator(pairs))

    @property
    def pairs(self):
        return tuple(_root(k, self._L) for k in self._nums)

    def value(self, i, j) -> Root:
        return _root(self._nums[pair_indices(self.group.rank).index((i, j))], self._L)

    def __repr__(self):
        return f"CoboundaryWitness2(group={self.group!r}, pairs={self.pairs!r})"


def trivial_witness(group: Group) -> CoboundaryWitness2:
    return CoboundaryWitness2(group, (Root.one(),) * len(pair_indices(group.rank)))


def tensor_coboundary(witness: CoboundaryWitness2) -> TensorCochain3:
    """The degree-3 cochain with iij component g^(m_i) and ijj component g^(-m_j)."""
    group = witness.group
    n = group.rank
    orders = group.orders
    pairs = pair_indices(n)
    L, ws = witness.exponents()
    return TensorCochain3._from_exponents(
        group, L, [0] * n + [w * orders[i] for w, (i, _) in zip(ws, pairs)]
        + [-w * orders[j] for w, (_, j) in zip(ws, pairs)] + [0] * len(triple_indices(n)))


def is_tensor_cocycle(f: TensorCochain3):
    """None when every closure equation holds, else a string naming the first failure.

    The equations, scanned diagonal then pairs then triples: the diagonal
    value has order dividing m_i; per pair, f_ijj^(m_i) * f_iij^(m_j) = 1;
    per triple, the value is killed by each of the three orders.  On the
    numerators over L each is a divisibility by L.
    """
    orders = f.group.orders
    n = f.group.rank
    L, _ = f.exponents()
    diag, iij, ijj, rst = f._blocks()
    for l, (v, m) in enumerate(zip(diag, orders)):
        if v * m % L:
            return f"f[{l + 1},{l + 1},{l + 1}]^{m} != 1"
    for (i, j), a, b in zip(pair_indices(n), iij, ijj):
        if (b * orders[i] + a * orders[j]) % L:
            return (f"f[{i + 1},{j + 1},{j + 1}]^{orders[i]} * "
                    f"f[{i + 1},{i + 1},{j + 1}]^{orders[j]} != 1")
    for (r, s, t), v in zip(triple_indices(n), rst):
        for m in (orders[r], orders[s], orders[t]):
            if v * m % L:
                return f"f[{r + 1},{s + 1},{t + 1}]^{m} != 1"
    return None


@lru_cache(maxsize=256)
def _pair_system(mi: int, mj: int):
    """Smith decomposition of the pair equations g^(m_i) = a, g^(-m_j) = b."""
    return smith_normal_form([[mi], [-mj]])


def is_tensor_coboundary(f: TensorCochain3):
    """A CoboundaryWitness2 with coboundary f, or None when there is none.

    Requires trivial diagonal and triple components; per pair the two power
    equations g^(m_i) = f_iij, g^(-m_j) = f_ijj are solved simultaneously
    over Q/Z, on f's numerators, through one cached decomposition per pair
    of orders; the witness is held over M = L * lcm(orders).
    """
    group = f.group
    orders = group.orders
    L, _ = f.exponents()
    diag, iij, ijj, rst = f._blocks()
    if any(diag) or any(rst):
        return None
    M = L * math.lcm(*orders)
    witness = []
    for (i, j), a, b in zip(pair_indices(group.rank), iij, ijj):
        sol = solve_exponents(_pair_system(orders[i], orders[j]), L, [a, b])
        if sol is None:
            return None
        den, (k,) = sol
        witness.append(k * (M // den))
    return CoboundaryWitness2._from_exponents(group, M, witness)


def h3_order(group: Group) -> int:
    """Size of the degree-3 cohomology group, as a product of gcds."""
    return _power_product(slot_moduli(group.orders))


def reduce_to_normal_form(f: TensorCochain3):
    """Parameters a and witness W with f = representative(a) * coboundary(W).

    Raises ValueError when f is not a cocycle.  Per pair: W starts as the
    m_j-th root g0 = exp(2 pi i u/(L m_j)) of the inverse ijj component
    exp(2 pi i u/L) (clearing ijj), the remaining iij exponent is then
    reduced modulo gcd(m_i, m_j) by a further root of unity of order
    dividing m_j.  W is held over M = L * lcm(orders), a multiple of L * m_j.
    """
    violation = is_tensor_cocycle(f)
    if violation is not None:
        raise ValueError(f"not a cocycle: {violation}")
    group = f.group
    orders = group.orders
    n = group.rank
    moduli = slot_moduli(orders)
    L, _ = f.exponents()
    diag, iij, ijj, rst = f._blocks()
    M = L * math.lcm(*orders)

    pairs = []
    witness = []
    for (i, j), d, a, b in zip(pair_indices(n), moduli[n:], iij, ijj):
        mi, mj = orders[i], orders[j]
        u = -b % L
        # f_iij g0^(-m_i) has exponent c/m_j, an integer c by closure
        c = (a * mj - mi * u) % (L * mj) // L
        a_ij = c % d
        e = (pow(mi // d, -1, mj // d) * ((c - a_ij) // d)) % (mj // d)
        pairs.append(a_ij)
        witness.append((u + e * L) * (M // (L * mj)))

    return (CocycleParams(group, tuple(v * m // L for v, m in zip(diag, orders)),
                          tuple(pairs),
                          tuple(v * d // L for v, d in zip(rst, moduli[n + len(pairs):]))),
            CoboundaryWitness2._from_exponents(group, M, witness))


@lru_cache(maxsize=32)
def _bar_system(orders: tuple):
    """Smith decomposition of the system "is this G^3 table a coboundary".

    Unknowns: b(x,y) for non-identity x, y, one column per pair.  One row per
    non-identity triple, read off its augmented boundary (bar_boundary_cells).
    Rows and columns run in C order of the element indices, so the rows
    follow the cells of w[1:, 1:, 1:] and the columns those of b[1:, 1:].
    Equations at triples with an identity argument are identically zero on
    both sides for normalized inputs, so they are omitted.
    """
    return _sparse_smith_normal_form(bar_boundary_cells(orders), (math.prod(orders) - 1) ** 2)


def _bar_coboundary(group: Group, L: int, nums) -> CocycleTable:
    """The table of db, for b given by its numerators over L on the
    non-identity pairs in C order of the element indices."""
    N = group.order
    B = np.zeros((N, N), dtype=_int_dtype(5 * L))
    B[1:, 1:] = np.array(nums, dtype=B.dtype).reshape(N - 1, N - 1)
    mul = group.mul_table()
    x = np.arange(N)[:, None, None]
    w = B[None] - B[mul] + B[x, mul] - B[:, :, None]
    return CocycleTable._from_exponents(group, L, w % L)


@lru_cache(maxsize=32)
def _witness_keys(group: Group):
    """The pairs of G x G in BarWitness order, and each pair's position:
    the identity row, then the identity column, then the non-identity pairs
    in C order of the element indices."""
    elems = group.elements()
    e, rest = elems[0], elems[1:]
    keys = (*((e, y) for y in elems), *((x, e) for x in rest),
            *itertools.product(rest, repeat=2))
    return keys, {key: p for p, key in enumerate(keys)}


class BarWitness(MutableMapping):
    """A normalized 2-cochain b on G x G, as the mapping {(x, y): Root}
    that is_bar_coboundary returns.

    It holds integer numerators over one denominator, one per pair in key
    order (the identity row, the identity column, then the non-identity
    pairs in C order), and reads a value's Root through roots._root.  It
    compares equal to, and prints as, the dict of its items.  Writes keep
    the numerators exact: a Root whose denominator does not divide den
    rescales every numerator to the lcm.  Only Root values are taken
    (ValueError), only the |G|^2 pairs of its group are keys (KeyError),
    and no key can be deleted (TypeError).
    """

    __slots__ = ("group", "den", "nums")

    def __init__(self, group: Group, den: int, nums: list):
        self.group, self.den, self.nums = group, den, nums

    def __getitem__(self, key) -> Root:
        return _root(self.nums[_witness_keys(self.group)[1][key]], self.den)

    def __setitem__(self, key, value):
        p = _witness_keys(self.group)[1][key]
        den, (num,) = _common_denominator([value], "witness value", self.den)
        if den != self.den:
            self.den, self.nums = den, [k * (den // self.den) for k in self.nums]
        self.nums[p] = num

    def __delitem__(self, key):
        raise TypeError("a bar witness is defined on every pair of G x G; "
                        "its keys cannot be deleted")

    def __iter__(self):
        return iter(_witness_keys(self.group)[0])

    def __len__(self):
        return len(self.nums)

    def __repr__(self):
        return repr(dict(self.items()))

    def copy(self) -> "BarWitness":
        return BarWitness(self.group, self.den, list(self.nums))

    __copy__ = copy


def bar_coboundary_table(group: Group, b) -> CocycleTable:
    """Table of the coboundary of a normalized 2-cochain given on G x G.

    (db)(x, y, z) = b(y, z) b(xy, z)^-1 b(x, yz) b(x, y)^-1, with b read on
    pairs of non-identity elements and 1 on the others.  b is any mapping
    from element pairs to Root; a BarWitness over the same group is read
    off its numerators, without building a Root.
    """
    if type(b) is BarWitness and b.group == group:
        return _bar_coboundary(group, b.den, b.nums[2 * group.order - 1:])
    elems = group.elements()
    return _bar_coboundary(group, *_common_denominator(
        [b[(p, q)] for p in elems[1:] for q in elems[1:]], "witness value"))


def _bar_solve(t: CocycleTable, max_group_order: int):
    """is_bar_coboundary on numerators: (den, nums) for b on the
    non-identity pairs in C order, or None; the same ValueErrors.

    b is the rank solution of the bar system, which solves the system
    whenever it is solvable.  So when db differs from t, it agrees with t on
    the system's cells (the non-identity triples) exactly when the system is
    solvable, and the two outcomes are told apart there.
    """
    group = t.group
    if group.order > max_group_order:
        raise ValueError(
            f"group order {group.order} above the {max_group_order} bound")
    L, w = t.exponents()
    den, nums = _rank_solution(_bar_system(group.orders), L, w[1:, 1:, 1:].reshape(-1))
    db = _bar_coboundary(group, den, nums)
    if db != t:
        if (db / t).exponents()[1][1:, 1:, 1:].any():
            return None
        raise ValueError("table is not a normalized cocycle")
    return den, nums


def is_bar_coboundary(t: CocycleTable, max_group_order: int = 12):
    """A normalized 2-cochain b with coboundary t, as a BarWitness, or None.

    Groups above max_group_order are refused, the system grows as |G|^3 x
    |G|^2.  The solve proves by substitution: b is read off the rank rows of
    the bar system's Smith decomposition, and db == t is the proof that t is
    a coboundary, so b is returned.  That b solves the system whenever the
    system is solvable (the decomposition checks the two facts this rests
    on), so when the substitution fails the system's cells decide: if db
    differs from t there, the system has no solution and the answer is
    None; if not, t differs from db only off the system's cells, so t is not
    a normalized cocycle and ValueError is raised.  The zero rows of u are
    never read.  The witness keeps b's numerators: its Roots are built when
    read, and bar_coboundary_table takes the numerators as they are.
    """
    sol = _bar_solve(t, max_group_order)
    if sol is None:
        return None
    den, nums = sol
    return BarWitness(t.group, den, [0] * (2 * t.group.order - 1) + nums)


def pullback_to_tensor(t: CocycleTable) -> TensorCochain3:
    """The tensor 3-cochain t o psi_3, read off the cells of the table.

    Each degree-3 generator takes the sum of the exponents of the cells in
    its psi_3 image, weighted by their multiplicities.  For a normalized
    cocycle table the result is a tensor cocycle in the same class.
    """
    L, w = t.exponents()
    flat = w.reshape(-1).tolist()
    return TensorCochain3._from_exponents(t.group, L, [
        sum(m * flat[cell] for cell, m in cells)
        for cells in tensor_to_bar_cells(t.group.orders)])


def classify(t: CocycleTable) -> CocycleParams:
    """The unique parameter choice whose canonical cocycle is cohomologous to t.

    t must be a normalized cocycle: normalization and then the pentagon over
    G^4 are checked, and a failure raises LookupError.  t is pulled back
    through psi_3 to a tensor cocycle, whose normal form
    (reduce_to_normal_form, its witness dropped) reads the class off in
    closed form.  The answer is unique by
    construction: the normal form is a function of the class, and distinct
    canonical classes are never cohomologous (acceptance criterion 4).
    """
    witness = verify_normalized(t)
    if witness is not None:
        raise LookupError("input is not normalized: the value at "
                          f"{tuple(e.exps for e in witness)} is not 1")
    witness = verify_pentagon(t)
    if witness is not None:
        raise LookupError("input is not a cocycle: the pentagon fails at "
                          f"{tuple(e.exps for e in witness)}")
    return reduce_to_normal_form(pullback_to_tensor(t))[0]
