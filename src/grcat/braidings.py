"""Commutativity data compatible with a chosen associativity cocycle.

A braiding is determined by its values on pairs of generators, an n x n
matrix of roots of unity extended to all of G x G by a product formula.
Existence depends only on the cocycle parameters (an exact congruence per
diagonal entry, vanishing of every pair and triple parameter); when
solvable, the full finite solution set is enumerated in closed form.  Two
brute-force searches act as oracles: one over the provably sufficient grid
of candidate matrices, one over every function G x G -> mu_N whatsoever.
Both hexagons are affine-linear in a candidate's grid digits, so both
oracles filter their grid through the distinct linear forms of the hexagons;
verify_hexagons reads the same residual kernel on one braiding's table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cocycles import (CocycleParams, _first_witness, _power_product, build_table,
                       pair_indices, triple_indices)
from .groups import Group, GroupElement
from .intlinalg import _int_dtype
from .roots import Root, _common_denominator, _root


@dataclass(frozen=True)
class QuasiBicharacter:
    """Generator-pair values r[i][j] = R(g_i, g_j), an n x n matrix of roots."""

    group: Group
    r: tuple

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(tuple(row) for row in self.r))
        n = self.group.rank
        if len(self.r) != n or any(len(row) != n for row in self.r):
            raise ValueError(f"need an {n} x {n} matrix of generator-pair values")

    @classmethod
    def _from_rows(cls, group: Group, r: tuple):
        """The braiding of r, a tuple of n row tuples, taken without checks."""
        R = cls.__new__(cls)
        object.__setattr__(R, "group", group)
        object.__setattr__(R, "r", r)
        return R


def _numerators(R: QuasiBicharacter, L: int = 1):
    """(L', r): R's generator-pair values as an n x n list of integer
    numerators over L', the least common multiple of L and their
    denominators.  A value that is not a Root raises ValueError."""
    n = R.group.rank
    L, nums = _common_denominator([v for row in R.r for v in row], "braiding value", L)
    return L, [nums[s * n:(s + 1) * n] for s in range(n)]


def eval_R(R: QuasiBicharacter, x: GroupElement, y: GroupElement) -> Root:
    """Product-formula value on one pair: the product of r[s][t]^(i_s * j_t)."""
    if x.group != R.group or y.group != R.group:
        raise ValueError("element factorization does not match the braiding")
    L, r = _numerators(R)
    return _root(sum(r[s][t] * i_s * j_t for s, i_s in enumerate(x.exps)
                     for t, j_t in enumerate(y.exps)), L)


def braiding_exists(a: CocycleParams):
    """(True, None) when the parameter choice admits a braiding, else (False, reason)."""
    orders = a.group.orders
    n = a.group.rank
    for l in range(n):
        if (2 * a.diag[l]) % orders[l]:
            return False, (f"diagonal parameter a[{l + 1}] = {a.diag[l]} violates "
                           f"2*a = 0 (mod {orders[l]})")
    for k, (i, j) in enumerate(pair_indices(n)):
        if a.pairs[k]:
            return False, (f"pair parameter a[{i + 1},{j + 1}] = {a.pairs[k]} "
                           f"must be 0")
    for k, (r, s, t) in enumerate(triple_indices(n)):
        if a.triples[k]:
            return False, (f"triple parameter a[{r + 1},{s + 1},{t + 1}] = "
                           f"{a.triples[k]} must be 0")
    return True, None


def braiding_count(a: CocycleParams) -> int:
    """len(enumerate_braidings(a)) in closed form, without building one braiding.

    The product of the grid sizes: m_i per diagonal slot, gcd(m_i, m_j) per
    off-diagonal slot; 0 when no braiding exists.
    """
    if not braiding_exists(a)[0]:
        return 0
    orders = a.group.orders
    return _power_product([*orders, *(math.gcd(mi, mj) for i, mi in enumerate(orders)
                                     for j, mj in enumerate(orders) if i != j)])


def enumerate_braidings(a: CocycleParams):
    """Every braiding for the parameter choice, in deterministic order.

    Diagonal slot (i,i) ranges over the m_i solutions of r^(m_i) = zeta^(a_i);
    each off-diagonal slot over mu_gcd.  Empty when no braiding exists.
    Slot order: diagonals first, then off-diagonals lexicographically.
    """
    exists, _ = braiding_exists(a)
    if not exists:
        return []
    group = a.group
    orders = group.orders
    n = group.rank
    # row i holds slot (i, i) and the off-diagonal slots (i, j), which follow
    # each other in slot order; each row tuple is built once and shared
    rows = []
    for i, m in enumerate(orders):
        off = [[_root(u, d) for u in range(d)]
               for d in (math.gcd(m, orders[j]) for j in range(n) if j != i)]
        diag = [_root(a.diag[i] + m * t, m * m) for t in range(m)]
        rows.append([[(*rest[:i], v, *rest[i:]) for rest in itertools.product(*off)]
                     for v in diag])
    return [QuasiBicharacter._from_rows(group, r)
            for digits in group.digits().tolist()
            for r in itertools.product(*(rows[i][t] for i, t in enumerate(digits)))]


# the census reads at most 8 classes and 8 (orders, lo) shapes; a larger
# bound would keep the arrays of every oracle run alive
@lru_cache(maxsize=8)
def _hexagon_offsets(a: CocycleParams, lo: int):
    """(Lw, off): the cocycle terms over Lw of every (hexagon, triple) on
    [lo, N)^3, flat in the column order of _hexagon_forms."""
    Lw, w = build_table(a).exponents()
    w = w[lo:, lo:, lo:]
    # w(z,x,y) w(x,y,z) / w(x,z,y), then w(y,x,z) / (w(y,z,x) w(x,y,z))
    off = np.concatenate([w.transpose(1, 2, 0) + w - w.transpose(0, 2, 1),
                          w.transpose(1, 0, 2) - w.transpose(2, 0, 1) - w], axis=None)
    off.setflags(write=False)
    return Lw, off


@lru_cache(maxsize=8)
def _hexagon_cells(orders: tuple, lo: int):
    """(c1, c2, c3): flat indices x*N + y of the three R terms of every
    (hexagon, triple), hexagon 1's triples on [lo, N)^3 in C order, then
    hexagon 2's.  Hexagon 1 reads R(xy, z), R(x, z), R(y, z); hexagon 2
    reads R(x, yz), R(x, y), R(x, z).  int32: every caller builds the
    cocycle table first, whose 10^6-cell guard keeps N <= 100."""
    group = Group(orders)
    N = group.order
    mul = group.mul_table().astype(np.int32)
    x, y, z = np.indices((N - lo,) * 3, dtype=np.int32).reshape(3, -1) + lo
    return tuple(np.concatenate(c) for c in zip((mul[x, y] * N + z, x * N + z, y * N + z),
                                                 (x * N + mul[y, z], x * N + y, x * N + z)))


def _hexagon_forms(orders: tuple, M, lo: int):
    """M[..., c1] - M[..., c2] - M[..., c3] on the cells of _hexagon_cells: the R
    part of every hexagon residual of a table M, or its linear form on a basis M."""
    c1, c2, c3 = _hexagon_cells(orders, lo)
    res = np.take(M, c1, axis=-1)
    res -= np.take(M, c2, axis=-1)
    res -= np.take(M, c3, axis=-1)
    return res


@lru_cache(maxsize=64)
def _product_basis(orders: tuple):
    """B with B[s*n + t, x*N + y] = i_s * j_t, so that r @ B is the table of
    the product-form braiding with generator-pair exponents r."""
    E = Group(orders).digits()
    B = np.einsum("xs,yt->stxy", E, E).reshape(len(orders) ** 2, -1)
    B.setflags(write=False)
    return B


def _product_form(group: Group, r, L: int):
    """Flat exponent table over L of the product-form braiding with exponents
    r[s][t] over L: entry x*N + y is the sum of r[s][t] * i_s * j_t, with
    int64 when that sum fits."""
    dtype = _int_dtype(5 * L * (group.rank * max(group.orders)) ** 2)
    B = _product_basis(group.orders).astype(dtype)
    return np.asarray(r, dtype=dtype).reshape(-1) @ B % L


def _grid_solutions(a: CocycleParams, basis, sizes, lo: int):
    """Digit rows d of the mixed-radix grid `sizes`, in grid order (last
    digit fastest), whose exponent table R = (d * L/sizes) @ basis satisfies
    both hexagons on [lo, N)^3.

    lo = 1 skips the triples holding the identity, which is sound when R is
    0 on the identity row and column: there the R terms cancel and the
    normalized cocycle's offset is 0.  On one triple a hexagon's residual is
    affine-linear in d, d @ A[:, u] - off[u] mod L, where column u of A
    combines the basis columns of the three R cells it reads.  Equal
    (form, offset) columns give equal residuals, so each distinct one is
    checked once, on the rows that passed the forms before it.
    """
    Lw, off = _hexagon_offsets(a, lo)
    L = math.lcm(Lw, *sizes)
    grid = np.array(sizes, dtype=np.int64)
    A = _hexagon_forms(a.group.orders, basis, lo) % grid[:, None] * (L // grid)[:, None]
    off = off * (L // Lw) % L
    # deduplicating block by block keeps np.unique's copies of the columns small
    step = 1 << 16
    forms = np.empty((len(A) + 1, 0), dtype=A.dtype)
    for i in range(0, len(off), step):
        block = np.vstack([A[:, i:i + step], off[i:i + step]])
        forms = np.unique(np.hstack([forms, block]), axis=1)
    dtype = _int_dtype(L * (sum(sizes) + 1))
    forms = forms[:, forms.any(axis=0)].T.astype(dtype)
    # chunks share their trailing digits (tail) and differ in the leading
    # ones (head), whose part of each form is a constant shift
    k = max(len(sizes) - 1, 0)
    while k and math.prod(sizes[k - 1:]) * len(sizes) <= 1 << 20:
        k -= 1
    tail = np.indices(sizes[k:]).reshape(len(sizes) - k, math.prod(sizes[k:])).T.astype(dtype)
    out = []
    for head in itertools.product(*map(range, sizes[:k])):
        rows = tail
        shifts = forms[:, :k] @ np.array(head, dtype) - forms[:, -1]
        for form, shift in zip(forms[:, k:-1], shifts):
            rows = rows[(rows @ form + shift) % L == 0]
        out.extend([*head, *row] for row in rows.tolist())
    return out


def verify_hexagons(a: CocycleParams, R: QuasiBicharacter):
    """None when both hexagon identities hold on all of G^3.

    Otherwise the first failure as (x, y, z, which) with which in {1, 2};
    the first identity constrains R(xy, z), the second R(x, yz).
    """
    if R.group != a.group:
        raise ValueError("braiding and parameters live over different groups")
    group = a.group
    Lw, off = _hexagon_offsets(a, 1)
    L, r = _numerators(R, Lw)
    res = _hexagon_forms(group.orders, _product_form(group, r, L), 1)
    res -= off.astype(res.dtype, copy=False) * (L // Lw)
    res %= L
    bad1, bad2 = res.reshape((2,) + (group.order - 1,) * 3) != 0
    witness = _first_witness(group, bad1 | bad2, 1)
    if witness is None:
        return None
    # hexagon 1 fails at the first failing triple iff its own first failure is there
    return (*witness, 1 if _first_witness(group, bad1, 1) == witness else 2)


def brute_force_braidings(a: CocycleParams, max_candidates: int = 10 ** 6):
    """Exhaustive search over candidate matrices r[i][j] in mu_(m_i * m_j).

    The hexagon equations force r[i][j]^(m_i * m_j) = 1, so this grid
    contains every solution.  Refuses grids above max_candidates.  Output
    order follows the row-major slot grid, last slot fastest, and is
    deterministic.
    """
    group = a.group
    orders = group.orders
    n = group.rank
    sizes = [mi * mj for mi in orders for mj in orders]
    total = math.prod(sizes)
    if total > max_candidates:
        raise ValueError(
            f"candidate grid has {total} points, above the {max_candidates} bound")
    out = []
    for row in _grid_solutions(a, _product_basis(orders), sizes, lo=1):
        roots = [_root(u, size) for u, size in zip(row, sizes)]
        out.append(QuasiBicharacter(group, [roots[i * n:(i + 1) * n] for i in range(n)]))
    return out


def braiding_function_table(R: QuasiBicharacter) -> dict:
    """The full function on G x G induced by the product formula."""
    group = R.group
    L, r = _numerators(R)
    table = _product_form(group, r, L).reshape(group.order, group.order)
    elems = group.elements()
    return {(x, y): _root(k, L) for x, row in zip(elems, table.tolist())
            for y, k in zip(elems, row)}


def brute_force_full_function_space(a: CocycleParams, values_order: int,
                                    max_candidates: int = 10 ** 6,
                                    prune_identity: bool = True):
    """Hexagon solutions among ALL functions G x G -> mu_N, product-form or not.

    With prune_identity the identity row and column are pinned to 1, which
    loses nothing: taking x = y = 1 in the first hexagon and y = z = 1 in
    the second forces those values for any solution.  Pass False to search
    the literal N^(|G|^2) space.  Returns full function tables as dicts.
    """
    if values_order < 1:
        raise ValueError(f"values order must be positive, got {values_order}")
    group = a.group
    N = group.order
    elems = group.elements()
    free = [p * N + q for p in range(N) for q in range(N) if p and q or not prune_identity]
    total = values_order ** len(free)
    if total > max_candidates:
        raise ValueError(
            f"function space has {total} points, above the {max_candidates} bound")

    # mu_1 has a single value, so no cell is left to choose
    columns = free if values_order > 1 else []
    basis = (np.arange(N * N) == np.array(columns, dtype=np.int64)[:, None]).astype(np.int64)
    out = []
    for row in _grid_solutions(a, basis, [values_order] * len(columns),
                               1 if prune_identity else 0):
        values = dict(zip(columns, row))
        out.append({(elems[p], elems[q]): _root(values.get(p * N + q, 0), values_order)
                    for p in range(N) for q in range(N)})
    return out
