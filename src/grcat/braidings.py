"""Commutativity data compatible with a chosen associativity cocycle.

A braiding is determined by its values on pairs of generators, an n x n
matrix of roots of unity extended to all of G x G by a product formula.
Existence depends only on the cocycle parameters (an exact congruence per
diagonal entry, vanishing of every pair and triple parameter); when
solvable, the full finite solution set is enumerated in closed form.  Two
brute-force searches act as oracles: one over the provably sufficient grid
of candidate matrices, one over every function G x G -> mu_N whatsoever.
Both oracles and verify_hexagons decide through one batched check on
integer exponent tables of R over a common modulus.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cocycles import (CocycleParams, _int_dtype, build_table, pair_indices,
                       triple_indices)
from .groups import Group, GroupElement
from .roots import Root


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


def eval_R(R: QuasiBicharacter, x: GroupElement, y: GroupElement) -> Root:
    """Product-formula value on one pair: the product of r[s][t]^(i_s * j_t)."""
    if x.group != R.group or y.group != R.group:
        raise ValueError("element factorization does not match the braiding")
    total = Fraction(0)
    for s, i_s in enumerate(x.exps):
        if not i_s:
            continue
        for t, j_t in enumerate(y.exps):
            if j_t:
                total += R.r[s][t].exponent * (i_s * j_t)
    return Root(total)


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
    return math.prod(orders) * math.prod(
        math.gcd(mi, mj) for i, mi in enumerate(orders)
        for j, mj in enumerate(orders) if i != j)


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
    slots = [(i, i) for i in range(n)]
    slots += [(i, j) for i in range(n) for j in range(n) if i != j]
    grids = []
    for i, j in slots:
        if i == j:
            m = orders[i]
            grids.append([Root(Fraction(a.diag[i] + m * t, m * m)) for t in range(m)])
        else:
            d = math.gcd(orders[i], orders[j])
            grids.append([Root.of(u, d) for u in range(d)])
    out = []
    for combo in itertools.product(*grids):
        r = [[None] * n for _ in range(n)]
        for (i, j), v in zip(slots, combo):
            r[i][j] = v
        out.append(QuasiBicharacter(group, tuple(tuple(row) for row in r)))
    return out


@lru_cache(maxsize=64)
def _hexagon_offsets(a: CocycleParams):
    """(Lw, (W1, W2)): the cocycle terms of both hexagons per triple, over Lw."""
    Lw, w = build_table(a).exponents()
    W1 = w.transpose(1, 2, 0) + w - w.transpose(0, 2, 1)  # w(z,x,y) w(x,y,z) / w(x,z,y)
    W2 = w.transpose(1, 0, 2) - w.transpose(2, 0, 1) - w  # w(y,x,z) / (w(y,z,x) w(x,y,z))
    for W in (W1, W2):
        W.setflags(write=False)
    return Lw, (W1, W2)


@lru_cache(maxsize=64)
def _hexagon_cells(orders: tuple, lo: int):
    """Flat indices x*N + y of the three R terms of each hexagon, per triple.

    Triples run over [lo, N)^3 in C order.  The first hexagon reads
    R(xy, z), R(x, z), R(y, z); the second R(x, yz), R(x, y), R(x, z).
    """
    group = Group(orders)
    N = group.order
    mul = group.mul_table()
    x, y, z = (v.reshape(-1) for v in
               np.meshgrid(*[np.arange(lo, N)] * 3, indexing="ij"))
    return ((mul[x, y] * N + z, x * N + z, y * N + z),
            (x * N + mul[y, z], x * N + y, x * N + z))


def _hexagon_residual(a: CocycleParams, which: int, R, L: int, lo: int):
    """Residual mod L of hexagon `which` for each candidate in R on [lo, N)^3.

    R has shape (C, N, N) and holds the exponents R(x, y) over L, a multiple
    of the cocycle's modulus.  Result shape (C, K^3) with K = N - lo, in C
    order over the triples, zero where the identity holds.
    """
    Lw, offsets = _hexagon_offsets(a)
    rows = R.reshape(len(R), -1)
    first, *rest = _hexagon_cells(a.group.orders, lo)[which - 1]
    res = np.take(rows, first, axis=1)
    for cells in rest:
        res -= np.take(rows, cells, axis=1)
    res -= offsets[which - 1][lo:, lo:, lo:].reshape(-1).astype(R.dtype) * (L // Lw)
    res %= L
    return res


def _hexagons_hold(a: CocycleParams, R, L: int, lo: int):
    """Boolean mask over the candidates in R: True where both hexagons hold.

    lo = 1 skips the triples holding the identity, which is sound when every
    candidate is 1 on the identity row and column: there the R terms cancel
    and the normalized cocycle's offset is 0.  lo = 0 checks all of G^3.
    The second hexagon runs only on candidates that pass the first.
    """
    ok = (_hexagon_residual(a, 1, R, L, lo) == 0).all(axis=1)
    if ok.any():
        ok[ok] = (_hexagon_residual(a, 2, R[ok], L, lo) == 0).all(axis=1)
    return ok


def _chunk(K: int) -> int:
    """Candidates per batch when K^3 triples are checked: at most 8192 x 343
    residual cells at a time."""
    return max(1, 8192 * 343 // K ** 3)


def _product_form(group: Group, r, L: int):
    """Exponent tables (C, N, N) over L of product-form braidings.

    r has shape (C, n, n): the generator-pair exponents r[s][t] over L.
    R(x, y) = sum of r[s][t] * i_s * j_t, with int64 when that sum fits.
    """
    n = group.rank
    E = np.array([x.exps for x in group.elements()], dtype=np.int64)
    B = np.einsum("xs,yt->stxy", E, E).reshape(n * n, -1)
    dtype = _int_dtype(5 * L * (n * max(group.orders)) ** 2)
    R = np.asarray(r, dtype=dtype).reshape(len(r), n * n) @ B.astype(dtype)
    R %= L
    return R.reshape(len(r), group.order, group.order)


def verify_hexagons(a: CocycleParams, R: QuasiBicharacter):
    """None when both hexagon identities hold on all of G^3.

    Otherwise the first failure as (x, y, z, which) with which in {1, 2};
    the first identity constrains R(xy, z), the second R(x, yz).
    """
    if R.group != a.group:
        raise ValueError("braiding and parameters live over different groups")
    group = a.group
    Lw, _ = _hexagon_offsets(a)
    L = math.lcm(Lw, *(v.exponent.denominator for row in R.r for v in row))
    r = [[[v.exponent.numerator * (L // v.exponent.denominator) for v in row]
          for row in R.r]]
    table = _product_form(group, r, L)
    if _hexagons_hold(a, table, L, lo=1)[0]:
        return None
    bad1, bad2 = (_hexagon_residual(a, which, table, L, 1)[0] != 0 for which in (1, 2))
    first = int((bad1 | bad2).argmax())
    K = group.order - 1
    x, y, z = (group.from_index(int(i) + 1) for i in np.unravel_index(first, (K, K, K)))
    return (x, y, z, 1 if bad1[first] else 2)


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
    Lw, _ = _hexagon_offsets(a)
    L = math.lcm(Lw, *sizes)
    strides = np.array([math.prod(sizes[p + 1:]) for p in range(n * n)], dtype=np.int64)
    grid = np.array(sizes, dtype=np.int64)
    survivors = []
    chunk = _chunk(group.order - 1)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = idx[:, None] // strides % grid
        R = _product_form(group, (digits * (L // grid)).reshape(-1, n, n), L)
        survivors.extend(digits[_hexagons_hold(a, R, L, lo=1)].tolist())
    out = []
    for row in survivors:
        roots = [Root.of(u, size) for u, size in zip(row, sizes)]
        out.append(QuasiBicharacter(group, [roots[i * n:(i + 1) * n] for i in range(n)]))
    return out


def braiding_function_table(R: QuasiBicharacter) -> dict:
    """The full function on G x G induced by the product formula."""
    group = R.group
    return {(x, y): eval_R(R, x, y)
            for x in group.elements() for y in group.elements()}


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
    elems = list(group.elements())
    pairs = [(p, q) for p in range(N) for q in range(N)]
    if prune_identity:
        free = [(p, q) for p, q in pairs if p and q]
    else:
        free = pairs
    total = values_order ** len(free)
    if total > max_candidates:
        raise ValueError(
            f"function space has {total} points, above the {max_candidates} bound")

    Lw, _ = _hexagon_offsets(a)
    L = math.lcm(Lw, values_order)
    columns = [p * N + q for p, q in free]
    lo = 1 if prune_identity else 0
    out = []
    chunk = _chunk(N - lo)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        R = np.zeros((len(idx), N * N), dtype=_int_dtype(5 * L))
        for k, col in enumerate(columns):
            R[:, col] = idx // values_order ** (len(free) - 1 - k) % values_order
        R *= L // values_order
        R = R.reshape(-1, N, N)
        for rtab in R[_hexagons_hold(a, R, L, lo)].tolist():
            out.append({(elems[p], elems[q]): Root(Fraction(rtab[p][q], L))
                        for p in range(N) for q in range(N)})
    return out
