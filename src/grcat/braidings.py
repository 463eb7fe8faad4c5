"""Commutativity data compatible with a chosen associativity cocycle.

A braiding is determined by its values on pairs of generators, an n x n
matrix of roots of unity extended to all of G x G by a product formula.
Existence depends only on the cocycle parameters (an exact congruence per
diagonal entry, vanishing of every pair and triple parameter); when
solvable, the full finite solution set is enumerated in closed form.  Two
brute-force searches act as oracles: one over the provably sufficient grid
of candidate matrices, one over every function G x G -> mu_N whatsoever.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cocycles import CocycleParams, build_table, pair_indices, triple_indices
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
def _omega_int_table(a: CocycleParams):
    """Cocycle table over G^3 as integer exponent numerators with their modulus."""
    table = build_table(a)
    L = 1
    for v in table.values:
        L = L * v.exponent.denominator // math.gcd(L, v.exponent.denominator)
    return [int(v.exponent * L) for v in table.values], L


@lru_cache(maxsize=64)
def _hexagon_index_arrays(orders: tuple):
    """Per-triple flat pair indices feeding both hexagon residuals."""
    group = Group(orders)
    N = group.order
    elems = list(group.elements())
    mul = [[group.element_index(elems[p] * elems[q]) for q in range(N)]
           for p in range(N)]
    A = ([], [], [], [], [], [])
    for ix in range(N):
        for iy in range(N):
            ixy = mul[ix][iy]
            for iz in range(N):
                iyz = mul[iy][iz]
                A[0].append(ixy * N + iz)
                A[1].append(ix * N + iz)
                A[2].append(iy * N + iz)
                A[3].append(ix * N + iyz)
                A[4].append(ix * N + iy)
                A[5].append(ix * N + iz)
    return A


@lru_cache(maxsize=64)
def _omega_offsets(a: CocycleParams):
    """Constant parts of the two residuals: the cocycle terms, per triple."""
    w, Lw = _omega_int_table(a)
    N = a.group.order
    W1 = []
    W2 = []
    for ix in range(N):
        for iy in range(N):
            for iz in range(N):
                W1.append(w[(iz * N + ix) * N + iy] + w[(ix * N + iy) * N + iz]
                          - w[(ix * N + iz) * N + iy])
                W2.append(w[(iy * N + ix) * N + iz] - w[(iy * N + iz) * N + ix]
                          - w[(ix * N + iy) * N + iz])
    return W1, W2, Lw


def _pair_exponents(R: QuasiBicharacter):
    group = R.group
    out = []
    for x in group.elements():
        for y in group.elements():
            out.append(eval_R(R, x, y).exponent)
    return out


def verify_hexagons(a: CocycleParams, R: QuasiBicharacter):
    """None when both hexagon identities hold on all of G^3.

    Otherwise the first failure as (x, y, z, which) with which in {1, 2};
    the first identity constrains R(xy, z), the second R(x, yz).
    """
    if R.group != a.group:
        raise ValueError("braiding and parameters live over different groups")
    group = a.group
    N = group.order
    rexp = _pair_exponents(R)
    W1, W2, Lw = _omega_offsets(a)
    L = Lw
    for e in rexp:
        L = L * e.denominator // math.gcd(L, e.denominator)
    scale = L // Lw
    rtab = [int(e * L) for e in rexp]
    A1, A2, A3, A4, A5, A6 = _hexagon_index_arrays(group.orders)
    elems = list(group.elements())
    idx = 0
    for ix in range(N):
        for iy in range(N):
            for iz in range(N):
                if (rtab[A1[idx]] - rtab[A2[idx]] - rtab[A3[idx]]
                        - W1[idx] * scale) % L:
                    return (elems[ix], elems[iy], elems[iz], 1)
                if (rtab[A4[idx]] - rtab[A5[idx]] - rtab[A6[idx]]
                        - W2[idx] * scale) % L:
                    return (elems[ix], elems[iy], elems[iz], 2)
                idx += 1
    return None


def _oracle_slots(group: Group):
    """Row-major generator-pair slots with the provably sufficient grids."""
    orders = group.orders
    n = group.rank
    slots = [(i, j) for i in range(n) for j in range(n)]
    sizes = [orders[i] * orders[j] for i, j in slots]
    return slots, sizes


def brute_force_braidings(a: CocycleParams, max_candidates: int = 10 ** 6,
                          method: str = "auto"):
    """Exhaustive search over candidate matrices r[i][j] in mu_(m_i * m_j).

    The hexagon equations force r[i][j]^(m_i * m_j) = 1, so this grid
    contains every solution.  Refuses grids above max_candidates.  method
    picks the per-candidate checker ("direct") or the vectorized integer
    path ("numpy"); "auto" switches on grid size.  Output order follows the
    row-major slot grid and is deterministic.
    """
    group = a.group
    slots, sizes = _oracle_slots(group)
    total = math.prod(sizes)
    if total > max_candidates:
        raise ValueError(
            f"candidate grid has {total} points, above the {max_candidates} bound")
    if method == "auto":
        method = "direct" if total <= 1024 else "numpy"
    if method == "direct":
        out = []
        for combo in itertools.product(*(range(s) for s in sizes)):
            r = [[None] * group.rank for _ in range(group.rank)]
            for (i, j), u, size in zip(slots, combo, sizes):
                r[i][j] = Root.of(u, size)
            qb = QuasiBicharacter(group, tuple(tuple(row) for row in r))
            if verify_hexagons(a, qb) is None:
                out.append(qb)
        return out
    if method != "numpy":
        raise ValueError(f"unknown method {method!r}")
    return _brute_force_numpy(a, slots, sizes, total)


def _brute_force_numpy(a, slots, sizes, total):
    group = a.group
    N = group.order
    n = group.rank
    W1, W2, Lw = _omega_offsets(a)
    L = Lw
    for s in sizes:
        L = L * s // math.gcd(L, s)
    scale = L // Lw

    # B[p, x*N + y] = i_s * j_t for slot p = (s, t)
    elems = list(group.elements())
    B = np.zeros((len(slots), N * N), dtype=np.int64)
    for p, (s, t) in enumerate(slots):
        for ex in range(N):
            i_s = elems[ex].exps[s]
            if not i_s:
                continue
            for ey in range(N):
                B[p, ex * N + ey] = i_s * elems[ey].exps[t]

    A = _hexagon_index_arrays(group.orders)
    A1, A2, A3, A4, A5, A6 = (np.asarray(x, dtype=np.int64) for x in A)
    W1 = np.asarray(W1, dtype=np.int64) * scale
    W2 = np.asarray(W2, dtype=np.int64) * scale

    # identity-containing triples are vacuous for product-form candidates:
    # the R factors cancel pairwise and the cocycle offset is 0
    tflat = np.arange(N ** 3)
    keep = ((tflat // (N * N) != 0) & (tflat // N % N != 0) & (tflat % N != 0))
    A1, A2, A3, A4, A5, A6 = (x[keep] for x in (A1, A2, A3, A4, A5, A6))
    W1, W2 = W1[keep], W2[keep]

    strides = [1] * len(sizes)
    for p in range(len(sizes) - 2, -1, -1):
        strides[p] = strides[p + 1] * sizes[p + 1]
    unit = [L // s for s in sizes]

    survivors = []
    chunk = 8192
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        W = np.empty((len(idx), len(slots)), dtype=np.int64)
        for p in range(len(slots)):
            W[:, p] = (idx // strides[p]) % sizes[p] * unit[p]
        rtab = (W @ B) % L
        ok = ((rtab[:, A1] - rtab[:, A2] - rtab[:, A3] - W1) % L == 0).all(axis=1)
        if ok.any():
            sub = rtab[ok]
            ok2 = ((sub[:, A4] - sub[:, A5] - sub[:, A6] - W2) % L == 0).all(axis=1)
            survivors.extend(int(i) for i in idx[ok][ok2])

    out = []
    for c in survivors:
        r = [[None] * n for _ in range(n)]
        for p, ((i, j), size) in enumerate(zip(slots, sizes)):
            u = (c // strides[p]) % size
            r[i][j] = Root.of(u, size)
        out.append(QuasiBicharacter(group, tuple(tuple(row) for row in r)))
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

    W1, W2, Lw = _omega_offsets(a)
    L = Lw * values_order // math.gcd(Lw, values_order)
    scale_w = L // Lw
    unit = L // values_order
    A1, A2, A3, A4, A5, A6 = _hexagon_index_arrays(group.orders)
    ntriples = N ** 3

    out = []
    rtab = [0] * (N * N)
    for combo in itertools.product(range(values_order), repeat=len(free)):
        for (p, q), u in zip(free, combo):
            rtab[p * N + q] = u * unit
        good = True
        for t in range(ntriples):
            if (rtab[A1[t]] - rtab[A2[t]] - rtab[A3[t]] - W1[t] * scale_w) % L:
                good = False
                break
            if (rtab[A4[t]] - rtab[A5[t]] - rtab[A6[t]] - W2[t] * scale_w) % L:
                good = False
                break
        if good:
            table = {}
            for p in range(N):
                for q in range(N):
                    table[(elems[p], elems[q])] = Root(Fraction(rtab[p * N + q], L))
            out.append(table)
    return out
