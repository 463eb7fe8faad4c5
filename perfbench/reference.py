"""The benchmark's own formulas, written apart from grcat, that its checks use.

Groups are tuples of cyclic orders.  Elements are exponent tuples, indexed
in lexicographic order as mixed-radix numbers.  A parameter choice is a
triple (diag, pairs, triples) aligned with itertools.combinations of the
factor indices.  Values in Q/Z are integer numerators over a common modulus
L = lcm(orders) (cocycles) or plain Fractions (everything with arbitrary
denominators).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def elements(orders):
    return list(itertools.product(*(range(m) for m in orders)))


def index(orders, exps):
    idx = 0
    for e, m in zip(exps, orders):
        idx = idx * m + e % m
    return idx


def mul(orders, x, y):
    return tuple((a + b) % m for a, b, m in zip(x, y, orders))


def gcd3(orders, r, s, t):
    return math.gcd(orders[r], orders[s], orders[t])


def all_params(orders):
    """Every parameter choice, lexicographic in (diag, pairs, triples)."""
    n = len(orders)
    pairs = list(itertools.combinations(range(n), 2))
    triples = list(itertools.combinations(range(n), 3))
    ranges = ([range(m) for m in orders]
              + [range(math.gcd(orders[s], orders[t])) for s, t in pairs]
              + [range(gcd3(orders, *rst)) for rst in triples])
    return [(c[:n], c[n:n + len(pairs)], c[n + len(pairs):])
            for c in itertools.product(*ranges)]


def class_count(orders):
    """|H^3(G, k*)| as the product of the orders, pair gcds and triple gcds."""
    n = len(orders)
    total = math.prod(orders)
    for s, t in itertools.combinations(range(n), 2):
        total *= math.gcd(orders[s], orders[t])
    for rst in itertools.combinations(range(n), 3):
        total *= gcd3(orders, *rst)
    return total


def cocycle_numerators(orders, a):
    """The closed-form cocycle on all of G^3 as numerators mod L, shape (N, N, N).

    omega(x, y, z) = sum_l a_l x_l [y_l + z_l >= m_l] / m_l
                   + sum_{s<t} a_st x_t [y_s + z_s >= m_s] / m_t
                   - sum_{r<s<t} a_rst z_r y_s x_t / gcd(m_r, m_s, m_t).
    """
    diag, pairs, triples = a
    n = len(orders)
    L = math.lcm(*orders)
    E = np.array(elements(orders), dtype=np.int64).reshape(-1, n)
    m = np.array(orders, dtype=np.int64)
    x = E[:, None, None, :]
    y = E[None, :, None, :]
    z = E[None, None, :, :]
    over = (y + z) >= m
    N = len(E)
    total = np.zeros((N, N, N), dtype=np.int64)
    for l in range(n):
        if diag[l]:
            total += diag[l] * (L // orders[l]) * x[..., l] * over[..., l]
    for (s, t), c in zip(itertools.combinations(range(n), 2), pairs):
        if c:
            total += c * (L // orders[t]) * x[..., t] * over[..., s]
    for (r, s, t), c in zip(itertools.combinations(range(n), 3), triples):
        if c:
            total -= c * (L // gcd3(orders, r, s, t)) * z[..., r] * y[..., s] * x[..., t]
    return total % L, L


def numerators(roots, L):
    """Numerators over L of a flat sequence of grcat Roots; None if one does not fit."""
    out = []
    for v in roots:
        f = v.exponent
        q, rem = divmod(L, f.denominator)
        if rem:
            return None
        out.append(f.numerator * q)
    return np.array(out, dtype=np.int64)


def mul_index(orders):
    els = elements(orders)
    return np.array([[index(orders, mul(orders, p, q)) for q in els] for p in els],
                    dtype=np.int64)


def pentagon_fails(W, mt, L, quads):
    """The first quadruple of indices (e, f, g, h) where the pentagon fails, else None.

    W is the flat (N^3) numerator table, mt the multiplication index table.
    omega(ef, g, h) omega(e, f, gh) = omega(e, f, g) omega(e, fg, h) omega(f, g, h).
    """
    N = len(mt)

    def w(p, q, r):
        return int(W[(p * N + q) * N + r])

    for e, f, g, h in quads:
        lhs = w(mt[e, f], g, h) + w(e, f, mt[g, h])
        rhs = w(e, f, g) + w(e, mt[f, g], h) + w(f, g, h)
        if (lhs - rhs) % L:
            return (e, f, g, h)
    return None


# ---- braidings -------------------------------------------------------------

def braidable(orders, a):
    diag, pairs, triples = a
    return (all((2 * d) % m == 0 for d, m in zip(diag, orders))
            and not any(pairs) and not any(triples))


def braiding_count(orders, a):
    """prod m_i * prod_{i != j} gcd(m_i, m_j) when a braiding exists, else 0."""
    if not braidable(orders, a):
        return 0
    n = len(orders)
    total = math.prod(orders)
    for i, j in itertools.permutations(range(n), 2):
        total *= math.gcd(orders[i], orders[j])
    return total


def braiding_from_grid(orders, a, coords):
    """The generator-pair matrix (as Fractions) at one point of the solution grid.

    Diagonal (i, i): r = (a_i + m_i t) / m_i^2 for t in [0, m_i), the solutions
    of r^(m_i) = zeta_(m_i)^(a_i).  Off-diagonal (i, j): u / gcd(m_i, m_j).
    coords follows the row-major (i, j) order.
    """
    n = len(orders)
    r = [[None] * n for _ in range(n)]
    for (i, j), c in zip(itertools.product(range(n), repeat=2), coords):
        if i == j:
            r[i][j] = Fraction(a[0][i] + orders[i] * c, orders[i] ** 2)
        else:
            r[i][j] = Fraction(c, math.gcd(orders[i], orders[j]))
    return r


def grid_sizes(orders):
    n = len(orders)
    return [orders[i] if i == j else math.gcd(orders[i], orders[j])
            for i, j in itertools.product(range(n), repeat=2)]


def braiding_coords(orders, a, r):
    """Grid coordinates of a matrix r of Fractions, or None if it is not a braiding."""
    coords = []
    for i, row in enumerate(r):
        for j, f in enumerate(row):
            c = _slot_coord(orders, a, i, j, f)
            if c is None:
                return None
            coords.append(c)
    return tuple(coords)


def braiding_set_reason(orders, a, matrices):
    """None when the matrices are exactly the product-form braidings of class a.

    matrices is an iterable of row tuples of Fractions.  Every entry must
    solve its slot equation, no two matrices may coincide, and there must be
    braiding_count of them; together these pin the set down.
    """
    sizes = grid_sizes(orders)
    seen = set()
    count = 0
    memo = {}  # by object identity, so the entries are kept alive in `keep`
    keep = []
    for r in matrices:
        count += 1
        key = 0
        for i, row in enumerate(r):
            for j, f in enumerate(row):
                c = memo.get((i, j, id(f)))
                if c is None:
                    c = _slot_coord(orders, a, i, j, f)
                    if c is None:
                        return f"entry ({i}, {j}) = {f} solves no braiding equation"
                    memo[(i, j, id(f))] = c
                    keep.append(f)
                key = key * sizes[i * len(orders) + j] + c
        seen.add(key)
    want = braiding_count(orders, a)
    if count != want:
        return f"{count} braidings, the count law gives {want}"
    if len(seen) != count:
        return f"{count - len(seen)} repeated braidings"
    return None


def _slot_coord(orders, a, i, j, f):
    f = f % 1
    mi = orders[i]
    if i == j:
        u = f * mi * mi - a[0][i]
        if u.denominator != 1 or u.numerator % mi:
            return None
        return (u.numerator // mi) % mi
    u = f * math.gcd(mi, orders[j])
    return u.numerator if u.denominator == 1 else None


def pair_value(r, x, y):
    """R(x, y) = sum_{s,t} r_st x_s y_t in Q/Z (the product formula)."""
    total = Fraction(0)
    for s, xs in enumerate(x):
        if xs:
            for t, yt in enumerate(y):
                if yt:
                    total += r[s][t] * (xs * yt)
    return total % 1


def hexagons_failing(orders, W, L, r, x, y, z):
    """The set of hexagon identities (1, 2) that fail at (x, y, z).

    1: R(xy, z) = omega(z, x, y) R(x, z) omega(x, z, y)^-1 R(y, z) omega(x, y, z)
    2: R(x, yz) = omega(y, z, x)^-1 R(x, y) omega(y, x, z) R(x, z) omega(x, y, z)^-1
    W is the (N, N, N) numerator array of omega over L.
    """
    def w(p, q, s):
        return Fraction(int(W[index(orders, p), index(orders, q), index(orders, s)]), L)

    R = pair_value
    out = set()
    h1 = (R(r, mul(orders, x, y), z) - w(z, x, y) - R(r, x, z) + w(x, z, y)
          - R(r, y, z) - w(x, y, z))
    if h1 % 1:
        out.add(1)
    h2 = (R(r, x, mul(orders, y, z)) + w(y, z, x) - R(r, x, y) - w(y, x, z)
          - R(r, x, z) + w(x, y, z))
    if h2 % 1:
        out.add(2)
    return out


# ---- coboundaries and tensor cochains --------------------------------------

def bar_coboundary(orders, B):
    """db(x, y, z) = b(y, z) - b(xy, z) + b(x, yz) - b(x, y) on all of G^3.

    B is an (N, N) integer array of numerators of b; the result is flat
    (N^3), over the same denominator and not reduced.
    """
    mt = mul_index(orders)
    N = len(mt)
    x = np.arange(N)[:, None, None]
    y = np.arange(N)[None, :, None]
    z = np.arange(N)[None, None, :]
    return (B[y, z] - B[mt[x, y], z] + B[x, mt[y, z]] - B[x, y]).reshape(-1)


def representative(orders, a):
    """The canonical tensor 3-cocycle (diag, iij, ijj, rst) of class a, as Fractions."""
    diag, pairs, triples = a
    n = len(orders)
    pi = list(itertools.combinations(range(n), 2))
    return ([Fraction(d, m) for d, m in zip(diag, orders)],
            [Fraction(c, orders[j]) for (i, j), c in zip(pi, pairs)],
            [Fraction(0)] * len(pi),
            [Fraction(c, gcd3(orders, *rst))
             for rst, c in zip(itertools.combinations(range(n), 3), triples)])


def tensor_coboundary(orders, w):
    """The tensor 3-coboundary of one value w_ij per pair: iij = m_i w, ijj = -m_j w."""
    n = len(orders)
    pi = list(itertools.combinations(range(n), 2))
    return ([Fraction(0)] * n,
            [(orders[i] * v) % 1 for (i, j), v in zip(pi, w)],
            [(-orders[j] * v) % 1 for (i, j), v in zip(pi, w)],
            [Fraction(0)] * math.comb(n, 3))


def add_cochains(f, g):
    return tuple([(p + q) % 1 for p, q in zip(fp, gp)] for fp, gp in zip(f, g))
