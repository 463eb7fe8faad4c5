"""Exact integer linear algebra: Smith normal form and linear systems over Q/Z.

The elimination takes a matrix as sparse rows of (column, entry) pairs of
Python ints, so every pivot is exact; smith_normal_form is its entry point
for dense lists of rows.  It holds each row of d, u and v as a dict
{column: nonzero entry}: the largest system, the bar coboundary system of
Z_4 x Z_3, is 1331 x 121 with at most four nonzeros per row, and its u
stays 1.4% nonzero.  The decomposition keeps d as its diagonal; the dense
u, d, v are views.  solve_exponents solves over Q/Z on integer numerators
in two halves: one gather over the zero rows of u decides solvability, and
one over its rank rows, then one over v, gives the solution, in int64 when
the sums fit.  The halves are separate because 93-96% of the nonzeros of
the bar systems' u on the groups of order 12 lie in the zero rows, and a
caller that can check a solution by substitution needs only the second half.
Root appears only in the wrapper solve_mod1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .roots import _common_denominator, _root


def _addmul(dst, src, c):
    """dst += c * src on sparse rows {column: nonzero entry}; c is nonzero."""
    for j, e in src.items():
        x = dst.get(j, 0) + c * e
        if x:
            dst[j] = x
        else:
            del dst[j]


def _product(a, b):
    """a * b for matrices held as lists of sparse rows."""
    out = []
    for row in a:
        acc = {}
        for j, e in row.items():
            _addmul(acc, b[j], e)
        out.append(acc)
    return out


def _dense(rows, cols):
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def _int_dtype(bound: int):
    """int64 when every value and sum stays below bound, exact Python ints else."""
    return np.int64 if bound < 2 ** 63 else object


def _flatten(rows):
    """Sparse rows as flat arrays: the indices of the nonempty rows, where
    each one's entries start, and the columns and entries; plus the largest
    absolute row sum, which bounds every partial sum of a gather."""
    bound = max((sum(map(abs, row.values())) for row in rows), default=0)
    lengths = np.array([len(row) for row in rows], dtype=np.intp)
    nonempty = np.flatnonzero(lengths)
    starts = (np.cumsum(lengths) - lengths)[nonempty]
    cols = np.array([j for row in rows for j in row], dtype=np.intp)
    entries = np.array([e for row in rows for e in row.values()], dtype=_int_dtype(bound))
    return nonempty, starts, cols, entries, bound


def _gather(flat, x, size):
    """The product of the flattened rows with the vector x, as an array of
    length size: one np.add.reduceat over the nonzeros.  int64 when the
    largest absolute row sum times max|x| stays below 2**63, Python ints else."""
    nonempty, starts, cols, entries, bound = flat
    x = x if isinstance(x, np.ndarray) else np.array(x, dtype=object)
    dtype = _int_dtype(bound * max(int(np.abs(x).max(initial=0)), 1))
    out = np.zeros(size, dtype=dtype)
    # x is cast after the gather: with no rows the bound is 0 and the dtype
    # int64, which need not hold the values of x
    out[nonempty] = np.add.reduceat(
        entries.astype(dtype, copy=False) * x[cols].astype(dtype, copy=False), starts)
    return out


@dataclass
class SmithDecomposition:
    """u * m * v = d with u, v unimodular and d diagonal, d_1 | d_2 | ...

    u_rows and v_rows are the rows of u and v as sparse dicts {column:
    nonzero entry}; diagonal holds the min(rows, cols) diagonal entries of
    d.  The dense u, d and v (lists of rows) are built on first use, and so
    are the rank rows and zero rows of d and the flat arrays that the solve
    gathers through: u's rank rows, u's zero rows and v, three sets.
    """

    u_rows: list
    v_rows: list
    diagonal: list

    @cached_property
    def u(self):
        return _dense(self.u_rows, len(self.u_rows))

    @cached_property
    def v(self):
        return _dense(self.v_rows, len(self.v_rows))

    @cached_property
    def d(self):
        return [[self.diagonal[i] if i == j else 0 for j in range(len(self.v_rows))]
                for i in range(len(self.u_rows))]

    @cached_property
    def rank_rows(self):
        """Indices of the rows of d with a nonzero diagonal entry."""
        return [i for i, di in enumerate(self.diagonal) if di]

    @cached_property
    def zero_rows(self):
        """Indices of the zero rows of d: past the diagonal, or a zero entry on it."""
        diag = self.diagonal
        return [i for i in range(len(self.u_rows)) if i >= len(diag) or not diag[i]]

    @cached_property
    def _rank_flat(self):
        return _flatten([self.u_rows[i] for i in self.rank_rows])

    @cached_property
    def _zero_flat(self):
        return _flatten([self.u_rows[i] for i in self.zero_rows])

    @cached_property
    def _v_flat(self):
        return _flatten(self.v_rows)


def smith_normal_form(mat):
    """Compute the Smith normal form of an integer matrix.

    The dense entry point of _sparse_smith_normal_form.

    Args:
        mat: list of equal-length rows of ints (may be empty).

    Returns:
        SmithDecomposition with non-negative diagonal entries forming a
        divisibility chain.
    """
    n = len(mat[0]) if mat else 0
    if any(len(row) != n for row in mat):
        raise ValueError("ragged matrix")
    return _sparse_smith_normal_form(map(enumerate, mat), n)


def _sparse_smith_normal_form(rows, n: int):
    """Smith normal form of the matrix with n columns whose rows are given
    as (column, entry) pairs, zero entries allowed.

    u*mat*v is re-multiplied on the sparse rows, as (u*mat)*v, and compared
    against the diagonal before returning.  u*mat = d*v^-1 stays sparse where
    mat*v fills in (976 against 37598 nonzeros on the bar system of Z_4 x
    Z_3), so this order is the cheaper one.
    """
    sparse = [{j: e for j, e in row if e} for row in rows]
    m = len(sparse)
    d = [dict(row) for row in sparse]
    u = [{i: 1} for i in range(m)]
    v = [{j: 1} for j in range(n)]

    def add_row(dst, src, c):
        for t in (d, u):
            _addmul(t[dst], t[src], c)

    # rows k.. of d have no entries left of column k: they are the trailing
    # block; rows above k hold only their diagonal entry
    for k in range(min(m, n)):
        while True:
            # the smallest nonzero entry becomes the pivot, the first in
            # row-major order among equals; so no quotient below is zero.
            # No entry is smaller than a unit, so the first unit ends the search
            best = None
            for i in range(k, m):
                if d[i]:
                    e, j = min((abs(e), j) for j, e in d[i].items())
                    if best is None or e < best[0]:
                        best = e, i, j
                        if e == 1:
                            break
            if best is None:
                break
            _, bi, bj = best
            d[k], d[bi], u[k], u[bi] = d[bi], d[k], u[bi], u[k]
            if bj != k:
                for row in itertools.chain(d[k:], v):
                    if k in row or bj in row:
                        row.update({c: row.pop(o) for c, o in ((bj, k), (k, bj)) if o in row})
            pivot = d[k][k]

            below = [i for i in range(k + 1, m) if k in d[i]]
            for i in below:
                add_row(i, k, -(d[i][k] // pivot))
            if any(k in d[i] for i in below):
                continue
            # of d, only row k still holds column k
            right = [j for j in sorted(d[k]) if j > k]
            # a column-j operation leaves column k alone, so the rows holding
            # column k are the same for every j
            holding = [row for row in itertools.chain((d[k],), v) if k in row]
            for j in right:
                q = d[k][j] // pivot
                for row in holding:
                    _addmul(row, {j: row[k]}, -q)
            if any(j in d[k] for j in right):
                continue
            # pivot must divide the whole remaining block for the chain property
            if abs(pivot) == 1:
                break
            stray = next((i for i in range(k + 1, m)
                          if any(e % pivot for e in d[i].values())), None)
            if stray is None:
                break
            add_row(k, stray, 1)

        if d[k].get(k, 0) < 0:
            for t in (d, u):
                t[k] = {j: -e for j, e in t[k].items()}

    diagonal = [d[i].get(i, 0) for i in range(min(m, n))]
    expected = [{i: e} if e else {} for i, e in enumerate(diagonal)]
    if _product(_product(u, sparse), v) != expected + [{}] * (m - len(diagonal)):
        raise AssertionError("smith normal form verification failed")
    return SmithDecomposition(u, v, diagonal)


def _zero_rows_vanish(snf, L, x) -> bool:
    """Whether the zero rows of u times the numerators x (an array) all
    vanish mod L: the condition for the system to be solvable."""
    w = _gather(snf._zero_flat, x, len(snf.zero_rows))
    # an int64 w lies below 2**63 in absolute value, so against a larger L
    # it vanishes mod L only where it is 0
    return not (w if w.dtype != object and L >= 2 ** 63 else w % L).any()


def _rank_solution(snf, L, x):
    """(L', numerators of v*y mod L') where y solves the rank rows of
    d*y = u*x/L; a solution of the system whenever one exists."""
    diag, rows = snf.diagonal, snf.rank_rows
    L2 = L * math.lcm(*(diag[i] for i in rows))
    # every y_i is below L2, so y is int64 when L2 is
    y = np.zeros(len(snf.v_rows), dtype=_int_dtype(L2))
    w = _gather(snf._rank_flat, x, len(rows)).tolist()
    y[rows] = [(wi % L) * (L2 // (L * diag[i])) for i, wi in zip(rows, w)]
    return L2, [v % L2 for v in _gather(snf._v_flat, y, len(y)).tolist()]


def solve_exponents(snf, L, nums):
    """Solve mat*x = nums/L over Q/Z on integers, given a decomposition of mat.

    nums are the right-hand side's integer numerators over the denominator
    L.  With u*mat*v = d the system becomes d*y = u*nums/L: each zero row of
    d needs its entry to vanish mod L, y_i = (entry mod L)/(L d_i) where d_i
    is nonzero, and y is 0 elsewhere.  Returns (L', numerators of x = v*y
    mod L') with L' = L * lcm(nonzero d_i), or None when unsolvable.
    """
    m = len(snf.u_rows)
    if len(nums) != m:
        raise ValueError(f"expected {m} right-hand entries, got {len(nums)}")
    x = nums if isinstance(nums, np.ndarray) else np.array(nums, dtype=object)
    if not _zero_rows_vanish(snf, L, x):
        return None
    return _rank_solution(snf, L, x)


def solve_mod1(mat, v):
    """Find x with mat*x = v in Q/Z (entries as Root); None when unsolvable.

    The Root wrapper of solve_exponents; a value of v that is not a Root
    raises ValueError.
    """
    sol = solve_exponents(smith_normal_form(mat), *_common_denominator(v, "right-hand value"))
    if sol is None:
        return None
    L, nums = sol
    return [_root(k, L) for k in nums]
