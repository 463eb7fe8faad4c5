"""Exact integer linear algebra: Smith normal form and linear systems over Q/Z.

The elimination, _sparse_smith_normal_form, takes a matrix as sparse rows
of (column, entry) pairs; smith_normal_form is its entry point for dense
lists of rows.  It works on a dense array d and a dense transform v, in
int64 while each step's bound stays below 2**63 and on exact Python ints
from the first step whose bound could reach it.  It does not form u: it
logs each row step as (destination rows, source row, multipliers), and
the decomposition keeps that log, v and the diagonal of d.  The rows of u
are replayed from the log where they are read.  The rank rows, those of d
with a nonzero diagonal entry, come from only the steps they depend on:
they are what the eager self-check and the rank solve read.  The full u,
with its zero rows, is replayed only for solve_exponents, whose
solvability test gathers over the zero rows, and for the dense views.
The solves gather over flat arrays, in int64 when the sums fit.  Root
appears only in the wrapper solve_mod1.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .roots import _common_denominator, _root

# rows of the trailing block in the pivot search's first chunk: on the bar
# system of Z_4 x Z_3 the pivot row lies a median of 19 rows below row k
_LEAD = 64


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


def _absmax(a) -> int:
    """The largest absolute entry of the array a as a Python int; 0 when empty."""
    return int(np.abs(a).max(initial=0))


def _widen(bound, *arrays):
    """The arrays as they are while bound stays below 2**63, as exact Python
    ints (object arrays) once it could reach it."""
    if _int_dtype(bound) is np.int64:
        return arrays
    return tuple(a.astype(object, copy=False) for a in arrays)


def _replay(log, positions):
    """The rows of u at the given positions, as sparse dicts, replayed from
    the elimination's log.

    One backward pass over the row steps keeps those whose destinations the
    wanted rows depend on, and only a kept step's source joins them; the
    kept steps are then applied in order to rows that start as the
    identity's.  Rows flipped by the sign fix are negated last: no later
    step reads a row once its diagonal entry is final.
    """
    steps, order, flipped = log
    needed = np.zeros(len(order), dtype=bool)
    needed[[order[p] for p in positions]] = True
    kept = []
    for dsts, src, mults in reversed(steps):
        sel = needed[dsts]
        if sel.any():
            kept.append((dsts[sel].tolist(), src, mults[sel].tolist()))
            needed[src] = True
    u = {}
    for dsts, src, mults in reversed(kept):
        s = u.setdefault(src, {src: 1})
        for t, c in zip(dsts, mults):
            _addmul(u.setdefault(t, {t: 1}), s, c)
    rows = []
    for p in positions:
        row = u.get(order[p], {order[p]: 1})
        rows.append({j: -e for j, e in row.items()} if p in flipped else row)
    return rows


class SmithDecomposition:
    """u * m * v = d with u, v unimodular and d diagonal, d_1 | d_2 | ...

    It holds m as sparse rows {column: nonzero entry}, v as an array,
    diagonal (the min(rows, cols) diagonal entries of d) and the
    elimination's log of row steps, from which u is replayed.  Construction
    checks what the rank solve reads (_verify_rank) and raises
    AssertionError when the check fails.  Everything else is built on
    first use: the rank rows of u from the log steps they depend on; u_rows,
    every row of u, from the whole log and checked as u*m*v = d; v_rows as
    sparse dicts; the dense u, d and v (lists of rows); the rank rows and
    zero rows of d; and the flat arrays that the solve gathers through (u's
    rank rows, u's zero rows and v).
    """

    def __init__(self, mat, v, diagonal, log):
        self._mat, self._v, self.diagonal, self._log = mat, v, diagonal, log
        _verify_rank(self)

    @cached_property
    def u_rows(self):
        u = _replay(self._log, range(len(self._mat)))
        expected = [{i: e} if e else {} for i, e in enumerate(self.diagonal)]
        if _product(_product(u, self._mat), self.v_rows) != (
                expected + [{}] * (len(u) - len(expected))):
            raise AssertionError("smith normal form verification failed")
        return u

    @cached_property
    def v_rows(self):
        return [{j: e for j, e in enumerate(row) if e} for row in self._v.tolist()]

    @cached_property
    def u(self):
        return _dense(self.u_rows, len(self._mat))

    @cached_property
    def v(self):
        return self._v.tolist()

    @cached_property
    def d(self):
        return [[self.diagonal[i] if i == j else 0 for j in range(len(self._v))]
                for i in range(len(self._mat))]

    @cached_property
    def rank_rows(self):
        """Indices of the rows of d with a nonzero diagonal entry."""
        return [i for i, di in enumerate(self.diagonal) if di]

    @cached_property
    def zero_rows(self):
        """Indices of the zero rows of d: past the diagonal, or a zero entry on it."""
        diag = self.diagonal
        return [i for i in range(len(self._mat)) if i >= len(diag) or not diag[i]]

    @cached_property
    def _rank_u(self):
        return _replay(self._log, self.rank_rows)

    @cached_property
    def _rank_flat(self):
        return _flatten(self._rank_u)

    @cached_property
    def _zero_flat(self):
        return _flatten([self.u_rows[i] for i in self.zero_rows])

    @cached_property
    def _v_flat(self):
        return _flatten(self.v_rows)


def _verify_rank(snf):
    """Check the two facts that make _rank_solution a solution of m*x = b
    over Q/Z whenever one exists (notes/decisions.md): (a) u_rank*m*v =
    d_rank on the rank rows, and (b) m*v is zero in every column off the
    rank and divisible by d_i in rank column i.  (a) is formed as
    (u_rank*m)*v, since u_rank*m = d_rank*v^-1 stays sparse; (b) reads only
    the columns of v that it constrains: those off the rank and those of
    non-unit d_i."""
    mat, v, diag, rows = snf._mat, snf._v, snf.diagonal, snf.rank_rows
    ok = _product(_product(snf._rank_u, mat), snf.v_rows) == [{i: diag[i]} for i in rows]
    trailing = [j for j in range(len(v)) if j >= len(diag) or not diag[j]]
    nonunit = [i for i in rows if diag[i] != 1]
    nonempty, starts, cols, entries, bound = _flatten(mat)
    if ok and trailing + nonunit and nonempty.size:
        sub = v[:, trailing + nonunit]
        dtype = _int_dtype(bound * max(_absmax(sub), 1))
        # one term per nonzero of m, summed per row
        mv = np.add.reduceat(entries.astype(dtype)[:, None] * sub.astype(dtype)[cols],
                             starts, axis=0)
        ok = not (mv[:, :len(trailing)].any() or (
            mv[:, len(trailing):] % np.array([diag[i] for i in nonunit], dtype=object)).any())
    if not ok:
        raise AssertionError("smith normal form verification failed")


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


def _pivot(d, k):
    """(i, j) of the smallest nonzero |entry| of d[k:, k:], the first in
    row-major order among equals; None when the block is zero.

    No entry is smaller than a unit, so the first row holding a unit ends
    the search.  Units are looked for in chunks of rows that double from
    _LEAD, so the rows scanned are at most about twice those above the
    pivot row; only a block without a unit is searched whole for its
    smallest entry.
    """
    lo, size = k, _LEAD
    while lo < len(d):
        hits = np.abs(d[lo:lo + size, k:]) == 1
        if hits.any():
            i, j = divmod(int(np.argmax(hits)), hits.shape[1])
            return lo + i, k + j
        lo, size = lo + size, 2 * size
    block = np.abs(d[k:, k:])
    nonzero = block[block != 0]
    if not nonzero.size:
        return None
    i, j = divmod(int(np.argmax(block == nonzero.min())), block.shape[1])
    return k + i, k + j


def _sparse_smith_normal_form(rows, n: int):
    """Smith normal form of the matrix with n columns whose rows are given
    as (column, entry) pairs, zero entries allowed.

    d and v are arrays, int64 while each step's bound (the largest absolute
    entry it reads plus its largest multiplier times the largest absolute
    entry of its source) stays below 2**63, exact Python ints from the first
    step whose bound could reach it.  u is not formed: each row step is
    logged as (destination rows, source row, multipliers) on the rows'
    original ids, together with the final row order and the rows whose sign
    was fixed.  The decomposition checks itself on construction.
    """
    mat = [{j: e for j, e in row if e} for row in rows]
    m = len(mat)
    d = np.zeros((m, n), dtype=_int_dtype(
        max((abs(e) for row in mat for e in row.values()), default=0)))
    d[np.repeat(np.arange(m), [len(row) for row in mat]),
      np.array([j for row in mat for j in row], dtype=np.intp)] = [
        e for row in mat for e in row.values()]
    v = np.eye(n, dtype=d.dtype)
    order = np.arange(m)
    steps, flipped = [], set()

    # rows k.. of d have no entries left of column k: they are the trailing
    # block; rows above k hold only their diagonal entry
    for k in range(min(m, n)):
        while True:
            found = _pivot(d, k)
            if found is None:
                break
            bi, bj = found
            if bi != k:
                d[[k, bi]] = d[[bi, k]]
                order[[k, bi]] = order[[bi, k]]
            if bj != k:
                d[k:, [k, bj]] = d[k:, [bj, k]]
                v[:, [k, bj]] = v[:, [bj, k]]

            below = k + 1 + np.flatnonzero(d[k + 1:, k])
            if below.size:
                # the clear changes only the columns where row k is nonzero
                cols = np.flatnonzero(d[k])
                block = np.ix_(below, cols)
                old = d[block]
                q = d[below, k] // d[k, k]
                d, v = _widen(_absmax(old) + _absmax(q) * _absmax(d[k, cols]), d, v)
                q = q.astype(d.dtype, copy=False)
                d[block] = old - np.outer(q, d[k, cols])
                steps.append((order[below], int(order[k]), -q))
                if d[below, k].any():
                    continue
            # of d, only row k still holds column k, so a column operation
            # changes d only in row k
            pivot = d[k, k]
            right = k + 1 + np.flatnonzero(d[k, k + 1:])
            if right.size:
                q = d[k, right] // pivot
                d, v = _widen(_absmax(v[:, right]) + _absmax(q) * _absmax(v[:, k]), d, v)
                pivot, q = d[k, k], q.astype(d.dtype, copy=False)
                d[k, right] %= pivot
                v[:, right] -= v[:, k:k + 1] * q
                if d[k, right].any():
                    continue
            # pivot must divide the whole remaining block for the chain
            # property; a unit divides everything
            if abs(pivot) == 1:
                break
            stray = np.flatnonzero((d[k + 1:] % pivot).any(axis=1))
            if not stray.size:
                break
            stray = k + 1 + int(stray[0])
            d, v = _widen(_absmax(d[k]) + _absmax(d[stray]), d, v)
            d[k] += d[stray]
            steps.append((order[[k]], int(order[stray]), np.ones(1, dtype=d.dtype)))

        if d[k, k] < 0:
            d[k] = -d[k]
            flipped.add(k)

    return SmithDecomposition(mat, v, [int(d[i, i]) for i in range(min(m, n))],
                              (steps, order.tolist(), flipped))


def _zero_rows_vanish(snf, L, x) -> bool:
    """Whether the zero rows of u times the numerators x (an array) all
    vanish mod L: the condition for the system to be solvable."""
    w = _gather(snf._zero_flat, x, len(snf.zero_rows))
    # an int64 w lies below 2**63 in absolute value, so against a larger L
    # it vanishes mod L only where it is 0
    return not (w if w.dtype != object and L >= 2 ** 63 else w % L).any()


def _rank_solution(snf, L, x):
    """(L', numerators of v*y mod L') where y solves the rank rows of
    d*y = u*x/L; a solution of the system whenever one exists, by the
    facts that _verify_rank checks."""
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
    m = len(snf._mat)
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
