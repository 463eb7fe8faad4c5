"""Exact integer linear algebra: Smith normal form and linear systems over Q/Z.

Matrices are plain lists of lists of Python ints, so every pivot is computed
in arbitrary precision.  The largest system in use is the bar coboundary
system of a group of order 12 (1331 x 121 on Z_4 x Z_3); its unimodular
transforms are sparse, and matmul, the one product here, skips zero entries
of its left factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .roots import Root, canonical_root


def _identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def matmul(a, b):
    """Exact product of two matrices (lists of rows) of ints or Fractions.

    Row i of the product is the sum of the rows of b weighted by the nonzero
    entries of row i of a, so the cost grows with the nonzeros of a.
    """
    cols_a = len(a[0]) if a else 0
    assert cols_a == len(b)
    cols_b = len(b[0]) if b else 0
    out = []
    for ai in a:
        row = [0] * cols_b
        for aik, bk in zip(ai, b):
            if aik:
                row = [r + aik * x for r, x in zip(row, bk)]
        out.append(row)
    return out


@dataclass
class SmithDecomposition:
    """u * m * v = d with u, v unimodular and d diagonal, d_1 | d_2 | ..."""

    u: list
    d: list
    v: list

    @property
    def diagonal(self):
        rows = len(self.d)
        cols = len(self.d[0]) if rows else 0
        return [self.d[i][i] for i in range(min(rows, cols))]

    @property
    def zero_rows(self):
        """Indices of the zero rows of d: past the diagonal, or a zero entry on it."""
        diag = self.diagonal
        return [i for i in range(len(self.d)) if i >= len(diag) or not diag[i]]


def smith_normal_form(mat):
    """Compute the Smith normal form of an integer matrix.

    u*mat*v is re-multiplied and compared against d before returning.

    Args:
        mat: list of equal-length rows of ints (may be empty).

    Returns:
        SmithDecomposition with non-negative diagonal entries forming a
        divisibility chain.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    d = [list(row) for row in mat]
    for row in d:
        if len(row) != n:
            raise ValueError("ragged matrix")
    u = _identity(m)
    v = _identity(n)

    # each row operation acts on d and u, each column operation on d and v
    def swap_rows(r1, r2):
        for t in (d, u):
            t[r1], t[r2] = t[r2], t[r1]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        for t in (d, u):
            drow, srow = t[dst], t[src]
            for j in range(len(srow)):
                if srow[j]:
                    drow[j] += c * srow[j]

    def swap_cols(c1, c2):
        for row in d + v:
            row[c1], row[c2] = row[c2], row[c1]

    def add_col(dst, src, c):
        # col_dst += c * col_src
        for row in d + v:
            if row[src]:
                row[dst] += c * row[src]

    for k in range(min(m, n)):
        while True:
            # smallest nonzero entry of the trailing submatrix becomes the pivot
            best = None
            for i in range(k, m):
                row = d[i]
                for j in range(k, n):
                    e = row[j]
                    if e and (best is None or abs(e) < best[0]):
                        best = (abs(e), i, j)
            if best is None:
                break
            _, bi, bj = best
            if bi != k:
                swap_rows(k, bi)
            if bj != k:
                swap_cols(k, bj)
            pivot = d[k][k]

            dirty = False
            for i in range(k + 1, m):
                if d[i][k]:
                    q = d[i][k] // pivot
                    if q:
                        add_row(i, k, -q)
                    if d[i][k]:
                        dirty = True
            if dirty:
                continue
            for j in range(k + 1, n):
                if d[k][j]:
                    q = d[k][j] // pivot
                    if q:
                        add_col(j, k, -q)
                    if d[k][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole remaining block for the chain property
            stray = None
            for i in range(k + 1, m):
                row = d[i]
                for j in range(k + 1, n):
                    if row[j] % pivot:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            add_row(k, stray, 1)

        if d[k][k] < 0:
            for t in (d, u):
                t[k] = [-e for e in t[k]]

    if matmul(matmul(u, mat), v) != d:
        raise AssertionError("smith normal form verification failed")
    return SmithDecomposition(u, d, v)


def left_kernel(mat):
    """Basis (as rows) of {x : x * mat = 0}, read off the zero rows of the SNF."""
    snf = smith_normal_form(mat)
    return [list(snf.u[i]) for i in snf.zero_rows]


def _apply(mat, roots):
    """mat times a column of roots, as integer numerators over one denominator."""
    L = math.lcm(*(r.exponent.denominator for r in roots))
    column = [[r.exponent.numerator * (L // r.exponent.denominator)] for r in roots]
    return [Root(Fraction(row[0], L)) for row in matmul(mat, column)]


def solve_with_snf(snf, v):
    """Solve mat*x = v over Q/Z given a precomputed decomposition of mat.

    v is a sequence of Root; returns a list of Root or None when unsolvable.
    With u*mat*v' = d the system becomes d*y = u*v, solved per diagonal entry.
    """
    m = len(snf.u)
    n = len(snf.v)
    if len(v) != m:
        raise ValueError(f"expected {m} right-hand entries, got {len(v)}")
    w = _apply(snf.u, v)
    if any(not w[i].is_one() for i in snf.zero_rows):
        return None
    diag = snf.diagonal
    y = [canonical_root(w[i], di) if di else Root.one() for i, di in enumerate(diag)]
    return _apply(snf.v, y + [Root.one()] * (n - len(diag)))


def solve_mod1(mat, v):
    """Find x with mat*x = v in Q/Z (entries as Root); None when unsolvable."""
    return solve_with_snf(smith_normal_form(mat), v)
