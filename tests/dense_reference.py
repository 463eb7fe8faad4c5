"""Dense matrix references for the Smith normal form tests: the exact
product of two matrices and the left kernel, on lists of rows."""

from grcat.intlinalg import smith_normal_form


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


def left_kernel(mat):
    """Basis (as rows) of {x : x * mat = 0}, read off the zero rows of the SNF."""
    snf = smith_normal_form(mat)
    return [snf.u[i] for i in snf.zero_rows]


def _addmul(dst, src, c):
    """dst += c * src on sparse rows {column: nonzero entry}; c is nonzero."""
    for j, e in src.items():
        x = dst.get(j, 0) + c * e
        if x:
            dst[j] = x
        else:
            del dst[j]


def dict_smith_normal_form(rows, n):
    """(u_rows, v_rows, diagonal) of the matrix with n columns whose rows are
    (column, entry) pairs, by the elimination on dict rows {column: nonzero
    entry} that applies every row operation to u as it goes: the reference
    that the array elimination must reproduce entry for entry, on Python
    ints throughout.

    The pivot is min((|e|, i, j)) over the trailing block; the rows below it
    and the columns right of it are cleared in ascending order; a non-unit
    pivot that leaves an entry it does not divide adds the first such row to
    the pivot row; a negative diagonal entry negates its row.
    """
    d = [{j: e for j, e in row if e} for row in rows]
    m = len(d)
    u = [{i: 1} for i in range(m)]
    v = [{j: 1} for j in range(n)]

    def add_row(dst, src, c):
        for t in (d, u):
            _addmul(t[dst], t[src], c)

    for k in range(min(m, n)):
        while True:
            best = None
            for i in range(k, m):
                if d[i]:
                    e, j = min((abs(e), j) for j, e in d[i].items())
                    if best is None or e < best[0]:
                        best = e, i, j
            if best is None:
                break
            _, bi, bj = best
            d[k], d[bi], u[k], u[bi] = d[bi], d[k], u[bi], u[k]
            if bj != k:
                for row in d[k:] + v:
                    row.update({c: row.pop(o) for c, o in ((bj, k), (k, bj)) if o in row})
            pivot = d[k][k]
            below = [i for i in range(k + 1, m) if k in d[i]]
            for i in below:
                add_row(i, k, -(d[i][k] // pivot))
            if any(k in d[i] for i in below):
                continue
            right = [j for j in sorted(d[k]) if j > k]
            for j in right:
                q = d[k][j] // pivot
                for row in [d[k]] + v:
                    if k in row:
                        _addmul(row, {j: row[k]}, -q)
            if any(j in d[k] for j in right):
                continue
            stray = next((i for i in range(k + 1, m)
                          if any(e % pivot for e in d[i].values())), None)
            if stray is None:
                break
            add_row(k, stray, 1)
        if d[k].get(k, 0) < 0:
            for t in (d, u):
                t[k] = {j: -e for j, e in t[k].items()}
    return u, v, [d[i].get(i, 0) for i in range(min(m, n))]
