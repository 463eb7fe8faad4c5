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
