"""Smith normal form and Q/Z solves on degenerate shapes: empty, zero, negative."""

import pytest

from dense_reference import left_kernel

from grcat.intlinalg import smith_normal_form, solve_mod1
from grcat.roots import Root

# matrix -> (u, d, v, diagonal, zero_rows, left kernel)
EDGE_SHAPES = [
    ([], ([], [], [], [], [], [])),
    ([[]], ([[1]], [[]], [], [], [0], [[1]])),
    ([[], []], ([[1, 0], [0, 1]], [[], []], [], [], [0, 1], [[1, 0], [0, 1]])),
    ([[0, 0, 0]], ([[1]], [[0, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                   [0], [0], [[1]])),
    ([[0], [0]], ([[1, 0], [0, 1]], [[0], [0]], [[1]], [0], [0, 1],
                  [[1, 0], [0, 1]])),
    ([[-3]], ([[-1]], [[3]], [[1]], [3], [], [])),
    ([[0, -2], [0, 4]], ([[-1, 0], [2, 1]], [[2, 0], [0, 0]], [[0, 1], [1, 0]],
                         [2, 0], [1], [[2, 1]])),
]


@pytest.mark.parametrize("mat, expected", EDGE_SHAPES)
def test_edge_shape_decomposition(mat, expected):
    snf = smith_normal_form(mat)
    assert (snf.u, snf.d, snf.v, snf.diagonal, snf.zero_rows,
            left_kernel(mat)) == expected


def test_solve_without_unknowns():
    # no unknowns: solvable exactly when every right-hand entry is 1
    assert solve_mod1([[]], [Root.of(1, 2)]) is None
    assert solve_mod1([[], []], [Root.of(1), Root.of(1)]) == []
