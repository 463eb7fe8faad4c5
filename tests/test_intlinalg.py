import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dense_reference import left_kernel, matmul

from grcat.intlinalg import (SmithDecomposition, smith_normal_form, solve_exponents,
                             solve_mod1)
from grcat.roots import Root


def is_diagonal_with_chain(d):
    rows, cols = len(d), len(d[0]) if d else 0
    for i in range(rows):
        for j in range(cols):
            if i != j and d[i][j]:
                return False
    diag = [d[i][i] for i in range(min(rows, cols))]
    if any(v < 0 for v in diag):
        return False
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            return False
        if a and b % a:
            return False
    return True


def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def test_known_forms():
    assert smith_normal_form([[2, 4], [6, 8]]).diagonal == [2, 4]
    assert smith_normal_form([[1, 2], [3, 4]]).diagonal == [1, 2]
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == [0, 0]
    assert smith_normal_form([[1, 0], [0, 1]]).diagonal == [1, 1]
    assert smith_normal_form([[2, 4, 6]]).diagonal == [2]
    assert smith_normal_form([[3], [6]]).diagonal == [3]


def test_transforms_multiply_out():
    m = [[2, 4], [6, 8]]
    snf = smith_normal_form(m)
    assert matmul(matmul(snf.u, m), snf.v) == snf.d
    assert det2(snf.u) in (1, -1)
    assert det2(snf.v) in (1, -1)


def test_random_matrices_reach_normal_form():
    rng = random.Random(3)
    for _ in range(120):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(m)
        assert is_diagonal_with_chain(snf.d)
        assert matmul(matmul(snf.u, m), snf.v) == snf.d


def _det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_diagonal_matches_determinantal_divisors():
    # product d_1..d_k equals the gcd of all k x k minors
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        diag = smith_normal_form(m).diagonal
        for k in range(1, min(rows, cols) + 1):
            minors = [
                _det([[m[r][c] for c in cset] for r in rset])
                for rset in itertools.combinations(range(rows), k)
                for cset in itertools.combinations(range(cols), k)
            ]
            dk = math.gcd(*minors) if len(minors) > 1 else abs(minors[0])
            prod = 1
            for v in diag[:k]:
                prod *= v
            assert prod == dk


def test_left_kernel():
    assert left_kernel([[2, 4], [6, 8]]) == []
    k = left_kernel([[1, 1], [1, 1]])
    assert len(k) == 1
    row = k[0]
    assert [row[0] + row[1], row[0] + row[1]] == [0, 0]
    assert left_kernel([[0, 0], [0, 0]]) != []


def test_solve_single_unknown():
    # 2x = 1/2 with canonical choice x = 1/4
    sol = solve_mod1([[2]], [Root.of(1, 2)])
    assert sol == [Root.of(1, 4)]


def test_solve_two_equations_one_unknown():
    # the pair g^2 = zeta_4, g^-2 = zeta_4^-1 has the common solution zeta_8
    sol = solve_mod1([[2], [-2]], [Root.of(1, 4), Root.of(3, 4)])
    assert sol is not None
    g = sol[0]
    assert g ** 2 == Root.of(1, 4)
    assert g ** -2 == Root.of(3, 4)


def test_solve_detects_inconsistency():
    assert solve_mod1([[2], [2]], [Root.of(1, 2), Root.one()]) is None
    # zero row forces the right-hand side to vanish there
    assert solve_mod1([[0]], [Root.of(1, 3)]) is None
    assert solve_mod1([[0]], [Root.one()]) == [Root.one()]


def test_solve_rectangular_and_substitute():
    rng = random.Random(17)
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        x = [Root.of(rng.randrange(12), 12) for _ in range(cols)]
        rhs = []
        for i in range(rows):
            acc = Root.one()
            for j in range(cols):
                acc = acc * x[j] ** m[i][j]
            rhs.append(acc)
        sol = solve_mod1(m, rhs)
        # a solution must exist (x is one); the returned one must substitute back
        assert sol is not None
        for i in range(rows):
            acc = Root.one()
            for j in range(cols):
                acc = acc * sol[j] ** m[i][j]
            assert acc == rhs[i]


def test_solve_with_precomputed_decomposition():
    m = [[2, 0], [0, 3]]
    sol = solve_mod1(m, [Root.of(1, 2), Root.of(2, 3)])
    assert sol is not None
    assert sol[0] ** 2 == Root.of(1, 2)
    assert sol[1] ** 3 == Root.of(2, 3)
    with pytest.raises(ValueError):
        solve_mod1(m, [Root.one()])
    # the integer solve reuses one decomposition: 1/2 and 2/3 over 6
    snf = smith_normal_form(m)
    L, nums = solve_exponents(snf, 6, [3, 4])
    assert [Root(Fraction(k, L)) for k in nums] == sol
    with pytest.raises(ValueError):
        solve_exponents(snf, 1, [0])


def test_solve_rejects_non_root_values():
    with pytest.raises(ValueError, match=r"^right-hand value 0\.5 must be a Root$"):
        solve_mod1([[1]], [0.5])


def test_matmul_shape_guard():
    with pytest.raises(AssertionError):
        matmul([[1, 2]], [[1, 2]])


def test_solvability_matches_left_kernel_criterion():
    # M x = v has a solution mod 1 exactly when v pairs to zero with
    # every integer row vector annihilating M from the left
    rng = random.Random(17)
    seen_solvable = seen_unsolvable = 0
    for _ in range(200):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        m = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        v = [Root(Fraction(rng.randrange(6), 6)) for _ in range(rows)]
        x = solve_mod1(m, v)
        orthogonal = all(
            sum(Fraction(u) * r.exponent for u, r in zip(krow, v)) % 1 == 0
            for krow in left_kernel(m)
        )
        assert (x is not None) == orthogonal
        if x is None:
            seen_unsolvable += 1
        else:
            seen_solvable += 1
            for mrow, r in zip(m, v):
                got = sum(Fraction(c) * s.exponent for c, s in zip(mrow, x))
                assert got % 1 == r.exponent
    assert seen_solvable > 20 and seen_unsolvable > 20


def _pin_matrices():
    # 200 seeded shapes from 0 x k to 8 x 8 with entries in -6..6; a common
    # step of 2 or 3 and a share of zeros reach non-unit pivots and stray rows
    rng = random.Random("snf pins")
    for _ in range(200):
        rows, cols = rng.randrange(9), rng.randrange(9)
        step = rng.choice((1, 1, 2, 3))
        density = rng.choice((0.3, 0.6, 1.0))
        yield [[rng.randrange(-6 // step, 6 // step + 1) * step
                if rng.random() < density else 0 for _ in range(cols)]
               for _ in range(rows)]


def test_random_decompositions_pinned():
    # u, v and the diagonal as the elimination gave them before it took
    # sparse rows and bounded its pivot search
    canonical = []
    for m in _pin_matrices():
        snf = smith_normal_form(m)
        canonical.append(([sorted(row.items()) for row in snf.u_rows],
                          [sorted(row.items()) for row in snf.v_rows], snf.diagonal))
    assert hashlib.sha256(repr(canonical).encode()).hexdigest() == (
        "f75a5f393e5321e8301f430b5462bf22d92d3a55e21cfa97ed43cf28e7a9f97e")


def _solve_by_rows(snf, L, nums):
    """solve_exponents as a loop over the sparse rows of u and v."""
    w = [sum(e * nums[j] for j, e in row.items()) for row in snf.u_rows]
    if any(w[i] % L for i in snf.zero_rows):
        return None
    L2 = L * math.lcm(*(di for di in snf.diagonal if di))
    y = [(w[i] % L) * (L2 // (L * di)) if di else 0 for i, di in enumerate(snf.diagonal)]
    y += [0] * (len(snf.v_rows) - len(y))
    return L2, [sum(e * y[j] for j, e in row.items()) % L2 for row in snf.v_rows]


@pytest.mark.parametrize("L", [6, 2 ** 62, 2 ** 70])
def test_solve_exponents_matches_row_loop(L):
    # around 2**62 the products of u and v with the numerators leave int64;
    # the numerators come as a list and as an array (int64 below 2**63)
    rng = random.Random(f"solve {L}")
    solved = 0
    for m in _pin_matrices():
        snf = smith_normal_form(m)
        cols = len(snf.v_rows)
        x = [rng.randrange(L) for _ in range(cols)]
        for nums in ([sum(a * b for a, b in zip(row, x)) % L for row in m],
                     [rng.randrange(-L, L) for _ in m]):
            expected = _solve_by_rows(snf, L, nums)
            assert solve_exponents(snf, L, nums) == expected
            assert solve_exponents(snf, L, np.array(nums)) == expected
            solved += expected is not None
    assert solved > 200
