"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import strategies as st

from flatspec import HWMatrix, build_hw_group, example
from flatspec.exact_linear import mat_mul

HALF = Fraction(1, 2)


def det_oracle(matrix) -> int:
    """Determinant by minor expansion with column-mask memoization.

    Independent of the cycle-type route used by the package.
    """
    n = len(matrix)

    @lru_cache(maxsize=None)
    def expand(row: int, colmask: int) -> int:
        if row == n:
            return 1
        total = 0
        sign = 1
        for j in range(n):
            if colmask & (1 << j):
                if matrix[row][j]:
                    total += sign * matrix[row][j] * expand(row + 1, colmask & ~(1 << j))
                sign = -sign
        return total

    return expand(0, (1 << n) - 1)


def signed_permutations(n):
    """Hypothesis strategy: n x n signed permutation matrices."""
    return st.tuples(st.permutations(range(n)), st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)).map(
        lambda pair: tuple(
            tuple(pair[1][i] if j == pair[0][i] else 0 for j in range(n))
            for i in range(n)
        )
    )


def char_poly(m) -> list[int]:
    """Coefficients of det(xI - m), degree-descending, leading coefficient 1.

    Uses the Faddeev-LeVerrier recurrence; every division is exact and
    asserted, so the result is correct over Z for any integer matrix.  A
    reference for the package's cycle-type exterior traces.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("characteristic polynomial needs a square matrix")
    coeffs = [1]
    acc = m
    for k in range(1, n + 1):
        t = sum(acc[i][i] for i in range(n))
        if t % k != 0:
            raise ArithmeticError("Faddeev-LeVerrier divisibility broken")
        c = -(t // k)
        coeffs.append(c)
        if k < n:
            shifted = tuple(
                tuple(acc[i][j] + (c if i == j else 0) for j in range(n))
                for i in range(n)
            )
            acc = mat_mul(m, shifted)
    return coeffs


def diagonal_fixed_count(matrix) -> int:
    """n_B: coordinates fixed by a diagonal +-1 matrix (asserted diagonal)."""
    n = len(matrix)
    assert all(matrix[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    return sum(1 for i in range(n) if matrix[i][i] == 1)


def classical_hw_matrix() -> HWMatrix:
    return HWMatrix(n=3, rows=((HALF, HALF, 0), (0, HALF, HALF)))


def corpus_defs():
    """Labelled group definitions covering every catalog entry."""
    pairs = ["4.3", "4.5", "5.1", "5.5", "5.6", "5.7", "5.8"]
    out = []
    for key in pairs:
        first, second = example(key)
        out.append((first.label, first))
        out.append((second.label, second))
    for key in ["4.1(n=4,k=1)", "4.1(n=4,k=3)", "4.1(n=6,k=3)",
                "4.2(n=6,k=3,j=2)", "4.2h(n=4,h=2)", "4.2h(n=6,h=3)"]:
        defn = example(key)
        out.append((defn.label, defn))
    first, second = example("5.9(k=1)")
    out.append((first.label, first))
    out.append((second.label, second))
    hw = build_hw_group(classical_hw_matrix())
    out.append((hw.label, hw))
    return out


@pytest.fixture(scope="session")
def all_corpus_defs():
    return corpus_defs()
