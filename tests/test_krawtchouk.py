from math import comb

import pytest

from flatspec.exact_linear import trace_p
from flatspec.oracles import diagonal_trace, krawtchouk, krawtchouk_subset_oracle


def test_known_zero():
    assert krawtchouk(2, 3, 9) == 0


def test_degree_zero_is_one():
    for h in range(9):
        for j in range(h + 1):
            assert krawtchouk(0, j, h) == 1


def test_empty_flip_set_gives_binomial():
    for h in range(9):
        for l in range(h + 1):
            assert krawtchouk(l, 0, h) == comb(h, l)


def test_range_violations():
    with pytest.raises(ValueError):
        krawtchouk(5, 0, 4)
    with pytest.raises(ValueError):
        krawtchouk(0, 5, 4)
    with pytest.raises(ValueError):
        krawtchouk(-1, 0, 4)


class TestSubsetOracle:
    def test_known_zero(self):
        assert krawtchouk_subset_oracle(2, 3, 9) == 0

    def test_two_singletons_cancel(self):
        assert krawtchouk_subset_oracle(1, 1, 2) == 0

    def test_full_subset(self):
        for h in range(1, 8):
            for j in range(h + 1):
                assert krawtchouk_subset_oracle(h, j, h) == (-1) ** j

    def test_cap(self):
        with pytest.raises(ValueError):
            krawtchouk_subset_oracle(1, 1, 23)

    def test_matches_closed_form_exhaustively(self):
        for h in range(13):
            for l in range(h + 1):
                for j in range(h + 1):
                    assert krawtchouk(l, j, h) == krawtchouk_subset_oracle(l, j, h)


class TestSymmetries:
    def test_complement_identities(self):
        for n in range(1, 13):
            for l in range(1, n + 1):
                for j in range(1, n + 1):
                    assert krawtchouk(l, j, n) == (-1) ** j * krawtchouk(n - l, j, n)
                    assert krawtchouk(l, j, n) == (-1) ** l * krawtchouk(l, n - j, n)

    def test_even_dimension_zeros(self):
        for n in range(2, 13, 2):
            for l in range(1, n + 1, 2):
                assert krawtchouk(l, n // 2, n) == 0
            for j in range(1, n + 1, 2):
                assert krawtchouk(n // 2, j, n) == 0

    def test_nine_dimensional_zero_set(self):
        zeros = {
            (l, j)
            for l in range(1, 9)
            for j in range(1, 9)
            if krawtchouk(l, j, 9) == 0
        }
        assert zeros == {
            (2, 3), (2, 6), (3, 2), (3, 7), (6, 2), (6, 7), (7, 3), (7, 6)
        }


class TestDiagonalTrace:
    def test_nine_dimensional_vanishing(self):
        # diag matrix fixing 3 of 9 coordinates kills the 2-form trace
        assert diagonal_trace(2, 9, 3) == 0
        assert diagonal_trace(7, 9, 3) == 0

    def test_degree_zero(self):
        for n in range(1, 8):
            for f in range(n + 1):
                assert diagonal_trace(0, n, f) == 1

    def test_plain_trace_counts_signs(self):
        for n in range(2, 9):
            for k in range(n + 1):
                assert diagonal_trace(1, n, k) == 2 * k - n

    def test_agrees_with_exterior_trace_of_diagonal_matrix(self):
        for n in range(1, 11):
            for fixed in range(n + 1):
                m = tuple(
                    tuple((1 if i < fixed else -1) if i == j else 0 for j in range(n))
                    for i in range(n)
                )
                for p in range(n + 1):
                    assert diagonal_trace(p, n, fixed) == trace_p(m, p)

    def test_range_violation(self):
        with pytest.raises(ValueError):
            diagonal_trace(1, 4, 5)
