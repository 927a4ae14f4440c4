from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatspec.exact_linear import (
    coset_walk,
    det,
    fixed_cycles,
    hermite_row_basis,
    integer_kernel,
    signed_perm,
    signed_permutation_order,
    smith_normal_form,
    trace_p,
)
from flatspec import example
from flatspec.oracles import in_image_lattice

from conftest import (
    char_poly,
    det_oracle,
    identity_matrix,
    mat_mul,
    mat_sub,
    mat_vec,
    signed_permutations,
    transpose,
)

J = ((0, 1), (-1, 0))


def diag(*entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


small_matrices = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: tuple(tuple(r) for r in rows))
)


class TestCharPoly:
    def test_quarter_turn(self):
        assert char_poly(J) == [1, 0, 1]

    def test_identity_cube(self):
        assert char_poly(identity_matrix(3)) == [1, -3, 3, -1]

    def test_two_by_two_reflection_pair(self):
        # (x-1)^2 (x+1)^2 expanded by hand
        assert char_poly(diag(1, 1, -1, -1)) == [1, 0, -2, 0, 1]

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly(((1, 0, 0), (0, 1, 0)))

    @settings(max_examples=80, deadline=None)
    @given(small_matrices)
    def test_matches_determinant_oracle(self, m):
        n = len(m)
        coeffs = char_poly(m)
        for x in range(-2, 3):
            shifted = tuple(
                tuple((x if i == j else 0) - m[i][j] for j in range(n))
                for i in range(n)
            )
            value = sum(c * x ** (n - k) for k, c in enumerate(coeffs))
            assert value == det_oracle(shifted)


class TestTraceP:
    def test_catalog_6d_order_four_generator(self):
        g, gp = example("5.1")
        b1 = g.generators[0].matrix
        assert trace_p(b1, 2) == 3
        assert [trace_p(b1, p) for p in range(1, 6)] == [2, 3, 4, 3, 2]
        b1p = gp.generators[0].matrix
        assert [trace_p(b1p, p) for p in range(1, 6)] == [0, -1, 0, -1, 0]

    def test_identity_gives_binomials(self):
        from math import comb

        for n in (1, 3, 5):
            m = identity_matrix(n)
            for p in range(n + 1):
                assert trace_p(m, p) == comb(n, p)

    def test_extremes(self):
        m = diag(1, -1, -1)
        assert trace_p(m, 0) == 1
        assert trace_p(m, 3) == det(m) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            trace_p(J, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6).flatmap(signed_permutations))
    def test_orthogonal_duality(self, m):
        n = len(m)
        d = det(m)
        for p in range(n + 1):
            assert trace_p(m, p) == d * trace_p(m, n - p)

    def test_alternating_sum_is_det_of_complement(self, all_corpus_defs):
        from flatspec.crystal import close_point_group

        seen = set()
        for _, defn in all_corpus_defs:
            if defn.dim > 8:
                continue
            for el in close_point_group(defn):
                seen.add(el.matrix)
        assert seen
        for m in seen:
            n = len(m)
            alternating = sum((-1) ** p * trace_p(m, p) for p in range(n + 1))
            complement = tuple(
                tuple((1 if i == j else 0) - m[i][j] for j in range(n))
                for i in range(n)
            )
            assert alternating == det_oracle(complement)


def unit(n, j):
    return tuple(int(i == j) for i in range(n))


def cycle_vector(n, entries):
    """u_c in Z^n from the entries (j, u_c[j]) of a fixed cycle."""
    u = [0] * n
    for j, x in entries:
        u[j] = x
    return tuple(u)


class TestCycles:
    def test_signed_three_cycle(self):
        # e0 -> e1 -> -e2, e2 -> e0: one cycle of length 3, sign -1
        m = ((0, 0, 1), (1, 0, 0), (0, -1, 0))
        # the phase of t = e_j is u_c[j], here taken mod 5
        assert [coset_walk(signed_perm(m) + (unit(3, j),), 5) for j in range(3)] == [
            ((3, -1, 1),), ((3, -1, 1),), ((3, -1, 4),)
        ]
        assert fixed_cycles(signed_perm(m)) == (6, ((3, -1),), ())
        # with e2 -> -e0 the same cycle has sign +1: its entries follow the walk
        flipped = ((0, 0, -1), (1, 0, 0), (0, -1, 0))
        assert fixed_cycles(signed_perm(flipped)) == (3, ((3, 1),), (((0, 1), (1, 1), (2, -1)),))

    def test_fixed_cycle_vector_is_fixed(self):
        m = ((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1))
        # cycles from coordinates 0, 2 and 3, of lengths 2, 1, 1
        assert coset_walk(signed_perm(m) + ((0,) * 4,), 1) == ((2, 1, 0), (1, -1, 0), (1, 1, 0))
        order, cycle_type, fixed = fixed_cycles(signed_perm(m))
        assert (order, cycle_type) == (2, ((2, 1), (1, -1), (1, 1)))
        assert fixed == (((0, 1), (1, -1)), ((3, 1),))
        assert cycle_vector(4, fixed[0]) == (1, -1, 0, 0)
        assert mat_vec(m, cycle_vector(4, fixed[0])) == (1, -1, 0, 0)

    def test_non_signed_permutation_rejected(self):
        bad = ((1, 1), (0, 1))
        for fn in (signed_perm, signed_permutation_order, det):
            with pytest.raises(ValueError):
                fn(bad)
        with pytest.raises(ValueError):
            trace_p(bad, 1)

    def test_forty_dimensional_reflection(self):
        from math import comb

        m = diag(*([1] * 39 + [-1]))
        for p in range(41):
            # p-subsets without the negated coordinate minus those with it
            assert trace_p(m, p) == comb(39, p) - (comb(39, p - 1) if p else 0)
        assert det(m) == -1
        assert signed_permutation_order(m) == 2


class TestCycleCoreDifferential:
    """Cycle-type results against generic integer linear algebra, n <= 10."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 10).flatmap(signed_permutations))
    def test_trace_row_matches_char_poly(self, m):
        coeffs = char_poly(m)
        for p in range(len(m) + 1):
            assert trace_p(m, p) == (-1) ** p * coeffs[p]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 10).flatmap(signed_permutations))
    def test_det_matches_minor_expansion(self, m):
        assert det(m) == det_oracle(m)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 10).flatmap(signed_permutations))
    def test_order_matches_repeated_products(self, m):
        ident = identity_matrix(len(m))
        acc, k = m, 1
        while acc != ident:
            acc, k = mat_mul(acc, m), k + 1
        assert signed_permutation_order(m) == k

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 10).flatmap(signed_permutations))
    def test_fixed_cycles_span_the_kernel(self, m):
        order, _, fixed = fixed_cycles(signed_perm(m))
        assert order == signed_permutation_order(m)
        vectors = [cycle_vector(len(m), c) for c in fixed]
        for c, u in zip(fixed, vectors):
            assert mat_vec(m, u) == u
            assert c[0][1] == 1 and sum(x * x for x in u) == len(c)
        for a in range(len(fixed)):
            for b in range(a + 1, len(fixed)):
                assert sum(x * y for x, y in zip(vectors[a], vectors[b])) == 0
        kernel = integer_kernel(mat_sub(m, identity_matrix(len(m))))
        assert hermite_row_basis(vectors) == hermite_row_basis(kernel)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 10).flatmap(signed_permutations), st.randoms(use_true_random=False))
    def test_walk_phases_match_the_fixed_cycles(self, m, rng):
        """coset_walk's cycles are fixed_cycles' cycle type, and its sign +1
        cycles are fixed_cycles', in order, with phase u_c . t mod q; its
        cycles cover every coordinate once."""
        n, q = len(m), 12
        t = tuple(rng.randrange(q) for _ in range(n))
        walk = coset_walk(signed_perm(m) + (t,), q)
        _, cycle_type, fixed = fixed_cycles(signed_perm(m))
        assert cycle_type == tuple((length, sign) for length, sign, _ in walk)
        assert sum(length for length, _, _ in walk) == n
        assert [(length, a) for length, sign, a in walk if sign == 1] == [
            (len(c), sum(u * t[j] for j, u in c) % q) for c in fixed
        ]


class TestSignedPermutations:
    def test_recognition(self):
        assert signed_perm(J) == ((1, 0), (-1, 1))
        for bad in (((1, 1), (0, 1)), ((2, 0), (0, 1))):
            with pytest.raises(ValueError):
                signed_perm(bad)

    def test_orders(self):
        assert signed_permutation_order(J) == 4
        assert signed_permutation_order(identity_matrix(4)) == 1
        assert signed_permutation_order(diag(1, -1)) == 2
        # 3-cycle with one sign flip has order 6
        m = ((0, 0, -1), (1, 0, 0), (0, 1, 0))
        assert signed_permutation_order(m) == 6
        acc = identity_matrix(3)
        for _ in range(6):
            acc = mat_mul(acc, m)
        assert acc == identity_matrix(3)


class TestIntegerKernel:
    def test_fixed_space_of_diagonal_reflection(self):
        m = diag(0, 0, 0, -2)  # C_3 - I for C_3 = diag(1,1,1,-1)
        assert integer_kernel(m) == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))

    def test_rotation_has_no_fixed_vectors(self):
        m = ((-1, 1), (-1, -1))  # J - I
        assert integer_kernel(m) == ()

    def test_catalog_6d_fixed_space(self):
        g, _ = example("5.1")
        b1 = g.generators[0].matrix
        m = tuple(
            tuple(b1[i][j] - (1 if i == j else 0) for j in range(6)) for i in range(6)
        )
        assert integer_kernel(m) == (
            (0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 1),
        )

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_kernel_is_primitive_and_annihilated(self, m):
        basis = integer_kernel(m)
        for v in basis:
            assert all(x == 0 for x in mat_vec(m, v))
        if basis:
            assert all(d == 1 for d in smith_normal_form(basis))


rectangular_matrices = st.tuples(st.integers(1, 6), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-4, 4), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    ).map(lambda rows: tuple(tuple(r) for r in rows))
)


class TestSmithNormalForm:
    def test_coprime_diagonal(self):
        assert smith_normal_form(diag(2, 3)) == (1, 6)

    def test_zero_matrix(self):
        assert smith_normal_form(((0, 0), (0, 0))) == (0, 0)

    def test_scalar_matrix(self):
        assert smith_normal_form(diag(2, 2)) == (2, 2)

    def test_rectangular_zeros_last(self):
        assert smith_normal_form(((0, 4), (0, 6), (0, 0))) == (2, 0)

    @settings(max_examples=150, deadline=None)
    @given(rectangular_matrices)
    def test_chain_and_minor_gcds(self, m):
        """d_1 ... d_k is the gcd of the k x k minors (Cohen, 2.4.14)."""
        factors = smith_normal_form(m)
        assert len(factors) == min(len(m), len(m[0]))
        for a, b in zip(factors, factors[1:]):
            assert a >= 0
            assert b % a == 0 if a else b == 0
        for k in range(1, len(factors) + 1):
            minors = [
                det_oracle(tuple(tuple(m[i][j] for j in cols) for i in rows))
                for rows in combinations(range(len(m)), k)
                for cols in combinations(range(len(m[0])), k)
            ]
            assert prod(factors[:k]) == gcd(*minors), k


class TestHermiteRowBasis:
    def test_canonical_form(self):
        basis = hermite_row_basis(((2, 4, 1), (0, 3, 0)))
        # pivots positive, entries above pivots reduced
        assert basis == ((2, 1, 1), (0, 3, 0))

    def test_deterministic_under_row_order(self):
        rows = ((3, 1, 0), (1, 2, 5), (0, 7, 1))
        assert hermite_row_basis(rows) == hermite_row_basis(rows[::-1])


class TestInImageLattice:
    def test_shift_image_misses_unit_vector(self):
        # C_k + I for the 4d reflection family: image has even first coordinate
        s = diag(2, 0, 0, 0)
        assert not in_image_lattice(s, (1, 0, 0, 0))

    def test_identity_hits_everything(self):
        assert in_image_lattice(identity_matrix(3), (5, -7, 0))

    def test_doubling_misses_odd(self):
        assert not in_image_lattice(diag(2, 2), (1, 0))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            in_image_lattice(identity_matrix(2), (Fraction(1, 2), Fraction(0)))

    @settings(max_examples=60, deadline=None)
    @given(small_matrices, st.lists(st.integers(-5, 5), min_size=2, max_size=4))
    def test_image_members_accepted(self, s, lam):
        lam = lam[: len(s[0])]
        if len(lam) < len(s[0]):
            lam = lam + [0] * (len(s[0]) - len(lam))
        w = mat_vec(s, lam)
        assert in_image_lattice(s, w)


def test_transpose_inverts_signed_permutations():
    for m in (J, diag(1, -1, 1), ((0, 0, 1), (-1, 0, 0), (0, -1, 0))):
        assert mat_mul(m, transpose(m)) == identity_matrix(len(m))
