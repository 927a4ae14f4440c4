import copy
import random
import re
import time
from fractions import Fraction
from math import comb, gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatspec import crystal, isospec, oracles, spectral
from flatspec.crystal import (
    AffineGenerator,
    CosetCapError,
    GroupDefinition,
    PointGroupElement,
    build_hw_group,
    close_point_group,
    require_valid,
    validate_bieberbach,
)
from flatspec.exact_linear import InternalError, UsageError, signed_permutation_order, trace_p
from flatspec.oracles import (
    cyclotomic_polynomial,
    diagonal_trace,
    enumerate_shell,
    multiplicity_hw,
    projector_oracle,
)
from flatspec.spectral import (
    EnumerationGuardError,
    NonRationalSumError,
    RootOfUnityTally,
    betti_row,
    character_sum,
    enumerate_fixed_shell,
    multiplicity,
    multiplicity_table,
    reduce_tally,
    sums_to_zero,
    weighted_sum,
)
from flatspec import HWMatrix, compare_spectra, example
from flatspec.corpus import corpus_ids
from flatspec.isospec import duality_check

from conftest import (
    character_sum_reference,
    character_sum_shell,
    classical_hw_matrix,
    clear_crystal_caches,
    bump,
    clear_spectral_caches,
    corpus_defs,
    count_walks,
    diagonal_fixed_count,
    identity_matrix,
    multiplicity_cell_reference,
    multiplicity_reference,
    pack,
    _ramanujan_sums,
    random_candidate,
    random_hw_candidate,
    tallies_equal,
    unpacked,
)

HALF = Fraction(1, 2)


def diag(*entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def torus(n):
    return GroupDefinition(dim=n, generators=(), label=f"t{n}")


class TestShells:
    def test_unit_shell(self):
        shell = enumerate_shell(6, 1)
        assert len(shell) == 12
        assert all(sum(x * x for x in v) == 1 for v in shell)

    def test_norm_two_in_dim_four(self):
        # 4 choose 2 coordinate pairs, 4 sign patterns each
        assert len(enumerate_shell(4, 2)) == 24

    def test_zero_shell(self):
        assert enumerate_shell(5, 0) == ((0, 0, 0, 0, 0),)

    def test_sorted_and_negation_closed(self):
        vectors = enumerate_shell(3, 9)
        assert list(vectors) == sorted(vectors)
        as_set = set(vectors)
        assert all(tuple(-x for x in v) in as_set for v in vectors)

    def test_guards(self):
        with pytest.raises(EnumerationGuardError):
            enumerate_shell(13, 1)
        with pytest.raises(EnumerationGuardError):
            enumerate_shell(2, 10_001)


class TestFixedShells:
    def test_catalog_6d_order_four_fixed_shell(self):
        g, _ = example("5.1")
        b1 = g.generators[0].matrix
        vectors = enumerate_fixed_shell(b1, 8)
        assert set(vectors) == {
            (0, 0, 0, 0, 2, 2),
            (0, 0, 0, 0, 2, -2),
            (0, 0, 0, 0, -2, 2),
            (0, 0, 0, 0, -2, -2),
        }

    def test_rotation_block_has_no_fixed_vectors(self):
        j = ((0, 1), (-1, 0))
        m = tuple(
            tuple((j[i % 2][k % 2] if i // 2 == k // 2 else 0) for k in range(4))
            for i in range(4)
        )
        assert enumerate_fixed_shell(m, 5) == ()
        assert enumerate_fixed_shell(m, 0) == ((0, 0, 0, 0),)

    def test_identity_matches_full_shell(self):
        for mu in range(5):
            fixed = enumerate_fixed_shell(identity_matrix(4), mu)
            assert set(fixed) == set(enumerate_shell(4, mu))

    def test_cycle_lattice(self):
        # plain 3-cycle: fixed lattice is the diagonal, norm 3k^2
        m = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
        assert enumerate_fixed_shell(m, 3) == ((-1, -1, -1), (1, 1, 1))
        assert enumerate_fixed_shell(m, 5) == ()

    def test_signed_cycle_lattice(self):
        # e0 <-> -e1 fixes u = (1, -1, 0); e2 -> -e2 fixes nothing
        m = ((0, -1, 0), (-1, 0, 0), (0, 0, -1))
        assert enumerate_fixed_shell(m, 2) == ((-1, 1, 0), (1, -1, 0))
        assert enumerate_fixed_shell(m, 8) == ((-2, 2, 0), (2, -2, 0))


class TestTallies:
    def test_conjugate_pair_cancels(self):
        t = RootOfUnityTally(4, (0, 1, 0, 1))
        assert reduce_tally(t) == 0

    def test_minus_one_bucket(self):
        assert reduce_tally(RootOfUnityTally(4, (0, 0, 4, 0))) == -4

    def test_trivial_modulus(self):
        assert reduce_tally(RootOfUnityTally(1, (12,))) == 12

    def test_non_rational_rejected(self):
        with pytest.raises(NonRationalSumError):
            reduce_tally(RootOfUnityTally(4, (0, 1, 0, 0)))
        with pytest.raises(NonRationalSumError):
            reduce_tally(RootOfUnityTally(5, (0, 1, 0, 0, 0)))

    def test_primitive_root_sums(self):
        # all q-th roots of unity sum to zero
        for q in (2, 3, 4, 6, 12):
            assert reduce_tally(RootOfUnityTally(q, (1,) * q)) == 0

    def test_equality_across_moduli(self):
        # the engine's zero test and the conftest reference agree
        zeta3_sum = RootOfUnityTally(3, (0, 1, 1))  # zeta_3 + zeta_3^2 = -1
        cases = [
            (RootOfUnityTally(2, (1, 0)), RootOfUnityTally(4, (1, 0, 0, 0)), True),
            (zeta3_sum, RootOfUnityTally(1, (-1,)), True),
            (zeta3_sum, RootOfUnityTally(1, (1,)), False),
            (RootOfUnityTally(4, (0, 1, 0, 0)), RootOfUnityTally(1, (0,)), False),
        ]
        for x, y, equal in cases:
            assert sums_to_zero(weighted_sum([(1, x), (-1, y)])) is equal, (x, y)
            assert tallies_equal(x, y) is equal, (x, y)

    def test_add_and_scale(self):
        t = weighted_sum([(1, RootOfUnityTally(1, (0,))), (-2, RootOfUnityTally(2, (3, 1)))])
        assert t == RootOfUnityTally(2, (-6, -2))
        assert reduce_tally(t) == -4
        assert weighted_sum([]) == RootOfUnityTally(1, (0,))

    def test_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


class TestCharacterSum:
    def test_catalog_6d_order_four_at_norm_eight(self):
        g, _ = example("5.1")
        els = {el.word: el for el in close_point_group(g)}
        t = character_sum(els[(1, 0)], 8)
        assert reduce_tally(t) == -4

    def test_identity_counts_shell(self):
        g, _ = example("5.1")
        identity = close_point_group(g)[0]
        for mu in (0, 1, 4):
            t = character_sum(identity, mu)
            assert reduce_tally(t) == len(enumerate_shell(6, mu))

    def test_8d_catalog_order_four_aggregates(self):
        g, gp = example("5.6")
        totals = []
        for defn in (g, gp):
            total = weighted_sum(
                (1, character_sum(el, 1))
                for el in close_point_group(defn)
                if signed_permutation_order(el.matrix) == 4
            )
            totals.append(reduce_tally(total))
        assert totals == [0, 8]


class TestMultiplicity:
    def test_reflection_family_first_eigenvalue(self):
        for n in (4, 6):
            for k in range(1, n, 2):
                defn = example(f"4.1(n={n},k={k})")
                assert multiplicity(defn, 0, 1) == n + k - 2
                assert multiplicity(defn, n, 1) == n - k + 2

    def test_torus_multiplicities(self):
        t3 = torus(3)
        for p in range(4):
            for mu in range(4):
                expected = comb(3, p) * len(enumerate_shell(3, mu))
                assert multiplicity(t3, p, mu) == expected

    def test_shifted_family(self):
        n = 6
        for k in (1, 3, 5):
            for j in range(1, k + 1):
                defn = example(f"4.2(n={n},k={k},j={j})")
                assert multiplicity(defn, 0, 1) == n + k - 2 * j

    def test_invalid_definition_rejected(self):
        gens = (AffineGenerator(diag(-1, -1), (Fraction(0), Fraction(0))),)
        with pytest.raises(ValueError):
            multiplicity(GroupDefinition(2, gens), 0, 1)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            multiplicity(torus(2), 3, 0)

    def test_arithmetic_errors_name_the_cell(self, monkeypatch):
        probe = GroupDefinition(dim=2, generators=(), label="probe")
        clear_spectral_caches()  # an earlier test may have cached these 2-torus cells
        # every class series is zeta_4 alone at each mu
        monkeypatch.setattr(spectral, "_theta", lambda sig, length, width: pack(
            ((0,) * length, (1,) * length, (0,) * length, (0,) * length), width))
        # the table is refused by its first bad cell, whichever cell is asked
        with pytest.raises(NonRationalSumError, match=r"^probe at p=0, mu=0: tally reduces"):
            multiplicity(probe, 1, 3)
        clear_spectral_caches()
        monkeypatch.setattr(spectral, "_theta",
                            lambda sig, length, width: pack(((-1,) * length,), width))
        with pytest.raises(ArithmeticError, match=r"^probe at p=0, mu=0: multiplicity came out -1;"):
            multiplicity(probe, 0, 2)

    def test_relabeled_group_shares_cache_entries(self):
        g = example("5.1a")
        value = multiplicity(g, 2, 3)
        before = multiplicity.cache_info()
        assert multiplicity(GroupDefinition(g.dim, g.generators, label="x"), 2, 3) == value
        after = multiplicity.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_errors_name_the_callers_label_after_a_cache_hit(self):
        bad = GroupDefinition(2, (AffineGenerator(diag(-1, -1), (0, 0)),), label="first")
        with pytest.raises(UsageError, match="^group definition first fails"):
            multiplicity(bad, 0, 1)
        with pytest.raises(UsageError, match="^group definition second fails"):
            multiplicity(GroupDefinition(bad.dim, bad.generators, label="second"), 0, 1)


def random_valid_group(rng) -> GroupDefinition:
    """The first random candidate with n <= 6 that is torsion-free and not a torus."""
    for _ in range(10_000):
        defn = random_candidate(rng, max_dim=6)
        try:
            if defn.generators and validate_bieberbach(defn).is_torsion_free:
                if len(close_point_group(defn)) > 1:
                    return defn
        except CosetCapError:
            pass
    raise AssertionError("no torsion-free candidate drawn")


def assert_matches_spectral_references(defn, mu_max=6):
    """Equal tallies per element, as algebraic numbers (the engine's modulus
    counts only fixed-cycle phases), and the same d_{p,mu} per cell."""
    elements = close_point_group(defn)
    for mu in range(mu_max + 1):
        for el in elements:
            engine, reference = character_sum(el, mu), character_sum_reference(el, mu)
            assert tallies_equal(engine, reference), (el, mu)
        for p in range(defn.dim + 1):
            assert multiplicity(defn, p, mu) == multiplicity_reference(defn, p, mu), (p, mu)


class TestIntegerPhaseDifferential:
    """Integer phases and the flat tally against Fraction dots over the full shell."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_torsion_free_groups(self, seed):
        assert_matches_spectral_references(random_valid_group(random.Random(seed)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_tally_modulus_divides_the_element_order(self, seed):
        # gamma^m = L_{S b} lies in Z^n, and S b has (m / L_c)(u_c . b) on
        # each fixed cycle c, so each phase denominator divides m
        for el in close_point_group(random_valid_group(random.Random(seed))):
            order = signed_permutation_order(el.matrix)
            for mu in range(4):
                assert order % character_sum(el, mu).modulus == 0, (el, mu)

    def test_seeded_sweep_reaches_non_diagonal_holonomy(self):
        rng = random.Random(9)
        groups = [random_valid_group(rng) for _ in range(40)]
        for defn in groups:
            assert_matches_spectral_references(defn)
        elements = [el for defn in groups for el in close_point_group(defn)]
        off_diagonal = [
            el for el in elements
            if any(x and i != j for i, row in enumerate(el.matrix) for j, x in enumerate(row))
        ]
        assert len(off_diagonal) >= 10
        assert sum(any(x.denominator > 2 for x in el.translation) for el in elements) >= 10

    def test_flat_tally_over_coprime_moduli(self):
        # Z2 x Z3 on disjoint blocks, both shifting the shared fixed coordinate 1.
        # At p = 1 the order-6 elements have trace 0, so the cell adds tallies
        # over zeta_2 and zeta_3 only, and the flat tally must be over zeta_6.
        cycle = (
            (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)
        )
        defn = GroupDefinition(5, (
            AffineGenerator(diag(-1, 1, 1, 1, 1), (0, HALF, 0, 0, 0)),
            AffineGenerator(cycle, (0, Fraction(1, 3), 0, 0, 0)),
        ), label="z2xz3")
        elements = close_point_group(defn)
        moduli = {character_sum(el, 1).modulus for el in elements if trace_p(el.matrix, 1)}
        assert moduli == {1, 2, 3}
        assert_matches_spectral_references(defn)

    def test_parameter_free_catalog(self):
        for key, params, _, _ in corpus_ids():
            if not params:
                for defn in example(key):
                    assert_matches_spectral_references(defn)


def assert_krawtchouk_traces(defn):
    n = defn.dim
    for el in close_point_group(defn):
        n_fixed = diagonal_fixed_count(el.matrix)
        for p in range(n + 1):
            assert diagonal_trace(p, n, n_fixed) == trace_p(el.matrix, p), (el.word, p)


class TestDiagonalFastPath:
    """Diagonal holonomy: the Krawtchouk trace K_p^n(n - n_B) equals the
    generic exterior trace of every element, so any multiplicity assembled
    from either weight is the same."""

    def test_agrees_on_diagonal_catalog_groups(self):
        for key in ("4.1(n=4,k=1)", "4.1(n=6,k=5)", "4.2(n=4,k=3,j=2)"):
            assert_krawtchouk_traces(example(key))

    def test_9d_catalog_pair(self):
        for defn in example("4.3"):
            assert_krawtchouk_traces(defn)

    def test_zero_norm_reduces_to_betti(self):
        # e_{0,B} = 1, so beta_p is the average Krawtchouk weight
        g, _ = example("4.3")
        elements = close_point_group(g)
        for p in range(10):
            total = sum(
                diagonal_trace(p, 9, diagonal_fixed_count(el.matrix)) for el in elements
            )
            assert total == len(elements) * multiplicity(g, p, 0)


class TestHWFastPath:
    def test_connectedness_and_homology_sphere(self):
        a = classical_hw_matrix()
        assert multiplicity_hw(a, 0, 0) == 1
        assert multiplicity_hw(a, 1, 0) == 0
        assert multiplicity_hw(a, 2, 0) == 0
        assert multiplicity_hw(a, 3, 0) == 1

    def test_agrees_with_generic_path(self):
        a = classical_hw_matrix()
        defn = None
        from flatspec.crystal import build_hw_group

        defn = build_hw_group(a)
        for p in range(4):
            for mu in range(6):
                assert multiplicity_hw(a, p, mu) == multiplicity(defn, p, mu)

    def test_invalid_matrix_rejected(self):
        bad = HWMatrix(n=3, rows=((Fraction(0),) * 3, (Fraction(0),) * 3))
        with pytest.raises(ValueError):
            multiplicity_hw(bad, 0, 1)


class TestBetti:
    def test_catalog_6d_rows(self):
        g, gp = example("5.1")
        assert betti_row(g) == (1, 2, 3, 4, 3, 2, 1)
        assert betti_row(gp) == (1, 1, 1, 2, 1, 1, 1)

    def test_catalog_9d_rows(self):
        g, gp = example("4.3")
        assert betti_row(g) == (1, 3, 18, 46, 60, 60, 46, 18, 3, 1)
        assert betti_row(gp) == (1, 6, 18, 38, 60, 66, 46, 18, 3, 0)

    def test_catalog_8d_second_member(self):
        _, gp = example("5.6")
        assert betti_row(gp) == (1, 2, 3, 6, 7, 6, 5, 2, 0)

    def test_torus_binomials(self):
        assert betti_row(torus(4)) == (1, 4, 6, 4, 1)


class TestProjectorOracle:
    def test_4d_catalog_group(self):
        g, _ = example("4.5")
        assert projector_oracle(g, 1, 1) == multiplicity(g, 1, 1)

    def test_small_torus(self):
        assert projector_oracle(torus(2), 0, 1) == 4

    def test_6d_catalog_high_norm(self):
        g, _ = example("5.1")
        assert projector_oracle(g, 0, 8) == multiplicity(g, 0, 8)

    def test_guard(self):
        with pytest.raises(EnumerationGuardError):
            projector_oracle(torus(12), 6, 2)

    def test_a_flipped_sign_breaks_the_representation_check(self, monkeypatch):
        # Flip dx_0 -> -dx_1 under the generator of 5.8b: an entry off the
        # diagonal, so the trace stays right and only the check can see it.
        _, g = example("5.8")
        assert projector_oracle(g, 1, 1) == multiplicity(g, 1, 1)
        original = oracles._sort_parity
        calls = []

        def flip_first_moved(seq):
            # at p = 1 each element's calls run over J = (0,), ..., (n-1,)
            moved = seq != (len(calls) % g.dim,)
            calls.append(moved)
            return -original(seq) if moved and calls.count(True) == 1 else original(seq)

        monkeypatch.setattr(oracles, "_sort_parity", flip_first_moved)
        with pytest.raises(ArithmeticError, match="fails on element"):
            projector_oracle(g, 1, 1)
        assert calls.count(True) > 1


class TestMultiplicityTable:
    def test_structure(self):
        g, _ = example("4.5")
        table = multiplicity_table(g, (0, 1), 2).as_dict()
        assert set(table) == {(p, mu) for p in (0, 1) for mu in (0, 1, 2)}
        assert table[(0, 0)] == 1
        assert all(v >= 0 for v in table.values())


def assert_series_match_the_shell(groups):
    """character_sum against the fixed-shell oracle, count for count, to
    mu = 24, once per distinct element of the groups.  A fixed lattice of rank
    above 6 stops at mu = 8: at rank 9 the shells to 24 hold about 5 million
    vectors."""
    distinct = {(el.matrix, el.translation): el for g in groups for el in close_point_group(g)}
    for el in distinct.values():
        rank = len(spectral._signature(el)[1])
        for mu in range(25 if rank <= 6 else 9):
            assert character_sum(el, mu) == character_sum_shell(el, mu), (el, mu)


class TestThetaSeries:
    """The theta series of each signature against the fixed-shell oracle."""

    def test_catalog_groups(self, all_corpus_defs):
        assert_series_match_the_shell(defn for _, defn in all_corpus_defs)
        enumerate_fixed_shell.cache_clear()

    def test_seeded_random_groups(self):
        rng = random.Random(16)
        assert_series_match_the_shell(random_valid_group(rng) for _ in range(12))
        enumerate_fixed_shell.cache_clear()

    def test_equal_signatures_give_equal_shell_tallies(self, all_corpus_defs):
        rng = random.Random(17)
        groups = [defn for _, defn in all_corpus_defs]
        groups += [random_valid_group(rng) for _ in range(12)]
        classes = {}
        for defn in groups:
            for el in close_point_group(defn):
                members = classes.setdefault(spectral._signature(el), {})
                members[el.matrix, el.translation] = el
        shared = [list(members.values()) for members in classes.values() if len(members) > 1]
        assert len(shared) >= 10
        for els in shared:
            for mu in range(9):
                assert len({character_sum_shell(el, mu) for el in els}) == 1, (els, mu)
        enumerate_fixed_shell.cache_clear()

    def test_opposite_phases_share_a_signature(self):
        # u . b = 1/3 and 2/3 on the fixed axis: k -> -k swaps the two phases
        rotation = ((1, 0, 0), (0, 0, -1), (0, 1, 0))
        first, second = (
            PointGroupElement(rotation, (Fraction(t, 3), Fraction(0), Fraction(0)), (1,))
            for t in (1, 2)
        )
        assert spectral._signature(first) == spectral._signature(second) == (3, ((1, 1),))
        for mu in range(10):
            assert character_sum(first, mu) == character_sum_shell(first, mu)
            assert character_sum_shell(second, mu) == character_sum(first, mu)

    def test_a_raised_cutoff_matches_a_cold_table(self):
        g = example("5.6a")
        clear_spectral_caches()
        multiplicity_table(g, None, 10)
        raised = multiplicity_table(g, None, 40)
        clear_spectral_caches()
        assert multiplicity_table(g, None, 40) == raised

    def test_the_betti_row_of_a_validated_group_walks_nothing(self, monkeypatch):
        """The group record reads the cycle types and phases that validation
        left in the crystal caches."""
        g = example("5.1a")
        require_valid(g)
        clear_spectral_caches()
        walks = count_walks(monkeypatch)
        assert betti_row(g) == (1, 2, 3, 4, 3, 2, 1)
        assert walks == []

    def test_a_cold_betti_row_walks_each_element_once(self, monkeypatch):
        g = example("5.1a")
        order = len(close_point_group(g))
        clear_spectral_caches()
        clear_crystal_caches()
        walks = count_walks(monkeypatch)
        assert betti_row(g) == (1, 2, 3, 4, 3, 2, 1)
        assert 0 < len(walks) == len(set(walks)) == order


    def test_a_deeper_cold_table_hashes_no_more_fractions(self, monkeypatch):
        """Records keep their hash, so cache lookups per cell rehash no
        translation: a deeper table makes no more Fraction hashes."""

        def fraction_hashes(mu_max):
            clear_spectral_caches()
            crystal.close_point_group.cache_clear()
            crystal.validate_bieberbach.cache_clear()
            g = example("4.5a")
            calls = []
            original = Fraction.__hash__
            with monkeypatch.context() as m:
                m.setattr(Fraction, "__hash__", lambda x: calls.append(x) or original(x))
                multiplicity_table(g, None, mu_max)
            return len(calls)

        assert fraction_hashes(64) == fraction_hashes(8)

    def test_a_cold_table_validates_once_and_closes_no_group(self, monkeypatch):
        g = example("5.6a")
        clear_spectral_caches()
        calls = []
        for module, name in ((spectral, "require_valid"), (crystal, "close_point_group")):
            original = getattr(module, name)

            def counting(defn, name=name, original=original):
                calls.append(name)
                return original(defn)

            monkeypatch.setattr(module, name, counting)
        multiplicity_table(g, None, 40)
        assert calls.count("require_valid") <= 1
        assert calls.count("close_point_group") == 0


def count_calls(monkeypatch, name) -> list:
    """The argument tuples of every later call of ``spectral.<name>``."""
    calls = []
    original = getattr(spectral, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(spectral, name, counting)
    return calls


def table_scale(defn) -> int:
    """|F| phi(Q), Q the lcm of the class moduli: the factor between a built
    table cell and d_{p,mu}."""
    order, classes = spectral._class_rows(defn)
    return order * (len(cyclotomic_polynomial(lcm(*(q for (q, _), _ in classes)))) - 1)


def table_test_groups():
    """Every catalog group, 12 seeded random valid groups, and the valid groups
    among 10 seeded 3-d and 5-d Hantzsche-Wendt candidates."""
    groups = [defn for _, defn in corpus_defs()]
    rng = random.Random(20)
    groups += [random_valid_group(rng) for _ in range(12)]
    for n in (3, 5):
        candidates = [random_hw_candidate(rng, n) for _ in range(10)]
        groups += [g for g in candidates if validate_bieberbach(g).is_torsion_free]
    return groups


class TestSpectrumTable:
    """One table per group: built once per cutoff, checked against the
    per-cell route, and checking itself."""

    def test_every_cell_matches_the_per_cell_route(self):
        for defn in table_test_groups():
            table = multiplicity_table(defn, None, 12).as_dict()
            for (p, mu), d in table.items():
                assert d == multiplicity_cell_reference(defn, p, mu), (defn, p, mu)

    def test_class_signatures_are_the_elements_own(self):
        for defn in table_test_groups():
            n = defn.dim
            group = crystal._group(defn)
            q, phases, closure = group.q, group.phases, group.closure
            elements = close_point_group(defn)
            assert tuple(el.word for el in elements) == closure.words
            expected = {}
            for el, walk, a in zip(elements, closure.walks, phases):
                fixed = list(zip(map(len, walk[2]), a))
                assert spectral._walk_signature(fixed, q) == spectral._signature(el)
                row = expected.setdefault(spectral._signature(el), [0] * (n + 1))
                row[:] = [a + trace_p(el.matrix, p) for p, a in enumerate(row)]
            orbits = {}  # the least signature of each Galois orbit: a -> t a mod q, t prime to q
            for (q, factors), row in expected.items():
                orbit = min((q, tuple(sorted((w, min(t * a % q, -t * a % q)) for w, a in factors)))
                            for t in range(q) if gcd(t, q) == 1)
                orbits[orbit] = [a + b for a, b in zip(orbits.get(orbit, [0] * (n + 1)), row)]
            order, classes = spectral._class_rows(defn)
            assert order == len(close_point_group(defn))
            assert dict(classes) == {sig: tuple(row) for sig, row in orbits.items()}

    @pytest.mark.parametrize("catalog_id, call", [
        ("5.1a", betti_row),
        ("5.6a", lambda g: multiplicity_table(g, None, 40)),
    ], ids=["betti_row", "multiplicity_table"])
    def test_a_cold_table_walks_each_element_once(self, monkeypatch, catalog_id, call):
        g = example(catalog_id)
        order = len(close_point_group(g))
        clear_spectral_caches()
        clear_crystal_caches()
        walks = count_walks(monkeypatch)
        call(g)
        assert len(walks) == len(set(walks)) == order

    def test_groups_over_shared_matrices_compute_their_traces_once(self, monkeypatch):
        """Each element's trace row comes from the cycle type in the matrix
        closure: 4.5b after 4.5a, and a 3-d Hantzsche-Wendt group after
        another over the same matrices, compute none."""
        half = Fraction(1, 2)
        hw = [build_hw_group(HWMatrix(n=3, rows=rows)) for rows in
              (((half, half, 0), (0, half, half)), ((half, 0, half), (0, half, 0)))]
        for first, second in (example("4.5"), hw):
            assert first != second
            assert crystal._group(first).closure is crystal._group(second).closure
            clear_spectral_caches()
            clear_crystal_caches()
            traces = count_calls(monkeypatch, "exterior_traces")
            betti_row(first)
            assert len(traces) == len(close_point_group(first))
            traces.clear()
            row = betti_row(second)
            assert traces == []
            monkeypatch.undo()
            assert row == tuple(multiplicity_reference(second, p, 0) for p in range(second.dim + 1))

    def test_a_cold_compare_builds_each_table_once(self, monkeypatch):
        clear_spectral_caches()
        builds = count_calls(monkeypatch, "_build_table")
        compare_spectra(*example("5.1"), mu_max=8)
        assert builds == [(g, 0, 9) for g in example("5.1")]

    def test_a_raised_cutoff_builds_once_more(self, monkeypatch):
        g = example("4.5a")
        clear_spectral_caches()
        builds = count_calls(monkeypatch, "_build_table")
        checks = count_calls(monkeypatch, "_check_table")
        multiplicity_table(g, None, 64)
        assert len(builds) == 1
        multiplicity_table(g, None, 160)
        assert len(builds) == len(checks) == 2

    def test_ascending_cells_rebuild_at_powers_of_two(self, monkeypatch):
        g = example("4.5a")
        clear_spectral_caches()
        builds = count_calls(monkeypatch, "_build_table")
        for mu in range(65):
            for p in range(g.dim + 1):
                multiplicity(g, p, mu)
        assert len(builds) <= 8
        assert [n for _, _, n in builds] == [1 << k for k in range(len(builds))]

    @pytest.mark.parametrize("key, cell, named", [
        ("5.1a", (1, 3), "p=1, mu=3"),  # orientable: row 1 against row 5
        ("5.1a", (5, 2), "p=1, mu=2"),  # the first p of a broken pair is named
        ("5.6b", (2, 5), "p=0..8, mu=5"),  # not orientable: the Euler sum
        ("5.6b", (0, 0), "p=0, mu=0"),  # not orientable: only the d_{0,0} = 1 test names it
        ("4.5a", (0, 0), "p=0, mu=0"),
        ("4.5a", (4, 0), "p=4, mu=0"),
    ])
    def test_a_corrupted_cell_fails_the_table_check(self, key, cell, named):
        g = example(key)
        scale = table_scale(g)
        clear_spectral_caches()
        rows = spectral._build_table(g, 0, 9)  # the columns 0 .. 8
        assert spectral._check_table(g, rows) == spectral._table(g, 8)  # the finished table passes
        p, mu = cell
        bump(rows, p, mu, scale)
        with pytest.raises(InternalError, match=rf"^{re.escape(key)} at {re.escape(named)}: "):
            spectral._check_table(g, rows)

    def test_a_non_integer_norm_or_cutoff_is_refused(self):
        g = example("5.1a")
        assert multiplicity(g, 0, 2) == 6  # warm: a float key must not hit this entry
        for call in (
            lambda: multiplicity(g, 0, 2.0),
            lambda: multiplicity_table(g, None, 2.5),
            lambda: compare_spectra(*example("5.1"), mu_max=2.0),
            lambda: spectral.require_series(Fraction(1, 2)),
        ):
            with pytest.raises(UsageError, match=r"^(squared norm|cutoff) \S+ must be an integer$"):
                call()

    def test_a_non_integer_degree_is_refused(self):
        g = example("5.1a")
        assert multiplicity(g, 1, 0) == 2  # warm: a float key must not hit this entry
        for call in (
            lambda: multiplicity(g, 1.0, 0),
            lambda: multiplicity_table(g, [1.5], 2),
        ):
            with pytest.raises(UsageError, match=r"^form degree \S+ must be an integer$"):
                call()

    def test_an_invalid_group_is_refused_for_every_degree_set(self):
        bad = GroupDefinition(2, (AffineGenerator(diag(-1, -1), (0, 0)),), label="bad")
        for p_set in (None, [], [0]):
            with pytest.raises(UsageError, match="^group definition bad fails validation"):
                multiplicity_table(bad, p_set, 3)
        with pytest.raises(UsageError, match="^group definition bad fails validation"):
            spectral.read_rows(bad, [], 3)

    def test_a_non_integral_table_is_refused_at_its_cell(self):
        g = example("5.1a")
        clear_spectral_caches()
        rows = spectral._build_table(g, 0, 9)
        bump(rows, 2, 3, 1)  # not a multiple of |F| phi(Q)
        with pytest.raises(InternalError, match=r"^5\.1a at p=2, mu=3: multiplicity came out "):
            spectral._check_table(g, rows)


# Every reader of whole rows, each given a catalog pair and a cutoff.
ROW_READERS = {
    "multiplicity_table": lambda pair, mu_max: multiplicity_table(pair[0], None, mu_max),
    "compare_spectra": lambda pair, mu_max: compare_spectra(*pair, mu_max=mu_max),
    "duality_check": lambda pair, mu_max: duality_check(pair[0], mu_max),
    "betti_row": lambda pair, mu_max: betti_row(pair[0]),
}
# Cutoffs on both sides of the table lengths 16, 32 and 64.
ROW_CUTOFFS = (0, 15, 16, 17, 31, 32, 33)


def per_cell_reads(defn, mu_max=max(ROW_CUTOFFS)) -> dict:
    """Every d_{p,mu} to mu_max through ``multiplicity`` from cold caches, one
    cell at a time in rising mu."""
    clear_spectral_caches()
    return {(p, mu): multiplicity(defn, p, mu)
            for mu in range(mu_max + 1) for p in range(defn.dim + 1)}


def first_difference(cells, other, p, q, mu_max):
    """(p, mu, d, d') at the smallest mu <= mu_max where cells[p, mu] and
    other[q, mu] differ, or None."""
    return next(((p, mu, cells[p, mu], other[q, mu]) for mu in range(mu_max + 1)
                 if cells[p, mu] != other[q, mu]), None)


class TestRowReads:
    """The table readers slice whole checked rows: the same values, witnesses
    and counterexamples as a per-cell loop, no per-cell call on a clean table,
    and the per-cell error for a bad cell."""

    def test_row_reads_match_the_per_cell_reads(self):
        counterexamples = 0
        for _, g in corpus_defs():
            cells, n = per_cell_reads(g), g.dim
            for mu_max in ROW_CUTOFFS:
                clear_spectral_caches()
                expected = {(p, mu): d for (p, mu), d in cells.items() if mu <= mu_max}
                assert multiplicity_table(g, None, mu_max).as_dict() == expected, (g, mu_max)
                clear_spectral_caches()
                assert spectral.read_rows(g, [n, 0], mu_max) == [
                    [cells[p, mu] for mu in range(mu_max + 1)] for p in (n, 0)]
                clear_spectral_caches()
                assert betti_row(g) == tuple(cells[p, 0] for p in range(n + 1))
                clear_spectral_caches()
                found = duality_check(g, mu_max).counterexample
                per_cell = (first_difference(cells, cells, p, n - p, mu_max) for p in range(n // 2 + 1))
                assert found == next(filter(None, per_cell), None), (g, mu_max)
                counterexamples += found is not None
        assert counterexamples

    def test_compare_witnesses_match_a_per_cell_loop(self):
        witnesses = 0
        for key in ("4.3", "4.5", "5.1", "5.5", "5.6", "5.7", "5.8", "5.9(k=1)", "5.9(k=2)"):
            first, second = example(key)
            a, b = per_cell_reads(first), per_cell_reads(second)
            for mu_max in ROW_CUTOFFS:
                clear_spectral_caches()
                for p, verdict in compare_spectra(first, second, mu_max=mu_max).p_verdicts:
                    assert verdict.witness == first_difference(a, b, p, p, mu_max), (key, mu_max)
                    witnesses += verdict.witness is not None
        assert witnesses

    @pytest.mark.parametrize("reader", ROW_READERS)
    def test_a_clean_table_is_read_without_per_cell_calls(self, monkeypatch, reader):
        pair = example("5.1")
        clear_spectral_caches()
        cells = count_calls(monkeypatch, "multiplicity")
        assert not hasattr(isospec, "multiplicity")
        builds = count_calls(monkeypatch, "_build_table")
        ROW_READERS[reader](pair, 40)
        assert cells == []
        assert len(builds) == len(set(builds)) <= 2  # at most one build per group and size
        ROW_READERS[reader](pair, 20)
        assert cells == [] and len(builds) == len(set(builds))

    @pytest.mark.parametrize("reader, cell", [
        (reader, cell) for reader in ROW_READERS for cell in ((1, 0), (2, 3))
        if cell[1] == 0 or reader != "betti_row"
    ])
    def test_a_bad_cell_is_refused_by_name_through_every_reader(self, monkeypatch, reader, cell):
        pair = example("5.1")
        p, mu = cell
        build = spectral._build_table

        def corrupted(defn, start, length):
            rows = build(defn, start, length)
            if defn == pair[0]:
                bump(rows, p, mu, 1)  # not a multiple of |F| phi(Q), so the table is refused
            return rows

        clear_spectral_caches()
        monkeypatch.setattr(spectral, "_build_table", corrupted)
        with pytest.raises(InternalError) as per_cell:
            multiplicity(pair[0], p, mu)
        assert str(per_cell.value).startswith(f"5.1a at p={p}, mu={mu}: multiplicity came out ")
        clear_spectral_caches()
        with pytest.raises(InternalError) as refused:
            ROW_READERS[reader](pair, 8)
        assert type(refused.value) is type(per_cell.value)
        assert str(refused.value) == str(per_cell.value)


def held_table(defn, length=None) -> tuple:
    """The rows of a cold build to the group's held length, and its held
    checked rows d, each cut to ``length`` columns."""
    size, d = spectral._tables(defn)
    rows = unpacked(spectral._build_table(defn, 0, size))
    return [row[:length] for row in rows], [row[:length] for row in d]


class TestTableGrowth:
    """A table grows in place to max(twice its length, mu + 1) columns: the new
    columns alone are built and checked, with the cells a cold build gives."""

    def test_a_grown_table_equals_a_cold_one(self):
        cutoffs = (0, 1, 5, 16, 17, 40, 100)
        for defn in table_test_groups():
            clear_spectral_caches()
            for mu_max in cutoffs:
                multiplicity_table(defn, None, mu_max)
            grown = held_table(defn, cutoffs[-1] + 1)
            clear_spectral_caches()
            multiplicity_table(defn, None, cutoffs[-1])
            assert grown == held_table(defn), defn
            assert [len(row) for row in grown[1]] == [cutoffs[-1] + 1] * (defn.dim + 1), defn

    @pytest.mark.parametrize("cutoffs, lengths", [
        ((10000,), [10001]),
        ((16, 32, 64), [17, 34, 68]),  # the spectrum-deep asks
        ((6000, 6001), [6001, 10001]),  # never past the norm guard
    ])
    def test_builds_are_sized_to_the_cutoff(self, monkeypatch, cutoffs, lengths):
        g = example("4.5a")
        clear_spectral_caches()
        builds = count_calls(monkeypatch, "_build_table")
        for mu_max in cutoffs:
            multiplicity_table(g, None, mu_max)
        assert builds == [(g, start, n) for start, n in zip([0] + lengths, lengths)]

    @pytest.mark.parametrize("key, cell, named", [
        ("5.1a", (1, 13), "p=1, mu=13"),  # orientable: row 1 against row 5
        ("5.6b", (2, 11), "p=0..8, mu=11"),  # not orientable: the Euler sum
    ])
    def test_a_corrupted_cell_of_new_columns_is_named_at_its_mu(self, key, cell, named):
        g = example(key)
        clear_spectral_caches()
        scale = table_scale(g)
        spectral._table(g, 8)
        start = spectral._tables(g)[0]
        rows = spectral._build_table(g, start, 20)  # the columns start .. 19
        assert [len(row) for row in spectral._check_table(g, rows, start)] == [20 - start] * (g.dim + 1)
        p, mu = cell
        bump(rows, p, mu - start, scale)
        with pytest.raises(InternalError, match=rf"^{re.escape(key)} at {re.escape(named)}: "):
            spectral._check_table(g, rows, start)

    @pytest.mark.parametrize("reader, cell", [
        (reader, cell) for reader in ROW_READERS for cell in ((1, 0), (2, 3), (2, 20))
        if cell[1] == 0 or reader != "betti_row"
    ])
    def test_the_growth_that_reaches_a_bad_cell_raises(self, monkeypatch, reader, cell):
        """A bad cell in the first 9 columns refuses the table, and every
        growth that builds it again; one in the new columns 9 .. 40 refuses
        the growth, and the held 9 columns stay.  Either way every reader
        names the cell."""
        pair = example("5.1")
        p, mu = cell
        build = spectral._build_table

        def corrupted(defn, start, length):
            rows = build(defn, start, length)
            if defn == pair[0] and start <= mu < length:
                bump(rows, p, mu - start, 1)  # not a multiple of |F| phi(Q)
            return rows

        clear_spectral_caches()
        monkeypatch.setattr(spectral, "_build_table", corrupted)
        held = 0 if mu < 9 else 9
        if held:
            spectral._table(pair[0], 8)
        else:
            with pytest.raises(InternalError, match=rf"^5\.1a at p={p}, mu={mu}: "):
                spectral._table(pair[0], 8)
        assert spectral._tables(pair[0])[0] == held
        with pytest.raises(InternalError, match=rf"^5\.1a at p={p}, mu={mu}: "):
            spectral._table(pair[0], 40)
        assert spectral._tables(pair[0])[0] == held
        with pytest.raises(InternalError) as per_cell:
            multiplicity(pair[0], p, mu)
        assert str(per_cell.value).startswith(f"5.1a at p={p}, mu={mu}: multiplicity came out ")
        with pytest.raises(InternalError) as refused:
            ROW_READERS[reader](pair, 40)
        assert type(refused.value) is type(per_cell.value)
        assert str(refused.value) == str(per_cell.value)

    def test_a_failed_growth_keeps_the_held_table(self, monkeypatch):
        g = example("5.1a")
        clear_spectral_caches()
        multiplicity_table(g, None, 8)
        before = copy.deepcopy(spectral._tables(g))
        build = spectral._build_table

        def corrupted(defn, start, length):
            rows = build(defn, start, length)
            bump(rows, 3, -1, 1)  # the last new cell of row 3 is not a multiple of |F| phi(Q)
            return rows

        monkeypatch.setattr(spectral, "_build_table", corrupted)
        errors = []
        for _ in range(2):
            with pytest.raises(InternalError) as failed:
                multiplicity_table(g, None, 40)
            errors.append((type(failed.value), str(failed.value)))
            assert spectral._tables(g) == before
        assert errors[0] == errors[1]
        assert errors[0][1].startswith("5.1a at p=3, mu=40: multiplicity came out ")

    def test_a_grown_table_holds_only_its_integer_rows(self):
        g = example("5.1a")
        _, classes = spectral._class_rows(g)
        assert lcm(*(q for (q, _), _ in classes)) == 4  # Q = 4, phi(Q) = 2
        clear_spectral_caches()
        for mu_max in (8, 40):
            multiplicity_table(g, None, mu_max)
        length, d = spectral._tables(g)
        assert length == 41 and len(d) == g.dim + 1
        assert all(len(row) == length and all(type(x) is int for x in row) for row in d)


def z2_10_group() -> GroupDefinition:
    """A 64-d group with holonomy Z_2^10: generator i shifts coordinate i by
    1/2 and negates coordinates 10+5i .. 14+5i."""
    n = 64
    gens = []
    for i in range(10):
        signs = [-1 if 10 + 5 * i <= j < 15 + 5 * i else 1 for j in range(n)]
        shift = tuple(HALF if j == i else Fraction(0) for j in range(n))
        gens.append(AffineGenerator(diag(*signs), shift))
    return GroupDefinition(n, tuple(gens), label="z2^10")


def z60_group() -> GroupDefinition:
    """A 12-d group with holonomy Z_60 and 31 signature classes, q up to 60:
    one generator, a 5-cycle on coordinates 0-4, a 6-cycle with sign product
    -1 on 5-10, and coordinate 11 fixed and shifted by 1/60."""
    n = 12
    m = [[0] * n for _ in range(n)]
    for i in range(5):
        m[(i + 1) % 5][i] = 1
    for i in range(6):
        m[5 + (i + 1) % 6][5 + i] = -1 if i == 5 else 1
    m[11][11] = 1
    shift = tuple(Fraction(int(j == 11), 60) for j in range(n))
    return GroupDefinition(n, (AffineGenerator(tuple(map(tuple, m)), shift),), label="z60")


class TestGaloisOrbits:
    """One series per Galois orbit of signature classes, each cell an integer
    from the trace of its sum."""

    def test_ramanujan_sums_match_the_reference(self):
        for q in range(1, 121):
            assert spectral._ramanujan(q) == _ramanujan_sums(q), q

    def test_the_z60_table_builds_one_series_per_orbit(self, monkeypatch):
        g = z60_group()
        assert validate_bieberbach(g).holonomy_order == 60
        clear_spectral_caches()
        series = count_calls(monkeypatch, "_theta")
        multiplicity_table(g, None, 24)
        assert len(series) == len(set(series)) == 12
        assert {sig for sig, *_ in series} == {sig for sig, _ in spectral._class_rows(g)[1]}

    def test_every_z60_cell_matches_the_per_cell_route(self):
        g = z60_group()
        clear_spectral_caches()
        for (p, mu), d in multiplicity_table(g, None, 24).as_dict().items():
            assert d == multiplicity_cell_reference(g, p, mu), (p, mu)

    def test_a_broken_orbit_is_refused_by_name(self, monkeypatch):
        g = z60_group()
        original = spectral.exterior_traces
        altered = []

        def traces(n, cycle_type):
            cycle_type = list(cycle_type)
            row = original(n, cycle_type)
            # g^k with k prime to 6, whose Galois orbit holds 2 or 8 classes
            if not altered and (6, -1) in cycle_type:
                altered.append(cycle_type)
                row = (row[0] + 2,) + row[1:]
            return row

        clear_spectral_caches()
        monkeypatch.setattr(spectral, "exterior_traces", traces)
        with pytest.raises(NonRationalSumError, match=r"^z60: class \(\d+, .*\) lacks a Galois "):
            multiplicity(g, 0, 1)
        assert altered
        monkeypatch.undo()  # a refused record is not kept
        assert betti_row(g)[0] == 1


def inject_count(monkeypatch, sig, phase, mu, change):
    """Patch spectral._theta so that the series of ``sig`` has ``change`` added
    to its count of x^mu at ``phase``, in the packed row the build asked for."""
    theta = spectral._theta

    def patched(signature, length, width):
        rows = list(theta(signature, length, width))
        if signature == sig and mu < length:
            rows[phase] += change << 8 * width * mu
        return tuple(rows)

    monkeypatch.setattr(spectral, "_theta", patched)


def inject_trace(monkeypatch, defn):
    """Patch spectral._class_rows so that the identity orbit's trace_1 of
    ``defn`` is raised by |F|: every cell d_{1,mu} then gains r_n(mu), still a
    nonnegative integer, so only the identities of flat manifolds can see it."""
    order, orbits = spectral._class_rows(defn)
    identity = (1, ((1, 0),) * defn.dim)
    changed = tuple((sig, tuple(t + order * (p == 1) for p, t in enumerate(row)))
                    if sig == identity else (sig, row) for sig, row in orbits)
    original = spectral._class_rows
    monkeypatch.setattr(spectral, "_class_rows",
                        lambda g: (order, changed) if g == defn else original(g))


class TestPackedFaults:
    """Faults injected at mu > 0 into the packed series and the trace rows:
    each is refused with its exact message, naming its first bad cell."""

    @pytest.mark.parametrize("sig, phase, mu, change, message", [
        # a negative cell in mid-row borrows from the slot above it
        ((1, ((1, 0),) * 4), 0, 5, -1000,
         "5.8b at p=0, mu=5: multiplicity came out -238; must be a nonnegative integer"),
        # not a multiple of |F| phi(Q)
        ((1, ((1, 0),) * 4), 0, 5, 1,
         "5.8b at p=0, mu=5: multiplicity came out 49/4; must be a nonnegative integer"),
        # zeta_4 and its conjugate zeta_4^3 differ
        ((4, ((1, 1),)), 1, 4, 1,
         "5.8b at p=0, mu=4: tally reduces to a non-real sum; upstream bug"),
    ])
    def test_a_bad_series_is_refused_at_its_cell(self, monkeypatch, sig, phase, mu, change,
                                                 message):
        g = example("5.8")[1]
        assert sig in {s for s, _ in spectral._class_rows(g)[1]}
        clear_spectral_caches()
        inject_count(monkeypatch, sig, phase, mu, change)
        with pytest.raises(InternalError) as refused:
            multiplicity_table(g, None, 20)
        assert str(refused.value) == message
        assert spectral._tables(g)[0] == 0

    @pytest.mark.parametrize("key, message", [
        # orientable: row 1 against row n - 1
        ("5.1a", "5.1a at p=1, mu=9: table breaks an identity of flat manifolds; upstream bug"),
        # not orientable: the Euler sum
        ("5.6b", "5.6b at p=0..8, mu=9: table breaks an identity of flat manifolds; upstream bug"),
    ])
    def test_a_bad_trace_row_is_refused_in_the_new_columns(self, monkeypatch, key, message):
        g = example(key[:-1])["ab".index(key[-1])]
        clear_spectral_caches()
        held = [row[:] for row in spectral._table(g, 8)]
        inject_trace(monkeypatch, g)
        with pytest.raises(InternalError) as refused:
            multiplicity_table(g, None, 40)
        assert str(refused.value) == message
        assert spectral._tables(g) == [9, held]


class TestPackedCells:
    """The packed-row decoders on seeded cells of every sign and every slot
    width from 1 to 20 bytes, against plain integer arithmetic."""

    def test_cells_decode_exactly(self):
        rng = random.Random(34)
        for width in range(1, 21):
            half = 1 << 8 * width - 1
            for columns in (1, 2, 3, 17, 100):
                cells = [rng.choice((-half, half - 1, -1, 0, rng.randrange(-half, half)))
                         for _ in range(columns)]
                packed = sum(c << 8 * width * m for m, c in enumerate(cells))
                assert spectral._cells(packed, width, columns) == cells, (width, columns)
                counts = [c + half for c in cells]
                assert list(spectral._decode(sum(c << 8 * width * m for m, c in enumerate(counts)),
                                             width, columns)) == counts


class TestTableOracle:
    """Every catalog group and the Z_60 group, every p to mu = 2000, against
    oracles.table_by_classes: one slice-convolution series per signature class,
    reduced modulo the cyclotomic polynomial, sharing no step with the engine's
    Galois orbits, Ramanujan sums and packed rows."""

    @pytest.mark.parametrize("defn", [defn for _, defn in corpus_defs()] + [z60_group()],
                             ids=lambda defn: defn.label)
    def test_tables_to_2000_match_the_class_oracle(self, defn):
        clear_spectral_caches()
        rows = spectral.read_rows(defn, range(defn.dim + 1), 2000)
        assert rows == oracles.table_by_classes(defn, 2001)


def random_signature(rng) -> tuple:
    """A signature with q <= 60 and up to 8 factors, its phases drawn from all
    of 0..q-1."""
    q, size = rng.randint(1, 60), rng.randint(0, 8)
    return q, tuple(sorted((rng.randint(1, 12), rng.randrange(q)) for _ in range(size)))


def count_box(signature, length) -> int:
    """prod(2 b_c + 1), b_c = isqrt((length - 1) // L_c): the count bound of
    the slot width that spectral._series builds and decodes in."""
    box = 1
    for weight, _ in signature[1]:
        box *= 2 * isqrt((length - 1) // weight) + 1
    return box


def byte_edge_length(signature, start=1) -> int:
    """The first length from ``start`` on at which the count box has a bit
    length that is a multiple of 8."""
    length = start
    while count_box(signature, length).bit_length() % 8:
        length += 1
    return length


def assert_theta_matches_the_slices(sig, length):
    assert spectral._series(sig, length) == oracles.theta_by_slices(sig, length), (sig, length)


def divisor_sums(top, f) -> list:
    """sum_{d | m} f(d, m) for m = 0 .. top - 1, 0 at m = 0."""
    sums = [0] * top
    for d in range(1, top):
        for m in range(d, top, d):
            sums[m] += f(d, m)
    return sums


class TestPackedTheta:
    """The packed-integer theta build against slice convolution (the oracle)
    and against the closed forms of r_2, r_4 and r_8."""

    def test_seeded_random_signatures_match_the_slices(self):
        rng = random.Random(27)
        for _ in range(200):
            sig, length = random_signature(rng), rng.randint(1, 300)
            assert_theta_matches_the_slices(sig, length)
        spectral._theta.cache_clear()

    def test_every_orbit_signature_matches_the_slices(self):
        groups = table_test_groups() + [z60_group()]
        sigs = {sig for g in groups for sig, _ in spectral._class_rows(g)[1]}
        assert len(sigs) >= 30
        for sig in sorted(sigs):
            assert_theta_matches_the_slices(sig, 1001)
        spectral._theta.cache_clear()

    def test_byte_edge_lengths_match_the_slices(self):
        """The lengths where the count bound's bit length is a multiple of 8:
        there a slot of exactly that many bits would have no bit to spare."""
        assert byte_edge_length((1, ((1, 0), (1, 0))), 2) == 37  # 13^2 = 169 < 2^8
        rng = random.Random(28)
        sigs = [(1, ((1, 0), (1, 0))), (1, ((1, 0),) * 4), (2, ((1, 1), (2, 0)))]
        sigs += [(4, ((1, 1),) * 3)] + [random_signature(rng) for _ in range(20)]
        cases = 0
        for sig in filter(lambda sig: sig[1], sigs):
            length = 1
            for _ in range(3):  # the first three edges of each signature
                if (length := byte_edge_length(sig, length + 1)) > 300:
                    break
                cases += 1
                assert_theta_matches_the_slices(sig, length)
        assert cases >= 30
        spectral._theta.cache_clear()

    def test_sums_of_squares_to_2000(self):
        """r_2(m) = 4 (d_1(m) - d_3(m)), r_4(m) = 8 sigma(m) - 32 sigma(m / 4) and
        r_8(m) = 16 sum_{d | m} (-1)^(m + d) d^3 (Hardy & Wright, ch. 20;
        Grosswald 1985), and theta(-x)^r, the q = 2 signature with every phase
        1, has counts_0 - counts_1 = (-1)^m r_r(m)."""
        top = 2001
        sigma = divisor_sums(top, lambda d, m: d)
        r = {
            2: divisor_sums(top, lambda d, m: 4 * (d % 4 == 1) - 4 * (d % 4 == 3)),
            4: [8 * sigma[m] - 32 * (m % 4 == 0) * sigma[m // 4] for m in range(top)],
            8: divisor_sums(top, lambda d, m: 16 * (-1) ** (m + d) * d ** 3),
        }
        for rank, counts in r.items():
            counts[0] = 1
            assert spectral._series((1, ((1, 0),) * rank), top) == (tuple(counts),), rank
            plus, minus = spectral._series((2, ((1, 1),) * rank), top)
            signed = [(-1) ** m * c for m, c in enumerate(counts)]
            assert [a - b for a, b in zip(plus, minus)] == signed, rank
        spectral._theta.cache_clear()

    def test_a_class_without_a_fixed_cycle_has_the_series_1(self):
        for length in (1, 2, 17, 300):
            assert spectral._series((1, ()), length) == ((1,) + (0,) * (length - 1),)

    def test_every_signature_at_length_1_is_its_constant_term(self):
        rng = random.Random(29)
        sigs = [random_signature(rng) for _ in range(100)]
        sigs += [sig for g in table_test_groups() for sig, _ in spectral._class_rows(g)[1]]
        for q, factors in sigs:
            assert spectral._series((q, factors), 1) == ((1,),) + ((0,),) * (q - 1), (q, factors)


class TestThetaSlotWidth:
    """Series whose counts fill their slots, against slice convolution."""

    @pytest.mark.parametrize("sig, length", [
        ((1, ((1, 0),) * 5), 8),
        ((1, ((1, 0),) * 4), 19),
        ((1, ((1, 0), (1, 0), (2, 0), (2, 0))), 37),
        ((1, tuple((w, 0) for w in range(1, 7))), 22),
    ])
    def test_a_slot_one_byte_narrower_would_overflow(self, sig, length):
        """The largest count needs more bits than a slot of box.bit_length() // 8
        bytes holds, so only the spare byte of the raw width keeps it (rounding
        the raw width up to 1, 2, 4 or 8 bytes only widens the slot)."""
        largest = max(max(row) for row in oracles.theta_by_slices(sig, length))
        assert largest.bit_length() > 8 * (count_box(sig, length).bit_length() // 8)
        assert_theta_matches_the_slices(sig, length)

    @pytest.mark.parametrize("sig", [
        (1, ((1, 0),) * 24),
        (6, ((1, 0),) * 12 + ((1, 1),) * 6 + ((2, 3),) * 4 + ((3, 2),) * 2),
    ])
    def test_rank_24_slots_of_16_bytes_match_the_slices(self, sig):
        assert count_box(sig, 1001).bit_length() // 8 + 1 >= 16
        assert_theta_matches_the_slices(sig, 1001)
        spectral._theta.cache_clear()


# (raw width box.bit_length() // 8 + 1, rank, length): of the sums of squares of
# rank up to 24 and length up to 169 with that raw width, one whose largest count
# has the most bits
DECODE_CASES = [(1, 4, 4), (2, 4, 31), (3, 6, 44), (4, 7, 105), (5, 9, 97),
                (6, 10, 162), (7, 12, 130), (8, 13, 164), (9, 15, 160), (12, 21, 142)]


class TestThetaDecode:
    """Each raw slot width from 1 to 9 bytes, decoded by struct.unpack in
    slots of 1, 2, 4 or 8 bytes or, past 8, in whole 8-byte words."""

    @pytest.mark.parametrize("raw, rank, length", DECODE_CASES)
    @pytest.mark.parametrize("q, a", [(1, 0), (2, 1)])
    def test_each_raw_width_matches_the_slices(self, raw, rank, length, q, a):
        sig = (q, ((1, a),) * rank)
        assert count_box(sig, length).bit_length() // 8 + 1 == raw
        assert_theta_matches_the_slices(sig, length)

    def test_each_decode_holds_a_count_the_next_narrower_one_would_not(self):
        """Per decode, B, H, I, Q and the per-slot one, some case's largest count
        needs more bits than the next narrower decode's 0, 1, 2, 4 or 8 bytes."""
        bits = {}
        for raw, rank, length in DECODE_CASES:
            largest = max(oracles.theta_by_slices((1, ((1, 0),) * rank), length)[0])
            key = 1 << (raw - 1).bit_length() if raw <= 8 else "wide"
            bits[key] = max(bits.get(key, 0), largest.bit_length())
        assert list(bits) == [1, 2, 4, 8, "wide"]
        for key, narrower in zip(bits, (0, 1, 2, 4, 8)):
            assert bits[key] > 8 * narrower, (key, bits[key])


class TestDeepInputs:
    """Cutoffs and dimensions where a lattice-shell walk did not finish."""

    def test_norm_at_the_guard(self):
        g = example("4.5a")
        require_valid(g)
        clear_spectral_caches()
        start = time.perf_counter()
        assert multiplicity(g, 0, 10000) == 4701
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("key", ["5.6a", "4.3a"])
    def test_every_degree_to_forty(self, key):
        g = example(key)
        require_valid(g)
        clear_spectral_caches()
        start = time.perf_counter()
        table = multiplicity_table(g, None, 40).as_dict()
        assert time.perf_counter() - start < 1
        assert tuple(table[(p, 0)] for p in range(g.dim + 1)) == betti_row(g)
        for mu in range(41):
            assert sum((-1) ** p * table[(p, mu)] for p in range(g.dim + 1)) == 0

    def test_betti_row_of_a_64d_group_with_1024_elements(self):
        n = 64
        g = z2_10_group()
        require_valid(g)
        assert len(close_point_group(g)) == 1024
        start = time.perf_counter()
        row = betti_row(g)
        assert time.perf_counter() - start < 5
        # an invariant dx_J meets each negated block in an even number of
        # coordinates: beta_2 = C(14, 2) + 10 C(5, 2); no dx_J of degree 64
        # survives, since every generator has determinant -1
        assert row[:3] == (1, 14, 191) and row[n] == 0

    def test_a_cold_betti_row_of_the_64d_group_closes_no_group(self, monkeypatch):
        g = z2_10_group()
        clear_spectral_caches()
        clear_crystal_caches()
        closures = []
        original = crystal.close_point_group
        monkeypatch.setattr(crystal, "close_point_group",
                            lambda defn: closures.append(defn) or original(defn))
        assert betti_row(g)[:3] == (1, 14, 191)
        assert closures == [] and not hasattr(spectral, "close_point_group")

    def test_the_64d_group_walks_each_element_once(self, monkeypatch):
        g = z2_10_group()
        clear_spectral_caches()
        clear_crystal_caches()
        walks = count_walks(monkeypatch)
        assert validate_bieberbach(g).holonomy_order == 1024
        betti_row(g)
        assert len(walks) == 1024
        assert len(set(walks)) == 1024
