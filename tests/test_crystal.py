import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatspec.crystal import (
    AffineGenerator,
    PointGroupElement,
    _coset_power_sum,
    CosetCapError,
    GroupDefinition,
    GroupStructureError,
    HWMatrix,
    build_hw_group,
    check_torsion_condition,
    close_point_group,
    extend_with_characters,
    first_homology,
    group_from_json,
    group_to_json,
    validate_bieberbach,
)
from flatspec.exact_linear import UsageError, signed_permutation_order
from flatspec import crystal, example, exact_linear
from flatspec.spectral import betti_row

from conftest import (
    classical_hw_matrix,
    clear_crystal_caches,
    clear_spectral_caches,
    close_point_group_reference,
    count_walks,
    first_homology_reference,
    identity_matrix,
    mat_vec,
    pairwise_condition_reference,
    power_sum_oracle,
    random_candidate,
    random_diagonal_candidate,
    random_hw_candidate,
    signed_permutations,
    torsion_oracle,
    validate_bieberbach_reference,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
QUARTER = Fraction(1, 4)


def diag(*entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def klein_bottle():
    return GroupDefinition(
        dim=2,
        generators=(AffineGenerator(diag(1, -1), (HALF, Fraction(0))),),
        label="klein",
    )


class TestAffineGenerator:
    def test_rejects_non_signed_permutation(self):
        with pytest.raises(GroupStructureError, match="must be a signed permutation"):
            AffineGenerator(((1, 1), (0, 1)), (Fraction(0), Fraction(0)))

    def test_construction_scans_the_matrix_once(self, monkeypatch):
        scans, original = [], exact_linear.signed_perm
        for module in (exact_linear, crystal):
            monkeypatch.setattr(module, "signed_perm", lambda m: scans.append(m) or original(m))
        m = ((0, 0, -1), (1, 0, 0), (0, 1, 0))  # a 3-cycle of sign -1
        assert AffineGenerator(m, (Fraction(0),) * 3).order == 6
        assert scans == [m]

    def test_declared_order_verified(self):
        with pytest.raises(ValueError):
            AffineGenerator(diag(1, -1), (HALF, Fraction(0)), order=4)
        g = AffineGenerator(diag(1, -1), (HALF, Fraction(0)), order=2)
        assert g.order == 2

    def test_translation_normalized(self):
        g = AffineGenerator(diag(1, -1), (Fraction(3, 2), Fraction(-1, 4)))
        assert g.translation == (HALF, Fraction(3, 4))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            AffineGenerator(diag(1, -1), (0.5, 0))


class TestClosePointGroup:
    def test_empty_generators_give_identity(self):
        torus = GroupDefinition(dim=3, generators=(), label="t3")
        els = close_point_group(torus)
        assert len(els) == 1
        assert els[0].matrix == identity_matrix(3)
        assert els[0].word == ()

    def test_reflection_family_has_two_cosets(self):
        els = close_point_group(example("4.1(n=4,k=1)"))
        assert len(els) == 2
        assert els[0].is_identity
        assert els[1].word == (1,)

    def test_6d_catalog_pair_closure(self):
        g, gp = example("5.1")
        els = close_point_group(g)
        assert len(els) == 8
        words = {el.word for el in els}
        assert words == {(i, j) for i in range(4) for j in range(2)}
        # identity first, then by word length and lexicographic word
        assert [el.word for el in els[:3]] == [(0, 0), (0, 1), (1, 0)]
        assert len(close_point_group(gp)) == 8

    def test_word_exponents_match_powers(self):
        g, _ = example("5.1")
        els = {el.word: el for el in close_point_group(g)}
        gen = g.generators[0]
        square = els[(2, 0)]
        assert square.matrix == tuple(
            tuple(sum(gen.matrix[i][k] * gen.matrix[k][j] for k in range(6)) for j in range(6))
            for i in range(6)
        )
        assert square.translation == (0, 0, 0, 0, HALF, 0)

    def test_cap_exceeded(self):
        n = 11
        gens = tuple(
            AffineGenerator(
                diag(*[-1 if j == i else 1 for j in range(n)]),
                (Fraction(0),) * n,
            )
            for i in range(n)
        )
        with pytest.raises(CosetCapError):
            close_point_group(GroupDefinition(dim=n, generators=gens))

    def test_non_commuting_generators_rejected(self):
        swap01 = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
        swap12 = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
        gens = (
            AffineGenerator(swap01, (Fraction(0),) * 3),
            AffineGenerator(swap12, (Fraction(0),) * 3),
        )
        with pytest.raises(GroupStructureError):
            close_point_group(GroupDefinition(dim=3, generators=gens))

    def test_repeated_matrix_rejected(self):
        gens = (
            AffineGenerator(diag(1, -1), (HALF, Fraction(0))),
            AffineGenerator(diag(1, -1), (Fraction(0), Fraction(0))),
        )
        with pytest.raises(GroupStructureError):
            close_point_group(GroupDefinition(dim=2, generators=gens))

    def test_fractional_pure_translation_rejected(self):
        gens = (AffineGenerator(identity_matrix(2), (THIRD, Fraction(0))),)
        with pytest.raises(GroupStructureError):
            close_point_group(GroupDefinition(dim=2, generators=gens))


class TestClosureDiagnosis:
    """A closure failure names the generator power or the pair that fails."""

    def test_only_the_commutator_fails(self):
        # both squares are lattice translations; gamma_0 gamma_1 sits at
        # (1/4, 3/4) and gamma_1 gamma_0 at (1/4, 1/4)
        gens = (
            AffineGenerator(diag(1, -1), (Fraction(0), QUARTER)),
            AffineGenerator(diag(-1, -1), (QUARTER, Fraction(0))),
        )
        defn = GroupDefinition(2, gens)
        message = ("word cosets are not closed under multiplication; "
                   "gamma_0 and gamma_1 do not commute")
        with pytest.raises(GroupStructureError) as info:
            close_point_group(defn)
        assert str(info.value) == message
        assert validate_bieberbach(defn).failures == (
            ((0, 1), "pairwise"), ((), "closure: " + message))
        assert assert_matches_references(defn) == message

    def test_a_power_that_is_no_lattice_translation(self):
        gens = (
            AffineGenerator(diag(-1, 1, 1), (Fraction(0), HALF, Fraction(0))),
            AffineGenerator(diag(1, 1, -1), (Fraction(0), QUARTER, Fraction(0))),
        )
        defn = GroupDefinition(3, gens)
        message = ("word cosets are not closed under multiplication; "
                   "gamma_1^2 is not a lattice translation")
        assert assert_matches_references(defn) == message
        assert validate_bieberbach(defn).failures == (
            ((0, 1), "generator-lattice"), ((), "closure: " + message))
        group = crystal._group(defn)
        assert (group.pairs, group.powers) == ((), (1,))


def invalid_hw7():
    """A 7-d Hantzsche-Wendt candidate (|F| = 64) that fails the torsion check."""
    rng = random.Random(7)
    while validate_bieberbach(defn := random_hw_candidate(rng, 7)).is_torsion_free:
        pass
    return defn


class TestColdValidation:
    """What a cold validation and a cold closure build, counted."""

    def test_a_rejected_group_materialises_nothing(self, monkeypatch):
        defn = invalid_hw7()
        clear_crystal_caches()
        built = []
        init, new = PointGroupElement.__init__, Fraction.__new__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(PointGroupElement, "__init__", counting_init)
        monkeypatch.setattr(Fraction, "__new__", counting_new)
        report = validate_bieberbach(defn)
        monkeypatch.undo()
        assert report.holonomy_order == 64 and not report.is_torsion_free
        assert not built

    @pytest.mark.parametrize("make, expected",
                             [(invalid_hw7, 93), (lambda: example("5.1a"), 9),
                              (lambda: example("5.8b"), 3)],
                             ids=["hw7", "5.1a", "5.8b"])
    def test_a_cold_closure_makes_few_matrix_products(self, monkeypatch, make, expected):
        """|F| - 1 signed-permutation products build the words' matrices and
        r(r - 1) check that the generator matrices commute; |F| - 1
        translation steps build the word cosets; the generator conditions
        take neither."""
        defn = make()
        clear_crystal_caches()
        products, steps = count_closure_work(monkeypatch)
        order, r = len(close_point_group(defn)), len(defn.generators)
        assert len(products) == (order - 1) + r * (r - 1) == expected
        assert len(steps) == order - 1

    def test_a_warm_closure_does_no_matrix_work(self, monkeypatch):
        """A second 7-d Hantzsche-Wendt candidate has the first one's matrices:
        its validation makes no signed-permutation product and walks no
        matrix, and takes |F| - 1 = 63 translation steps."""
        first, rng = invalid_hw7(), random.Random(8)
        while (second := random_hw_candidate(rng, 7)) == first:
            pass
        clear_crystal_caches()
        validate_bieberbach(first)
        products, steps = count_closure_work(monkeypatch)
        walks = count_walks(monkeypatch)
        assert validate_bieberbach(second) == validate_bieberbach_reference(second)
        assert products == [] and walks == [] and len(steps) == 63


def count_closure_work(monkeypatch) -> tuple[list, list]:
    """The signed-permutation products and the translation steps that
    ``crystal`` makes from now on."""
    products, steps = [], []
    product, step = crystal._perm_product, crystal._translate
    monkeypatch.setattr(crystal, "_perm_product",
                        lambda x, y: products.append((x, y)) or product(x, y))
    monkeypatch.setattr(crystal, "_translate",
                        lambda t, move, q: steps.append(t) or step(t, move, q))
    return products, steps


class TestSharedMatrixClosure:
    """Groups with equal generator matrices share one matrix closure, and
    nothing that depends on a group's translations."""

    def test_groups_over_shared_matrices_keep_their_own_reports(self):
        """Over the 3-d Hantzsche-Wendt matrices, translations that pass, fail
        torsion, fail a power condition or fail the pairwise condition,
        validated in one process in shuffled order: each report is the
        group's own cold report and the reference's, and each closed group
        keeps its own cosets and homology."""
        rng = random.Random(33)
        steps = (Fraction(0), QUARTER, HALF, 3 * QUARTER)
        groups = []
        for _ in range(60):
            gens = tuple(AffineGenerator(diag(*(1 if k == i else -1 for k in range(3))),
                                         tuple(rng.choice(steps) for _ in range(3)))
                         for i in range(2))
            groups.append(GroupDefinition(3, gens))
        cold = {}
        for defn in groups:
            clear_crystal_caches()
            cold[defn] = validate_bieberbach(defn)
        rng.shuffle(groups)
        clear_crystal_caches()
        outcomes = Counter()
        for defn in groups:
            report = validate_bieberbach(defn)
            assert report == cold[defn] == validate_bieberbach_reference(defn)
            outcomes.update({cond for _, cond in report.failures} or {"valid"})
            if report.is_group_closed:
                got = [(el.matrix, el.translation, el.word) for el in close_point_group(defn)]
                assert got == close_point_group_reference(defn)
            if report.is_torsion_free:
                assert first_homology(defn) == first_homology_reference(defn)
        closures = {crystal._group(defn).closure for defn in groups}
        assert len(closures) == 1
        assert {"valid", "torsion", "generator-lattice", "pairwise"} <= outcomes.keys(), outcomes

    def test_tori_of_two_dimensions_share_no_closure(self):
        """Tori of dimensions 1 and 3 both have no generators."""
        tori = [GroupDefinition(n, ()) for n in (1, 3, 1)]
        clear_crystal_caches()
        for torus in tori:
            assert validate_bieberbach(torus).is_torsion_free
            (el,) = close_point_group(torus)
            assert el.matrix == identity_matrix(torus.dim)
            assert first_homology(torus) == first_homology_reference(torus)
        first, third = crystal._group(tori[0]).closure, crystal._group(tori[1]).closure
        assert first is not third and crystal._group(tori[2]).closure is first
        assert [walk[1] for walk in first.walks] == [((1, 1),)]
        assert [walk[1] for walk in third.walks] == [((1, 1),) * 3]


class TestPairwiseCondition:
    def test_catalog_pairs_pass(self):
        for key in ("4.5", "5.1", "5.8"):
            for defn in example(key):
                assert crystal._group(defn).pairs == ()

    def test_diagonal_with_half_translations_passes(self):
        gens = (
            AffineGenerator(diag(-1, 1, 1), (Fraction(0), HALF, Fraction(0))),
            AffineGenerator(diag(1, -1, 1), (Fraction(0), Fraction(0), HALF)),
        )
        assert crystal._group(GroupDefinition(3, gens)).pairs == ()

    def test_quarter_translations_fail(self):
        gens = (
            AffineGenerator(diag(-1, 1), (Fraction(0), QUARTER)),
            AffineGenerator(diag(1, -1), (QUARTER, Fraction(0))),
        )
        assert crystal._group(GroupDefinition(2, gens)).pairs == ((0, 1),)


class TestTorsionCondition:
    def test_reflection_with_half_shift_passes(self):
        els = close_point_group(example("4.1(n=4,k=1)"))
        assert check_torsion_condition(els[1])

    def test_catalog_6d_order_four_element_passes(self):
        g, _ = example("5.1")
        els = {el.word: el for el in close_point_group(g)}
        assert check_torsion_condition(els[(1, 0)])

    def test_zero_translation_fails(self):
        gens = (AffineGenerator(diag(-1, -1), (Fraction(0), Fraction(0))),)
        els = close_point_group(GroupDefinition(2, gens))
        assert not check_torsion_condition(els[1])


DENOMINATORS = (1, 2, 3, 4, 6, 8, 12)

matrix_and_translation = st.integers(1, 10).flatmap(
    lambda n: st.tuples(
        signed_permutations(n),
        st.sampled_from(DENOMINATORS).flatmap(
            lambda d: st.lists(
                st.integers(0, d - 1).map(lambda k: Fraction(k, d)),
                min_size=n,
                max_size=n,
            )
        ),
    )
)


def assert_power_sum_matches(matrix, b):
    """_coset_power_sum and check_torsion_condition against the S matrix."""
    s = power_sum_oracle(matrix)
    defn = GroupDefinition(len(matrix), [AffineGenerator(matrix, b)])
    group = crystal._group(defn)
    q, (coset,) = group.q, group.gens
    w = _coset_power_sum(coset, exact_linear.fixed_cycles(coset[:2]))
    assert q == lcm(*(x.denominator for x in b))
    assert tuple(Fraction(x, q) for x in w) == mat_vec(s, b)
    element = PointGroupElement(matrix=matrix, translation=b, word=(1,))
    expected = torsion_oracle(matrix, b)
    assert check_torsion_condition(element) == expected
    return expected


class TestPowerSumDifferential:
    """The cycle route to q S b and the torsion check, against the S matrix."""

    @settings(max_examples=150, deadline=None)
    @given(matrix_and_translation)
    def test_image_and_torsion_check_match_matrix_route(self, case):
        matrix, b = case
        assert_power_sum_matches(matrix, tuple(b))

    def test_seeded_sweep_reaches_both_outcomes(self):
        rng = random.Random(5)
        outcomes = []
        for _ in range(400):
            n = rng.randint(1, 10)
            perm = list(range(n))
            rng.shuffle(perm)
            matrix = tuple(
                tuple(rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n))
                for i in range(n)
            )
            d = rng.choice(DENOMINATORS)
            b = tuple(Fraction(rng.randrange(d), d) for _ in range(n))
            outcomes.append(assert_power_sum_matches(matrix, b))
        assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10


def assert_matches_references(defn) -> str:
    """Compare closure, pairwise check, validation and homology with the matrix route.

    Returns the outcome: the closure error message, "valid" or "invalid".
    """
    assert list(crystal._group(defn).pairs) == pairwise_condition_reference(defn)
    try:
        report = validate_bieberbach_reference(defn)
    except CosetCapError as exc:
        with pytest.raises(CosetCapError) as info:
            validate_bieberbach(defn)
        assert str(info.value) == str(exc)
    else:
        assert validate_bieberbach(defn) == report
    try:
        expected = close_point_group_reference(defn)
    except (GroupStructureError, CosetCapError) as exc:
        with pytest.raises(type(exc)) as info:
            close_point_group(defn)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return str(exc)
    got = close_point_group(defn)
    assert [(el.matrix, el.translation, el.word) for el in got] == expected
    try:
        h1 = first_homology_reference(defn)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            first_homology(defn)
        assert str(info.value) == str(exc)
        return "invalid"
    assert first_homology(defn) == h1
    return "valid"


class TestClosureDifferential:
    """Integer-form closure, checks, validation and homology against Fraction matrices."""

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_matrix_route(self, rng):
        assert_matches_references(random_candidate(rng))

    def test_seeded_sweep_reaches_every_outcome(self):
        rng = random.Random(6)
        outcomes = Counter(assert_matches_references(random_candidate(rng)) for _ in range(300))
        assert outcomes["valid"] >= 10 and outcomes["invalid"] >= 10, outcomes
        assert sum(c for o, c in outcomes.items() if "do not commute" in o) >= 10, outcomes
        assert sum(c for o, c in outcomes.items() if "direct product" in o) >= 10, outcomes
        assert sum(c for o, c in outcomes.items() if "exceeds cap" in o) >= 1, outcomes

    def test_catalog_matches(self, all_corpus_defs):
        for label, defn in all_corpus_defs:
            assert assert_matches_references(defn) == "valid", label


def sweep_outcome(defn) -> str:
    """The references' verdict on ``defn`` (asserted equal to the engine's):
    valid, pairwise (the pairwise condition fails), closure (the word cosets
    are not a group, pairs commuting) or torsion."""
    assert_matches_references(defn)
    report = validate_bieberbach(defn)
    if report.is_torsion_free:
        return "valid"
    if any(cond == "pairwise" for _, cond in report.failures):
        return "pairwise"
    return "torsion" if report.is_group_closed else "closure"


class TestManyGenerators:
    """Validation, closure and homology against the references on groups of
    up to 8 generators: Hantzsche-Wendt candidates and diagonal Z_2^k."""

    def test_seeded_sweep_reaches_every_outcome(self):
        rng = random.Random(19)
        groups = [random_hw_candidate(rng, n) for n, count in ((3, 4), (5, 4), (7, 3), (9, 2))
                  for _ in range(count)]
        groups += [random_diagonal_candidate(rng) for _ in range(80)]
        outcomes = Counter(sweep_outcome(defn) for defn in groups)
        assert all(outcomes[o] >= 5 for o in ("valid", "torsion", "pairwise", "closure")), outcomes
        powers = [list(crystal._group(defn).powers) for defn in groups]
        assert powers == [
            [k for k, g in enumerate(defn.generators)
             if any(x.denominator != 1 for x in mat_vec(power_sum_oracle(g.matrix), g.translation))]
            for defn in groups
        ]
        assert sum(map(bool, powers)) >= 5
        assert max(validate_bieberbach(defn).holonomy_order for defn in groups) == 256
        assert max(len(defn.generators) for defn in groups) == 8


class TestValidation:
    def test_catalog_4d_pair_valid(self):
        for defn in example("4.5"):
            report = validate_bieberbach(defn)
            assert report.is_torsion_free
            assert report.has_translation_lattice_Zn
            assert report.holonomy_structure == (2, 2)
            assert report.holonomy_order == 4
            assert report.failures == ()

    def test_central_inversion_has_torsion(self):
        for n in (2, 4):
            gens = (AffineGenerator(diag(*[-1] * n), (Fraction(0),) * n),)
            report = validate_bieberbach(GroupDefinition(n, gens))
            assert not report.is_torsion_free
            assert report.has_translation_lattice_Zn
            assert ((1,), "torsion") in report.failures

    def test_catalog_6d_pair_valid_with_z4xz2(self):
        for defn in example("5.1"):
            report = validate_bieberbach(defn)
            assert report.is_torsion_free
            assert report.holonomy_structure == (4, 2)

    def test_klein_bottle_valid(self):
        assert validate_bieberbach(klein_bottle()).is_torsion_free

    def test_lattice_failure_reported(self):
        gens = (AffineGenerator(diag(1, -1), (THIRD, Fraction(0))),)
        report = validate_bieberbach(GroupDefinition(2, gens))
        assert not report.has_translation_lattice_Zn
        assert not report.is_torsion_free
        assert not report.is_group_closed
        assert any(cond == "generator-lattice" for _, cond in report.failures)

    def test_torsion_free_implies_lattice(self, all_corpus_defs):
        for _, defn in all_corpus_defs:
            report = validate_bieberbach(defn)
            assert report.is_torsion_free
            assert report.has_translation_lattice_Zn


class TestFirstHomology:
    def test_catalog_4d_pair(self):
        first, second = example("4.5")
        h1 = first_homology(first)
        assert (h1.free_rank, h1.torsion) == (1, (4, 4))
        assert str(h1) == "Z + Z4^2"
        h2 = first_homology(second)
        assert (h2.free_rank, h2.torsion) == (1, (2, 2, 2))
        assert str(h2) == "Z + Z2^3"

    def test_torus_is_free(self):
        for n in (1, 3, 5):
            h = first_homology(GroupDefinition(dim=n, generators=(), label="t"))
            assert (h.free_rank, h.torsion) == (n, ())

    def test_klein_bottle(self):
        h = first_homology(klein_bottle())
        assert (h.free_rank, h.torsion) == (1, (2,))
        assert str(h) == "Z + Z2"

    def test_invalid_definition_rejected(self):
        gens = (AffineGenerator(diag(-1, -1), (Fraction(0), Fraction(0))),)
        with pytest.raises(ValueError):
            first_homology(GroupDefinition(2, gens))

    def test_a_cold_homology_walks_each_coset_once(self, monkeypatch):
        """The matrix closure walks the matrix of each coset once, the
        identity's too; a generator's walk serves its word and its power sum,
        and validation and homology walk nothing more."""
        defn = example("5.1a")
        order = len(close_point_group(defn))
        clear_crystal_caches()
        walks = count_walks(monkeypatch)
        assert str(first_homology(defn)) == "Z^2 + Z2^2"
        assert len(walks) == len(set(walks)) == order

    def test_a_cold_validation_and_homology_build_the_generator_cosets_once(self):
        """Validation, homology, the Betti row and the closure all read one
        record of the group, built on the first call."""
        defn = example("5.1a")
        clear_crystal_caches()
        clear_spectral_caches()
        validate_bieberbach(defn)
        first_homology(defn)
        betti_row(defn)
        close_point_group(defn)
        assert crystal._group.cache_info().misses == 1


class TestHWConstruction:
    def test_classical_three_dimensional(self):
        defn = build_hw_group(classical_hw_matrix())
        report = validate_bieberbach(defn)
        assert report.is_torsion_free
        assert report.holonomy_order == 4

    def test_zero_translations_fail_validation(self):
        a = HWMatrix(n=3, rows=((Fraction(0),) * 3, (Fraction(0),) * 3))
        report = validate_bieberbach(build_hw_group(a))
        assert not report.is_torsion_free

    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError):
            HWMatrix(n=4, rows=((Fraction(0),) * 4,) * 3)

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            HWMatrix(n=3, rows=((THIRD, 0, 0), (0, 0, 0)))

    def test_holonomy_order_and_unique_half_decomposition(self):
        defn = build_hw_group(classical_hw_matrix())
        els = close_point_group(defn)
        assert len(els) == 2 ** (defn.dim - 1)
        for el in els:
            assert all(x in (0, HALF) for x in el.translation)
        assert len({el.matrix for el in els}) == len(els)


class TestExtendWithCharacters:
    def test_row_length_mismatch(self):
        g, _ = example("5.1")
        with pytest.raises(ValueError):
            extend_with_characters(g, [(-1,)])

    def test_non_sign_entries(self):
        g, _ = example("5.1")
        with pytest.raises(ValueError):
            extend_with_characters(g, [(2, 1)])

    def test_torus_extension(self):
        torus = GroupDefinition(dim=3, generators=(), label="t3")
        bigger = extend_with_characters(torus, [], trivial_count=4)
        assert bigger.dim == 7
        assert bigger.generators == ()

    def test_sign_character_preserves_validity(self):
        g, _ = example("5.1")
        extended = extend_with_characters(g, [(-1, 1)])
        assert extended.dim == 7
        assert [gen.order for gen in extended.generators] == [4, 2]
        assert validate_bieberbach(extended).is_torsion_free
        for gen in extended.generators:
            assert gen.translation[-1] == 0


ZERO = Fraction(0)

# The generators (B, b) of the paper's fixed pairs, written out from its
# definitions: C_k = diag(1^k, (-1)^(n-k)), J the quarter turn ((0, 1), (-1, 0)).
PAPER_GENERATORS = {
    "4.3a": [(diag(1, 1, 1, -1, -1, -1, -1, -1, -1), (HALF,) + (ZERO,) * 8)],
    "4.3b": [(diag(1, 1, 1, 1, 1, 1, -1, -1, -1), (HALF,) + (ZERO,) * 8)],
    "4.5a": [(diag(1, 1, -1, -1), (ZERO, HALF, ZERO, HALF)),
             (diag(1, -1, 1, -1), (ZERO, ZERO, HALF, ZERO))],
    "4.5b": [(diag(1, 1, -1, -1), (ZERO, HALF, ZERO, ZERO)),
             (diag(1, -1, 1, -1), (HALF, ZERO, ZERO, ZERO))],
    "5.1a": [(((0, 1, 0, 0, 0, 0),
               (-1, 0, 0, 0, 0, 0),
               (0, 0, 0, 1, 0, 0),
               (0, 0, -1, 0, 0, 0),
               (0, 0, 0, 0, 1, 0),
               (0, 0, 0, 0, 0, 1)), (ZERO, ZERO, ZERO, ZERO, QUARTER, ZERO)),
             (diag(-1, -1, 1, 1, 1, 1), (ZERO, ZERO, ZERO, ZERO, ZERO, HALF))],
    "5.1b": [(((0, 1, 0, 0, 0, 0),
               (-1, 0, 0, 0, 0, 0),
               (0, 0, 1, 0, 0, 0),
               (0, 0, 0, -1, 0, 0),
               (0, 0, 0, 0, -1, 0),
               (0, 0, 0, 0, 0, 1)), (ZERO, ZERO, ZERO, ZERO, ZERO, QUARTER)),
             (diag(-1, -1, -1, 1, -1, 1), (ZERO, ZERO, ZERO, HALF, HALF, ZERO))],
    "5.8a": [(diag(1, 1, -1, -1), (HALF, ZERO, ZERO, ZERO)),
             (diag(1, -1, -1, 1), (ZERO, ZERO, ZERO, HALF))],
    "5.8b": [(((0, 1, 0, 0),
               (-1, 0, 0, 0),
               (0, 0, -1, 0),
               (0, 0, 0, 1)), (ZERO, ZERO, ZERO, QUARTER))],
}


class TestCorpus:
    @pytest.mark.parametrize("catalog_id", sorted(PAPER_GENERATORS))
    def test_fixed_pair_generators_are_the_papers(self, catalog_id):
        built = [(g.matrix, g.translation) for g in example(catalog_id).generators]
        assert built == PAPER_GENERATORS[catalog_id]

    def test_all_entries_validate(self, all_corpus_defs):
        for label, defn in all_corpus_defs:
            assert validate_bieberbach(defn).is_torsion_free, label

    def test_unknown_id(self):
        with pytest.raises(UsageError):
            example("9.9")

    def test_missing_parameters(self):
        with pytest.raises(UsageError):
            example("4.1")

    def test_member_suffix_returns_one_group(self):
        first, second = example("5.1")
        assert example("5.1a") == first
        assert example("5.1b") == second
        assert example("5.9(k=1)b").label == "5.9(k=1)b"
        with pytest.raises(UsageError, match="is a single group"):
            example("4.1(n=4,k=1)a")

    def test_ids_of_one_entry_share_one_build(self, monkeypatch):
        assert example("5.1a") is example("5.1")[0]
        assert example("5.1b") is example(" 5.1 ")[1]
        assert example("4.1(k=1,n=4)") is example("4.1(n=4,k=1)")
        keys = ("5.1", "5.1a", "5.1b", "4.1(n=4,k=1)", "5.9(k=2)b", "5.9(k=2)")
        for key in keys:
            example(key)
        built = []
        check = AffineGenerator._check
        monkeypatch.setattr(AffineGenerator, "_check", lambda gen: built.append(gen) or check(gen))
        for key in keys:
            example(key)
        assert built == []

    def test_a_refused_build_is_not_kept(self):
        for _ in range(2):
            with pytest.raises(UsageError, match=r"^bad parameters in '4.1\(n=5,k=1\)': "):
                example("4.1(n=5,k=1)")

    def test_repeated_parameter_refused(self):
        with pytest.raises(UsageError, match="repeated parameter 'k'"):
            example("4.1(n=4,k=1,k=3)")

    def test_builder_range_errors_name_the_id(self):
        with pytest.raises(UsageError, match=r"^bad parameters in '4.1\(n=5,k=1\)': "):
            example("4.1(n=5,k=1)")

    def test_bad_parameter_values(self):
        with pytest.raises(ValueError):
            example("4.1(n=4,k=2)")
        with pytest.raises(ValueError):
            example("4.1(n=5,k=1)")

    def test_translation_class_invariance(self):
        first, _ = example("4.5")
        shifted_gen = AffineGenerator(
            first.generators[0].matrix,
            tuple(
                x + d
                for x, d in zip(first.generators[0].translation, (1, -2, 0, 3))
            ),
        )
        shifted = GroupDefinition(
            dim=4, generators=(shifted_gen, first.generators[1]), label=first.label
        )
        assert close_point_group(shifted) == close_point_group(first)


class TestJsonRoundTrip:
    def test_all_corpus_definitions(self, all_corpus_defs):
        for label, defn in all_corpus_defs:
            data = group_to_json(defn)
            assert group_from_json(data) == defn, label

    def test_rationals_serialized_reduced(self):
        g, _ = example("5.1")
        data = group_to_json(g)
        assert data["generators"][0]["translation"] == ["0/1"] * 4 + ["1/4", "0/1"]

    def test_bad_payloads(self):
        with pytest.raises(ValueError):
            group_from_json({"dim": 2})
        with pytest.raises(ValueError):
            group_from_json(
                {
                    "dim": 1,
                    "label": "x",
                    "generators": [
                        {"matrix": [[1]], "translation": ["0.5"], "order": 1}
                    ],
                }
            )

    def test_integer_fields_must_be_json_integers(self):
        gen = {"matrix": [[1, 0], [0, -1]], "translation": ["1/2", "0"]}
        for dim in (2.9, 2.0, "2", False):
            with pytest.raises(ValueError, match="field 'dim' must be an integer"):
                group_from_json({"dim": dim, "generators": [gen]})
        for order in (2.7, 2.0, "2", True):
            with pytest.raises(ValueError, match=r"field generators\[0\]\.order must be"):
                group_from_json({"dim": 2, "generators": [dict(gen, order=order)]})
        assert group_from_json({"dim": 2, "generators": [dict(gen, order=2)]}).dim == 2

    def test_translation_entries_must_be_rationals(self):
        gen = {"matrix": [[1, 0], [0, -1]], "translation": ["1/2", "0"]}
        for bad in (True, False, "1/0", "3/00", 0.5):
            with pytest.raises(ValueError, match="not a p/q rational: " + repr(bad)):
                group_from_json({"dim": 2, "generators": [dict(gen, translation=[bad, "0"])]})
        ok = group_from_json({"dim": 2, "generators": [dict(gen, translation=[1, "3/02"])]})
        assert ok.generators[0].translation == (0, HALF)

    def test_label_must_be_a_string(self):
        for label in (7, None, ["a"]):
            with pytest.raises(ValueError, match="field 'label' must be a string"):
                group_from_json({"dim": 1, "label": label, "generators": []})
        assert group_from_json({"dim": 1, "generators": []}).label == ""


class TestRecord:
    """The value semantics that every Record subclass shares."""

    def test_equality_and_hash_ignore_the_label(self):
        g = klein_bottle()
        relabeled = GroupDefinition(g.dim, g.generators, label="other")
        assert relabeled == g and hash(relabeled) == hash(g)
        assert GroupDefinition(2, ()) != g

    def test_equal_records_hash_equal(self):
        first = AffineGenerator(diag(1, -1), (HALF, 0))
        second = AffineGenerator(matrix=[[1, 0], [0, -1]], translation=(Fraction(3, 2), 1), order=2)
        assert first == second and hash(first) == hash(second)
        assert first != AffineGenerator(diag(1, -1), (0, HALF))

    def test_the_hash_is_computed_once(self, monkeypatch):
        g = klein_bottle()  # fresh: a catalog group is shared, so it may be hashed already
        calls = []
        original = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__", lambda x: calls.append(x) or original(x))
        first = hash(g)
        assert calls
        calls.clear()
        assert hash(g) == first and not calls

    def test_fields_cannot_be_assigned_or_deleted(self):
        g = klein_bottle()
        with pytest.raises(AttributeError):
            g.dim = 3
        with pytest.raises(AttributeError):
            g.label = "other"
        with pytest.raises(AttributeError):
            del g.generators
        assert (g.dim, g.label) == (2, "klein")

    @pytest.mark.parametrize("make", [
        lambda: example("5.1")[0],
        lambda: close_point_group(example("5.1a"))[1],
        lambda: validate_bieberbach(example("5.1a")),
        lambda: first_homology(example("5.1a")),
        classical_hw_matrix,
    ], ids=["group", "element", "report", "homology", "hw-matrix"])
    def test_copy_deepcopy_and_pickle_give_an_equal_record(self, make):
        record = make()
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record)
            assert clone == record and hash(clone) == hash(record)
            assert repr(clone) == repr(record)

    def test_repr_names_every_field(self):
        assert repr(first_homology(klein_bottle())) == "AbelianGroupType(free_rank=1, torsion=(2,))"

    def test_a_wrong_field_count_or_name_is_a_type_error(self):
        el = close_point_group(klein_bottle())[1]
        with pytest.raises(TypeError):
            PointGroupElement(el.matrix, el.translation)
        with pytest.raises(TypeError):
            PointGroupElement(el.matrix, el.translation, el.word, ())
        with pytest.raises(TypeError):
            PointGroupElement(el.matrix, el.translation, words=el.word)
        with pytest.raises(TypeError):
            PointGroupElement(el.matrix, el.translation, el.word, matrix=el.matrix)
        with pytest.raises(TypeError):
            AffineGenerator(diag(1, -1), (HALF, 0), 2, translation=(0, 0))
        assert PointGroupElement(el.matrix, el.translation, word=el.word) == el


def test_generator_dimension_checked():
    with pytest.raises(ValueError):
        GroupDefinition(
            dim=3,
            generators=(AffineGenerator(diag(1, -1), (HALF, Fraction(0))),),
        )


def test_signed_permutation_order_of_block():
    g, _ = example("5.1")
    assert signed_permutation_order(g.generators[0].matrix) == 4
