"""Cross-module invariants: isometry invariance, fixed vectors, Betti routes."""

from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from flatspec.crystal import (
    AffineGenerator,
    GroupDefinition,
    close_point_group,
    first_homology,
    validate_bieberbach,
)
from flatspec.exact_linear import integer_kernel, trace_p
from flatspec.oracles import PROJECTOR_BASIS_CAP, diagonal_trace, projector_oracle
from flatspec.spectral import multiplicity

from conftest import (
    diagonal_fixed_count,
    identity_matrix,
    mat_mul,
    mat_sub,
    mat_vec,
    transpose,
)

HALF = Fraction(1, 2)


def conjugate(defn: GroupDefinition, perm: tuple[tuple[int, ...], ...]) -> GroupDefinition:
    gens = tuple(
        AffineGenerator(
            mat_mul(mat_mul(perm, g.matrix), transpose(perm)),
            mat_vec(perm, g.translation),
        )
        for g in defn.generators
    )
    return GroupDefinition(dim=defn.dim, generators=gens, label=f"{defn.label}~")


def rotation_permutation(n: int, signs=()):
    # coordinate rotation i -> i+1, optional sign flips
    rows = []
    for i in range(n):
        j = (i + 1) % n
        s = -1 if i in signs else 1
        rows.append(tuple(s if k == j else 0 for k in range(n)))
    return tuple(rows)


def test_every_element_of_valid_group_has_nonzero_fixed_vector(all_corpus_defs):
    for label, defn in all_corpus_defs:
        for el in close_point_group(defn):
            kernel = integer_kernel(mat_sub(el.matrix, identity_matrix(defn.dim)))
            assert kernel, (label, el.word)


def test_betti_agrees_with_constant_form_projector(all_corpus_defs):
    # second route: dimension of the invariant subspace of constant p-forms
    for label, defn in all_corpus_defs:
        n = defn.dim
        for p in range(n + 1):
            if comb(n, p) > PROJECTOR_BASIS_CAP:
                continue
            assert projector_oracle(defn, p, 0) == multiplicity(defn, p, 0), (label, p)


def test_spectra_invariant_under_lattice_translation():
    from flatspec import example

    base, _ = example("4.5")
    shifted_gens = tuple(
        AffineGenerator(
            g.matrix, tuple(x + d for x, d in zip(g.translation, (2, -1, 3, 0)))
        )
        for g in base.generators
    )
    shifted = GroupDefinition(dim=4, generators=shifted_gens)
    for p in range(5):
        for mu in range(4):
            assert multiplicity(shifted, p, mu) == multiplicity(base, p, mu)


def test_spectra_invariant_under_signed_permutation_conjugation():
    from flatspec import example

    cases = [
        (example("5.1")[0], rotation_permutation(6)),
        (example("5.1")[1], rotation_permutation(6, signs=(0, 3))),
        (example("4.5")[0], rotation_permutation(4, signs=(2,))),
    ]
    for base, perm in cases:
        moved = conjugate(base, perm)
        assert validate_bieberbach(moved).is_torsion_free
        for p in range(base.dim + 1):
            for mu in range(4):
                assert multiplicity(moved, p, mu) == multiplicity(base, p, mu)


def test_homology_free_rank_equals_first_betti(all_corpus_defs):
    for label, defn in all_corpus_defs:
        assert first_homology(defn).free_rank == multiplicity(defn, 1, 0), label


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n),
                    st.lists(st.sampled_from((0, HALF)), min_size=n, max_size=n),
                ),
                min_size=1,
                max_size=2,
            ),
        )
    )
)
def test_random_diagonal_groups_agree_across_paths(case):
    n, raw_gens = case
    gens = []
    seen = set()
    for signs, translation in raw_gens:
        if tuple(signs) in seen or all(s == 1 for s in signs):
            return  # direct-product hypothesis needs distinct nontrivial matrices
        seen.add(tuple(signs))
        matrix = tuple(
            tuple(signs[i] if i == j else 0 for j in range(n)) for i in range(n)
        )
        gens.append(AffineGenerator(matrix, tuple(translation)))
    defn = GroupDefinition(dim=n, generators=tuple(gens))
    try:
        report = validate_bieberbach(defn)
    except ValueError:
        return  # structure violations are exercised elsewhere
    if not report.is_torsion_free:
        return
    for el in close_point_group(defn):
        n_fixed = diagonal_fixed_count(el.matrix)
        for p in range(n + 1):
            assert diagonal_trace(p, n, n_fixed) == trace_p(el.matrix, p)
    for mu in range(3):
        alternating = sum(
            (-1) ** p * multiplicity(defn, p, mu) for p in range(n + 1)
        )
        assert alternating == 0
