"""Acceptance suite: one test per criterion, all equalities exact.

Each test prints a single PASS line on success (visible with ``pytest -s``
or in the captured output); a failing criterion fails its test.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from flatspec.crystal import (
    build_hw_group,
    close_point_group,
    first_homology,
    validate_bieberbach,
)
from flatspec.exact_linear import integer_kernel, signed_permutation_order, trace_p
from flatspec.isospec import (
    compare_spectra,
    duality_check,
    identity_pairing,
    check_pairing_criterion,
    is_orientable,
)
from flatspec.oracles import (
    PROJECTOR_BASIS_CAP,
    diagonal_trace,
    enumerate_shell,
    krawtchouk,
    krawtchouk_subset_oracle,
    kunneth_betti,
    multiplicity_hw,
    projector_oracle,
)
from flatspec.spectral import (
    betti_row,
    character_sum,
    multiplicity,
    weighted_sum,
)
from flatspec import AffineGenerator, GroupDefinition, example

from conftest import (
    classical_hw_matrix,
    corpus_defs,
    diagonal_fixed_count,
    identity_matrix,
    mat_mul,
    mat_sub,
    mat_vec,
    residue_value,
    shell_count,
    signed_shell_count,
    transpose,
)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def note(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def order_four_aggregate(defn, mu):
    return residue_value(weighted_sum(
        (1, character_sum(el, mu))
        for el in close_point_group(defn)
        if signed_permutation_order(el.matrix) == 4
    ))


def test_criterion_01_reflection_family():
    for n in (4, 6, 8):
        ks = list(range(1, n, 2))
        defs = {k: example(f"4.1(n={n},k={k})") for k in ks}
        for k in ks:
            assert multiplicity(defs[k], 0, 1) == n + k - 2
            assert multiplicity(defs[k], n, 1) == n - k + 2
        for k1, k2 in combinations(ks, 2):
            report = compare_spectra(defs[k1], defs[k2], p_set=(n // 2,), mu_max=8)
            assert report.equal_p_set() == (n // 2,), (n, k1, k2)
        b1 = betti_row(defs[1])
        b3 = betti_row(defs[3])
        for q in range(1, n):
            if q == n // 2:
                assert b1[q] == b3[q]
            else:
                assert b1[q] != b3[q], (n, q)
    note("criterion 1: PASS (d_{0,1}, d_{n,1} closed forms; mid-degree "
         "isospectrality; Betti separation for k=1 vs 3)")


def test_reflection_family_over_every_dimension_the_rank_guard_admits():
    """The abstract's first claim on 4.1(n, k) against 4.1(n, k') for every
    even n in 4..12 and odd k < k' < n: isospectral on n/2-forms alone up to
    mu = 2, and not homeomorphic (H_1 has free rank k).  Every cell d_{q,mu}
    with mu <= 2 matches (C(n,q) r_n(mu) + K_q^n(n-k) s_k(mu)) / 2: the
    identity contributes the full shell, C_k its fixed Z^k with phase
    (-1)^(v_1) and trace K_q^n(n-k)."""
    pairs = cells = 0
    for n in range(4, 13, 2):
        ks = range(1, n, 2)
        defs = {k: example(f"4.1(n={n},k={k})") for k in ks}
        for k, defn in defs.items():
            assert first_homology(defn).free_rank == k, (n, k)
            for q in range(n + 1):
                for mu in range(3):
                    expected = (comb(n, q) * shell_count(n, mu)
                                + krawtchouk(q, n - k, n) * signed_shell_count(k, mu))
                    assert multiplicity(defn, q, mu) * 2 == expected, (n, k, q, mu)
                    cells += 1
        for k1, k2 in combinations(ks, 2):
            report = compare_spectra(defs[k1], defs[k2], mu_max=2)
            assert report.equal_p_set() == (n // 2,), (n, k1, k2)
            pairs += 1
    assert (pairs, cells) == (35, 600)
    note("reflection family: PASS (35 pairs to n = 12; 600 closed-form cells)")


def test_criterion_02_shifted_family():
    n = 6
    for k in (1, 3, 5):
        for j in range(1, k + 1):
            defn = example(f"4.2(n={n},k={k},j={j})")
            assert multiplicity(defn, 0, 1) == n + k - 2 * j
    for n in (4, 6):
        members = [example(f"4.2h(n={n},h={h})") for h in range(1, n // 2 + 1)]
        odd_ps = tuple(range(1, n, 2))
        for first, second in combinations(members, 2):
            report = compare_spectra(first, second, p_set=odd_ps, mu_max=8)
            assert report.equal_p_set() == odd_ps
            zero = compare_spectra(first, second, p_set=(0,), mu_max=8)
            verdict = zero.verdicts()[0]
            assert not verdict.equal_up_to_cutoff
            assert verdict.witness[1] == 1
    note("criterion 2: PASS (d_{0,1} = n+k-2j; half-reflection family odd-q "
         "isospectral, 0-spectra split at mu=1)")


def test_criterion_03_nine_dimensional_pair():
    zeros = {
        (l, j)
        for l in range(1, 9)
        for j in range(1, 9)
        if krawtchouk(l, j, 9) == 0
    }
    expected = {(2, 3), (2, 6), (3, 2), (3, 7), (6, 2), (6, 7), (7, 3), (7, 6)}
    assert zeros == expected
    for l, j in expected:
        assert krawtchouk_subset_oracle(l, j, 9) == 0

    g, gp = example("4.3")
    assert betti_row(g) == (1, 3, 18, 46, 60, 60, 46, 18, 3, 1)
    assert betti_row(gp) == (1, 6, 18, 38, 60, 66, 46, 18, 3, 0)
    report = compare_spectra(g, gp, p_set=(2, 7), mu_max=5)
    assert report.equal_p_set() == (2, 7)
    assert multiplicity(g, 0, 1) < multiplicity(gp, 0, 1)
    for p in (4, 6, 8):
        assert multiplicity(g, p, 1) != multiplicity(gp, p, 1)
    note("criterion 3: PASS (K^9 zero set; Betti rows; 2/7-isospectral; "
         "d_{p,1} separations)")


def test_criterion_04_four_dimensional_pair():
    g, gp = example("4.5")
    assert validate_bieberbach(g).is_torsion_free
    assert validate_bieberbach(gp).is_torsion_free
    assert str(first_homology(g)) == "Z + Z4^2"
    assert str(first_homology(gp)) == "Z + Z2^3"
    assert betti_row(g) == (1, 1, 0, 1, 1)
    assert betti_row(gp) == (1, 1, 0, 1, 1)
    report = compare_spectra(g, gp, mu_max=10)
    assert report.equal_p_set() == (0, 1, 2, 3, 4)
    pairing = identity_pairing(g, gp)
    for p in range(5):
        assert check_pairing_criterion(g, gp, pairing, p, mu_max=10)
    note("criterion 4: PASS (validation; H_1 distinction; Betti row; "
         "all-p isospectral with identity pairing certificate)")


def _block_diag(*blocks):
    size = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for row in b:
            rows.append((0,) * offset + tuple(row) + (0,) * (size - offset - len(row)))
        offset += len(b)
    return tuple(rows)


def _diag(*entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def _tr6(components):
    return tuple(Fraction(components.get(i + 1, 0)) for i in range(6))


def test_criterion_05_six_dimensional_pair():
    j = ((0, 1), (-1, 0))
    nj = ((0, -1), (1, 0))
    i2 = ((1, 0), (0, 1))
    ni2 = ((-1, 0), (0, -1))

    expected_first = {
        (_block_diag(j, j, i2), _tr6({5: QUARTER})),
        (_block_diag(ni2, ni2, i2), _tr6({5: HALF})),
        (_block_diag(nj, nj, i2), _tr6({5: Fraction(3, 4)})),
        (_block_diag(ni2, i2, i2), _tr6({6: HALF})),
        (_block_diag(nj, j, i2), _tr6({5: QUARTER, 6: HALF})),
        (_block_diag(i2, ni2, i2), _tr6({5: HALF, 6: HALF})),
        (_block_diag(j, nj, i2), _tr6({5: Fraction(3, 4), 6: HALF})),
    }
    expected_second = {
        (_block_diag(j, _diag(1, -1, -1, 1)), _tr6({6: QUARTER})),
        (_block_diag(ni2, _diag(1, 1, 1, 1)), _tr6({6: HALF})),
        (_block_diag(nj, _diag(1, -1, -1, 1)), _tr6({6: Fraction(3, 4)})),
        (_block_diag(ni2, _diag(-1, 1, -1, 1)), _tr6({4: HALF, 5: HALF})),
        (_block_diag(nj, _diag(-1, -1, 1, 1)), _tr6({4: HALF, 5: HALF, 6: QUARTER})),
        (_block_diag(i2, _diag(-1, 1, -1, 1)), _tr6({4: HALF, 5: HALF, 6: HALF})),
        (_block_diag(j, _diag(-1, -1, 1, 1)), _tr6({4: HALF, 5: HALF, 6: Fraction(3, 4)})),
    }

    g, gp = example("5.1")
    got_first = {(el.matrix, el.translation) for el in close_point_group(g)[1:]}
    got_second = {(el.matrix, el.translation) for el in close_point_group(gp)[1:]}
    assert got_first == expected_first
    assert got_second == expected_second

    b1 = g.generators[0].matrix
    b1p = gp.generators[0].matrix
    assert [trace_p(b1, p) for p in range(1, 6)] == [2, 3, 4, 3, 2]
    assert [trace_p(b1p, p) for p in range(1, 6)] == [0, -1, 0, -1, 0]

    assert order_four_aggregate(g, 8) == -16

    report = compare_spectra(g, gp, mu_max=10)
    assert report.equal_p_set() == (0, 6)
    verdicts = report.verdicts()
    for p in range(1, 6):
        witness = verdicts[p].witness
        assert witness is not None and witness[1] == 0  # Betti witnesses
    d48 = multiplicity(g, 4, 8)
    d48p = multiplicity(gp, 4, 8)
    assert d48 != d48p

    assert betti_row(g) == (1, 2, 3, 4, 3, 2, 1)
    assert betti_row(gp) == (1, 1, 1, 2, 1, 1, 1)
    note("criterion 5: PASS (coset tables; trace rows; aggregate -16; "
         f"0/6-isospectral only; d_48 {d48} vs {d48p}; Betti rows)")


def test_criterion_06_seven_dimensional_pair():
    g, gp = example("5.5")
    assert betti_row(g) == (1, 2, 3, 4, 3, 2, 1, 0)
    assert betti_row(gp) == (1, 1, 2, 4, 3, 3, 2, 0)
    report = compare_spectra(g, gp, mu_max=6)
    verdicts = report.verdicts()
    for p in (3, 4, 7):
        assert verdicts[p].equal_up_to_cutoff, p
    for p in (1, 2, 5, 6):
        assert not verdicts[p].equal_up_to_cutoff, p
    note("criterion 6: PASS (7d Betti rows; 3/4/7-isospectral; "
         "1/2/5/6 split)")


def test_criterion_07_eight_dimensional_parity_pair():
    g, gp = example("5.6")
    b1 = g.generators[0].matrix
    b1p = gp.generators[0].matrix
    assert [trace_p(b1, p) for p in range(9)] == [1, 0, 0, 0, -2, 0, 0, 0, 1]
    assert [trace_p(b1p, p) for p in range(9)] == [1, 0, -2, 0, 0, 0, 2, 0, -1]
    assert order_four_aggregate(g, 1) == 0
    assert order_four_aggregate(gp, 1) == 8
    assert betti_row(g) == (1, 2, 4, 6, 6, 6, 4, 2, 1)
    assert betti_row(gp) == (1, 2, 3, 6, 7, 6, 5, 2, 0)
    report = compare_spectra(g, gp, mu_max=8)
    assert report.equal_p_set() == (1, 3, 5, 7)
    assert multiplicity(g, 4, 8) != multiplicity(gp, 4, 8)
    note("criterion 7: PASS (trace rows; order-4 aggregates 0 vs 8; Betti "
         "rows; odd-p isospectral; d_{4,8} split)")


def test_criterion_08_eight_dimensional_mixed_pair():
    g, gp = example("5.7")
    report = compare_spectra(g, gp, mu_max=6)
    verdicts = report.verdicts()
    for p in (2, 6):
        assert verdicts[p].equal_up_to_cutoff, p
    for p in (0, 1, 3, 4, 5, 7, 8):
        assert not verdicts[p].equal_up_to_cutoff, p
        assert verdicts[p].witness is not None
    note("criterion 8: PASS (2/6-isospectral; finite witnesses for the rest)")


def test_criterion_09_four_dimensional_holonomy_pair():
    g, gp = example("5.8")
    assert validate_bieberbach(g).holonomy_structure == (2, 2)
    assert validate_bieberbach(gp).holonomy_structure == (4,)
    for defn in (g, gp):
        for el in close_point_group(defn)[1:]:
            assert trace_p(el.matrix, 1) == 0
            assert trace_p(el.matrix, 3) == 0
    report = compare_spectra(g, gp, p_set=(1, 3), mu_max=10)
    assert report.equal_p_set() == (1, 3)
    note("criterion 9: PASS (holonomies Z2^2 vs Z4; vanishing odd traces; "
         "1/3-isospectral)")


def test_criterion_10_torus_products():
    base, base_p = example("5.1")
    for k in (1, 2):
        ext, ext_p = example(f"5.9(k={k})")
        row = betti_row(ext)
        row_p = betti_row(ext_p)
        for h in range(1, 6 + k):
            via_formula = kunneth_betti(base, k, h)
            via_formula_p = kunneth_betti(base_p, k, h)
            assert via_formula == row[h]
            assert via_formula_p == row_p[h]
            assert via_formula > via_formula_p, (k, h)
    note("criterion 10: PASS (Kunneth formula agrees with direct Betti; "
         "strict inequality for 0 < h < 6+k)")


def test_criterion_11_property_suite():
    groups = corpus_defs()

    # multiplicity vs the independent projector oracle, within guards
    checked = 0
    for label, defn in groups:
        n = defn.dim
        for mu in range(7):
            shell_size = len(enumerate_shell(n, mu))
            for p in range(n + 1):
                if shell_size * comb(n, p) > PROJECTOR_BASIS_CAP:
                    continue
                assert projector_oracle(defn, p, mu) == multiplicity(defn, p, mu), (
                    label, p, mu,
                )
                checked += 1
    assert checked > 200

    # diagonal holonomy: Krawtchouk traces equal the generic trace row, per
    # element; the HW rewrite agrees with the generic route
    for key in ("4.1(n=4,k=1)", "4.1(n=6,k=3)", "4.2(n=6,k=3,j=2)", "4.2h(n=4,h=2)"):
        defn = example(key)
        n = defn.dim
        for el in close_point_group(defn):
            n_fixed = diagonal_fixed_count(el.matrix)
            for p in range(n + 1):
                assert diagonal_trace(p, n, n_fixed) == trace_p(el.matrix, p)
    hw = classical_hw_matrix()
    hw_group = build_hw_group(hw)
    for p in range(4):
        for mu in range(7):
            assert multiplicity_hw(hw, p, mu) == multiplicity(hw_group, p, mu)

    # Krawtchouk symmetry identities, exhaustive through n = 12
    for n in range(1, 13):
        for l in range(1, n + 1):
            for j in range(1, n + 1):
                assert krawtchouk(l, j, n) == (-1) ** j * krawtchouk(n - l, j, n)
                assert krawtchouk(l, j, n) == (-1) ** l * krawtchouk(l, n - j, n)

    # alternating multiplicity sums vanish (Euler characteristic at mu = 0)
    for label, defn in groups:
        n = defn.dim
        for mu in range(7):
            alternating = sum((-1) ** p * multiplicity(defn, p, mu) for p in range(n + 1))
            assert alternating == 0, (label, mu)

    # orientable duality
    for label, defn in groups:
        if is_orientable(defn):
            report = duality_check(defn, mu_max=4)
            assert report.holds, label

    # invariance of spectra under lattice translations and conjugation
    for label, defn in groups:
        n = defn.dim
        if not defn.generators:
            continue
        shift = tuple((-1) ** i * (i % 3) for i in range(n))
        translated = GroupDefinition(
            dim=n,
            generators=tuple(
                AffineGenerator(
                    g.matrix, tuple(x + s for x, s in zip(g.translation, shift))
                )
                for g in defn.generators
            ),
        )
        perm = tuple(
            tuple((-1 if i == 0 else 1) if k == (i + 1) % n else 0 for k in range(n))
            for i in range(n)
        )
        conjugated = GroupDefinition(
            dim=n,
            generators=tuple(
                AffineGenerator(
                    mat_mul(mat_mul(perm, g.matrix), transpose(perm)),
                    mat_vec(perm, g.translation),
                )
                for g in defn.generators
            ),
        )
        for p in range(n + 1):
            for mu in range(3):
                d = multiplicity(defn, p, mu)
                assert multiplicity(translated, p, mu) == d, (label, p, mu)
                assert multiplicity(conjugated, p, mu) == d, (label, p, mu)

    # abelianization free rank matches the first Betti number
    for label, defn in groups:
        assert first_homology(defn).free_rank == multiplicity(defn, 1, 0), label

    # torsion-free groups: every holonomy element fixes a nonzero vector
    for label, defn in groups:
        for el in close_point_group(defn):
            assert integer_kernel(
                mat_sub(el.matrix, identity_matrix(defn.dim))
            ), (label, el.word)

    note(f"criterion 11: PASS (projector oracle x{checked}; Krawtchouk traces; HW rewrite; "
         "Krawtchouk identities; Euler sums; duality; invariance; homology rank)")
