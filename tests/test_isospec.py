from math import comb

import pytest

from flatspec import isospec, spectral
from flatspec.crystal import GroupDefinition
from flatspec.exact_linear import UsageError
from flatspec.isospec import (
    HolonomyPairing,
    check_pairing_criterion,
    compare_spectra,
    duality_check,
    identity_pairing,
    is_orientable,
    kunneth_betti,
    pairing_from_words,
)
from flatspec.spectral import (
    SHELL_NORM_CAP,
    EnumerationGuardError,
    betti_row,
    multiplicity,
    multiplicity_table,
)
from flatspec import close_point_group, corpus_ids, example

from conftest import pairing_criterion_reference


def torus(n):
    return GroupDefinition(dim=n, generators=(), label=f"t{n}")


class TestCompareSpectra:
    def test_8d_pair_equal_exactly_for_odd_p(self):
        g, gp = example("5.6")
        report = compare_spectra(g, gp, mu_max=6)
        assert report.equal_p_set() == (1, 3, 5, 7)
        for p, verdict in report.p_verdicts:
            if not verdict.equal_up_to_cutoff:
                wp, mu, d1, d2 = verdict.witness
                assert wp == p and d1 != d2

    def test_4d_pair_equal_everywhere(self):
        g, gp = example("4.5")
        report = compare_spectra(g, gp, mu_max=10)
        assert report.equal_p_set() == (0, 1, 2, 3, 4)

    def test_self_comparison(self):
        g, _ = example("5.1")
        report = compare_spectra(g, g, mu_max=5)
        assert report.equal_p_set() == tuple(range(7))

    def test_symmetry_with_mirrored_witnesses(self):
        g, gp = example("5.1")
        left = compare_spectra(g, gp, p_set=(0, 2, 4), mu_max=8)
        right = compare_spectra(gp, g, p_set=(0, 2, 4), mu_max=8)
        assert left.equal_p_set() == right.equal_p_set()
        for (p1, v1), (p2, v2) in zip(left.p_verdicts, right.p_verdicts):
            assert p1 == p2
            if v1.witness is not None:
                wp, mu, d1, d2 = v1.witness
                assert v2.witness == (wp, mu, d2, d1)

    def test_witnesses_reproduce_via_multiplicity(self):
        g, gp = example("5.6")
        report = compare_spectra(g, gp, mu_max=8)
        for p, verdict in report.p_verdicts:
            if verdict.witness is not None:
                wp, mu, d1, d2 = verdict.witness
                assert multiplicity(g, wp, mu) == d1
                assert multiplicity(gp, wp, mu) == d2
                # smallest witness: everything below mu agrees
                for smaller in range(mu):
                    assert multiplicity(g, p, smaller) == multiplicity(gp, p, smaller)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compare_spectra(torus(2), torus(3))

    def test_report_json_shape(self):
        g, gp = example("4.5")
        payload = compare_spectra(g, gp, mu_max=3).to_json_dict()
        assert set(payload["verdicts"]) == {"0", "1", "2", "3", "4"}
        assert payload["verdicts"]["0"]["witness"] is None
        assert "cutoff" in payload["note"]


class TestPairings:
    def test_bijection_required(self):
        g, _ = example("4.5")
        els = close_point_group(g)
        with pytest.raises(ValueError):
            HolonomyPairing(pairs=((els[0], els[0]), (els[1], els[0])))

    def test_identity_must_map_to_identity(self):
        g, _ = example("4.5")
        els = close_point_group(g)
        with pytest.raises(ValueError):
            HolonomyPairing(pairs=((els[0], els[1]), (els[1], els[0])))

    def test_identity_pairing_certificate_4d(self):
        g, gp = example("4.5")
        pairing = identity_pairing(g, gp)
        for p in range(5):
            assert check_pairing_criterion(g, gp, pairing, p, mu_max=8)

    def test_word_pairing_6d(self):
        g, gp = example("5.1")
        phi = pairing_from_words(g, gp, {(2, 0): (0, 1), (0, 1): (2, 0)})
        assert check_pairing_criterion(g, gp, phi, 0, mu_max=10)
        assert not check_pairing_criterion(g, gp, phi, 2, mu_max=10)

    def test_pairing_criterion_implies_verdict(self):
        g, gp = example("4.5")
        pairing = identity_pairing(g, gp)
        report = compare_spectra(g, gp, mu_max=6)
        verdicts = report.verdicts()
        for p in range(5):
            if check_pairing_criterion(g, gp, pairing, p, mu_max=6):
                assert verdicts[p].equal_up_to_cutoff

    def test_identity_pairing_needs_equal_point_groups(self):
        g, _ = example("4.5")
        _, h = example("5.8")  # holonomy Z4: different matrices
        with pytest.raises(ValueError):
            identity_pairing(g, h)

    def test_matches_pairwise_reference(self):
        # one flat weighted sum per pair and mu, against scaling each side's
        # tally and comparing the two across moduli
        cases = []
        for key, params, is_pair, _ in corpus_ids():
            if is_pair and not params:
                g, gp = example(key)
                try:
                    cases.append((g, gp, identity_pairing(g, gp)))
                except ValueError:
                    pass
        g, gp = example("5.1")
        cases.append((g, gp, pairing_from_words(g, gp, {(2, 0): (0, 1), (0, 1): (2, 0)})))
        verdicts = []
        for first, second, pairing in cases:
            for p in range(first.dim + 1):
                expected = pairing_criterion_reference(first, second, pairing, p, 8)
                assert check_pairing_criterion(first, second, pairing, p, 8) == expected, (
                    first.label, p,
                )
                verdicts.append(expected)
        assert len(cases) >= 2 and True in verdicts and False in verdicts


class TestCutoffGuard:
    def test_oversized_cutoff_refused_before_any_cell(self, monkeypatch):
        def no_cells(*args):
            raise AssertionError("multiplicity was called")

        monkeypatch.setattr(spectral, "multiplicity", no_cells)
        monkeypatch.setattr(isospec, "multiplicity", no_cells)
        g, gp = example("4.5")
        over = SHELL_NORM_CAP + 1
        for refused in (
            lambda: multiplicity_table(g, (0,), over),
            lambda: compare_spectra(g, gp, mu_max=over),
            lambda: duality_check(g, mu_max=over),
        ):
            with pytest.raises(EnumerationGuardError, match="cutoff 10001 exceeds guard"):
                refused()

    def test_negative_cutoff_refused_before_any_cell(self, monkeypatch):
        def no_cells(*args):
            raise AssertionError("a cell was computed")

        g, gp = example("5.1")
        pairing = pairing_from_words(g, gp, {})
        for module in (spectral, isospec):
            monkeypatch.setattr(module, "multiplicity", no_cells)
            monkeypatch.setattr(module, "character_sum", no_cells)
        for refused in (
            lambda: multiplicity_table(g, None, -1),
            lambda: compare_spectra(g, gp, mu_max=-1),
            lambda: duality_check(example("5.5a"), mu_max=-1),
            lambda: check_pairing_criterion(g, gp, pairing, 1, -1),
        ):
            with pytest.raises(UsageError, match="^cutoff -1 must be nonnegative$"):
                refused()

    def test_pairing_criterion_refuses_an_oversized_cutoff_first(self, monkeypatch):
        def no_sums(*args):
            raise AssertionError("character_sum was called")

        g, gp = example("5.1")
        pairing = pairing_from_words(g, gp, {})
        monkeypatch.setattr(isospec, "character_sum", no_sums)
        with pytest.raises(EnumerationGuardError, match="cutoff 10001 exceeds guard"):
            check_pairing_criterion(g, gp, pairing, 1, SHELL_NORM_CAP + 1)


class TestDuality:
    def test_orientable_6d(self):
        g, _ = example("5.1")
        report = duality_check(g, mu_max=6)
        assert report.orientable and report.holds

    def test_non_orientable_7d_breaks_duality(self):
        g, _ = example("5.5")
        report = duality_check(g, mu_max=4)
        assert not report.orientable
        assert not report.holds
        p, mu, d1, d2 = report.counterexample
        assert multiplicity(g, p, mu) == d1
        assert multiplicity(g, g.dim - p, mu) == d2
        assert d1 != d2

    def test_torus(self):
        report = duality_check(torus(3), mu_max=5)
        assert report.orientable and report.holds

    def test_orientability_flags(self):
        g, gp = example("4.3")
        assert is_orientable(g)
        assert not is_orientable(gp)


class TestKunneth:
    def test_no_torus_factor_is_plain_betti(self):
        g, _ = example("5.1")
        row = betti_row(g)
        for h in range(7):
            assert kunneth_betti(g, 0, h) == row[h]

    def test_torus_times_torus(self):
        for n in (2, 3):
            for k in (1, 2):
                for h in range(n + k + 1):
                    assert kunneth_betti(torus(n), k, h) == comb(n + k, h)

    def test_strict_inequality_for_6d_pair_products(self):
        g, gp = example("5.1")
        for k in (1, 2):
            for h in range(1, 6 + k):
                assert kunneth_betti(g, k, h) > kunneth_betti(gp, k, h)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            kunneth_betti(torus(2), 1, 4)
