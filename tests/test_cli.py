import contextlib
import importlib.util
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import example as pinned
from hypothesis import strategies as st

from flatspec import spectral
from flatspec.cli import main
from flatspec.crystal import CosetCapError, GroupStructureError, group_to_json
from flatspec.exact_linear import FlatspecError, InternalError, LimitError, UsageError
from flatspec.spectral import EnumerationGuardError, NonRationalSumError
from flatspec import example

from conftest import clear_spectral_caches, pack


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out.rstrip("\n")


class TestCorpusCommand:
    def test_table_lists_all_ids(self, capsys):
        status, out = run_cli(capsys, "corpus")
        assert status == 0
        for key in ("4.1", "4.3", "4.5", "5.1", "5.6", "5.9"):
            assert key in out

    def test_json(self, capsys):
        status, out = run_cli(capsys, "corpus", "--format", "json")
        assert status == 0
        payload = json.loads(out)
        ids = {entry["id"] for entry in payload}
        assert "5.8" in ids


class TestBettiCommand:
    def test_9d_pair_rows(self, capsys):
        status, out = run_cli(capsys, "betti", "--corpus", "4.3")
        assert status == 0
        assert "4.3a: 1 3 18 46 60 60 46 18 3 1" in out
        assert "4.3b: 1 6 18 38 60 66 46 18 3 0" in out

    def test_member_suffix(self, capsys):
        status, out = run_cli(capsys, "betti", "--corpus", "5.1b")
        assert status == 0
        assert out == "5.1b: 1 1 1 2 1 1 1"

    def test_table_and_json_agree(self, capsys):
        _, table_out = run_cli(capsys, "betti", "--corpus", "4.5")
        status, json_out = run_cli(capsys, "betti", "--corpus", "4.5", "--format", "json")
        assert status == 0
        payload = json.loads(json_out)
        for entry in payload:
            rendered = f"{entry['label']}: {' '.join(map(str, entry['betti']))}"
            assert rendered in table_out


class TestHomologyCommand:
    def test_4d_pair(self, capsys):
        status, out = run_cli(capsys, "homology", "--corpus", "4.5")
        assert status == 0
        assert "4.5a: Z + Z4^2" in out
        assert "4.5b: Z + Z2^3" in out


class TestMultiplicityAndSpectrum:
    def test_single_value(self, capsys):
        status, out = run_cli(
            capsys, "multiplicity", "--corpus", "4.1(n=4,k=1)", "--p", "0", "--mu", "1"
        )
        assert status == 0
        assert "= 3" in out

    def test_spectrum_json_matches_table_content(self, capsys):
        status, json_out = run_cli(
            capsys,
            "spectrum", "--corpus", "4.5a", "--p", "0..2", "--mu-max", "3",
            "--format", "json",
        )
        assert status == 0
        payload = json.loads(json_out)
        entries = payload[0]["entries"]
        status2, table_out = run_cli(
            capsys, "spectrum", "--corpus", "4.5a", "--p", "0..2", "--mu-max", "3"
        )
        assert status2 == 0
        for p_key, row in entries.items():
            for mu_key, value in row.items():
                assert str(value) in table_out
        assert entries["0"]["0"] == 1

    def test_spectrum_to_the_norm_guard(self, capsys):
        status = main(
            ["spectrum", "--corpus", "4.5a", "--p", "0", "--mu-max", "10000", "--format", "json"]
        )
        captured = capsys.readouterr()
        assert status == 0 and captured.err == ""
        row = json.loads(captured.out)[0]["entries"]["0"]
        assert len(row) == 10001 and row["10000"] == 4701


class TestCompareCommand:
    def test_8d_pair_json_verdicts(self, capsys):
        status, out = run_cli(
            capsys,
            "compare", "--corpus", "5.6", "--p", "0..8", "--mu-max", "6",
            "--format", "json",
        )
        assert status == 0
        payload = json.loads(out)
        verdicts = payload["verdicts"]
        for p in range(9):
            expected = p % 2 == 1
            assert verdicts[str(p)]["equal_up_to_cutoff"] is expected
            if not expected:
                witness = verdicts[str(p)]["witness"]
                assert witness["d_first"] != witness["d_second"]

    def test_two_input_files(self, capsys, tmp_path):
        g, gp = example("4.5")
        path1 = tmp_path / "a.json"
        path2 = tmp_path / "b.json"
        path1.write_text(json.dumps(group_to_json(g)))
        path2.write_text(json.dumps(group_to_json(gp)))
        status, out = run_cli(
            capsys, "compare", "--input", str(path1), "--input", str(path2),
            "--mu-max", "4",
        )
        assert status == 0
        assert "up to cutoff" in out

    def test_wrong_group_count(self, capsys):
        status, _ = run_cli(capsys, "compare", "--corpus", "5.1a")
        assert status == 1


class TestValidateCommand:
    def test_valid_group(self, capsys):
        status, out = run_cli(capsys, "validate", "--corpus", "5.1")
        assert status == 0
        assert "valid Bieberbach group" in out
        assert "Z4xZ2" in out

    def test_invalid_group_exits_2_with_condition_and_word(self, capsys, tmp_path):
        bad = {
            "dim": 2,
            "label": "inversion",
            "generators": [
                {
                    "matrix": [[-1, 0], [0, -1]],
                    "translation": ["0/1", "0/1"],
                    "order": 2,
                }
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        status, out = run_cli(capsys, "validate", "--input", str(path))
        assert status == 2
        assert "torsion" in out
        assert "(1,)" in out

    def test_other_commands_refuse_invalid_input(self, capsys, tmp_path):
        bad = {
            "dim": 2,
            "label": "inversion",
            "generators": [
                {"matrix": [[-1, 0], [0, -1]], "translation": ["0/1", "0/1"]}
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        status, out = run_cli(capsys, "betti", "--input", str(path))
        assert status == 2
        assert "torsion" in out


class TestUsageErrors:
    def test_unknown_corpus_id(self, capsys):
        status, _ = run_cli(capsys, "betti", "--corpus", "7.7")
        assert status == 1

    def test_missing_source(self, capsys):
        status, _ = run_cli(capsys, "betti")
        assert status == 1

    def test_unreadable_file(self, capsys):
        status, _ = run_cli(capsys, "betti", "--input", "/nonexistent/g.json")
        assert status == 1

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        status, _ = run_cli(capsys, "betti", "--input", str(path))
        assert status == 1

    def test_bad_flag(self, capsys):
        status, _ = run_cli(capsys, "betti", "--frmt", "json")
        assert status == 1

    def test_member_suffix_on_single(self, capsys):
        status, _ = run_cli(capsys, "betti", "--corpus", "4.1(n=4,k=1)a")
        assert status == 1


class TestDeterminism:
    def test_json_bit_stable(self, capsys):
        args = ("compare", "--corpus", "4.5", "--mu-max", "5", "--format", "json")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_round_trip_through_cli_format(self, tmp_path):
        from flatspec.crystal import group_from_json

        for key in ("4.3", "5.6"):
            for defn in example(key):
                data = json.loads(json.dumps(group_to_json(defn)))
                assert group_from_json(data) == defn


def run_cli_all(capsys, *argv):
    """Exit status and stdout plus stderr, for error cases."""
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out + captured.err


def assert_one_line_error(status, text, prefix="error: "):
    assert status == 1
    assert "Traceback" not in text
    lines = [line for line in text.splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and lines[0].startswith(prefix), text


class TestErrorStream:
    """Errors raised inside ``run`` go to stderr, like argument errors."""

    def check(self, capsys, *argv):
        status = main(list(argv))
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err

    def test_range_error(self, capsys):
        self.check(capsys, "compare", "--corpus", "5.1", "--p", "9")

    def test_limit_error(self, capsys):
        self.check(capsys, "multiplicity", "--corpus", "5.1a", "--p", "0", "--mu", "20000")

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        self.check(capsys, "betti", "--input", str(path))


class TestRangeErrors:
    def test_negative_mu(self, capsys):
        status, text = run_cli_all(
            capsys, "multiplicity", "--corpus", "5.1a", "--p", "0", "--mu", "-1"
        )
        assert_one_line_error(status, text)
        assert "--mu -1" in text

    def test_compare_degree_above_dimension(self, capsys):
        status, text = run_cli_all(capsys, "compare", "--corpus", "5.1", "--p", "9")
        assert_one_line_error(status, text)
        assert "form degree 9" in text

    def test_negative_mu_max(self, capsys):
        status, text = run_cli_all(capsys, "spectrum", "--corpus", "5.1a", "--mu-max", "-3")
        assert_one_line_error(status, text)
        assert "--mu-max -3" in text

    def test_empty_degree_range(self, capsys):
        status, text = run_cli_all(capsys, "spectrum", "--corpus", "5.1a", "--p", "3..1")
        assert_one_line_error(status, text)
        assert "empty" in text


class TestLimitErrors:
    def test_norm_guard(self, capsys):
        status, text = run_cli_all(
            capsys, "multiplicity", "--corpus", "5.1a", "--p", "0", "--mu", "20000"
        )
        assert_one_line_error(status, text, prefix="error: limit: ")

    def test_fixed_rank_guard(self, capsys):
        status, text = run_cli_all(
            capsys, "spectrum", "--corpus", "4.1(n=14,k=1)", "--mu-max", "1"
        )
        assert_one_line_error(status, text, prefix="error: limit: ")
        assert "rank 14" in text

    def test_oversized_cutoff_refused_before_any_work(self, capsys):
        # the norm guard of the shells alone trips only once mu reaches 10,001
        for argv in (
            ("spectrum", "--corpus", "4.5a", "--p", "0", "--mu-max", "20000"),
            ("compare", "--corpus", "4.5", "--mu-max", "20000"),
        ):
            start = time.perf_counter()
            status = main(list(argv))
            elapsed = time.perf_counter() - start
            captured = capsys.readouterr()
            assert status == 1 and elapsed < 1, (argv, elapsed)
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "error: limit: cutoff 20000 exceeds guard 10000"
            ]

    def test_coset_cap(self, capsys, tmp_path):
        # cycles of lengths 3, 4, 5, 7 and 11: order 4620 > 1024 cosets
        n = 30
        matrix = [[0] * n for _ in range(n)]
        start = 0
        for length in (3, 4, 5, 7, 11):
            for i in range(length):
                matrix[start + (i + 1) % length][start + i] = 1
            start += length
        payload = {"dim": n, "generators": [{"matrix": matrix, "translation": [0] * n}]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(payload))
        status, text = run_cli_all(capsys, "validate", "--input", str(path))
        assert_one_line_error(status, text, prefix="error: limit: ")
        assert "4620" in text

    def test_dimension_cap_refused_before_any_work(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"dim": 100000, "generators": []}))
        for argv, message in (
            (("validate", "--input", str(path)), "dimension 100000 exceeds cap 64"),
            (("betti", "--corpus", "4.1(n=2000,k=1)"), "parameter n=2000 exceeds the dimension"),
            (("betti", "--corpus", "5.9(k=59)a"), "dimension 65 exceeds cap 64"),
        ):
            start = time.perf_counter()
            status, text = run_cli_all(capsys, *argv)
            assert time.perf_counter() - start < 1, argv
            assert_one_line_error(status, text, prefix="error: limit: ")
            assert message in text

    @pytest.mark.parametrize("diagonal", [(1, 1), (-1, 1)], ids=["identity", "order-2"])
    def test_generator_count_cap_refused_before_any_work(self, capsys, tmp_path, diagonal):
        gen = {"matrix": [[diagonal[0], 0], [0, diagonal[1]]], "translation": ["0", "1/2"]}
        path = tmp_path / "many.json"
        path.write_text(json.dumps({"dim": 2, "generators": [gen] * 2000}))
        start = time.perf_counter()
        status, text = run_cli_all(capsys, "validate", "--input", str(path))
        assert time.perf_counter() - start < 1
        assert_one_line_error(status, text, prefix="error: limit: ")
        assert "generator count 2000 exceeds cap 64" in text

    def test_generator_count_cap_admits_64(self, capsys, tmp_path):
        n = 64
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        gen = {"matrix": identity, "translation": [0] * n}
        path = tmp_path / "many.json"
        path.write_text(json.dumps({"dim": n, "generators": [gen] * n}))
        status, out = run_cli(capsys, "homology", "--input", str(path))
        assert status == 0 and out.endswith(": Z^64")

    def test_dimension_cap_admits_every_family_at_64(self, capsys):
        for catalog_id in ("4.1(n=64,k=63)", "4.2h(n=64,h=32)", "5.9(k=58)b"):
            status, out = run_cli(capsys, "betti", "--corpus", catalog_id)
            assert status == 0 and len(out.split(":")[1].split()) == 65, catalog_id

    def test_forty_dimensional_betti_row(self, capsys):
        from math import comb

        status, out = run_cli(capsys, "betti", "--corpus", "4.1(n=40,k=1)")
        assert status == 0
        row = [int(x) for x in out.split(":")[1].split()]
        assert row == [comb(39, 2 * (p // 2)) for p in range(41)]
        assert row[-1] == 0


class TestJsonFieldErrors:
    def check(self, capsys, tmp_path, payload, field):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        status, text = run_cli_all(capsys, "validate", "--input", str(path))
        assert_one_line_error(status, text)
        assert field in text

    def test_generators_not_a_list(self, capsys, tmp_path):
        self.check(capsys, tmp_path, {"dim": 2, "generators": "x"}, "'generators'")

    def test_generator_not_an_object(self, capsys, tmp_path):
        self.check(capsys, tmp_path, {"dim": 2, "generators": ["x"]}, "generators[0]")

    def test_missing_matrix(self, capsys, tmp_path):
        payload = {"dim": 2, "generators": [{"translation": ["1/2", "0"]}]}
        self.check(capsys, tmp_path, payload, "'matrix'")

    def test_missing_translation(self, capsys, tmp_path):
        payload = {"dim": 2, "generators": [{"matrix": [[1, 0], [0, -1]]}]}
        self.check(capsys, tmp_path, payload, "'translation'")

    def test_non_integer_dim(self, capsys, tmp_path):
        for dim in (2.9, "x", True):
            self.check(capsys, tmp_path, {"dim": dim, "generators": []}, "'dim'")

    def test_non_integer_order(self, capsys, tmp_path):
        gen = {"matrix": [[1, 0], [0, -1]], "translation": ["1/2", "0"], "order": 2.7}
        self.check(capsys, tmp_path, {"dim": 2, "generators": [gen]}, "generators[0].order")

    def test_zero_denominator(self, capsys, tmp_path):
        gen = {"matrix": [[1, 0], [0, -1]], "translation": ["1/0", "0"]}
        self.check(capsys, tmp_path, {"dim": 2, "generators": [gen]}, "'1/0'")

    def test_boolean_translation(self, capsys, tmp_path):
        gen = {"matrix": [[1, 0], [0, -1]], "translation": [True, "0"]}
        self.check(capsys, tmp_path, {"dim": 2, "generators": [gen]}, "True")

    def test_non_string_label(self, capsys, tmp_path):
        self.check(capsys, tmp_path, {"dim": 2, "label": 7, "generators": []}, "'label'")

    def test_translation_too_long_to_convert(self, capsys, tmp_path):
        gen = {"matrix": [[1, 0], [0, -1]], "translation": ["1/" + "7" * 5000, "0"]}
        self.check(capsys, tmp_path, {"dim": 2, "generators": [gen]}, "not a p/q rational")

    def test_matrix_row_not_a_list(self, capsys, tmp_path):
        gen = {"matrix": [1, 2], "translation": ["1/2", "0"]}
        self.check(capsys, tmp_path, {"dim": 2, "generators": [gen]}, "generators[0].matrix")


class TestCatalogParameterErrors:
    """Parameters outside a family's range are usage errors, not tracebacks."""

    def test_out_of_range_parameters(self, capsys):
        for catalog_id in ("5.9(k=-1)", "4.1(n=3,k=1)", "4.1(n=4,k=9)", "4.2h(n=4,h=0)"):
            status = main(["betti", "--corpus", catalog_id])
            captured = capsys.readouterr()
            assert status == 1, catalog_id
            assert captured.out == ""
            assert "Traceback" not in captured.err
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
            assert repr(catalog_id) in lines[0]

    def test_repeated_parameter(self, capsys):
        status, text = run_cli_all(capsys, "betti", "--corpus", "4.1(n=4,k=1,k=3)")
        assert_one_line_error(status, text)
        assert "repeated parameter 'k'" in text


class TestTracebackInputs:
    """Inputs that once escaped as a Python traceback; each is one error line."""

    def check_file(self, capsys, tmp_path, content: bytes):
        path = tmp_path / "g.json"
        path.write_bytes(content)
        status, text = run_cli_all(capsys, "betti", "--input", str(path))
        assert_one_line_error(status, text)
        assert f"cannot read {path}: " in text

    def test_deeply_nested_json(self, capsys, tmp_path):
        self.check_file(capsys, tmp_path, b"[" * 100_000)

    def test_integer_too_long_to_convert(self, capsys, tmp_path):
        self.check_file(capsys, tmp_path, b'{"dim": ' + b"7" * 5000 + b', "generators": []}')

    def test_non_utf8_file(self, capsys, tmp_path):
        self.check_file(capsys, tmp_path, b'{"label": "\xff\xfe"}')

    def test_huge_degree_range(self, capsys):
        start = time.perf_counter()
        status, text = run_cli_all(
            capsys, "spectrum", "--corpus", "4.5a", "--p", "1..99999999999"
        )
        assert time.perf_counter() - start < 1
        assert_one_line_error(status, text)
        assert "form degree 5 out of range for dimension 4" in text


class TestTallyModulus:
    def test_negated_coordinate_denominator_is_not_a_modulus(self, capsys, tmp_path):
        # b_2 = 1/100003 sits on the negated coordinate, so no fixed vector sees it
        gen = {"matrix": [[1, 0], [0, -1]], "translation": ["1/2", "1/100003"]}
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"dim": 2, "generators": [gen]}))
        start = time.perf_counter()
        status, out = run_cli(capsys, "multiplicity", "--input", str(path), "--p", "0", "--mu", "1")
        assert time.perf_counter() - start < 1
        assert status == 0 and out.endswith("d_(p=0, mu=1) = 1")


BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_workloads():
    """bench/workloads.py, loaded by path: the benchmark's CLI menu and digest."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stdout_matches_the_benchmark_digests(capsys):
    """Every exit-0 command of the benchmark's cli-cold menu prints the bytes
    recorded in bench/expected.json."""
    workloads = bench_workloads()
    expected = json.loads((BENCH / "expected.json").read_text())["cli-cold"]
    changed = []
    for entry in workloads.CLI_MENU:
        if entry["exit"] == 0:
            status = main(list(entry["argv"]))
            if (status, workloads.digest(capsys.readouterr().out)) != (0, expected[entry["key"]]):
                changed.append(entry["key"])
    assert changed == []


class TestErrorClasses:
    def test_library_errors_sit_in_the_taxonomy(self):
        assert issubclass(GroupStructureError, UsageError)
        assert issubclass(CosetCapError, LimitError)
        assert issubclass(EnumerationGuardError, LimitError)
        assert issubclass(NonRationalSumError, InternalError)
        for cls, base, prefix in (
            (UsageError, ValueError, ""),
            (LimitError, ValueError, "limit: "),
            (InternalError, ArithmeticError, "internal: "),
        ):
            assert issubclass(cls, FlatspecError) and issubclass(cls, base)
            assert cls.prefix == prefix

    def test_internal_error_is_one_line(self, capsys, monkeypatch):
        clear_spectral_caches()
        # every class series is zeta_4 alone at each mu
        monkeypatch.setattr(spectral, "_theta", lambda sig, length, width: pack(
            ((0,) * length, (1,) * length, (0,) * length, (0,) * length), width))
        try:
            status = main(["multiplicity", "--corpus", "5.1a", "--p", "1", "--mu", "3"])
        finally:
            clear_spectral_caches()
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: internal: 5.1a at p=0, mu=0: tally reduces")


def test_every_public_name_resolves():
    import flatspec

    for name in flatspec.__all__:
        assert getattr(flatspec, name) is not None, name


# ---------------------------------------------------------------------------
# A fuzzed boundary: whatever the argv and the JSON file, the CLI answers with
# exit 0, 1 or 2, and exit 1 is one ``error:`` line on stderr.

DOC = "@doc"  # stands for the path of the generated JSON file
HUGE = st.sampled_from([10**30, -(10**30), 2**63])
JUNK = st.sampled_from([None, True, False, 2.5, "x", [], {}, [[1]], [[[0]]]])
FRACTIONS = st.sampled_from(["0", "1/2", "1/4", "3/4", "1/3", "-1/2", 0, 1, -1, 10**30])


def mostly(common, rare, tenths=8):
    """Draw from ``common`` in about ``tenths`` of ten examples, else from ``rare``."""
    return st.sampled_from(range(10)).flatmap(lambda k: common if k < tenths else rare)


CUTOFFS = mostly(st.sampled_from(["0", "1", "2", "3", "4"]),
                 st.sampled_from(["10001", str(10**20), "-1"]), tenths=7)
# catalog entries and their parameter names; the last two ids are not in it
FAMILIES = {"4.1": "nk", "4.2": "nkj", "4.2h": "nh", "5.9": "k",
            "4.3": "", "4.5": "", "5.1": "", "5.6": "", "9.9": "", "x(": ""}


@st.composite
def catalog_ids(draw):
    """Catalog ids, members and parameters, with repeats, unknown names and
    out-of-range or non-integer values mixed in."""
    if draw(st.booleans()):
        return draw(st.sampled_from(
            ["4.3", "4.5", "4.5b", "5.1", "5.1a", "5.5b", "5.7a", "5.8", "4.1(n=4,k=1)",
             "4.1(n=6,k=3)", "4.1(n=40,k=1)", "4.2(n=4,k=3,j=2)", "4.2h(n=6,h=2)", "5.9(k=1)a"]
        ))
    base = draw(st.sampled_from(sorted(FAMILIES)))
    names = list(FAMILIES[base])
    if draw(mostly(st.just(False), st.just(True))):
        names.append(draw(st.sampled_from("nkjq")))
    values = mostly(st.sampled_from("12345678"),
                    st.sampled_from(["-1", "0", "40", "2000", str(10**9), "x", ""]), tenths=7)
    params = ",".join(f"{name}={draw(values)}" for name in names)
    member = draw(mostly(st.just(""), st.sampled_from("abc"), tenths=6))
    return base + (f"({params})" if params else "") + member


degree_specs = mostly(
    st.sampled_from(["0", "1", "0..2", "1,3", "2..4", "0..9"]),
    st.sampled_from(["3..1", "1..99999999999", "-99999999999..0", "", ",", "x", "0..",
                     "99999999999", str(10**20)]),
)
degrees = mostly(st.sampled_from(["0", "1", "2", "3"]),
                 st.sampled_from(["-1", "9", str(10**20), "x"]))
OPTIONS = {
    "multiplicity": (("--p", degrees), ("--mu", CUTOFFS)),
    "spectrum": (("--p", degree_specs), ("--mu-max", CUTOFFS)),
    "compare": (("--p", degree_specs), ("--mu-max", CUTOFFS)),
}


@st.composite
def cli_argv(draw):
    """Mostly argv the parser accepts, so that the library sees the inputs."""
    command = draw(mostly(
        st.sampled_from(["validate", "betti", "homology", "multiplicity", "spectrum", "compare"]),
        st.sampled_from(["corpus", "corpus", "bogus"]),
        tenths=9,
    ))
    argv = [command]
    if command != "corpus":
        for _ in range(draw(mostly(st.just(1), st.sampled_from([0, 2]), tenths=7))):
            argv += draw(mostly(st.builds(lambda i: ["--corpus", i], catalog_ids()),
                                st.just(["--input", DOC]), tenths=6))
    for flag, values in OPTIONS.get(command, ()):
        if draw(mostly(st.just(True), st.just(False), tenths=9)):
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv += ["--format", draw(mostly(st.sampled_from(["table", "json"]), st.just("xml"), 9))]
    if draw(mostly(st.just(False), st.just(True), tenths=9)):
        argv.append(draw(st.sampled_from(["--mu", "--bogus", "extra"])))
    return argv


@st.composite
def group_documents(draw):
    """A group definition of dimension at most 6 with some fields broken."""
    n = draw(st.integers(1, 6))
    gens = []
    for _ in range(draw(st.integers(0, 2))):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        gen = {
            "matrix": [[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)],
            "translation": draw(st.lists(FRACTIONS, min_size=n, max_size=n)),
        }
        if draw(st.booleans()):
            gen["order"] = draw(st.integers(-1, 12) | HUGE | JUNK)
        gens.append(gen)
    doc = {"dim": n, "generators": gens}
    # break one field: wrong types, huge or negative integers, empty or
    # non-square matrices, mismatched dimensions, nested lists
    breakage = draw(st.sampled_from(["none", "dim", "matrix", "row", "translation", "gens"]))
    if breakage == "dim":
        doc["dim"] = draw(st.integers(-1, 6) | JUNK)
    elif breakage == "gens":
        doc["generators"] = draw(JUNK)
    elif gens and breakage == "matrix":
        gens[0]["matrix"] = draw(JUNK | st.lists(
            st.lists(st.integers(-2, 2) | HUGE | JUNK, max_size=4), max_size=4))
    elif gens and breakage == "row":
        gens[0]["matrix"][0] = draw(JUNK | HUGE | st.lists(st.integers(-1, 1), max_size=7))
    elif gens and breakage == "translation":
        gens[0]["translation"] = draw(JUNK | st.lists(FRACTIONS | JUNK | st.just("1/0"), max_size=7))
    return doc


documents = mostly(
    group_documents().map(lambda doc: json.dumps(doc).encode()),
    JUNK.map(lambda doc: json.dumps(doc).encode())
    | st.sampled_from([b"[" * 100_000, b'{"dim": ' + b"7" * 5000 + b"}", b"\xff\xfe", b"{not"]),
)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=cli_argv(), doc=documents)
@pinned(argv=["betti", "--input", DOC], doc=b"[" * 100_000)
@pinned(argv=["betti", "--input", DOC], doc=b'{"dim": ' + b"7" * 5000 + b"}")
@pinned(argv=["betti", "--input", DOC], doc=b"\xff\xfe")
@pinned(argv=["spectrum", "--corpus", "4.5a", "--p", "1..99999999999"], doc=b"{}")
@pinned(argv=["validate", "--input", DOC],
        doc=b'{"dim": 2, "generators": [{"matrix": [1, 2], "translation": [0, 0]}]}')
@pinned(argv=["betti", "--corpus", "4.1(n=4,k=1,k=3)"], doc=b"{}")
@pinned(argv=["validate", "--input", DOC], doc=b'{"dim": 100000, "generators": []}')
def test_cli_boundary(doc_path, argv, doc):
    doc_path.write_bytes(doc)
    argv = [str(doc_path) if arg == DOC else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2), argv
    if status == 1:
        assert out.getvalue() == "", argv
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == 1, (argv, err.getvalue())
    else:
        assert err.getvalue() == "", argv
