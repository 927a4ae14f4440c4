"""Module boundaries: the engine never imports the cross-check oracles, the
package exports only its documented API, the CLI maps library errors in one
place and dispatches every subcommand it parses, and every name the
benchmark traces exists."""

import argparse
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import flatspec
from flatspec import cli

SRC = Path(flatspec.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
README = Path(__file__).resolve().parents[1] / "README.md"
ENGINE = {"crystal", "exact_linear", "spectral", "isospec", "corpus", "cli"}
ORACLES = {
    "cyclotomic_polynomial",
    "cyclotomic_residue",
    "enumerate_shell",
    "projector_oracle",
    "multiplicity_hw",
    "krawtchouk",
    "krawtchouk_subset_oracle",
    "diagonal_trace",
    "theta_by_slices",
    "coset_walk",
    "table_by_classes",
    "in_image_lattice",
    "kunneth_betti",
}
# What ``import flatspec`` exports: README's quick start, the error classes,
# and the names bench/workloads.py and bench/test_bench.py read through it.
PUBLIC = {
    "GroupDefinition",
    "AffineGenerator",
    "validate_bieberbach",
    "first_homology",
    "betti_row",
    "multiplicity",
    "example",
    "compare_spectra",
    "FlatspecError",
    "UsageError",
    "LimitError",
    "InternalError",
    "HWMatrix",
    "build_hw_group",
    "multiplicity_table",
    "trace_p",
}


def imported_names(path):
    """Dotted names of every module and name an import statement brings in."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_every_module_is_engine_or_oracles():
    assert {path.stem for path in SRC.glob("*.py")} == ENGINE | {"oracles", "__init__"}


def test_engine_modules_do_not_import_oracles():
    for name in sorted(ENGINE):
        for imported in imported_names(SRC / f"{name}.py"):
            assert "oracles" not in imported.split("."), (name, imported)


def test_every_oracle_is_public():
    tree = ast.parse((SRC / "oracles.py").read_text())
    public = {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public == ORACLES
    assert not ORACLES & set(flatspec.__all__)


def test_only_the_oracles_name_the_slice_convolution():
    """The engine's theta series is the packed-integer build: no engine module
    names the slice oracle, and _theta assigns to no slice."""
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "oracles":
            assert "theta_by_slices" not in path.read_text(), path.name
    theta = next(node for node in ast.parse((SRC / "spectral.py").read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_theta")
    for node in ast.walk(theta):
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            sliced = isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Slice)
            assert not sliced, ast.unparse(node)


def test_theta_has_one_factor_rule():
    """Every factor of _theta takes the shift-and-add rule: no factor skips it
    with a continue, and no row is multiplied."""
    theta = next(node for node in ast.parse((SRC / "spectral.py").read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_theta")
    rows = {"row", "rows", "new", "live"}

    def is_row(node):
        node = node.value if isinstance(node, ast.Subscript) else node
        return isinstance(node, ast.Name) and node.id in rows

    for node in ast.walk(theta):
        assert not isinstance(node, ast.Continue)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            assert not (is_row(node.left) or is_row(node.right)), ast.unparse(node)
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
            assert not (is_row(node.target) or is_row(node.value)), ast.unparse(node)


def test_the_package_exports_only_the_documented_api():
    """Every name outside PUBLIC is reached through its home module."""
    assert sorted(flatspec.__all__) == sorted(PUBLIC)


def readme_quick_start():
    """The python block under README's "Library quick start"."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_readme_quick_start_gives_its_commented_values():
    """Runs the quick start statement by statement; each commented expression
    has the value its comment shows, so a documented name that leaves the
    package fails here."""
    source = readme_quick_start()
    lines, namespace, shown = source.splitlines(), {}, {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            shown[ast.unparse(stmt.value)] = value, lines[stmt.lineno - 1].partition("#")[2].strip()
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    for expr, expected in (
        ("fs.validate_bieberbach(klein).is_torsion_free", True),
        ("fs.betti_row(klein)", (1, 1, 0)),
        ("report.equal_p_set()", (1, 3, 5, 7)),
    ):
        value, comment = shown[expr]
        assert type(value) is type(expected) and value == expected, expr
        assert ast.literal_eval(comment) == expected, expr
    value, comment = shown["fs.first_homology(klein)"]
    assert str(value) == comment == "Z + Z2"


def test_cli_maps_errors_in_one_place():
    """Every except in cli.py names only FlatspecError, but the one that wraps
    the file read."""
    handlers = []
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if not isinstance(node, ast.Try):
            continue
        opens = any(
            isinstance(call, ast.Call) and ast.unparse(call.func) == "open"
            for stmt in node.body for call in ast.walk(stmt)
        )
        for handler in node.handlers:
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            names = tuple(sorted(ast.unparse(t) for t in types if t is not None))
            handlers.append((names, opens))
    assert sorted(handlers) == [
        (("FlatspecError",), False),
        (("FlatspecError",), False),
        (("OSError", "RecursionError", "ValueError"), True),
    ]


def test_every_subcommand_is_dispatched_or_answered_first():
    """run answers corpus and validate itself and dispatches every other
    subcommand the parser accepts through its command table."""
    subparsers = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert len(subparsers) == 1
    assert set(subparsers[0].choices) == set(cli.COMMANDS) | {"corpus", "validate"}


def loaded_by_cli_import(modules):
    """Which of ``modules`` a fresh ``import flatspec.cli`` puts in sys.modules."""
    code = f"import sys, flatspec.cli; print(sorted({set(modules)!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    return result.stdout.strip()


def test_importing_the_cli_loads_no_dataclass_machinery():
    """dataclasses pulls in inspect, ast, dis and tokenize, which every cold
    CLI process would pay for; the package's records do without them."""
    assert loaded_by_cli_import({"dataclasses", "inspect"}) == "[]"


def test_importing_the_cli_loads_no_oracle():
    """The oracles only cross-check the engine, so no CLI process imports them."""
    assert loaded_by_cli_import({"flatspec.oracles"}) == "[]"


def spans_constant(name):
    """The literal value of a module-level constant of bench/spans.py."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {SPANS}")


def resolve(qualname):
    module, _, name = qualname.rpartition(".")
    return getattr(importlib.import_module(f"flatspec.{module}"), name, None)


def test_every_traced_name_resolves():
    """A traced name that no longer resolves drops its metrics from a traced
    benchmark run, and a cache that goes drops its hit ratio."""
    for qualname in spans_constant("TRACED"):
        assert callable(resolve(qualname)), qualname
    for qualname in spans_constant("HIT_RATIO"):
        assert hasattr(resolve(qualname), "cache_info"), qualname


def raised_messages():
    """(module, text) of every raise whose exception is built from a string
    literal under src/flatspec/; each f-string field reads as {}."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            if not node.exc.args:
                continue
            arg = node.exc.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                yield path.stem, arg.value
            elif isinstance(arg, ast.JoinedStr):
                yield path.stem, "".join(
                    part.value if isinstance(part, ast.Constant) else "{}"
                    for part in arg.values
                )


def test_each_series_guard_is_raised_from_one_place():
    """The engine's norm and rank refusals live in one guard in spectral,
    which the series, the fixed shell and the full shell all call."""
    raised = list(raised_messages())
    for text in (
        "squared norm must be nonnegative",
        "norm {} exceeds guard {}",
        "fixed sublattice rank {} exceeds guard {}",
    ):
        assert [module for module, t in raised if t == text] == ["spectral"], text


def test_signed_permutations_have_one_walker():
    """``fixed_cycles`` is the engine's one cycle walk, and ``coset_walk`` the
    oracles' reference walk: each is defined once, every loop over unseen
    coordinates lies in one of them, and no engine module names
    ``coset_walk``; the cycle tuples they replaced resolve nowhere."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined = {
        (node.name, stem) for stem, tree in modules.items()
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    for name, home in (("fixed_cycles", "exact_linear"), ("coset_walk", "oracles")):
        assert {stem for fn, stem in defined if fn == name} == {home}, name
    walkers = [
        (stem, fn.name) for stem, tree in modules.items()
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for loop in ast.walk(fn)
        if isinstance(loop, ast.While) and "seen" in ast.unparse(loop.test)
    ]
    assert sorted(walkers) == [("exact_linear", "fixed_cycles"), ("oracles", "coset_walk")]
    for stem in ENGINE:
        assert "coset_walk" not in (SRC / f"{stem}.py").read_text(), stem
    for stem in modules:
        module = importlib.import_module(f"flatspec.{stem}" if stem != "__init__" else "flatspec")
        for name in ("cycles", "Cycle", "fixed_cycle_phases"):
            assert not hasattr(module, name), (stem, name)


def test_the_table_path_reduces_no_polynomial():
    """Cells and tallies are decided by Ramanujan sums: the residue table is
    gone, no module but the oracles defines or names the cyclotomic division,
    and reduce_tally and sums_to_zero call only _ramanujan, the trace form and
    builtins."""
    division = {"cyclotomic_polynomial", "_residue", "_poly_divmod"}
    for path in sorted(SRC.glob("*.py")):
        name = f"flatspec.{path.stem}" if path.stem != "__init__" else "flatspec"
        assert not hasattr(importlib.import_module(name), "_zeta_residues"), path.stem
        if path.stem == "oracles":
            continue
        named = set()
        for node in ast.walk(ast.parse(path.read_text())):
            named |= {getattr(node, field, None) for field in ("id", "attr", "name", "asname")}
        assert not named & division, path.stem
    functions = {
        node.name: node for node in ast.walk(ast.parse((SRC / "spectral.py").read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    for name in ("reduce_tally", "sums_to_zero"):
        called = {ast.unparse(node.func) for node in ast.walk(functions[name])
                  if isinstance(node, ast.Call)}
        assert called <= {"_ramanujan", "_norm_trace", "sum", "map", "Fraction",
                          "NonRationalSumError"}, (name, called)


def test_each_generator_condition_is_decided_once():
    """The pairwise and power conditions are decided in ``_group`` alone, whose
    record the closure and the validation report both read: the terms they
    test are computed there and, as relations, in ``first_homology``."""
    from flatspec import crystal

    assert not hasattr(crystal, "check_pairwise_condition")
    callers = {}
    for top in ast.parse((SRC / "crystal.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                callers.setdefault(node.func.id, set()).add(getattr(top, "name", None))
    for name in ("_commutator_term", "_coset_power_sum"):
        assert callers[name] == {"_group", "first_homology"}, name
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "crystal":
            assert not {"_commutator_term", "_coset_power_sum"} & {
                getattr(node, field, None) for node in ast.walk(ast.parse(path.read_text()))
                for field in ("id", "attr", "name")
            }, path.stem


def test_crystal_keeps_one_record_per_matrix_set_and_per_definition():
    """The group layer caches the closure of each set of generator matrices,
    the record of each definition built on it, and the two public results
    read from that record; nothing else in ``crystal`` is cached."""
    from flatspec import crystal

    cached = {name for name, value in vars(crystal).items()
              if hasattr(value, "cache_info") and value.__module__ == crystal.__name__}
    assert cached == {"_close_matrices", "_group", "close_point_group", "validate_bieberbach"}
