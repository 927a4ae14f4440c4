"""Module boundaries: the engine never imports the cross-check oracles, the
CLI maps library errors in one place and dispatches every subcommand it
parses, and every name the benchmark traces exists."""

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
ENGINE = {"crystal", "exact_linear", "spectral", "isospec", "corpus", "cli"}
ORACLES = {
    "enumerate_shell",
    "projector_oracle",
    "multiplicity_hw",
    "krawtchouk",
    "krawtchouk_subset_oracle",
    "diagonal_trace",
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
    assert ORACLES <= set(flatspec.__all__)


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


def test_importing_the_cli_loads_no_dataclass_machinery():
    """dataclasses pulls in inspect, ast, dis and tokenize, which every cold
    CLI process would pay for; the package's records do without them."""
    code = "import sys, flatspec.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


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
    """``coset_walk`` and ``fixed_cycles`` are the only cycle walks: each is
    defined once, in exact_linear, and every loop over unseen coordinates lies
    in one of them; the cycle tuples they replaced resolve nowhere."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined = {
        (node.name, stem) for stem, tree in modules.items()
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    for name in ("coset_walk", "fixed_cycles"):
        assert {stem for fn, stem in defined if fn == name} == {"exact_linear"}, name
    walkers = [
        (stem, fn.name) for stem, tree in modules.items()
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for loop in ast.walk(fn)
        if isinstance(loop, ast.While) and "seen" in ast.unparse(loop.test)
    ]
    assert sorted(walkers) == [("exact_linear", "coset_walk"), ("exact_linear", "fixed_cycles")]
    for stem in modules:
        module = importlib.import_module(f"flatspec.{stem}" if stem != "__init__" else "flatspec")
        for name in ("cycles", "Cycle", "fixed_cycle_phases"):
            assert not hasattr(module, name), (stem, name)


def test_the_table_path_reduces_no_polynomial():
    """Table cells come from Galois traces: the residue table is gone, and the
    table functions name none of the cyclotomic reduction that the per-cell
    reference and the oracles keep."""
    for path in sorted(SRC.glob("*.py")):
        name = f"flatspec.{path.stem}" if path.stem != "__init__" else "flatspec"
        assert not hasattr(importlib.import_module(name), "_zeta_residues"), path.stem
    functions = {
        node.name: node for node in ast.walk(ast.parse((SRC / "spectral.py").read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    for name in ("_class_rows", "_build_table", "_check_table", "_table"):
        named = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
        assert not named & {"cyclotomic_polynomial", "_residue", "_poly_divmod"}, name
