"""Module boundaries: the engine never imports the cross-check oracles, and
the CLI maps library errors in one place."""

import ast
from pathlib import Path

import flatspec

SRC = Path(flatspec.__file__).parent
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
