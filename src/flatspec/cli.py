"""Command-line front end.

Commands: validate, betti, homology, multiplicity, spectrum, compare, corpus.
Groups come either from the built-in catalog (``--corpus 5.1``, members
addressable as ``5.1a``/``5.1b``) or from JSON files (``--input path``).
Exit codes: 0 success, 1 any FlatspecError (usage, limit or internal),
2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import corpus
from .crystal import (
    GroupDefinition,
    first_homology,
    group_from_json,
    validate_bieberbach,
)
from .exact_linear import FlatspecError, UsageError
from .isospec import compare_spectra
from .spectral import betti_row, form_degrees, multiplicity, multiplicity_table

OK, USAGE_ERROR, VALIDATION_ERROR = 0, 1, 2


@dataclass
class CliConfig:
    command: str
    corpus_ids: list[str] = field(default_factory=list)
    input_paths: list[str] = field(default_factory=list)
    p: Optional[int] = None
    mu: Optional[int] = None
    p_set: Optional[Sequence[int]] = None
    mu_max: int = 10
    fmt: str = "table"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # validation failures, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def form_degree_spec(spec: str) -> Sequence[int]:
    """``a..b`` as a lazy range, so a huge one costs nothing, or ``a,b,...``.

    argparse reports the ValueError of a malformed spec as a usage error.
    """
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        degrees = range(int(lo), int(hi) + 1)
    else:
        degrees = [int(chunk) for chunk in spec.split(",") if chunk.strip()]
    if not degrees:
        raise argparse.ArgumentTypeError(f"form-degree spec {spec!r} is empty")
    return degrees


def build_parser() -> _Parser:
    parser = _Parser(prog="flatspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_source(p):
        p.add_argument("--corpus", action="append", default=[], metavar="ID",
                       dest="corpus_ids", help="catalog id, e.g. 5.1, 5.1a or 4.1(n=4,k=1)")
        p.add_argument("--input", action="append", default=[], metavar="PATH",
                       dest="input_paths",
                       help="path to a group-definition JSON file")

    def add_format(p):
        p.add_argument("--format", choices=("table", "json"), default="table",
                       dest="fmt")

    p = sub.add_parser("corpus", help="list the built-in catalog")
    add_format(p)

    for name, description in (
        ("validate", "run the torsion-freeness and lattice checks"),
        ("betti", "Betti numbers beta_0..beta_n"),
        ("homology", "first integral homology"),
    ):
        p = sub.add_parser(name, help=description)
        add_group_source(p)
        add_format(p)

    p = sub.add_parser("multiplicity", help="one eigenvalue multiplicity d_{p,mu}")
    add_group_source(p)
    add_format(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)

    p = sub.add_parser("spectrum", help="multiplicity table for p in a set, mu <= cutoff")
    add_group_source(p)
    add_format(p)
    p.add_argument("--p", dest="p_set", type=form_degree_spec, metavar="SPEC",
                   help="form degrees, e.g. 0..6 or 1,3,5 (default: all)")
    p.add_argument("--mu-max", type=int, default=10)

    p = sub.add_parser("compare", help="per-p spectral comparison of two groups")
    add_group_source(p)
    add_format(p)
    p.add_argument("--p", dest="p_set", type=form_degree_spec, metavar="SPEC")
    p.add_argument("--mu-max", type=int, default=10)

    return parser


def _config_from_args(args) -> CliConfig:
    cfg = CliConfig(**vars(args))  # each dest is a CliConfig field
    if cfg.mu is not None and cfg.mu < 0:
        raise UsageError(f"--mu {cfg.mu} must be nonnegative")
    if cfg.mu_max < 0:
        raise UsageError(f"--mu-max {cfg.mu_max} must be nonnegative")
    return cfg


def _resolve_groups(cfg: CliConfig) -> list[tuple[str, GroupDefinition]]:
    groups: list[tuple[str, GroupDefinition]] = []
    for catalog_id in cfg.corpus_ids:
        entry = corpus.example(catalog_id)
        for g in entry if isinstance(entry, tuple) else (entry,):
            groups.append((g.label, g))
    for path in cfg.input_paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON, non-UTF-8 bytes and integers
            # too long to convert; RecursionError, nesting too deep to decode
            raise UsageError(f"cannot read {path}: {exc}") from exc
        defn = group_from_json(data)
        groups.append((defn.label or path, defn))
    if not groups:
        raise UsageError("no groups given; use --corpus or --input")
    return groups


def _require_all_valid(groups) -> Optional[str]:
    lines = []
    ok = True
    for label, defn in groups:
        report = validate_bieberbach(defn)
        if not report.is_torsion_free:
            ok = False
            for word, condition in report.failures:
                lines.append(f"{label}: fails {condition} at element word {word}")
    return None if ok else "\n".join(lines)


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def run(cfg: CliConfig) -> tuple[int, str]:
    """Execute a parsed command; returns (exit status, rendered output)."""
    try:
        if cfg.command == "corpus":
            return _run_corpus(cfg)
        groups = _resolve_groups(cfg)
        if cfg.command == "validate":
            return _run_validate(cfg, groups)
        failures = _require_all_valid(groups)
        if failures is not None:
            return VALIDATION_ERROR, failures
        if cfg.command == "betti":
            return _run_betti(cfg, groups)
        if cfg.command == "homology":
            return _run_homology(cfg, groups)
        if cfg.command == "multiplicity":
            return _run_multiplicity(cfg, groups)
        if cfg.command == "spectrum":
            return _run_spectrum(cfg, groups)
        if cfg.command == "compare":
            return _run_compare(cfg, groups)
        raise UsageError(f"unknown command {cfg.command!r}")
    except FlatspecError as exc:
        return USAGE_ERROR, f"error: {exc.prefix}{exc}"


def _run_corpus(cfg: CliConfig) -> tuple[int, str]:
    rows = corpus.corpus_ids()
    if cfg.fmt == "json":
        payload = [
            {"id": key, "parameters": list(params), "pair": pair, "description": desc}
            for key, params, pair, desc in rows
        ]
        return OK, _dump_json(payload)
    lines = []
    for key, params, pair, desc in rows:
        shape = "pair" if pair else "single"
        suffix = f"({','.join(p + '=?' for p in params)})" if params else ""
        lines.append(f"{key + suffix:<18} {shape:<7} {desc}")
    return OK, "\n".join(lines)


def _run_validate(cfg: CliConfig, groups) -> tuple[int, str]:
    payload = []
    lines = []
    all_ok = True
    for label, defn in groups:
        report = validate_bieberbach(defn)
        all_ok = all_ok and report.is_torsion_free
        payload.append(
            {
                "label": label,
                "dim": defn.dim,
                "is_group_closed": report.is_group_closed,
                "has_translation_lattice_Zn": report.has_translation_lattice_Zn,
                "is_torsion_free": report.is_torsion_free,
                "holonomy_order": report.holonomy_order,
                "holonomy_structure": list(report.holonomy_structure),
                "failures": [
                    {"word": list(word), "condition": cond}
                    for word, cond in report.failures
                ],
            }
        )
        if report.is_torsion_free:
            structure = "x".join(f"Z{m}" for m in report.holonomy_structure) or "1"
            lines.append(
                f"{label}: valid Bieberbach group, holonomy {structure} "
                f"(order {report.holonomy_order})"
            )
        else:
            lines.append(f"{label}: INVALID")
            for word, cond in report.failures:
                lines.append(f"  fails {cond} at element word {word}")
    text = _dump_json(payload) if cfg.fmt == "json" else "\n".join(lines)
    return (OK if all_ok else VALIDATION_ERROR), text


def _run_betti(cfg: CliConfig, groups) -> tuple[int, str]:
    results = [(label, betti_row(defn)) for label, defn in groups]
    if cfg.fmt == "json":
        return OK, _dump_json(
            [{"label": label, "betti": list(row)} for label, row in results]
        )
    lines = [f"{label}: {' '.join(str(b) for b in row)}" for label, row in results]
    return OK, "\n".join(lines)


def _run_homology(cfg: CliConfig, groups) -> tuple[int, str]:
    results = [(label, first_homology(defn)) for label, defn in groups]
    if cfg.fmt == "json":
        return OK, _dump_json(
            [
                {
                    "label": label,
                    "free_rank": h.free_rank,
                    "invariant_factors": list(h.torsion),
                    "rendered": str(h),
                }
                for label, h in results
            ]
        )
    return OK, "\n".join(f"{label}: {h}" for label, h in results)


def _run_multiplicity(cfg: CliConfig, groups) -> tuple[int, str]:
    results = [(label, multiplicity(defn, cfg.p, cfg.mu)) for label, defn in groups]
    if cfg.fmt == "json":
        return OK, _dump_json(
            [
                {"label": label, "p": cfg.p, "mu": cfg.mu, "multiplicity": d}
                for label, d in results
            ]
        )
    return OK, "\n".join(
        f"{label}: d_(p={cfg.p}, mu={cfg.mu}) = {d}" for label, d in results
    )


def _run_spectrum(cfg: CliConfig, groups) -> tuple[int, str]:
    blocks = []
    payload = []
    for label, defn in groups:
        ps = form_degrees(defn.dim, cfg.p_set)
        table = multiplicity_table(defn, ps, cfg.mu_max).as_dict()
        payload.append(
            {
                "label": label,
                "mu_max": cfg.mu_max,
                "entries": {
                    str(p): {str(mu): table[(p, mu)] for mu in range(cfg.mu_max + 1)}
                    for p in ps
                },
            }
        )
        header = "p\\mu " + " ".join(f"{mu:>5}" for mu in range(cfg.mu_max + 1))
        lines = [f"{label}  (eigenvalue = 4*pi^2*mu)", header]
        for p in ps:
            lines.append(
                f"{p:>4} "
                + " ".join(f"{table[(p, mu)]:>5}" for mu in range(cfg.mu_max + 1))
            )
        blocks.append("\n".join(lines))
    if cfg.fmt == "json":
        return OK, _dump_json(payload)
    return OK, "\n\n".join(blocks)


def _run_compare(cfg: CliConfig, groups) -> tuple[int, str]:
    if len(groups) != 2:
        raise UsageError("compare needs exactly two groups")
    (label1, g1), (label2, g2) = groups
    report = compare_spectra(g1, g2, p_set=cfg.p_set, mu_max=cfg.mu_max)
    if cfg.fmt == "json":
        payload = report.to_json_dict()
        payload["labels"] = [label1, label2]
        return OK, _dump_json(payload)
    lines = [
        f"compare {label1} vs {label2} (dim {report.dim}, mu <= {report.mu_max})",
        "verdicts are up to cutoff only:",
    ]
    for p, verdict in report.p_verdicts:
        if verdict.equal_up_to_cutoff:
            lines.append(f"  p={p}: equal up to cutoff")
        else:
            _, mu, d1, d2 = verdict.witness
            lines.append(f"  p={p}: differ at mu={mu} ({d1} vs {d2})")
    lines.append(f"betti {label1}: {' '.join(map(str, report.betti_first))}")
    lines.append(f"betti {label2}: {' '.join(map(str, report.betti_second))}")
    lines.append(
        f"orientable: {label1}={report.orientable_first} "
        f"{label2}={report.orientable_second}"
    )
    return OK, "\n".join(lines)


def main(argv=None) -> int:
    try:
        cfg = _config_from_args(build_parser().parse_args(argv))
    except FlatspecError as exc:
        print(f"error: {exc.prefix}{exc}", file=sys.stderr)
        return USAGE_ERROR
    status, text = run(cfg)
    if text:
        print(text, file=sys.stderr if status == USAGE_ERROR else sys.stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
