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
from typing import Sequence

from . import corpus
from .crystal import GroupDefinition, first_homology, group_from_json, validate_bieberbach
from .exact_linear import FlatspecError, UsageError
from .isospec import DEFAULT_MU_MAX, compare_spectra
from .spectral import betti_row, form_degrees, multiplicity, multiplicity_table

OK, USAGE_ERROR, VALIDATION_ERROR = 0, 1, 2


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


def nonnegative(flag: str):
    """argparse type of ``flag``: an int, refused below 0 with the flag named."""
    def parse(text: str) -> int:
        value = int(text)
        if value < 0:  # an ArgumentError without an action reads as its bare message
            raise argparse.ArgumentError(None, f"{flag} {value} must be nonnegative")
        return value
    parse.__name__ = "int"  # so a non-integer reads "invalid int value", as for type=int
    return parse


CUTOFF = ("--mu-max", {"type": nonnegative("--mu-max"), "default": DEFAULT_MU_MAX})

# Each subcommand's help and the options it takes after --format.  Every
# subcommand but corpus also takes the group sources --corpus and --input.
SUBCOMMANDS = {
    "corpus": ("list the built-in catalog", ()),
    "validate": ("run the torsion-freeness and lattice checks", ()),
    "betti": ("Betti numbers beta_0..beta_n", ()),
    "homology": ("first integral homology", ()),
    "multiplicity": ("one eigenvalue multiplicity d_{p,mu}", (
        ("--p", {"type": int, "required": True}),
        ("--mu", {"type": nonnegative("--mu"), "required": True}),
    )),
    "spectrum": ("multiplicity table for p in a set, mu <= cutoff", (
        ("--p", {"dest": "p_set", "type": form_degree_spec, "metavar": "SPEC",
                 "help": "form degrees, e.g. 0..6 or 1,3,5 (default: all)"}),
        CUTOFF,
    )),
    "compare": ("per-p spectral comparison of two groups", (
        ("--p", {"dest": "p_set", "type": form_degree_spec, "metavar": "SPEC"}),
        CUTOFF,
    )),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="flatspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (description, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=description)
        if name != "corpus":
            p.add_argument("--corpus", action="append", default=[], metavar="ID",
                           dest="corpus_ids", help="catalog id, e.g. 5.1, 5.1a or 4.1(n=4,k=1)")
            p.add_argument("--input", action="append", default=[], metavar="PATH",
                           dest="input_paths",
                           help="path to a group-definition JSON file")
        p.add_argument("--format", choices=("table", "json"), default="table", dest="fmt")
        for flag, settings in options:
            p.add_argument(flag, **settings)
    return parser


def _resolve_groups(args) -> list[tuple[str, GroupDefinition]]:
    groups: list[tuple[str, GroupDefinition]] = []
    for catalog_id in args.corpus_ids:
        entry = corpus.example(catalog_id)
        for g in entry if isinstance(entry, tuple) else (entry,):
            groups.append((g.label, g))
    for path in args.input_paths:
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


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Execute a parsed command; returns (exit status, rendered output)."""
    try:
        if args.command == "corpus":
            return OK, _corpus(args)
        groups = _resolve_groups(args)
        reports = [validate_bieberbach(defn) for _, defn in groups]
        valid = all(report.is_torsion_free for report in reports)
        if args.command == "validate":
            return (OK if valid else VALIDATION_ERROR), _validate(args, groups, reports)
        if not valid:
            return VALIDATION_ERROR, "\n".join(
                f"{label}: fails {condition} at element word {word}"
                for (label, _), report in zip(groups, reports)
                if not report.is_torsion_free
                for word, condition in report.failures
            )
        return OK, COMMANDS[args.command](args, groups)
    except FlatspecError as exc:
        return USAGE_ERROR, f"error: {exc.prefix}{exc}"


def _corpus(args) -> str:
    rows = corpus.corpus_ids()
    if args.fmt == "json":
        return _dump_json([
            {"id": key, "parameters": list(params), "pair": pair, "description": desc}
            for key, params, pair, desc in rows
        ])
    lines = []
    for key, params, pair, desc in rows:
        shape = "pair" if pair else "single"
        suffix = f"({','.join(p + '=?' for p in params)})" if params else ""
        lines.append(f"{key + suffix:<18} {shape:<7} {desc}")
    return "\n".join(lines)


def _validate(args, groups, reports) -> str:
    if args.fmt == "json":
        return _dump_json([
            {**{name: getattr(report, name) for name in report.__slots__},
             "label": label, "dim": defn.dim,
             "failures": [{"word": list(word), "condition": cond} for word, cond in report.failures]}
            for (label, defn), report in zip(groups, reports)
        ])
    lines = []
    for (label, _), report in zip(groups, reports):
        if report.is_torsion_free:
            structure = "x".join(f"Z{m}" for m in report.holonomy_structure) or "1"
            lines.append(
                f"{label}: valid Bieberbach group, holonomy {structure} "
                f"(order {report.holonomy_order})"
            )
        else:
            lines.append(f"{label}: INVALID")
            lines += [f"  fails {cond} at element word {word}" for word, cond in report.failures]
    return "\n".join(lines)


def _per_group(args, groups, compute, fields, text) -> str:
    """One value per group: a JSON list of ``{"label", **fields(value)}``, or
    one ``label: text(value)`` line each."""
    results = [(label, compute(defn)) for label, defn in groups]
    if args.fmt == "json":
        return _dump_json([{"label": label, **fields(value)} for label, value in results])
    return "\n".join(f"{label}: {text(value)}" for label, value in results)


def _betti(args, groups) -> str:
    return _per_group(args, groups, betti_row,
                      lambda row: {"betti": list(row)},
                      lambda row: " ".join(map(str, row)))


def _homology(args, groups) -> str:
    return _per_group(args, groups, first_homology,
                      lambda h: {"free_rank": h.free_rank, "invariant_factors": list(h.torsion),
                                 "rendered": str(h)},
                      str)


def _multiplicity(args, groups) -> str:
    p, mu = args.p, args.mu
    return _per_group(args, groups, lambda defn: multiplicity(defn, p, mu),
                      lambda d: {"p": p, "mu": mu, "multiplicity": d},
                      lambda d: f"d_(p={p}, mu={mu}) = {d}")


def _spectrum(args, groups) -> str:
    mus = range(args.mu_max + 1)
    tables = []
    for label, defn in groups:
        ps = form_degrees(defn.dim, args.p_set)
        tables.append((label, ps, multiplicity_table(defn, ps, args.mu_max).as_dict()))
    if args.fmt == "json":
        return _dump_json([
            {"label": label, "mu_max": args.mu_max,
             "entries": {str(p): {str(mu): table[(p, mu)] for mu in mus} for p in ps}}
            for label, ps, table in tables
        ])
    header = "p\\mu " + " ".join(f"{mu:>5}" for mu in mus)
    return "\n\n".join(
        "\n".join([f"{label}  (eigenvalue = 4*pi^2*mu)", header]
                  + [f"{p:>4} " + " ".join(f"{table[(p, mu)]:>5}" for mu in mus) for p in ps])
        for label, ps, table in tables
    )


def _compare(args, groups) -> str:
    if len(groups) != 2:
        raise UsageError("compare needs exactly two groups")
    (label1, g1), (label2, g2) = groups
    report = compare_spectra(g1, g2, p_set=args.p_set, mu_max=args.mu_max)
    if args.fmt == "json":
        payload = report.to_json_dict()
        payload["labels"] = [label1, label2]
        return _dump_json(payload)
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
    return "\n".join(lines)


# Commands that answer from valid groups; run answers corpus and validate itself.
COMMANDS = {
    "betti": _betti,
    "homology": _homology,
    "multiplicity": _multiplicity,
    "spectrum": _spectrum,
    "compare": _compare,
}


def main(argv=None) -> int:
    try:
        status, text = run(build_parser().parse_args(argv))
    except FlatspecError as exc:  # run reports its own errors; these are the parser's
        status, text = USAGE_ERROR, f"error: {exc.prefix}{exc}"
    if text:
        print(text, file=sys.stderr if status == USAGE_ERROR else sys.stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
