"""Workload definitions for the flatspec benchmark.

Each workload turns a seed into a fixed list of JSON-able op specs, builds
the inputs for those specs, runs one op through the public flatspec API, and
checks an op's output.  Op lists are pure functions of (workload, seed);
building and running need ``flatspec`` importable, checking does not.

Why these workloads:

- ``compare-catalog``: ``compare_spectra`` over every catalog pair, each op in
  a fresh interpreter.  The paper's main use; fixed-shell enumeration and
  character sums dominate.  The seed only shuffles the order.
- ``spectrum-deep``: long ``multiplicity_table`` series of small groups, each
  group asked at cutoffs M/4, M/2, M in one process.  Shells are tiny, so the
  per-cell overhead (exterior traces, tally arithmetic, cyclotomic
  reduction) dominates, and raising the cutoff reuses cached cells.
- ``validate-search``: a seeded stream of candidate groups through
  ``validate_bieberbach`` (plus homology and Betti numbers when valid), all
  in one process.  Closure, the torsion check and Smith normal form
  dominate; spectral work is only mu = 0, so character-sum changes must not
  move it.  The 7-d share is fixed at 20% so that neither p50 nor p90 sits
  on the boundary between the two cost classes.
- ``cli-cold``: ``python -m flatspec.cli`` invocations, one fresh child each
  (through ``cli_child.py``, which also samples the reference loop); the
  only workload that pays import, argparse and rendering.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction
from math import lcm, prod

WORKLOADS = ("compare-catalog", "spectrum-deep", "validate-search", "cli-cold")

# One fresh process per op: op latency is the child's lifetime.
COLD_WORKLOADS = ("compare-catalog", "cli-cold")

COMPARE_PAIRS = (
    "4.3", "4.5", "5.1", "5.5", "5.6", "5.7", "5.8", "5.9(k=1)", "5.9(k=2)",
)
COMPARE_MU_MAX = 8
# Form degrees on which each pair is isospectral, as the catalog states them.
# 5.5 states none at this cutoff, so only its digest is checked.
STATED_EQUAL_P = {
    "4.3": (2, 7),
    "4.5": (0, 1, 2, 3, 4),
    "5.1": (0, 6),
    "5.6": (1, 3, 5, 7),
    "5.7": (2, 6),
    "5.8": (1, 3),
    "5.9(k=1)": (0, 7),
    "5.9(k=2)": (0, 8),
}

HW_3D = "hw-3d"
SPECTRUM_GROUPS = (
    ("4.5a", 64), ("4.5b", 64), ("5.8a", 64), ("5.8b", 64),
    ("4.1(n=4,k=1)", 64), ("4.1(n=4,k=3)", 64), (HW_3D, 160),
)
SPECTRUM_ASKS = 3  # cutoffs M/4, M/2, M in one process

# Per-list quotas; 7-d HW candidates are exactly 20% of the list.
VALIDATE_QUOTAS = (("diag", 56), ("cyclic", 32), ("hw3", 24), ("hw5", 16), ("hw7", 32))

CLI_TARGETS = ("4.5", "5.8", "5.1")
INVALID_GROUP_PATH = "bench/data/invalid_group.json"


def _cli_menu() -> list[dict]:
    menu = []
    for fmt in ("table", "json"):
        tail = ["--format", fmt]
        menu.append({"argv": ["corpus"] + tail, "exit": 0})
        for target in CLI_TARGETS:
            src = ["--corpus", target]
            menu += [
                {"argv": ["validate"] + src + tail, "exit": 0},
                {"argv": ["betti"] + src + tail, "exit": 0},
                {"argv": ["homology"] + src + tail, "exit": 0},
                {"argv": ["multiplicity"] + src + ["--p", "1", "--mu", "2"] + tail, "exit": 0},
                {"argv": ["spectrum"] + src + ["--mu-max", "6"] + tail, "exit": 0},
                {"argv": ["compare"] + src + ["--mu-max", "6"] + tail, "exit": 0},
            ]
        menu.append({"argv": ["betti", "--corpus", "9.9"] + tail, "exit": 1})
        menu.append({"argv": ["validate", "--input", INVALID_GROUP_PATH] + tail, "exit": 2})
    for entry in menu:
        entry["key"] = " ".join(entry["argv"])
    return menu


CLI_MENU = _cli_menu()


def digest(payload) -> str:
    if not isinstance(payload, (str, bytes)):
        payload = json.dumps(payload, sort_keys=True)
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# Op lists (pure: seed -> specs)

def op_list(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "compare-catalog":
        ops = [{"pair": pair} for pair in COMPARE_PAIRS]
    elif workload == "spectrum-deep":
        ops = [{"group": g, "cutoff": m} for g, m in SPECTRUM_GROUPS]
    elif workload == "validate-search":
        ops = [_candidate(kind, j, rng) for kind, count in VALIDATE_QUOTAS for j in range(count)]
    elif workload == "cli-cold":
        ops = [dict(entry) for entry in CLI_MENU]
    else:
        raise KeyError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def ops_per_spec(workload: str) -> int:
    return SPECTRUM_ASKS if workload == "spectrum-deep" else 1


def _signed_perm_order(perm, signs) -> int:
    order, seen = 1, set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length, sign, j = 0, 1, start
        while j not in seen:
            seen.add(j)
            length += 1
            sign *= signs[j]
            j = perm[j]
        order = lcm(order, length if sign == 1 else 2 * length)
    return order


def _candidate(kind: str, j: int, rng: random.Random) -> dict:
    """The j-th candidate of a kind.  Dimension and generator count cycle
    with j, so that every seed gets the same mix of sizes; the seed picks
    signs, permutations and translations."""
    if kind == "diag":
        # Z2^k with diagonal generators; translations in (1/2)Z
        n, k = 4 + j % 5, 1 + j // 5 % 3
        gens = []
        for _ in range(k):
            signs = [1] * n
            while all(s == 1 for s in signs):
                signs = [rng.choice((1, -1)) for _ in range(n)]
            gens.append({"signs": signs, "shift": [rng.randrange(2) for _ in range(n)]})
        return {"kind": "diag", "n": n, "den": 2, "gens": gens}
    if kind == "cyclic":
        # one signed-permutation generator of order m; translations in (1/m)Z
        n = 3 + j % 6
        while True:
            perm = list(range(n))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(n)]
            m = _signed_perm_order(perm, signs)
            if m > 1:
                break
        return {"kind": "cyclic", "n": n, "perm": perm, "signs": signs, "den": m,
                "shift": [rng.randrange(m) for _ in range(n)]}
    n = int(kind[2:])
    rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n - 1)]
    return {"kind": "hw", "n": n, "rows": rows}


# ---------------------------------------------------------------------------
# Building inputs (needs flatspec)

def build_group(spec: dict):
    import flatspec as fs

    kind = spec["kind"]
    n = spec["n"]
    if kind == "hw":
        rows = tuple(tuple(Fraction(x, 2) for x in row) for row in spec["rows"])
        return fs.build_hw_group(fs.HWMatrix(n=n, rows=rows))
    den = spec["den"]
    if kind == "diag":
        gens = [
            fs.AffineGenerator(
                tuple(tuple(g["signs"][i] if i == j else 0 for j in range(n)) for i in range(n)),
                tuple(Fraction(x, den) for x in g["shift"]),
            )
            for g in spec["gens"]
        ]
    else:
        # column j of the matrix is signs[j] * e_{perm[j]}
        matrix = tuple(
            tuple(spec["signs"][j] if spec["perm"][j] == i else 0 for j in range(n))
            for i in range(n)
        )
        gens = [fs.AffineGenerator(matrix, tuple(Fraction(x, den) for x in spec["shift"]))]
    return fs.GroupDefinition(dim=n, generators=tuple(gens), label=kind)


def spectrum_group(name: str):
    import flatspec as fs

    if name == HW_3D:
        half = Fraction(1, 2)
        return fs.build_hw_group(fs.HWMatrix(n=3, rows=((half, half, 0), (0, half, half))))
    base, member = name[:-1], name[-1]
    if base in ("4.5", "5.8"):
        return fs.example(base)["ab".index(member)]
    return fs.example(name)


def build_input(workload: str, spec: dict):
    """The flatspec objects one op needs; cli-cold ops need none."""
    import flatspec as fs

    if workload == "compare-catalog":
        return fs.example(spec["pair"])
    if workload == "spectrum-deep":
        return spectrum_group(spec["group"])
    if workload == "validate-search":
        return build_group(spec)
    return None


# ---------------------------------------------------------------------------
# Running ops (needs flatspec); each returns (seconds per op, output)

def run_op(workload: str, spec: dict, built, overhead=lambda: 0.0) -> tuple[list[float], dict]:
    """Time the op's library calls, less the growth of ``overhead()`` (the
    seconds spent on reference samples) while they ran."""
    import flatspec as fs

    def timed(fn, *args, **kwargs):
        t0, o0 = time.perf_counter(), overhead()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - t0 - (overhead() - o0)

    if workload == "compare-catalog":
        first, second = built
        report, elapsed = timed(fs.compare_spectra, first, second, mu_max=COMPARE_MU_MAX)
        return [elapsed], {
            "equal_p": list(report.equal_p_set()),
            "digest": digest(report.to_json_dict()),
        }
    if workload == "spectrum-deep":
        defn, cutoff = built, spec["cutoff"]
        ps = range(defn.dim + 1)
        times, tables = [], []
        for mu_max in (cutoff // 4, cutoff // 2, cutoff):
            table, elapsed = timed(fs.multiplicity_table, defn, ps, mu_max)
            times.append(elapsed)
            table = table.as_dict()
            tables.append([[table[(p, mu)] for mu in range(mu_max + 1)] for p in ps])
        return times, {"tables": tables}
    if workload == "validate-search":
        def validate(defn):
            report = fs.validate_bieberbach(defn)
            if not report.is_torsion_free:
                return report, None, None
            return report, fs.first_homology(defn), fs.betti_row(defn)

        (report, homology, betti), elapsed = timed(validate, built)
        out = {"dim": built.dim, "valid": report.is_torsion_free,
               "failures": len(report.failures)}
        if report.is_torsion_free:
            out.update(h1_rank=homology.free_rank, betti=list(betti))
        return [elapsed], out
    raise KeyError(f"workload {workload!r} has no in-process ops")


def add_check_facts(workload: str, built, out: dict) -> None:
    """Facts the checks need beyond the op's own output, computed outside
    the op (and outside any trace) so they cost the op nothing."""
    import flatspec as fs
    from flatspec.isospec import is_orientable

    if workload == "spectrum-deep":
        out.update(h1_rank=fs.first_homology(built).free_rank, orientable=is_orientable(built))
    elif workload == "validate-search" and out["valid"]:
        out["orientable"] = is_orientable(built)


# ---------------------------------------------------------------------------
# Checks (pure); each returns one bool per op the spec covers

def check_op(workload: str, spec: dict, out, expected: dict) -> list[bool]:
    """``out`` is None when the op raised or its process died."""
    n_ops = ops_per_spec(workload)
    if out is None or "error" in out:
        return [False] * n_ops
    try:
        if workload == "compare-catalog":
            return [_check_compare(spec, out, expected)]
        if workload == "spectrum-deep":
            return _check_spectrum(spec, out, expected)
        if workload == "validate-search":
            return [_check_validate(out)]
        return [_check_cli(spec, out, expected)]
    except (KeyError, IndexError, TypeError, ValueError):
        return [False] * n_ops


def _check_compare(spec, out, expected) -> bool:
    pair = spec["pair"]
    stated = STATED_EQUAL_P.get(pair)
    if stated is not None and tuple(out["equal_p"]) != stated:
        return False
    return out["digest"] == expected["compare-catalog"][pair]


def _table_ok(table, h1_rank: int, orientable: bool) -> bool:
    n = len(table) - 1
    width = len(table[0])
    if any(len(row) != width for row in table):
        return False
    if table[0][0] != 1 or table[1][0] != h1_rank:
        return False
    for mu in range(width):
        if sum((-1) ** p * table[p][mu] for p in range(n + 1)) != 0:
            return False
        if orientable and any(table[p][mu] != table[n - p][mu] for p in range(n + 1)):
            return False
    return True


def _check_spectrum(spec, out, expected) -> list[bool]:
    tables = out["tables"]
    final = tables[-1]
    verdicts = []
    for table in tables:
        ok = _table_ok(table, out["h1_rank"], out["orientable"])
        width = len(table[0])
        ok = ok and all(row == full[:width] for row, full in zip(table, final))
        verdicts.append(ok)
    if len(verdicts) != SPECTRUM_ASKS or len(final[0]) != spec["cutoff"] + 1:
        return [False] * SPECTRUM_ASKS
    if digest(final) != expected["spectrum-deep"][spec["group"]]:
        verdicts[-1] = False
    return verdicts


def _check_validate(out) -> bool:
    if not out["valid"]:
        return out["failures"] > 0
    betti = out["betti"]
    n = out["dim"]
    return (
        out["failures"] == 0
        and len(betti) == n + 1
        and betti[0] == 1
        and out["h1_rank"] == betti[1]
        and sum((-1) ** p * b for p, b in enumerate(betti)) == 0
        and (betti[n] == 1) == out["orientable"]
    )


def _check_cli(spec, out, expected) -> bool:
    if out["exit"] != spec["exit"]:
        return False
    if spec["exit"] != 0:
        return True
    return digest(out["stdout"]) == expected["cli-cold"][spec["key"]]


# ---------------------------------------------------------------------------
# Input properties, for citing in later claims

def input_properties(workload: str, specs: list[dict]) -> dict:
    """Static properties of an op list; builds the inputs but runs no op."""
    props = {"specs": len(specs), "ops": len(specs) * ops_per_spec(workload)}
    if workload == "cli-cold":
        props["commands"] = sorted({s["argv"][0] for s in specs})
        props["error_cases"] = sum(1 for s in specs if s["exit"] != 0)
        return props
    groups, cells = [], []
    for spec in specs:
        built = build_input(workload, spec)
        members = built if isinstance(built, tuple) else (built,)
        groups.extend(members)
        if workload == "compare-catalog":
            cells.append(sum((d.dim + 1) * (COMPARE_MU_MAX + 1) for d in members))
        elif workload == "spectrum-deep":
            cells.append((built.dim + 1) * (spec["cutoff"] + 1))
        else:
            cells.append(built.dim + 1)  # mu = 0 only, and only when valid
    keys = [(d.dim, d.generators) for d in groups]
    props.update(
        dims=sorted({d.dim for d in groups}),
        max_order=max(prod(g.order for g in d.generators) for d in groups),
        max_modulus=max(
            lcm(1, *(x.denominator for g in d.generators for x in g.translation))
            for d in groups
        ),
        max_cells_per_op=max(cells),
        repeated_share=round(1 - len(set(keys)) / len(keys), 4),
    )
    if workload == "validate-search":
        hw7 = sum(1 for s in specs if s["kind"] == "hw" and s["n"] == 7)
        props["hw7_share"] = round(hw7 / len(specs), 4)
    return props
