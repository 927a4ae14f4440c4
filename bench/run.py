"""flatspec benchmark: one workload, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload compare-catalog --seed 1 --seconds 28 --trace 0

The workload's op list (fixed by the seed) runs in passes, one child
process at a time, and passes repeat while another one fits in
``--seconds`` (there is always at least one).  Every op output is checked.

- ``--trace 0``: the end-to-end metrics named in BENCHMARK.json.  ``setup_s``
  is the median over fresh interpreters of the time from start to the first
  op (import flatspec, build the inputs); ``wall_s`` the median pass time;
  ``op_p50_ms``/``op_p90_ms`` percentiles over every op of every pass;
  ``peak_rss_mb`` the median over passes of the largest child ``ru_maxrss``.
  Times are in reference-speed units (see ``speed.py``): raw times are
  scaled by a reference loop sampled inside the processes that run the ops.
  The raw figures are printed on the ``samples:`` line.
- ``--trace 1``: one untraced and one traced pass; the per-layer metrics
  named in BENCHMARK.json (raw self times), plus the tracing overhead.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it give the stamp (git sha, Python, nproc, CPU, seed), the
input properties, the op counts and, when traced, every layer figure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import spans
import speed
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
PASS_DEADLINE_S = 100  # no pass starts later than this into the run


@dataclass
class Child:
    ready_s: float | None
    lifetime_s: float
    exit_code: int
    text: str
    maxrss_kb: int


@dataclass
class Pass:
    """Raw times of one pass, without the reference samples' own time."""

    wall_s: float = 0.0
    latencies: list = field(default_factory=list)  # [seconds, start, end]
    ref: list = field(default_factory=list)  # reference samples [time, seconds]
    verdicts: list = field(default_factory=list)
    maxrss_kb: int = 0
    summaries: list = field(default_factory=list)
    outputs: list = field(default_factory=list)


def spawn(argv, env, root) -> Child:
    """Run one child to completion; ``ready_s`` is when it printed ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=env, cwd=root, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0 if first == "ready\n" else None
        text = proc.stdout.read() if ready_s is not None else first + proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        lifetime_s = time.perf_counter() - t0
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(ready_s, lifetime_s, proc.returncode, text, usage.ru_maxrss)


def _last_json(child: Child):
    lines = child.text.rstrip("\n").split("\n")
    if child.exit_code != 0:
        sys.stderr.write(child.text[-2000:])
        return None
    if len(lines) > 1:
        sys.stderr.write("\n".join(lines[:-1])[-2000:] + "\n")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(child.text[-2000:])
        return None


def _cli_output(child: Child) -> tuple[dict, dict]:
    """Split a cli_child.py run into its sample line and the CLI's output."""
    body, _, last = child.text[:-1].rpartition("\n")
    try:
        payload = json.loads(last)
    except json.JSONDecodeError:
        sys.stderr.write(child.text[-2000:])
        return {}, {"exit": child.exit_code, "stdout": child.text}
    return payload, {"exit": child.exit_code, "stdout": body + "\n" if body else ""}


def _jobs(workload, seed, specs, traced):
    """(argv, spec indices) for each child of one pass."""
    worker = [sys.executable, os.path.join(BENCH_DIR, "worker.py")]
    ops = ["ops", "--workload", workload, "--seed", str(seed)] + (["--trace"] if traced else [])
    if workload == "cli-cold":
        cli = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py")]
        for i, spec in enumerate(specs):
            yield (worker + ["cli"] if traced else cli) + spec["argv"], [i]
    elif workload == "validate-search":
        yield worker + ops, list(range(len(specs)))
    else:
        for i in range(len(specs)):
            yield worker + ops + ["--index", str(i)], [i]


def run_pass(workload, seed, specs, expected, env, root, traced) -> Pass:
    result = Pass()
    cold = workload in workloads.COLD_WORKLOADS
    for argv, indices in _jobs(workload, seed, specs, traced):
        start = speed.now()
        child = spawn(argv, env, root)
        end = speed.now()
        result.maxrss_kb = max(result.maxrss_kb, child.maxrss_kb)
        if workload == "cli-cold" and not traced:
            payload, out = _cli_output(child)
        else:
            payload = _last_json(child) or {}
            out = {"exit": payload.get("exit"), "stdout": payload.get("stdout")}
        result.ref += payload.get("ref", [])
        busy_s = child.lifetime_s - payload.get("ref_spent_s", 0.0)
        if "trace" in payload:
            result.summaries.append(payload["trace"])
        if workload == "cli-cold":
            entries = {indices[0]: {"out": out}}
        else:
            entries = {entry["i"]: entry for entry in payload.get("results", [])}
        for i in indices:
            entry = entries.get(i, {})
            out = entry.get("out")
            result.outputs.append(out)
            result.verdicts += workloads.check_op(workload, specs[i], out, expected)
            if cold:
                result.latencies.append([busy_s, start, end])
            else:
                result.latencies += [[t] + entry["span"] for t in entry.get("times", [])]
        result.wall_s += busy_s
    return result


def _timings(setups, setup_ref, passes, scaled: bool) -> dict:
    """Each op scaled by the samples near it; set-up and passes by all of theirs."""
    def factor(ref, start=None, end=None):
        if not scaled:
            return 1.0
        return speed.scale(ref) if start is None else speed.local_scale(ref, start, end)

    lat_ms = sorted(1000 * x * factor(p.ref, start, end)
                    for p in passes for x, start, end in p.latencies)
    # failed ops may leave fewer than the two points a quantile needs
    q = statistics.quantiles(lat_ms * 2 if len(lat_ms) == 1 else lat_ms or [0.0, 0.0],
                             n=100, method="inclusive")
    return {
        "setup_s": statistics.median(setups) * factor(setup_ref),
        "wall_s": statistics.median(p.wall_s * factor(p.ref) for p in passes),
        "op_p50_ms": q[49],
        "op_p90_ms": q[89],
        "lat_ms": lat_ms,
    }


def end_to_end_metrics(setups, setup_ref, passes) -> tuple[dict, dict]:
    """Metrics in reference-speed units, and the raw figures and sample counts."""
    metrics = _timings(setups, setup_ref, passes, scaled=True)
    raw = _timings(setups, setup_ref, passes, scaled=False)
    lat_ms = metrics.pop("lat_ms")
    raw.pop("lat_ms")
    metrics["peak_rss_mb"] = statistics.median(p.maxrss_kb for p in passes) / 1024
    samples = {
        "raw": raw,
        "speed_scale": [speed.scale(setup_ref)] + [speed.scale(p.ref) for p in passes],
        "pass_wall_s": [p.wall_s * speed.scale(p.ref) for p in passes],
        "op_samples": len(lat_ms),
        "beyond_p50": sum(1 for x in lat_ms if x > metrics["op_p50_ms"]),
        "beyond_p90": sum(1 for x in lat_ms if x > metrics["op_p90_ms"]),
        "setup_samples": len(setups),
    }
    return metrics, samples


def layer_metrics(summary, untraced_wall_s, traced_wall_s) -> dict:
    """Per-layer figures of one traced pass; absent functions give none."""
    present = [name for name in spans.TRACED if name not in summary["absent"]]
    metrics = {}
    for name in present:
        calls, self_ns = summary["funcs"].get(name, (0, 0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_ns / 1e9
        if name in spans.COUNTERS:
            key = f"{name}.{spans.COUNTERS[name][0]}"
            metrics[key] = summary["counters"].get(key, 0)
    for name, (hits, misses) in summary["caches"].items():
        metrics[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if "spectral.multiplicity" in summary["caches"]:
        metrics["spectral.cells"] = summary["caches"]["spectral.multiplicity"][1]
    for layer, size in summary["cache_entries"].items():
        metrics[f"{layer}.cache_entries"] = size
    metrics["cli.import_s"] = summary["cli_import_ns"] / 1e9
    if "cli.main" in present:
        metrics["cli.parse_s"] = metrics["cli.main.self_s"]
    if "cli.run" in present:
        metrics["cli.render_s"] = metrics["cli.run.self_s"]
    metrics["trace.untraced_wall_s"] = untraced_wall_s
    metrics["trace.traced_wall_s"] = traced_wall_s
    metrics["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s
    return metrics


def _git_sha(root) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip("\n").endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def stamp(root, args) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _select(names_units, values) -> tuple[dict, list]:
    chosen = {}
    missing = []
    for entry in names_units:
        name = entry["name"]
        if name in values:
            chosen[name] = {"value": values[name], "unit": entry["unit"]}
        else:
            missing.append(name)
    return chosen, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "flatspec", "__init__.py")):
        print("error: src/flatspec not found; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    # children run as an installed package would: with bytecode caches
    # (filled by the untimed warm-up probe) and buffered output
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, src)

    specs = workloads.op_list(args.workload, args.seed)
    print("stamp: " + json.dumps(stamp(root, args)))
    props = workloads.input_properties(args.workload, specs)

    probe = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "setup",
             "--workload", args.workload, "--seed", str(args.seed)]
    spawn(probe, env, root)  # untimed: fills the bytecode caches
    run = (args.workload, args.seed, specs, expected, env, root)

    if args.trace:
        passes = [run_pass(*run, traced=False), run_pass(*run, traced=True)]
        untraced, traced = (p.wall_s * speed.scale(p.ref) for p in passes)
        values = layer_metrics(spans.merge(passes[1].summaries), untraced, traced)
        print("layers: " + json.dumps(values, sort_keys=True))
        wanted = config["per_layer"]
    else:
        setups, setup_ref = [], []
        for _ in range(SETUP_PROBES):
            child = spawn(probe, env, root)
            payload = _last_json(child)
            if child.ready_s is None or payload is None:
                print("error: set-up probe failed", file=sys.stderr)
                return 1
            setups.append(child.ready_s)
            setup_ref += payload["ref"]
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(*run, traced=False))
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 1 / len(passes)) > args.seconds or elapsed > PASS_DEADLINE_S:
                break
        values, samples = end_to_end_metrics(setups, setup_ref, passes)
        print("samples: " + json.dumps(samples))
        wanted = config["end_to_end"]

    if args.workload == "validate-search":
        valid = [bool(out and out.get("valid")) for out in passes[0].outputs]
        props["valid_share"] = round(sum(valid) / len(specs), 4)
    print("inputs: " + json.dumps(props))
    verdicts = [v for p in passes for v in p.verdicts]
    failed = verdicts.count(False)
    print(f"ops: attempted={len(verdicts)} failed={failed} "
          f"failed_frac={failed / len(verdicts)}")
    metrics, missing = _select(wanted, values)
    if missing:
        print("absent: " + ", ".join(missing))
    print(json.dumps({"correct": failed == 0, "attempted": len(verdicts),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
