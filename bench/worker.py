"""Child process of the benchmark; ``run.py`` starts one at a time.

Modes:

- ``setup``: import flatspec, build the workload's inputs, print ``ready``,
  then print one JSON line of reference-loop samples.
- ``ops``: the same set-up, print ``ready``, run the ops (all of them, or the
  one at ``--index``) while taking reference-loop samples, and print one
  JSON line of results and samples.
- ``cli ARGS...``: a traced ``flatspec`` CLI invocation; prints one JSON
  line with the exit code, the captured stdout, the trace and the
  reference-loop samples taken before and after it.

flatspec must be importable (``run.py`` puts ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback

# reference samples a set-up probe takes after it is ready
SETUP_REF_SAMPLES = 3


def _ready():
    print("ready", flush=True)


def _setup(workload: str, seed: int, index):
    import flatspec  # noqa: F401  (the import is part of set-up)
    import workloads

    if workload == "cli-cold":
        import flatspec.cli  # noqa: F401
    specs = workloads.op_list(workload, seed)
    chosen = range(len(specs)) if index is None else [index]
    return [(i, specs[i], workloads.build_input(workload, specs[i])) for i in chosen]


def _run_ops(workload, items, tracer):
    import speed
    import workloads

    sampler = speed.Sampler()
    results = []
    # a traced run samples only at its edges, so that no sample lands
    # inside a span and adds to its self time
    sampler.start(periodic=tracer is None)
    try:
        for i, spec, built in items:
            start = speed.now()
            try:
                times, out = workloads.run_op(workload, spec, built, lambda: sampler.spent_s)
                results.append({"i": i, "times": times, "out": out,
                                "span": [start, speed.now()]})
            except Exception as exc:  # an op that raises is a failed op, not a crash
                traceback.print_exc(file=sys.stderr)
                results.append({"i": i, "error": f"{type(exc).__name__}: {exc}"})
    finally:
        sampler.stop()
    payload = {"results": results, "ref": sampler.samples, "ref_spent_s": sampler.spent_s}
    if tracer is not None:
        payload["trace"] = tracer.summary()
    built_by_index = {i: built for i, _, built in items}
    for entry in results:
        if "out" in entry:
            try:
                workloads.add_check_facts(workload, built_by_index[entry["i"]], entry["out"])
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                entry["out"] = {"error": f"{type(exc).__name__}: {exc}"}
    return payload


def _traced_cli(argv):
    import speed
    from spans import Tracer

    sampler = speed.Sampler()
    sampler.start(periodic=False)  # edges only, as in a traced ops run
    t0 = time.perf_counter_ns()
    import flatspec.cli as cli

    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    sampler.stop()
    summary = tracer.summary()
    summary["cli_import_ns"] = import_ns
    return {"exit": status, "stdout": buf.getvalue(), "trace": summary,
            "ref": sampler.samples, "ref_spent_s": sampler.spent_s}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["cli"]:
        print(json.dumps(_traced_cli(argv[1:])))
        return 0
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "ops"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--index", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    items = _setup(args.workload, args.seed, args.index)
    _ready()
    if args.mode == "setup":
        import speed

        print(json.dumps({"ref": [speed.sample() for _ in range(SETUP_REF_SAMPLES)]}))
        return 0
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    print(json.dumps(_run_ops(args.workload, items, tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
