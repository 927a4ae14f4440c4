"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import flatspec  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "bench", "expected.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)


@pytest.fixture
def restore_flatspec():
    """Undo a Tracer.install: put every flatspec module namespace back."""
    saved = {
        name: dict(vars(mod)) for name, mod in sys.modules.items()
        if name == "flatspec" or name.startswith("flatspec.")
    }
    yield
    for name, namespace in saved.items():
        vars(sys.modules[name]).update(namespace)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_a_function_of_the_seed(workload):
    assert workloads.op_list(workload, 7) == workloads.op_list(workload, 7)
    assert workloads.op_list(workload, 7) != workloads.op_list(workload, 8)


def test_validate_search_quotas_hold_for_every_seed():
    for seed in range(5):
        specs = workloads.op_list("validate-search", seed)
        hw7 = sum(1 for s in specs if s["kind"] == "hw" and s["n"] == 7)
        assert hw7 / len(specs) == 0.2


def test_self_time_of_a_nested_trace():
    names = ["outer", "inner", "leaf"]
    # outer [0, 100) holds inner [10, 50) and inner [60, 70); the first
    # inner holds leaf [20, 25)
    trace = [
        (0, 0, 100, -1),
        (1, 10, 50, 0),
        (2, 20, 25, 1),
        (1, 60, 70, 0),
    ]
    assert spans.self_times(names, trace) == {
        "outer": [1, 100 - 40 - 10],
        "inner": [2, (40 - 5) + 10],
        "leaf": [1, 5],
    }


def test_wrapper_returns_the_wrapped_value_and_records_a_span():
    tracer = spans.Tracer()
    sentinel = object()
    wrapped = tracer.wrap("f", lambda x, y=1: (x, y, sentinel))
    assert wrapped(3, y=4) == (3, 4, sentinel)
    assert spans.self_times(tracer.names, tracer.spans)["f"][0] == 1


def test_install_rebinds_every_namespace(restore_flatspec):
    from flatspec import exact_linear, isospec, spectral

    matrix = ((0, 1, 0), (-1, 0, 0), (0, 0, 1))
    before = [exact_linear.trace_p(matrix, p) for p in range(4)]
    tracer = spans.Tracer()
    tracer.install()
    wrapper = exact_linear.trace_p
    assert spectral.trace_p is wrapper and isospec.trace_p is wrapper
    assert flatspec.trace_p is wrapper
    assert [spectral.trace_p(matrix, p) for p in range(4)] == before
    group = workloads.spectrum_group(workloads.HW_3D)
    assert flatspec.multiplicity_table(group, range(4), 4).as_dict()[(0, 0)] == 1
    summary = tracer.summary()
    assert summary["funcs"]["exact_linear.trace_p"][0] >= 4
    assert summary["funcs"]["spectral.multiplicity"][0] == 20
    assert summary["counters"]["spectral.enumerate_fixed_shell.vectors"] > 0


def test_missing_function_is_absent_not_zero(restore_flatspec):
    tracer = spans.Tracer()
    tracer.install(("exact_linear.no_such_function", "spectral.reduce_tally"))
    summary = spans.merge([tracer.summary()])
    assert summary["absent"] == ["exact_linear.no_such_function"]
    metrics = run.layer_metrics(summary, 1.0, 1.5)
    assert "exact_linear.no_such_function.calls" not in metrics
    assert metrics["spectral.reduce_tally.calls"] == 0
    assert metrics["trace.overhead_ratio"] == 1.5


def test_checks_pass_genuine_outputs_and_fail_corrupted_ones():
    spec = {"group": workloads.HW_3D, "cutoff": 160}
    built = workloads.build_input("spectrum-deep", spec)
    _, out = workloads.run_op("spectrum-deep", spec, built)
    workloads.add_check_facts("spectrum-deep", built, out)
    assert workloads.check_op("spectrum-deep", spec, out, EXPECTED) == [True] * 3
    out["tables"][0][2][3] += 1
    assert workloads.check_op("spectrum-deep", spec, out, EXPECTED)[0] is False

    spec = {"pair": "4.5"}
    built = workloads.build_input("compare-catalog", spec)
    _, out = workloads.run_op("compare-catalog", spec, built)
    assert workloads.check_op("compare-catalog", spec, out, EXPECTED) == [True]
    out["equal_p"] = out["equal_p"][:-1]
    assert workloads.check_op("compare-catalog", spec, out, EXPECTED) == [False]

    valid = [s for s in workloads.op_list("validate-search", 0) if s["kind"] == "diag"]
    for spec in valid:
        built = workloads.build_input("validate-search", spec)
        _, out = workloads.run_op("validate-search", spec, built)
        workloads.add_check_facts("validate-search", built, out)
        assert workloads.check_op("validate-search", spec, out, EXPECTED) == [True]
        if out["valid"]:
            out["betti"][0] = 2
            assert workloads.check_op("validate-search", spec, out, EXPECTED) == [False]
            break
    else:
        pytest.fail("no valid candidate among the diagonal ones")
    assert workloads.check_op("validate-search", spec, None, EXPECTED) == [False]


def test_corrupted_cli_output_makes_failed_frac_positive():
    menu = {entry["key"]: entry for entry in workloads.CLI_MENU}
    specs = [menu["corpus --format table"], menu["betti --corpus 9.9 --format json"]]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    genuine = run.run_pass("cli-cold", 0, specs, EXPECTED, env, ROOT, traced=False)
    assert genuine.verdicts == [True, True]
    corrupted = json.loads(json.dumps(EXPECTED))
    corrupted["cli-cold"]["corpus --format table"] = workloads.digest("not the listing")
    result = run.run_pass("cli-cold", 0, specs, corrupted, env, ROOT, traced=False)
    assert result.verdicts.count(False) / len(result.verdicts) > 0


def test_sampler_samples_inside_a_long_op_and_its_time_is_subtracted():
    import time

    import speed
    from flatspec import spectral

    for value in vars(spectral).values():  # earlier tests warmed the caches
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    sampler = speed.Sampler()
    sampler.start()
    try:
        spec = {"group": workloads.HW_3D, "cutoff": 160}
        built = workloads.build_input("spectrum-deep", spec)
        t0 = time.perf_counter()
        times, _ = workloads.run_op("spectrum-deep", spec, built, lambda: sampler.spent_s)
        elapsed = time.perf_counter() - t0
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 4  # start, stop and at least two ticks
    assert sum(times) < elapsed - 0.9 * sampler.spent_s + 0.05
    assert speed.scale([]) == 1.0
