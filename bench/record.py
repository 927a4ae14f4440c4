"""Write bench/expected.json: digests of the outputs the benchmark checks.

Run from the repository root, only when a change is meant to alter outputs:

    PYTHONPATH=src python3 bench/record.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads


def main() -> int:
    expected = {"compare-catalog": {}, "spectrum-deep": {}, "cli-cold": {}}
    for spec in workloads.op_list("compare-catalog", 0):
        built = workloads.build_input("compare-catalog", spec)
        _, out = workloads.run_op("compare-catalog", spec, built)
        expected["compare-catalog"][spec["pair"]] = out["digest"]
    for spec in workloads.op_list("spectrum-deep", 0):
        built = workloads.build_input("spectrum-deep", spec)
        _, out = workloads.run_op("spectrum-deep", spec, built)
        expected["spectrum-deep"][spec["group"]] = workloads.digest(out["tables"][-1])
    env = dict(os.environ, PYTHONHASHSEED="0")
    for entry in workloads.CLI_MENU:
        if entry["exit"] != 0:
            continue
        proc = subprocess.run([sys.executable, "-m", "flatspec.cli"] + entry["argv"],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, env=env, check=True)
        expected["cli-cold"][entry["key"]] = workloads.digest(proc.stdout)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
