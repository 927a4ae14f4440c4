"""One cli-cold op: ``python -m flatspec.cli ARGS`` plus reference samples.

Runs ``flatspec.cli`` as ``__main__`` through runpy, as ``python -m`` does,
while taking reference-loop samples in this process (see speed.py).  After
the CLI's own output it prints one JSON line of samples, then exits with
the CLI's status.
"""

import json
import runpy
import sys

import speed

sampler = speed.Sampler()
sampler.start()
status = 0
try:
    sys.argv = ["flatspec"] + sys.argv[1:]
    runpy.run_module("flatspec.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    status = exc.code
finally:
    sampler.stop()
    sys.stdout.flush()
    print(json.dumps({"ref": sampler.samples, "ref_spent_s": sampler.spent_s}))
sys.exit(status)
