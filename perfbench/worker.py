"""Child process of the benchmark.

    python3 perfbench/worker.py JOB.json

The job names a mode:

* ``setup``: import the package and build the seeded inputs, then stop;
  the parent times this to get the set-up cost of a fresh process.
* ``phase``: set up as above, then run the workload's timed library phase
  and its checks.
* ``cli``: run one command line through ``covertower.cli.main`` with the
  tracer installed (untraced CLI calls run ``python3 -m covertower.cli``).

Results go to the job's ``out`` file as JSON; with tracing on, spans go
to its ``spans`` file when the process ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if job["trace"]:
        tracer = Tracer(job["base"], op=job["op"], parent=job["parent"])
    code = 0
    inputs_of, phase, _ = workloads.WORKLOADS[job["workload"]]
    if job["mode"] == "cli" or phase is None:
        import covertower.cli
    else:
        import covertower  # noqa: F401  (import cost belongs to set-up)
    if job["mode"] == "cli":
        if tracer:
            tracer.install()
        result = {"ready": time.perf_counter()}
        code = covertower.cli.main(job["argv"])
        sys.stdout.flush()
    else:
        inputs = inputs_of(job["seed"])
        result = {"ready": time.perf_counter()}
        if job["mode"] == "phase":
            if tracer:
                tracer.install()
            checks = workloads.Checks()
            result.update(phase(inputs, tracer, checks))
            result["attempted"] = checks.attempted
            result["failed"] = checks.failed
    if tracer:
        tracer.dump(Path(job["spans"]))
    Path(job["out"]).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
