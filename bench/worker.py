"""One round of one workload, in a fresh interpreter.

    python bench/worker.py '{"workload": "fields", "seed": 1,
                             "mode": "round", "trace": false}'

Imports the library and builds the round's inputs from the seed; in mode
``round`` it then runs every operation once, with ``gc.collect()`` and a
pace sample (see speed.py) before each and only the call itself timed.
Mode ``setup`` stops before the first operation.  With ``trace`` the
library is wrapped by tracing.py before the inputs are built.  Prints one
JSON line: when set-up ended, one record per operation, the pace samples,
the peak RSS and the trace.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback

import speed
import workloads


def main(spec) -> dict:
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.install()
    ops = workloads.build(spec["workload"], spec["seed"])
    ready = time.monotonic()
    if spec["mode"] == "setup":
        return {"ready": ready}
    records, pace = [], []
    for op in ops:
        gc.collect()
        pace.append(speed.sample())
        start = time.monotonic()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        failed, problem = False, None
        try:
            value = op.run()
        except Exception:    # the program gave no answer: a failed operation
            failed, problem = True, traceback.format_exc(limit=2)[-600:]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if not failed:
            snap = tracer.snapshot() if tracer else None
            try:
                problem = op.check(value)
            except Exception:    # an answer of the wrong shape is wrong
                problem = traceback.format_exc(limit=2)[-600:]
            if tracer:
                tracer.restore(snap)
        records.append({"op": op.name, "start": start, "end": start + wall,
                        "wall_s": wall, "cpu_s": cpu, "failed": failed,
                        "problem": problem})
    gc.collect()
    pace.append(speed.sample())
    return {"ready": ready, "ops": records, "pace": pace,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": tracer.report() if tracer else None}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
