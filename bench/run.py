#!/usr/bin/env python3
"""Benchmark of the pastures library, one workload per invocation.

    python3 bench/run.py --workload fields --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository; the library is imported from its
``src`` directory.  Workloads (see workloads.py and README.md): cli, fields,
presentations, reps.  A closed loop with a single client: one operation at
a time, each started when the previous one has finished.

Untraced (``--trace 0``): fresh worker processes each run one whole round,
until ``--seconds`` have passed and MIN_ROUNDS rounds have run; ``cli`` runs
every command as its own ``python -m pastures.cli`` process instead.  Every
time is rescaled by the host's pace (speed.py).  Reports the end-to-end
metrics of BENCHMARK.json.  Traced (``--trace 1``): one untraced and one
traced round, in-process for ``cli``; reports the per-layer metrics.

The last line of stdout is the result, as JSON; the full record, with the
machine, every operation and the whole trace, goes to
``bench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

import speed  # noqa: E402  (HERE is on sys.path as the script's dir)
import workloads  # noqa: E402

HASH_SEED = "0"
SETUPS = 5            # set-ups measured per run; setup_s is their median
# Rounds per run at least; the cheap workloads run three, so that each
# operation's time is a median over three fresh processes.
MIN_ROUNDS = {"cli": 1, "fields": 1, "presentations": 3, "reps": 3}
IMPORT_PROBES = 3     # `-X importtime` runs per traced run
RUN_LIMIT_S = 170     # every child is killed once the run is this old


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """The library from ``src``, a fixed hash seed, and bytecode written to
    ``src/pastures/__pycache__`` on first import, as an installed package
    has it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Runner:
    """Starts the run's processes, all pinned to this process's CPU, and
    keeps the pace timeline (speed.py) that every timing is rescaled by."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.pace = []

    def _run(self, argv):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run time limit reached")
        return subprocess.run(argv, env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=left)

    def worker(self, mode, trace=False) -> dict:
        spec = {"workload": self.workload, "seed": self.seed, "mode": mode,
                "trace": trace}
        self.pace.append(speed.sample())
        start = time.monotonic()
        proc = self._run([sys.executable, str(HERE / "worker.py"),
                          json.dumps(spec)])
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker {spec} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        record = json.loads(proc.stdout.splitlines()[-1])
        record["setup"] = {"start": start, "end": record["ready"],
                           "wall_s": record["ready"] - start}
        self.pace.extend(record.get("pace", ()))
        return record

    def import_pastures(self) -> dict:
        """A bare `python -c "import pastures"`, timed."""
        self.pace.append(speed.sample())
        start = time.monotonic()
        t0 = time.perf_counter()
        proc = self._run([sys.executable, "-c", "import pastures"])
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"import pastures failed:\n{proc.stderr[-3000:]}")
        return {"start": start, "end": start + wall, "wall_s": wall}

    def import_times(self) -> dict:
        """Cumulative import times of pastures and sympy, from
        `-X importtime`, median of IMPORT_PROBES runs; 0 when a module is
        not imported at all."""
        probes = {"pastures": [], "sympy": []}
        for _ in range(IMPORT_PROBES):
            proc = self._run([sys.executable, "-X", "importtime", "-c",
                              "import pastures"])
            if proc.returncode != 0:
                raise BenchError(f"import failed:\n{proc.stderr[-3000:]}")
            seen = {}
            for m in re.finditer(r"^import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)$",
                                 proc.stderr, re.M):
                name = m.group(2)
                if name in probes:
                    seen[name] = max(seen.get(name, 0), int(m.group(1)))
            for name, values in probes.items():
                values.append(seen.get(name, 0) / 1e6)
        return {f"import.{name}_s": statistics.median(values)
                for name, values in probes.items()}

    def cli_round(self) -> list:
        """Every cli command as its own process; CPU time from the child's
        rusage."""
        records = []
        for op in workloads.cli_ops(self.seed):
            gc.collect()
            self.pace.append(speed.sample())
            ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            start = time.monotonic()
            t0 = time.perf_counter()
            proc = self._run([sys.executable, "-m", "pastures.cli",
                              *op.argv])
            wall = time.perf_counter() - t0
            ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            try:
                failed, problem = workloads.judge_cli(
                    op, proc.returncode, proc.stdout, proc.stderr)
            except Exception:   # an answer of the wrong shape
                failed, problem = False, traceback.format_exc(limit=2)
            records.append({
                "op": " ".join(op.argv), "start": start, "end": start + wall,
                "wall_s": wall,
                "cpu_s": (ru1.ru_utime - ru0.ru_utime
                          + ru1.ru_stime - ru0.ru_stime),
                "failed": failed, "problem": problem})
        self.pace.append(speed.sample())
        return records

    def rescale(self, interval, key="wall_s") -> float:
        return speed.rescale(interval[key], interval["start"],
                             interval["end"], self.pace)


def tally(rounds) -> dict:
    ops = [r for round_ops in rounds for r in round_ops]
    wrong = [r for r in ops if not r["failed"] and r["problem"]]
    for r in wrong:
        print(f"WRONG {r['op']}: {r['problem']}", file=sys.stderr)
    return {"correct": not wrong, "attempted": len(ops),
            "failed": sum(r["failed"] for r in ops)}


def end_to_end(workload, runner, seconds, record) -> tuple:
    """Whole rounds until ``seconds`` have passed and at least
    MIN_ROUNDS[workload] rounds have run, and SETUPS set-ups.  Each
    operation counts with its median rescaled time over the rounds."""
    start = time.monotonic()
    rounds, setups, rss = [], [], []

    def more():
        return (len(rounds) < MIN_ROUNDS[workload]
                or time.monotonic() - start < seconds)

    if workload == "cli":
        setups = [runner.import_pastures() for _ in range(SETUPS)]
        while more():
            rounds.append(runner.cli_round())
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        rss = [ru.ru_maxrss / 1024]
    else:
        while more():
            w = runner.worker("round")
            rounds.append(w["ops"])
            setups.append(w["setup"])
            rss.append(w["maxrss_kb"] / 1024)
        while len(setups) < SETUPS:
            setups.append(runner.worker("setup")["setup"])
    runner.pace.append(speed.sample())
    record.update(rounds=rounds, setups=setups, rss_mb=rss, pace=runner.pace)
    # Every round runs the same operations in the same order.
    wall = [statistics.median(runner.rescale(r[i]) for r in rounds)
            for i in range(len(rounds[0]))]
    cpu = [statistics.median(runner.rescale(r[i], "cpu_s") for r in rounds)
           for i in range(len(rounds[0]))]
    return {
        "wall_s": sum(wall),
        "cpu_s": sum(cpu),
        "op_p50_s": statistics.median(wall),
        "setup_s": statistics.median(runner.rescale(s) for s in setups),
        "peak_rss_mb": statistics.median(rss),
    }, rounds


def per_layer(runner, record) -> tuple:
    base = runner.worker("round")
    traced = runner.worker("round", trace=True)
    runner.pace.append(speed.sample())
    rep = traced["trace"]
    record.update(base=base, traced=traced, pace=runner.pace)
    wall = {k: sum(runner.rescale(r) for r in w["ops"])
            for k, w in (("base", base), ("traced", traced))}
    calls = rep["calls"]
    derived = dict(runner.import_times())
    derived["trace.overhead_s"] = wall["traced"] - wall["base"]
    derived["gf.field.built"] = calls.get("gf.GF.__init__")
    if "morphisms.hom_set" in calls and "groups.enumerate_homs" in calls:
        tried = rep["extra"].get("morphisms.hom_set.candidates", 0)
        kept = rep["extra"].get("morphisms.hom_set.returned", 0)
        derived["morphisms.hom_set.yield"] = kept / tried if tried else 0.0
    else:
        derived["morphisms.hom_set.yield"] = None

    def value(name):
        if name in derived:
            return derived[name]
        func, _, stat = name.rpartition(".")
        if func not in calls:
            return None          # the function is gone: metric missing
        if stat == "calls":
            return calls[func]
        if stat == "self_s":
            return rep["self_s"][func]
        return rep["extra"].get(name, 0)

    return value, [base["ops"], traced["ops"]]


def commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pastures" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'pastures'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(), "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(), "commit": commit(),
        "PYTHONHASHSEED": HASH_SEED,
    }
    speed.pin_to_one_cpu()
    runner = Runner(args.workload, args.seed)
    runner.import_pastures()  # compiles the bytecode before anything is timed
    if args.trace:
        value, rounds = per_layer(runner, record)
        metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values, rounds = end_to_end(args.workload, runner, args.seconds,
                                    record)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = dict(tally(rounds), metrics=metrics)
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
