"""The functions the benchmark's per-layer metrics read are still there.

``bench/run.py --trace 1`` wraps the library's public functions
(``bench/tracing.py``) and reads each per-layer metric of BENCHMARK.json off
the function it names.  A function that was deleted or renamed does not fail
the run: its metric is reported as ``null`` and the run exits 0, but a result
line with a ``null`` metric is not a usable result.  This test fails
instead, naming the function.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# metrics that bench/run.py derives, and the traced functions they read
DERIVED = {
    "gf.field.built": ["gf.GF.__init__"],
    "morphisms.hom_set.yield": ["morphisms.hom_set", "groups.enumerate_homs"],
}
# measured without the tracer: import times and the tracer's own overhead
UNTRACED = ("import.", "trace.")


def traced_functions():
    """The names ``tracing.install()`` wrapped, and those it missed, from a
    fresh interpreter with the library on its path."""
    script = ("import json, tracing\n"
              "t = tracing.install()\n"
              "print(json.dumps({'calls': sorted(t.calls),"
              " 'missing': t.missing}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "bench"), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_every_per_layer_metric_has_its_function():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = traced_functions()
    assert traced["missing"] == []
    needed = set()
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name.startswith(UNTRACED):
            continue
        needed.update(DERIVED.get(name, [name.rpartition(".")[0]]))
    assert "gf.GF.__init__" in needed and "groups.enumerate_homs" in needed
    assert sorted(needed - set(traced["calls"])) == []
