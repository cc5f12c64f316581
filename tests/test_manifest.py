"""The output manifest: thousands of command-line answers pinned by hash.

Each command of a corpus generated by rule runs through ``cli.main`` in
process, and the SHA-256 of its stdout, the SHA-256 of its stderr and its
exit code are compared with ``tests/data/manifest.json``.  The corpus is
not picked by hand:

- every atom of ATOMS, and every unordered pair of atoms (a pair of one
  atom twice included) under ``x`` and under ``ox``, through
  ``pasture --json``, ``hexagons``, the ternary, WLUM and GRS lifts and
  ``hom`` into every field of TARGETS, and into F16 at a cap of SMALL;
- ``iso`` on every ordered pair of atoms, and of ``a x b`` with
  ``b x a`` and ``a ox b`` with ``b ox a`` for every two atoms a, b;
- ``reps`` of U24, MK4 and ``u26.json`` over F3 to F9, with and without
  ``--list``, at the default cap and at SMALL.

Commands that exit 2 (a guard, an infinite pasture, an ``iso`` answering
unknown) stay in, so a change of refusal shows as a mismatch.  At SMALL,
30 steps, some of those searches are refused and some answer, so a change
of how the steps are counted shows too.  A mismatch means an answer
changed: either the program is wrong, or the change is argued and the
manifest re-recorded, on its own, with

    PYTHONPATH=src python tests/test_manifest.py
"""

import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import shlex

from pastures import cli

DATA = pathlib.Path(__file__).parent / "data"
MANIFEST = DATA / "manifest.json"
ATOMS = ("U", "D", "H", "S", "K", "W", "G",
         "F2", "F3", "F4", "F5", "F7", "F8", "F9")
TARGETS = ("F3", "F4", "F5", "F7", "F8", "F9", "F11", "F13", "F16")
MATROIDS = ("U24", "MK4", "tests/data/u26.json")
SMALL = ["--max-candidates", "30"]


def texts():
    yield from ATOMS
    for a, b in itertools.combinations_with_replacement(ATOMS, 2):
        yield f"{a} x {b}"
        yield f"{a} ox {b}"


def commands():
    """The corpus, each command as the argument list of ``pastures``."""
    for text in texts():
        yield ["pasture", text, "--json"]
        yield ["hexagons", text]
        for kind in ("ternary", "wlum", "grs"):
            yield ["lift", "--kind", kind, text]
        for q in TARGETS:
            yield ["hom", text, q]
        yield ["hom", text, "F16", *SMALL]
    for a, b in itertools.product(ATOMS, repeat=2):
        yield ["iso", a, b]
    for a, b in itertools.combinations(ATOMS, 2):
        for op in ("x", "ox"):
            yield ["iso", f"{a} {op} {b}", f"{b} {op} {a}"]
    for m in MATROIDS:
        for q in ("F3", "F4", "F5", "F7", "F8", "F9"):
            for listed in (["--list"], []):
                yield ["reps", "--matroid", m, "--pasture", q, *listed]
                yield ["reps", "--matroid", m, "--pasture", q, *listed,
                       *SMALL]


def entry(argv):
    """[sha256 of stdout, sha256 of stderr, exit code] of one command; a
    matroid file is named relative to the repository root."""
    argv = [str(DATA.parent.parent / a) if a.startswith("tests/data/")
            else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [hashlib.sha256(s.getvalue().encode()).hexdigest()
            for s in (out, err)] + [code]


def record():
    return {shlex.join(argv): entry(argv) for argv in commands()}


def test_manifest_holds_every_answer():
    expected = json.loads(MANIFEST.read_text())
    got = record()
    assert len(got) >= 2500
    assert got.keys() == expected.keys()
    changed = [cmd for cmd in got if got[cmd] != expected[cmd]]
    assert not changed, f"{len(changed)} answers changed: {changed[:20]}"


if __name__ == "__main__":
    entries = sorted(record().items())
    MANIFEST.write_text("{\n" + ",\n".join(
        f"{json.dumps(cmd)}: {json.dumps(e)}" for cmd, e in entries) + "\n}\n")
