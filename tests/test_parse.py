"""``cli.parse`` against the argparse parser it was written from.

``oracles.build_parser`` declares the command line with argparse, as the
command line was read before ``cli.parse``.  Both read each drawn argv and
must agree: both accept it with the same value in every field, both refuse
it with the same stderr (argparse's usage line unwrapped, as on a wide
terminal), or both print a help.  The draws come from ``cli._COMMANDS``:
half are built to parse, and half have each argument missing, given once
or twice, options by a prefix (unique or not) or with ``=``, bad values,
and stray ``--``, ``-h`` forms, unknown options and extra words.

``cli.parse`` reads a line in plain form itself (``cli._plain``) and gives
every other line to argparse, built from the same table, so the
comparison checks ``_plain`` and the table's translation into argparse.
The reference's help strings differ, so only that a help was printed is
compared.  CI runs Python 3.10 and 3.11 only, so the comparison is
skipped on later versions, where it has not been run.  ``-h=`` is not
drawn: argparse 3.10 fails on it with an IndexError.
"""

import contextlib
import io
import os
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pastures import cli
from oracles import build_parser

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="the reference is argparse as Python 3.10 and 3.11 have it")

TEXTS = ["F7", "U", "H x F3", "-5", "-1.5", "", "x y", "-x y"]
INTS = ["2", "3", "64", " 7", "+3", "1_0"]
BAD_TEXTS = ["-", "--", "--x", "F7=1"]
BAD_INTS = ["1", "0", "-5", "x", "", "2.0"]
EXTRAS = ["--", "--", "-h", "--help", "--he", "-hh", "-hx", "--help=x",
          "--bogus", "--bogus=1", "-j", "--=x", "--json=1", "--list",
          "word", "-5"]


def outcome(read, argv):
    """("accept", fields), ("refuse", stderr) or ("help", None)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "10000"}):
        try:
            ns = read(argv)
        except SystemExit as e:         # argparse
            return ("help", None) if e.code == 0 \
                else ("refuse", err.getvalue())
        except ValueError as e:         # cli.parse
            return "refuse", f"{e}\n"
    if ns is None:
        return "help", None
    if not getattr(ns, "func", None):   # no command: cli.main prints usage
        return "refuse", "usage: pastures [-h] COMMAND ...\n"
    return "accept", vars(ns)


def reference(argv):
    return build_parser().parse_args(argv)


def values(kind, clean):
    if kind is bool:
        return st.sampled_from(["1", "", "x"])
    if kind is str:
        return st.sampled_from(TEXTS if clean else TEXTS + BAD_TEXTS)
    if isinstance(kind, list):
        return st.sampled_from(kind if clean else kind + ["bogus", "", "--"])
    return st.sampled_from(INTS if clean else INTS + BAD_INTS)


@st.composite
def given_once(draw, arg, clean):
    """One argument as typed: a positional's value, or an option in full
    or by a prefix, with its value after it, after "=", or missing."""
    name, kind = arg[:2]
    if name[0] != "-":
        return [draw(values(kind, clean))]
    typed = name if clean else name[:draw(st.integers(3, len(name)))]
    form = draw(st.sampled_from(["apart", "="] + ["bare"] * (not clean)))
    if form == "bare" or kind is bool and (clean or form == "apart"):
        return [typed]
    if form == "=":
        return [f"{typed}={draw(values(kind, clean))}"]
    return [typed, draw(values(kind, clean))]


@st.composite
def argvs(draw):
    """A line built to parse (each required argument once, options in
    full, good values), or one with anything drawn."""
    clean = draw(st.booleans())
    names = list(cli._COMMANDS)
    command = draw(st.sampled_from(names if clean else names + ["nope", ""]))
    args = cli._COMMANDS[command][2] if command in cli._COMMANDS else []
    chunks = []
    for arg in cli._COMMON + args:
        times = draw(st.sampled_from(
            [1] if clean and arg[2] is None else [0, 1, 1, 1, 2]
            if arg[2] is None else [0, 0, 1, 2]))
        chunks += [draw(given_once(arg, clean)) for _ in range(times)]
    if not clean:
        chunks += [[w] for w in draw(st.lists(st.sampled_from(EXTRAS),
                                              max_size=3))]
    chunks = draw(st.permutations(chunks))
    before = 0 if clean else draw(st.sampled_from([0, 0, 0, 1]))
    if not clean and draw(st.integers(0, 9)) == 0:
        chunks.insert(0, ["--"])
    # "--" before the last positional, when nothing after it is an option
    if clean and chunks and chunks[-1][0][:1] != "-" and draw(st.booleans()):
        chunks.insert(len(chunks) - 1, ["--"])
    words = [w for chunk in chunks for w in chunk]
    return words[:before] + [command] + words[before:]


@settings(max_examples=1000, deadline=None)
@given(argvs())
@example(["hom", "H", "--", "--"])                 # target is []
@example(["verify", "table1", "--max-q=--"])       # max_q is []
@example(["hom", "H", "F7", "--li", "--max-c=5"])  # unique prefixes
@example(["verify", "--max", "5", "table1"])       # ambiguous prefix
@example(["verify", "table1", "--max-q", "-5"])    # a negative number
@example(["lift", "F9", "--kind", "grs", "--kind=ternary"])   # last wins
@example(["hexagons", "--", "-h"])
@example(["--json", "hexagons", "F7"])
@example([])
def test_parse_agrees_with_argparse(argv):
    assert outcome(cli.parse, argv) == outcome(reference, argv)


def test_main_maps_the_outcomes(capsys):
    """Help exits 0 on stdout; a refusal exits 3 with argparse's two lines
    on stderr; no command prints the usage alone."""
    assert cli.main(["lift", "-h"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: pastures lift [-h] [--json] "
                          "[--max-candidates N] --kind ") and err == ""
    assert cli.main(["verify", "table1", "--max-q", "1"]) == 3
    assert capsys.readouterr() == ("", (
        "usage: pastures verify [-h] [--json] [--max-candidates N] "
        "[--max-q MAX_Q] {glift,hex-lists,idempotence,lift-table,matroid,"
        "table1,table2,triples}\n"
        "pastures verify: error: argument --max-q: must be at least 2, "
        "not 1\n"))
    assert cli.main([]) == 3
    assert capsys.readouterr() == ("", "usage: pastures [-h] COMMAND ...\n")


def test_lift_help_describes_every_option(capsys):
    """``pastures lift -h`` prints a line of help for the positional and
    for every option, each from its row of the command table."""
    assert cli.main(["lift", "-h"]) == 0
    assert capsys.readouterr() == ("""\
usage: pastures lift [-h] [--json] [--max-candidates N] \
--kind {binary,grs,ternary,wlum} expr

positional arguments:
  expr                  a pasture expression, such as F7 or "U ox H"

options:
  -h, --help            show this help message and exit
  --json                print the answer as JSON
  --max-candidates N    cap on the steps of a hom search (default 1000000)
  --kind {binary,grs,ternary,wlum}
                        the lift to compute
""", "")


def test_every_row_of_the_table_has_help():
    for _, about, args in cli._COMMANDS.values():
        assert about
        for name, _, _, text in cli._COMMON + args:
            assert text and text[0].islower() and not text.endswith("."), \
                name
