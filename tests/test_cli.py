"""End-to-end tests for the command-line interface.

Each case drives ``pastures.cli.main`` in process and inspects the exit
code and captured output.  JSON outputs are compared byte for byte
against golden files under tests/data, which were produced by the same
commands and reviewed by hand.
"""

import contextlib
import importlib
import inspect
import io
import json
import os
import pathlib
import pkgutil
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pastures
from pastures import cli, lifts, matroids, morphisms
from pastures.expr import MAX_PARTS, pasture_of
from pastures.groups import (DEFAULT_CAP, AbelianGroup, InfinitePasture,
                             SearchSpaceExceeded, enumerate_homs)
from pastures.matroids import lift_bijection_check, representation_classes
from pastures.morphisms import hom_set, iso_check
from pastures.record import InternalError

import test_manifest

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes ---------------------------------------------------------

EXIT_CASES = [
    (["pasture", "U"], 0),
    (["hexagons", "F7"], 0),
    (["lift", "--kind", "binary", "F2"], 0),
    (["hom", "H", "F7"], 0),
    (["iso", "F4", "F4"], 0),
    (["verify", "glift"], 0),
    (["reps", "--matroid", "MK4", "--pasture", "F5"], 0),
    # one class of 15^7 members, sized by formula
    (["reps", "--matroid", str(DATA / "u18.json"), "--pasture", "F16"], 0),
    # regular, so one class; the foundation has no free unit to search
    (["reps", "--matroid", "MK4", "--pasture", "F16"], 0),
    # 504 classes at the default cap: F_M's -1 is counted once
    (["reps", "--matroid", str(DATA / "u26.json"), "--pasture", "F11"], 0),
    # 1200 classes in 7 + 39710 steps; the candidate pools multiply to 4.6e23
    (["reps", "--matroid", str(DATA / "u37.json"), "--pasture", "F8"], 0),
    # verified-false answers
    (["iso", "F4", "F5"], 1),
    (["iso", "U", "D"], 1),
    # guards: infinite unit group, then a deliberately tiny search cap
    (["reps", "--matroid", "U24", "--pasture", "G"], 2),
    (["reps", "--matroid", "U24", "--pasture", "F9",
      "--max-candidates", "10"], 2),
    # 2^28 classes by the U(2,n) pattern; the search stops at its cap
    (["reps", "--matroid", str(DATA / "u37.json"), "--pasture", "W",
      "--max-candidates", "10000"], 2),
    # a field past gf.MAX_Q, refused before its tables are built
    (["pasture", "F1000000007"], 2),
    # usage errors
    (["pasture", "F4 x"], 3),
    (["pasture", "F6"], 3),
    (["pasture", "Nope"], 3),
    (["reps", "--matroid", "nosuch", "--pasture", "F4"], 3),
    (["reps", "--matroid", str(DATA / "not_a_matroid.json"),
      "--pasture", "F4"], 3),
    (["reps", "--matroid", str(DATA / "matroid_without_bases.json"),
      "--pasture", "F3"], 3),
    (["reps", "--matroid", str(DATA / "matroid_not_an_object.json"),
      "--pasture", "F3"], 3),
    (["lift", "--kind", "bogus", "F4"], 3),
    # numeric bounds out of range: no vacuous pass, no tripped guard
    (["verify", "table1", "--max-q", "1"], 3),
    (["verify", "table1", "--max-q", "-5"], 3),
    (["verify", "table1", "--max-q", "x"], 3),
    (["hom", "H", "F7", "--max-candidates", "0"], 3),
    (["reps", "--matroid", "U24", "--pasture", "F5",
      "--max-candidates", "-1"], 3),
    ([], 3),
]


# ids name data files relative to tests/data, so they match in any checkout
@pytest.mark.parametrize(
    "argv,expected", EXIT_CASES,
    ids=[" ".join(a).replace(str(DATA) + os.sep, "") or "<empty>"
         for a, _ in EXIT_CASES])
def test_exit_code(capsys, argv, expected):
    code, _, _ = run(capsys, argv)
    assert code == expected


def test_malformed_json_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["reps", "--matroid", str(bad),
                                "--pasture", "F4"])
    assert code == 3
    assert "error" in err


def test_unknown_matroid_is_a_usage_error(capsys):
    """A matroid name is not an expression, so the line gives no position."""
    assert run(capsys, ["reps", "--matroid", "nosuch", "--pasture", "F4"]) \
        == (3, "", "error: no matroid file or builtin named 'nosuch'\n")


@pytest.mark.parametrize("argv, loads", [
    (["hexagons", "F7"], False), (["hexagons", "F7", "--json"], True)])
def test_argparse_gettext_locale_and_json_are_imported_only_when_used(
        argv, loads):
    """No plain command line imports argparse, gettext or locale, and a
    command without ``--json`` or a matroid file never imports json."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    code = ("import sys; from pastures import cli; "
            f"code = cli.main({argv!r}); "
            "sys.exit(code or 10 + ('json' in sys.modules) + 2 * any("
            "m in sys.modules for m in ('argparse', 'gettext', 'locale')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 10 + loads, proc.stderr


@pytest.mark.parametrize("argv, name", [
    (["verify", "table1", "--max-q=--"], "--max-q"),
    (["hom", "H", "F7", "--max-candidates=--"], "--max-candidates"),
    (["reps", "--matroid=--", "--pasture", "F5"], "--matroid"),
    (["hom", "H", "--", "--"], "target"),
    (["reps", "--matroid", "U24", "--pasture=--"], "--pasture")])
def test_an_argument_given_only_as_double_dash_is_a_usage_error(
        capsys, argv, name):
    """argparse reads an argument whose one string is "--" as []; the line
    exits 3 with one stderr line, not with a traceback or through the
    expression parser."""
    assert run(capsys, argv) == (
        3, "", f"error: argument {name}: expected one argument\n")


# -- golden JSON outputs ------------------------------------------------

GOLDEN_CASES = [
    (["pasture", "U", "--json"], "golden_pasture_U.json"),
    (["hexagons", "F7", "--json"], "golden_hexagons_F7.json"),
    (["lift", "--kind", "ternary", "F9", "--json"],
     "golden_lift_ternary_F9.json"),
    # C6 x Z^20: ten U factors and one H
    (["lift", "--kind", "ternary", "F64", "--json"],
     "golden_lift_ternary_F64.json"),
    # GF(5^3): D and twenty U factors, the first odd-p extension field
    (["lift", "--kind", "ternary", "F125", "--json"],
     "golden_lift_ternary_F125.json"),
    # the WLUM lift: -1 = 1 in F64, so the tensor carries an extra F2 factor
    (["lift", "--kind", "wlum", "F64", "--json"],
     "golden_lift_wlum_F64.json"),
    (["hom", "H", "F7", "--list", "--json"], "golden_hom_H_F7.json"),
    (["iso", "F4", "F4", "--json"], "golden_iso_F4_F4.json"),
    (["reps", "--matroid", "U24", "--pasture", "F5", "--list", "--json"],
     "golden_reps_u24_F5.json"),
    (["lift-check", "--matroid", "U24", "--pasture", "F4",
      "--kind", "ternary", "--json"], "golden_liftcheck_u24_F4.json"),
    (["verify", "glift", "--json"], "golden_verify_glift.json"),
    (["lift", "--kind", "grs", "F4 x F5", "--json"],
     "golden_lift_grs_F4xF5.json"),
    (["lift", "--kind", "grs", "F5 x F19", "--json"],
     "golden_lift_grs_F5xF19.json"),
    # units C2 x C4 x Z: G5 triples of fundamental elements with free rank
    (["lift", "--kind", "grs", "G x F5", "--json"],
     "golden_lift_grs_GxF5.json"),
    # the orbits and coordinates of a product and of a tensor
    (["pasture", "S x S", "--json"], "golden_pasture_SxS.json"),
    (["pasture", "D ox H ox F3", "--json"], "golden_pasture_DoxHoxF3.json"),
    # a chain of tensors read left-nested: the n-ary tensor(H, H, G) has the
    # same units, C3 x C6 x Z, but other null orbit coordinates
    (["pasture", "H ox H ox G", "--json"], "golden_pasture_HoxHoxG.json"),
    # the answer order of a source with two components, and of a four-deep
    # representation search
    (["hom", "U ox U", "F16", "--list", "--json"],
     "golden_hom_UoxU_F16.json"),
    (["reps", "--matroid", str(DATA / "u26.json"), "--pasture", "F7",
      "--list", "--json"], "golden_reps_u26_F7.json"),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES,
                         ids=[g for _, g in GOLDEN_CASES])
def test_golden_output(capsys, argv, golden):
    """Byte for byte: key order, spacing and number formatting included."""
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == (DATA / golden).read_text()


def test_real_command_lines_are_read_without_argparse():
    """Every command of the output manifest and of the golden files is in
    plain form, so ``cli.parse`` reads it from the table alone."""
    for argv in [*test_manifest.commands(),
                 *(argv for argv, _ in GOLDEN_CASES)]:
        assert cli._plain(argv) is not None, argv


# -- behaviour details --------------------------------------------------

def test_matroid_file_matches_builtin(capsys):
    """A JSON matroid file and the builtin of the same matroid agree."""
    code1, out1, _ = run(capsys, ["reps", "--matroid", str(DATA / "u24.json"),
                                  "--pasture", "F5", "--list", "--json"])
    code2, out2, _ = run(capsys, ["reps", "--matroid", "U24",
                                  "--pasture", "F5", "--list", "--json"])
    assert code1 == code2 == 0
    assert json.loads(out1) == json.loads(out2)


def test_output_is_deterministic_across_runs(capsys):
    argv = ["reps", "--matroid", "MK4", "--pasture", "F3",
            "--list", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_hom_without_list_omits_morphisms(capsys):
    code, out, _ = run(capsys, ["hom", "H", "F7", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert "morphisms" not in data


def test_text_mode_summaries(capsys):
    _, out, _ = run(capsys, ["pasture", "U"])
    assert "C2 x Z^2" in out
    _, out, _ = run(capsys, ["hexagons", "F7"])
    assert "hexagonal" in out and "dyadic" in out
    _, out, _ = run(capsys, ["iso", "F4", "F5"])
    assert "not isomorphic" in out
    _, out, _ = run(capsys, ["verify", "glift"])
    assert "0 failures" in out


def test_pasture_order_lists_no_unit(capsys, monkeypatch):
    """The order of the unit group comes from its invariant factors: the
    text output for a product is byte-identical with the unit listing
    patched to raise."""
    argv = ["pasture", "F16 x F9"]
    code, expected, err = run(capsys, argv)
    assert (code, err) == (0, "")
    units = pasture_of(argv[1]).units
    assert f"(order {len(units.torsion_elements())})" in expected

    def refuse(self):
        raise AssertionError("AbelianGroup.torsion_elements called")

    monkeypatch.setattr(AbelianGroup, "torsion_elements", refuse)
    assert run(capsys, argv) == (0, expected, "")


def test_hom_guard_message(capsys):
    # Hom(U, F7) takes 18 steps: F7's 6 torsion units, then 1 + 6 + 5 nodes
    code, out, err = run(capsys, ["hom", "U", "F7", "--max-candidates", "17"])
    assert code == 2
    assert out == ""
    assert err == "guard tripped: hom search passed its cap of 17 steps\n"
    assert run(capsys, ["hom", "U", "F7", "--max-candidates", "18"]) == (
        0, "5 morphisms U -> F7\n", "")


def test_snf_meter_stops_a_presentation(capsys):
    """The presentation by the 10 x 8 matrix of
    ``random.Random(1).randint(-3, 3)``, row by row, one relation
    a^e1 * ... * h^e8 - 1 a row, ran for minutes in the Smith normal form;
    it exits 2 with one stderr line."""
    rng = random.Random(1)
    rows = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(10)]
    monomials = ["*".join(f"{x}^{e}" if e != 1 else x
                          for x, e in zip("abcdefgh", row) if e)
                 for row in rows]
    text = f"F1pm<a,b,c,d,e,f,g,h>//({'; '.join(m + '-1' for m in monomials)})"
    assert len(text) == 325
    assert run(capsys, ["pasture", text]) == (
        2, "", "guard tripped: Smith normal form multiplier of 14111 bits "
        "passed its cap of 10000 bits\n")


def test_one_default_cap(capsys):
    """Every search and the command line's --max-candidates default to
    ``DEFAULT_CAP``, 10^6: U ox U into F128 takes 127 + 32132 steps and
    answers, U ox U ox U, 2000376 morphisms, is refused."""
    for search in (hom_set, iso_check, enumerate_homs,
                   representation_classes, lift_bijection_check):
        assert inspect.signature(search).parameters["cap"].default \
            == DEFAULT_CAP == 10**6
    for argv in (["hom", "H", "F7"], ["iso", "F4", "F5"],
                 ["reps", "--matroid", "U24", "--pasture", "F5"],
                 ["lift-check", "--matroid", "U24", "--pasture", "F4",
                  "--kind", "ternary"]):
        assert cli.parse(argv).max_candidates == DEFAULT_CAP
    assert run(capsys, ["hom", "U ox U", "F128"]) == (
        0, "15876 morphisms U ox U -> F128\n", "")
    assert run(capsys, ["hom", "U ox U ox U", "F128"]) == (
        2, "", "guard tripped: hom search passed its cap of 1000000 "
        "steps\n")


def test_counts_build_nothing(capsys, monkeypatch):
    """Without --list, ``hom`` and ``reps`` print ``morphisms._count`` of
    the search: no row is kept and no morphism or class is built, so a search
    refused at its cap held nothing either.  With --list the same search
    builds them all."""
    rows = []

    def counting(items=()):
        if isinstance(items, list):
            rows.append(items)
        return tuple(items)

    def refuse(*args):
        raise AssertionError("built")

    monkeypatch.setattr(morphisms, "tuple", counting, raising=False)
    monkeypatch.setattr(morphisms, "PastureMorphism", refuse)
    monkeypatch.setattr(matroids, "RepresentationClass", refuse)
    assert run(capsys, ["hom", "U ox U", "F128"]) == (
        0, "15876 morphisms U ox U -> F128\n", "")
    assert run(capsys, ["reps", "--matroid", "U24", "--pasture", "F7"]) == (
        0, "5 rescaling classes over F7 (n=4, rank=2, 6 bases)\n", "")
    assert run(capsys, ["hom", "U ox U", "F2048", "--max-candidates",
                        "3000"]) == (
        2, "", "guard tripped: hom search passed its cap of 3000 steps\n")
    assert rows == []
    with pytest.raises(AssertionError, match="^built$"):
        cli.main(["hom", "U ox U", "F16", "--list"])
    assert len(rows) == 14 ** 2


def test_iso_guard_counts_the_search_steps(capsys):
    # the target's 2 torsion units, then for z -> t*z 1 node and the 2
    # candidates the orbit check tests, which leave none, and for z -> t/z
    # 1 node, 2 tested and 1 leaf: the steps of the two searches are
    # summed, so 8 answers unknown and 9 finds the isomorphism
    argv = ["iso", "D", "F1pm<z>//(z^-1+z^-1-1)", "--max-candidates"]
    assert run(capsys, argv + ["8"]) == (
        2, "unknown: hom search passed its cap of 8 steps\n", "")
    code, out, err = run(capsys, argv + ["9"])
    assert (code, err) == (0, "")
    assert out.endswith(" are isomorphic\n")


def nested(depth, inner="F3"):
    return "(" * depth + inner + ")" * depth


def budget_error(at):
    return f"error: an expression has more than {MAX_PARTS} parts " \
           f"(at position {at})\n"


@pytest.mark.parametrize("argv", [["pasture", nested(400)],
                                  ["iso", nested(400), "F3"],
                                  ["iso", "F3", nested(MAX_PARTS)]],
                         ids=["pasture", "iso-first", "iso-second"])
def test_deep_nesting_is_a_usage_error(capsys, argv):
    """Nesting past the budget exits 3 with one line, not with a traceback
    and exit 1, which ``iso`` would read as "not isomorphic": each '(' is
    a part and so is F3, so part MAX_PARTS + 1 starts at MAX_PARTS."""
    assert run(capsys, argv) == (3, "", budget_error(MAX_PARTS))


def test_nesting_up_to_the_bound_is_accepted(capsys):
    code, out, _ = run(capsys, ["pasture", nested(MAX_PARTS - 1)])
    assert (code, out.splitlines()[0]) == (0, "pasture: F3")
    code, out, _ = run(capsys, ["iso", nested(MAX_PARTS - 1), "F3"])
    assert code == 0 and out.endswith(" are isomorphic\n")


def chain(op, n):
    return f" {op} ".join(["F3"] * n)


@pytest.mark.parametrize("op", ["x", "ox"])
def test_long_chains_are_a_usage_error(capsys, op):
    """A chain of 1000 operands exits 3 with one line, at operand
    MAX_PARTS + 1, not with a RecursionError in evaluation and exit 1."""
    at = len(chain(op, MAX_PARTS + 1)) - len("F3")
    assert run(capsys, ["pasture", chain(op, 1000)]) == (
        3, "", budget_error(at))


def test_chains_up_to_the_bound_are_evaluated(capsys):
    """Chains of MAX_PARTS operands are evaluated: F3^100 has units C2^100,
    -1 = (1, .., 1) and one null orbit, and its tensor power is F3."""
    k = MAX_PARTS
    zero, ones = ", ".join(["0"] * k), ", ".join(["1"] * k)
    assert run(capsys, ["pasture", chain("x", k)]) == (0, "\n".join([
        f"pasture: {chain('x', k)}",
        f"units: {' x '.join(['C2'] * k)} (order {2 ** k})",
        f"epsilon: ({ones})",
        "null orbits (1):",
        f"  ({zero}), ({zero}), ({zero})\n"]), "")
    assert run(capsys, ["pasture", chain("ox", k)]) == (0, "\n".join([
        f"pasture: {chain('ox', k)}", "units: C2 (order 2)", "epsilon: (1)",
        "null orbits (1):", "  (0), (0), (0)\n"]), "")


def nested_chains(levels):
    """``levels`` groups, each holding a MAX_PARTS-operand ``x`` chain whose
    first operand is the next group in."""
    text = "F3"
    for _ in range(levels):
        text = "(" + text + " x F3" * (MAX_PARTS - 1) + ")"
    return text


# twelve '(' and F3 are 13 parts, so the F3 of the 88th ' x F3' is part 101;
# after one 100-operand ox chain, ' x ' comes before part 101
FOUND_AT = 12 + len("F3") + 88 * len(" x F3") - len("F3")
X_OF_OX_AT = len(chain("ox", MAX_PARTS)) + len(" x ")


@pytest.mark.parametrize("argv, at", [
    (["pasture", nested_chains(12)], FOUND_AT),
    (["iso", nested_chains(12), "F3"], FOUND_AT),
    (["iso", "F3", nested_chains(12)], FOUND_AT),
    (["pasture", " x ".join([chain("ox", MAX_PARTS)] * MAX_PARTS)],
     X_OF_OX_AT)],
    ids=["pasture", "iso-first", "iso-second", "x-of-ox"])
def test_nested_chains_share_one_budget(capsys, argv, at):
    """Chains and groups that each stay within MAX_PARTS but together pass
    it exit 3 with one line, at part MAX_PARTS + 1.  Twelve groups of
    100-operand chains (5966 characters) parsed when nesting and each
    chain were bounded apart, and then evaluation died with a
    RecursionError."""
    assert len(nested_chains(12)) == 5966
    assert run(capsys, argv) == (3, "", budget_error(at))


@st.composite
def near_budget(draw):
    """Texts of one to three levels of nested groups around chains of F2
    and F3, each level one operand of the next, from one part to about
    3.5 * MAX_PARTS, so the budget is met, passed and missed; F2 and F3
    keep a product of MAX_PARTS factors under a second."""
    text = draw(st.sampled_from(["F2", "F3"]))
    for _ in range(draw(st.integers(1, 3))):
        depth, n = draw(st.integers(0, 60)), draw(st.integers(1, 60))
        operands = draw(st.lists(st.sampled_from(["F2", "F3"]),
                                 min_size=n - 1, max_size=n - 1))
        operands.insert(draw(st.integers(0, n - 1)), text)
        op = f" {draw(st.sampled_from(['x', 'ox']))} "
        text = "(" * depth + op.join(operands) + ")" * depth
    return text


@given(near_budget())
@settings(max_examples=100, deadline=None)
def test_texts_near_the_budget_end_closed(text):
    """Every text is evaluated (exit 0) or refused with one line (exit 3,
    or 2 for a guard), never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["pasture", text])
    parts = text.count("(") + text.count("F")
    if parts <= MAX_PARTS:
        assert (code, err.getvalue()) == (0, "")
    else:
        assert code in (2, 3) and out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()


def library_exceptions():
    """Every exception class defined in a module of ``pastures``, by
    name."""
    found = set()
    for info in pkgutil.iter_modules(pastures.__path__):
        module = importlib.import_module(f"pastures.{info.name}")
        found.update(obj for obj in vars(module).values()
                     if isinstance(obj, type)
                     and issubclass(obj, BaseException)
                     and obj.__module__ == module.__name__)
    return sorted(found, key=lambda cls: cls.__name__)


EXCEPTIONS = library_exceptions()


@pytest.mark.parametrize("error", [
    cls for cls in EXCEPTIONS if issubclass(cls, InternalError)
    and cls is not InternalError], ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("argv", [
    ["lift", "--kind", "ternary", "F9"],
    ["lift-check", "--matroid", "U24", "--pasture", "F4", "--kind", "wlum"]],
    ids=["lift", "lift-check"])
def test_internal_invariant_failure_exits_4(capsys, monkeypatch, argv,
                                            error):
    """A failed check of the library's own invariants exits 4 with one
    line that names it, not 1 with a traceback, which ``lift-check`` would
    read as "not a bijection"."""
    def broken(lam):
        raise error("lambda does not cover the fundamental pairs")

    monkeypatch.setattr(lifts, "_check_pair_bijection", broken)
    assert run(capsys, argv) == (
        4, "", f"internal error: {error.__name__}: lambda does not cover "
               "the fundamental pairs\n")


@pytest.mark.parametrize("error", EXCEPTIONS, ids=lambda cls: cls.__name__)
def test_every_exception_has_one_exit_code(capsys, monkeypatch, error):
    """Each exception the library defines belongs to exactly one family: a
    refusal (exit 2), a failed check of the library's own invariants (exit
    4) or an input error, a ``ValueError`` (exit 3).  ``cli.main`` maps a
    raised instance by its family, with one line on stderr."""
    refusal = issubclass(error, (SearchSpaceExceeded, InfinitePasture))
    internal = issubclass(error, InternalError)
    usage = issubclass(error, ValueError) and not refusal and not internal
    assert refusal + internal + usage == 1, error
    exc = error.__new__(error)
    exc.args = ("no answer",)

    def raising(text):
        raise exc

    monkeypatch.setattr(cli, "pasture_of", raising)
    expected = {2: "guard tripped: no answer\n",
                4: f"internal error: {error.__name__}: no answer\n",
                3: "error: no answer\n"}
    code = 2 if refusal else 4 if internal else 3
    assert run(capsys, ["pasture", "U"]) == (code, "", expected[code])


def test_guard_message_goes_to_stderr(capsys):
    code, out, err = run(capsys, ["reps", "--matroid", "U24",
                                  "--pasture", "F9",
                                  "--max-candidates", "10"])
    assert code == 2
    assert out == ""
    assert "guard" in err
