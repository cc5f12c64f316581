"""End-to-end tests for the command-line interface.

Each case drives ``pastures.cli.main`` in process and inspects the exit
code and captured output.  JSON outputs are compared byte for byte
against golden files under tests/data, which were produced by the same
commands and reviewed by hand.
"""

import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

from pastures import cli
from pastures.expr import pasture_of
from pastures.groups import DEFAULT_CAP, AbelianGroup, enumerate_homs
from pastures.matroids import lift_bijection_check, representation_classes
from pastures.morphisms import hom_set, iso_check

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
    # verified-false answers
    (["iso", "F4", "F5"], 1),
    (["iso", "U", "D"], 1),
    # guards: infinite unit group, then a deliberately tiny search cap
    (["reps", "--matroid", "U24", "--pasture", "G"], 2),
    (["reps", "--matroid", "U24", "--pasture", "F9",
      "--max-candidates", "10"], 2),
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



@pytest.mark.parametrize("argv, loads", [
    (["hexagons", "F7"], False), (["hexagons", "F7", "--json"], True)])
def test_json_is_imported_only_when_used(argv, loads):
    """A command without ``--json`` or a matroid file never imports json."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    code = ("import sys; from pastures import cli; "
            f"code = cli.main({argv!r}); "
            "sys.exit(code or 10 + ('json' in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 10 + loads, proc.stderr


# -- golden JSON outputs ------------------------------------------------

GOLDEN_CASES = [
    (["pasture", "U", "--json"], "golden_pasture_U.json"),
    (["hexagons", "F7", "--json"], "golden_hexagons_F7.json"),
    (["lift", "--kind", "ternary", "F9", "--json"],
     "golden_lift_ternary_F9.json"),
    # C6 x Z^20: ten U factors and one H
    (["lift", "--kind", "ternary", "F64", "--json"],
     "golden_lift_ternary_F64.json"),
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
    # the orbits and coordinates of a product and of a tensor
    (["pasture", "S x S", "--json"], "golden_pasture_SxS.json"),
    (["pasture", "D ox H ox F3", "--json"], "golden_pasture_DoxHoxF3.json"),
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
    assert f"(order {len(units.elements())})" in expected

    def refuse(self):
        raise AssertionError("AbelianGroup.elements called")

    monkeypatch.setattr(AbelianGroup, "elements", refuse)
    assert run(capsys, argv) == (0, expected, "")


def test_hom_guard_message(capsys):
    code, out, err = run(capsys, ["hom", "U", "F7", "--max-candidates", "10"])
    assert code == 2
    assert out == ""
    assert err == ("guard tripped: 36 candidate homomorphisms exceed the "
                   "cap of 10\n")


def test_one_default_cap(capsys):
    """Every search and the command line's --max-candidates default to
    ``DEFAULT_CAP``, 10^9: 127^4 candidates for U ox U into F128 are
    searched, 127^6 for U ox U ox U are refused."""
    for search in (hom_set, iso_check, enumerate_homs,
                   representation_classes, lift_bijection_check):
        assert inspect.signature(search).parameters["cap"].default \
            == DEFAULT_CAP == 10**9
    for argv in (["hom", "H", "F7"], ["iso", "F4", "F5"],
                 ["reps", "--matroid", "U24", "--pasture", "F5"],
                 ["lift-check", "--matroid", "U24", "--pasture", "F4",
                  "--kind", "ternary"]):
        assert cli.build_parser().parse_args(argv).max_candidates \
            == DEFAULT_CAP
    assert run(capsys, ["hom", "U ox U", "F128"]) == (
        0, "15876 morphisms U ox U -> F128\n", "")
    assert run(capsys, ["hom", "U ox U ox U", "F128"]) == (
        2, "", "guard tripped: 4195872914689 candidate homomorphisms exceed "
        "the cap of 1000000000\n")


def test_iso_guard_counts_the_hom_pools(capsys):
    # D's -1 is forced and its free generator z takes D's torsion units
    # 1 and -1 as its torsion part: 1 * 2 candidates, each searched with
    # z -> t*z and z -> t/z
    argv = ["iso", "D", "F1pm<z>//(z^-1+z^-1-1)", "--max-candidates"]
    assert run(capsys, argv + ["1"]) == (
        2, "unknown: 2 candidate homomorphisms exceed the cap of 1\n", "")
    code, out, err = run(capsys, argv + ["2"])
    assert (code, err) == (0, "")
    assert out.endswith(" are isomorphic\n")


def test_guard_message_goes_to_stderr(capsys):
    code, out, err = run(capsys, ["reps", "--matroid", "U24",
                                  "--pasture", "F9",
                                  "--max-candidates", "10"])
    assert code == 2
    assert out == ""
    assert "guard" in err
