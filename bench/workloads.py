"""The four workloads: their inputs, operations and answer checks.

``cli`` runs the command line; the others call the public API.  Every
workload draws its inputs from the seed alone (``cli``, ``fields`` and
``presentations`` take the seed as the order of a fixed set of operations,
``reps`` also draws random matrices from it), so one seed always gives the
same operations in the same order.  A round is the whole list; a run only
ever attempts whole rounds.

Checks compare each answer with a value from :mod:`oracle` or with a
property the method must have.  An operation that raises, or a command that
exits with "undecided" (2), "usage" (3) or a traceback, has *failed*: the
program gave no answer.  An answer that contradicts its check makes the run
incorrect.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracle

WORKLOADS = ("cli", "fields", "presentations", "reps")

# fields: every prime power up to this, so the run includes q = 128.
FIELDS_MAX_Q = 128
# presentations: Zagier triples (q, p1, p2) with q up to this.  A GRS lift
# of F_q costs about q^3 in Smith normal form; 64 keeps a round near 5 s.
PRESENTATIONS_MAX_Q = 64
NAMED = ("F1pm", "K", "S", "W", "F2", "F3", "U", "D", "H", "G")
# The search cap `pastures verify matroid` passes for MK4 over F5.
MK4_CAP = 2 * 10**9

EXIT_OK, EXIT_FALSE, EXIT_UNKNOWN, EXIT_USAGE = 0, 1, 2, 3


class Failed(Exception):
    """The program gave no answer."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]   # None when the answer is right


def build(workload: str, seed: int) -> list:
    """The operations of one round, in order; imports the library."""
    return {"cli": cli_inprocess, "fields": fields,
            "presentations": presentations, "reps": reps}[workload](seed)


# -- cli ----------------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    argv: tuple
    expect: int                     # exit code of the right answer
    check: Callable[[str], "str | None"]   # on stdout, when exit == expect


def judge_cli(op: CliOp, code, out, err):
    """(failed, problem) for one finished command."""
    if code == op.expect:
        return False, op.check(out)
    if code in (EXIT_UNKNOWN, EXIT_USAGE) or "Traceback" in err:
        return True, f"exit {code}: {(err or out).strip()[-300:]}"
    return False, f"exit {code}, expected {op.expect}"


def _lines_with(*needles):
    def check(out):
        missing = [n for n in needles if n not in out.splitlines()]
        return f"missing line(s) {missing}" if missing else None
    return check


def _contains(text):
    return lambda out: None if text in out else f"no {text!r} in output"


def _check_hexagons(q, out):
    lines = out.splitlines()
    kinds = sorted(line.split()[0] for line in lines[1:])
    mus = [int(m) for m in re.findall(r" mu=(\d+) ", out)]
    if lines[0] != f"hexagons of F{q}: {sum(oracle.census(q).values())}":
        return f"header {lines[0]!r}"
    if kinds != sorted(oracle.census_kinds(q)):
        return f"kinds {kinds}"
    if sum(mus) != q - 2:
        return f"multiplicities {mus} do not sum to {q - 2}"
    return None


def _check_descriptor_line(q, out):
    m = re.search(r"^factor descriptor: (.*)$", out, re.M)
    got = dict(kv.split("=") for kv in m.group(1).split()) if m else {}
    got = {k: int(v) for k, v in got.items()}
    want = oracle.descriptor_of_kinds(oracle.census_kinds(q))
    return None if got == want else f"descriptor {got}, expected {want}"


def _check_hom_list(q, out):
    n = oracle.hom_h_count(q)
    lines = out.splitlines()
    if lines[0] != f"{n} morphisms H -> F{q}" or len(lines) != n + 1:
        return f"expected {n} morphisms, got {lines}"
    return None


def _check_reps_list(q, out):
    n, size = q - 2, (q - 1) ** 3
    sizes = [int(s) for s in re.findall(r"^  size (\d+):", out, re.M)]
    if not out.startswith(f"{n} rescaling classes over F{q} "):
        return f"header {out.splitlines()[0]!r}"
    if sizes != [size] * n:
        return f"class sizes {sizes}, expected {n} of {size}"
    return None


def _check_suite(suite, n_checks, out):
    m = re.search(r"^suite (\S+): (\d+) checks, (\d+) failures$", out, re.M)
    if not m or m.group(1) != suite:
        return "no summary line"
    if int(m.group(3)) or re.search(r"^FAIL", out, re.M):
        return f"failing items: {m.group(0)}"
    if n_checks is not None and int(m.group(2)) != n_checks:
        return f"{m.group(2)} checks, expected {n_checks}"
    return None


def _check_json(key, want, out):
    got = json.loads(out).get(key)
    return None if got == want else f"{key} = {got!r}, expected {want!r}"


SUITES = ("hex-lists", "table1", "table2", "lift-table", "glift", "triples",
          "idempotence", "matroid")


def cli_ops(seed: int) -> list:
    """Every command shown in README.md, all eight verify suites, three JSON
    answers, and two isomorphic pairs that `iso` cannot decide yet."""
    ops = [
        CliOp(("pasture", "F1pm<x,y>//(x+y-1)"), EXIT_OK,
              _lines_with("units: C2 x Z^2", "null orbits (1):")),
        CliOp(("hexagons", "F7"), EXIT_OK, partial(_check_hexagons, 7)),
        CliOp(("lift", "--kind", "ternary", "F9"), EXIT_OK,
              partial(_check_descriptor_line, 9)),
        CliOp(("hom", "H", "F7", "--list"), EXIT_OK,
              partial(_check_hom_list, 7)),
        CliOp(("iso", "F4", "F5"), EXIT_FALSE,
              _contains("F4 and F5 are not isomorphic")),
        CliOp(("reps", "--matroid", "U24", "--pasture", "F5", "--list"),
              EXIT_OK, partial(_check_reps_list, 5)),
        CliOp(("lift-check", "--matroid", "MK4", "--pasture", "F2",
               "--kind", "binary"), EXIT_OK,
              _contains("pushforward is bijection")),
        CliOp(("verify", "table1", "--max-q", "32"), EXIT_OK,
              partial(_check_suite, "table1", len(oracle.prime_powers(32)))),
        CliOp(("hom", "H", "F7", "--json"), EXIT_OK,
              partial(_check_json, "count", oracle.hom_h_count(7))),
        CliOp(("reps", "--matroid", "U24", "--pasture", "F5", "--json"),
              EXIT_OK, partial(_check_json, "count", 5 - 2)),
        CliOp(("iso", "F4", "F5", "--json"), EXIT_FALSE,
              partial(_check_json, "result", "not-iso")),
        # Isomorphic pairs; `iso` answers "unknown" (exit 2) for unit groups
        # of free rank >= 2, so both count as failed until that is fixed.
        CliOp(("iso", "U x F3", "F3 x U"), EXIT_OK,
              _contains("are isomorphic")),
        CliOp(("iso", "F1pm<a,b>//(a-b-1)", "U"), EXIT_OK,
              _contains("are isomorphic")),
    ]
    for suite in SUITES:
        n = len(oracle.prime_powers(64)) if suite == "table1" else None
        ops.append(CliOp(("verify", suite), EXIT_OK,
                         partial(_check_suite, suite, n)))
    random.Random(seed).shuffle(ops)
    return ops


def _run_cli_inprocess(argv):
    from pastures import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _inprocess_op(op: CliOp) -> Op:
    def run():
        code, out, err = _run_cli_inprocess(op.argv)
        failed, problem = judge_cli(op, code, out, err)
        if failed:
            raise Failed(problem)
        return problem

    return Op(" ".join(op.argv), run, lambda problem: problem)


def cli_inprocess(seed: int) -> list:
    """The cli commands run through ``pastures.cli.main`` in one process,
    for the traced run."""
    return [_inprocess_op(op) for op in cli_ops(seed)]


# -- fields ---------------------------------------------------------------------


def fields(seed: int) -> list:
    """Build F_q and its hexagons, ternary lift, Hom(U, F_q) and Hom(H, F_q)
    for every prime power q <= FIELDS_MAX_Q.  No q repeats, so no cache
    can carry work from one operation to the next."""
    from pastures.hexagons import fundamental_pairs, hexagons
    from pastures.lifts import ternary_lift
    from pastures.morphisms import hom_set
    from pastures.pasture import finite_field, named

    U, H = named("U"), named("H")

    def run(q):
        P = finite_field(q)
        return P, hexagons(P), ternary_lift(P), hom_set(U, P), hom_set(H, P)

    def check(q, got):
        P, hexes, lift, hom_u, hom_h = got
        kinds = sorted(h.kind for h in hexes)
        if kinds != sorted(oracle.census_kinds(q)):
            return f"hexagon kinds {kinds}"
        pairs = fundamental_pairs(P)
        if not len(pairs) == sum(h.mu for h in hexes) == q - 2:
            return f"{len(pairs)} fundamental pairs, expected {q - 2}"
        if len(P.null_orbits) != len(hexes):
            return f"{len(P.null_orbits)} null orbits, {len(hexes)} hexagons"
        if len(hom_u) != q - 2:
            return f"|Hom(U, F{q})| = {len(hom_u)}"
        if len(hom_h) != oracle.hom_h_count(q):
            return f"|Hom(H, F{q})| = {len(hom_h)}"
        want = oracle.descriptor_of_kinds(oracle.census_kinds(q))
        if lift.factor_descriptor != want:
            return f"ternary lift descriptor {lift.factor_descriptor}"
        return None

    qs = oracle.prime_powers(FIELDS_MAX_Q)
    random.Random(seed).shuffle(qs)
    return [Op(f"F{q}", partial(run, q), partial(check, q)) for q in qs]


# -- presentations ------------------------------------------------------------------


def presentations(seed: int) -> list:
    """GRS lifts of F_q and of F_p1 x F_p2 for every Zagier triple, each
    lifted again, with the ternary lifts of both; then the ternary, WLUM and
    GRS lifts of the named pastures."""
    from pastures.hexagons import fundamental_pairs, hexagons
    from pastures.lifts import grs_lift, ternary_lift, wlum_lift
    from pastures.morphisms import Iso, is_isomorphism, iso_check
    from pastures.pasture import finite_field, named, product

    def bijective_on_elements(res):
        lam = res.lam
        src = {a for a, _ in fundamental_pairs(res.lift)}
        image = {lam.unit_map(a) for a in src}
        target = {a for a, _ in fundamental_pairs(lam.target)}
        if len(image) != len(src) or image != target:
            return f"λ maps {len(src)} fundamental elements onto " \
                   f"{len(image)} of {len(target)}"
        return None

    def bijective_on_pairs(res):
        lam = res.lam
        src = fundamental_pairs(res.lift)
        image = {(lam.unit_map(a), lam.unit_map(b)) for a, b in src}
        target = fundamental_pairs(lam.target)
        if len(image) != len(src) or image != target:
            return "λ is not a bijection on fundamental pairs"
        return None

    def descriptor_is(want, res):
        if res.factor_descriptor != want:
            return f"descriptor {res.factor_descriptor}, expected {want}"
        return bijective_on_pairs(res)

    def idempotent(got):
        again, lam_iso, iso = got
        if not lam_iso:
            return "λ of the second lift is not an isomorphism"
        if not isinstance(iso, Iso):
            return f"iso_check of the second lift answers {iso!r}"
        return bijective_on_elements(again)

    def group(label, make, lt_want):
        state = {}

        def lift():
            state["P"] = make()
            state["L"] = grs_lift(state["P"])
            return state["L"]

        def relift():
            L = state["L"]
            again = grs_lift(L.lift)
            return again, is_isomorphism(again.lam), iso_check(again.lift,
                                                               L.lift)

        return [Op(f"Lg({label})", lift, bijective_on_elements),
                Op(f"Lg(Lg({label}))", relift, idempotent),
                Op(f"Lt({label})", lambda: ternary_lift(state["P"]),
                   partial(descriptor_is, lt_want))]

    triples = oracle.zagier_triples(PRESENTATIONS_MAX_Q)
    F = {q: finite_field(q) for q in sorted({x for t in triples for x in t})}
    groups = []
    for q in sorted({t[0] for t in triples}):
        want = oracle.descriptor_of_kinds(oracle.census_kinds(q))
        groups.append(group(f"F{q}", partial(F.get, q), want))
    for q, p1, p2 in triples:
        if q - 2 != (p1 - 2) * (p2 - 2):
            raise ValueError(f"({q}, {p1}, {p2}) is not a Zagier triple")
        # Lt(F_q) and Lt(F_p1 x F_p2) have equal factor descriptors.
        want = oracle.descriptor_of_kinds(oracle.census_kinds(q))
        groups.append(group(f"F{p1} x F{p2}",
                            partial(product, F[p1], F[p2]), want))
    for name in NAMED:
        P = named(name)
        kinds = [h.kind for h in hexagons(P)]
        collapsed = P.units.epsilon == P.units.identity()
        groups.append([
            Op(f"Lt({name})", partial(ternary_lift, P),
               partial(descriptor_is, oracle.descriptor_of_kinds(kinds))),
            Op(f"Lw({name})", partial(wlum_lift, P),
               partial(descriptor_is,
                       oracle.descriptor_of_kinds(kinds, int(collapsed)))),
            Op(f"Lg({name})", partial(grs_lift, P), bijective_on_elements),
        ])
    random.Random(seed).shuffle(groups)
    return [op for g in groups for op in g]


# -- reps ------------------------------------------------------------------------------


def reps(seed: int) -> list:
    """Representation classes of U24 over F_4..F_9 and MK4 over F_3..F_5,
    the lift-bijection checks of `verify matroid`, and the column matroids
    of matrices drawn from the seed: four rank-3 matrices with five columns
    over F_3, and three with five columns in general position over F_5."""
    from pastures.lifts import binary_lift, ternary_lift, wlum_lift
    from pastures.matroids import (Matroid, lift_bijection_check, mk4,
                                   representation_classes, u24)
    from pastures.pasture import PastureElement, finite_field

    rng = random.Random(seed)
    F = {q: finite_field(q) for q in (2, 3, 4, 5, 7, 8, 9)}
    U24, MK4 = u24(), mk4()

    def classes_are(count, size, classes):
        sizes = [len(c.members) for c in classes]
        if sizes != [size] * count:
            return f"class sizes {sizes}, expected {count} of {size}"
        return None

    def contains_points(p, M, matrices, classes):
        for cols in matrices:
            point = tuple(PastureElement((k,)) for k in
                          oracle.plucker_exponents(cols, p, M.bases))
            hits = sum(point in c.members for c in classes)
            if hits != 1:
                return f"Plücker vector of {cols} is in {hits} classes"
        return None

    def bijection(report):
        return None if report.ok else "pushforward is not a bijection"

    ops = []
    for q in (4, 5, 7, 8, 9):
        ops.append(Op(f"U24/F{q}", partial(representation_classes, U24, F[q]),
                      partial(classes_are, q - 2, (q - 1) ** 3)))
    for q in (3, 4, 5):
        ops.append(Op(f"MK4/F{q}", partial(representation_classes, MK4, F[q],
                                           cap=MK4_CAP),
                      partial(classes_are, 1, (q - 1) ** 5)))
    for label, M, lift in (("U24 Lt(F4)", U24, ternary_lift(F[4])),
                           ("U24 Lw(F4)", U24, wlum_lift(F[4])),
                           ("MK4 Lb(F2)", MK4, binary_lift(F[2]))):
        ops.append(Op(f"lift-check {label}",
                      partial(lift_bijection_check, M, lift), bijection))
    for i in range(4):
        cols = oracle.random_matrix(rng, 3, 5)
        M = Matroid.from_bases(5, 3, oracle.bases(cols, 3))
        ops.append(Op(f"seeded/F3 #{i}", partial(representation_classes, M,
                                                  F[3]),
                      partial(contains_points, 3, M, [cols])))
    matrices = [oracle.random_matrix(rng, 5, 5, uniform=True)
                for _ in range(3)]
    M = Matroid.from_bases(5, 3, oracle.bases(matrices[0], 5))
    ops.append(Op("seeded/F5 U35", partial(representation_classes, M, F[5]),
                  partial(contains_points, 5, M, matrices)))
    rng.shuffle(ops)
    return ops
