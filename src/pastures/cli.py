"""Command-line front end.

Commands: pasture, hexagons, lift, hom, iso, reps, lift-check, verify.
Exit codes: 0 success, 1 verified false, 2 unknown or guard tripped,
3 usage error, 4 internal error: a check of the library's own invariants
failed, which is a bug, not an answer.

``parse`` reads a line in plain form, as every command is typed in the
README, the tests and the benchmark, straight from one table,
``_COMMANDS``, without importing argparse: its import and parser set-up
cost more than most commands' own work.  Any other line, a help
included, goes to argparse, built from the same table.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .expr import pasture_of
from .groups import DEFAULT_CAP, InfinitePasture, SearchSpaceExceeded
from .hexagons import hexagons
from .lifts import LIFTS
from .matroids import (_foundation_over, lift_bijection_check,
                       matroid_from_json, mk4, representation_classes, u24)
from .morphisms import Iso, NotIso, _count, _model, hom_set, iso_check
from .record import InternalError
from . import verify as verify_mod

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

BUILTIN_MATROIDS = {"U24": u24, "MK4": mk4}


def _emit(args, data: dict, text: str) -> None:
    if args.json:
        import json     # here, not at the top: most commands print no JSON
        json.dump(data, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _group_str(g) -> str:
    parts = [f"C{d}" for d in g.torsion]
    if g.free_rank:
        parts.append("Z" if g.free_rank == 1 else f"Z^{g.free_rank}")
    return " x ".join(parts) if parts else "trivial"


def _coords_str(coords) -> str:
    return "(" + ", ".join(str(c) for c in coords) + ")"


def _load_matroid(source: str):
    if os.path.exists(source):
        import json
        with open(source) as fh:
            return matroid_from_json(json.load(fh))
    key = source.upper()
    if key in BUILTIN_MATROIDS:
        return BUILTIN_MATROIDS[key]()
    raise ValueError(f"no matroid file or builtin named {source!r}")


def cmd_pasture(args) -> int:
    P = pasture_of(args.expr)
    d = P.descriptor()
    lines = [f"pasture: {P.label}",
             f"units: {_group_str(P.units)}"
             + ("" if not P.is_finite
                else f" (order {P.units.size()})"),
             f"epsilon: {_coords_str(P.eps)}",
             f"null orbits ({len(d['null_orbits'])}):"]
    for o in P.sorted_orbits():
        lines.append("  " + ", ".join(_coords_str(x) for x in o))
    _emit(args, d, "\n".join(lines))
    return EXIT_OK


def cmd_hexagons(args) -> int:
    P = pasture_of(args.expr)
    hexes = hexagons(P)
    data = {"pasture": P.label, "hexagons": [h.record(P) for h in hexes]}
    lines = [f"hexagons of {P.label}: {len(hexes)}"]
    for h in hexes:
        a, b = h.canonical_pair
        sup = ", ".join(_coords_str(s) for s in sorted(h.support))
        lines.append(f"  {h.kind} mu={h.mu} "
                     f"pair=({_coords_str(a)}, {_coords_str(b)}) "
                     f"support={{{sup}}}")
    _emit(args, data, "\n".join(lines))
    return EXIT_OK


def cmd_lift(args) -> int:
    P = pasture_of(args.expr)
    res = LIFTS[args.kind](P)
    L = res.lift
    data = {"kind": args.kind,
            "source": P.descriptor(),
            "lift": L.descriptor(),
            "factor_descriptor": res.factor_descriptor,
            "lambda": [list(r) for r in res.lam.images()]}
    lines = [f"{args.kind} lift of {P.label}",
             f"lift units: {_group_str(L.units)}; "
             f"null orbits: {len(L.null_orbits)}"]
    if res.factor_descriptor is not None:
        lines.append("factor descriptor: " + " ".join(
            f"{k}={v}" for k, v in res.factor_descriptor.items()))
    lines.append("lambda on generators: "
                 + "; ".join(_coords_str(r) for r in res.lam.images()))
    _emit(args, data, "\n".join(lines))
    return EXIT_OK


def cmd_hom(args) -> int:
    P = pasture_of(args.source)
    Q = pasture_of(args.target)
    homs = hom_set(P, Q, cap=args.max_candidates) if args.list else ()
    n = len(homs) if args.list else _count(*_model(P, Q, args.max_candidates))
    data = {"source": P.label, "target": Q.label, "count": n}
    lines = [f"{n} morphisms {P.label} -> {Q.label}"]
    if args.list:
        data["morphisms"] = [[list(r) for r in m.images()] for m in homs]
        for m in homs:
            lines.append(
                "  " + "; ".join(_coords_str(r) for r in m.images()))
    _emit(args, data, "\n".join(lines))
    return EXIT_OK


def cmd_iso(args) -> int:
    P = pasture_of(args.left)
    Q = pasture_of(args.right)
    res = iso_check(P, Q, cap=args.max_candidates)
    if isinstance(res, Iso):
        data = {"result": "iso",
                "morphism": [list(r) for r in res.morphism.images()]}
        _emit(args, data, f"{P.label} and {Q.label} are isomorphic")
        return EXIT_OK
    if isinstance(res, NotIso):
        data = {"result": "not-iso", "reason": res.reason}
        _emit(args, data,
              f"{P.label} and {Q.label} are not isomorphic: {res.reason}")
        return EXIT_FALSE
    data = {"result": "unknown", "reason": res.reason}
    _emit(args, data, f"unknown: {res.reason}")
    return EXIT_UNKNOWN


def cmd_reps(args) -> int:
    M = _load_matroid(args.matroid)
    P = pasture_of(args.pasture)
    classes = (representation_classes(M, P, cap=args.max_candidates)
               if args.list else ())
    n = len(classes) if args.list else _count(*_model(
        _foundation_over(M, P)[0], P, args.max_candidates))
    data = {"matroid": M.to_json(), "pasture": P.label, "count": n}
    lines = [f"{n} rescaling classes over {P.label} "
             f"(n={M.n}, rank={M.rank}, {len(M.bases)} bases)"]
    if args.list:
        data["classes"] = [{"size": c.size,
                            "representative": c.representative.record()}
                           for c in classes]
        for c in classes:
            vals = ", ".join(_coords_str(v.coords)
                             for v in c.representative.values)
            lines.append(f"  size {c.size}: [{vals}]")
    _emit(args, data, "\n".join(lines))
    return EXIT_OK


def cmd_lift_check(args) -> int:
    M = _load_matroid(args.matroid)
    P = pasture_of(args.pasture)
    res = LIFTS[args.kind](P)
    rep = lift_bijection_check(M, res, cap=args.max_candidates)
    data = {"matroid": M.to_json(), "pasture": P.label, "kind": args.kind,
            "ok": rep.ok, "lift_classes": rep.source_classes,
            "base_classes": rep.target_classes,
            "pairs": [list(p) for p in rep.pairs]}
    verdict = "bijection" if rep.ok else "NOT a bijection"
    text = (f"{args.kind} lift of {P.label}: pushforward is {verdict} "
            f"({rep.source_classes} lift classes, "
            f"{rep.target_classes} base classes)")
    _emit(args, data, text)
    return EXIT_OK if rep.ok else EXIT_FALSE


def cmd_verify(args) -> int:
    report = verify_mod.run(args.suite, max_q=args.max_q)
    lines = []
    for item in report.items:
        mark = "PASS" if item.ok else "FAIL"
        detail = f"  ({item.detail})" if item.detail and not item.ok else ""
        lines.append(f"{mark}  {item.name}{detail}")
    failures = sum(1 for i in report.items if not i.ok)
    lines.append(f"suite {report.suite}: {len(report.items)} checks, "
                 f"{failures} failures")
    _emit(args, report.to_json(), "\n".join(lines))
    return EXIT_OK if report.ok else EXIT_FALSE


# The command table: per command its handler, its help and its arguments,
# options first.  An argument is (name, kind, default, help): an option if
# its name starts with "-", else a positional; it is required when its
# default is None.  A kind is bool (a flag), str (text), a list of choices,
# or an int: the least integer taken.
_EXPR = ("expr", str, None, "a pasture expression, such as F7 or \"U ox H\"")
_COMMON = [("--json", bool, False, "print the answer as JSON"),
           ("--max-candidates", 1, DEFAULT_CAP,
            "cap on the steps of a hom search (default %(default)s)")]
_KIND = ("--kind", sorted(LIFTS), None, "the lift to compute")
_ON = [("--matroid", str, None, "a matroid JSON file, or the builtin U24 "
                                "or MK4"),
       ("--pasture", str, None, "the pasture expression to represent over")]
_COMMANDS = {
    "pasture": (cmd_pasture, "evaluate an expression and print the pasture",
                [_EXPR]),
    "hexagons": (cmd_hexagons, "list the hexagons of a pasture", [_EXPR]),
    "lift": (cmd_lift, "compute a lift", [_KIND, _EXPR]),
    "hom": (cmd_hom, "count morphisms between two pastures",
            [("--list", bool, False,
              "print the generator images of every morphism"),
             ("source", str, None, "the source pasture expression"),
             ("target", str, None, "the target pasture expression")]),
    "iso": (cmd_iso, "decide whether two pastures are isomorphic",
            [("left", str, None, "a pasture expression"),
             ("right", str, None, "a pasture expression")]),
    "reps": (cmd_reps, "rescaling classes of matroid representations",
             _ON + [("--list", bool, False,
                     "print a representative of each class")]),
    "lift-check": (cmd_lift_check, "check the lift bijection on a matroid",
                   _ON + [_KIND]),
    "verify": (cmd_verify, "recompute a frozen reference suite",
               [("--max-q", 2, 64, "the largest prime power of table1 "
                                   "(default %(default)s)"),
                ("suite", sorted(verify_mod.SUITES), None,
                 "the suite to recompute")])}


class _UsageError(ValueError):
    """A command line that does not parse; the message is its stderr."""


def _field(name):
    """The namespace field of an argument, as argparse names it."""
    return name.lstrip("-").replace("-", "_")


def _plain(argv):
    """The namespace of a line in plain form, else None.  Plain: the
    command first; each option under its full name; a value as the next
    word, not starting with "-", or after "=", not "--"; a flag without
    "="; no positional starting with "-"; every value of its kind, and
    every required argument given.  argparse reads such a line the same."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, args = _COMMANDS[argv[0]]
    options = {a[0]: a[1] for a in _COMMON + args if a[0][0] == "-"}
    todo = [a for a in args if a[0][0] != "-"]
    values = {_field(a[0]): a[2] for a in _COMMON + args}
    words = iter(argv[1:])
    for word in words:
        name, eq, text = word.partition("=")
        if word[:1] != "-":                     # the next positional
            if not todo:
                return None
            (name, kind, _, _), text = todo.pop(0), word
        else:
            kind = options.get(name)
            if kind is bool and not eq:
                values[_field(name)] = True
                continue
            text = text if eq else next(words, "-")
            if kind in (None, bool) or (text == "--" if eq
                                        else text[:1] == "-"):
                return None
        if type(kind) is int:
            try:
                text = int(text)
            except ValueError:
                return None
            if text < kind:
                return None
        elif kind is not str and text not in kind:
            return None
        values[_field(name)] = text
    if None in values.values():         # a required argument is missing
        return None
    return SimpleNamespace(command=argv[0], func=handler, **values)


def parse(argv):
    """A command line, ``argv`` without the program name: a namespace of
    ``command``, ``func``, its handler, and a field per argument; None
    after printing a help.  A line in plain form is read from the table;
    any other is read by argparse from the same rows, and where argparse
    refuses, a ``ValueError`` is raised whose message is its usage line
    and ``pastures ...: error: ...``."""
    args = _plain(argv)
    if args is not None:
        return args
    import argparse     # here, not at the top: plain lines never need it

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(f"{self.format_usage().strip()}\n"
                              f"{self.prog}: error: {message}")

    def wide(prog):     # the usage on one line
        return argparse.HelpFormatter(prog, width=1 << 16)

    def at_least(low):
        def read(text):
            value = int(text)
            if value < low:
                raise argparse.ArgumentTypeError(
                    f"must be at least {low}, not {value}")
            return value
        read.__name__ = "int"   # argparse says "invalid int value: 'x'"
        return read

    top = Parser(prog="pastures", formatter_class=wide,
                 description="Compute with pastures: hexagons, lifts, "
                             "morphisms, and matroid representations.")
    commands = top.add_subparsers(dest="command", metavar="COMMAND")
    for command, (handler, about, args) in _COMMANDS.items():
        sub = commands.add_parser(command, help=about, formatter_class=wide)
        sub.set_defaults(func=handler)
        for name, kind, default, about in _COMMON + args:
            if kind is bool:
                sub.add_argument(name, action="store_true", help=about)
                continue
            sub.add_argument(
                name, default=default, help=about,
                choices=kind if isinstance(kind, list) else None,
                type=at_least(kind) if type(kind) is int else None,
                metavar="N" if name == "--max-candidates" else None,
                **{"required": default is None} if name[0] == "-" else {})
    try:
        args = top.parse_args(argv)
    except SystemExit:          # a help, printed
        return None
    if args.command is None:
        raise _UsageError(top.format_usage().strip())
    return args


def main(argv=None) -> int:
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return EXIT_USAGE
    if args is None:
        return EXIT_OK
    # argparse reads the lone string "--" of an argument as no string: []
    for name, *_ in _COMMON + _COMMANDS[args.command][2]:
        if getattr(args, _field(name)) == []:
            print(f"error: argument {name}: expected one argument",
                  file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    # refusals first: InfinitePasture is a ValueError too
    except (SearchSpaceExceeded, InfinitePasture) as e:
        print(f"guard tripped: {e}", file=sys.stderr)
        return EXIT_UNKNOWN
    except InternalError as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
