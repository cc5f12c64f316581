"""Command-line front end.

Commands: pasture, hexagons, lift, hom, iso, reps, lift-check, verify.
Exit codes: 0 success, 1 verified false, 2 unknown or guard tripped,
3 usage error, 4 internal error: a check of the library's own invariants
failed, which is a bug, not an answer.

``parse`` reads the line from one table, ``_COMMANDS``, as argparse would
read the same declarations: ``--opt value`` or ``--opt=value``, options
before or after positionals, unique prefixes of long options, ``--``, and
the last of repeated options.  argparse is not imported: its import and
parser set-up cost more than most commands' own work.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

from .expr import pasture_of
from .groups import DEFAULT_CAP, InfinitePasture, SearchSpaceExceeded
from .hexagons import hexagons
from .lifts import LIFTS
from .matroids import (lift_bijection_check, matroid_from_json, mk4,
                       representation_classes, u24)
from .morphisms import Iso, NotIso, hom_set, iso_check
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
    homs = hom_set(P, Q, cap=args.max_candidates)
    data = {"source": P.label, "target": Q.label, "count": len(homs)}
    lines = [f"{len(homs)} morphisms {P.label} -> {Q.label}"]
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
    classes = representation_classes(M, P, cap=args.max_candidates)
    data = {"matroid": M.to_json(), "pasture": P.label,
            "count": len(classes)}
    lines = [f"{len(classes)} rescaling classes over {P.label} "
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
# options first.  An argument is (name, kind, default): an option if its
# name starts with "-", else a positional; it is required when its default
# is None.  A kind is bool (a flag), str (text), a list of choices, or an
# int: the least integer taken.
_HELP = ("-h/--help", bool, False)
_COMMON = [_HELP, ("--json", bool, False),
           ("--max-candidates", 1, DEFAULT_CAP)]
_KIND, _LIST = ("--kind", sorted(LIFTS), None), ("--list", bool, False)
_ON = [("--matroid", str, None), ("--pasture", str, None)]
_COMMANDS = {
    "pasture": (cmd_pasture, "evaluate an expression and print the pasture",
                [("expr", str, None)]),
    "hexagons": (cmd_hexagons, "list the hexagons of a pasture",
                 [("expr", str, None)]),
    "lift": (cmd_lift, "compute a lift", [_KIND, ("expr", str, None)]),
    "hom": (cmd_hom, "count morphisms between two pastures",
            [_LIST, ("source", str, None), ("target", str, None)]),
    "iso": (cmd_iso, "decide whether two pastures are isomorphic",
            [("left", str, None), ("right", str, None)]),
    "reps": (cmd_reps, "rescaling classes of matroid representations",
             _ON + [_LIST]),
    "lift-check": (cmd_lift_check, "check the lift bijection on a matroid",
                   _ON + [_KIND]),
    "verify": (cmd_verify, "recompute a frozen reference suite",
               [("--max-q", 2, 64), ("suite", sorted(verify_mod.SUITES),
                                      None)])}
# The line itself: -h, then the command, which takes the rest of the line
_TOP = (None, "Compute with pastures: hexagons, lifts, morphisms, and matroid "
        "representations.\n\n" + "\n".join(
            f"  {c:<12}{row[1]}" for c, row in _COMMANDS.items()),
        [("COMMAND", _COMMANDS, 0)])


class _UsageError(ValueError):
    """A command line that does not parse; the message is its stderr."""


def _usage(command):
    """argparse's usage line, on one line."""
    if command is None:
        return "usage: pastures [-h] COMMAND ..."
    words = ["usage: pastures", command, "[-h] [--json] [--max-candidates N]"]
    for name, kind, default in _COMMANDS[command][2]:
        if isinstance(kind, list):
            word = "{" + ",".join(kind) + "}"
        else:
            word = name[2:].upper().replace("-", "_") if name[0] == "-" \
                else name
        if name[0] == "-":
            word = name if kind is bool else f"{name} {word}"
        words.append(word if default is None else f"[{word}]")
    return " ".join(words)


def _fail(command, reason, name=None):
    prog = f"pastures {command}" if command else "pastures"
    reason = f"argument {name}: {reason}" if name else reason
    raise _UsageError(f"{_usage(command)}\n{prog}: error: {reason}")


def _read(command, options, arg):
    """How argparse reads one argument: None for a positional, else the
    option's name (None if unknown) and the text after "=" (or None).  A
    long option may be given by a unique prefix."""
    if arg[:1] != "-" or len(arg) == 1:
        return None
    head, eq, tail = arg.partition("=")
    if arg in options or eq and head in options:
        return (arg, None) if arg in options else (head, tail)
    found = [(o, tail if eq else None) for o in options
             if arg[1] == "-" and o.startswith(head)]
    if arg[1] == "h":           # -h is the one short option: -hX
        found.append(("-h", arg[2:]))
    if len(found) > 1:
        _fail(command, f"ambiguous option: {arg} could match "
                       + ", ".join(o for o, _ in found))
    if found or re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return found[0] if found else None
    return None, None


def _value(command, name, kind, strings):
    """An argument's value as argparse gives it: one "--" among its strings
    is dropped (the command's strings keep theirs), and with none left the
    value is []."""
    if kind is not _COMMANDS and "--" in strings:
        strings.remove("--")
    value = strings[0] if strings else []
    if strings and type(kind) is int:
        try:
            value = int(value)
        except ValueError:
            _fail(command, f"invalid int value: {value!r}", name)
        if value < kind:
            _fail(command, f"must be at least {kind}, not {value}", name)
    if strings and isinstance(kind, (list, dict)) and value not in kind:
        _fail(command, f"invalid choice: {value!r} (choose from "
                       f"{', '.join(map(repr, kind))})", name)
    return value


def _parse(command, argv):
    """(values, leftover arguments) of ``argv``: a command's arguments, or
    the whole line when ``command`` is None; None after printing a help.
    Arguments are taken in argparse's order, so the error raised is the
    first that argparse reports."""
    handler, about, args = _COMMANDS.get(command, _TOP)
    own = (_COMMON if command else [_HELP]) + args
    options = {n: a for a in own for n in a[0].split("/") if n[0] == "-"}
    values = {a[0].lstrip("-").replace("-", "_"): a[2] for a in own[1:]}
    values.update(command=command, func=handler)
    # argparse's pattern of the line: O an option, A a positional, - the
    # first "--", after which every argument is a positional
    cut = argv.index("--") if "--" in argv else len(argv)
    found = {i: _read(command, options, a) for i, a in enumerate(argv[:cut])}
    marks = "".join("O" if f else "A" for f in found.values()) \
        + ("-" + "A" * (len(argv) - cut - 1)) * (cut < len(argv))
    todo, extras, i = [a for a in args if a[0][0] != "-"], [], 0
    while True:
        groups = ()
        for k in range(len(todo), 0, -1):   # as many positionals as fit
            match = re.match("(-*A-*)" * k if command else "(-*A[-AO]*)",
                             marks[i:])
            if match:
                groups = match.groups()
                break
        for (name, kind, _), group in zip(todo, groups):
            strings, i = argv[i:i + len(group)], i + len(group)
            values[name] = _value(command, name, kind, strings)
            if kind is _COMMANDS:       # the command takes the rest
                got = _parse(strings[0], strings[1:])
                if got is None:
                    return None
                values.update(got[0])
                extras += got[1]
        del todo[:len(groups)]
        nxt = min([j for j in found if found[j] and j >= i] + [len(argv)])
        extras += argv[i:nxt]
        if nxt == len(argv):
            break
        (option, text), i = found[nxt], nxt + 1
        kind = options[option][1] if option else None
        if kind is bool:        # a flag given a value is refused, but -hh…h
            rest = text.lstrip("h") if option == "-h" and text else text
            if text is not None and (rest or not text):
                _fail(command, f"ignored explicit argument {rest!r}",
                      options[option][0])
            if options[option] is _HELP:
                print(f"{_usage(command)}\n\n{about}")
                return None
            values[option[2:]] = True
        elif kind is None:
            extras.append(argv[nxt])
        elif text is None and marks[i:i + 1] != "A":
            _fail(command, "expected one argument", option)
        else:
            values[option[2:].replace("-", "_")] = _value(
                command, option, kind, [argv[i]] if text is None else [text])
            i += text is None
    missing = [a[0] for a in args
               if values[a[0].lstrip("-").replace("-", "_")] is None]
    if missing:
        _fail(command, "the following arguments are required: "
                       + ", ".join(missing))
    return values, extras


def parse(argv):
    """A command line, ``argv`` without the program name, read as argparse
    reads it from the same declarations: a namespace of ``command``,
    ``func``, its handler, and a field per argument; None after printing
    the help for -h.  Where argparse refuses, a ``ValueError`` is raised
    whose message is the usage line and ``pastures ...: error: ...``."""
    got = _parse(None, argv)
    if got is None:
        return None
    values, extras = got
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    if values.pop("COMMAND") == 0:
        raise _UsageError(_usage(None))
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return EXIT_USAGE
    if args is None:
        return EXIT_OK
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
