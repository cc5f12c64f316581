"""Command-line front end.

Commands: pasture, hexagons, lift, hom, iso, reps, lift-check, verify.
Exit codes: 0 success, 1 verified false, 2 unknown or guard tripped,
3 usage error, 4 internal error: a check of the library's own invariants
failed, which is a bug, not an answer.
"""

from __future__ import annotations

import argparse
import os
import sys

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


def _int_at_least(low: int):
    """An argparse ``type``: an integer no smaller than ``low``, so that a
    malformed bound is a usage error and not a vacuous or refused run."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, not {value}")
        return value
    parse.__name__ = "int"      # argparse reports "invalid int value: 'x'"
    return parse


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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    common.add_argument("--max-candidates", type=_int_at_least(1),
                        metavar="N", default=DEFAULT_CAP,
                        help="hom search steps (default %(default)s)")

    parser = argparse.ArgumentParser(
        prog="pastures",
        description="Compute with pastures: hexagons, lifts, morphisms, "
                    "and matroid representations.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("pasture", parents=[common],
                       help="evaluate an expression and print the pasture")
    p.add_argument("expr")
    p.set_defaults(func=cmd_pasture)

    p = sub.add_parser("hexagons", parents=[common],
                       help="list the hexagons of a pasture")
    p.add_argument("expr")
    p.set_defaults(func=cmd_hexagons)

    p = sub.add_parser("lift", parents=[common], help="compute a lift")
    p.add_argument("--kind", required=True, choices=sorted(LIFTS))
    p.add_argument("expr")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("hom", parents=[common],
                       help="count morphisms between two pastures")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--list", action="store_true",
                   help="print generator images of every morphism")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("iso", parents=[common],
                       help="decide whether two pastures are isomorphic")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("reps", parents=[common],
                       help="rescaling classes of matroid representations")
    p.add_argument("--matroid", required=True,
                   help="JSON file, or builtin U24 / MK4")
    p.add_argument("--pasture", required=True)
    p.add_argument("--list", action="store_true",
                   help="print a representative per class")
    p.set_defaults(func=cmd_reps)

    p = sub.add_parser("lift-check", parents=[common],
                       help="check the lift bijection on a matroid")
    p.add_argument("--matroid", required=True,
                   help="JSON file, or builtin U24 / MK4")
    p.add_argument("--pasture", required=True)
    p.add_argument("--kind", required=True, choices=sorted(LIFTS))
    p.set_defaults(func=cmd_lift_check)

    p = sub.add_parser("verify", parents=[common],
                       help="recompute a frozen reference suite")
    p.add_argument("suite", choices=sorted(verify_mod.SUITES))
    p.add_argument("--max-q", type=_int_at_least(2), default=64,
                   help="largest prime power for table1 (default 64)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if e.code is not None else 0
        return EXIT_USAGE if code not in (0,) else 0
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
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
