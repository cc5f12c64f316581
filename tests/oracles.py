"""Reference constructions and checks that the tests compare the library
with.  The library itself never calls them.

* ``free_algebra`` and ``quotient``: F1pm or any pasture with free units
  adjoined, and its quotient by relations given as elements; the oracle of
  ``pasture.presented``.
* ``validate``: the structural invariants of a stored pasture.
* ``classify_by_shape``: a hexagon's kind from its pairs alone, beside the
  size-based ``Hexagon.kind``.
* ``partition_check``: whether the hexagon supports partition the units
  other than 1.
* ``reference_product``: ``product_full`` built by projecting each
  orbit word over the concatenated factor coordinates.
* ``reference_mul`` and ``reference_inv``: group arithmetic with every
  coordinate added or negated in one pass and the torsion ones reduced in
  place after.
* ``reference_orbit_pairs``: a pasture's hexagons by one scaling per
  choice of the last entry of each null triple.
* ``reference_tensor_orbits``: the null orbits of ``tensor_full`` from
  words padded to the width of all factors.
* ``reference_grs_relations``: the relations of ``lifts.grs_lift`` as the
  sparse terms of ``pasture.presented``, which the lift writes as rows.
* ``gf_neg``, ``gf_sub``, ``gf_inv``, ``gf_minus_one`` and ``minus_one``:
  field and pasture operations that only the tests use.
* ``build_parser``: the command line declared with argparse, the
  reference of ``cli.parse``.
"""

import argparse
import itertools
from operator import add, concat, mod, neg

from pastures import verify as verify_mod
from pastures.cli import (cmd_hexagons, cmd_hom, cmd_iso, cmd_lift,
                          cmd_lift_check, cmd_pasture, cmd_reps, cmd_verify)
from pastures.groups import DEFAULT_CAP, GroupMap, reduce_presentation
from pastures.hexagons import Hexagon, fundamental_pairs, hexagons
from pastures.lifts import LIFTS, _g5_triples
from pastures.pasture import (Pasture, PastureElement, ProductResult,
                              canonical_orbit, quotient_full)


class DuplicateName(ValueError):
    """Free algebra generator names must be distinct."""


class UnexpectedUnitGroup(RuntimeError):
    """Adjoining free generators changed the torsion or the free rank
    in a way the construction rules out."""


def free_algebra(P: Pasture, names) -> Pasture:
    """Adjoin free commuting unit generators, one per name.

    The new generators occupy the last ``len(names)`` canonical coordinates,
    in the order given.
    """
    names = tuple(names)
    if len(set(names)) != len(names):
        raise DuplicateName(f"duplicate generator name in {names}")
    if not all(isinstance(n, str) and n for n in names):
        raise DuplicateName("generator names must be nonempty strings")
    g = P.units
    n = g.ngens + len(names)
    rows = [r + [0] * len(names) for r in g.relation_rows()]
    red = reduce_presentation(n, rows, list(g.epsilon) + [0] * len(names))
    # relations were already diagonal, so coordinates pass through unchanged
    if (red.group.torsion != g.torsion
            or red.group.free_rank != g.free_rank + len(names)):
        raise UnexpectedUnitGroup(
            f"adjoining {names} gave torsion {red.group.torsion} and free "
            f"rank {red.group.free_rank}")
    orbits = frozenset(
        tuple(red.project(list(x) + [0] * len(names)) for x in o)
        for o in P.null_orbits)
    label = None
    if P.label:
        label = f"{P.label}<{','.join(names)}>"
    return Pasture(red.group, orbits, label)


def quotient(P: Pasture, relations) -> Pasture:
    return quotient_full(P, relations).pasture


def validate(P: Pasture):
    """Structural checks; returns a list of problem strings."""
    problems = []
    g = P.units
    for i, d in enumerate(g.torsion):
        if d < 2:
            problems.append(f"invariant factor {d} < 2")
        if i and g.torsion[i - 1] and d % g.torsion[i - 1]:
            problems.append("invariant factors out of divisibility order")
    if len(g.epsilon) != g.ngens or g.reduce(g.epsilon) != g.epsilon:
        problems.append("epsilon not in reduced canonical coordinates")
    if g.mul(g.epsilon, g.epsilon) != g.identity():
        problems.append("epsilon does not square to 1")
    for o in P.null_orbits:
        if len(o) != 3:
            problems.append(f"orbit {o} is not a triple")
            continue
        if any(len(x) != g.ngens or g.reduce(x) != x for x in o):
            problems.append(f"orbit {o} has malformed coordinates")
            continue
        if canonical_orbit(g, o) != o:
            problems.append(f"orbit {o} is not in canonical form")
    return problems


def classify_by_shape(P: Pasture, hexagon: Hexagon) -> str:
    """Recompute the kind from the orbit structure alone (no orbit count):
    used as an independent cross-check of the mu-based classification."""
    g = P.units
    pairs = set(hexagon.pairs)
    if pairs == {(g.epsilon, g.epsilon)}:
        return "ternary"
    if any(a == b for a, b in pairs):
        return "dyadic"
    if all(b == g.inv(a) and g.power(b, 3) == g.epsilon for a, b in pairs):
        return "hexagonal"
    return "near-regular"


def partition_check(P: Pasture):
    """Check that hexagon supports are pairwise disjoint and, for finite P,
    cover the units other than 1.  Returns (ok, counterexample)."""
    hexes = hexagons(P)
    seen = {}
    for i, h in enumerate(hexes):
        for s in h.support:
            if s in seen:
                return False, s
            seen[s] = i
    if P.is_finite:
        expected = set(P.units.torsion_elements()) - {P.units.identity()}
        missing = expected - set(seen)
        if missing:
            return False, min(missing, key=P.units.key)
    return True, None


def reference_product(P: Pasture, Q: Pasture) -> ProductResult:
    """``product_full`` by the other route: each orbit word, an orbit of P
    concatenated with a permutation of an orbit of Q, projected through
    every row of the reduction."""
    gp, gq = P.units, Q.units
    n1, n2 = gp.ngens, gq.ngens
    rows = [list(r) + [0] * n2 for r in gp.relation_rows()]
    rows += [[0] * n1 + list(r) for r in gq.relation_rows()]
    red = reduce_presentation(n1 + n2, rows,
                              list(gp.epsilon) + list(gq.epsilon))
    R, project = red.group, red.project
    proj = project.rows
    embed1, embed2 = GroupMap(R, proj[:n1]), GroupMap(R, proj[n1:])
    proj1 = GroupMap(gp, tuple(gp.reduce(w[:n1]) for w in red.sections))
    proj2 = GroupMap(gq, tuple(gq.reduce(w[n1:]) for w in red.sections))
    orbits = frozenset(
        canonical_orbit(R, tuple(map(project, map(concat, a, perm))))
        for a in P.null_orbits for b in Q.null_orbits
        for perm in itertools.permutations(b))
    label = None
    if P.label and Q.label:
        label = f"{P.label} x {Q.label}"
    return ProductResult(Pasture(R, orbits, label),
                         proj1, proj2, embed1, embed2)


def reference_mul(g, a, b):
    """``AbelianGroup.mul`` with all coordinates added in one pass and the
    torsion ones reduced in place: as long as the shorter input when both
    go past the torsion, else as long as the shortest of the two inputs
    and the torsion."""
    t = g.torsion
    if len(a) > len(t) < len(b):
        out = list(map(add, a, b))
        for i, d in enumerate(t):
            out[i] %= d
        return tuple(out)
    return tuple(map(mod, map(add, a, b), t))


def reference_inv(g, a):
    """``AbelianGroup.inv`` in the one pass of ``reference_mul``."""
    t = g.torsion
    if len(a) > len(t):
        out = list(map(neg, a))
        for i, d in enumerate(t):
            out[i] %= d
        return tuple(out)
    return tuple(map(mod, map(neg, a), t))


def reference_orbit_pairs(P: Pasture) -> frozenset:
    """``Pasture.orbit_pairs`` by one scaling by -1/c for each rotation
    (a, b, c) of each null orbit: 3 inversions and 9 multiplications."""
    g = P.units
    orbits = set()
    for x, y, z in P.null_orbits:
        pairs = []
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            s = g.mul(P.eps, g.inv(c))
            a, b = g.mul(a, s), g.mul(b, s)
            pairs += ((a, b), (b, a))
        orbits.add(frozenset(pairs))
    return frozenset(orbits)


def reference_tensor_orbits(factors) -> frozenset:
    """The null orbits of ``tensor_full(factors)``, each factor orbit padded
    to a word over all factors' coordinates and projected through every row
    of the reduction."""
    factors = tuple(factors)
    if not factors:
        return frozenset()
    ngs = [F.units.ngens for F in factors]
    total = sum(ngs)
    offs = [sum(ngs[:i]) for i in range(len(factors))]

    def pad(i, x):
        return [0] * offs[i] + list(x) + [0] * (total - offs[i] - ngs[i])

    rows = [pad(i, r) for i, F in enumerate(factors)
            for r in F.units.relation_rows()]
    for i in range(len(factors) - 1):
        a = pad(i, factors[i].units.epsilon)
        b = pad(i + 1, factors[i + 1].units.epsilon)
        rows.append([x - y for x, y in zip(a, b)])
    red = reduce_presentation(total, rows, pad(0, factors[0].units.epsilon))
    return frozenset(
        canonical_orbit(red.group, tuple(red.project(pad(i, x)) for x in o))
        for i, F in enumerate(factors) for o in F.null_orbits)


def reference_grs_relations(P: Pasture) -> list:
    """The relations G1 to G5 of ``lifts.grs_lift(P)`` as the sparse terms
    of ``pasture.presented(len(F), ...)``, over (-1, t_a for a in F), F the
    fundamental elements of P in key order: t_a is the exponent map
    {1 + its index in F: 1}.  2-term relations in the order G1, G4, G2,
    G5, and G3 for one pair of each hexagon, between G4 and G2."""
    g = P.units
    pairs = fundamental_pairs(P)
    F = sorted({a for a, _ in pairs}, key=g.key)
    col = {a: 1 + i for i, a in enumerate(F)}
    one, minus = {}, {0: 1}

    def t(*elts):
        """The exponent map of the product of the t_a."""
        term = {}
        for a in elts:
            k = col[a]
            term[k] = term.get(k, 0) + 1
        return term

    relations = []
    if g.epsilon == g.identity():
        relations.append((one, one, None))                         # G1
    for a, b in sorted(pairs, key=lambda p: (g.key(p[0]), g.key(p[1]))):
        binv = g.inv(b)
        c = g.mul(g.epsilon, g.inv(g.mul(a, binv)))
        relations.append((t(a, binv, c), one, None))               # G4
    for a, b in map(min, P.orbit_pairs):
        relations.append((t(a), t(b), minus))                      # G3
    for a in F:
        relations.append((t(a, g.inv(a)), minus, None))           # G2
    for i, j, k in _g5_triples(g, F):
        relations.append((t(F[i], F[j], F[k]), minus, None))       # G5
    return relations


def gf_neg(F, a):
    """-a in GF(q): each base-p digit negated."""
    return F._undigits([(-x) % F.p for x in F._digits(a)])


def gf_sub(F, a, b):
    return F.add(a, gf_neg(F, b))


def gf_inv(F, a):
    """1/a in GF(q) by discrete logarithms."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return F.exp[(-F.dlog[a]) % (F.q - 1)]


def gf_minus_one(F):
    return gf_neg(F, 1)


def minus_one(P: Pasture) -> PastureElement:
    """The element -1 of a pasture."""
    return PastureElement(P.units.epsilon)


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
