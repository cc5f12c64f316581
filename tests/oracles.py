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
* ``reference_product``: ``product_full`` built by multiplying the images
  of each factor's orbits under the two embeddings.
"""

import itertools

from pastures.groups import GroupMap, reduce_presentation
from pastures.hexagons import Hexagon, hexagons
from pastures.pasture import (Pasture, ProductResult, canonical_orbit,
                              quotient_full)


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
        expected = set(P.units.elements()) - {P.units.identity()}
        missing = expected - set(seen)
        if missing:
            return False, min(missing, key=P.units.key)
    return True, None


def reference_product(P: Pasture, Q: Pasture) -> ProductResult:
    """``product_full`` as it was built before it projected concatenated
    words: each orbit is the product of an orbit of P under ``embed1`` and
    a permutation of an orbit of Q under ``embed2``."""
    gp, gq = P.units, Q.units
    n1, n2 = gp.ngens, gq.ngens
    rows = [list(r) + [0] * n2 for r in gp.relation_rows()]
    rows += [[0] * n1 + list(r) for r in gq.relation_rows()]
    red = reduce_presentation(n1 + n2, rows,
                              list(gp.epsilon) + list(gq.epsilon))
    R = red.group
    proj = red.project.rows
    embed1, embed2 = GroupMap(R, proj[:n1]), GroupMap(R, proj[n1:])
    proj1 = GroupMap(gp, tuple(gp.reduce(w[:n1]) for w in red.sections))
    proj2 = GroupMap(gq, tuple(gq.reduce(w[n1:]) for w in red.sections))
    orbits = set()
    second = [tuple(map(embed2, b)) for b in Q.null_orbits]
    for a in P.null_orbits:
        a = tuple(map(embed1, a))
        for b in second:
            for perm in itertools.permutations(b):
                orbits.add(canonical_orbit(R, tuple(map(R.mul, a, perm))))
    label = None
    if P.label and Q.label:
        label = f"{P.label} x {Q.label}"
    return ProductResult(Pasture(R, frozenset(orbits), label),
                         proj1, proj2, embed1, embed2)
