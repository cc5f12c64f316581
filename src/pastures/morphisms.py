"""Pasture morphisms: multiplicative maps preserving 0, 1, -1 and nullness.

A morphism is stored by the images of the source's canonical unit generators.
Validation enforces three things: the images respect the generator orders,
-1 maps to -1 (as an equality of elements, so a source with -1 = 1 can only
map to targets with -1 = 1), and every stored null orbit maps to a null
triple of the target.
"""

from __future__ import annotations

import itertools
import math

from .groups import (
    GroupMap,
    SearchSpaceExceeded,
    enumerate_homs,
    hom_pools,
    identity_rows,
    is_surjective,
)
from .pasture import Pasture, PastureElement, ZERO, canonical_orbit
from .hexagons import hexagons as _hexagons
from .record import Record


class GroupHomViolation(ValueError):
    """Generator images do not respect the generator orders."""


class EpsilonViolation(ValueError):
    """-1 does not map to -1."""


class NullsetViolation(ValueError):
    """Some null orbit does not map to a null triple."""


class ChainMismatch(ValueError):
    """Composition of morphisms whose endpoints do not match."""


class PastureMorphism(Record):
    _fields = ("source", "target", "unit_map")

    def apply_unit(self, coords):
        return self.unit_map(coords)

    def apply(self, e: PastureElement) -> PastureElement:
        if e.is_zero:
            return ZERO
        return PastureElement(self.unit_map(e.coords))

    def images(self):
        return self.unit_map.rows


def make(source: Pasture, target: Pasture, images) -> PastureMorphism:
    """Build and validate a morphism from generator images (coordinate
    tuples in the target, one per source canonical generator)."""
    gs, gt = source.units, target.units
    images = tuple(gt.reduce(i) for i in images)
    if len(images) != gs.ngens:
        raise GroupHomViolation(
            f"expected {gs.ngens} generator images, got {len(images)}")
    for i, d in enumerate(gs.torsion):
        if gt.power(images[i], d) != gt.identity():
            raise GroupHomViolation(
                f"image {images[i]} of generator {i} does not satisfy "
                f"order {d}")
    gmap = GroupMap(gt, images)
    if gmap(gs.epsilon) != gt.epsilon:
        raise EpsilonViolation(
            f"-1 maps to {gmap(gs.epsilon)} instead of {gt.epsilon}")
    for o in source.null_orbits:
        img = tuple(gmap(x) for x in o)
        if not target._null3(*img):
            raise NullsetViolation(
                f"null orbit {o} maps to non-null triple {img}")
    return PastureMorphism(source, target, gmap)


def identity_morphism(P: Pasture) -> PastureMorphism:
    rows = identity_rows(P.units.ngens)
    return PastureMorphism(P, P, GroupMap(P.units, rows))


def compose(g: PastureMorphism, f: PastureMorphism) -> PastureMorphism:
    """The composite ``g after f``."""
    if f.target != g.source:
        raise ChainMismatch("codomain of f differs from domain of g")
    return PastureMorphism(f.source, g.target, f.unit_map.then(g.unit_map))


def hom_set(source: Pasture, target: Pasture, *, cap: int = 10**8):
    """All morphisms source -> target, deterministically ordered: the order
    of ``groups.enumerate_homs`` (``itertools.product`` over the generator
    pools of ``groups.hom_pools``), keeping the candidates ``make`` accepts.

    Finite targets are searched by ``_pruned_images``, which rejects a
    partial assignment as soon as it breaks -1 -> -1 or a null orbit, and
    every survivor is still validated by ``make``.  Infinite targets are
    allowed when the source unit group is all-torsion (images then lie in
    the finite torsion subgroup) and go through ``enumerate_homs``; raises
    InfiniteTargetError otherwise.  Either way SearchSpaceExceeded is raised
    when the product of the pool sizes exceeds ``cap``.
    """
    if target.is_finite:
        candidates = _pruned_images(source, target, cap)
    else:
        candidates = enumerate_homs(source.units, target.units, cap=cap)
    out = []
    for images in candidates:
        try:
            out.append(make(source, target, images))
        except NullsetViolation:
            continue
    return out


def _pruned_images(source: Pasture, target: Pasture, cap: int):
    """Generator images of the morphisms source -> target, for a finite
    target, in the order of ``enumerate_homs``.

    Target units are integers in mixed radix over the invariant factors d:
    coordinate t of unit i is ``i // stride[t] % d[t]``, so index order is
    ``key`` order, and coordinate t of a product of powers is the sum of
    ``c * (i // stride[t])`` mod d[t].  Backtracking over the source
    generators, -1 -> -1 and each null orbit (x, y, z) are checked once
    their last generator has an image; the orbit maps to a null triple
    exactly when the images of x/z and y/z are -1 times a fundamental pair.
    """
    gs, gt = source.units, target.units
    radix = gt.torsion
    strides = [math.prod(radix[t + 1:]) for t in range(len(radix))]

    def index(coords):
        return sum(c * s for c, s in zip(coords, strides))

    pools = [[index(e) for e in pool] for pool in hom_pools(gs, gt, cap=cap)]
    eps = gt.epsilon
    pairs = {(index(gt.mul(eps, a)), index(gt.mul(eps, b)))
             for a, b in target.null_pairs}
    # a check: source vectors and the allowed tuples of their images,
    # filed under its last generator (0 for none, else the generator + 1)
    checks = [((gs.epsilon,), {(index(eps),)})]
    for x, y, z in source.null_orbits:
        vecs = tuple(tuple(a - c for a, c in zip(w, z)) for w in (x, y))
        checks.append((vecs, pairs))
    buckets = [[] for _ in range(gs.ngens + 1)]
    for vecs, allowed in checks:
        last = max((k for w in vecs for k, c in enumerate(w) if c),
                   default=-1)
        buckets[last + 1].append((vecs, allowed))
    images = []

    def column(w, k, pool):
        """The image of source vector w for each candidate i in ``pool`` as
        generator k's image, the generators before k mapped to ``images``."""
        col = [0] * len(pool)
        for d, s in zip(radix, strides):
            b = sum(c * (i // s) for c, i in zip(w, images))
            col = [v + (b + w[k] * (i // s)) % d * s for v, i in zip(col, pool)]
        return col

    def extend(k):
        if k == len(pools):
            yield tuple(tuple(i // s % d for d, s in zip(radix, strides))
                        for i in images)
            return
        pool = pools[k]
        keep = [True] * len(pool)
        for vecs, allowed in buckets[k + 1]:
            cols = zip(*(column(w, k, pool) for w in vecs))
            keep = [ok and t in allowed for ok, t in zip(keep, cols)]
        for i, ok in zip(pool, keep):
            if ok:
                images.append(i)
                yield from extend(k + 1)
                images.pop()

    # a check with no generator compares identities
    if all((0,) * len(vecs) in allowed for vecs, allowed in buckets[0]):
        yield from extend(0)


# -- isomorphism checking ----------------------------------------------------


class Iso(Record):
    _fields = ("morphism",)

    def __bool__(self):
        return True


class NotIso(Record):
    _fields = ("reason",)

    def __bool__(self):
        return False


class Unknown(Record):
    _fields = ("reason",)

    def __bool__(self):
        return False


def is_isomorphism(m: PastureMorphism) -> bool:
    """Whether a given morphism is an isomorphism of pastures.

    On units: the canonical invariants must agree and the map must be
    surjective; finitely generated abelian groups are Hopfian, so a
    surjection between isomorphic groups is bijective.  On nullsets: the
    orbit sets must correspond exactly.
    """
    gs, gt = m.source.units, m.target.units
    if gs.torsion != gt.torsion or gs.free_rank != gt.free_rank:
        return False
    if not is_surjective(gs, m.unit_map):
        return False
    image_orbits = {canonical_orbit(gt, tuple(m.unit_map(x) for x in o))
                    for o in m.source.null_orbits}
    return (image_orbits == m.target.null_orbits
            and len(m.source.null_orbits) == len(m.target.null_orbits))


def _unit_iso_candidates(P: Pasture, Q: Pasture, cap):
    """Candidate unit isomorphisms P -> Q sending -1 to -1, for unit groups
    of free rank one: complete, since a free generator must map to a
    torsion element times the free generator or its inverse."""
    gs, gt = P.units, Q.units
    torsion_pool = gt.torsion_elements()
    per_gen = []
    for i, d in enumerate(gs.torsion):
        per_gen.append([e for e in torsion_pool
                        if all((d * c) % dd == 0
                               for c, dd in zip(e, gt.torsion))])
    free_images = []
    for sign in (1, -1):
        for t in torsion_pool:
            img = list(t)
            img[-1] = sign
            free_images.append(gt.reduce(img))
    per_gen.append(free_images)
    total = 1
    for p in per_gen:
        total *= len(p)
    if total > cap:
        raise SearchSpaceExceeded(
            f"{total} unit iso candidates exceed the cap of {cap}")
    for images in itertools.product(*per_gen):
        gmap = GroupMap(gt, tuple(images))
        if gmap(gs.epsilon) == gt.epsilon:
            yield PastureMorphism(P, Q, gmap)


def iso_check(P: Pasture, Q: Pasture, *, cap: int = 10**8):
    """Decide isomorphism.  Returns Iso(morphism), NotIso(reason) or
    Unknown(reason).

    Complete when both unit groups are finite or have free rank one; other
    shapes fall back to invariant screening and report Unknown when the
    screen passes.  Unknown is first-class: an exhausted search of a
    complete candidate set returns NotIso, anything short of that does not.
    Finite pastures are searched through ``hom_set``, since every
    isomorphism is a morphism.
    """
    gs, gt = P.units, Q.units
    if gs.torsion != gt.torsion or gs.free_rank != gt.free_rank:
        return NotIso("unit group invariants differ")
    if len(P.null_orbits) != len(Q.null_orbits):
        return NotIso("null orbit counts differ")
    if P == Q:
        return Iso(identity_morphism(P))
    if P.is_finite or gs.free_rank == 1:
        kinds = lambda X: sorted(h.kind for h in _hexagons(X))
        if kinds(P) != kinds(Q):
            return NotIso("hexagon type multisets differ")
        try:
            candidates = (hom_set(P, Q, cap=cap) if P.is_finite
                          else _unit_iso_candidates(P, Q, cap))
            for m in candidates:
                if is_isomorphism(m):
                    return Iso(m)
        except SearchSpaceExceeded as e:
            return Unknown(str(e))
        return NotIso("exhausted all unit group isomorphisms")
    return Unknown("unit groups of free rank >= 2: search not attempted")
