"""Pasture morphisms: multiplicative maps preserving 0, 1, -1 and nullness.

A morphism is stored by the images of the source's canonical unit generators.
Validation enforces three things: the images respect the generator orders,
-1 maps to -1 (as an equality of elements, so a source with -1 = 1 can only
map to targets with -1 = 1), and every stored null orbit maps to a null
triple of the target.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .groups import (
    GroupMap,
    SearchSpaceExceeded,
    enumerate_homs,
    identity_rows,
    is_surjective,
)
from .pasture import Pasture, PastureElement, ZERO, canonical_orbit
from .hexagons import hexagons as _hexagons


class GroupHomViolation(ValueError):
    """Generator images do not respect the generator orders."""


class EpsilonViolation(ValueError):
    """-1 does not map to -1."""


class NullsetViolation(ValueError):
    """Some null orbit does not map to a null triple."""


class ChainMismatch(ValueError):
    """Composition of morphisms whose endpoints do not match."""


@dataclass(frozen=True)
class PastureMorphism:
    source: Pasture
    target: Pasture
    unit_map: GroupMap

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
        if canonical_orbit(gt, img) not in target.null_orbits:
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
    """All morphisms source -> target, deterministically ordered.

    Finite targets are always fine; infinite targets are allowed when the
    source unit group is all-torsion (images then lie in the finite torsion
    subgroup).  Raises InfiniteTargetError otherwise and
    SearchSpaceExceeded past the candidate cap.
    """
    out = []
    for images in enumerate_homs(source.units, target.units, cap=cap):
        try:
            out.append(make(source, target, images))
        except NullsetViolation:
            continue
    return out


# -- isomorphism checking ----------------------------------------------------


@dataclass(frozen=True)
class Iso:
    morphism: PastureMorphism

    def __bool__(self):
        return True


@dataclass(frozen=True)
class NotIso:
    reason: str

    def __bool__(self):
        return False


@dataclass(frozen=True)
class Unknown:
    reason: str

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


def _unit_iso_candidates(gs, gt, cap):
    """Candidate generator images for a group isomorphism.  Complete for
    finite groups and for free rank one; yields nothing otherwise."""
    if gs.is_finite:
        yield from enumerate_homs(gs, gt, cap=cap)
        return
    if gs.free_rank == 1:
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
            yield tuple(images)


def iso_check(P: Pasture, Q: Pasture, *, cap: int = 10**8):
    """Decide isomorphism.  Returns Iso(morphism), NotIso(reason) or
    Unknown(reason).

    Complete when both unit groups are finite or have free rank one; other
    shapes fall back to invariant screening and report Unknown when the
    screen passes.  Unknown is first-class: an exhausted search of a
    complete candidate set returns NotIso, anything short of that does not.
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
            for images in _unit_iso_candidates(gs, gt, cap):
                gmap = GroupMap(gt, images)
                if gmap(gs.epsilon) != gt.epsilon:
                    continue
                if not is_surjective(gs, gmap):
                    continue
                m = PastureMorphism(P, Q, gmap)
                if is_isomorphism(m):
                    return Iso(m)
        except SearchSpaceExceeded as e:
            return Unknown(str(e))
        return NotIso("exhausted all unit group isomorphisms")
    return Unknown("unit groups of free rank >= 2: search not attempted")
