"""Pasture morphisms: multiplicative maps preserving 0, 1, -1 and nullness.

A morphism is stored by the images of the source's canonical unit generators.
Validation enforces three things: the images respect the generator orders,
-1 maps to -1 (as an equality of elements, so a source with -1 = 1 can only
map to targets with -1 = 1), and every stored null orbit maps to a null
triple of the target.
"""

from __future__ import annotations

import math
from operator import concat, mul

from .groups import (
    DEFAULT_CAP,
    GroupMap,
    InfiniteTargetError,
    SearchSpaceExceeded,
    hom_pools,
    identity_rows,
    is_surjective,
)
from .pasture import Pasture, canonical_orbit
from .record import Record, set_field as _set


class GroupHomViolation(ValueError):
    """Generator images do not respect the generator orders."""


class EpsilonViolation(ValueError):
    """-1 does not map to -1."""


class NullsetViolation(ValueError):
    """Some null orbit does not map to a null triple."""


class ChainMismatch(ValueError):
    """Composition of morphisms whose endpoints do not match."""


class PastureMorphism(Record):
    __slots__ = _fields = ("source", "target", "unit_map")

    def __init__(self, source, target, unit_map):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "unit_map", unit_map)

    def apply_unit(self, coords):
        return self.unit_map(coords)

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


def hom_set(source: Pasture, target: Pasture, *, cap: int = DEFAULT_CAP):
    """All morphisms source -> target, deterministically ordered: the order
    of ``groups.enumerate_homs`` (``itertools.product`` over the generator
    pools of ``groups.hom_pools``), keeping the candidates ``make`` accepts.

    One search, ``_pruned_images``, serves every target: a free source
    generator's image has a free part, which a morphism into a finite target
    has empty, and a torsion part, which the search finds.  Into an infinite
    target the source must be all-torsion, and the images lie in the
    finite torsion subgroup; a free source generator raises
    InfiniteTargetError.  The search enforces everything ``make`` validates
    (generator orders, -1 -> -1, every null orbit), so its survivors are
    built directly; ``make`` stays the constructor for generator images from
    elsewhere and is the oracle the tests compare this search with.
    SearchSpaceExceeded is raised when the product of the pool sizes
    exceeds ``cap``.
    """
    gs, gt = source.units, target.units
    if gs.free_rank and not gt.is_finite:
        raise InfiniteTargetError("free source generator with infinite target")
    return _pruned_images(source, target, cap,
                          [((0,) * gt.free_rank,) * gs.free_rank])


def _pruned_images(source: Pasture, target: Pasture, cap: int,
                   free_parts) -> list:
    """The morphisms source -> target whose free source generators have the
    free parts of their images given by an entry of ``free_parts``: one row
    of target free coordinates per free source generator.  The torsion parts
    are searched, over the torsion units indexed by ``Pasture.indexed``;
    the morphisms come sorted within each entry, in the order of
    ``itertools.product`` over the pools, and the entries in the order
    given.

    The pools are those of ``hom_pools``.  The checks are -1 -> -1 and, for
    each null orbit (x, y, z), that the images of x/z and y/z are -1 times
    a fundamental pair; the entry fixes the free parts of those images, so
    only the pairs filed under them are allowed.  A check is tested once all
    its generators have images.  Generators are assigned in a greedy order,
    fixed before the search: next comes the generator that closes the most
    checks (the first such).  Forward solve: when a check closes at
    generator k with coefficient +-1 on k (modulo the orders k's torsion
    part can have) in one source vector and 0 in the others, k's candidates
    are solved from the allowed tuples that agree with the images already
    known, and only those in k's pool are kept, in pool order; for a field
    that is at most one candidate, where a scan would try all q - 1 units.
    Other checks filter the candidates, and a generator that no check
    solves tries its whole pool.
    """
    gs, gt, form = source.units, target.units, target.indexed
    dims = tuple(zip(form.radix, form.strides))
    exponent = form.radix[-1] if form.radix else 1
    n, nt, homs = len(gt.torsion), len(gs.torsion), []
    pools = [[form.index[e[:n]] for e in pool]
             for pool in hom_pools(gs, gt, cap=cap)]
    # c times generator k's image depends on c modulo orders[k] only
    orders = [math.gcd(d, exponent) for d in gs.torsion] + \
        [exponent] * gs.free_rank
    orbits = [tuple(tuple(a - c for a, c in zip(w, z)) for w in (x, y))
              for x, y, z in source.null_orbits]
    members = [set(p) for p in pools]
    images = [0] * gs.ngens

    def image(terms):
        out = 0
        for d, s in dims:
            out += sum([c * (images[g] // s) for g, c in terms]) % d * s
        return out

    def column(b, c, cands):
        """The image of a source vector for each candidate in ``cands`` as
        the next generator's image, ``b`` the image of its other terms and
        ``c`` its coefficient on that generator."""
        col = [0] * len(cands)
        for d, s in dims:
            bs = b // s
            col = [v + (bs + c * (i // s)) % d * s
                   for v, i in zip(col, cands)]
        return col

    def extend(p):
        if p == len(order):
            found.append(tuple(images))
            return
        k = order[p]
        solver, tests = plan[p]
        if solver is None:
            cands = pools[k]
        else:
            terms, j, sign, table = solver
            known = [image(t) for t in terms]
            b = known.pop(j)
            solved = {sum([sign * (a // s - b // s) % d * s for d, s in dims])
                      for a in table.get(tuple(known), ())}
            cands = sorted(solved & members[k])
        for terms, coefs, allowed in tests:
            if not cands:
                break
            cols = zip(*[column(image(t), c, cands)
                         for t, c in zip(terms, coefs)])
            cands = [i for i, t in zip(cands, cols) if t in allowed]
        for i in cands:
            images[k] = i
            extend(p + 1)

    for part in free_parts:
        # the free part of each generator's image, and the columns that give
        # the free part of a source vector's image from its free coordinates
        shift = [(0,) * gt.free_rank] * nt + list(part)
        cols = [tuple(f[t] for f in part) for t in range(gt.free_rank)]
        # a check: source vectors, the allowed tuples of their images, and
        # for each vector j the table solving its image from the others'
        # (for vector 0 the pairs filed under the swapped free parts)
        checks = [((gs.epsilon,), {(form.eps,)}, ({(): [form.eps]},))]
        for vecs in orbits:
            key = tuple(tuple(sum(map(mul, w[nt:], c)) for c in cols)
                        for w in vecs)
            checks.append((vecs, form.pairs.get(key, ()),
                           (form.partners.get(key[::-1], {}),
                            form.partners.get(key, {}))))
        order, plan = _greedy_plan(checks, orders)
        found = []
        if plan is not None:
            extend(0)
        found.sort()
        homs += [PastureMorphism(source, target, GroupMap(gt, tuple(
            map(concat, map(form.torsion.__getitem__, row), shift))))
            for row in found]
    return homs


def _greedy_plan(checks, orders):
    """The generator order of ``_pruned_images`` and, for each generator in
    it, the checks that close there: ``(solver, tests)``, where ``solver``
    is ``(terms, j, sign, table)`` for the first check that solves the
    generator's image from vector j (else None) and ``tests`` lists the
    others as ``(terms, coefs, allowed)``.  ``terms`` gives each vector's
    (generator, coefficient) pairs over earlier generators.  Returns
    ``(order, None)`` when a check on no generator fails.
    """
    n = len(orders)
    left = []
    for vecs, allowed, tables in checks:
        gens = {g for w in vecs for g, c in enumerate(w) if c % orders[g]}
        if not gens and (0,) * len(vecs) not in allowed:
            return [], None
        if gens:
            left.append((gens, vecs, allowed, tables))
    order, plan = [], []
    while len(order) < n:
        closes = [0] * n
        for gens, *_ in left:
            if len(gens) == 1:
                closes[next(iter(gens))] += 1
        k = max((g for g in range(n) if g not in order),
                key=lambda g: (closes[g], -g))
        solver, tests = None, []
        rest = []
        for gens, vecs, allowed, tables in left:
            gens.discard(k)
            if gens:
                rest.append((gens, vecs, allowed, tables))
                continue
            terms = tuple(tuple((g, w[g] % orders[g]) for g in order
                                if w[g] % orders[g]) for w in vecs)
            coefs = tuple(w[k] % orders[k] for w in vecs)
            on_k = [j for j, c in enumerate(coefs) if c]
            if (solver is None and len(on_k) == 1
                    and coefs[on_k[0]] in (1, orders[k] - 1)):
                j = on_k[0]
                solver = (terms, j, 1 if coefs[j] == 1 else -1, tables[j])
            else:
                tests.append((terms, coefs, allowed))
        left = rest
        order.append(k)
        plan.append((solver, tests))
    return order, plan


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
    if not is_surjective(m.unit_map):
        return False
    image_orbits = {canonical_orbit(gt, tuple(m.unit_map(x) for x in o))
                    for o in m.source.null_orbits}
    return (image_orbits == m.target.null_orbits
            and len(m.source.null_orbits) == len(m.target.null_orbits))


def iso_check(P: Pasture, Q: Pasture, *, cap: int = DEFAULT_CAP):
    """Decide isomorphism.  Returns Iso(morphism), NotIso(reason) or
    Unknown(reason).

    Complete when both unit groups are finite or have free rank one; other
    shapes fall back to invariant screening and report Unknown when the
    screen passes.  Unknown is first-class: an exhausted search of a
    complete candidate set returns NotIso, anything short of that does not.
    Every isomorphism is a morphism, and at free rank one it sends the free
    generator z to t*z or t/z for a torsion unit t: the candidates are the
    morphisms of ``_pruned_images`` with those free parts, in that order,
    and the first that ``is_isomorphism`` accepts is returned.
    """
    gs, gt = P.units, Q.units
    if gs.torsion != gt.torsion or gs.free_rank != gt.free_rank:
        return NotIso("unit group invariants differ")
    if len(P.null_orbits) != len(Q.null_orbits):
        return NotIso("null orbit counts differ")
    if P == Q:
        return Iso(identity_morphism(P))
    if gs.free_rank > 1:
        return Unknown("unit groups of free rank >= 2: search not attempted")
    # a hexagon's size fixes its kind (hexagons.KIND_BY_MU)
    mus = lambda X: sorted(map(len, X.orbit_pairs))
    if mus(P) != mus(Q):
        return NotIso("hexagon type multisets differ")
    try:
        for m in _pruned_images(P, Q, cap, [((1,),), ((-1,),)]
                                if gs.free_rank else [()]):
            if is_isomorphism(m):
                return Iso(m)
    except SearchSpaceExceeded as e:
        return Unknown(str(e))
    return NotIso("exhausted all unit group isomorphisms")
