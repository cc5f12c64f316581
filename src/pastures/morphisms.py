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
from operator import getitem, mul

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


class SearchStats:
    """What the hom searches it is passed to did, summed over them:
    ``nodes``, the generator images assigned, one per node of the search
    tree below its root; ``floor``, the nodes with an answer below them,
    which is the least any search in the same order visits; ``prunes``,
    the candidate images a check cut from a domain; ``solves``, the checks
    that solved a domain from a pair table instead of testing each
    candidate; and ``survivors``, the morphisms found."""

    __slots__ = ("nodes", "floor", "prunes", "solves", "survivors")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)}" for n in self.__slots__)
        return f"SearchStats({inner})"


def hom_set(source: Pasture, target: Pasture, *, cap: int = DEFAULT_CAP,
            stats: SearchStats | None = None):
    """All morphisms source -> target, deterministically ordered: the order
    of ``groups.enumerate_homs`` (``itertools.product`` over the generator
    pools of ``groups.hom_pools``), keeping the candidates ``make`` accepts.

    One search, ``_pruned_images``, serves every target: a free source
    generator's image has a free part, which a morphism into a finite target
    has empty, and a torsion part, which the search finds.  Into an infinite
    target the source must be all-torsion, and the images lie in the
    finite torsion subgroup; a free source generator raises
    InfiniteTargetError.  The search assigns one generator image per node,
    keeps the image of every check vector as a running sum, narrows the
    domain of a generator as soon as a check has it as its last unassigned
    generator (forward checking), and takes next the generator with the
    smallest domain.  It enforces everything ``make`` validates (generator
    orders, -1 -> -1, every null orbit), so its survivors are built
    directly; ``make`` stays the constructor for generator images from
    elsewhere and is the oracle the tests compare this search with.
    SearchSpaceExceeded is raised when the product of the pool sizes
    exceeds ``cap``.  A ``stats`` record, when given, gets the search's
    counters added to it.
    """
    gs, gt = source.units, target.units
    if gs.free_rank and not gt.is_finite:
        raise InfiniteTargetError("free source generator with infinite target")
    return _pruned_images(source, target, cap,
                          [((0,) * gt.free_rank,) * gs.free_rank], stats)


def _pruned_images(source: Pasture, target: Pasture, cap: int,
                   free_parts, stats: SearchStats | None = None) -> list:
    """The morphisms source -> target whose free source generators have the
    free parts of their images given by an entry of ``free_parts``: one row
    of target free coordinates per free source generator.  The torsion parts
    are searched, over the torsion units indexed by ``Pasture.indexed``;
    the morphisms come sorted within each entry, in the order of
    ``itertools.product`` over the pools, and the entries in the order
    given.

    The domains start as the pools of ``hom_pools``.  A check is a pair of
    source vectors and the allowed pairs of their images: -1 -> -1 (with a
    zero vector), and for each null orbit (x, y, z) that the images of x/z
    and y/z are -1 times a fundamental pair; the entry fixes the free parts
    of those images, so only the pairs filed under them are allowed.

    Running images: every vector keeps its image over the generators
    assigned so far, all of them packed in one integer, one field per
    vector, each wide enough that no sum carries into the next
    (``_packing``).  Assigning generator k the unit x adds ``step[k]`` times
    x, whose fields hold k's coefficient in each vector, and the integer is
    passed down, so backtracking has nothing to undo.  Forward checking:
    when a check has one unassigned generator g left, g's domain is
    narrowed at once, solved from the pair table when one vector has
    coefficient +-1 on g (modulo the orders g's image can have) and the
    other 0, which for a field is at most one candidate, else by testing
    each candidate; an emptied domain prunes the node.  A check is never
    tested when it closes, as its last generator's domain already passed
    it.  The next generator is the unassigned one with the smallest domain,
    the lowest on ties.
    """
    gs, gt, form = source.units, target.units, target.indexed
    n, nt, ng = len(gt.torsion), len(gs.torsion), gs.ngens
    size = len(form.coords)
    exponent = form.radix[-1] if form.radix else 1
    # c times generator k's image depends on c modulo orders[k] only
    orders = [math.gcd(d, exponent) for d in gs.torsion] + \
        [exponent] * gs.free_rank
    pools = [range(size) if len(pool) == size else
             tuple(sum(map(mul, e, form.strides)) for e in pool)
             for pool in hom_pools(gs, gt, cap=cap)]
    orbits = [tuple(tuple(a - c for a, c in zip(w, z)) for w in (x, y))
              for x, y, z in source.null_orbits]
    # check ch: -1 -> -1 for ch = 0, else orbit ch - 1; its vectors are 2 ch
    # and 2 ch + 1, their images the fields of the packed images from bit
    # 2 ch width up; coefs[v] maps each generator of vector v to its
    # nonzero coefficient, and step[g] holds g's coefficients in every field
    vecs = [gs.epsilon, (0,) * ng] + [w for vw in orbits for w in vw]
    coefs = [{g: c % orders[g] for g, c in enumerate(w) if c % orders[g]}
             for w in vecs]
    nchecks = len(vecs) // 2
    modulus, packed, width = _packing(form, max(map(len, coefs)))
    mask = (1 << width) - 1
    masks = [sum(1 << g for g in coefs[2 * ch].keys() | coefs[2 * ch + 1])
             for ch in range(nchecks)]
    through = [[] for _ in range(ng)]
    step = [0] * ng
    for ch in range(nchecks):
        for j in (0, 1):
            for g, c in coefs[2 * ch + j].items():
                step[g] += c << (2 * ch + j) * width
                if not j or g not in coefs[2 * ch]:
                    through[g].append(ch)
    done = size + 1     # the domain size of an assigned generator
    nodes = floor = prunes = solves = survivors = 0
    homs = []

    def way(ch, g):
        """(g, low, shift, s, a, b, table): how check ch narrows the
        domain of g, its one generator without an image.  Its vector images
        are the two fields from bit ``shift``, read by masking the packed
        images with ``low`` and shifting, which costs less than shifting
        the whole integer.  For a solve, s = +-1: the vector at offset a
        has no g, ``table`` maps its image to the allowed images of the
        other, at offset b, which has coefficient s on g.  For a test,
        s = 0: a and b are g's coefficients and ``table`` the allowed
        pairs."""
        c0, c1 = coefs[2 * ch].get(g, 0), coefs[2 * ch + 1].get(g, 0)
        unit = (1, orders[g] - 1)
        sh = 2 * ch * width
        low = (1 << sh + 2 * width) - 1
        if c0 == 0 and c1 in unit:
            return g, low, sh, 1 - 2 * (c1 != 1), 0, width, by1[ch]
        if c1 == 0 and c0 in unit:
            return g, low, sh, 1 - 2 * (c0 != 1), width, 0, by0[ch]
        return g, low, sh, 0, c0, c1, pairs[ch]

    def plan(assigned, checks):
        """(closing, targets): the way of each of ``checks`` that has one
        generator without an image when those of the bit mask ``assigned``
        have theirs, and the generators these narrow."""
        closing = []
        for ch in checks:
            free = masks[ch] & ~assigned
            if free and not free & (free - 1):
                closing.append(way(ch, free.bit_length() - 1))
        return closing, {w[0] for w in closing}

    def narrow(images, closing):
        """Narrow the domain of g by each way of ``closing``, given the
        packed ``images``, and keep ``sizes`` with the domains; False when
        a domain is emptied, its size then 0, which prunes the node."""
        nonlocal solves
        count = 0
        for g, low, sh, s, a, b, table in closing:
            dom = doms[g]
            x = (images & low) >> sh
            if s:
                count += 1
                sol = table.get((x >> a & mask) % modulus, ())
                b = x >> b & mask
                if len(sol) == 1:
                    i = s * (packed[sol[0]] - b) % modulus
                    if i in dom:
                        doms[g], sizes[g] = (i,), 1
                        continue
                    new = ()
                else:
                    new = [i for i in [s * (packed[e] - b) % modulus
                                       for e in sol] if i in dom]
            else:
                x, y = x & mask, x >> width
                new = [i for i in dom if ((x + a * packed[i]) % modulus,
                                          (y + b * packed[i]) % modulus)
                       in table]
            sizes[g] = len(new)
            if not new:
                solves += count
                return False
            doms[g] = new
        solves += count
        return True

    def extend(images, depth, assigned):
        """Assign the next generator in turn to each candidate and search
        below, ``depth`` < ng - 1 generators having images, those of the
        bit mask ``assigned``; the number of answers found."""
        nonlocal nodes, floor, prunes
        k = sizes.index(min(sizes))
        cands = doms[k]
        nodes += len(cands)
        sizes[k] = done
        assigned |= 1 << k
        # the checks k leaves with one generator without an image depend on
        # the assigned generators only, and recur across the tree
        closing = plans.get(assigned * ng + k)
        if closing is None:
            closing = plans[assigned * ng + k] = plan(assigned, through[k])
        closing, targets = closing
        saved = [(g, doms[g], sizes[g]) for g in targets]
        # the one generator left after k, if so, whose checks its domain
        # passes: each of its candidates is an answer
        last = sizes.index(min(sizes)) if depth + 2 == ng else None
        # k's term of the packed images, for each image of k
        terms = multiples[k]
        if terms is None:
            terms = multiples[k] = [step[k] * x for x in packed]
        got = 0
        for i in cands:
            chosen[k] = i
            now = images + terms[i]
            if narrow(now, closing):
                if last is None:
                    below = extend(now, depth + 1, assigned)
                else:
                    below = len(doms[last])
                    for j in doms[last]:
                        chosen[last] = j
                        found.append(tuple(chosen))
                    nodes += below
                    floor += below
                if below:
                    floor += 1
                    got += below
            # the candidates the checks cut, from the sizes narrow left
            for g, dom, n in saved:
                prunes += n - sizes[g]
                doms[g], sizes[g] = dom, n
        sizes[k] = len(cands)
        return got

    for part in free_parts:
        # the free part of each generator's image, and the columns that give
        # the free part of a source vector's image from its free coordinates
        free = [(0,) * gt.free_rank] * nt + list(part)
        cols = [tuple(f[t] for f in part) for t in range(gt.free_rank)]
        # per check: the allowed image pairs, and the tables solving vector
        # 0 from vector 1's image and vector 1 from vector 0's
        pairs = [{(form.eps, 0)}]
        by0, by1 = [{0: [form.eps]}], [{form.eps: [0]}]
        for vw in orbits:
            key = tuple(tuple(sum(map(mul, w[nt:], c)) for c in cols)
                        for w in vw)
            pairs.append(form.pairs.get(key, ()))
            by0.append(form.partners.get(key[::-1], {}))
            by1.append(form.partners.get(key, {}))
        doms = list(pools)
        sizes = list(map(len, doms))
        plans, multiples = {}, [None] * ng
        # the images of each generator, in index order, as coordinates
        if gt.free_rank:
            cells = [[c[:n] + f for c in form.coords] for f in free]
        else:
            cells = [form.coords] * ng
        chosen = [0] * ng
        found = []
        # checks on no generator hold or fail outright, and checks on one
        # narrow its domain before the search
        holds = all(masks[ch] or (0, 0) in pairs[ch]
                    for ch in range(nchecks))
        if holds:
            holds = narrow(0, plan(0, range(nchecks))[0])
            prunes += sum(map(len, pools)) - sum(sizes)
        if holds:
            if ng > 1:
                extend(0, 0, 0)
            elif ng:
                found = [(i,) for i in doms[0]]
                nodes = floor = len(found)
            else:
                found.append(())
        found.sort()
        survivors += len(found)
        homs += [PastureMorphism(source, target, GroupMap(
            gt, tuple(map(getitem, cells, row)))) for row in found]
    if stats is not None:
        stats.nodes += nodes
        stats.floor += floor
        stats.prunes += prunes
        stats.solves += solves
        stats.survivors += survivors
    return homs


def _packing(form, terms: int):
    """(modulus, packed, width) for the torsion units of ``form``:
    ``packed[i]`` is unit i as an integer that adds like the unit's
    coordinates, in ``width`` bits, and ``value % modulus`` is the index of
    the unit that ``value`` stands for, when it is a sum of up to ``terms``
    packed units times coefficients below the exponent, or such a sum minus
    one packed unit.  Any such sum fits in ``width`` bits, so sums packed
    side by side never carry into each other.  With one invariant factor d
    the packed unit is its index and the modulus is d; otherwise see
    ``_Digits``."""
    exponent = form.radix[-1] if form.radix else 1
    w = ((terms + 1) * exponent * exponent).bit_length() + 1
    if len(form.radix) == 1:
        return exponent, range(exponent), w
    packed = [sum(c << (w * t) for t, c in enumerate(coords[::-1]))
              for coords in itertools.product(*map(range, form.radix))]
    return _Digits(form, w), packed, w * len(form.radix)


class _Digits:
    """The modulus of ``_packing`` for several invariant factors:
    coordinate t of a packed unit takes the w bits from w (n - 1 - t) up,
    and ``value % digits`` reads each field back with its sign, reduces it
    modulo its factor and returns the index of the unit."""

    __slots__ = ("w", "dims")

    def __init__(self, form, w):
        self.w, self.dims = w, list(zip(form.radix, form.strides))[::-1]

    def __rmod__(self, value):
        w, out = self.w, 0
        half, mask = 1 << (w - 1), (1 << w) - 1
        for d, s in self.dims:
            f = value & mask
            if f >= half:
                f -= mask + 1
            value = (value - f) >> w
            out += f % d * s
        return out


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
