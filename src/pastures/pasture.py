"""Pastures and their constructors.

A pasture is stored as its unit group (an :class:`AbelianGroup` whose
``epsilon`` is the element -1) together with the set of *null orbits*: the
all-unit triples ``{a, b, c}`` with ``a + b + c = 0``, kept one canonical
representative per orbit under simultaneous unit scaling.  Triples containing
zero are never stored; they are forced by the axioms and answered by rule
(``a + b + 0`` is null exactly when ``b = -a``, and ``a + 0 + 0`` only for
``a = 0``).

The canonical representative of the orbit of (x, y, z) is the least, in the
element total order, of the three scalings that send one entry to 1, each
sorted.  The identity's key is all zeros, below every other key (torsion
coordinates lie in range(d), free ones are keyed by absolute value), so it
leads each scaling: the representative is (1, u, v), with u and v among the
ratios y/x, z/x, z/y and their inverses.  Every such scaling arises from every
orbit member, so the representative does not depend on the member we start
from.

Membership is answered by the fundamental pairs instead: an all-unit triple
``a + b + c = 0`` holds exactly when ``(-a/c, -b/c)`` is a fundamental pair
(``x + y - 1 = 0``).  Each pasture reads these pairs off its orbits once, into
the cached ``Pasture.orbit_pairs``, one set (a hexagon) of at most six pairs
per orbit, and their union ``Pasture.null_pairs`` makes a null test one set
lookup.  The hom search (``morphisms.hom_set``) uses the same pairs with the
torsion units indexed as integers, cached once per pasture as
``Pasture.indexed``.

A presentation, F1pm with n free units modulo 2- and 3-term relations, is
built by ``presented`` from sparse terms {0: sign, 1 + i: exponent of t_i}:
the named pastures, ``F1pm<...>//(...)`` expressions, GRS lifts and matroid
foundations all are, and ``quotient_full`` shares its core.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property, lru_cache

from . import gf as gf_mod
from .groups import (
    AbelianGroup,
    GroupMap,
    identity_rows,
    reduce_presentation,
    quotient_by,
)
from .record import Record, set_field as _set


class BadRelationShape(ValueError):
    """A quotient relation is not a 2- or 3-term sum of the expected shape."""


class InfinitePasture(ValueError):
    """An operation requiring finitely many units met an infinite pasture."""


class PastureElement(Record):
    """Either zero (``coords is None``) or a unit given by its canonical
    coordinate tuple in the ambient unit group."""

    __slots__ = _fields = ("coords",)

    def __init__(self, coords):
        _set_coords(self, coords)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.coords,))

    @property
    def is_zero(self) -> bool:
        return self.coords is None


_set_coords = PastureElement.coords.__set__  # slot setter: faster than _set


ZERO = PastureElement(None)


def unit(coords) -> PastureElement:
    return PastureElement(tuple(coords))


def canonical_orbit(group: AbelianGroup, triple):
    """Canonical representative (1, u, v) of the scaling orbit of an
    all-unit triple (x, y, z): of its scalings by 1/x, 1/y and 1/z, the one
    whose other two entries, sorted, have the least keys.  These entries are
    the ratios y/x, z/x, z/y and their inverses, each keyed once."""
    x, y, z = triple
    mul, inv, key = group.mul, group.inv, group.key
    ix = inv(x)
    yx, zx = mul(y, ix), mul(z, ix)
    xy, xz = inv(yx), inv(zx)
    zy = mul(zx, xy)
    yz = inv(zy)
    best = None
    for u, v in ((yx, zx), (xy, zy), (xz, yz)):
        ku, kv = key(u), key(v)
        cand = (ku, kv, u, v) if ku <= kv else (kv, ku, v, u)
        if best is None or cand < best:
            best = cand
    return (group.identity(), best[2], best[3])


class Pasture(Record):
    """Unit group, null orbits and an optional ``label``, which equality and
    hash ignore; the ``__dict__`` holds the cached ``orbit_pairs``,
    ``null_pairs``, ``indexed`` and the tuple of ``hexagons.hexagons``."""

    __slots__ = ("units", "null_orbits", "label", "__dict__")
    _fields = __slots__[:3]

    def __init__(self, units, null_orbits, label=None):
        _set(self, "units", units)
        _set(self, "null_orbits", null_orbits)
        _set(self, "label", label)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.units, self.null_orbits)
                    == (other.units, other.null_orbits))
        return NotImplemented

    def __hash__(self):
        return hash((self.units, self.null_orbits))

    # -- elements -----------------------------------------------------------

    @property
    def eps(self) -> tuple[int, ...]:
        return self.units.epsilon

    def one(self) -> PastureElement:
        return PastureElement(self.units.identity())

    def mul(self, a: PastureElement, b: PastureElement) -> PastureElement:
        if a.is_zero or b.is_zero:
            return ZERO
        return PastureElement(self.units.mul(a.coords, b.coords))

    def inv(self, a: PastureElement) -> PastureElement:
        if a.is_zero:
            raise ZeroDivisionError("zero has no inverse")
        return PastureElement(self.units.inv(a.coords))

    @property
    def is_finite(self) -> bool:
        return self.units.is_finite

    # -- nullset ------------------------------------------------------------

    def null_contains(self, a: PastureElement, b: PastureElement,
                      c: PastureElement) -> bool:
        """Whether ``a + b + c`` is a null triple."""
        return self._null3(a.coords, b.coords, c.coords)

    def _null3(self, x, y, z) -> bool:
        parts = [p for p in (x, y, z) if p is not None]
        if not parts:
            return True
        if len(parts) == 1:
            return False
        g = self.units
        if len(parts) == 2:
            u, w = parts
            return w == g.mul(u, self.eps)
        s = g.mul(self.eps, g.inv(z))
        return (g.mul(x, s), g.mul(y, s)) in self.null_pairs

    @cached_property
    def orbit_pairs(self) -> frozenset:
        """The fundamental pairs, units (a, b) with a + b - 1 = 0, as one
        frozenset per null orbit: the hexagons.

        A null triple x + y + z = 0 gives the pair (-x/z, -y/z) for each
        ordering of its entries, on which the orderings act as the D3 of
        ``hexagons``, and the pair (a, b) fixes the orbit of (a, b, -1), so
        the hexagons are exactly these sets: one scaling by -1/z per choice
        of the last entry, each pair with its swap.  Unit scalings of the
        triple give the same pairs, so one representative per orbit
        suffices.  With (u, v) = (-x/z, -y/z), the other two last entries
        give (-y/x, -z/x) = (-v/u, 1/u) and (-z/y, -x/y) = (1/v, -u/v).
        """
        g, eps = self.units, self.eps
        mul, inv = g.mul, g.inv
        orbits = set()
        for x, y, z in self.null_orbits:
            s = mul(eps, inv(z))
            u, v = mul(x, s), mul(y, s)
            iu, iv = inv(u), inv(v)
            w, t = mul(v, mul(eps, iu)), mul(u, mul(eps, iv))
            orbits.add(frozenset(((u, v), (v, u), (w, iu), (iu, w),
                                  (iv, t), (t, iv))))
        return frozenset(orbits)

    @cached_property
    def null_pairs(self) -> frozenset:
        """All fundamental pairs: the union of ``orbit_pairs``."""
        return frozenset().union(*self.orbit_pairs)

    @cached_property
    def indexed(self) -> "IndexedUnits":
        """The torsion units as integers, for the hom search into this
        pasture."""
        return IndexedUnits(self)

    def sorted_orbits(self):
        g = self.units
        return sorted(self.null_orbits,
                      key=lambda o: tuple(g.key(x) for x in o))

    # -- bookkeeping ---------------------------------------------------------

    def with_label(self, label: str) -> "Pasture":
        return Pasture(self.units, self.null_orbits, label)

    def descriptor(self) -> dict:
        return {
            "units": {
                "free_rank": self.units.free_rank,
                "torsion": list(self.units.torsion),
                "epsilon": list(self.eps),
            },
            "null_orbits": [[list(x) for x in o] for o in self.sorted_orbits()],
            "label": self.label,
        }


class IndexedUnits:
    """The torsion units of a pasture as the integers 0 .. n-1.

    Unit i has coordinate t equal to ``i // strides[t] % radix[t]``, over
    the invariant factors ``radix``, and free coordinates 0, so index order
    is ``key`` order, and coordinate t of a product of powers is the sum of
    ``c * (i // strides[t])`` mod radix[t].  ``coords`` lists the torsion
    units in index order and ``eps`` is the index of -1.  ``pairs`` files
    the fundamental pairs times -1, the (a, b) with ``x/z = a`` and
    ``y/z = b`` for some null triple x + y + z = 0, by the free parts of a
    and b: ``pairs[(fa, fb)]`` holds the index pairs of the torsion parts of
    those with free parts fa and fb, and ``partners[(fa, fb)][a]`` lists
    ascending the b with (a, b) in it.  The pair set is symmetric, so
    ``pairs[(fb, fa)]`` holds the same pairs swapped.  A finite pasture
    files all its pairs under ``((), ())``.  Indices are computed from the
    coordinates, and -u from u by adding the coordinates of -1 digit by
    digit, so no unit is multiplied or looked up.
    """

    __slots__ = ("radix", "strides", "coords", "eps", "pairs", "partners")

    def __init__(self, P: Pasture):
        g = P.units
        self.radix = radix = g.torsion
        n = len(radix)
        self.strides = strides = tuple(math.prod(radix[t + 1:])
                                       for t in range(n))
        self.coords = g.torsion_elements()
        self.eps = sum(map(operator.mul, g.epsilon, strides))
        # the index of -u for each unit u, digit by digit; -1 has free
        # part 0
        digits = [[(c + e) % d * s for c in range(d)]
                  for d, s, e in zip(radix, strides, g.epsilon)]
        neg = digits[0] if n == 1 else \
            list(map(sum, itertools.product(*digits)))
        # the index of a unit's torsion part; in a cyclic group that is its
        # one coordinate
        index = (operator.itemgetter(0) if strides == (1,) else
                 lambda u: sum(map(operator.mul, u, strides)))
        pairs, partners = {}, {}
        for a, b in P.null_pairs:
            pairs.setdefault((a[n:], b[n:]), set()).add(
                (neg[index(a)], neg[index(b)]))
        for key, filed in pairs.items():
            table = partners[key] = {}
            for a, b in filed:
                table.setdefault(a, []).append(b)
            for bs in table.values():
                bs.sort()
        self.pairs, self.partners = pairs, partners


# -- construction results ----------------------------------------------------


class QuotientResult(Record):
    # unit_map: old canonical coordinates -> new;
    # sections: new canonical generators as words over old
    _fields = ("pasture", "unit_map", "sections")


class ProductResult(Record):
    # proj1: product units -> first factor units
    _fields = ("pasture", "proj1", "proj2", "embed1", "embed2")


class TensorResult(Record):
    # inclusions: one GroupMap per factor; sections: canonical generators as
    # words over the concatenated factor generators
    _fields = ("pasture", "inclusions", "sections")


# -- constructors ------------------------------------------------------------


def _coords(P: Pasture, e: PastureElement):
    if not isinstance(e, PastureElement):
        raise BadRelationShape(f"expected a PastureElement, got {e!r}")
    if not e.is_zero and len(e.coords) != P.units.ngens:
        raise BadRelationShape(
            f"element {e.coords} does not live in a group with "
            f"{P.units.ngens} generators")
    return e.coords


def quotient_full(P: Pasture, relations) -> QuotientResult:
    """Quotient of ``P`` by null relations.

    Each relation is a triple of :class:`PastureElement` with at most one
    zero entry (a 2- or 3-term vanishing sum; the sign of a term is folded
    into the element, so ``a + b - c = 0`` is passed as ``(a, b, -c)``).
    A malformed relation raises :class:`BadRelationShape`; the orbits of
    ``P`` and the relations go as sparse terms to :func:`_quotient`.
    """
    rows = list(P.null_orbits)
    for tri in relations:
        tri = tuple(tri)
        if len(tri) != 3:
            raise BadRelationShape(f"relation {tri} is not a triple")
        rows.append([_coords(P, e) for e in tri])
    return _quotient(P.units, [[None if x is None else {
        k: c for k, c in enumerate(x) if c} for x in tri] for tri in rows])


def presented(n: int, relations) -> QuotientResult:
    """F1pm with n free units t_1 .. t_n modulo ``relations``.

    A relation is a triple of terms, at least two nonzero.  A term is an
    exponent map {0: e, 1 + i: c_i}, zero entries left out, for the unit
    (-1)^e t_1^c_1 .. t_n^c_n, or None for zero; any other term raises
    :class:`BadRelationShape`.  Its test oracle is ``tests/oracles.py``:
    there ``quotient_full`` by the same terms as elements of
    ``free_algebra(named("F1pm"), names)``, for n names, gives the same
    result, with ``unit_map`` and ``sections`` over its coordinates.
    """
    relations = [tuple(tri) for tri in relations]
    terms = [t for tri in relations for t in tri if t is not None]
    if not (set(map(type, terms)) <= {dict} and set(map(type, itertools.chain(
            *terms, *map(dict.values, terms)))) <= {int}
            and set(itertools.chain(*terms)) <= set(range(n + 1))):
        raise BadRelationShape(f"a term is not an exponent map over 0..{n}")
    return _quotient(AbelianGroup((2,), n, (1,) + (0,) * n), relations)


def _quotient(units, relations) -> QuotientResult:
    """The pasture on ``units`` modulo relations of sparse terms (None for
    zero).  A 2-term relation x + y = 0 forces y = -x, so it kills -x/y: its
    dense row x - y + e, e the coordinates of -1, is built once from the
    nonzero entries, and all kills go into one ``quotient_by``, in relation
    order.  A 3-term relation adjoins a null orbit, each member projected by
    summing the projection rows of its nonzero coordinates.
    """
    eps, torsion = units.epsilon, units.torsion
    adjoin, kill = [], []
    for tri in relations:
        parts = [c for c in tri if c is not None]
        if len(parts) == 2:
            x, y = parts
            row = list(eps)
            for k, c in x.items():
                row[k] += c
            for k, c in y.items():
                row[k] -= c
            for k, d in enumerate(torsion):
                row[k] %= d
            kill.append(row)
        elif len(parts) == 3:
            adjoin.append(parts)
        else:
            raise BadRelationShape(
                "a relation needs at least two nonzero terms")

    if kill:
        red = quotient_by(units, kill)
        units, cum, sections = red.group, red.project, red.sections
    else:
        cum = GroupMap(units, identity_rows(units.ngens))
        sections = identity_rows(units.ngens)
    proj, zero = cum.rows, [0] * units.ngens

    def project(term):
        acc = zero
        for k, c in term.items():
            acc = [a + c * r for a, r in zip(acc, proj[k])]
        return units.reduce(acc)

    # stored orbits are all-unit triples and stay that way under projection,
    # so they never force further identifications: one kill round reaches
    # closure
    orbits = frozenset(canonical_orbit(units, tuple(map(project, o)))
                       for o in adjoin)
    return QuotientResult(Pasture(units, orbits), cum, sections)


def product_full(P: Pasture, Q: Pasture) -> ProductResult:
    """Direct product: units multiply componentwise and a product triple is
    null exactly when both components are: the orbits (x_i y_s(i)) for
    orbits x of P and y of Q and permutations s, each member the product
    of its components' images under ``embed1`` and ``embed2``."""
    gp, gq = P.units, Q.units
    n1, n2 = gp.ngens, gq.ngens
    rows = [list(r) + [0] * n2 for r in gp.relation_rows()]
    rows += [[0] * n1 + list(r) for r in gq.relation_rows()]
    red = reduce_presentation(n1 + n2, rows,
                              list(gp.epsilon) + list(gq.epsilon))
    R = red.group
    # the projection of a unit vector is its (reduced) row of red.project
    proj = red.project.rows
    embed1, embed2 = GroupMap(R, proj[:n1]), GroupMap(R, proj[n1:])
    proj1 = GroupMap(gp, tuple(gp.reduce(w[:n1]) for w in red.sections))
    proj2 = GroupMap(gq, tuple(gq.reduce(w[n1:]) for w in red.sections))
    first = [tuple(map(embed1, a)) for a in P.null_orbits]
    second = [tuple(map(embed2, b)) for b in Q.null_orbits]
    orbits = frozenset(canonical_orbit(R, tuple(map(R.mul, a, perm)))
                       for a in first for b in second
                       for perm in itertools.permutations(b))
    label = None
    if P.label and Q.label:
        label = f"{P.label} x {Q.label}"
    return ProductResult(Pasture(R, orbits, label),
                         proj1, proj2, embed1, embed2)


def product(*pastures) -> Pasture:
    """Direct product of any number of pastures; the empty product is K."""
    if not pastures:
        return named("K")
    acc = pastures[0]
    for Q in pastures[1:]:
        acc = product_full(acc, Q).pasture
    return acc


def tensor_full(factors) -> TensorResult:
    """Tensor product over F1pm: unit groups are glued along -1 and the
    nullset is generated by the factors' nullsets.  The empty tensor is
    F1pm."""
    factors = tuple(factors)
    if not factors:
        return TensorResult(named("F1pm"), (), ())
    ngs = [F.units.ngens for F in factors]
    total = sum(ngs)
    offs = [sum(ngs[:i]) for i in range(len(factors))]

    def pad(i, x):
        return [0] * offs[i] + list(x) + [0] * (total - offs[i] - ngs[i])

    rows = []
    for i, F in enumerate(factors):
        for r in F.units.relation_rows():
            rows.append(pad(i, r))
    for i in range(len(factors) - 1):
        a = pad(i, factors[i].units.epsilon)
        b = pad(i + 1, factors[i + 1].units.epsilon)
        rows.append([x - y for x, y in zip(a, b)])
    red = reduce_presentation(total, rows, pad(0, factors[0].units.epsilon))
    R = red.group
    # the projection of a unit vector is its (reduced) row of red.project,
    # so each factor's orbits go through that factor's own rows
    proj = red.project.rows
    inclusions = tuple(GroupMap(R, proj[o:o + n]) for o, n in zip(offs, ngs))
    orbits = frozenset(canonical_orbit(R, tuple(map(inc, o)))
                       for inc, F in zip(inclusions, factors)
                       for o in F.null_orbits)
    labels = [F.label for F in factors]
    label = " ox ".join(labels) if all(labels) else None
    return TensorResult(Pasture(R, orbits, label), inclusions, red.sections)


def tensor(*pastures) -> Pasture:
    return tensor_full(pastures).pasture


def finite_field(q: int) -> Pasture:
    """The pasture of GF(q): cyclic unit group written multiplicatively via
    the deterministic generator, nullset from the additive structure.

    Every scaling orbit of a null triple has a member (1, a, -1-a), so the
    q - 2 units a != -1 give every orbit.  For a = g^j, g the generator,
    -1-a = g^k with k the Zech logarithm of j plus the exponent of -1, so
    no field operation is needed.  The orbit's members of this form have
    a = g^e for e in {j, k, -j, k-j, -k, j-k} mod q - 1; all are marked when
    the first is met, so each orbit is canonicalised once."""
    f = gf_mod.field(q)
    if q == 2:
        g = AbelianGroup((), 0, ())
        return Pasture(g, frozenset(), "F2")
    eps = ((q - 1) // 2,) if q % 2 else (0,)
    g = AbelianGroup((q - 1,), 0, eps)
    orbits = set()
    seen = bytearray(q - 1)
    for j, z in enumerate(f.zech):
        if z is not None and not seen[j]:
            k = (z + eps[0]) % (q - 1)
            for e in (j, k, -j, k - j, -k, j - k):
                seen[e % (q - 1)] = 1
            orbits.add(canonical_orbit(g, ((0,), (j,), (k,))))
    return Pasture(g, frozenset(orbits), f"F{q}")


# name: the arguments (n, relations) of ``presented``.  {} is 1 and {0: 1}
# is -1; over one free unit z, {1: c} is z^c; over two, x and y, {1: 1} is x
# and {2: 1} is y.
_PRESENTATIONS = {
    "F1pm": (0, ()),
    "K": (0, [({}, {}, None), ({}, {}, {})]),                # 1 + 1, 1 + 1 + 1
    "S": (0, [({}, {}, {0: 1})]),                            # 1 + 1 - 1
    "W": (0, [({}, {}, {}), ({}, {}, {0: 1})]),              # both of S, F3
    "F2": (0, [({}, {}, None)]),                             # 1 + 1
    "F3": (0, [({}, {}, {})]),                               # 1 + 1 + 1
    "U": (2, [({1: 1}, {2: 1}, {0: 1})]),                    # x + y - 1
    "D": (1, [({1: 1}, {1: 1}, {0: 1})]),                    # z + z - 1
    "H": (1, [({1: 3}, {}, None),                            # z^3 + 1
              ({1: 1}, {1: -1}, {0: 1})]),                   # z + z^-1 - 1
    "G": (1, [({1: 2}, {1: 1}, {0: 1})]),                    # z^2 + z - 1
}

NAMED = tuple(_PRESENTATIONS)


@lru_cache(maxsize=None)
def named(name: str) -> Pasture:
    """The stock pastures: F1pm, K, S, W, F2, F3, U, D, H, G."""
    if name not in _PRESENTATIONS:
        raise KeyError(f"unknown pasture name {name!r}")
    return presented(*_PRESENTATIONS[name]).pasture.with_label(name)
