"""Matroids and their representations over pastures.

A representation assigns a unit of the pasture to every basis (nonbases are
implicitly 0), subject to the 3-term Pluecker relations holding in the
nullset.  Representation classes are orbits under rescaling each ground-set
element by a unit, renormalized so the first basis keeps value 1.

Pinning a basis and a spanning forest of its fundamental graph to 1
(``_gauge``) meets every class exactly once, so the classes over P are the
morphisms F_M -> P out of the foundation F_M of the matroid (Baker and
Lorscheid, "Foundations of matroids, Part 1"): F1pm with one free unit per
basis left unpinned, modulo the Pluecker relations (``_foundation``).  The
classes are found by ``morphisms.hom_set`` and nothing here searches.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import gt

from .groups import DEFAULT_CAP, InfinitePasture
from .morphisms import SearchStats, compose, hom_set
from .pasture import Pasture, PastureElement, presented
from .record import Record


class ExchangeAxiomViolation(ValueError):
    """The given collection of bases fails the basis exchange axiom."""


class Matroid(Record):
    """``bases`` is a lex-sorted tuple of sorted tuples over 1..n; the
    position of each basis, ``_index``, is not a field."""

    _fields = ("n", "rank", "bases")

    def __init__(self, n, rank, bases):
        super().__init__(n, rank, bases)
        self.__dict__["_index"] = {b: i for i, b in enumerate(bases)}

    @classmethod
    def from_bases(cls, n, rank, bases) -> "Matroid":
        clean = sorted({tuple(sorted(b)) for b in bases})
        if not clean:
            raise ValueError("a matroid needs at least one basis")
        for b in clean:
            if len(b) != rank or len(set(b)) != rank:
                raise ValueError(f"basis {b} does not have {rank} distinct "
                                 "elements")
            if b and (b[0] < 1 or b[-1] > n):
                raise ValueError(f"basis {b} is not a subset of 1..{n}")
        bset = set(clean)
        for b1 in clean:
            for b2 in clean:
                for x in set(b1) - set(b2):
                    rest = set(b1) - {x}
                    if not any(tuple(sorted(rest | {y})) in bset
                               for y in set(b2) - set(b1)):
                        raise ExchangeAxiomViolation(
                            f"no exchange for {x} from {b1} into {b2}")
        return cls(n, rank, tuple(clean))

    def to_json(self) -> dict:
        return {"n": self.n, "rank": self.rank,
                "bases": [list(b) for b in self.bases]}


def matroid_from_json(data: dict) -> Matroid:
    """Parse ``{"n": ..., "rank": ..., "bases": [[...], ...]}``; a missing
    key or a value of the wrong JSON type raises ValueError."""
    try:
        n, rank = int(data["n"]), int(data["rank"])
        bases = [tuple(int(e) for e in b) for b in data["bases"]]
    except KeyError as e:
        raise ValueError(f"matroid JSON lacks the key {e}") from None
    except TypeError as e:
        raise ValueError(f"malformed matroid JSON: {e}") from None
    return Matroid.from_bases(n, rank, bases)


def uniform(rank: int, n: int) -> Matroid:
    return Matroid.from_bases(
        n, rank, itertools.combinations(range(1, n + 1), rank))


def u24() -> Matroid:
    return uniform(2, 4)


def mk4() -> Matroid:
    """The cycle matroid of K4.  Edges 1..6 are ab, ac, ad, bc, bd, cd; the
    bases are the 16 spanning trees (all triples except the four
    triangles)."""
    triangles = {(1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6)}
    bases = [b for b in itertools.combinations(range(1, 7), 3)
             if b not in triangles]
    return Matroid.from_bases(6, 3, bases)


def _sorted_with_parity(seq):
    """``seq`` sorted, and the parity of its inversions (0 or 1)."""
    inversions = sum(itertools.starmap(gt, itertools.combinations(seq, 2)))
    return tuple(sorted(seq)), inversions & 1


class Representation(Record):
    """One unit in ``values`` per basis, aligned with ``matroid.bases``."""

    _fields = ("matroid", "pasture", "values")

    def record(self):
        return {"values": {"".join(map(str, b)) if self.matroid.n < 10
                           else ",".join(map(str, b)): list(v.coords)
                           for b, v in zip(self.matroid.bases, self.values)}}


@functools.lru_cache
def _constraints(M: Matroid) -> tuple:
    """The 3-term Pluecker constraints, precompiled to basis positions.

    Each constraint is three terms (i, j, sign): positions of the two bases
    whose values multiply (None for a nonbasis, killing the term) and the
    parity of the sorting sign, with the middle term's extra -1 folded in.
    A constraint whose three terms are all 0 holds trivially and is left
    out; by basis exchange, none of the others has exactly one nonzero term.
    Cached per matroid, as a tuple so that no caller can change the cached
    value.
    """
    r = M.rank
    if r < 2:
        return ()

    def term(seq, extra):
        srt, parity = _sorted_with_parity(seq)
        i = M._index.get(srt)
        return i, parity ^ extra

    out = []
    ground = range(1, M.n + 1)
    for J in itertools.combinations(ground, r - 2):
        rest = [e for e in ground if e not in J]
        for e1, e2, e3, e4 in itertools.combinations(rest, 4):
            a1 = term(J + (e1, e2), 0)
            b1 = term(J + (e3, e4), 0)
            a2 = term(J + (e1, e3), 1)
            b2 = term(J + (e2, e4), 0)
            a3 = term(J + (e1, e4), 0)
            b3 = term(J + (e2, e3), 0)
            con = ((a1, b1), (a2, b2), (a3, b3))
            if any(a[0] is not None and b[0] is not None for a, b in con):
                out.append(con)
    return tuple(out)


class RepresentationClass(Record):
    """One rescaling class: its least member and its size |U|^(n - c) for
    n elements in c components.  ``members`` enumerates the class on first
    read; nothing in the library reads it."""
    _fields = ("representative", "size")

    @functools.cached_property
    def members(self) -> frozenset:
        """The rescalings of the representative with the component roots
        fixed, renormalized at B0: the whole class, each member once."""
        M, P = self.representative.matroid, self.representative.pasture
        units = [PastureElement(c) for c in P.units.torsion_elements()]
        roots = _gauge(M)[1]
        out = set()
        for d in itertools.product(*[[P.one()] if e in roots else units
                                     for e in range(1, M.n + 1)]):
            scaled = [functools.reduce(P.mul, (d[e - 1] for e in b), v)
                      for b, v in zip(M.bases, self.representative.values)]
            c = P.inv(scaled[0])
            out.add(tuple(P.mul(c, w) for w in scaled))
        return frozenset(out)


@functools.lru_cache
def _gauge(M: Matroid):
    """(pinned, roots): the positions of the bases held at 1, namely
    B0 = ``M.bases[0]`` and each B0 - x + y along a spanning forest of B0's
    fundamental graph; and one root element per component of that graph,
    which are the components of M (a loop or coloop lies alone).  Rescaling
    with the roots fixed acts freely, so each class meets the slice once.
    Cached per matroid, as frozensets that no caller can change."""
    parent = list(range(M.n + 1))

    def find(e):
        return e if parent[e] == e else find(parent[e])

    B0 = set(M.bases[0])
    pinned = {0}
    for x, y in itertools.product(sorted(B0), range(1, M.n + 1)):
        i = M._index.get(tuple(sorted(B0 - {x} | {y})))
        if y not in B0 and i is not None and find(x) != find(y):
            parent[find(x)] = find(y)
            pinned.add(i)
    return frozenset(pinned), frozenset(find(e) for e in range(1, M.n + 1))


@functools.lru_cache
def _foundation(M: Matroid):
    """(F_M, basis_units): the foundation of M and, for each basis, the
    coordinates of its unit t_B in F_M.

    F_M is F1pm with a free unit t_B for each basis that ``_gauge`` leaves
    free, modulo the 3-term Pluecker relations of ``_constraints``, in which
    a pinned t_B is 1, a nonbasis term is 0 and an odd sign is a factor -1;
    ``pasture.presented`` builds it from their exponent maps, and the basis
    units are the rows of its ``unit_map``.  A morphism F_M -> P is
    thus a representation over P with the pinned bases at 1, which is one
    per rescaling class.  Cached per matroid."""
    pinned = _gauge(M)[0]
    free = [i for i in range(len(M.bases)) if i not in pinned]
    col = {i: 1 + k for k, i in enumerate(free)}

    def term(pair):
        (i, pi), (j, pj) = pair
        if i is None or j is None:
            return None
        out = {col[b]: 1 for b in (i, j) if b in col}   # i != j
        if (pi + pj) & 1:
            out[0] = 1
        return out

    res = presented(len(free),
                    [tuple(map(term, con)) for con in _constraints(M)])
    rows, one = res.unit_map.rows, res.pasture.units.identity()
    return res.pasture, tuple(rows[col[i]] if i in col else one
                              for i in range(len(M.bases)))


def _least_columns(M: Matroid, torsion, cols) -> tuple:
    """The least rescaling of a representation normalized at B0 =
    ``M.bases[0]``, in the order of ``units.key`` of finite units with
    invariant factors ``torsion``; the values are given by coordinate:
    ``cols[k]`` holds coordinate k, of order ``torsion[k]``, of every basis
    value.

    Rescaling element e and renormalizing adds [e in b] - [e in B0] to the
    value of basis b, in each torsion coordinate Z/d separately, so the
    class is a coset of a span in (Z/d)^bases for each coordinate, and its
    least member is the coset's reduction by the Howell form of that span,
    columns taken in basis order (``_howell``)."""
    for k, d in enumerate(torsion):
        col = cols[k]
        for j, g, inv, piv in _howell(M, d):
            m = col[j] // g * inv
            if m:
                col = [(x - m * a) % d for x, a in zip(col, piv)]
        cols[k] = col
    if not cols:
        return (PastureElement(()),) * len(M.bases)
    return tuple(map(PastureElement, zip(*cols)))


@functools.lru_cache
def _howell(M: Matroid, d: int) -> tuple:
    """The reduction of ``_least_columns`` in one coordinate Z/d, which
    does not depend on the values: for each pivot column j of the Howell
    form of the rescaling span, (j, g, inv, row), where row is the pivot
    row, g the gcd of its entry in column j with d and inv that entry over
    g inverted mod d / g.  Subtracting ``value[j] // g * inv`` times the row from a value
    reduces its column j below g.  Cached per matroid and modulus."""
    B0 = M.bases[0]
    rows = [[((e in b) - (e in B0)) % d for b in M.bases]
            for e in range(1, M.n + 1)]
    steps = []
    for j in range(len(M.bases)):
        piv, rest = None, []
        for r in rows:
            while piv is not None and r[j]:     # Euclid on column j
                q = piv[j] // r[j]
                piv, r = r, [(a - q * b) % d for a, b in zip(piv, r)]
            if piv is None and r[j]:
                piv = r
            elif any(r):
                rest.append(r)
        if piv is None:
            rows = rest
            continue
        g = math.gcd(piv[j], d)
        steps.append((j, g, pow(piv[j] // g, -1, d // g), tuple(piv)))
        rows = rest + [[d // g * a % d for a in piv]]   # annihilator
    return tuple(steps)


def representation_classes(M: Matroid, P: Pasture, *,
                           cap: int = DEFAULT_CAP,
                           stats: SearchStats | None = None) -> list:
    """All rescaling classes of representations of M over P, sorted by
    representative.

    The classes are the morphisms F_M -> P out of the foundation (see
    ``_foundation``), enumerated by ``morphisms.hom_set``; the basis values
    of each are read off the images of the basis units.  Each result is one
    class; its representative is the least member (``_least_columns``),
    its size |U|^(n - c) by formula; no member is enumerated.  Raises
    InfinitePasture for infinite P, and SearchSpaceExceeded when the
    search takes more than ``cap`` steps (see ``hom_set``).
    A ``stats`` record, when given, gets the counters of the search.
    """
    return [c for c, _ in _classes(M, P, cap, stats)]


def _classes(M: Matroid, P: Pasture, cap: int, stats=None) -> list:
    """The pairs (class, morphism F_M -> P) of ``representation_classes``,
    in its order."""
    if not P.is_finite:
        raise InfinitePasture(
            "representation search needs a finite pasture")
    F, basis_units = _foundation(M)
    size = P.units.size() ** (M.n - len(_gauge(M)[1]))
    torsion = P.units.torsion       # every coordinate of a finite P
    # the nonzero coordinates of each basis unit: at most one, as a rule
    sparse = [[(g, c) for g, c in enumerate(t) if c] for t in basis_units]

    def columns(m):
        """The basis values under m by coordinate: coordinate k of the image
        of each basis unit, reduced mod its order."""
        rows = m.images()
        return [[sum([c * rows[g][k] for g, c in terms]) % d
                 for terms in sparse] for k, d in enumerate(torsion)]

    pairs = [(RepresentationClass(Representation(
        M, P, _least_columns(M, torsion, columns(m))), size), m)
        for m in hom_set(F, P, cap=cap, stats=stats)]
    # the key of a unit of a finite P is its coordinates
    pairs.sort(key=lambda cm: tuple(v.coords
                                    for v in cm[0].representative.values))
    return pairs


class LiftBijectionReport(Record):
    # pairs: (source class index, target class index)
    _fields = ("ok", "pairs", "source_classes", "target_classes")


def lift_bijection_check(M: Matroid, lift_result, *,
                         cap: int = DEFAULT_CAP) -> LiftBijectionReport:
    """Check that pushing forward through lambda is a bijection from the
    representation classes over the lift to those over the base.  A class
    over the lift L is a morphism m: F_M -> L, and its pushforward is the
    morphism lambda after m, which Hom(F_M, P) holds, since it is complete.
    """
    lam = lift_result.lam
    cl_L = _classes(M, lift_result.lift, cap)
    cl_P = _classes(M, lam.target, cap)
    index = {m.unit_map: j for j, (_, m) in enumerate(cl_P)}
    pairs = tuple((i, index[compose(lam, m).unit_map])
                  for i, (_, m) in enumerate(cl_L))
    ok = (len({j for _, j in pairs}) == len(cl_P)
          and len(cl_L) == len(cl_P))
    return LiftBijectionReport(ok, pairs, len(cl_L), len(cl_P))
