"""Fundamental pairs and hexagons.

A fundamental pair of a pasture P is a pair of units (a, b) with
a + b - 1 = 0.  The six-element dihedral group D3 acts on pairs by

    sigma(a, b) = (b, a)          rho(a, b) = (1/b, -a/b)

and a *hexagon* is an orbit of this action.  The orderings of a null triple
x + y + z = 0 act on its pairs (-x/z, -y/z) as this D3, so the hexagons are
the null orbits, and they are read off ``Pasture.orbit_pairs`` rather than
walked.  Orbit sizes divide 6 and classify the hexagon:

    mu = 1  ternary       single pair (-1, -1)
    mu = 2  hexagonal     pairs (a, 1/a) with a^3 = -1
    mu = 3  dyadic        a diagonal pair (a, a), a != -1
    mu = 6  near-regular  free orbit

The *support* of a hexagon is the set of first coordinates of its pairs; for
partial fields these supports partition P minus {0, 1}.
"""

from __future__ import annotations

from .pasture import Pasture
from . import pasture as pa
from .record import InternalError, Record


class NotFundamental(ValueError):
    """The dihedral action is only defined on fundamental pairs."""


class HexagonsInconsistent(InternalError, RuntimeError):
    """A fundamental pair lies in no hexagon, against the orbit partition."""


KIND_BY_MU = {1: "ternary", 2: "hexagonal", 3: "dyadic", 6: "near-regular"}


def is_fundamental(P: Pasture, pair) -> bool:
    a, b = pair
    return P._null3(a, b, P.eps)


def _check(P, pair):
    pair = (P.units.reduce(pair[0]), P.units.reduce(pair[1]))
    if not is_fundamental(P, pair):
        raise NotFundamental(f"{pair} is not a fundamental pair")
    return pair


def sigma(P: Pasture, pair):
    """Swap a fundamental pair."""
    a, b = _check(P, pair)
    return (b, a)


def rho(P: Pasture, pair):
    """Rotate a fundamental pair: (a, b) -> (1/b, -a/b)."""
    g = P.units
    a, b = _check(P, pair)
    binv = g.inv(b)
    return (binv, g.mul(g.epsilon, g.mul(a, binv)))


def fundamental_pairs(P: Pasture):
    """All fundamental pairs, read off the stored null orbits: the cached
    ``P.null_pairs``, which a null triple a + b + c = 0 enters as
    (-a/c, -b/c) and its swap, for each of its three entries as c."""
    return P.null_pairs


class Hexagon(Record):
    """A D3 orbit of fundamental pairs of a fixed pasture: the sorted orbit
    ``pairs``, its minimum ``canonical_pair`` in the element order, ``mu``
    and ``kind``, and the ``support``, the first coordinates of the pairs."""

    _fields = ("pairs", "canonical_pair", "mu", "kind", "support")

    def diagonal_element(self):
        """For a dyadic hexagon, the x with (x, x) in the orbit."""
        for a, b in self.pairs:
            if a == b:
                return a
        return None

    def record(self, P: Pasture) -> dict:
        g = P.units
        return {
            "pair": [list(self.canonical_pair[0]), list(self.canonical_pair[1])],
            "mu": self.mu,
            "kind": self.kind,
            "support": [list(s) for s in
                        sorted(self.support, key=g.key)],
        }


def hexagons(P: Pasture):
    """All hexagons of P, one per null orbit, sorted by canonical pair:
    built once per pasture and kept in its ``__dict__`` beside the
    ``orbit_pairs`` they are read from."""
    cached = vars(P).get("hexagons")
    if cached is not None:
        return cached
    g = P.units

    def pkey(p):
        return (g.key(p[0]), g.key(p[1]))

    out = []
    for orbit in P.orbit_pairs:
        pairs = tuple(sorted(orbit, key=pkey))
        out.append(Hexagon(pairs, pairs[0], len(pairs),
                           KIND_BY_MU[len(pairs)],
                           frozenset(a for a, _ in pairs)))
    out.sort(key=lambda h: pkey(h.canonical_pair))
    vars(P)["hexagons"] = out = tuple(out)
    return out


def census(q: int):
    """Hexagon type counts for GF(q)."""
    P = pa.finite_field(q)
    counts = {"dyadic": 0, "hexagonal": 0, "ternary": 0, "near-regular": 0}
    for h in hexagons(P):
        counts[h.kind] += 1
    return counts


class PsiData(Record):
    """The map induced by a product on hexagons: each hexagon of P1 x P2 lies
    over a pair of factor hexagons, with multiplicities multiplying along the
    fibers.  ``hexes`` are the hexagons of the product, ``factor_hexes`` the
    pair (hexagons of P1, hexagons of P2), and ``fibers`` maps (i1, i2) to a
    tuple of product hexagon indices."""

    _fields = ("product", "hexes", "factor_hexes", "fibers")


def psi_product(P1: Pasture, P2: Pasture) -> PsiData:
    res = pa.product_full(P1, P2)
    R = res.pasture
    h1 = hexagons(P1)
    h2 = hexagons(P2)
    hr = hexagons(R)
    # each factor pair's hexagon index
    where = [{p: i for i, h in enumerate(hs) for p in h.pairs}
             for hs in (h1, h2)]
    fibers = {}
    for idx, h in enumerate(hr):
        key = []
        for proj, index in zip((res.proj1, res.proj2), where):
            pair = tuple(proj(x) for x in h.canonical_pair)
            if pair not in index:
                raise HexagonsInconsistent(f"pair {pair} not in any hexagon")
            key.append(index[pair])
        fibers.setdefault(tuple(key), []).append(idx)
    return PsiData(R, hr, (h1, h2), {k: tuple(v) for k, v in fibers.items()})
