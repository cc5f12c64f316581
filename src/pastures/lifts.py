"""Binary, ternary, WLUM and GRS lifts.

Each lift of a pasture P is a pasture L together with a morphism
``lam: L -> P`` through which representations over structured sources
factor.  Each hexagon of P has a model, one of the four pastures U, D, H,
F3, picked by the hexagon's type; the ternary lift tensors the models over
all hexagons of P; the WLUM lift tensors one extra F2 factor when -1 = 1 in
P; the GRS lift is presented by one generator per fundamental element with
the induced multiplicative relations.
"""

from __future__ import annotations

from itertools import islice

from .groups import GroupMap, SearchSpaceExceeded, reduce_presentation
from .pasture import Pasture, _adjoined, named, tensor_full
from .hexagons import Hexagon, fundamental_pairs, hexagons
from .morphisms import PastureMorphism, make
from .record import InternalError, Record


class KindMismatch(ValueError):
    """Descriptor comparison needs two ternary or WLUM lifts."""


class LiftCheckFailed(InternalError, RuntimeError):
    """A computed lift fails a property its construction guarantees: lambda
    is not a bijection on fundamental pairs or elements, or the fundamental
    elements are not closed under the GRS relations."""


class LiftResult(Record):
    """The ``lift`` L with ``lam: L -> P``; ``kind`` is binary, ternary,
    wlum or grs; ``factor_descriptor`` counts the U, D, H, F3 and F2
    tensor factors, or is None."""

    _fields = ("lift", "lam", "kind", "factor_descriptor")


def binary_lift(P: Pasture) -> LiftResult:
    """F2 when -1 = 1 in P, else F1pm, with the unique morphism to P."""
    g = P.units
    if g.epsilon == g.identity():
        lift, images = named("F2"), ()
    else:
        lift, images = named("F1pm"), (g.epsilon,)
    return LiftResult(lift, make(lift, P, images), "binary", None)


def _model_and_images(P: Pasture, h: Hexagon):
    """The model pasture for a hexagon and the images of the model's
    canonical generators under lambda.

    The distinguished pair of the model maps into the hexagon: for U the
    canonical (minimum) pair, for H its first element, for D the unique
    diagonal pair (the canonical pair of a dyadic hexagon need not be
    diagonal), for F3 the forced (-1, -1).
    """
    eps = P.units.epsilon
    if h.kind == "ternary":
        return named("F3"), (eps,)
    if h.kind == "dyadic":
        return named("D"), (eps, h.diagonal_element())
    if h.kind == "hexagonal":
        return named("H"), (h.canonical_pair[0],)
    a, b = h.canonical_pair
    return named("U"), (eps, a, b)


_MODEL_KEYS = {"ternary": "F3", "dyadic": "D", "hexagonal": "H",
               "near-regular": "U"}


def _tensor_lift(P: Pasture, kind: str) -> LiftResult:
    """The ternary or WLUM lift: the tensor of the models of all hexagons
    of P, and for the WLUM lift one F2 factor more when -1 = 1 in P."""
    models, gen_images = [], []
    counts = {"U": 0, "D": 0, "H": 0, "F3": 0, "F2": 0}
    for h in hexagons(P):
        model, images = _model_and_images(P, h)
        models.append(model)
        gen_images.extend(images)
        counts[_MODEL_KEYS[h.kind]] += 1
    if kind == "wlum" and P.units.epsilon == P.units.identity():
        models.append(named("F2"))   # contributes no generators
        counts["F2"] = 1
    if models:
        res = tensor_full(models)
        lift = res.pasture
        lam = make(lift, P, map(GroupMap(P.units, gen_images), res.sections))
    else:
        lift = named("F1pm")
        lam = make(lift, P, (P.units.epsilon,))
    _check_pair_bijection(lam)
    return LiftResult(lift, lam, kind, counts)


def _check_pair_bijection(lam: PastureMorphism):
    src_pairs = fundamental_pairs(lam.source)
    # the pairs are symmetric, so their first entries are all their entries
    image = {a: lam.unit_map(a) for a, _ in src_pairs}
    mapped = {(image[a], image[b]) for a, b in src_pairs}
    tgt_pairs = fundamental_pairs(lam.target)
    if not len(mapped) == len(src_pairs) == len(tgt_pairs):
        raise LiftCheckFailed("lambda is not injective on fundamental pairs")
    if mapped != tgt_pairs:
        raise LiftCheckFailed("lambda does not cover the fundamental pairs")


def ternary_lift(P: Pasture) -> LiftResult:
    """Tensor of the models of all hexagons of P."""
    return _tensor_lift(P, "ternary")


def wlum_lift(P: Pasture) -> LiftResult:
    """The ternary lift, tensored with F2 when -1 = 1 in P (so that the lift
    itself satisfies -1 = 1 and binary data lifts too)."""
    return _tensor_lift(P, "wlum")


def _g5_triples(g, F):
    """The index triples (i, j, k) with i <= j <= k and F[i] F[j] F[k] = 1,
    in lexicographic order; k is looked up by F[i] F[j] among the inverses.

    Each element is packed into one integer, each coordinate in a field
    wide enough for the sum of two entries, so a product is one integer sum
    with no carry.  Torsion coordinate t holds its exponent, below d_t, the
    t-th invariant factor; a product's field holds r or r + d_t, for r its
    exponent, so each inverse is filed under 2^(number of factors) lifts
    (r + d_t = 2 d_t - 1 is never a sum but fits the field).  A free
    coordinate holds x - m, m its least entry in F; F is closed under
    inversion, so a sum of two lies in 0 .. -4m, and the inverse z of a
    product is filed once, as -z - 2m."""
    nt = len(g.torsion)
    e = negs = [0] * len(F)
    lifts, width = [0], 0
    for t, xs in enumerate(zip(*F)):
        if t < nt:
            d, m = g.torsion[t], 0
            negs = [p + (-x % d << width) for p, x in zip(negs, xs)]
            lifts += [s + (d << width) for s in lifts]
            top = 2 * d - 2
        else:
            m = min(xs)
            negs = [p + (-x - 2 * m << width) for p, x in zip(negs, xs)]
            top = -4 * m
        e = [p + (x - m << width) for p, x in zip(e, xs)]
        width += top.bit_length()
    inverse = {}
    for s in lifts:
        inverse.update(zip([x + s for x in negs], range(len(F))))
    for i, x in enumerate(e):
        for j in range(i, len(e)):
            k = inverse.get(x + e[j])
            if k is not None and k >= j:
                yield i, j, k


MAX_CELLS = 25 * 10**6     # grs_lift's cap on its Smith normal form input


def grs_lift(P: Pasture) -> LiftResult:
    """The lift presented by one generator t_a per fundamental element a.

    Relations, with F the set of fundamental elements of P:

      G1  1 + 1 = 0 when -1 = 1 in P
      G2  t_a * t_{1/a} = 1
      G3  t_a + t_b - 1 = 0 for every fundamental pair (a, b)
      G4  t_a t_b t_c = -1 whenever (a, 1/b) is a fundamental pair and
          c = -1/(ab)
      G5  t_a t_b t_c = 1 for every unordered triple (with repetition) from
          F whose product is 1

    The unit group is F1pm's with the free units (t_a for a in F), so an
    exponent vector has the sign at 0 and t_a at the column of a, 1 + its
    index in F.  G3 adjoins null orbits; the others are 2-term relations,
    each written as the Smith normal form row it kills (``_grs_rows``).
    G3 is passed for one pair of each hexagon of P: by G2 and G4 the triple
    (t_a, t_b, -1) of any other pair of the hexagon is a rescaling of a
    permutation of it, so it adjoins the same orbit.  lambda sends t_a to
    a and restricts to a bijection on fundamental elements.  The rows, the
    C2 row of -1 and those above, are counted before any is built, G5's
    last and drawn only while they fit: past ``MAX_CELLS`` cells, n + 1 a
    row, SearchSpaceExceeded is raised.

    The rows are fixed by the signature (n, G1, G4, G2, G5) of the 2-term
    relations, so their reduction is too.  The lift keeps both in its
    ``__dict__`` as ``grs_presentation``.  When P keeps a signature equal
    to its own, as the GRS lift of a field does, its lift reuses that
    reduction: no row is built and no Smith normal form is run.  The G3
    orbits, lambda, the checks and the cap are P's own on either path.
    """
    g = P.units
    pairs = fundamental_pairs(P)
    F = sorted({a for a, _ in pairs}, key=g.key)
    n = len(F)
    g1 = g.epsilon == g.identity()
    room = MAX_CELLS // (n + 1) - (1 + g1 + len(pairs) + n)        # G5 rows
    triples = list(islice(_g5_triples(g, F), max(room + 1, 0)))
    if len(triples) > room:
        raise SearchSpaceExceeded(
            f"GRS lift passed its cap of {MAX_CELLS} cells")
    col = {a: i for i, a in enumerate(F, 1)}
    g4 = []
    for a, b in sorted(pairs, key=lambda p: (g.key(p[0]), g.key(p[1]))):
        binv = g.inv(b)
        c = g.mul(g.epsilon, g.inv(g.mul(a, binv)))
        if binv not in col or c not in col:
            raise LiftCheckFailed(
                "fundamental elements are not closed under the pair relations")
        g4.append(tuple(sorted((col[a], col[binv], col[c]))))
    if any(g.inv(a) not in col for a in F):
        raise LiftCheckFailed(
            "fundamental elements are not closed under inversion")
    g2 = tuple([(col[a], col[g.inv(a)]) for a in F])
    signature = (n, g1, tuple(g4), g2, tuple(triples))
    kept = vars(P).get("grs_presentation")
    if kept is not None and kept[0] == signature:
        red = kept[1]
    else:
        red = reduce_presentation(n + 1, _grs_rows(signature),
                                  [1] + [0] * n)
    adjoin = [({col[a]: 1}, {col[b]: 1}, {0: 1})                    # G3
              for a, b in map(min, P.orbit_pairs)]
    res = _adjoined(red, adjoin)
    lift = res.pasture
    vars(lift)["grs_presentation"] = (signature, red)
    lam = make(lift, P, map(GroupMap(g, (g.epsilon, *F)), res.sections))
    lifted_F = {a for a, _ in fundamental_pairs(lift)}
    mapped = {lam.unit_map(a) for a in lifted_F}
    if not (len(mapped) == len(lifted_F) == n and mapped == set(F)):
        raise LiftCheckFailed(
            "lambda is not a bijection on fundamental elements")
    return LiftResult(lift, lam, "grs", None)


def _grs_rows(signature):
    """The Smith normal form input of a GRS lift's 2-term relations, from
    their signature (n, G1, G4, G2, G5): the C2 row of -1, then in the
    order G1, G4, G2, G5 the row each relation kills, n + 1 entries.  The
    relation w = (-1)^s, for w a product of t's, kills the row with s at 0
    and 1 added at the column of each factor.  G4 comes as sorted column
    triples, G2 as column pairs and G5 as index triples into F, each in
    the order of its rows."""
    n, g1, g4, g2, g5 = signature
    rows = [[2] + [0] * n]
    if g1:
        rows.append([1] + [0] * n)                                  # G1
    for sign, relations in ((1, g4), (0, g2),                       # G4, G2
                            (0, [(i + 1, j + 1, k + 1)              # G5
                                 for i, j, k in g5])):
        for ks in relations:
            row = [sign] + [0] * n
            for k in ks:
                row[k] += 1
            rows.append(row)
    return rows


def lift_descriptor_iso(L1: LiftResult, L2: LiftResult) -> bool:
    """Whether two ternary/WLUM lifts are isomorphic, decided by their
    tensor factor descriptors (complete for these kinds)."""
    for L in (L1, L2):
        if L.kind not in ("ternary", "wlum"):
            raise KindMismatch(
                f"descriptor comparison needs ternary or WLUM lifts, "
                f"got {L.kind}")
    if L1.kind != L2.kind:
        raise KindMismatch("cannot compare lifts of different kinds")
    return L1.factor_descriptor == L2.factor_descriptor


LIFTS = {"binary": binary_lift, "ternary": ternary_lift,
         "wlum": wlum_lift, "grs": grs_lift}
