import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import test_manifest
from pastures import cli, morphisms
from pastures.expr import pasture_of
from pastures.groups import (DEFAULT_CAP, GroupMap, InfinitePasture,
                             SearchSpaceExceeded, enumerate_homs,
                             is_surjective)
from pastures.morphisms import (ChainMismatch, EpsilonViolation, GroupHomViolation, Iso,
                                NotIso, NullsetViolation, PastureMorphism,
                                SearchStats, Unknown, _count, _model,
                                _solutions, compose, hom_set,
                                identity_morphism, is_isomorphism, iso_check,
                                make)
from pastures.lifts import grs_lift
from pastures.matroids import (_foundation, mk4, representation_classes,
                               uniform)
from pastures.pasture import NAMED, ZERO, Pasture, canonical_orbit, \
    finite_field, named, product, tensor, unit
from oracles import free_algebra, minus_one, quotient


def test_make_validates_nullset():
    H = named("H")
    F7 = finite_field(7)
    # zeta -> 3 and zeta -> 5 are the two embeddings
    m = make(H, F7, ((1,),))
    assert m.unit_map((1,)) == (1,)
    with pytest.raises(NullsetViolation):
        make(H, F7, ((3,),))        # 1 + zeta^2 + zeta^4 -> 1 + 1 + 1 != 0
    with pytest.raises(EpsilonViolation):
        make(H, F7, ((2,),))        # zeta^2 has trivial eps component
    with pytest.raises(GroupHomViolation):
        make(H, finite_field(5), ((1,),))   # no order-6 image in C4
    with pytest.raises(GroupHomViolation, match="expected 1 generator "
                                                "images, got 2"):
        make(H, F7, ((1,), (1,)))


def test_make_validates_epsilon():
    F3 = named("F3")
    # killing -1 lands on 1 != -1 in F5
    with pytest.raises(EpsilonViolation):
        make(F3, finite_field(5), ((0,),))
    # in F4 the epsilon condition is vacuous but 1+1+1 != 0
    with pytest.raises(NullsetViolation):
        make(F3, finite_field(4), ((0,),))


def test_identity_and_compose():
    F9 = finite_field(9)
    i = identity_morphism(F9)
    assert is_isomorphism(i)
    H = named("H")
    f = make(H, finite_field(7), ((1,),))
    assert compose(identity_morphism(finite_field(7)), f).images() == \
        f.images()
    g = make(named("F1pm"), H, ((3,),))
    fg = compose(f, g)
    assert fg.source is g.source
    assert fg.unit_map((1,)) == (3,)  # -1 goes to -1
    with pytest.raises(ChainMismatch):
        compose(g, f)                   # F7 is not H


def test_hom_set_counts():
    H = named("H")
    assert len(hom_set(H, finite_field(4))) == 2
    assert len(hom_set(H, finite_field(7))) == 2
    assert len(hom_set(H, finite_field(5))) == 0
    assert len(hom_set(named("F3"), finite_field(4))) == 0
    assert len(hom_set(named("F3"), finite_field(3))) == 1
    # every pasture receives exactly one morphism from F1pm (eps -> eps)
    for target in (finite_field(5), named("H"), named("S")):
        assert len(hom_set(named("F1pm"), target)) == 1


def test_hom_set_infinite_source_torsion_only_images():
    # D has a free generator; homs into a finite target are still finite
    # because the generator image ranges over the whole finite group
    D = named("D")
    homs = hom_set(D, finite_field(7))
    # z -> 2, 4, or the other dyadic support points; check they all validate
    assert homs
    for m in homs:
        assert m.unit_map(D.units.epsilon) == (3,)


def test_iso_check_finite():
    assert isinstance(iso_check(finite_field(4), finite_field(4)), Iso)
    res = iso_check(finite_field(4), finite_field(5))
    assert isinstance(res, NotIso)
    assert bool(res) is False
    # same unit group, different nullsets: F1pm vs F3
    res = iso_check(named("F1pm"), named("F3"))
    assert isinstance(res, NotIso)


def test_iso_check_rank_one():
    D = named("D")
    P = free_algebra(named("F1pm"), ("z",))
    z = unit((0, 1))
    Q = quotient(P, [(z, z, minus_one(P))])     # z + z - 1 = 0
    assert isinstance(iso_check(Q, D), Iso)
    assert isinstance(iso_check(D, named("G")), NotIso)


def test_iso_check_unknown_at_rank_two():
    U = named("U")
    T = tensor(named("G"), free_algebra(named("F1pm"), ("t",)))
    res = iso_check(U, T)
    assert isinstance(res, Unknown)
    assert bool(res) is False


def test_is_isomorphism_detects_non_surjective():
    H = named("H")
    m = make(named("F1pm"), H, ((3,),))
    assert not is_isomorphism(m)


def test_product_projections_are_morphisms():
    F4, F5 = finite_field(4), finite_field(5)
    R = product(F4, F5)
    # the projection coordinates: a product unit maps onto each factor
    homs4 = hom_set(R, F4)
    homs5 = hom_set(R, F5)
    assert homs4 and homs5


def reference_hom_rows(P, Q):
    """The unpruned search ``hom_set`` replaced for finite targets, kept as
    its oracle: every candidate of ``enumerate_homs`` that ``make`` accepts,
    in order."""
    out = []
    for images in enumerate_homs(P.units, Q.units):
        try:
            out.append(make(P, Q, images).unit_map.rows)
        except NullsetViolation:
            continue
    return out


F = {q: finite_field(q) for q in (2, 3, 4, 5, 7, 8, 9)}
SOURCES = [named(n) for n in NAMED] + list(F.values())
# non-cyclic unit groups (F3 x F5: C2 x C4, F5 x F5: C4 x C4, F4 x F4:
# C3 x C3 with -1 = 1) and characteristic 2 (F2, F4, F8)
FINITE_TARGETS = list(F.values()) + [
    named("K"), named("S"), named("W"), named("H"),
    product(F[3], F[5]), product(F[5], F[5]), product(F[4], F[4])]
# units C2 x C2 x Z for the products, C2 x Z^2 for the tensor
INFINITE_TARGETS = [named("U"), named("D"), named("G"),
                    pasture_of("D x F3"), pasture_of("G x F3"),
                    pasture_of("U ox F3")]


@st.composite
def free_quotients(draw):
    """F1pm<a, b> modulo one or two random 3- or 2-term relations whose
    terms are +-a^i b^j with |i|, |j| <= 2."""
    P = free_algebra(named("F1pm"), ("a", "b"))
    term = st.builds(lambda s, i, j: unit((s, i, j)), st.integers(0, 1),
                     st.integers(-2, 2), st.integers(-2, 2))
    relation = st.tuples(term, term, st.one_of(st.just(ZERO), term))
    return quotient(P, draw(st.lists(relation, min_size=1, max_size=2)))


@given(st.one_of(st.sampled_from(SOURCES), free_quotients()),
       st.sampled_from(FINITE_TARGETS + INFINITE_TARGETS))
@settings(max_examples=150, deadline=None)
# each null orbit of the source may only meet the target's pairs with free
# parts 0: here no such pair fits, and the others' torsion parts would
@example(named("S"), named("U"))
@example(named("W"), pasture_of("U ox F3"))
@example(F[7], pasture_of("U ox F3"))
def test_hom_set_matches_unpruned_search(P, Q):
    if not Q.is_finite and not P.is_finite:
        with pytest.raises(InfinitePasture):
            hom_set(P, Q)
        with pytest.raises(InfinitePasture):
            reference_hom_rows(P, Q)
        return
    homs = hom_set(P, Q)
    assert [m.unit_map.rows for m in homs] == reference_hom_rows(P, Q)
    # the finite search builds its morphisms without make: make agrees
    for m in homs:
        assert make(P, Q, m.unit_map.rows) == m


# foundations of matroids, into targets small enough for the unpruned
# search: it tries every product of the pools, up to 19683 here
@pytest.mark.parametrize("M, Q", [
    ("U25", "F4"), ("U25", "F5"), ("U25", "F7"), ("U25", "S"), ("U25", "H"),
    ("U25", "F3 x F3"), ("U26", "F3"), ("U26", "F4"), ("U26", "S"),
    ("U36", "F2"), ("U36", "F3"), ("MK4", "F3"), ("MK4", "F9"), ("MK4", "H"),
    ("MK4", "S"), ("MK4", "F3 x F4")])
def test_hom_set_on_foundations_matches_unpruned_search(M, Q):
    matroid = {"U25": uniform(2, 5), "U26": uniform(2, 6),
               "U36": uniform(3, 6), "MK4": mk4()}[M]
    P, Q = _foundation(matroid)[0], pasture_of(Q)
    homs = hom_set(P, Q)
    assert [m.unit_map.rows for m in homs] == reference_hom_rows(P, Q)
    for m in homs:
        assert make(P, Q, m.unit_map.rows) == m


@pytest.mark.parametrize("P", ["F1pm<a,b>//(a+b^-1-1)",
                               "F1pm<a,b>//(a^-1-b^-1-1)"])
@pytest.mark.parametrize("Q", ["F7", "F8", "F9", "F3 x F5"])
def test_hom_set_solves_through_an_inverse(P, Q):
    # the relation's last generator enters with exponent -1, so the search
    # solves its image with the sign flipped; in a field, a -> u and
    # b -> v for each of the q - 2 solutions of u + 1/v = 1 (or 1/u - 1/v
    # = 1) in units
    P, Q = pasture_of(P), pasture_of(Q)
    homs = [m.unit_map.rows for m in hom_set(P, Q)]
    assert homs == reference_hom_rows(P, Q)
    if len(Q.units.torsion) == 1:
        assert len(homs) == Q.units.size() - 1


def is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


PRIME_POWERS = [q for q in range(2, 129) if is_prime_power(q)] + [256]


def test_hom_set_from_u_and_h_into_every_small_field():
    """Hom(U, P) is the set of fundamental pairs of P: x -> a, y -> b for
    a + b = 1, in index order; Hom(H, P) against the unpruned search, whose
    pool holds at most 6 candidates."""
    U, H = named("U"), named("H")
    for q in PRIME_POWERS:
        P = finite_field(q)
        eps = P.units.epsilon
        homs = hom_set(U, P)
        assert [m.unit_map.rows for m in homs] == \
            [(eps, a, b) for a, b in sorted(P.null_pairs)]
        assert len(homs) == q - 2
        assert [m.unit_map.rows for m in hom_set(H, P)] == \
            reference_hom_rows(H, P)
        for m in homs[:3]:
            assert make(U, P, m.unit_map.rows) == m


def test_hom_set_guard_counts_every_candidate():
    # U -> F7 takes 18 steps: one for each of F7's 6 torsion units, then
    # one for each of the 12 nodes, the candidate images assigned
    stats = SearchStats()
    assert len(hom_set(named("U"), finite_field(7), cap=18, stats=stats)) \
        == 5
    assert stats.nodes == 12
    with pytest.raises(SearchSpaceExceeded,
                       match="^hom search passed its cap of 17 steps$"):
        hom_set(named("U"), finite_field(7), cap=17)


def test_hom_set_refuses_before_indexing_the_target():
    """The target's torsion units are charged before they are indexed
    (``Pasture.indexed``, a list of every one): U -> F128 at a cap of 126
    builds nothing of the target.  The 254 nodes come after, so 380 steps
    are refused midway and 381 answer."""
    P = finite_field(128)
    with pytest.raises(SearchSpaceExceeded):
        hom_set(named("U"), P, cap=126)
    assert "indexed" not in vars(P)
    with pytest.raises(SearchSpaceExceeded):
        hom_set(named("U"), P, cap=127 + 253)
    assert "indexed" in vars(P)
    assert len(hom_set(named("U"), P, cap=127 + 254)) == 126


@pytest.fixture(scope="module")
def f65536():
    return finite_field(65536)


def test_hom_into_f65536_answers_at_the_default_cap(f65536):
    """Hom(U, F_q) has q - 2 morphisms, one for each a other than 0 and 1:
    U's x goes to a and y to 1 - a.  For q = 65536 the search takes 65535
    + 131070 steps, under the default cap of 10^6."""
    stats = SearchStats()
    assert len(hom_set(named("U"), f65536, stats=stats)) == 65536 - 2
    assert stats.nodes == 1 + 65535 + 65534


def test_hom_set_charges_every_candidate_a_check_tests(f65536):
    """A check with a coefficient other than +-1 on the generator it
    narrows tests every candidate of that generator's domain, one step
    each.  F1pm<a,b>//(a^2+b^2-1) -> F13: 12 torsion units, 13 nodes (-1
    and every image of a), 12 candidates of b tested under each image of
    a, and 8 leaves, one per point of a^2 + b^2 = 1 with a and b nonzero,
    which number q - (-1)^((q-1)/2) - 4 for odd q; so 176 steps are
    refused and 177 answer.  Into F65536 the default cap refuses the search
    after 15 images of a instead of testing 65535^2 pairs.  A check solved
    from a pair table tests each solution when there are several: Hom(U,
    S x S), the 3^2 pairs of morphisms U -> S, takes 4 torsion units, 5
    nodes, 8 solutions tested and 9 leaves, 26 steps."""
    U, S = named("U"), named("S")
    with pytest.raises(SearchSpaceExceeded):
        hom_set(U, product(S, S), cap=25)
    assert len(hom_set(U, product(S, S), cap=26)) \
        == len(hom_set(U, S)) ** 2 == 9
    P = pasture_of("F1pm<a,b>//(a^2+b^2-1)")
    q = 13
    with pytest.raises(SearchSpaceExceeded):
        hom_set(P, finite_field(q), cap=176)
    stats = SearchStats()
    assert len(hom_set(P, finite_field(q), cap=177, stats=stats)) \
        == q - (-1) ** ((q - 1) // 2) - 4 == 8
    assert stats.nodes == 1 + 12 + 8
    with pytest.raises(SearchSpaceExceeded):
        hom_set(P, f65536)


def test_hom_set_charges_a_leaf_before_keeping_its_row(monkeypatch):
    """The rows of an entry are kept until its search ends, so each leaf
    is charged before its row is built, and a refused search holds no
    more rows than its cap.  U -> F128 at 380 steps is refused at its last
    leaf, the 126th: 125 rows are built, not 126.  Rows are built by
    ``tuple`` from the list of chosen images, counted here."""
    rows = []

    def counting(items=()):
        if isinstance(items, list):
            rows.append(items)
        return tuple(items)

    monkeypatch.setattr(morphisms, "tuple", counting, raising=False)
    with pytest.raises(SearchSpaceExceeded):
        hom_set(named("U"), finite_field(128), cap=127 + 253)
    assert len(rows) == 125


def counts(stats):
    return {n: getattr(stats, n) for n in SearchStats.__slots__}


def test_search_counters_are_pinned():
    """The work of two searches, node for node.  Hom(U, F_q) takes
    1 + (q - 1) + (q - 2) nodes: -1 -> -1, every image of x, and the image
    of y that each solves, but the one x that has no partner.  The
    U(3, 7) / F8 search visits 39710 nodes over a floor of 21583 (the nodes
    with an answer below them, the same floor as the order fixed before
    the search had).  A change of the generator order or of when a domain
    is narrowed changes these counts and fails here, even with the answers
    unchanged."""
    stats = SearchStats()
    assert len(hom_set(named("U"), finite_field(128), stats=stats)) == 126
    assert counts(stats) == {"nodes": 1 + 127 + 126, "floor": 253,
                             "prunes": 16003, "solves": 127,
                             "survivors": 126}
    # the same search through an inverse: y is solved with the sign flipped
    stats = SearchStats()
    hom_set(pasture_of("F1pm<a,b>//(a+b^-1-1)"), finite_field(128),
            stats=stats)
    assert counts(stats)["solves"] == 127
    stats = SearchStats()
    classes = representation_classes(uniform(3, 7), finite_field(8),
                                      cap=10**30, stats=stats)
    assert len(classes) == 1200
    assert counts(stats) == {"nodes": 39710, "floor": 21583,
                             "prunes": 431893, "solves": 175525,
                             "survivors": 1200}


def test_iso_counters_are_pinned():
    """The work of iso searches that run.  Lg(Lg(F7)) and Lg(F7) both have
    units C6, so the one generator has 6 candidate images: the checks cut
    5 before the search, which assigns the last, a morphism that is an
    isomorphism.  Lg(Lg(F9)) to Lg(F9) keeps two candidates, both
    morphisms.  An answer found before any search (Lg(F5) == F5) adds
    nothing, and without a record the answer is the same."""
    L = grs_lift(finite_field(7)).lift
    stats = SearchStats()
    assert iso_check(grs_lift(L).lift, L, stats=stats)
    assert counts(stats) == {"nodes": 1, "floor": 1, "prunes": 5,
                             "solves": 0, "survivors": 1}
    L = grs_lift(finite_field(9)).lift
    stats = SearchStats()
    assert iso_check(grs_lift(L).lift, L, stats=stats)
    assert counts(stats) == {"nodes": 2, "floor": 2, "prunes": 6,
                             "solves": 0, "survivors": 2}
    assert iso_check(grs_lift(L).lift, L) == iso_check(
        grs_lift(L).lift, L, stats=SearchStats())
    F5 = finite_field(5)
    stats = SearchStats()
    assert iso_check(grs_lift(F5).lift, F5, stats=stats)
    assert counts(stats) == dict.fromkeys(SearchStats.__slots__, 0)


def test_iso_check_builds_only_the_candidates_it_tests(monkeypatch):
    """The search hands out one morphism at a time, so ``iso_check`` builds
    candidates only up to the first isomorphism.  Lg(Lg(F81)) to Lg(F81)
    has four morphisms and the first is an isomorphism: one is built,
    though the entry's search, searched whole, counts all four."""
    built = []

    def counting(*args):
        built.append(args)
        return PastureMorphism(*args)

    L = grs_lift(finite_field(81)).lift
    LL = grs_lift(L).lift
    monkeypatch.setattr(morphisms, "PastureMorphism", counting)
    stats = SearchStats()
    found = iso_check(LL, L, stats=stats)
    monkeypatch.undo()
    assert len(built) == 1
    assert found.morphism.images() == ((53,),)
    assert counts(stats) == {"nodes": 4, "floor": 4, "prunes": 76,
                             "solves": 0, "survivors": 4}


@pytest.mark.parametrize("P, Q, solves", [
    ("D", "F1pm<z>//(-z-z-1)", 1), ("G", "F1pm<z>//(z^-2+z^-1-1)", 2)])
def test_iso_stops_before_the_inverse_entry(P, Q, solves):
    """At free rank one the free generator z goes to t*z or to t/z.  Here
    the t*z entry holds an isomorphism, so the t/z entry is never searched
    and adds no counters; searching both entries takes 3 and 4 nodes."""
    stats = SearchStats()
    found = iso_check(pasture_of(P), pasture_of(Q), stats=stats)
    assert found.morphism.images() == ((1, 0), (1, 1))
    assert counts(stats) == {"nodes": 2, "floor": 2, "prunes": 1,
                             "solves": solves, "survivors": 1}


def manifest_searches():
    """(source, target, cap) of every ``hom`` command of the output
    manifest, and of the foundation search of every ``reps`` (matroid,
    field, cap) there."""
    for argv in test_manifest.commands():
        cap = int(argv[-1]) if "--max-candidates" in argv else DEFAULT_CAP
        if argv[0] == "hom":
            yield pasture_of(argv[1]), pasture_of(argv[2]), cap
        elif argv[0] == "reps" and "--list" in argv:
            M = cli._load_matroid(str(test_manifest.DATA.parent.parent
                                      / argv[2]) if "/" in argv[2]
                                  else argv[2])
            yield _foundation(M)[0], pasture_of(argv[4]), cap


def test_count_matches_solutions_on_the_manifest():
    """``_count`` is ``_solutions`` without the rows: on each search of the
    manifest both answer or both are refused, and when they answer the
    count is the number of rows and both add the same counters, whose
    survivors are the count."""
    searched = refused = 0
    for source, target, cap in manifest_searches():
        got = []
        for search in (_solutions, _count):
            stats = SearchStats()
            try:
                answer = search(next(_model(source, target, cap)), stats)
            except SearchSpaceExceeded:
                answer = None
            got.append((answer, counts(stats)))
        (rows, kept), (n, counted) = got
        assert (rows is None) == (n is None)
        if n is None:
            refused += 1
            assert kept == counted == dict.fromkeys(SearchStats.__slots__, 0)
        else:
            searched += 1
            assert n == len(rows) == counted["survivors"]
            assert kept == counted
    assert (searched, refused) == (2223, 53)


def test_search_counters_add_up_and_default_off():
    stats = SearchStats()
    assert repr(stats) == ("SearchStats(nodes=0, floor=0, prunes=0, "
                           "solves=0, survivors=0)")
    F7 = finite_field(7)
    hom_set(named("U"), F7, stats=stats)
    once = counts(stats)
    hom_set(named("U"), F7, stats=stats)
    assert counts(stats) == {n: 2 * c for n, c in once.items()}
    # without a record the answers are the same, a list of them
    homs = hom_set(named("U"), F7)
    assert type(homs) is list
    assert homs == hom_set(named("U"), F7, stats=SearchStats())


def reference_iso(P, Q):
    """The finite iso search ``iso_check`` replaced: every epsilon-preserving
    unit hom of ``enumerate_homs``, first isomorphism wins."""
    for images in enumerate_homs(P.units, Q.units):
        gmap = GroupMap(Q.units, images)
        if is_surjective(gmap):
            m = PastureMorphism(P, Q, gmap)
            if is_isomorphism(m):
                return m
    return None


def twist(P, k):
    """P with its nullset moved by the unit automorphism x -> x^k (k prime
    to the exponent): isomorphic to P, and usually not equal to it."""
    g = P.units
    orbits = frozenset(canonical_orbit(g, tuple(g.power(x, k) for x in o))
                       for o in P.null_orbits)
    return Pasture(g, orbits)


@pytest.mark.parametrize("P, k", [
    (finite_field(7), 5), (finite_field(8), 3), (finite_field(9), 7),
    (finite_field(9), 5), (finite_field(13), 5), (finite_field(16), 7),
    (product(finite_field(3), finite_field(5)), 3),
    (product(finite_field(4), finite_field(7)), 5)],
    ids=lambda x: getattr(x, "label", None) or str(x))
def test_iso_check_finite_matches_reference(P, k):
    Q = twist(P, k)
    res = iso_check(P, Q)
    assert isinstance(res, Iso)
    assert res.morphism == reference_iso(P, Q)


def reference_unit_isos(P, Q):
    """The free-rank-one iso search ``iso_check`` replaced, kept as its
    oracle: the unit maps sending -1 to -1 and the free generator z to t*z
    for each torsion unit t, then to t/z, in ``itertools.product`` order
    over the generators; complete, since an isomorphism sends z to t*z or
    t/z."""
    gs, gt = P.units, Q.units
    torsion_pool = gt.torsion_elements()
    per_gen = [[e for e in torsion_pool
                if all((d * c) % dd == 0 for c, dd in zip(e, gt.torsion))]
               for d in gs.torsion]
    per_gen.append([t[:-1] + (sign,) for sign in (1, -1)
                    for t in torsion_pool])
    for images in itertools.product(*per_gen):
        gmap = GroupMap(gt, tuple(images))
        if gmap(gs.epsilon) == gt.epsilon:
            yield PastureMorphism(P, Q, gmap)


def flip(P):
    """P with its nullset moved by z -> 1/z on the free coordinates: an
    isomorphic pasture, usually not equal to P."""
    g = P.units
    n = len(g.torsion)
    orbits = frozenset(
        canonical_orbit(g, tuple(x[:n] + tuple(-c for c in x[n:])
                                 for x in o))
        for o in P.null_orbits)
    return Pasture(g, orbits, f"flip({P.label})")


def rank_one_quotients(seed, count):
    """F1pm<z> modulo one or two random 3-term relations of terms +-z^i,
    |i| <= 3, keeping those with a nullset: free rank one."""
    rng = random.Random(seed)
    A = free_algebra(named("F1pm"), ("z",))
    out = []
    while len(out) < count:
        relations = [tuple(unit((rng.randint(0, 1), rng.randint(-3, 3)))
                           for _ in range(3))
                     for _ in range(rng.randint(1, 2))]
        P = quotient(A, relations)
        if P.null_orbits:
            out.append(P.with_label(f"Q{len(out)}"))
    return out


RANK_ONE = [named("D"), named("G")] + rank_one_quotients(1, 6)
F3 = named("F3")
RANK_ONE_PAIRS = [(P, Q) for P, Q in (
    [(P, flip(P)) for P in RANK_ONE]
    + [(P, Q) for P, Q in itertools.combinations(RANK_ONE, 2)
       if len(P.null_orbits) == len(Q.null_orbits)]
    + [(product(P, F3), product(F3, Q)) for P in RANK_ONE[:4]
       for Q in (P, flip(P))]
    + [(tensor(P, named("H")), tensor(flip(P), named("H")))
       for P in RANK_ONE[:4]]) if P != Q]


@pytest.mark.parametrize("P, Q", RANK_ONE_PAIRS,
                         ids=[f"{P.label} / {Q.label}"
                              for P, Q in RANK_ONE_PAIRS])
def test_iso_check_rank_one_matches_reference(P, Q):
    assert P.units.free_rank == 1
    res = iso_check(P, Q)
    first = next((m for m in reference_unit_isos(P, Q)
                  if is_isomorphism(m)), None)
    assert isinstance(res, NotIso if first is None else Iso)
    if first is not None:
        assert res.morphism == first
