import itertools
import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from pastures.gf import field
from pastures.groups import SearchSpaceExceeded
from pastures.lifts import binary_lift, ternary_lift, wlum_lift
from pastures.matroids import (ExchangeAxiomViolation, Matroid,
                               Representation, RepresentationClass,
                               _constraints, _foundation, _gauge,
                               _least_columns,
                               _sorted_with_parity, lift_bijection_check,
                               matroid_from_json, mk4,
                               representation_classes, u24, uniform)
from pastures.morphisms import iso_check
from pastures.pasture import InfinitePasture, Pasture, PastureElement, \
    ZERO, finite_field, named, product, unit
from oracles import gf_minus_one, minus_one


# -- oracles: the Pluecker check by basis values -------------------------

def is_basis(M, b):
    return tuple(sorted(b)) in M._index


def nonbases(M):
    return tuple(b for b in itertools.combinations(range(1, M.n + 1), M.rank)
                 if b not in M._index)


def delta(rep, seq) -> PastureElement:
    """The basis value of the (unordered) index sequence, with the sign of
    the sorting permutation; zero on repeats and nonbases."""
    seq = tuple(seq)
    if len(set(seq)) < len(seq):
        return ZERO
    srt, parity = _sorted_with_parity(seq)
    i = rep.matroid._index.get(srt)
    if i is None:
        return ZERO
    v = rep.values[i]
    if parity:
        v = rep.pasture.mul(minus_one(rep.pasture), v)
    return v


def _check_constraint(P: Pasture, con, values, meps):
    """Whether one constraint of ``_constraints`` holds for the values."""
    prods = []
    for (i, pi), (j, pj) in con:
        if i is None or j is None:
            prods.append(ZERO)
            continue
        v = P.mul(values[i], values[j])
        if (pi + pj) & 1:
            v = P.mul(meps, v)
        prods.append(v)
    return P.null_contains(*prods)


def plucker_check(rep: Representation):
    """(ok, witness): whether all 3-term Pluecker relations of the
    representation land in the nullset; the witness is a failing constraint
    as basis-position terms."""
    P, meps = rep.pasture, minus_one(rep.pasture)
    con = next((con for con in _constraints(rep.matroid)
                if not _check_constraint(P, con, rep.values, meps)), None)
    return con is None, con


def test_constraints_are_cached():
    M = mk4()
    assert _constraints(M) is _constraints(M)
    assert _constraints(M) is _constraints(mk4())
    assert isinstance(_constraints(M), tuple)
    assert all(isinstance(b, tuple) for b in _constraints(M))
    assert _constraints(uniform(1, 3)) == ()


@given(st.lists(st.integers(-3, 3), max_size=8))
def test_sort_parity_is_the_sign_of_the_permutation(seq):
    """The parity is that of the stable sorting permutation, read off its
    cycles: a permutation of n points with c cycles has sign (-1)^(n - c).
    Equal entries keep their order, so they count as no inversion."""
    perm = sorted(range(len(seq)), key=seq.__getitem__)
    cycles, seen = 0, set()
    for start in perm:
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = perm[start]
    assert _sorted_with_parity(seq) == (tuple(sorted(seq)),
                                        (len(seq) - cycles) % 2)


def test_from_bases_validation():
    M = u24()
    assert M.n == 4 and M.rank == 2 and len(M.bases) == 6
    with pytest.raises(ExchangeAxiomViolation):
        Matroid.from_bases(4, 2, [(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        Matroid.from_bases(4, 2, [])
    with pytest.raises(ValueError):
        Matroid.from_bases(4, 2, [(1, 5)])
    with pytest.raises(ValueError):
        Matroid.from_bases(4, 2, [(1, 1)])


def test_mk4_is_the_spanning_tree_matroid():
    M = mk4()
    assert M.n == 6 and M.rank == 3
    assert len(M.bases) == 16       # Cayley: 4^2 spanning trees of K4
    assert not is_basis(M, (1, 2, 4))
    assert is_basis(M, (1, 2, 3))
    assert len(nonbases(M)) == 4


def test_json_roundtrip():
    M = mk4()
    assert matroid_from_json(json.loads(json.dumps(M.to_json()))) == M


def test_delta_alternating():
    P = finite_field(5)
    M = u24()
    values = tuple(unit((k % 4,)) for k in range(6))
    rep = Representation(M, P, values)
    assert delta(rep, (1, 2)) == values[0]
    assert delta(rep, (2, 1)) == P.mul(minus_one(P), values[0])
    assert delta(rep, (1, 1)).is_zero
    r3 = Representation(mk4(), P, tuple(unit((0,)) for _ in range(16)))
    assert delta(r3, (1, 2, 4)).is_zero          # nonbasis
    assert delta(r3, (2, 1, 3)) == minus_one(P)
    assert delta(r3, (3, 1, 2)) == P.one()


def field_det(F, cols):
    """Determinant of the square matrix with the given columns over F, by
    Laplace expansion (fine at this size)."""
    total = 0
    for perm in itertools.permutations(range(len(cols))):
        prod = 1
        for r, c in enumerate(perm):
            prod = F.mul(prod, cols[c][r])
        total = F.add(total, prod if _perm_sign(perm) > 0
                      else F.mul(gf_minus_one(F), prod))
    return total


def field_matrix_rep(M, q, cols):
    """Representation whose values are the maximal minors of a matrix."""
    F = field(q)
    P = finite_field(q)
    values = []
    for b in M.bases:
        d = field_det(F, [cols[e - 1] for e in b])
        assert d != 0, "matrix does not represent the matroid"
        values.append(PastureElement((F.dlog[d],)))
    return Representation(M, P, tuple(values))


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_plucker_accepts_matrix_minors():
    # U24 from 4 distinct projective points over F5 and F7
    for q, xs in ((5, (0, 1, 2, 3)), (7, (0, 1, 3, 5))):
        cols = [(1, x) for x in xs]
        rep = field_matrix_rep(uniform(2, 4), q, cols)
        ok, witness = plucker_check(rep)
        assert ok, witness
    # MK4 from the incidence-style matrix over F5
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 4, 0), (1, 0, 4),
            (0, 1, 4)]
    rep = field_matrix_rep(mk4(), 5, cols)
    ok, witness = plucker_check(rep)
    assert ok, witness


def test_plucker_rejects():
    P = finite_field(4)
    M = u24()
    # all ones fails the single relation: 1 - 1 + 1 != 0 over F4
    rep = Representation(M, P, tuple(unit((0,)) for _ in range(6)))
    ok, witness = plucker_check(rep)
    assert not ok and witness is not None
    # no U24 representation over the regular partial field at all
    assert representation_classes(M, named("F1pm")) == []


def test_u24_class_counts_match_cross_ratios():
    for q in (4, 5, 7, 8):
        classes = representation_classes(u24(), finite_field(q))
        assert len(classes) == q - 2


def test_class_structure():
    P = finite_field(5)
    classes = representation_classes(u24(), P)
    union = set()
    total = 0
    for c in classes:
        assert c.representative.values in c.members
        assert c.size == len(c.members)
        # orbit sizes divide the rescaling torus order
        assert (len(P.units.torsion_elements()) ** 4) % c.size == 0
        assert not (union & c.members)
        union |= c.members
        total += c.size
        ok, _ = plucker_check(c.representative)
        assert ok
    # classes partition the accepted set; recount it directly
    assert total == len(union)


def test_relabeling_invariance():
    # swapping two K4 vertices permutes the edges but fixes the matroid
    perm = {1: 1, 2: 4, 4: 2, 3: 5, 5: 3, 6: 6}
    M = mk4()
    relabeled = Matroid.from_bases(
        6, 3, [tuple(sorted(perm[e] for e in b)) for b in M.bases])
    assert relabeled == M
    for q in (3, 4):
        a = representation_classes(M, finite_field(q))
        b = representation_classes(relabeled, finite_field(q))
        assert len(a) == len(b)
        assert [c.size for c in a] == [c.size for c in b]


def test_guards():
    with pytest.raises(InfinitePasture):
        representation_classes(u24(), named("D"))
    # the cap bounds the steps of the search for F_M -> F7, F_M being U:
    # F7's 6 torsion units and 12 nodes
    with pytest.raises(SearchSpaceExceeded,
                       match="^hom search passed its cap of 17 steps$"):
        representation_classes(u24(), finite_field(7), cap=17)
    assert len(representation_classes(u24(), finite_field(7), cap=18)) == 5
    # every basis of U(1,8) is pinned, so F_M is F1pm with one morphism;
    # its class has 15^7 members, counted by formula, never enumerated
    [c] = representation_classes(uniform(1, 8), finite_field(16))
    assert c.size == 15**7
    assert "members" not in c.__dict__


@pytest.mark.parametrize("rank, n, q, count", [
    (2, 7, 8, math.prod(8 - k for k in range(2, 6))),
    (3, 6, 7, 140), (3, 7, 8, 1200)], ids=["U27/F8", "U36/F7", "U37/F8"])
def test_uniform_class_counts_at_the_default_cap(rank, n, q, count):
    """At the default cap, searches whose candidate pools multiply to
    6.8e11, 7.8e10 and 4.6e23 answer, in 2966, 1602 and 39710 nodes.
    U(2, n) over F_q has (q - 2)(q - 3)...(q - n + 2) classes: n points of
    the projective line, the first three fixed at 0, 1 and infinity.  The
    counts of U(3, 6) and U(3, 7) are those of the same search with the
    cap lifted."""
    assert len(representation_classes(uniform(rank, n), finite_field(q))) \
        == count


def test_mk4_counts():
    # a regular matroid has one class over every field
    for q in (3, 5, 7, 8, 9, 11, 13, 16):
        assert len(representation_classes(mk4(), finite_field(q))) == 1


# -- counts known from theory ------------------------------------------

FANO_LINES = [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (1, 5, 6),
              (2, 6, 7), (1, 3, 7)]


def fano(lines=FANO_LINES):
    """The matroid of the seven points on the given lines of the plane."""
    return Matroid.from_bases(
        7, 3, [b for b in itertools.combinations(range(1, 8), 3)
               if b not in lines])


NON_FANO = fano(FANO_LINES[1:])


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_fano_and_non_fano_counts(q):
    # the Fano plane is representable exactly in characteristic 2, the
    # non-Fano plane exactly in any other one, and both uniquely so
    assert len(representation_classes(fano(), finite_field(q))) == (q % 2 == 0)
    assert len(representation_classes(NON_FANO, finite_field(q))) == q % 2


@pytest.mark.parametrize("n", (5, 6))
@pytest.mark.parametrize("q", (7, 8, 9))
def test_uniform_line_counts(n, q):
    # n distinct points of the projective line up to projectivities: the
    # first three go to 0, 1 and infinity, the rest are distinct elsewhere
    classes = representation_classes(uniform(2, n), finite_field(q))
    assert len(classes) == math.prod(q - k for k in range(2, n - 1))


@pytest.mark.parametrize("r, n, q", [(2, 6, 11), (2, 5, 59), (3, 5, 59)])
def test_uniform_counts_at_the_default_cap(r, n, q):
    # as above, (q - 2) ... (q - n + 2) classes of U(2, n); U(3, 5) is dual
    # to U(2, 5), and duality is a bijection of classes.  Each was refused
    # at the default cap while the guard counted 2 images for F_M's -1.
    classes = representation_classes(uniform(r, n), finite_field(q))
    assert len(classes) == math.prod(q - k for k in range(2, n - 1))


def test_class_counts_from_closed_forms():
    """Counts from matroid theory, not from the library.  Over the Krasner
    hyperfield K every matroid has one class.  Over the sign hyperfield S,
    U(2, n) has one per cyclic order of its points up to reversal,
    (n - 1)!/2, a regular matroid has one and the Fano plane, which is not
    orientable, none.  A binary matroid has one class over F2 and a
    ternary one over F3 (Brylawski-Lucas); U(2, 4) is not binary and the
    Fano plane is not ternary."""
    K, S, F2, F3 = named("K"), named("S"), finite_field(2), finite_field(3)
    cases = [(K, M, 1) for M in [uniform(2, n) for n in range(4, 8)]
             + [uniform(3, 6), uniform(3, 7), mk4(), fano()]]
    cases += [(S, uniform(2, n), math.factorial(n - 1) // 2)
              for n in range(4, 8)]
    cases += [(S, mk4(), 1), (S, fano(), 0), (F2, mk4(), 1),
              (F2, fano(), 1), (F2, u24(), 0), (F3, mk4(), 1),
              (F3, u24(), 1), (F3, fano(), 0)]
    for P, M, count in cases:
        assert len(representation_classes(M, P)) == count, \
            (P.label, M.n, M.rank)


def test_foundations_are_the_known_pastures():
    # regular: F1pm; Fano: F2; non-Fano: the dyadic D (Baker-Lorscheid)
    for M, name in ((mk4(), "F1pm"), (fano(), "F2"), (NON_FANO, "D")):
        assert iso_check(_foundation(M)[0], named(name))
    # U24: the near-regular U, units C2 x Z^2 and one null orbit
    F = _foundation(u24())[0]
    assert (F.units.torsion, F.units.free_rank, len(F.null_orbits)) \
        == ((2,), 2, 1)


def test_foundation_is_cached():
    M = mk4()
    assert _foundation(M) is _foundation(M)
    assert _foundation(M) is _foundation(mk4())


def test_lift_bijections():
    M = u24()
    rep = lift_bijection_check(M, ternary_lift(finite_field(4)))
    assert rep.ok and rep.source_classes == rep.target_classes == 2
    rep = lift_bijection_check(M, wlum_lift(finite_field(4)))
    assert rep.ok and rep.source_classes == 2
    rep = lift_bijection_check(mk4(), binary_lift(finite_field(2)))
    assert rep.ok and rep.source_classes == rep.target_classes == 1
    assert sorted(p[0] for p in rep.pairs) == list(range(rep.source_classes))


def test_pushforward_preserves_acceptance():
    # push every H-representation of U24 through lambda and recheck
    res = ternary_lift(finite_field(4))
    lam = res.lam
    for c in representation_classes(u24(), res.lift):
        image = tuple(PastureElement(lam.unit_map(v.coords))
                      for v in c.representative.values)
        ok, _ = plucker_check(Representation(u24(), lam.target, image))
        assert ok


# -- reference oracle ---------------------------------------------------

def reference_classes(M, P):
    """The two-pass search the gauge replaced, kept as an oracle: backtrack
    over every assignment with the first basis at 1, then sweep the whole
    rescaling torus around each accepted assignment and drop repeats.
    Returns (representative values, members) pairs in output order."""
    units = [PastureElement(c) for c in
             sorted(P.units.torsion_elements(), key=P.units.key)]
    # each constraint is checked once its largest basis position is set
    buckets = [[] for _ in M.bases]
    for con in _constraints(M):
        buckets[max(t[0] for pair in con for t in pair
                    if t[0] is not None)].append(con)
    meps = minus_one(P)
    accepted = []

    def extend(values):
        k = len(values)
        if k and not all(_check_constraint(P, c, values, meps)
                         for c in buckets[k - 1]):
            return
        if k == len(M.bases):
            accepted.append(tuple(values))
            return
        for u in ([P.one()] if k == 0 else units):
            extend(values + [u])

    extend([])
    accepted_set, seen, out = set(accepted), set(), []
    key = P.units.key
    for vals in accepted:
        if vals in seen:
            continue
        orbit = set()
        for d in itertools.product(units, repeat=M.n):
            scaled = []
            for b, v in zip(M.bases, vals):
                for e in b:
                    v = P.mul(d[e - 1], v)
                scaled.append(v)
            c = P.inv(scaled[0])
            orbit.add(tuple(P.mul(c, w) for w in scaled))
        assert orbit <= accepted_set
        seen |= orbit
        out.append((min(orbit, key=lambda t: tuple(key(v.coords)
                                                   for v in t)),
                    frozenset(orbit)))
    return sorted(out, key=lambda c: tuple(key(v.coords) for v in c[0]))


def assert_matches_reference(M, P):
    got = [(c.representative.values, c.members)
           for c in representation_classes(M, P)]
    assert got == reference_classes(M, P)
    return got


def assert_members_are_representations(M, P, classes):
    """Every member passes the Pluecker check, and each class meets the
    gauge slice (pinned bases at 1) exactly once; those meeting points,
    the morphisms out of the foundation, are all accepted points with the
    pinned bases at 1."""
    pinned, _ = _gauge(M)
    one = P.one()
    accepted = set().union(*(members for _, members in classes))
    in_gauge = [[m for m in members if all(m[k] == one for k in pinned)]
                for _, members in classes]
    assert all(plucker_check(Representation(M, P, m))[0] for m in accepted)
    assert all(len(hits) == 1 for hits in in_gauge)
    assert ({hits[0] for hits in in_gauge}
            == {m for m in accepted if all(m[k] == one for k in pinned)})


def component_count(M):
    """Connected components, by circuits: two elements are connected when
    a circuit holds both; a loop or coloop is a component alone."""
    independent = {s for b in M.bases for k in range(len(b) + 1)
                   for s in itertools.combinations(b, k)}
    comp = {e: {e} for e in range(1, M.n + 1)}
    for k in range(1, M.rank + 2):
        for s in itertools.combinations(range(1, M.n + 1), k):
            subsets = set(itertools.combinations(s, k - 1))
            if s not in independent and subsets <= independent:
                merged = set().union(*(comp[e] for e in s))
                for e in merged:
                    comp[e] = merged
    return len({frozenset(c) for c in comp.values()})


# U(1,2) + U(1,2), and U(2,3) on {2,3,4} beside the coloop 1 and the loop 5
TWO_LINES = Matroid.from_bases(4, 2, [(1, 3), (1, 4), (2, 3), (2, 4)])
LOOP_AND_COLOOP = Matroid.from_bases(5, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])

REFERENCE_CORPUS = (
    [pytest.param(u24(), finite_field(q), id=f"U24/F{q}")
     for q in (2, 3, 4, 5, 7, 8, 9, 11)]
    + [pytest.param(u24(), named("H"), id="U24/H"),
       pytest.param(u24(), ternary_lift(finite_field(4)).lift,
                    id="U24/Lt(F4)")]
    + [pytest.param(mk4(), finite_field(q), id=f"MK4/F{q}")
       for q in (2, 3, 4, 5)]
    + [pytest.param(M, finite_field(q), id=name)
       for name, M, q in (("U23/F5", uniform(2, 3), 5),
                          ("U35/F5", uniform(3, 5), 5),
                          ("U12+U12/F5", TWO_LINES, 5),
                          ("loop+coloop/F4", LOOP_AND_COLOOP, 4))]
    # units with two torsion coordinates: C2 x C4 and C4 x C4
    + [pytest.param(u24(), product(finite_field(3), finite_field(5)),
                    id="U24/F3xF5"),
       pytest.param(TWO_LINES, product(finite_field(5), finite_field(5)),
                    id="U12+U12/F5xF5")])


@pytest.mark.parametrize("M,P", REFERENCE_CORPUS)
def test_classes_match_reference(M, P):
    assert_members_are_representations(M, P, assert_matches_reference(M, P))


def draw_column_matroid(q, data):
    """The matroid of a random 3x5 matrix over F_q, rejecting rank < 3."""
    cols = data.draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * 3),
                              min_size=5, max_size=5))
    bases = [b for b in itertools.combinations(range(1, 6), 3)
             if field_det(field(q), [cols[e - 1] for e in b])]
    assume(bases)       # a matrix of rank below 3 has no rank-3 matroid
    return Matroid.from_bases(5, 3, bases)


@pytest.mark.parametrize("q", (3, 5))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_column_matroids_match_reference(q, data):
    assert_matches_reference(draw_column_matroid(q, data), finite_field(q))


def least_rescaling(M, P, values):
    """The least rescaling of ``values`` by ``_least_columns``, which takes
    the values coordinate by coordinate."""
    torsion = P.units.torsion
    return _least_columns(M, torsion, [[v.coords[k] for v in values]
                                       for k in range(len(torsion))])


@pytest.mark.parametrize("q", (3, 5))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_least_is_the_least_member(q, data):
    M, P = draw_column_matroid(q, data), finite_field(q)
    key = P.units.key
    classes = representation_classes(M, P)
    for c in classes:
        least = min(c.members, key=lambda t: tuple(key(v.coords) for v in t))
        assert all(least_rescaling(M, P, t) == least for t in c.members)
    units = [PastureElement(u) for u in P.units.torsion_elements()]
    for rest in data.draw(st.lists(st.lists(st.sampled_from(units),
                                            min_size=len(M.bases) - 1,
                                            max_size=len(M.bases) - 1),
                                   max_size=5)):
        t = (P.one(), *rest)
        for c in classes:
            assert ((least_rescaling(M, P, t) == c.representative.values)
                    == (t in c.members))


# With the bases in lex order, every pivot of the reduction in
# ``_least_columns`` was 1 on every matroid tried.  These orders (built
# directly, since from_bases sorts the bases) reach the other branches: a
# pivot -1 in Z/4 (U24), and a pivot 2 in Z/4 with its annihilator row
# (MK4).
SHUFFLED_BASES = [
    pytest.param(Matroid(4, 2, ((1, 4), (2, 3), (1, 3), (2, 4), (3, 4),
                                (1, 2))),
                 product(finite_field(3), finite_field(5)), id="U24/F3xF5"),
    pytest.param(Matroid(6, 3, ((3, 5, 6), (1, 3, 4), (2, 4, 5), (1, 2, 6),
                                (1, 4, 6), (3, 4, 6), (2, 4, 6), (1, 3, 6),
                                (1, 5, 6), (2, 3, 4), (3, 4, 5), (2, 5, 6),
                                (1, 4, 5), (1, 2, 5), (1, 2, 3), (2, 3, 5))),
                 finite_field(5), id="MK4/F5"),
]


@pytest.mark.parametrize("M,P", SHUFFLED_BASES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_least_in_any_basis_order(M, P, data):
    units = [PastureElement(u) for u in P.units.torsion_elements()]
    t = (P.one(), *data.draw(st.lists(st.sampled_from(units),
                                      min_size=len(M.bases) - 1,
                                      max_size=len(M.bases) - 1)))
    orbit = RepresentationClass(Representation(M, P, t), 0).members
    key = P.units.key
    assert least_rescaling(M, P, t) == min(
        orbit, key=lambda m: tuple(key(v.coords) for v in m))


@pytest.mark.parametrize("M", [u24(), mk4(), uniform(2, 3), uniform(3, 5),
                               TWO_LINES, LOOP_AND_COLOOP,
                               Matroid.from_bases(3, 0, [()]),
                               Matroid.from_bases(2, 2, [(1, 2)])],
                         ids=["U24", "MK4", "U23", "U35", "U12+U12",
                              "loop+coloop", "loops", "coloops"])
def test_gauge_pins_one_basis_per_forest_edge(M):
    pinned, roots = _gauge(M)
    assert 0 in pinned
    assert len(roots) == component_count(M)
    assert len(pinned) == 1 + M.n - component_count(M)
