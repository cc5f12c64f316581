import itertools
import json
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import factorint

from pastures import lifts
from pastures import pasture as pasture_mod
from pastures.expr import pasture_of
from pastures.gf import field
from pastures.groups import (AbelianGroup, GroupMap, SearchSpaceExceeded,
                             identity_rows, reduce_presentation,
                             smith_normal_form)
from pastures.hexagons import fundamental_pairs, hexagons
from pastures.lifts import (_model_and_images, grs_lift, ternary_lift,
                            wlum_lift)
from pastures.matroids import (_foundation, matroid_from_json, mk4, u24,
                               uniform)
from pastures.morphisms import iso_check
from pastures.pasture import (NAMED, ZERO, BadRelationShape, Pasture,
                              canonical_orbit, finite_field, named,
                              presented, product, product_full,
                              quotient_full, tensor, tensor_full, unit)
from pastures.tables import ZAGIER_TRIPLES
from oracles import (free_algebra, gf_neg, minus_one, quotient,
                     reference_grs_relations, reference_orbit_pairs,
                     reference_product, reference_tensor_orbits, validate)

# frozen canonical data: (torsion, free_rank, epsilon, sorted null orbits)
NAMED_DATA = {
    "F1pm": ((2,), 0, (1,), ()),
    "F2": ((), 0, (), ()),
    "K": ((), 0, (), ((((), (), ())),)),
    "S": ((2,), 0, (1,), (((0,), (0,), (1,)),)),
    "W": ((2,), 0, (1,), (((0,), (0,), (0,)), ((0,), (0,), (1,)))),
    "F3": ((2,), 0, (1,), (((0,), (0,), (0,)),)),
    "U": ((2,), 2, (1, 0, 0),
          (((0, 0, 0), (0, 1, -1), (1, 0, -1)),)),
    "D": ((2,), 1, (1, 0), (((0, 0), (0, 0), (1, -1)),)),
    "H": ((6,), 0, (3,), (((0,), (2,), (4,)),)),
    "G": ((2,), 1, (1, 0), (((0, 0), (0, 1), (1, -1)),)),
}


@pytest.mark.parametrize("name", sorted(NAMED_DATA))
def test_named_pastures(name):
    P = named(name)
    torsion, rank, eps, orbits = NAMED_DATA[name]
    assert P.units.torsion == torsion
    assert P.units.free_rank == rank
    assert P.eps == eps
    assert tuple(P.sorted_orbits()) == orbits
    assert validate(P) == []
    assert P.label == name


def test_finite_fields_as_pastures():
    F5 = finite_field(5)
    assert F5.units.torsion == (4,)
    assert F5.eps == (2,)
    assert tuple(F5.sorted_orbits()) == (((0,), (0,), (3,)),)
    F4 = finite_field(4)
    assert F4.units.torsion == (3,)
    assert F4.eps == (0,)
    F2 = finite_field(2)
    assert F2.units.ngens == 0
    assert not F2.null_orbits
    # a field's nullset encodes a+b+c=0 on units
    from pastures.gf import field
    for q in (5, 7, 9):
        P = finite_field(q)
        F = field(q)
        for a in range(q - 1):
            for b in range(q - 1):
                for c in range(q - 1):
                    s = F.add(F.add(F.exp[a], F.exp[b]), F.exp[c])
                    assert P.null_contains(unit((a,)), unit((b,)),
                                           unit((c,))) == (s == 0)


def reference_canonical_orbit(group, triple):
    """The canonical form ``canonical_orbit`` computed before it keyed each
    ratio once, kept as its oracle: the least, by element keys, of the
    scalings of the triple by each distinct entry's inverse, each sorted."""
    best = None
    best_key = None
    for t in set(triple):
        tinv = group.inv(t)
        cand = tuple(sorted((group.mul(x, tinv) for x in triple),
                            key=group.key))
        ck = tuple(group.key(x) for x in cand)
        if best is None or ck < best_key:
            best, best_key = cand, ck
    return best


@st.composite
def groups_and_triples(draw):
    """A unit group of one of three shapes, C_n for n <= 127 (the unit group
    of F_(n+1)), C2 x Z^2 (U's) and C2 x Z^k for k <= 6 (tensor lifts'),
    and a triple of its elements, two or three of them equal at times."""
    kind = draw(st.sampled_from(["cyclic", "C2 x Z^2", "C2 x Z^k"]))
    if kind == "cyclic":
        n = draw(st.integers(2, 127))
        g = AbelianGroup((n,), 0, (n // 2 if n % 2 == 0 else 0,))
        elt = st.tuples(st.integers(0, n - 1))
    else:
        k = 2 if kind == "C2 x Z^2" else draw(st.integers(0, 6))
        g = AbelianGroup((2,), k, (1,) + (0,) * k)
        elt = st.tuples(st.integers(0, 1), *[st.integers(-3, 3)] * k)
    entries = dict(zip("xyz", (draw(elt), draw(elt), draw(elt))))
    shape = draw(st.sampled_from(["xyz", "xxz", "xyx", "xyy", "xxx"]))
    return g, tuple(entries[c] for c in shape)


@given(groups_and_triples(), st.data())
@settings(max_examples=500, deadline=None)
def test_canonical_orbit_matches_reference(case, data):
    g, triple = case
    rep = canonical_orbit(g, triple)
    assert rep == reference_canonical_orbit(g, triple)
    assert rep[0] == g.identity()
    # any scaling of any ordering gives the same representative
    scale = data.draw(st.sampled_from(triple))
    order = data.draw(st.permutations(triple))
    assert canonical_orbit(g, tuple(g.mul(scale, x) for x in order)) == rep


def reference_finite_field(q):
    """The O(q^2) construction ``finite_field`` replaced, kept as its oracle:
    the canonical orbit of every all-unit triple (a, b, -a-b), by the
    reference canonical form."""
    f = field(q)
    if q == 2:
        return Pasture(AbelianGroup((), 0, ()), frozenset(), "F2")
    eps = ((q - 1) // 2,) if q % 2 else (0,)
    g = AbelianGroup((q - 1,), 0, eps)
    orbits = set()
    for i in range(q - 1):
        for j in range(q - 1):
            c = gf_neg(f, f.add(f.exp[i], f.exp[j]))
            if c:
                orbits.add(reference_canonical_orbit(
                    g, ((i,), (j,), (f.dlog[c],))))
    return Pasture(g, frozenset(orbits), f"F{q}")


def reference_orbit_loop(q):
    """``finite_field`` before it read Zech logarithms, kept as its oracle:
    -1 - a by field additions and negations for each unit a = g^j, and the
    orbit of (1, a, -1 - a) canonicalised unless already met."""
    f = field(q)
    if q == 2:
        return Pasture(AbelianGroup((), 0, ()), frozenset(), "F2")
    eps = ((q - 1) // 2,) if q % 2 else (0,)
    g = AbelianGroup((q - 1,), 0, eps)
    orbits = set()
    seen = bytearray(q - 1)
    for j in range(q - 1):
        c = gf_neg(f, f.add(f.exp[0], f.exp[j]))
        if c and not seen[j]:
            k = f.dlog[c]
            for e in (j, k, -j, k - j, -k, j - k):
                seen[e % (q - 1)] = 1
            orbits.add(canonical_orbit(g, ((0,), (j,), (k,))))
    return Pasture(g, frozenset(orbits), f"F{q}")


def test_finite_field_matches_orbit_loop_up_to_1024():
    for q in (q for q in range(2, 1025) if len(factorint(q)) == 1):
        P, R = finite_field(q), reference_orbit_loop(q)
        assert (P.units, P.null_orbits, P.label) == \
            (R.units, R.null_orbits, R.label), q


# up to 81, and the top of the benchmark's fields workload
FIELD_QS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
            49, 64, 81, 101, 121, 125, 127, 128]


@pytest.mark.parametrize("q", FIELD_QS)
def test_finite_field_matches_reference(q):
    P, R = finite_field(q), reference_finite_field(q)
    assert P.units == R.units
    assert P.null_orbits == R.null_orbits
    assert P.label == R.label


@pytest.mark.parametrize("q", FIELD_QS)
def test_finite_field_canonicalises_each_orbit_once(q, monkeypatch):
    """``finite_field`` calls ``canonical_orbit`` by its global name, once
    per null orbit: the count a traced benchmark run reports."""
    calls = []

    def counting(group, triple):
        calls.append(triple)
        return canonical_orbit(group, triple)

    monkeypatch.setattr(pasture_mod, "canonical_orbit", counting)
    P = finite_field(q)
    assert len(calls) == len(P.null_orbits)


def orbit_pairs_by_orderings(P):
    """``Pasture.orbit_pairs`` as it was first built, kept as its oracle:
    the pair (-x/z, -y/z) for each of the six orderings of each null
    orbit."""
    g = P.units
    orbits = set()
    for o in P.null_orbits:
        pairs = set()
        for x, y, z in itertools.permutations(o):
            s = g.mul(P.eps, g.inv(z))
            pairs.add((g.mul(x, s), g.mul(y, s)))
        orbits.add(frozenset(pairs))
    return frozenset(orbits)


PRIME_POWERS_64 = [q for q in range(2, 65) if len(factorint(q)) == 1]


def test_orbit_pairs_match_reference():
    pastures = [named(n) for n in NAMED]
    pastures += [finite_field(q) for q in PRIME_POWERS_64]
    pastures += [product(finite_field(4), finite_field(5)),
                 product(named("S"), named("S")),
                 grs_lift(product(finite_field(4), finite_field(5))).lift,
                 grs_lift(finite_field(9)).lift,
                 _foundation(mk4())[0], _foundation(u24())[0]]
    for P in pastures:
        assert P.orbit_pairs == orbit_pairs_by_orderings(P), P
        assert P.orbit_pairs == reference_orbit_pairs(P), P


def _tensor_of(names):
    return tensor(*map(named, names))


ORBIT_PAIR_PASTURES = st.one_of(
    st.sampled_from(NAMED).map(named),
    st.sampled_from(PRIME_POWERS_64).map(finite_field),
    st.lists(st.sampled_from(NAMED), max_size=5).map(_tensor_of),
    st.tuples(st.sampled_from(NAMED), st.sampled_from(NAMED)).map(
        lambda pair: product(*map(named, pair))))


@given(ORBIT_PAIR_PASTURES)
@settings(max_examples=150, deadline=None)
def test_orbit_pairs_match_rotation_loop(P):
    """The hexagons read from (u, v) = (-x/z, -y/z) and its rotations
    (-v/u, 1/u) and (1/v, -u/v) against one scaling by -1/c per rotation
    (a, b, c) of each null orbit: finite, free and mixed unit groups."""
    assert P.orbit_pairs == reference_orbit_pairs(P)


def lift_factors(q):
    """The model pastures whose tensor is the ternary lift of F_q."""
    P = finite_field(q)
    return [_model_and_images(P, h)[0] for h in hexagons(P)]


TENSOR_CASES = {f"lift F{q}": lift_factors(q)
                for q in PRIME_POWERS_64 if 3 <= q <= 32}
TENSOR_CASES.update({m: [named(m)] for m in ("U", "D", "H", "F3")})
TENSOR_CASES["U ox D ox H ox F3"] = [named(m) for m in ("U", "D", "H", "F3")]


@given(st.lists(st.sampled_from(NAMED), max_size=6))
@settings(max_examples=150, deadline=None)
def test_tensor_orbits_match_padded_words(names):
    """Each factor's orbits projected through its own inclusion give the
    orbits of its members padded to the full width and projected through
    every row of the reduction."""
    factors = [named(n) for n in names]
    assert (tensor_full(factors).pasture.null_orbits
            == reference_tensor_orbits(factors))


PRIME_POWERS_256 = [q for q in range(2, 257) if len(factorint(q)) == 1]


def assert_carried_hexagons_match_reference(T):
    """The ``orbit_pairs`` a tensor carries from its factors, and the
    hexagons read off them, against those recomputed by one scaling per
    rotation on a fresh pasture with the same units and orbits."""
    assert "orbit_pairs" in vars(T)
    fresh = Pasture(T.units, T.null_orbits)
    vars(fresh)["orbit_pairs"] = reference_orbit_pairs(fresh)
    assert T.orbit_pairs == fresh.orbit_pairs
    assert hexagons(T) == hexagons(fresh)


def test_lift_tensor_orbits_match_padded_words_up_to_256():
    """The hexagon models of the ternary lift of F_q and, when -1 = 1, the
    WLUM lift's with its F2, for every prime power q <= 256: the orbits, and
    the hexagons the tensor carries from its factors."""
    assert len(PRIME_POWERS_256) == 70
    for q in PRIME_POWERS_256:
        models = lift_factors(q)
        lists = [models]
        if q % 2 == 0:
            lists.append(models + [named("F2")])
        for factors in lists:
            T = tensor_full(factors).pasture
            assert (T.null_orbits
                    == reference_tensor_orbits(factors)), (q, len(factors))
            if factors:     # no factors give the stock F1pm
                assert_carried_hexagons_match_reference(T)
    for kind in (lifts.ternary_lift, lifts.wlum_lift):
        assert_carried_hexagons_match_reference(kind(finite_field(256)).lift)


# factors that are not models: named pastures, finite fields, products and a
# GRS lift (G, of F4 x F5); drawn with repetition, so that the orbits of
# equal factors, such as the one orbit of each F3, can land on one orbit
TENSOR_FACTORS = [named(n) for n in NAMED] + [
    finite_field(q) for q in (3, 4, 5, 7, 8, 9, 13, 16)] + [
    product(finite_field(3), finite_field(5)),
    product(named("S"), named("S")), product(named("U"), named("F3")),
    grs_lift(product(finite_field(4), finite_field(5))).lift]


@given(st.lists(st.sampled_from(TENSOR_FACTORS), min_size=1, max_size=4))
@example([named("F3"), named("F3")])
@example([finite_field(4), named("H"), finite_field(4)])
@settings(max_examples=150, deadline=None)
def test_tensor_carries_factor_hexagons(factors):
    """Orbits and hexagons carried from factors that are not models, on
    the columns their inclusions touch, against the padded words and the
    hexagons recomputed on the full unit group."""
    T = tensor_full(factors).pasture
    assert T.null_orbits == reference_tensor_orbits(factors)
    assert_carried_hexagons_match_reference(T)


def test_tensor_canonicalises_each_factor_orbit_once(monkeypatch):
    """The orbits and hexagons of a factor are kept with it, keyed by its
    inclusion restricted to the columns it touches: a second tensor of the
    same models canonicalises no orbit, and a tensor of fresh copies, which
    keep nothing yet, canonicalises the one orbit of each copy once."""
    calls = []
    canonical = pasture_mod.canonical_orbit

    def counted(*args):
        calls.append(args)
        return canonical(*args)

    monkeypatch.setattr(pasture_mod, "canonical_orbit", counted)
    models = lift_factors(128)
    first = tensor_full(models).pasture
    calls.clear()
    assert tensor_full(models).pasture == first
    assert calls == []
    copies = [Pasture(F.units, F.null_orbits, F.label) for F in models]
    assert tensor_full(copies).pasture == first
    assert len(calls) == len(models)


@pytest.mark.parametrize("factors", TENSOR_CASES.values(), ids=TENSOR_CASES)
def test_tensor_inclusions_are_projected_unit_vectors(factors, monkeypatch):
    """Each inclusion row of ``tensor_full`` is the projection of the
    factor's unit vector padded into the concatenated coordinates."""
    reductions = []

    def capture(*args):
        reductions.append(reduce_presentation(*args))
        return reductions[-1]

    monkeypatch.setattr(pasture_mod, "reduce_presentation", capture)
    res = tensor_full(factors)
    (red,) = reductions
    total = len(red.project.rows)
    offset = 0
    for F, inc in zip(factors, res.inclusions):
        n = F.units.ngens
        assert inc.rows == tuple(
            red.project([0] * offset + list(e) + [0] * (total - offset - n))
            for e in identity_rows(n))
        offset += n
    assert offset == total


@pytest.mark.parametrize("P", [
    finite_field(2), finite_field(7), finite_field(8), named("K"),
    named("S"), named("W"), product(finite_field(3), finite_field(5))],
    ids=lambda P: P.label)
def test_null3_matches_orbit_lookup(P):
    """The pair lookup of ``_null3`` against the canonical orbit lookup it
    replaced, on every triple of units."""
    g = P.units
    for t in itertools.product(g.torsion_elements(), repeat=3):
        assert P._null3(*t) == (canonical_orbit(g, t) in P.null_orbits), t


def test_null_pairs_are_cached():
    P = named("U")
    assert P.null_pairs is P.null_pairs
    # U's one orbit x + y - 1 = 0 is a near-regular hexagon: six pairs
    assert len(P.null_pairs) == 6
    assert ((0, 1, 0), (0, 0, 1)) in P.null_pairs


@pytest.mark.parametrize("P", [
    finite_field(9), named("H"), named("S"),
    product(finite_field(3), finite_field(5)), named("U"), named("D"),
    named("G"), product(named("D"), finite_field(3))],
    ids=["F9", "H", "S", "F3 x F5", "U", "D", "G", "D x F3"])
def test_indexed_units(P):
    form = P.indexed
    assert form is P.indexed
    g = P.units
    n = len(g.torsion)
    # the torsion units, in key order: U's are 1 and -1
    units = form.coords
    assert units == sorted(g.torsion_elements(), key=g.key)
    assert all(not any(u[n:]) for u in units)
    assert units[form.eps] == g.epsilon
    # (a, b) is filed under (fa, fb) exactly when x + y + 1 = 0 for the
    # units x, y with torsion parts a, b and free parts fa, fb
    filed = {(units[a][:n] + fa, units[b][:n] + fb)
             for (fa, fb), table in form.partners.items()
             for a, bs in table.items() for b in bs}
    # one entry per filed pair
    assert sum(len(bs) for table in form.partners.values()
               for bs in table.values()) == len(filed)
    assert filed == {(g.mul(g.epsilon, x), g.mul(g.epsilon, y))
                     for x, y in P.null_pairs}
    assert all(P._null3(x, y, g.identity()) for x, y in filed)
    if P.is_finite:
        assert set(form.partners) <= {((), ())}
        assert filed == {(x, y) for x in units for y in units
                         if P._null3(x, y, g.identity())}
    # the files are symmetric: each is the transpose of its swap, and each
    # list ascends
    for (fa, fb), table in form.partners.items():
        swapped = form.partners[(fb, fa)]
        assert {(a, b) for a, bs in table.items() for b in bs} == \
            {(a, b) for b, xs in swapped.items() for a in xs}
        assert all(bs == sorted(bs) for bs in table.values())
    if P == named("U"):
        assert units == [(0, 0, 0), (1, 0, 0)]


def test_zero_rules():
    F5 = finite_field(5)
    one = F5.one()
    meps = minus_one(F5)
    assert F5.null_contains(ZERO, ZERO, ZERO)
    assert not F5.null_contains(one, ZERO, ZERO)
    assert F5.null_contains(one, meps, ZERO)
    assert not F5.null_contains(one, one, ZERO)
    U = named("U")
    x = unit((0, 1, 0))
    assert U.null_contains(x, U.mul(minus_one(U), x), ZERO)
    assert not U.null_contains(x, x, ZERO)


coords = st.tuples(st.integers(0, 1), st.integers(-3, 3), st.integers(-3, 3))


@given(st.tuples(coords, coords, coords), coords)
@settings(max_examples=200, deadline=None)
def test_canonical_orbit_properties(triple, scale):
    g = AbelianGroup((2,), 2, (1, 0, 0))
    rep = canonical_orbit(g, triple)
    # idempotent
    assert canonical_orbit(g, rep) == rep
    # invariant under simultaneous scaling
    scaled = tuple(g.mul(scale, x) for x in triple)
    assert canonical_orbit(g, scaled) == rep
    # invariant under permutation
    a, b, c = triple
    assert canonical_orbit(g, (c, a, b)) == rep
    assert canonical_orbit(g, (b, a, c)) == rep


def test_free_algebra_and_quotient():
    P = free_algebra(named("F1pm"), ("x", "y"))
    assert P.units.torsion == (2,)
    assert P.units.free_rank == 2
    assert not P.null_orbits
    # impose x + y - 1 = 0: the result is the near-regular partial field
    x, y = unit((0, 1, 0)), unit((0, 0, 1))
    Q = quotient(P, [(x, y, minus_one(P))])
    assert bool(iso_check(Q, named("U")))
    # a relation that is no triple, a term that is no element, and an
    # element of a group with other generators
    for relation in [(x, y), (x, y, (0, 0, 1)), (x, y, unit((0, 1)))]:
        with pytest.raises(BadRelationShape):
            quotient_full(P, [relation])


# -- presentations --------------------------------------------------------

def reference_named(name):
    """``named(name)`` as it was built before its table of rows: relations
    between elements of a free algebra over F1pm, passed to ``quotient``."""
    base = Pasture(reduce_presentation(1, [[2]], [1]).group, frozenset())
    one, meps = base.one(), minus_one(base)
    z, mz = unit((0, 1)), unit((1, 0))
    gens = {"U": ("x", "y"), "D": ("z",), "H": ("z",), "G": ("z",)}
    relations = {
        "F1pm": [],
        "K": [(one, one, ZERO), (one, one, one)],
        "S": [(one, one, meps)],
        "W": [(one, one, one), (one, one, meps)],
        "F2": [(one, one, ZERO)],
        "F3": [(one, one, one)],
        "U": [(unit((0, 1, 0)), unit((0, 0, 1)), unit((1, 0, 0)))],
        "D": [(z, z, mz)],
        "H": [(unit((0, 3)), unit((0, 0)), ZERO), (z, unit((0, -1)), mz)],
        "G": [(unit((0, 2)), z, mz)],
    }[name]
    return quotient(free_algebra(base, gens.get(name, ())), relations)


@pytest.mark.parametrize("name", NAMED)
def test_named_matches_element_construction(name):
    P, Q = named(name), reference_named(name)
    assert (P.units, P.null_orbits) == (Q.units, Q.null_orbits)


def reference_quotient(P, relations):
    """``quotient_full`` by element arithmetic, kept as an oracle: a 2-term
    relation x + y = 0 kills x * y^-1 * (-1), a 3-term one adjoins an
    orbit."""
    kill, orbits = [], list(P.null_orbits)
    for tri in relations:
        parts = [e for e in tri if not e.is_zero]
        if len(parts) == 2:
            x, y = parts
            kill.append(P.mul(P.mul(x, P.inv(y)), minus_one(P)).coords)
        else:
            orbits.append(tuple(e.coords for e in parts))
    if kill:
        red = reduce_presentation(P.units.ngens, P.units.relation_rows()
                                  + [list(k) for k in kill],
                                  list(P.units.epsilon))
        g, cum, sections = red.group, red.project, red.sections
    else:
        g, sections = P.units, identity_rows(P.units.ngens)
        cum = GroupMap(g, sections)
    orbits = frozenset(reference_canonical_orbit(g, tuple(map(cum, o)))
                       for o in orbits)
    return Pasture(g, orbits), cum, sections


def test_canonical_units_reduce_with_no_column_operation():
    """On a canonical group the Smith normal form of its own relation rows
    is its torsion and logs no column operation, so a quotient by 3-term
    relations alone keeps the coordinates: ``quotient_full`` by none gives
    P back with identity maps.  Checked on every named pasture, the fields
    up to 32, a product, a tensor, lifts, and the foundations of the
    matroids the tests use."""
    data = pathlib.Path(__file__).parent / "data"
    matroids = [u24(), mk4(), uniform(1, 3), uniform(2, 5), uniform(3, 6)]
    matroids += [matroid_from_json(json.loads((data / f).read_text()))
                 for f in ("u18.json", "u24.json", "u26.json", "mk4.json")]
    cases = [named(n) for n in NAMED]
    cases += [finite_field(q) for q in range(2, 33) if len(factorint(q)) == 1]
    cases += [product(finite_field(4), finite_field(5)),
              tensor(named("D"), named("H")), grs_lift(finite_field(8)).lift,
              ternary_lift(finite_field(8)).lift,
              wlum_lift(finite_field(9)).lift]
    cases += [_foundation(M)[0] for M in matroids]
    for P in cases:
        g = P.units
        assert smith_normal_form(g.relation_rows(), g.ngens) == (
            list(g.torsion) + [0] * g.free_rank, [])
        res = quotient_full(P, [])
        assert (res.pasture.units, res.pasture.null_orbits) == (
            g, P.null_orbits)
        assert res.unit_map.rows == res.sections == identity_rows(g.ngens)


def as_elements(n, relations):
    """``presented``'s relations, sparse terms over n free units, as
    elements of F1pm<t_1..t_n>."""
    return [tuple(ZERO if term is None else unit(term.get(k, 0)
                                                 for k in range(n + 1))
                  for term in rel) for rel in relations]


@st.composite
def presentations(draw):
    """(n, relations): up to six random relations over F1pm<t_1..t_n>,
    n <= 5, each of two or three terms +-t_1^c_1 .. t_n^c_n with |c_i| <= 3
    as sparse exponent maps, the zero term of a 2-term relation at a random
    position."""
    n = draw(st.integers(0, 5))
    term = st.tuples(st.integers(0, 1), *[st.integers(-3, 3)] * n).map(
        lambda row: {k: c for k, c in enumerate(row) if c})
    relation = st.tuples(term, term, st.one_of(st.none(), term)).flatmap(
        lambda rel: st.permutations(rel).map(tuple))
    return n, draw(st.lists(relation, max_size=6))


@given(presentations())
@settings(max_examples=200, deadline=None)
def test_presented_matches_quotient_of_free_algebra(pres):
    n, relations = pres
    A = free_algebra(named("F1pm"), [f"t{i}" for i in range(n)])
    elements = as_elements(n, relations)
    want = reference_quotient(A, elements)
    for res in (presented(n, relations), quotient_full(A, elements)):
        assert (res.pasture, res.unit_map, res.sections) == want


GRS_SOURCES = ([f"F{q}" for q in range(3, 33) if len(factorint(q)) == 1]
               + ["F4 x F5", "F5 x F5"])


def fundamental_elements(P):
    """The fundamental elements of P in key order, as ``grs_lift`` lists
    them."""
    g = P.units
    return sorted({a for a, _ in fundamental_pairs(P)}, key=g.key)


@pytest.mark.parametrize("text", GRS_SOURCES)
def test_grs_lift_matches_reference_quotient(monkeypatch, text):
    """The GRS lift, its rows written directly, equals the presentation by
    the sparse terms of ``reference_grs_relations``: the lift, the images
    of lambda and the sections.  That presentation equals the
    element-arithmetic quotient by the same relations as elements.  The
    same holds for the lift of the lift, which may reuse the reduction of
    the first lift."""
    seen = []

    def record(red, adjoin):
        seen.append(pasture_mod._adjoined(red, adjoin))
        return seen[-1]

    monkeypatch.setattr(lifts, "_adjoined", record)
    P = pasture_of(text)
    for P in (P, grs_lift(P).lift):
        seen.clear()
        L = grs_lift(P)
        got, = seen
        g, F = P.units, fundamental_elements(P)
        n, relations = len(F), reference_grs_relations(P)
        res = presented(n, relations)
        assert got == res
        assert L.lift == res.pasture
        assert L.lam.unit_map.rows == tuple(
            map(GroupMap(g, (g.epsilon, *F)), res.sections))
        A = free_algebra(named("F1pm"), [f"t{i}" for i in range(n)])
        want = reference_quotient(A, as_elements(n, relations))
        assert (res.pasture, res.unit_map, res.sections) == want


def test_grs_rows_match_reference_relations_on_benchmark_corpus(
        monkeypatch):
    """On the sources of the benchmark's presentations workload and more,
    every F_q and F_p1 x F_p2 of a Zagier triple with q <= 64 and the
    named pastures, and on the GRS lift of each: the rows ``grs_lift``
    builds from its signature and the 3-term relations it adjoins are
    those ``presented`` builds from ``reference_grs_relations``, and the
    reduction it adjoins them to, built or reused, is that of the
    reference rows.  A lift that reduces its rows passes the reference
    rows to ``reduce_presentation``; the lift of the lift of a field
    reuses the reduction and builds no row."""
    inputs = []

    def arguments(units, kill, adjoin):
        return units, [list(r) for r in kill], [tuple(o) for o in adjoin]

    def record_rows(ngens, rows, eps):
        inputs.append(("rows", [list(r) for r in rows]))
        return reduce_presentation(ngens, rows, eps)

    def record_adjoined(red, adjoin):
        inputs.append(("adjoined", red, [tuple(o) for o in adjoin]))
        return adjoined(red, adjoin)

    adjoined = pasture_mod._adjoined
    monkeypatch.setattr(lifts, "reduce_presentation", record_rows)
    monkeypatch.setattr(lifts, "_adjoined", record_adjoined)
    sources = [finite_field(q) for q in range(2, 65)
               if len(factorint(q)) == 1]
    sources += [product(finite_field(p1), finite_field(p2))
                for q, p1, p2 in ZAGIER_TRIPLES if q <= 64]
    sources += [named(name) for name in NAMED]
    for P in sources:
        for Q in (P, grs_lift(P).lift):
            inputs.clear()
            L = grs_lift(Q).lift
            *rows, (_, red, adjoin) = inputs
            with monkeypatch.context() as m:
                m.setattr(pasture_mod, "_reduced", arguments)
                units, kill, want_adjoin = presented(
                    len(fundamental_elements(Q)), reference_grs_relations(Q))
            want_rows = units.relation_rows() + kill
            signature, kept = vars(L)["grs_presentation"]
            assert lifts._grs_rows(signature) == want_rows, Q
            assert adjoin == want_adjoin, Q
            if rows:
                assert rows == [("rows", want_rows)], Q
            else:       # only a lift's own lift may reuse
                assert Q is not P, Q
            if Q is not P and P.label[1:].isdigit():
                assert not rows, Q
            assert kept is red
            assert red == reduce_presentation(
                units.ngens, want_rows, list(units.epsilon)), Q


@pytest.mark.parametrize("term", [{2: 1}, {-1: 1}, {"1": 1}, [0, 1],
                                  {1: 0.5}, {1: "1"}, {0: None}, {1.0: 1}])
def test_presented_refuses_malformed_terms(term):
    """A coordinate outside 0..n, a non-integer exponent or a term that is
    not an exponent map raises BadRelationShape, not an IndexError: in
    each slot of a 2-term and of a 3-term relation, checked as the rows are
    built, and after 500 well-formed relations."""
    well = ([({1: 1}, {0: 1}, None), ({1: 2}, {}, None),
             ({1: 1}, {}, {0: 1})] * 167)[:500]
    presented(1, well)
    with pytest.raises(BadRelationShape, match="at least two nonzero terms"):
        presented(1, [({1: 1}, None, None)])
    for slot in range(3):
        two = [{1: 1}] * 3
        two[slot], two[slot - 1] = term, None
        three = [{1: 1}, {0: 1}, {}]
        three[slot] = term
        for relation in (two, three):
            with pytest.raises(BadRelationShape):
                presented(1, [tuple(relation)])
            with pytest.raises(BadRelationShape):
                presented(1, well + [tuple(relation)])


def test_product_and_tensor_identities():
    # F2 tensor F3 collapses to the Krasner hyperfield
    T = tensor(finite_field(2), finite_field(3))
    assert T.units.ngens == 0
    assert tuple(T.sorted_orbits()) == (((), (), ()),)
    assert bool(iso_check(T, named("K")))
    # empty product / tensor
    assert bool(iso_check(product(), named("K")))
    assert bool(iso_check(tensor(), named("F1pm")))
    # product of fields is finite with multiplied unit count
    R = product(finite_field(4), finite_field(5))
    assert R.units.size() == 12
    # commutativity up to isomorphism
    assert bool(iso_check(R, product(finite_field(5), finite_field(4))))


def test_s_times_s():
    S = named("S")
    R = product(S, S)
    assert R.units.torsion == (2, 2)
    assert R.units.free_rank == 0
    assert len(R.null_orbits) == 2


@pytest.mark.parametrize("pair", [("F4", "F5"), ("S", "S"), ("U", "F3"),
                                  ("F8", "F23"), ("H", "D"), ("F2", "G")],
                         ids=" x ".join)
def test_product_embeddings_are_projected_unit_vectors(pair, monkeypatch):
    """The embeddings of ``product_full`` are the projections of each
    factor's padded unit vectors, and its orbits those of every pairing of
    the factors' orbits under them, as the product was built before."""
    P, Q = (named(n) if n in NAMED else finite_field(int(n[1:])) for n in pair)
    reductions = []

    def capture(*args):
        reductions.append(reduce_presentation(*args))
        return reductions[-1]

    monkeypatch.setattr(pasture_mod, "reduce_presentation", capture)
    res = product_full(P, Q)
    (red,) = reductions
    n1, n2 = P.units.ngens, Q.units.ngens

    def pad1(x):
        return red.project(list(x) + [0] * n2)

    def pad2(y):
        return red.project([0] * n1 + list(y))

    assert res.embed1.rows == tuple(map(pad1, identity_rows(n1)))
    assert res.embed2.rows == tuple(map(pad2, identity_rows(n2)))
    R = res.pasture.units
    assert res.pasture.null_orbits == {
        reference_canonical_orbit(R, tuple(
            R.mul(pad1(a[i]), pad2(b[perm[i]])) for i in range(3)))
        for a in P.null_orbits for b in Q.null_orbits
        for perm in itertools.permutations(range(3))}


def test_product_guard(monkeypatch):
    """``product_full`` charges its candidate orbits, one ``canonical_orbit``
    call each, before anything is built: 6 |O_P| |O_Q| = 6 * 3 * 3 = 54
    for F4 x F7 times F13.  A cap of 53 refuses the product before
    ``reduce_presentation`` is called, and a cap of 54 answers."""
    P, Q = product(finite_field(4), finite_field(7)), finite_field(13)
    charge = 6 * len(P.null_orbits) * len(Q.null_orbits)
    calls = []

    def counted(*args):
        calls.append(1)
        return canonical_orbit(*args)

    with monkeypatch.context() as m:
        m.setattr(pasture_mod, "canonical_orbit", counted)
        want = product_full(P, Q)
    assert len(calls) == charge == 54

    def unreached(*args):
        raise AssertionError("product built")

    with monkeypatch.context() as m:
        m.setattr(pasture_mod, "MAX_PRODUCT_ORBITS", charge - 1)
        m.setattr(pasture_mod, "reduce_presentation", unreached)
        with pytest.raises(SearchSpaceExceeded,
                           match="^product passed its cap of 53 orbits$"):
            product_full(P, Q)
    monkeypatch.setattr(pasture_mod, "MAX_PRODUCT_ORBITS", charge)
    assert product_full(P, Q) == want


def test_tensor_guard(monkeypatch):
    """``tensor_full`` charges its Smith normal form input before it builds
    any row: a row per torsion relation of a factor and per gluing of two
    factors' -1, by the factors' generators together.  The ternary lift of
    F7 tensors H (C6) and D (C2 x Z): 3 rows by 3 columns, 9 cells, the
    input ``reduce_presentation`` receives.  A cap of 8 refuses the lift
    before ``reduce_presentation`` is called, and a cap of 9 answers."""
    F7, cells = finite_field(7), []

    def recorded(width, rows, epsilon):
        cells.append(len(rows) * width)
        return reduce_presentation(width, rows, epsilon)

    with monkeypatch.context() as m:
        m.setattr(pasture_mod, "reduce_presentation", recorded)
        want = ternary_lift(F7)
    assert cells == [9]

    def unreached(*args):
        raise AssertionError("tensor built")

    with monkeypatch.context() as m:
        m.setattr(pasture_mod, "MAX_TENSOR_CELLS", 8)
        m.setattr(pasture_mod, "reduce_presentation", unreached)
        with pytest.raises(SearchSpaceExceeded,
                           match="^tensor passed its cap of 8 cells$"):
            ternary_lift(F7)
    monkeypatch.setattr(pasture_mod, "MAX_TENSOR_CELLS", 9)
    got = ternary_lift(F7)
    assert (got.lift, got.factor_descriptor) == (want.lift,
                                                 want.factor_descriptor)


PRODUCT_FACTORS = [named(n) for n in NAMED] + [
    finite_field(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)]


@given(st.sampled_from(PRODUCT_FACTORS), st.sampled_from(PRODUCT_FACTORS))
@settings(max_examples=150, deadline=None)
def test_product_full_matches_projected_words(P, Q):
    """``product_full`` multiplies the images of the factors' orbits under
    the embeddings; the oracle projects their concatenated words."""
    got, want = product_full(P, Q), reference_product(P, Q)
    assert got == want
    assert got.pasture.label == want.pasture.label


def test_descriptor_schema():
    for P in (named("U"), finite_field(9), product(named("S"), named("S"))):
        d = P.descriptor()
        assert set(d) == {"units", "null_orbits", "label"}
        assert set(d["units"]) == {"free_rank", "torsion", "epsilon"}
        assert isinstance(d["units"]["free_rank"], int)
        assert all(isinstance(t, int) for t in d["units"]["torsion"])
        for orbit in d["null_orbits"]:
            assert len(orbit) == 3
            for v in orbit:
                assert all(isinstance(c, int) for c in v)


def test_element_ops():
    P = finite_field(7)
    a = unit((1,))
    assert P.mul(a, P.inv(a)) == P.one()
    assert P.mul(a, ZERO).is_zero
    assert P.inv(minus_one(P)) == minus_one(P)
    with pytest.raises(ZeroDivisionError):
        P.inv(ZERO)
