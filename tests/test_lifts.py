import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint

from pastures import cli, lifts
from pastures.expr import pasture_of
from pastures.groups import (AbelianGroup, SearchSpaceExceeded,
                             reduce_presentation)
from pastures.hexagons import fundamental_pairs
from pastures.lifts import (KindMismatch, LiftCheckFailed,
                            _check_pair_bijection, binary_lift, grs_lift,
                            lift_descriptor_iso, ternary_lift, wlum_lift)
from pastures.morphisms import hom_set, is_isomorphism, iso_check
from pastures.pasture import (Pasture, _adjoined, finite_field, named,
                              product)
from pastures.tables import LIFT_TABLE, WLUM_TABLE, ZAGIER_TRIPLES


def test_binary_lift_cases():
    res = binary_lift(finite_field(2))
    assert res.lift.label == "F2"
    assert res.kind == "binary"
    res = binary_lift(finite_field(4))
    assert res.lift.label == "F2"       # char 2: -1 = 1
    res = binary_lift(finite_field(5))
    assert res.lift.label == "F1pm"
    assert res.lam.unit_map((1,)) == (2,)


def test_ternary_descriptors_match_table():
    for name, want in LIFT_TABLE.items():
        P = finite_field(int(name[1:])) if name[1:].isdigit() else named(name)
        res = ternary_lift(P)
        assert res.kind == "ternary"
        for factor, count in res.factor_descriptor.items():
            assert count == want.get(factor, 0), (name, factor)


def test_wlum_descriptors():
    for name, want in WLUM_TABLE.items():
        res = wlum_lift(finite_field(int(name[1:])))
        assert res.kind == "wlum"
        for factor, count in res.factor_descriptor.items():
            assert count == want.get(factor, 0), (name, factor)
    # wlum only differs from ternary when -1 = 1
    res = wlum_lift(finite_field(5))
    assert res.factor_descriptor["F2"] == 0
    assert res.factor_descriptor["D"] == 1


def test_lift_of_pasture_without_hexagons():
    res = ternary_lift(named("F1pm"))
    assert res.lift.label == "F1pm"
    assert sum(res.factor_descriptor.values()) == 0
    res = wlum_lift(finite_field(2))
    assert res.factor_descriptor["F2"] == 1


def test_lambda_restricts_to_pair_bijection():
    P = finite_field(9)
    res = ternary_lift(P)
    lam = res.lam
    down = {tuple(map(lam.unit_map, p)) for p in
            fundamental_pairs(res.lift)}
    assert down == set(fundamental_pairs(P))
    assert len(fundamental_pairs(res.lift)) == len(fundamental_pairs(P))


def test_grs_small_cases():
    assert bool(iso_check(grs_lift(finite_field(5)).lift, finite_field(5)))
    assert bool(iso_check(grs_lift(named("K")).lift, named("K")))
    res = grs_lift(product(finite_field(4), finite_field(5)))
    assert bool(iso_check(res.lift, named("G")))
    assert res.kind == "grs"


def reference_g5_triples(g, F):
    """The index triples i <= j <= k with F[i] F[j] F[k] = 1, found by
    trying all of them."""
    for i, j, k in itertools.combinations_with_replacement(range(len(F)), 3):
        if g.mul(g.mul(F[i], F[j]), F[k]) == g.identity():
            yield i, j, k


def test_grs_lift_matches_reference_g5_loop(monkeypatch):
    pastures = [finite_field(q) for q in range(2, 33) if len(factorint(q)) == 1]
    pastures += [product(finite_field(3), finite_field(5)),
                 product(finite_field(4), finite_field(5))]
    for P in pastures:
        g = P.units
        F = sorted({a for a, _ in fundamental_pairs(P)}, key=g.key)
        assert list(lifts._g5_triples(g, F)) == \
            list(reference_g5_triples(g, F)), P.label
    fast = [grs_lift(P) for P in pastures]
    monkeypatch.setattr(lifts, "_g5_triples", reference_g5_triples)
    for P, got in zip(pastures, fast):
        want = grs_lift(P)
        assert got.lift == want.lift, P.label
        assert got.lift.label == want.lift.label
        assert got.lam.unit_map.rows == want.lam.unit_map.rows, P.label


def test_g5_exponent_path_matches_tuple_path():
    """The same triples in the same order as the reference, which multiplies
    coordinate tuples, for the units of F_q (q <= 64) and of its GRS lift
    (q <= 32), all cyclic past F2."""
    prime_powers = [q for q in range(3, 65) if len(factorint(q)) == 1]
    pastures = [finite_field(q) for q in prime_powers]
    pastures += [grs_lift(finite_field(q)).lift for q in prime_powers
                 if q <= 32]
    for P in pastures:
        g = P.units
        assert g.cyclic == g.size() > 1, P.label
        F = sorted({a for a, _ in fundamental_pairs(P)}, key=g.key)
        assert list(lifts._g5_triples(g, F)) == \
            list(reference_g5_triples(g, F)), P.label


def count_group_calls(monkeypatch):
    """Patch ``AbelianGroup.mul`` and ``inv`` to count their calls in the
    returned list."""
    calls = []
    mul, inv = AbelianGroup.mul, AbelianGroup.inv
    monkeypatch.setattr(AbelianGroup, "mul", lambda self, a, b:
                        calls.append(1) or mul(self, a, b))
    monkeypatch.setattr(AbelianGroup, "inv", lambda self, a:
                        calls.append(1) or inv(self, a))
    return calls


@pytest.mark.parametrize("pair", [(5, 19), (4, 4), (8, 23), (3, 5)],
                         ids=lambda p: f"F{p[0]}xF{p[1]}")
def test_g5_finite_units_take_the_packed_path(pair, monkeypatch):
    """F5 x F19, F4 x F4 and F8 x F23 have units of two invariant factors,
    (2, 36), (3, 3) and (7, 22), and F3 x F5 has cyclic units; all find
    their triples on packed exponents, with no ``AbelianGroup`` call."""
    P = product(*map(finite_field, pair))
    g = P.units
    assert g.is_finite
    F = sorted({a for a, _ in fundamental_pairs(P)}, key=g.key)
    want = list(reference_g5_triples(g, F))
    calls = count_group_calls(monkeypatch)
    assert list(lifts._g5_triples(g, F)) == want
    assert not calls


@pytest.mark.parametrize("text,triples", [
    ("Lg(U)", 0), ("G", 4), ("G x F5", 16), ("G ox H", 4)],
    ids=["Lg(U)", "G", "G x F5", "G ox H"])
def test_g5_free_units_take_the_packed_path(text, triples, monkeypatch):
    """Units with free rank, C2 x Z^2, C2 x Z, C2 x C4 x Z and C6 x Z,
    pack their free coordinates beside the torsion ones: the triples of
    the reference, with no ``AbelianGroup`` call."""
    P = pasture_of(text)
    g = P.units
    assert g.free_rank
    F = sorted({a for a, _ in fundamental_pairs(P)}, key=g.key)
    want = list(reference_g5_triples(g, F))
    assert len(want) == triples
    calls = count_group_calls(monkeypatch)
    assert list(lifts._g5_triples(g, F)) == want
    assert not calls


@st.composite
def groups_and_inverse_closed_sets(draw):
    """A group of 0 to 3 invariant factors, each dividing the next, and 0
    to 2 free coordinates, and a set of its elements closed under
    inversion, sorted by key."""
    factors, d = [], 1
    for _ in range(draw(st.integers(0, 3))):
        d *= draw(st.integers(2, 4)) if not factors or draw(st.booleans()) \
            else 1
        factors.append(d)
    free = draw(st.integers(0, 2))
    g = AbelianGroup(tuple(factors), free, (0,) * (len(factors) + free))
    element = st.tuples(*[st.integers(0, d - 1) for d in factors],
                        *[st.integers(-6, 6)] * free)
    chosen = draw(st.lists(element, max_size=12))
    F = sorted(set(chosen) | set(map(g.inv, chosen)), key=g.key)
    return g, F


@given(groups_and_inverse_closed_sets())
@settings(max_examples=200, deadline=None)
def test_g5_packed_path_matches_reference(case):
    g, F = case
    assert list(lifts._g5_triples(g, F)) == list(reference_g5_triples(g, F))


GRS_CORPUS = [finite_field(q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 27)] + \
    [product(finite_field(4), finite_field(5)),
     product(finite_field(5), finite_field(19))] + \
    [named(n) for n in ("K", "U", "D", "H", "F3")]


@pytest.mark.parametrize("P", GRS_CORPUS, ids=lambda P: P.label)
def test_grs_lift_one_g3_per_hexagon_matches_every_pair(P, monkeypatch):
    """G3 for one pair of each hexagon adjoins the same orbits as G3 for
    every fundamental pair: adding the other pairs' relations changes
    neither the lift nor lambda, and the same holds for the lift of the
    lift, whose orbits are adjoined the same way when it reuses the
    reduction of the first lift."""
    for P in (P, grs_lift(P).lift):
        got = grs_lift(P)
        g = P.units
        F = sorted({a for a, _ in fundamental_pairs(P)}, key=g.key)
        col = {a: 1 + i for i, a in enumerate(F)}
        every_pair = [({col[a]: 1}, {col[b]: 1}, {0: 1})
                      for a, b in fundamental_pairs(P)]
        monkeypatch.setattr(lifts, "_adjoined", lambda red, adjoin:
                            _adjoined(red, [*adjoin, *every_pair]))
        want = grs_lift(P)
        monkeypatch.undo()
        assert got.lift == want.lift, P.label
        assert got.lam.unit_map.rows == want.lam.unit_map.rows, P.label


def test_grs_guard(monkeypatch):
    """The GRS lift counts its Smith normal form input before building a
    row: F53's is 553 rows (the C2 row of -1, 51 G4, 51 G2 and 450 G5
    rows) of 52 cells, 28 756 cells.  A cap one cell smaller than the
    input ``reduce_presentation`` receives refuses it before any row is
    built, and a cap of exactly that answers, on pastures with and without
    -1 = 1.  The lift of the lift of a field, which reuses the first
    reduction, is counted and refused the same."""
    def unreached(*args):
        raise AssertionError("Smith normal form input built")

    cells = {}
    for P in (finite_field(53), finite_field(4), finite_field(9), named("U"),
              product(named("D"), finite_field(3))):
        def spy(ngens, rows, eps):
            cells[P.label] = len(rows) * ngens
            return reduce_presentation(ngens, rows, eps)

        with monkeypatch.context() as m:
            m.setattr(lifts, "reduce_presentation", spy)
            want = grs_lift(P)
        cap = cells[P.label]
        sources = (P, want.lift) if P.label[1:].isdigit() else (P,)
        for Q in sources:
            with monkeypatch.context() as m:
                m.setattr(lifts, "MAX_CELLS", cap - 1)
                m.setattr(lifts, "_grs_rows", unreached)
                m.setattr(lifts, "reduce_presentation", unreached)
                with pytest.raises(SearchSpaceExceeded, match=(
                        f"^GRS lift passed its cap of {cap - 1} cells$")):
                    grs_lift(Q)
        monkeypatch.setattr(lifts, "MAX_CELLS", cap)
        assert grs_lift(P) == want, P.label
        if len(sources) == 2:
            L = want.lift
            fresh = grs_lift(Pasture(L.units, L.null_orbits)).lift
            monkeypatch.setattr(lifts, "reduce_presentation", unreached)
            assert grs_lift(L).lift == fresh, P.label
        monkeypatch.undo()
    assert cells["F53"] == 553 * 52 == 28756


def test_grs_guard_draws_only_the_triples_that_fit(monkeypatch, capsys):
    """The rows other than G5 are counted before any G5 triple is drawn,
    and triples are drawn only until one passes the cells left.  F65536
    (n = 65534) is refused with no triple drawn, F1024 (n = 1022: the C2
    row, G1, 1022 G4 and 1022 G2 rows of 1023 cells) after the triples
    that fit and one more; both exit 2 from the command line with one
    stderr line."""
    drawn = []
    g5_triples = lifts._g5_triples

    def counted(g, F):
        for t in g5_triples(g, F):
            drawn.append(t)
            yield t

    monkeypatch.setattr(lifts, "_g5_triples", counted)
    message = f"guard tripped: GRS lift passed its cap of " \
              f"{lifts.MAX_CELLS} cells\n"
    for q, room in ((65536, -1), (1024, lifts.MAX_CELLS // 1023 - 2046)):
        drawn.clear()
        assert cli.main(["lift", "--kind", "grs", f"F{q}"]) == 2
        assert capsys.readouterr() == ("", message)
        assert len(drawn) == max(room + 1, 0), q


def test_idempotence_spot_checks():
    for P in (finite_field(7), named("S"), product(named("S"), named("S"))):
        for fn in (ternary_lift, wlum_lift, grs_lift):
            relift = fn(fn(P).lift)
            assert is_isomorphism(relift.lam), (P.label, fn.__name__)


def test_descriptor_iso():
    L1 = ternary_lift(finite_field(8))
    L2 = ternary_lift(product(finite_field(4), finite_field(5)))
    assert lift_descriptor_iso(L1, L2)      # both are U
    L3 = ternary_lift(finite_field(5))
    assert not lift_descriptor_iso(L1, L3)
    with pytest.raises(KindMismatch):
        lift_descriptor_iso(L1, grs_lift(finite_field(5)))
    with pytest.raises(KindMismatch, match="lifts of different kinds"):
        lift_descriptor_iso(L1, wlum_lift(finite_field(8)))


def test_pair_bijection_check_is_a_typed_error():
    # U has one near-regular hexagon (6 pairs), F3 a single pair, so no
    # morphism U -> F3 is a bijection on fundamental pairs; the check must
    # raise its own error, which `python -O` does not strip
    lam = hom_set(named("U"), finite_field(3))[0]
    with pytest.raises(LiftCheckFailed):
        _check_pair_bijection(lam)


def count_reductions(monkeypatch):
    """Patch the ``reduce_presentation`` of ``grs_lift`` to count its calls
    in the returned list."""
    calls = []
    monkeypatch.setattr(lifts, "reduce_presentation", lambda *args:
                        calls.append(1) or reduce_presentation(*args))
    return calls


# every F_q and F_p1 x F_p2 of a Zagier triple with q <= 64, and GRS_CORPUS
REUSE_SOURCES = list({P.label: P for P in [
    *(finite_field(q) for q in range(2, 65) if len(factorint(q)) == 1),
    *(product(finite_field(p1), finite_field(p2))
      for q, p1, p2 in ZAGIER_TRIPLES if q <= 64),
    *GRS_CORPUS]}.values())


@pytest.mark.parametrize("P", REUSE_SOURCES, ids=lambda P: P.label)
def test_grs_relift_reuse_matches_a_fresh_reduction(P, monkeypatch):
    """The GRS lift of a GRS lift, and of its lift, with the kept
    reduction and without it (the same pasture, built anew): the same
    lift, the same images of lambda, the same label and the same kept
    signature and reduction.  The lift of the lift of a field reuses the
    first reduction, under a label too, as ``Lg(Lg(F7))`` evaluates."""
    L1 = grs_lift(P).lift
    L2 = grs_lift(L1).lift
    calls = count_reductions(monkeypatch)
    for Q in (L1, L2, L1.with_label("Lg(P)")):
        calls.clear()
        got = grs_lift(Q)
        reused = not calls
        want = grs_lift(Pasture(Q.units, Q.null_orbits, Q.label))
        assert got.lift == want.lift and got.lift.label == want.lift.label
        assert got.lift.null_orbits == want.lift.null_orbits
        assert got.lam.unit_map.rows == want.lam.unit_map.rows
        assert vars(got.lift)["grs_presentation"] == \
            vars(want.lift)["grs_presentation"]
        if P.label[1:].isdigit():
            assert reused, P.label


def test_relift_runs_one_reduction_per_new_presentation(monkeypatch):
    """``Lg(Lg(F53))`` reduces one presentation, its lift's being the
    same; ``Lg(Lg(F5 x F19))`` two, its lift's rows coming in another
    order.  Both give the answer of a fresh reduction."""
    for text, want in (("Lg(Lg(F53))", 1), ("Lg(Lg(F5 x F19))", 2)):
        with monkeypatch.context() as m:
            calls = count_reductions(m)
            got = pasture_of(text)
        assert len(calls) == want, text
        L = pasture_of(text[3:-1])
        assert got == grs_lift(Pasture(L.units, L.null_orbits)).lift


@pytest.mark.parametrize("part", [2, 3, 4], ids=["G4", "G2", "G5"])
def test_grs_relift_reuses_only_an_equal_signature(part, monkeypatch):
    """A kept signature that differs from the lift's own in one part, the
    order of the G4 rows or of the G2 pairs, or the G5 triples, one fewer,
    is not reused:
    the reduction kept with it is never read, and the answer is a fresh
    reduction's.  The same signature with the same poisoned reduction is
    reused, so the test reaches the comparison."""
    L = grs_lift(finite_field(7)).lift
    want = grs_lift(Pasture(L.units, L.null_orbits)).lift
    signature, _ = vars(L)["grs_presentation"]
    changed = list(signature)
    changed[part] = changed[part][::-1] if part != 4 else changed[4][:-1]
    assert changed[part] != signature[part]
    vars(L)["grs_presentation"] = (tuple(changed), None)
    calls = count_reductions(monkeypatch)
    assert grs_lift(L).lift == want
    assert calls == [1]
    vars(L)["grs_presentation"] = (signature, None)
    with pytest.raises(AttributeError):
        grs_lift(L)
