import itertools

import pytest
from sympy import factorint

from pastures import lifts
from pastures.groups import AbelianGroup
from pastures.hexagons import fundamental_pairs
from pastures.lifts import (KindMismatch, LiftCheckFailed, NotFinitary,
                            _check_pair_bijection, binary_lift, grs_lift,
                            lift_descriptor_iso, ternary_lift, wlum_lift)
from pastures.morphisms import hom_set, is_isomorphism, iso_check
from pastures.pasture import finite_field, named, product
from pastures.tables import LIFT_TABLE, WLUM_TABLE


def test_binary_lift_cases():
    res = binary_lift(finite_field(2))
    assert res.lift.label == "F2"
    assert res.kind == "binary"
    res = binary_lift(finite_field(4))
    assert res.lift.label == "F2"       # char 2: -1 = 1
    res = binary_lift(finite_field(5))
    assert res.lift.label == "F1pm"
    assert res.lam.apply_unit((1,)) == (2,)


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
    down = {tuple(map(lam.apply_unit, p)) for p in
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
    """Every unordered triple (with repetition) from F whose product is 1,
    found by trying all of them."""
    for a, b, c in itertools.combinations_with_replacement(F, 3):
        if g.mul(g.mul(a, b), c) == g.identity():
            yield a, b, c


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


def on_tuple_path(g):
    """A copy of ``g`` with ``cyclic`` cleared, so that ``_g5_triples``,
    ``mul`` and ``inv`` take the coordinate-tuple path, the reference."""
    h = AbelianGroup(g.torsion, g.free_rank, g.epsilon)
    object.__setattr__(h, "cyclic", 0)
    return h


def test_g5_exponent_path_matches_tuple_path():
    """The same triples in the same order, for the units of F_q (q <= 64)
    and of its GRS lift (q <= 32), all cyclic past F2."""
    prime_powers = [q for q in range(3, 65) if len(factorint(q)) == 1]
    pastures = [finite_field(q) for q in prime_powers]
    pastures += [grs_lift(finite_field(q)).lift for q in prime_powers
                 if q <= 32]
    for P in pastures:
        g = P.units
        assert g.cyclic == g.size() > 1, P.label
        F = sorted({a for a, _ in fundamental_pairs(P)}, key=g.key)
        assert list(lifts._g5_triples(g, F)) == \
            list(lifts._g5_triples(on_tuple_path(g), F)), P.label


def test_g5_non_cyclic_units_take_the_tuple_path(monkeypatch):
    """F5 x F19: units (2, 36), one tuple product per pair i <= j."""
    P = product(finite_field(5), finite_field(19))
    g = P.units
    assert g.torsion == (2, 36) and g.cyclic == 0
    F = sorted({a for a, _ in fundamental_pairs(P)}, key=g.key)
    want = list(reference_g5_triples(g, F))
    products = []
    mul = AbelianGroup.mul
    monkeypatch.setattr(AbelianGroup, "mul", lambda self, a, b:
                        products.append(1) or mul(self, a, b))
    assert list(lifts._g5_triples(g, F)) == want
    assert len(products) == len(F) * (len(F) + 1) // 2


def test_grs_guard(monkeypatch):
    monkeypatch.setattr(lifts, "MAX_FUNDAMENTAL", 1)
    with pytest.raises(NotFinitary):
        grs_lift(finite_field(7))


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


def test_pair_bijection_check_is_a_typed_error():
    # U has one near-regular hexagon (6 pairs), F3 a single pair, so no
    # morphism U -> F3 is a bijection on fundamental pairs; the check must
    # raise its own error, which `python -O` does not strip
    lam = hom_set(named("U"), finite_field(3))[0]
    with pytest.raises(LiftCheckFailed):
        _check_pair_bijection(lam)
