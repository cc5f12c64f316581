import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint

from pastures.hexagons import (HexagonsInconsistent, KIND_BY_MU,
                               NotFundamental, _check, census,
                               fundamental_pairs, hexagons, is_fundamental,
                               psi_product, rho, sigma)
from pastures.expr import pasture_of
from pastures.pasture import Pasture, finite_field, named, product, unit
from pastures.tables import expected_census, fiber_shape
from oracles import classify_by_shape, partition_check

CORPUS = [finite_field(q) for q in (3, 4, 5, 7, 8, 9, 11, 13)] + \
    [named(n) for n in ("K", "S", "W", "U", "D", "H", "G", "F3")]


def test_fundamental_pair_counts_in_fields():
    # x + y = 1 with x, y units: q - 2 solutions
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 17):
        assert len(fundamental_pairs(finite_field(q))) == q - 2


def test_no_fundamental_pairs():
    assert not fundamental_pairs(named("F1pm"))
    assert not fundamental_pairs(finite_field(2))
    assert not hexagons(finite_field(2))


def test_f7_hexagons():
    P = finite_field(7)
    hexes = hexagons(P)
    assert [(h.kind, h.mu) for h in hexes] == \
        [("hexagonal", 2), ("dyadic", 3)]
    dy = hexes[1]
    assert dy.support == frozenset({(2,), (3,), (4,)})
    assert dy.diagonal_element() is not None


def test_d3_action():
    for P in CORPUS:
        for pair in fundamental_pairs(P):
            assert sigma(P, sigma(P, pair)) == pair
            assert rho(P, rho(P, rho(P, pair))) == pair
            # sigma rho sigma = rho^-1
            lhs = sigma(P, rho(P, sigma(P, pair)))
            rhs = rho(P, rho(P, pair))
            assert lhs == rhs
            h = hexagon_holding(P, pair)
            assert frozenset(h.pairs) == reference_pair_orbit(P, pair)
            assert h.mu in (1, 2, 3, 6)


def test_orbits_partition_pairs():
    for P in CORPUS:
        pairs = fundamental_pairs(P)
        seen = set()
        for h in hexagons(P):
            assert not (set(h.pairs) & seen)
            seen |= set(h.pairs)
            assert h.mu == len(h.pairs)
        assert seen == set(pairs)


def test_nullset_hexagon_bijection():
    for P in CORPUS:
        hexes = hexagons(P)
        assert len(P.null_orbits) == len(hexes)
        assert sum(h.mu for h in hexes) == len(fundamental_pairs(P))


def test_hexagons_are_built_once_per_pasture():
    """Repeated calls return the kept tuple itself, equal to a fresh build
    on an equal pasture that has not built it yet."""
    wider = [pasture_of(e) for e in ("S x S", "F4 x F5", "U ox F3", "Lg(F5)")]
    for P in CORPUS + wider + [finite_field(64), finite_field(2)]:
        hexes = hexagons(P)
        assert hexagons(P) is hexes
        fresh = Pasture(P.units, P.null_orbits, P.label)
        assert "hexagons" not in vars(fresh)
        assert hexagons(fresh) == hexes


def test_classify_by_shape_agrees_with_orbit_length():
    for P in CORPUS:
        for h in hexagons(P):
            assert classify_by_shape(P, h) == KIND_BY_MU[h.mu]
            assert h.kind == KIND_BY_MU[h.mu]


def test_support_partition():
    # in a finite field the supports partition the units other than 1
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 25):
        ok, witness = partition_check(finite_field(q))
        assert ok, (q, witness)
    for name in ("K", "S", "U", "D", "G", "F3"):
        assert partition_check(named(name))[0]
    # weak sign hyperfield: the ternary and dyadic supports share -1
    assert partition_check(named("W")) == (False, (1,))
    # hexagonal partial field: finite but the support misses zeta^2
    assert partition_check(named("H")) == (False, (2,))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32])
def test_census_rules(q):
    assert census(q) == expected_census(q)


def hexagon_holding(P, pair):
    """The hexagon of ``hexagons(P)`` whose pairs include ``pair``."""
    (h,) = [h for h in hexagons(P) if pair in h.pairs]
    return h


def reference_pair_orbit(P, pair):
    """The D3 orbit walked with the checked moves sigma and rho."""
    seen = set()
    frontier = [_check(P, pair)]
    while frontier:
        p = frontier.pop()
        if p in seen:
            continue
        seen.add(p)
        frontier.append(sigma(P, p))
        frontier.append(rho(P, p))
    return frozenset(seen)


def test_pair_orbit_matches_checked_walk():
    fields = [finite_field(q) for q in range(2, 33) if len(factorint(q)) == 1]
    named_ones = [named(n) for n in ("F1pm", "F2", "F3", "K", "S", "W", "U",
                                     "D", "H", "G")]
    wider = [pasture_of(e) for e in ("S x S", "F4 x F5", "D x F3", "U ox F3",
                                     "Lt(F9)", "Lw(F4)", "Lg(F5)", "Lg(K)")]
    for P in fields + named_ones + wider:
        for pair in fundamental_pairs(P):
            assert frozenset(hexagon_holding(P, pair).pairs) == \
                reference_pair_orbit(P, pair)
        one = P.units.identity()
        if (one, one) not in fundamental_pairs(P):  # 1 + 1 = 1 holds in K, S, W
            with pytest.raises(NotFundamental):
                rho(P, (one, one))


def test_is_fundamental_and_errors():
    P = finite_field(5)
    # encodings follow powers of the generator 2: (1,) = 2, (2,) = 4
    assert is_fundamental(P, ((1,), (2,)))      # 2 + 4 = 1 in F5
    assert not is_fundamental(P, ((1,), (1,)))  # 2 + 2 = 4
    with pytest.raises(NotFundamental):
        rho(P, ((1,), (1,)))
    h = hexagon_holding(P, ((1,), (2,)))
    assert h.kind == "dyadic"
    assert h.diagonal_element() == (3,)         # 3 + 3 = 1


def test_record_schema():
    P = finite_field(7)
    for h in hexagons(P):
        rec = h.record(P)
        assert set(rec) == {"pair", "mu", "kind", "support"}
        assert len(rec["pair"]) == 2
        assert rec["mu"] == h.mu
        assert all(isinstance(s, list) for s in rec["support"])


def test_psi_product_fibers():
    data = psi_product(finite_field(5), finite_field(4))
    assert set(data.fibers) == {(0, 0)}
    mus = tuple(sorted(data.hexes[i].mu for i in data.fibers[(0, 0)]))
    assert mus == fiber_shape(3, 2) == (6,)


def test_psi_product_s_s():
    S = named("S")
    data = psi_product(S, S)
    assert set(data.fibers) == {(0, 0)}
    assert tuple(sorted(h.mu for h in data.hexes)) == (3, 6)
    kinds = sorted(h.kind for h in hexagons(product(S, S)))
    assert kinds == ["dyadic", "near-regular"]


def test_psi_product_missing_hexagon_is_a_typed_error(monkeypatch):
    F5 = finite_field(5)
    # the module's namespace: pastures.hexagons names the function here
    monkeypatch.setitem(psi_product.__globals__, "hexagons",
                        lambda P: () if P is F5 else hexagons(P))
    with pytest.raises(HexagonsInconsistent):
        psi_product(F5, finite_field(4))
