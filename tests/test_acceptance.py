"""Acceptance checks.

One test per headline capability of the library.  Run with ``pytest -v``
to get a single pass or fail line for each criterion.  Most criteria
re-run a frozen verification suite; the ones about bijections and
factorisation are spelled out inline so the assertion text shows exactly
what was compared.
"""

import pytest
from sympy import factorint

from pastures import verify
from pastures.expr import pasture_of
from pastures.hexagons import fundamental_pairs, hexagons
from pastures.lifts import ternary_lift, wlum_lift
from pastures.morphisms import compose, hom_set
from pastures.pasture import finite_field, named
from test_hexagons import reference_pair_orbit

NAMED = ("F1pm", "K", "S", "W", "U", "D", "H", "G", "F3", "F2")
# products, tensors and lifts, whose unit groups have several factors
WIDER = ("S x S", "F4 x F5", "D x F3", "U ox F3", "Lt(F9)", "Lw(F4)",
         "Lg(F5)", "Lg(K)")


def _prime_powers(bound):
    return [n for n in range(2, bound + 1) if len(factorint(n)) == 1]


def _suite_ok(name, **kw):
    report = verify.run(name, **kw)
    bad = [f"{i.name}: {i.detail}" for i in report.items if not i.ok]
    assert report.ok, f"{len(bad)} failed checks: {bad}"
    return report


def test_criterion_1_hexagon_lists_of_small_fields():
    report = _suite_ok("hex-lists")
    assert len(report.items) == 19
    with pytest.raises(ValueError, match="unknown suite 'hex'"):
        verify.run("hex")


def test_criterion_2_hexagon_census_up_to_q_64():
    report = _suite_ok("table1", max_q=64)
    assert len(report.items) == 27


def test_criterion_3_hexagons_biject_with_null_orbits():
    """The hexagons, read off the null orbits, are the D3 orbits of the
    fundamental pairs walked with sigma and rho, one per null orbit."""
    corpus = [finite_field(q) for q in _prime_powers(64)]
    corpus += [named(n) for n in NAMED]
    corpus += [pasture_of(e) for e in WIDER]
    for P in corpus:
        walked, left = set(), set(fundamental_pairs(P))
        while left:
            orbit = reference_pair_orbit(P, next(iter(left)))
            walked.add(orbit)
            left -= orbit
        hexes = [frozenset(h.pairs) for h in hexagons(P)]
        assert len(hexes) == len(P.null_orbits), P.label
        assert set(hexes) == walked, P.label


def test_criterion_4_fundamental_pair_witnesses():
    _suite_ok("table2")


def test_criterion_5_lift_factor_tables():
    _suite_ok("lift-table")


def test_criterion_6_grs_lift_identities():
    _suite_ok("glift")


def test_criterion_7_lift_idempotence():
    _suite_ok("idempotence")


def test_criterion_8_morphisms_factor_through_lifts():
    """Morphism counts from three small sources, and unique factorisation.

    Every morphism from F3 or the hexagonal pasture factors uniquely
    through the ternary lift of the target; every morphism from
    F2 ox H factors uniquely through the weak-local-uniqueness lift.
    """
    sources = {"F3": named("F3"), "H": named("H"),
               "F2 ox H": pasture_of("F2 ox H")}
    targets = {"F4": finite_field(4), "F5": finite_field(5),
               "F7": finite_field(7),
               "F4 x F5": pasture_of("F4 x F5")}
    expected = {("H", "F4"): 2, ("H", "F7"): 2, ("F2 ox H", "F4"): 2}
    for (ls, L) in sources.items():
        lift_of = ternary_lift if ls in ("F3", "H") else wlum_lift
        for (ps, P) in targets.items():
            homs = hom_set(L, P)
            assert len(homs) == expected.get((ls, ps), 0), (ls, ps)
            res = lift_of(P)
            through = hom_set(L, res.lift)
            for phi in homs:
                hits = [psi for psi in through
                        if compose(res.lam, psi).images() == phi.images()]
                assert len(hits) == 1, (ls, ps, phi.images())


def test_criterion_9_matroid_representation_counts():
    _suite_ok("matroid")


def test_criterion_10_product_formula_triples():
    report = _suite_ok("triples")
    assert len(report.items) == 42
