"""Verification suites: recompute the frozen reference data from scratch.

Each suite returns a report with one pass/fail item per checked fact.
Suites: hex-lists, table1, table2, lift-table, glift, triples, idempotence,
matroid.
"""

from __future__ import annotations

from . import tables
from .gf import NotPrimePower, field, prime_power
from .hexagons import census, hexagons, psi_product
from .lifts import (binary_lift, grs_lift, lift_descriptor_iso, ternary_lift,
                    wlum_lift)
from .matroids import lift_bijection_check, mk4, representation_classes, u24
from .morphisms import is_isomorphism, iso_check
from .pasture import finite_field, named, product
from .record import Record


class VerifyItem(Record):
    _fields = ("name", "ok", "detail")
    detail = ""

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


class VerifyReport(Record):
    _fields = ("suite", "items")

    @property
    def ok(self) -> bool:
        return all(i.ok for i in self.items)

    def to_json(self) -> dict:
        return {"suite": self.suite, "ok": self.ok,
                "items": [i.to_json() for i in self.items]}


def _item(name, ok, detail=""):
    return VerifyItem(name, bool(ok), detail)


def is_prime_power(n: int) -> bool:
    try:
        prime_power(n)
    except NotPrimePower:
        return False
    return True


def prime_powers(limit: int):
    return [q for q in range(2, limit + 1) if is_prime_power(q)]


def _hex_shape(P):
    """(kind, mu, support) triples of a pasture, supports as coord sets."""
    return {(h.kind, h.mu, frozenset(h.support)) for h in hexagons(P)}


def hex_lists_suite(**_) -> VerifyReport:
    items = []
    for q in sorted(tables.HEX_LISTS):
        F = field(q)
        got = set()
        for h in hexagons(finite_field(q)):
            sup = frozenset(F.exp[c[0] % (q - 1)] for c in h.support)
            got.add((h.kind, h.mu, sup))
        want = {(k, m, tables.resolve_support(q, s))
                for (k, m, s) in tables.HEX_LISTS[q]}
        items.append(_item(f"F{q}", got == want,
                           "" if got == want else f"got {sorted(got)}"))
    for name in sorted(tables.NAMED_HEX):
        got = _hex_shape(named(name))
        want = {(k, m, frozenset(s)) for (k, m, s) in tables.NAMED_HEX[name]}
        items.append(_item(name, got == want,
                           "" if got == want else f"got {sorted(got)}"))
    return VerifyReport("hex-lists", tuple(items))


def table1_suite(*, max_q: int = 64, **_) -> VerifyReport:
    items = []
    for q in prime_powers(max_q):
        got = census(q)
        want = tables.expected_census(q)
        ok = all(got.get(k, 0) == v for k, v in want.items())
        items.append(_item(f"q={q}", ok, f"counts {got}" if not ok else ""))
    return VerifyReport("table1", tuple(items))


def _pasture_by_name(name):
    if name.startswith("F") and name[1:].isdigit():
        return finite_field(int(name[1:]))
    return named(name)


# One witness pasture per hexagon orbit length.
_WITNESS = {1: "F3", 2: "F4", 3: "F5", 6: "F8"}


def _witness(mu, sub):
    return _pasture_by_name("S" if sub else _WITNESS[mu])


def _fiber_check(P1, P2, mu1, mu2):
    psi = psi_product(P1, P2)
    if set(psi.fibers) != {(0, 0)}:
        return False, f"fibers over {sorted(psi.fibers)}"
    got = tuple(sorted(psi.hexes[i].mu for i in psi.fibers[(0, 0)]))
    want = tables.fiber_shape(mu1, mu2)
    if got != want:
        return False, f"orbit lengths {got}, expected {want}"
    if len(psi.fibers[(0, 0)]) != len(psi.hexes):
        return False, "fiber does not exhaust the product hexagons"
    return True, ""


def table2_suite(**_) -> VerifyReport:
    items = []
    mus = sorted(_WITNESS)
    for i, mu1 in enumerate(mus):
        for mu2 in mus[i:]:
            variants = [(False, False)]
            if mu1 == 3 and mu2 == 3:
                variants += [(False, True), (True, True)]
            elif mu1 == 3:
                variants.append((True, False))
            elif mu2 == 3:
                variants.append((False, True))
            for d1, d2 in variants:
                P1 = _witness(mu1, d1)
                P2 = _witness(mu2, d2)
                tag = f"({P1.label},{P2.label})"
                ok, detail = _fiber_check(P1, P2, mu1, mu2)
                items.append(_item(f"mu=({mu1},{mu2}) {tag}", ok, detail))
    S = named("S")
    got = tuple(sorted(h.kind for h in hexagons(product(S, S))))
    want = ("dyadic", "near-regular")
    items.append(_item("SxS hexagon kinds", got == want,
                       "" if got == want else f"got {got}"))
    return VerifyReport("table2", tuple(items))


def lift_table_suite(**_) -> VerifyReport:
    items = []
    for tag, lift, table in (("Lt", ternary_lift, tables.LIFT_TABLE),
                             ("Lw", wlum_lift, tables.WLUM_TABLE)):
        for name in table:
            res = lift(_pasture_by_name(name))
            want = {k: table[name].get(k, 0) for k in res.factor_descriptor}
            ok = res.factor_descriptor == want
            items.append(_item(f"{tag}({name})", ok, "" if ok else
                               f"descriptor {res.factor_descriptor}"))
    for name in ("U", "D", "H", "F3"):
        res = ternary_lift(_pasture_by_name(name))
        ok = (res.factor_descriptor.get(name, 0) == 1
              and sum(res.factor_descriptor.values()) == 1
              and is_isomorphism(res.lam))
        items.append(_item(f"Lt({name}) ~ {name}", ok))
    return VerifyReport("lift-table", tuple(items))


def glift_suite(**_) -> VerifyReport:
    items = []
    res = grs_lift(product(finite_field(4), finite_field(5)))
    items.append(_item("Lg(F4 x F5) ~ G",
                       bool(iso_check(res.lift, named("G")))))
    res = grs_lift(finite_field(5))
    items.append(_item("Lg(F5) ~ F5",
                       bool(iso_check(res.lift, finite_field(5)))))
    res = grs_lift(named("K"))
    items.append(_item("Lg(K) ~ K", bool(iso_check(res.lift, named("K")))))
    return VerifyReport("glift", tuple(items))


def triples_suite(**_) -> VerifyReport:
    items = []
    for q, p1, p2 in tables.ZAGIER_TRIPLES:
        ok = (q - 2 == (p1 - 2) * (p2 - 2)
              and is_prime_power(q) and is_prime_power(p1)
              and is_prime_power(p2) and q % 3 != 0)
        items.append(_item(f"({q},{p1},{p2}) arithmetic", ok))
    for q, p1, p2 in tables.ZAGIER_TRIPLES:
        if q > tables.DESCRIPTOR_CHECK_MAX_Q:
            continue
        L1 = ternary_lift(finite_field(q))
        L2 = ternary_lift(product(finite_field(p1), finite_field(p2)))
        ok = lift_descriptor_iso(L1, L2)
        items.append(_item(f"({q},{p1},{p2}) lift descriptor", ok,
                           "" if ok else
                           f"{L1.factor_descriptor} != {L2.factor_descriptor}"))
    return VerifyReport("triples", tuple(items))


def _idempotence_corpus():
    out = [(n, named(n)) for n in sorted(tables.NAMED_HEX)]
    out.extend((f"F{q}", finite_field(q)) for q in sorted(tables.HEX_LISTS))
    out.append(("F4 x F5", product(finite_field(4), finite_field(5))))
    S = named("S")
    out.append(("S x S", product(S, S)))
    return out


def idempotence_suite(**_) -> VerifyReport:
    items = []
    kinds = (("ternary", ternary_lift), ("wlum", wlum_lift),
             ("grs", grs_lift))
    for label, P in _idempotence_corpus():
        for kind, fn in kinds:
            res = fn(P)
            relift = fn(res.lift)
            ok = is_isomorphism(relift.lam)
            items.append(_item(f"{kind} {label}", ok))
    return VerifyReport("idempotence", tuple(items))


def matroid_suite(**_) -> VerifyReport:
    items = []
    M = u24()
    counts = {}
    for q in (4, 5, 7, 8):
        cl = representation_classes(M, finite_field(q))
        counts[q] = len(cl)
        items.append(_item(f"|X_U24(F{q})| = {q - 2}", len(cl) == q - 2,
                           f"got {len(cl)}" if len(cl) != q - 2 else ""))
    items.append(_item("|X_U24(F8)| = |X_U24(F4)| * |X_U24(F5)|",
                       counts[8] == counts[4] * counts[5]))
    rep = lift_bijection_check(M, ternary_lift(finite_field(4)))
    items.append(_item("U24 ternary lift H -> F4 bijection", rep.ok,
                       f"{rep.source_classes} <-> {rep.target_classes}"))
    rep = lift_bijection_check(M, wlum_lift(finite_field(4)))
    items.append(_item("U24 wlum lift F2 ox H -> F4 bijection", rep.ok,
                       f"{rep.source_classes} <-> {rep.target_classes}"))
    K = mk4()
    rep = lift_bijection_check(K, binary_lift(finite_field(2)))
    items.append(_item("MK4 binary lift F2 -> F2 bijection", rep.ok,
                       f"{rep.source_classes} <-> {rep.target_classes}"))
    cl = representation_classes(K, finite_field(3))
    items.append(_item("|X_MK4(F3)| = 1", len(cl) == 1))
    cl = representation_classes(K, finite_field(5))
    items.append(_item("|X_MK4(F5)| = 1", len(cl) == 1))
    return VerifyReport("matroid", tuple(items))


SUITES = {
    "hex-lists": hex_lists_suite,
    "table1": table1_suite,
    "table2": table2_suite,
    "lift-table": lift_table_suite,
    "glift": glift_suite,
    "triples": triples_suite,
    "idempotence": idempotence_suite,
    "matroid": matroid_suite,
}


def run(suite: str, *, max_q: int = 64) -> VerifyReport:
    try:
        fn = SUITES[suite]
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"choose from {', '.join(sorted(SUITES))}") from None
    return fn(max_q=max_q)
