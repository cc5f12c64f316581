"""Value semantics of the frozen records, and what importing the CLI loads.

Every value class keeps the semantics it had as a frozen dataclass:
assignment raises ``AttributeError``, equality holds only between instances
of one class, the hash is that of the tuple of compared fields (so set and
dict orders, and with them every output, stay the same), and the repr reads
``Name(field=value, ...)``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import pastures
from pastures.expr import parse
from pastures.groups import reduce_presentation
from pastures.hexagons import hexagons, psi_product
from pastures.lifts import ternary_lift
from pastures.matroids import (Matroid, lift_bijection_check,
                               representation_classes, u24)
from pastures.morphisms import Unknown, iso_check
from pastures.pasture import (finite_field, named, product_full,
                              quotient_full, tensor_full, unit)
from pastures.record import FrozenError, Record
from pastures.verify import VerifyItem, VerifyReport
from oracles import free_algebra, minus_one


def _instances():
    """(instance, compared fields, repr fields) for each value class, with
    the fields as the dataclass declared them."""
    F3, F4, F5 = finite_field(3), finite_field(4), finite_field(5)
    red = reduce_presentation(2, [[0, 2], [2, 1]], [0, 1])
    A = free_algebra(named("F1pm"), ["a"])
    a = unit(A.units.reduce((0, 1)))
    lift = ternary_lift(F4)
    M = u24()
    cls = representation_classes(M, F5)[0]
    item = VerifyItem("x", True)
    pasture = ("units", "null_orbits")
    out = [
        (F5.units, ("torsion", "free_rank", "epsilon")),
        (red.project, ("target", "rows")),
        (red, ("group", "project", "sections")),
        (F5.one(), ("coords",)),
        (F5, pasture, pasture + ("label",)),
        (quotient_full(A, [(a, A.one(), minus_one(A))]),
         ("pasture", "unit_map", "sections")),
        (product_full(F3, F5),
         ("pasture", "proj1", "proj2", "embed1", "embed2")),
        (tensor_full([F3, F5]), ("pasture", "inclusions", "sections")),
        (hexagons(F5)[0], ("pairs", "canonical_pair", "mu", "kind", "support")),
        (psi_product(F3, F5), ("product", "hexes", "factor_hexes", "fibers")),
        (lift, ("lift", "lam", "kind", "factor_descriptor")),
        (M, ("n", "rank", "bases")),
        (cls.representative, ("matroid", "pasture", "values")),
        (cls, ("representative", "size")),
        (lift_bijection_check(M, lift),
         ("ok", "pairs", "source_classes", "target_classes")),
        (lift.lam, ("source", "target", "unit_map")),
        (iso_check(F4, F4), ("morphism",)),
        (iso_check(F4, F5), ("reason",)),
        (Unknown("free rank 2"), ("reason",)),
        (item, ("name", "ok", "detail")),
        (VerifyReport("s", (item,)), ("suite", "items")),
        (parse("U"), ("name",)),
        (parse("F4"), ("q",)),
        (parse("F1pm<a>//(a+a-1)"), ("names", "relations")),
        (parse("F4 x F5"), ("left", "right")),
        (parse("F4 ox F5"), ("left", "right")),
        (parse("Lg(F4)"), ("kind", "inner")),
    ]
    return [(x, fields[0], fields[-1]) for x, *fields in out]


INSTANCES = _instances()


def test_every_former_dataclass_is_covered():
    names = {type(x).__name__ for x, _, _ in INSTANCES}
    assert len(names) == len(INSTANCES) == 27
    assert all(isinstance(x, Record) for x, _, _ in INSTANCES)


@pytest.mark.parametrize("x, compared, shown", INSTANCES,
                         ids=[type(x).__name__ for x, _, _ in INSTANCES])
def test_value_semantics(x, compared, shown):
    values = tuple(getattr(x, f) for f in compared)
    # frozen
    for name in shown + ("other",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    for name in shown:
        with pytest.raises(FrozenError):
            delattr(x, name)
    assert tuple(getattr(x, f) for f in compared) == values
    # equal to a rebuilt copy, never to another class
    copy = type(x)(*(getattr(x, f) for f in shown))
    assert copy == x and not copy != x
    assert x != object() and x.__eq__(object()) is NotImplemented
    # hash of the compared fields, or unhashable as that tuple is
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(copy) == expected
    inner = ", ".join(f"{f}={getattr(x, f)!r}" for f in shown)
    assert repr(x) == f"{type(x).__qualname__}({inner})"


def test_classes_with_the_same_fields_differ():
    a, b = parse("F4 x F5"), parse("F4 ox F5")
    assert (a.left, a.right) == (b.left, b.right)
    assert a != b and hash(a) == hash(b)
    assert iso_check(finite_field(4), finite_field(5)) != Unknown("")
    assert parse("F4") != parse("U")


def test_label_and_index_are_not_compared():
    P = finite_field(5)
    Q = P.with_label("other")
    assert (Q.label, Q == P, hash(Q) == hash(P)) == ("other", True, True)
    assert "label='other'" in repr(Q)
    M = u24()
    N = Matroid(M.n, M.rank, M.bases)
    N._index.clear()
    assert N == M and hash(N) == hash(M)
    assert "_index" not in repr(M) and (1, 2) in M._index


def test_cached_properties_keep_an_instance_dict():
    P = finite_field(7)
    assert "null_pairs" not in P.__dict__
    assert P.null_pairs is P.null_pairs and "null_pairs" in P.__dict__
    c = representation_classes(u24(), finite_field(4))[0]
    assert len(c.members) == c.size and "members" in c.__dict__


def test_record_constructor_arguments():
    assert VerifyItem("x", True) == VerifyItem(name="x", ok=True, detail="")
    assert VerifyItem("x", ok=False, detail="d").detail == "d"
    for args, kwargs in [(("x",), {}), (("x", True, "", 1), {}),
                         (("x", True), {"name": "y"}),
                         (("x", True), {"other": 1})]:
        with pytest.raises(TypeError):
            VerifyItem(*args, **kwargs)


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Importing the CLI compiles no generated code: neither dataclasses nor
    inspect, which it imports, is loaded (``-S``: no site hooks)."""
    src = pathlib.Path(pastures.__file__).resolve().parents[1]
    code = ("import sys, pastures.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
