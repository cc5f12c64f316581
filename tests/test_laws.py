"""Laws of the category of pastures, as tests that need no expected values.

The tensor product is the coproduct and ``x`` is the product, so for all
pastures A, B, Q and P:

    |Hom(A ox B, P)| = |Hom(A, P)| * |Hom(B, P)|
    |Hom(Q, A x B)|  = |Hom(Q, A)| * |Hom(Q, B)|

Both sides are counted by ``hom_set`` on expressions drawn from the
grammar.  Both operations are also commutative and associative up to
isomorphism, so ``iso_check`` never answers NotIso on A ox B against
B ox A, or on (A ox B) ox C against A ox (B ox C), and the same for x.  It
may answer Unknown when the unit groups have free rank 2 or more (ROADMAP
item 2); the tests record each such pair.  A lift is idempotent up to
isomorphism (the paper's theorem), so lambda of a lift of a lift is an
isomorphism.  These tests compare the library with itself on related
inputs, so they catch a construction or a search that treats the inputs
differently, not one that is wrong the same way on every input.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pastures.expr import pasture_of
from pastures.groups import SearchSpaceExceeded
from pastures.lifts import LIFTS
from pastures.morphisms import (NotIso, Unknown, hom_set, is_isomorphism,
                                iso_check)

import test_manifest

ATOMS = ("U", "D", "H", "S", "F2", "F3", "F4", "F5", "F7", "F8", "F9")
FIELDS = ("F2", "F3", "F4", "F5", "F7", "F8", "F9", "F11", "F13", "F16")
CAP = 10**4     # steps of each search; a refused one spends them all


def expressions(depth):
    """Expression texts of at most ``depth`` nested ``x`` and ``ox``
    operations over ATOMS."""
    atoms = st.sampled_from(ATOMS)
    if depth == 0:
        return atoms
    inner = expressions(depth - 1)
    return st.one_of(atoms, st.tuples(inner, st.sampled_from(("x", "ox")),
                                      inner).map("({0[0]} {0[1]} {0[2]})"
                                                 .format))


def count(source, target):
    """|Hom(source, target)|; a search refused at CAP is not a case."""
    try:
        return len(hom_set(pasture_of(source), pasture_of(target), cap=CAP))
    except SearchSpaceExceeded:
        assume(False)


@given(expressions(1), expressions(1), st.sampled_from(FIELDS))
@settings(max_examples=200, deadline=None)
def test_tensor_is_the_coproduct(a, b, field):
    assert count(f"{a} ox {b}", field) == count(a, field) * count(b, field)


@given(expressions(2), st.sampled_from(FIELDS), st.sampled_from(FIELDS))
@settings(max_examples=200, deadline=None)
def test_x_is_the_product(q, a, b):
    assert count(q, f"{a} x {b}") == count(q, a) * count(q, b)


LAW_ATOMS = ("U", "D", "H", "S", "K", "W",
             "F2", "F3", "F4", "F5", "F7", "F8", "F9")


def unknown_pairs(pairs):
    """The pairs of texts on which ``iso_check`` answers Unknown; it must
    not answer NotIso on any, and answers Unknown only at free rank >= 2."""
    unknown = []
    for left, right in pairs:
        P, Q = pasture_of(left), pasture_of(right)
        answer = iso_check(P, Q)
        assert not isinstance(answer, NotIso), (left, right, answer)
        if isinstance(answer, Unknown):
            assert P.units.free_rank >= 2, (left, right, answer)
            unknown.append(left)
    return unknown


def test_x_and_ox_commute():
    """Every pair of distinct atoms, both ways round, under x and ox: 156
    pairs, 151 Iso and 5 Unknown, each with U (free rank 2)."""
    pairs = [(f"{a} {op} {b}", f"{b} {op} {a}")
             for a, b in itertools.combinations(LAW_ATOMS, 2)
             for op in ("x", "ox")]
    assert len(pairs) == 156
    assert unknown_pairs(pairs) == ["U x D", "U ox D", "U x S", "U x W",
                                    "U x F3"]


def test_x_and_ox_associate():
    """Every triple of distinct atoms, in LAW_ATOMS order, bracketed both
    ways under x and ox: 572 triples, 541 Iso and 31 Unknown, each with U
    (free rank 2)."""
    pairs = [(f"({a} {op} {b}) {op} {c}", f"{a} {op} ({b} {op} {c})")
             for a, b, c in itertools.combinations(LAW_ATOMS, 3)
             for op in ("x", "ox")]
    assert len(pairs) == 572
    unknown = unknown_pairs(pairs)
    assert len(unknown) == 31
    assert all(left.startswith("(U ") for left in unknown)


@pytest.mark.parametrize("kind", ["ternary", "wlum", "grs"])
def test_lifts_are_idempotent(kind):
    """Over the output manifest's 224 texts, its 14 atoms and every pair of
    them under x and ox, lambda of the relift is an isomorphism."""
    lift = LIFTS[kind]
    texts = list(test_manifest.texts())
    assert len(texts) == 224
    assert [text for text in texts if not is_isomorphism(
        lift(lift(pasture_of(text)).lift).lam)] == []
