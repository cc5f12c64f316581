"""Laws of the category of pastures, as tests that need no expected values.

The tensor product is the coproduct and ``x`` is the product, so for all
pastures A, B, Q and P:

    |Hom(A ox B, P)| = |Hom(A, P)| * |Hom(B, P)|
    |Hom(Q, A x B)|  = |Hom(Q, A)| * |Hom(Q, B)|

Both sides are counted by ``hom_set`` on expressions drawn from the
grammar.  These tests compare the library with itself on related inputs,
so they catch a construction or a search that treats the inputs
differently, not one that is wrong the same way on every input.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pastures.expr import pasture_of
from pastures.groups import SearchSpaceExceeded
from pastures.morphisms import hom_set

ATOMS = ("U", "D", "H", "S", "F2", "F3", "F4", "F5", "F7", "F8", "F9")
FIELDS = ("F2", "F3", "F4", "F5", "F7", "F8", "F9", "F11", "F13", "F16")
CAP = 10**6


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
