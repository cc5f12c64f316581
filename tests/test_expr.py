import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pastures.expr import (MAX_PARTS, ExprError, Fq, Lift, Name, Presentation,
                           Product, Tensor, evaluate, parse, pasture_of,
                           print_expr)
from pastures.gf import NotPrimePower
from pastures.morphisms import hom_set, iso_check
from pastures.lifts import ternary_lift
from pastures.pasture import finite_field, named

atoms = st.one_of(
    st.sampled_from(["F1pm", "K", "S", "W", "U", "D", "H", "G"]).map(Name),
    st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 27]).map(Fq),
)


def exprs(children):
    return st.one_of(
        st.tuples(children, children).map(lambda t: Product(*t)),
        st.tuples(children, children).map(lambda t: Tensor(*t)),
        st.tuples(st.sampled_from(["binary", "ternary", "wlum", "grs"]),
                  children).map(lambda t: Lift(*t)),
    )


ast = st.recursive(atoms, exprs, max_leaves=12)


@st.composite
def presentations(draw):
    """``F1pm<...>//(...)`` nodes: 1-3 generators, up to 2 relations of 2
    or 3 terms, each term a signed product of up to 2 powers, negative
    exponents included, or the bare unit 1."""
    names = tuple(draw(st.lists(st.sampled_from(["a", "b", "x", "ox", "t2"]),
                                min_size=1, max_size=3, unique=True)))
    power = st.tuples(st.sampled_from(names),
                      st.sampled_from([-2, -1, 1, 2, 3]))
    term = st.tuples(st.sampled_from([1, -1]),
                     st.lists(power, max_size=2).map(tuple))
    relation = st.lists(term, min_size=2, max_size=3).map(tuple)
    return Presentation(names, tuple(draw(st.lists(relation, max_size=2))))


@given(st.recursive(atoms | presentations(), exprs, max_leaves=12))
@settings(max_examples=300, deadline=None)
@example(Presentation(("a",), ()))
@example(Presentation(("a", "b"), (((1, (("a", 1), ("b", -2))), (-1, ())),)))
def test_parse_print_roundtrip(tree):
    """Printing then parsing gives the tree back.  Presentations are only
    parsed and printed here: evaluating a drawn one can run its Smith
    normal form for minutes, as nothing meters its entries yet."""
    assert parse(print_expr(tree)) == tree


def test_grammar_examples():
    assert parse("F4 x F5") == Product(Fq(4), Fq(5))
    assert parse("Lg(F4 x F5)") == Lift("grs", Product(Fq(4), Fq(5)))
    # ox binds tighter than x, both left-associative; F<digits> is always
    # a finite field atom, so F3 here means GF(3)
    assert parse("F3 x F4 ox F5") == Product(Fq(3), Tensor(Fq(4), Fq(5)))
    assert parse("K x S x W") == Product(Product(Name("K"), Name("S")),
                                         Name("W"))
    assert parse("D ox H ox K") == Tensor(Tensor(Name("D"), Name("H")),
                                          Name("K"))
    assert parse(" F4   x\tF5 ") == Product(Fq(4), Fq(5))


def test_presentation_parses():
    tree = parse("F1pm<x,y>//(x+y-1)")
    assert isinstance(tree, Presentation)
    assert tree.names == ("x", "y")
    assert len(tree.relations) == 1
    # evaluates to the near-regular partial field
    assert bool(iso_check(pasture_of("F1pm<x,y>//(x+y-1)"), named("U")))
    assert bool(iso_check(pasture_of("F1pm<z>//(z+z-1)"), named("D")))
    # z + 1/z - 1 imposes only a null relation, so the result keeps a free
    # generator; it covers the hexagonal pasture without being equal to it
    Q = pasture_of("F1pm<z>//(z+z^-1-1)")
    assert (Q.units.torsion, Q.units.free_rank) == ((2,), 1)
    assert not bool(iso_check(Q, named("H")))
    assert hom_set(Q, named("H"))
    # two relations, two null orbits; the unit group is untouched
    P = pasture_of("F1pm<a,b>//(a+b-1; a+a-1)")
    assert (P.units.torsion, P.units.free_rank) == ((2,), 2)
    assert len(P.null_orbits) == 2


def test_syntax_errors_have_positions():
    for text, pos in [("F4xF5", 0), ("F4 x", 4), ("x F4", 0),
                      ("F1pm<x,>//(x+x-1)", 7), ("Lt(F4", 5),
                      ("F1pm<x>//(x)", 11), ("F1pm<x>//(x+x+x+x)", 17),
                      ("", 0), ("F4 $ F5", 3), ("F1pm<a,a>", 7),
                      ("F1pm<a b>", 7), ("F1pm<a>//(a+2)", 12),
                      ("F1pm<a>//(a^b+1)", 12), ("F4 F5", 3)]:
        with pytest.raises(ExprError) as exc:
            parse(text)
        assert exc.value.position == pos, text


@pytest.mark.parametrize("text, message", [
    ("U x", "expected a pasture expression, found end of input "
            "(at position 3)"),
    ("", "expected a pasture expression, found end of input (at position 0)"),
    ("Lg(U", "expected ')', found end of input (at position 4)"),
    ("F1pm<x>//(x+1", "expected ')', found end of input (at position 13)"),
    ("Lt F4", "expected '(', found 'F4' (at position 3)"),
    ("F4 x )", "expected a pasture expression, found ')' (at position 5)"),
    ("F4 $ F5", "unexpected character '$' (at position 3)"),
    ("F1pm<a,a>", "duplicate generator 'a' (at position 7)"),
    ("F1pm<a b>", "expected ',' or '>' (at position 7)"),
    ("F1pm<a>//(a+2)", "only the unit 1 may appear as a bare integer "
                       "(at position 12)"),
    ("F1pm<a>//(a^b+1)", "expected an integer exponent (at position 12)"),
    ("F4 F5", "trailing input 'F5' (at position 3)"),
])
def test_syntax_error_messages(text, message):
    """A token is named by its value; the end of the text as such."""
    with pytest.raises(ExprError) as exc:
        parse(text)
    assert str(exc.value) == message


def part_starts(text):
    """Where each part of ``text`` starts, for texts of named atoms, finite
    fields, lift calls and parentheses: its atom name, its lift keyword or
    its '(' (a lift's own '(' belongs to the keyword)."""
    return [m.start() for m in re.finditer(r"[A-Z]\w*\(?|\(", text)]


def refused_at_part(text):
    """Parsing ``text`` is refused at the token of part MAX_PARTS + 1."""
    with pytest.raises(ExprError) as exc:
        parse(text)
    assert str(exc.value) == (
        f"an expression has more than {MAX_PARTS} parts "
        f"(at position {part_starts(text)[MAX_PARTS]})")


def test_nesting_is_bounded_at_the_offending_paren():
    """Each parenthesised group and lift call is one part, and so is the
    atom inside: nesting MAX_PARTS - 1 deep is read, and part MAX_PARTS + 1
    is refused at its token, the '(' or lift keyword that opens it or the
    atom."""
    k = MAX_PARTS - 1
    assert parse("(" * k + "F3" + ")" * k) == Fq(3)
    lifts = [Fq(3)]
    for _ in range(k):
        lifts.append(Lift("ternary", lifts[-1]))
    assert parse("Lt(" * k + "F3" + ")" * k) == lifts[k]
    assert parse("(Lt(" * (k // 2) + "F3" + "))" * (k // 2)) == lifts[k // 2]
    for text in ["(" * (k + 1) + "F3" + ")" * (k + 1),
                 "(" * (k + 2) + "F3" + ")" * (k + 2),
                 "(" * 400 + "F3" + ")" * 400,
                 "Lt(" * (k + 1) + "F3" + ")" * (k + 1),
                 "Lt(" * 400 + "F3" + ")" * 400,
                 "(Lt(" * k + "F3" + "))" * k]:
        refused_at_part(text)
    assert part_starts("(" * 400 + "F3")[MAX_PARTS] == MAX_PARTS


def test_long_chains_are_bounded_at_the_offending_operand():
    """Every operand of every chain of ``x`` or ``ox`` is a part, counted
    with the parentheses around and inside it, so an expression takes
    MAX_PARTS atoms in all and part MAX_PARTS + 1 is refused at its
    token."""
    k = MAX_PARTS
    node = parse(" x ".join(["F3"] * k))
    for _ in range(k - 1):
        assert node.right == Fq(3)
        node = node.left
    assert node == Fq(3)
    node = parse(" ox ".join(["(F3)"] * (k // 2)))
    assert node.right == Fq(3) and isinstance(node.left, Tensor)
    # 10 products of 10-operand tensors, and a chain inside parentheses
    node = parse(" x ".join([" ox ".join(["F3"] * 10)] * 10))
    assert isinstance(node, Product) and isinstance(node.right, Tensor)
    parse(" x ".join(["F3"] * (k - 51) + ["(" + " x ".join(["F3"] * 50) + ")"]))
    for op, atom in (("x", "F3"), ("ox", "(F3)"), ("ox", "D")):
        for n in (k + 1, 2000):
            refused_at_part(f" {op} ".join([atom] * n))
    # chains that each stay within the budget but together pass it: k
    # products of k-operand tensors, two 60-operand chains side by side,
    # and 12 nested groups that each hold a k-operand chain
    refused_at_part(" x ".join([" ox ".join(["F3"] * k)] * k))
    refused_at_part(" x ".join(["(" + " x ".join(["F3"] * 60) + ")"] * 2))
    text = "F3"
    for _ in range(12):
        text = "(" + text + " x F3" * (k - 1) + ")"
    refused_at_part(text)
    assert part_starts(text)[MAX_PARTS] == 452


def test_unknown_names_rejected():
    with pytest.raises(ExprError):
        parse("F4 x Q7")
    with pytest.raises(ExprError):
        parse("F1pm<x>//(x+y-1)")      # y never declared
    with pytest.raises(KeyError, match="unknown pasture name 'Q7'"):
        named("Q7")


def test_evaluate_errors():
    with pytest.raises(NotPrimePower):
        evaluate(parse("F6"))
    with pytest.raises(NotPrimePower):
        evaluate(parse("Lt(F6)"))


def test_lift_expressions_evaluate():
    """A lift node evaluates to the lift, a pasture, as every node does."""
    P = pasture_of("Lt(F9)")
    assert evaluate(parse("Lt(F9)")) == ternary_lift(finite_field(9)).lift
    assert P.units.free_rank == 2
    assert P.units.torsion == (2,)
    assert bool(iso_check(pasture_of("Lg(F4 x F5)"), named("G")))


def test_labels_round_trip_through_printer():
    for text in ("F4 x F5", "D ox H", "Lt(F9)", "F1pm<x,y>//(x+y-1)",
                 "K x (S x W)", "(F4 x F5) ox D"):
        P = pasture_of(text)
        Q = pasture_of(P.label)
        assert P.descriptor() == Q.descriptor()


def test_evaluate_deterministic():
    a = json.dumps(pasture_of("Lt(F4 x F5)").descriptor(), sort_keys=True)
    b = json.dumps(pasture_of("Lt(F4 x F5)").descriptor(), sort_keys=True)
    assert a == b
