"""Expression language for pastures.

Grammar, loosest to tightest binding:

    expr    := tensor ( "x" tensor )*            product, left associative
    tensor  := atom ( "ox" atom )*               tensor, left associative
    atom    := "(" expr ")"
             | "Lb" | "Lt" | "Lw" | "Lg" "(" expr ")"
             | "F" <digits>
             | "F1pm" [ "<" names ">" ] [ "//(" relations ")" ]
             | "K" | "S" | "W" | "U" | "D" | "H" | "G"

Relations are semicolon-separated signed sums of two or three Laurent
monomials over the declared names, e.g. ``F1pm<z>//(z+z-1; z^2+1)``;
a minus sign multiplies the term by -1 and a bare ``1`` is the unit.
The operators ``x`` and ``ox`` are keywords at the expression level and
need space or parentheses around them; inside ``<...>`` and ``//(...)``
they are ordinary generator names.
"""

from __future__ import annotations

import re

from .pasture import Pasture, finite_field, named, presented, product, tensor
from .lifts import LIFTS
from .record import Record


class ExprError(ValueError):
    """Syntax error with a position into the source text."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- AST ---------------------------------------------------------------------


class Name(Record):
    _fields = ("name",)


class Fq(Record):
    _fields = ("q",)


class Presentation(Record):
    # names: generator names, possibly empty; relations: each a tuple of 2 or
    # 3 terms, term = (sign, ((name, exponent), ...))
    _fields = ("names", "relations")


class Product(Record):
    _fields = ("left", "right")


class Tensor(Record):
    _fields = ("left", "right")


class Lift(Record):
    _fields = ("kind", "inner")  # kind: binary | ternary | wlum | grs


NAMED_ATOMS = ("F1pm", "K", "S", "W", "U", "D", "H", "G")
LIFT_KEYWORDS = {"Lb": "binary", "Lt": "ternary", "Lw": "wlum", "Lg": "grs"}
_KIND_LETTER = {v: k for k, v in LIFT_KEYWORDS.items()}
# atoms, parenthesised groups and lift calls, counted together: this bounds
# the parser's recursion (4 frames a part), the evaluator's and printer's
# (1 frame a part) and the factors of any product or tensor
MAX_PARTS = 100


# -- lexer -------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(//)|([A-Za-z][A-Za-z0-9]*)|(\d+)|([<>(),;+\-^*]))")


def _lex(text):
    """Tokens as (kind, value, position); kind in ident/int/sym."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprError(f"unexpected character {stripped[0]!r}",
                            len(text) - len(stripped))
        if m.group(1):
            out.append(("sym", "//", m.start(1)))
        elif m.group(2):
            out.append(("ident", m.group(2), m.start(2)))
        elif m.group(3):
            out.append(("int", int(m.group(3)), m.start(3)))
        else:
            out.append(("sym", m.group(4), m.start(4)))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


def _found(val):
    """A token as an error names it; only the end token's value is None."""
    return "end of input" if val is None else repr(val)


class _Parser:
    def __init__(self, text):
        self.tokens = _lex(text)
        self.i = 0
        self.parts = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise ExprError(f"expected {value!r}, found {_found(val)}", pos)

    def fail(self, message):
        raise ExprError(message, self.peek()[2])

    # expression level

    def expr(self):
        node = self.tensor()
        while self.peek()[:2] == ("ident", "x"):
            self.next()
            node = Product(node, self.tensor())
        return node

    def tensor(self):
        node = self.atom()
        while self.peek()[:2] == ("ident", "ox"):
            self.next()
            node = Tensor(node, self.atom())
        return node

    def atom(self):
        kind, val, pos = self.peek()
        self.parts += 1
        if self.parts > MAX_PARTS:
            self.fail(f"an expression has more than {MAX_PARTS} parts")
        if (kind, val) == ("sym", "("):
            return self.group()
        if kind != "ident":
            self.fail(f"expected a pasture expression, found {_found(val)}")
        self.next()
        if val in LIFT_KEYWORDS:
            return Lift(LIFT_KEYWORDS[val], self.group())
        if val == "F1pm":
            return self.presentation_tail()
        if val in NAMED_ATOMS:
            return Name(val)
        m = re.fullmatch(r"F(\d+)", val)
        if m:
            return Fq(int(m.group(1)))
        raise ExprError(f"unknown pasture {val!r}", pos)

    def group(self):
        self.expect("(")
        node = self.expr()
        self.expect(")")
        return node

    # presentation level

    def presentation_tail(self):
        names = ()
        if self.peek()[:2] == ("sym", "<"):
            self.next()
            parts = []
            while True:
                kind, val, pos = self.next()
                if kind != "ident":
                    raise ExprError("expected a generator name", pos)
                if val in parts:
                    raise ExprError(f"duplicate generator {val!r}", pos)
                parts.append(val)
                kind, val, pos = self.next()
                if val == ">":
                    break
                if val != ",":
                    raise ExprError("expected ',' or '>'", pos)
            names = tuple(parts)
        if self.peek()[:2] != ("sym", "//"):
            if names:
                return Presentation(names, ())
            return Name("F1pm")
        self.next()
        self.expect("(")
        relations = [self.relation(names)]
        while self.peek()[:2] == ("sym", ";"):
            self.next()
            relations.append(self.relation(names))
        self.expect(")")
        return Presentation(names, tuple(relations))

    def relation(self, names):
        terms = [self.term(names, lead=True)]
        while self.peek()[:2] in (("sym", "+"), ("sym", "-")):
            _, sym, _ = self.next()
            sign, mono = self.term(names)
            terms.append((sign if sym == "+" else -sign, mono))
        if len(terms) not in (2, 3):
            self.fail(f"a relation needs 2 or 3 terms, got {len(terms)}")
        return tuple(terms)

    def term(self, names, lead=False):
        sign = 1
        if lead and self.peek()[:2] == ("sym", "-"):
            self.next()
            sign = -1
        kind, val, pos = self.peek()
        if kind == "int":
            self.next()
            if val != 1:
                raise ExprError("only the unit 1 may appear as a bare "
                                "integer", pos)
            return (sign, ())
        factors = [self.factor(names)]
        while self.peek()[:2] == ("sym", "*"):
            self.next()
            factors.append(self.factor(names))
        return (sign, tuple(factors))

    def factor(self, names):
        kind, val, pos = self.next()
        if kind != "ident":
            raise ExprError("expected a generator name", pos)
        if val not in names:
            raise ExprError(f"undeclared generator {val!r}", pos)
        exp = 1
        if self.peek()[:2] == ("sym", "^"):
            self.next()
            neg = False
            if self.peek()[:2] == ("sym", "-"):
                self.next()
                neg = True
            kind, n, pos = self.next()
            if kind != "int":
                raise ExprError("expected an integer exponent", pos)
            exp = -n if neg else n
        return (val, exp)


def parse(text: str):
    p = _Parser(text)
    node = p.expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ExprError(f"trailing input {val!r}", pos)
    return node


# -- printing ----------------------------------------------------------------


def _mono_str(mono):
    if not mono:
        return "1"
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in mono)


def _relation_str(rel):
    parts = []
    for i, (sign, mono) in enumerate(rel):
        if i == 0:
            parts.append(("-" if sign < 0 else "") + _mono_str(mono))
        else:
            parts.append(("- " if sign < 0 else "+ ") + _mono_str(mono))
    return " ".join(parts)


def print_expr(node) -> str:
    """Canonical text form; parse(print_expr(n)) == n."""
    if isinstance(node, Name):
        return node.name
    if isinstance(node, Fq):
        return f"F{node.q}"
    if isinstance(node, Presentation):
        s = "F1pm"
        if node.names:
            s += "<" + ",".join(node.names) + ">"
        if node.relations:
            s += "//(" + "; ".join(_relation_str(r) for r in node.relations) + ")"
        return s
    if isinstance(node, Lift):
        return f"{_KIND_LETTER[node.kind]}({print_expr(node.inner)})"
    if isinstance(node, Tensor):
        lhs = print_expr(node.left)
        if isinstance(node.left, Product):
            lhs = f"({lhs})"
        rhs = print_expr(node.right)
        if isinstance(node.right, (Product, Tensor)):
            rhs = f"({rhs})"
        return f"{lhs} ox {rhs}"
    if isinstance(node, Product):
        lhs = print_expr(node.left)
        rhs = print_expr(node.right)
        if isinstance(node.right, Product):
            rhs = f"({rhs})"
        return f"{lhs} x {rhs}"
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluation --------------------------------------------------------------

def evaluate(node) -> Pasture:
    """Evaluate an AST to a Pasture; a lift node to the lift itself."""
    if isinstance(node, Name):
        return named(node.name)
    if isinstance(node, Fq):
        return finite_field(node.q)
    if isinstance(node, Presentation):
        index = {n: 1 + i for i, n in enumerate(node.names)}

        def exponents(term):
            sign, mono = term
            out = {0: 1} if sign < 0 else {}
            for name, e in mono:
                out[index[name]] = out.get(index[name], 0) + e
            return {k: e for k, e in out.items() if e}

        res = presented(len(index), [[exponents(t) for t in rel]
                                     for rel in node.relations])
        return res.pasture.with_label(print_expr(node))
    if isinstance(node, Product):
        return product(evaluate(node.left), evaluate(node.right))
    if isinstance(node, Tensor):
        return tensor(evaluate(node.left), evaluate(node.right))
    if isinstance(node, Lift):
        return LIFTS[node.kind](evaluate(node.inner)).lift
    raise TypeError(f"not an expression node: {node!r}")


def pasture_of(text: str) -> Pasture:
    node = parse(text)
    return evaluate(node).with_label(print_expr(node))
