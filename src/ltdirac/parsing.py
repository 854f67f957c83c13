"""Parsers for operator expressions and for the polynomials of the CLI's
``adjoin:`` field clauses; ``DiffOperator.render`` prints operators back
in the same grammar.

Grammar: variable ``x``, derivation ``D`` (= d/dx), rational constants
(``3``, ``1/2``), the operators ``+ - * ^`` (``**`` is a synonym of
``^``), parentheses and unary minus.  ``^`` takes an integer exponent
(negative allowed on ``x``).  Multiplication is operator composition,
so ``D*x`` equals ``x*D + 1``.  A polynomial has one symbol of any name
in place of x and D, and exponents >= 0.
"""

from __future__ import annotations

from fractions import Fraction

from .diffop import DiffOperator
from .errors import DegreeCapExceeded, ParseError
from .exactalg import DEGREE_CAP, FieldHandle, UniPoly
from .series import LaurentSeries


_PUNCT = {"+", "-", "*", "^", "(", ")", "/"}


def _tokenize(text):
    tokens = []  # (kind, value, position)
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("**", i):
            tokens.append(("^", "^", i))
            i += 2
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}",
                         i, expected=("name", "number", "+", "-", "*",
                                      "^", "(", ")"))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over sums and products of signed powers; a
    subclass builds the values in ``power`` and ``times``."""

    def __init__(self, text, field):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r} at position {tok[2]}, found {tok[0]!r}",
                tok[2], expected=(kind,))
        self.pos += 1
        return tok

    def parse(self):
        value = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(
                f"unexpected trailing {tok[0]!r} at position {tok[2]}",
                tok[2], expected=("end",))
        return value

    def sum(self):
        value = self.product()
        while self.peek()[0] in ("+", "-"):
            op = self.take(self.peek()[0])[0]
            rhs = self.product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def product(self):
        value = self.signed()
        while self.peek()[0] == "*":
            self.take("*")
            value = self.times(value, self.signed())
        return value

    def signed(self):
        if self.peek()[0] == "-":
            self.take("-")
            return -self.signed()
        return self.power()

    def parenthesised(self):
        self.take("(")
        value = self.sum()
        self.take(")")
        return value

    def number(self):
        tok = self.take("int")
        if self.peek()[0] != "/":
            return Fraction(tok[1])
        self.take("/")
        den = self.take("int")[1]
        if den == 0:
            raise ParseError(f"zero denominator at position {tok[2]}",
                             tok[2], expected=("nonzero integer",))
        return Fraction(tok[1], den)


class _OperatorParser(_Parser):
    def times(self, a, b):
        return a.compose(b)

    def power(self):
        name = self.peek()[1]
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        tok = self.take("^")
        sign = 1
        if self.peek()[0] == "-":
            self.take("-")
            sign = -1
        exp = sign * self.take("int")[1]
        if name == "x" or (exp < 0 and self._is_monomial_x(base)):
            return self._x_power(exp)
        if exp < 0:
            raise ParseError(
                f"negative exponent at position {tok[2]} is only "
                "allowed on x", tok[2], expected=("x^-n",))
        if name == "D":
            return DiffOperator(self.field,
                                [LaurentSeries.zero(self.field)] * exp
                                + [LaurentSeries.one(self.field)])
        # a constant or a parenthesised base
        return base ** exp

    def atom(self):
        tok = self.peek()
        if tok[0] == "(":
            return self.parenthesised()
        if tok[0] == "name":
            if tok[1] not in ("x", "D"):
                raise ParseError(
                    f"unknown name {tok[1]!r} at position {tok[2]}",
                    tok[2], expected=("x", "D"))
            self.take("name")
            if tok[1] == "x":
                return self._x_power(1)
            return DiffOperator.derivation(self.field)
        if tok[0] == "int":
            return DiffOperator(
                self.field,
                [LaurentSeries(self.field, {0: self.number()})])
        raise ParseError(
            f"expected a term at position {tok[2]}, found {tok[0]!r}",
            tok[2], expected=("x", "D", "number", "("))

    def _is_monomial_x(self, operator):
        if operator.order() != 0:
            return False
        coeffs = operator.coeffs[0].coeffs
        return set(coeffs) == {1} and coeffs[1] == self.field.one

    def _x_power(self, exp):
        return DiffOperator(
            self.field,
            [LaurentSeries(self.field, {exp: self.field.one})])


class _PolynomialParser(_Parser):
    """A polynomial with rational coefficients in one symbol, the first
    name met; a power of degree above the degree cap is refused
    before it is expanded."""

    symbol = None

    def times(self, a, b):
        return a * b

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.take("^")
        exp = self.take("int")[1]
        if base.degree() * exp > DEGREE_CAP:
            raise DegreeCapExceeded(
                f"power of degree {base.degree() * exp} exceeds cap "
                f"{DEGREE_CAP}")
        return base ** exp

    def atom(self):
        tok = self.peek()
        if tok[0] == "(":
            return self.parenthesised()
        if tok[0] == "int":
            return UniPoly(self.field, [self.number()])
        if tok[0] == "name":
            self.take("name")
            if self.symbol is None:
                self.symbol = tok[1]
            elif tok[1] != self.symbol:
                raise ParseError(
                    f"second symbol {tok[1]!r} at position {tok[2]}; a "
                    f"polynomial has one symbol", tok[2],
                    expected=(self.symbol,))
            return UniPoly(self.field, [1, 0])
        raise ParseError(
            f"expected a term at position {tok[2]}, found {tok[0]!r}",
            tok[2], expected=("name", "number", "("))


def parse_operator(text, field=None):
    if field is None:
        field = FieldHandle.rationals()
    return _OperatorParser(text, field).parse()


def parse_polynomial(text, field):
    """(symbol, polynomial over ``field``) for the text of a polynomial
    with rational coefficients in one symbol, e.g. ``z^2 - 1/3``."""
    parser = _PolynomialParser(text, field)
    poly = parser.parse()
    if parser.symbol is None:
        raise ParseError("a polynomial needs a symbol", 0,
                         expected=("name",))
    return parser.symbol, poly
