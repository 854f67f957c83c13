"""Parser for operator expressions; ``DiffOperator.render`` prints them
back in the same grammar.

Grammar: variable ``x``, derivation ``D`` (= d/dx), rational constants
(``3``, ``1/2``), the operators ``+ - * ^``, parentheses and unary
minus.  ``^`` takes an integer exponent (negative allowed on ``x``).
Multiplication is operator composition, so ``D*x`` equals ``x*D + 1``.
"""

from __future__ import annotations

from fractions import Fraction

from .diffop import DiffOperator
from .errors import ParseError
from .series import LaurentSeries


_PUNCT = {"+", "-", "*", "^", "(", ")"}


def _tokenize(text):
    tokens = []  # (kind, value, position)
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch == "/":
            tokens.append(("/", "/", i))
            i += 1
            continue
        if ch in ("x", "D"):
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}",
                         i, expected=("x", "D", "number", "+", "-", "*",
                                      "^", "(", ")"))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, field):
        self.text = text
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
            value = value.compose(self.signed())
        return value

    def signed(self):
        if self.peek()[0] == "-":
            self.take("-")
            return -self.signed()
        return self.power()

    def power(self):
        kind = self.peek()[0]
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        tok = self.take("^")
        sign = 1
        if self.peek()[0] == "-":
            self.take("-")
            sign = -1
        exp = sign * self.take("int")[1]
        if kind == "x" or (exp < 0 and self._is_monomial_x(base)):
            return self._x_power(exp)
        if exp < 0:
            raise ParseError(
                f"negative exponent at position {tok[2]} is only "
                "allowed on x", tok[2], expected=("x^-n",))
        if kind == "D":
            return DiffOperator(self.field,
                                [LaurentSeries.zero(self.field)] * exp
                                + [LaurentSeries.one(self.field)])
        # a constant or a parenthesised base
        return base ** exp

    def atom(self):
        tok = self.peek()
        if tok[0] == "(":
            self.take("(")
            value = self.sum()
            self.take(")")
            return value
        if tok[0] == "x":
            self.take("x")
            return self._x_power(1)
        if tok[0] == "D":
            self.take("D")
            return DiffOperator.derivation(self.field)
        if tok[0] == "int":
            num = self.take("int")[1]
            if self.peek()[0] == "/":
                self.take("/")
                den = self.take("int")[1]
                if den == 0:
                    raise ParseError(f"zero denominator at position {tok[2]}",
                                     tok[2], expected=("nonzero integer",))
                value = Fraction(num, den)
            else:
                value = Fraction(num)
            return DiffOperator(
                self.field,
                [LaurentSeries(self.field, {0: value})])
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


def parse_operator(text, field=None):
    if field is None:
        from .exactalg import FieldHandle
        field = FieldHandle.rationals()
    return _Parser(text, field).parse()
