"""Exact arithmetic over towers of number fields.

Every field is stored both as a tower (base field, monic irreducible
defining polynomial, generator name) and as a flattened absolute field
Q[z]/(g) with g monic with integer coefficients (``abs_mod``).  An
element is a tuple of integer numerators over one positive denominator:
the descending coefficients of a polynomial in z of degree below
deg g, in lowest terms.  Arithmetic, zero tests and hashing are plain
integer operations.  A minimal polynomial over Q is the first linear
relation among the powers of an element (``_Echelon``).

Tower extension and factoring share one norm (Trager 1976, ``_norm``):
for a monic squarefree f over K, shift its root y by an integer multiple
s of the absolute generator of K until y + s*z has a minimal polynomial
over Q of full degree, the squarefree norm of f(y - s*z).  ``extend``
takes it as the new absolute modulus; ``poly_factor`` factors it over Q
with the factorizer over Z of ``_factor_rational``.  ``poly_factor``
factors only the squarefree part f / gcd(f, f') and counts each
factor's multiplicity by trial division.  The library needs no SymPy;
the tests use it as a reference.

Binomials are factored only when they can split.  By Capelli's theorem
Y^m - lam is reducible over K exactly when lam is a p-th power in K for
a prime p | m, or 4 | m and lam lies in -4K^4.  N_{K/Q}(lam), read off
the minimal polynomial of lam, must then be a p-th power in Q (or
(-4)^[K:Q] times a 4th power), which over Q decides the question and
over K != Q rules most cases out; a case left open is settled by a root
in K of Y^p - lam.  ``spread_factors`` applies the test to mu(Y^e),
which covers the leaf binomials Y^m - lam of the Newton recursion and
the divisor points alike.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm, prod

from .errors import (DegreeCapExceeded, InternalError, NotASubfield,
                     ZeroPolynomial)

DEGREE_CAP = 16  # largest absolute degree of a field


def _z_rep(degree):
    """Representation (numerators, denominator) of z itself; degree >= 2."""
    return (0,) * (degree - 2) + (1, 0), 1


def _gen_is_z(field):
    """Whether the top tower generator is the absolute generator z."""
    return field.abs_degree > 1 and field.gen_abs == _z_rep(field.abs_degree)


class FieldHandle:
    """A number field given as a tower over Q.

    Immutable.  ``abs_mod`` is the defining polynomial of the flattened
    field as a descending tuple of ints (monic).  ``gen_abs`` is the top
    tower generator written in the absolute generator, ``base_gen_abs``
    the image of the base field's absolute generator; both are
    (numerators, denominator) pairs as stored in an AlgElem.
    """

    __slots__ = (
        "base", "defining_poly", "gen_name", "abs_mod", "abs_degree",
        "gen_abs", "base_gen_abs",
        "zero", "one",
    )

    def __init__(self, base, defining_poly, gen_name, abs_mod, gen_abs,
                 base_gen_abs):
        self.base = base
        self.defining_poly = defining_poly
        self.gen_name = gen_name
        self.abs_mod = abs_mod
        self.abs_degree = n = len(abs_mod) - 1
        self.gen_abs = gen_abs
        self.base_gen_abs = base_gen_abs
        self.zero = AlgElem(self, (0,) * n, 1)
        self.one = AlgElem(self, (0,) * (n - 1) + (1,), 1)

    # -- construction ------------------------------------------------

    @staticmethod
    def rationals():
        zero = ((0,), 1)  # the modulus is z, so the absolute generator is 0
        return FieldHandle(None, None, "", (1, 0), zero, zero)

    def extend(self, defining_poly, gen_name, _trusted=False):
        """Adjoin a root of ``defining_poly`` (monic irreducible over self)."""
        f = defining_poly
        if f.field is not self and f.field != self:
            f = f.map_to(self)
        if f.is_zero():
            raise ZeroPolynomial("defining polynomial is zero")
        f = f.monic()
        d = f.degree()
        if d < 1:
            raise ZeroPolynomial("defining polynomial must be nonconstant")
        new_abs_degree = self.abs_degree * d
        if new_abs_degree > DEGREE_CAP:
            raise DegreeCapExceeded(
                f"absolute degree {new_abs_degree} exceeds cap {DEGREE_CAP}")
        if not _trusted and f.gcd(f.derivative()).degree() > 0:
            raise ValueError("defining polynomial is not squarefree")

        if d == 1:
            # trivial extension: same absolute field, generator is -f(0)
            root = -f.coeffs[-1]
            z = self.abs_gen()
            return FieldHandle(self, f, gen_name, self.abs_mod,
                               (root.num, root.den), (z.num, z.den))

        s, echelon, relation = _norm(f)
        # the norm is squarefree, so f is irreducible exactly when it is
        if not _trusted and len(_factor_rational(relation)) > 1:
            raise ValueError("defining polynomial is not irreducible")
        abs_mod, scale = _integralize(relation)
        new = FieldHandle(self, f, gen_name, abs_mod, None, None)
        # u = sum_i c_i gamma^i / den, and gamma = z / scale
        u = self.abs_gen()
        c, den = echelon.express(*_flatten([self.zero] * (d - 1) + [u]))
        top = new_abs_degree - 1
        theta = _elem(new, [c[i] * scale ** (top - i)
                            for i in range(top, -1, -1)], den * scale ** top)
        beta = new.abs_gen() / scale - theta * s
        new.base_gen_abs = (theta.num, theta.den)
        new.gen_abs = (beta.num, beta.den)
        # insurance: the adjoined generator must satisfy its defining poly
        if not f.evaluate(new.gen()).is_zero():
            raise InternalError("generator does not satisfy defining polynomial")
        return new

    # -- basic structure ---------------------------------------------

    def is_rationals(self):
        return self.base is None

    def tower_chain(self):
        """self, base, base.base, ... down to Q."""
        chain = [self]
        while chain[-1].base is not None:
            chain.append(chain[-1].base)
        return chain

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldHandle):
            return NotImplemented
        if self.is_rationals() or other.is_rationals():
            return self.base is other.base
        return (self.gen_name == other.gen_name
                and self.abs_mod == other.abs_mod
                and self.gen_abs == other.gen_abs
                and self.base == other.base)

    def __hash__(self):
        if self.is_rationals():
            return hash("Q")
        return hash((self.gen_name, self.abs_mod))

    def __repr__(self):
        if self.is_rationals():
            return "Q"
        return f"{self.base!r}({self.gen_name})"

    def describe(self):
        if self.is_rationals():
            return "Q"
        return (f"{self.base.describe()}"
                f"[{self.gen_name}: {self.defining_poly.render(self.gen_name)} = 0]")

    # -- elements ----------------------------------------------------

    def element(self, value):
        """Coerce a rational number into this field."""
        if isinstance(value, AlgElem):
            return self.embed(value)
        p, q = (value, 1) if isinstance(value, int) else \
            (value.numerator, value.denominator)
        return _elem(self, [0] * (self.abs_degree - 1) + [p], q)

    def gen(self):
        return AlgElem(self, *self.gen_abs)

    def abs_gen(self):
        """The absolute generator z (reduced, so 0 over a degree-1 field)."""
        if self.abs_degree == 1:
            return _elem(self, [-self.abs_mod[1]], 1)
        return AlgElem(self, *_z_rep(self.abs_degree))

    def embed(self, elem):
        """Map an element of a field lower in this tower into this field."""
        if elem.field is self:
            return elem
        if elem.field == self:
            return AlgElem(self, elem.num, elem.den)
        chain = self.tower_chain()
        for idx, fld in enumerate(chain):
            if fld is elem.field or fld == elem.field:
                for target in reversed(chain[:idx]):
                    elem = elem.substitute(AlgElem(target, *target.base_gen_abs))
                return elem
        raise NotASubfield(f"{elem.field!r} is not a subfield of {self!r}")

    def contains_field(self, other):
        return any(fld is other or fld == other for fld in self.tower_chain())


def _shift_candidates(degree):
    """0, 1, -1, 2, -2, ...: enough shifts that one is good, since each
    bad shift makes two of the ``degree`` conjugates of y + s*u equal."""
    yield 0
    for k in range(1, degree * (degree - 1) // 4 + 2):
        yield k
        yield -k


def _integralize(monic):
    """Rescale the root by an integer c so the monic polynomial (descending
    Fractions) has integer coefficients; returns (tuple of ints, c)."""
    c = lcm(*(a.denominator for a in monic))
    return tuple(a.numerator * (c ** i // a.denominator)
                 for i, a in enumerate(monic)), c


def _norm(f):
    """(s, echelon, relation) for a monic squarefree f of degree d over K
    and the first shift s at which gamma = y + s*u in K[y]/(f), u the
    absolute generator of K, has a minimal polynomial over Q (the first
    relation among its powers, held in ``echelon``) of degree [K:Q]*d.
    That relation is the squarefree norm of f(y - s*u)."""
    field, coeffs = f.field, f.coeffs
    d = len(coeffs) - 1
    size = field.abs_degree * d
    one_a = [field.zero] * (d - 1) + [field.one]
    # a rational f over K != Q has the norm f^[K:Q] at s = 0
    skip_zero = field.abs_degree > 1 and all(c.is_rational() for c in coeffs)
    for s in _shift_candidates(size):
        if s == 0 and skip_zero:
            continue
        echelon = _Echelon(size)
        power, su = one_a, field.abs_gen() * s
        relation = echelon.feed(*_flatten(power))
        while relation is None:
            power = _times_shifted_gen(power, coeffs, su)
            relation = echelon.feed(*_flatten(power))
        if len(relation) == size + 1:
            return s, echelon, relation
    raise InternalError("no squarefree shift found")


def _times_shifted_gen(power, f, shift):
    """power * (y + shift) in K[y]/(f): descending y-coefficients, f monic."""
    top = power[0]
    rest = power[1:] + [shift.field.zero]
    return [nxt - top * fk + shift * c
            for nxt, fk, c in zip(rest, f[1:], power)]


def _flatten(elems):
    """Integer coordinates of a list of elements over one denominator."""
    den = lcm(*(e.den for e in elems))
    return [x * (den // e.den) for e in elems for x in e.num], den


class _Echelon:
    """Fraction-free echelon form of vectors v_0, v_1, ... fed in turn.

    Each vector arrives as integer coordinates over a positive denominator.
    A row is those coordinates followed by the combination of the vectors
    it is built from, so the row of v_k starts as [w | den e_k].
    A new row is reduced by the pivot rows in order, each step divided
    exactly by the previous pivot (Bareiss), so every entry stays an
    integer.  A row whose coordinates vanish is a linear relation."""

    __slots__ = ("size", "rows", "pivots")

    def __init__(self, size):
        self.size = size  # number of coordinates, so at most size rows
        self.rows = []
        self.pivots = []  # the pivot column of each row

    def _reduce(self, row):
        prev = 1
        for pivot_row, col in zip(self.rows, self.pivots):
            p, x = pivot_row[col], row[col]
            row = [(v * p - x * r) // prev for v, r in zip(row, pivot_row)]
            prev = p
        return row

    def feed(self, num, den):
        """Hold the next vector num/den.  Returns None while the vectors are
        independent, else the first monic relation among them as descending
        Fractions: for the powers of an element, its minimal polynomial."""
        n, k = self.size, len(self.rows)
        row = list(num) + [0] * (n + 1)
        row[n + k] = den
        row = self._reduce(row)
        col = next((j for j in range(n) if row[j]), None)
        if col is None:
            lead = row[n + k]
            return [Fraction(row[n + i], lead) for i in range(k, -1, -1)]
        self.rows.append(row)
        self.pivots.append(col)
        return None

    def express(self, num, den):
        """The vector num/den as a combination of the vectors held: ascending
        numerators over one denominator."""
        n = self.size
        row = self._reduce(list(num) + [0] * (n + 1))
        if any(row[:n]):
            raise InternalError("vector outside the span of the vectors held")
        # the vector entered once and was scaled by the last pivot
        last = self.rows[-1][self.pivots[-1]]
        return [-row[n + i] for i in range(len(self.rows))], last * den


def _elem(field, num, den):
    """The element num/den of ``field`` in lowest terms; den nonzero."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = [x // g for x in num]
        den //= g
    return AlgElem(field, tuple(num), den)


def _reduce(prod, mod):
    """Remainder of the descending integer coefficient list ``prod``
    (at least deg mod entries; overwritten) modulo the monic ``mod``."""
    n = len(mod) - 1
    top = len(prod) - n
    for i in range(top):
        c = prod[i]
        if c:
            for k in range(1, n + 1):
                prod[i + k] -= c * mod[k]
    return prod[top:] if top else prod


def _inverse(num, den, mod):
    """1/(num(z)/den) modulo the irreducible mod(z), as (numerators, d):
    the element 1 written in a, a z, ..., a z^(n-1), each reduced modulo
    mod, is the inverse x(z) of a."""
    n = len(mod) - 1
    echelon = _Echelon(n)
    v = list(num)
    for k in range(n):
        if k:
            v = _reduce(v + [0], mod)
        if echelon.feed(v, den) is not None:
            raise InternalError("field modulus is not irreducible")
    c, d = echelon.express([0] * (n - 1) + [1], 1)
    return c[::-1], d


class AlgElem:
    """An element of a FieldHandle as integer numerators over one denominator.

    ``num`` holds the descending coefficients of the element written as
    a polynomial in the absolute generator z, reduced modulo the field's
    ``abs_mod`` (so it has ``abs_degree`` entries; over Q just one).
    ``den`` is positive with gcd(den, *num) == 1 (zero is all zeros over
    1), so equal elements have equal (num, den).
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=1):
        self.field = field
        self.num = num
        self.den = den

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, AlgElem):
            if other.field is self.field or other.field == self.field:
                return other
            if self.field.contains_field(other.field):
                return self.field.embed(other)
            raise NotASubfield("elements of unrelated fields")
        return self.field.element(other)

    def __add__(self, other):
        if other.__class__ is not AlgElem or other.field is not self.field:
            other = self._coerce(other)
        da, db = self.den, other.den
        if da == db:
            return _elem(self.field,
                         [x + y for x, y in zip(self.num, other.num)], da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _elem(self.field,
                     [x * fa + y * fb for x, y in zip(self.num, other.num)],
                     da * fa)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not AlgElem or other.field is not self.field:
            other = self._coerce(other)
        a, b = self.num, other.num
        prod = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    prod[j] += x * y
        if len(prod) > 1:
            prod = _reduce(prod, self.field.abs_mod)
        return _elem(self.field, prod, self.den * other.den)

    __rmul__ = __mul__

    def __neg__(self):
        return AlgElem(self.field, tuple(-x for x in self.num), self.den)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out, base = self.field.one, self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        return _elem(self.field, *_inverse(self.num, self.den,
                                           self.field.abs_mod))

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[:-1])

    def as_fraction(self):
        """The element as a Fraction; only valid when is_rational()."""
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[-1], self.den)

    def coords(self):
        """Coordinates in the power basis of z, descending, as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    def substitute(self, value):
        """The image of this element under z -> value, for z the absolute
        generator of its field and value in any field (the caller picks
        value so that the map is a field embedding)."""
        acc = value.field.zero
        for x in self.num:
            acc = acc * value + x
        return _elem(acc.field, list(acc.num), acc.den * self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.element(other)
        if not isinstance(other, AlgElem):
            return NotImplemented
        try:
            other = self._coerce(other)
        except NotASubfield:
            return False
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def key(self):
        """Deterministic sort key within a fixed field."""
        return self.coords()

    def __repr__(self):
        return f"AlgElem({self.render()})"

    def render(self):
        """Human/CLI rendering in terms of the tower generator."""
        deg = len(self.num) - 1
        return render_terms([(Fraction(c, self.den), deg - i)
                             for i, c in enumerate(self.num) if c],
                            _display_gen_name(self.field))


def _display_gen_name(field):
    # depth-one integral towers keep the user's generator name; otherwise
    # fall back to a neutral symbol for the primitive generator
    if field.base is not None and field.base.is_rationals() and _gen_is_z(field):
        return field.gen_name or "w"
    return "w"


def render_terms(terms, var, sep=""):
    """The (coefficient, power) pairs, in the given order, as terms
    ``c*var^power`` joined by sign.  A rational coefficient (a Fraction
    or a rational element) prints as its Fraction, dropped when it is
    +-1 in front of a power of var; any other prints as (c.render())."""
    parts = []
    for c, power in terms:
        if isinstance(c, AlgElem):
            body = str(c.as_fraction()) if c.is_rational() \
                else f"({c.render()})"
        else:
            body = str(c)
        if power == 0:
            parts.append(body)
            continue
        head = var if power == 1 else f"{var}^{power}"
        parts.append(body[:-1] + head if body in ("1", "-1")
                     else f"{body}*{head}")
    return join_terms(parts, sep)


def join_terms(parts, sep=""):
    """Printed terms joined by their signs, padded with ``sep``; "0" for
    no terms."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f"{sep}-{sep}{p[1:]}" if p.startswith("-") else f"{sep}+{sep}{p}"
    return out


class UniPoly:
    """Univariate polynomial over a FieldHandle; descending coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = [c if isinstance(c, AlgElem) else field.element(c)
                  for c in coeffs]
        i = 0
        while i < len(coeffs) and coeffs[i].is_zero():
            i += 1
        self.field = field
        self.coeffs = coeffs[i:]

    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[0]

    def monic(self):
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lead = self.leading()
        if lead == self.field.one:
            return self
        inv = lead.inverse()
        return UniPoly(self.field, [c * inv for c in self.coeffs])

    def map_to(self, field):
        return UniPoly(field, [field.embed(c) for c in self.coeffs])

    def evaluate(self, value):
        """Horner evaluation; value may live in an extension of the field."""
        target = value.field
        acc = target.zero
        for c in self.coeffs:
            acc = acc * value + target.embed(c)
        return acc

    def derivative(self):
        d = self.degree()
        return UniPoly(self.field,
                       [c * (d - i) for i, c in enumerate(self.coeffs[:-1])])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        a = [self.field.zero] * (n - len(a)) + a
        b = [self.field.zero] * (n - len(b)) + b
        return UniPoly(self.field, [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, AlgElem):
            return UniPoly(self.field, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly(self.field, [])
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.field, out)

    def __divmod__(self, other):
        """Quotient and remainder of the division by a nonzero other."""
        inv, tail = other.leading().inverse(), other.coeffs[1:]
        rem, quo = list(self.coeffs), []
        for i in range(len(rem) - len(tail)):
            quo.append(rem[i] * inv)
            for j, b in enumerate(tail, i + 1):
                rem[j] = rem[j] - quo[-1] * b
        return UniPoly(self.field, quo), UniPoly(self.field, rem[len(quo):])

    def gcd(self, other):
        """Monic greatest common divisor; zero when both are zero."""
        a, b = self, other
        while not b.is_zero():
            a, b = b.monic(), divmod(a, b)[1]
        return a if a.is_zero() else a.monic()

    def __pow__(self, n):
        out = UniPoly(self.field, [1])
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((len(self.coeffs),) + tuple(c.key() for c in self.coeffs))

    def key(self):
        return (self.degree(), tuple(c.key() for c in self.coeffs))

    def __repr__(self):
        return f"UniPoly({self.render('y')})"

    def render(self, var="y"):
        d = self.degree()
        return render_terms([(c, d - i) for i, c in enumerate(self.coeffs)
                             if not c.is_zero()], var)


# -- factorization and minimal polynomials ---------------------------


def poly_factor(f):
    """Monic irreducible factors with multiplicities, canonically sorted.

    Only the squarefree part g = f / gcd(f, f') is factored; the
    multiplicity of each factor in f is found by trial division.  A
    rational g is factored over Q first: a factor whose degree is prime
    to [K:Q] stays irreducible over K (the field of one of its roots has
    degree over Q divisible by both), so only the other factors go
    through factorization over K."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    field = f.field
    if f.degree() < 2:
        return [(f.monic(), 1)] if f.degree() == 1 else []
    f = f.monic()
    g = divmod(f, f.gcd(f.derivative()))[0]
    if all(c.is_rational() for c in g.coeffs):
        factors = []
        for coeffs in _factor_rational([c.as_fraction() for c in g.coeffs]):
            h = UniPoly(field, coeffs)
            factors += [h] if gcd(h.degree(), field.abs_degree) == 1 \
                else _factor_over_field(h)
    else:
        factors = _factor_over_field(g)
    out = []
    for p in factors:
        mult, (quo, rem) = 0, divmod(f, p)
        while rem.is_zero():
            mult, f = mult + 1, quo
            quo, rem = divmod(f, p)
        out.append((p, mult))
    out.sort(key=lambda fm: fm[0].key())
    return out


def _factor_over_field(g):
    """Irreducible factors of a monic squarefree g over a number field K,
    by Trager's algorithm: with s, u and the norm N of g as in ``_norm``,
    each factor h of N over Q gives one factor gcd(g, h(y + s*u)) of g
    over K."""
    if g.degree() < 2:
        return [g]
    field = g.field
    s, _, norm = _norm(g)
    parts = _factor_rational(norm)
    if len(parts) == 1:
        return [g]
    su = field.abs_gen() * s
    factors = []
    for h in parts:
        # h(gamma) in K[y]/(g), by Horner
        rem = [field.zero] * g.degree()
        for c in h:
            rem = _times_shifted_gen(rem, g.coeffs, su)
            rem[-1] = rem[-1] + c
        factors.append(g.gcd(UniPoly(field, rem)))
    return factors


def _factor_rational(coeffs):
    """Monic irreducible factors over Q of the squarefree polynomial with
    descending rational coefficients ``coeffs``, each a list of
    descending Fractions: the squarefree part taken by ``poly_factor``
    or a norm from ``_norm``.

    The factoring is our own, over Z (von zur Gathen & Gerhard, *Modern
    Computer Algebra*, ch. 14-16): ``_factor_squarefree`` splits the
    primitive integer multiple of the polynomial.  SymPy is needed only
    by the tests, which check this against its ``factor_list``."""
    den = lcm(*(c.denominator for c in coeffs))
    f = _zx_primitive([c.numerator * (den // c.denominator) for c in coeffs])
    return [[Fraction(c, g[0]) for c in g] for g in _factor_squarefree(f)]


# -- integer polynomials: descending lists of ints ---------------------


def _zx_primitive(a):
    """a over the gcd of its coefficients, leading coefficient positive."""
    g = gcd(*a)
    if a[0] < 0:
        g = -g
    return [c // g for c in a]


def _zx_derivative(a):
    n = len(a) - 1
    return [c * (n - i) for i, c in enumerate(a[:-1])]


def _factor_squarefree(f):
    """Primitive irreducible factors over Z of the primitive squarefree f
    of positive degree and leading coefficient.

    Degrees 1 and 2 are answered directly.  Otherwise f is factored
    modulo small primes p that keep it squarefree and of full degree,
    by distinct degrees.  A factor over Z has, modulo each p, a degree
    that is a sum of the degrees found there, so when no degree below
    deg f is such a sum for every prime tried, f is irreducible.  Else
    the prime with the fewest factors gives them all (equal-degree
    splitting), and ``_zassenhaus`` lifts and recombines them."""
    n = len(f) - 1
    if n == 1:
        return [f]
    if n == 2:
        a, b, c = f
        disc = b * b - 4 * a * c
        root = isqrt(disc) if disc > 0 else 0
        if root * root != disc:
            return [f]
        return [_zx_primitive([2 * a, b - root]),
                _zx_primitive([2 * a, b + root])]
    allowed = (1 << n) - 2  # bit d: a factor of degree d is possible
    best, good = None, 0
    for p in _odd_primes():
        if f[0] % p == 0:
            continue
        inv = pow(f[0], -1, p)
        fp = [c * inv % p for c in f]
        if len(_gf_gcd(fp, _zx_derivative(fp), p)) > 1:
            continue
        ddf = _gf_ddf(fp, p)
        sums = 1  # bit d: d is a sum of factor degrees modulo p
        for d, g in ddf:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
        allowed &= sums
        if not allowed:
            return [f]
        count = sum((len(g) - 1) // d for d, g in ddf)
        if best is None or count < best[0]:
            best = (count, p, ddf)
        good += 1
        if good == _GOOD_PRIMES:
            break
    _, p, ddf = best
    rng = random.Random(p)
    return _zassenhaus(f, [u for d, g in ddf for u in _gf_edf(g, d, p, rng)],
                       p, allowed)


#: how many good primes' degree patterns are compared before lifting
_GOOD_PRIMES = 3


def _odd_primes():
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _zassenhaus(f, factors, p, allowed):
    """The irreducible factors over Z of the primitive squarefree f,
    given its monic irreducible factors modulo p (p not dividing lc f).

    The factors are lifted modulo p^k > 2B, B the Mignotte-type bound
    sqrt(n+1) 2^n |f|_inf lc(f) of vzGG Algorithm 15.19, and subsets of
    them, smallest first, are tried as factors: b times the product of
    the subset and b times the product of the rest, b the leading
    coefficient of what is left of f, both reduced symmetrically, are
    the factors exactly when the product of their 1-norms is at most B.
    Only subsets whose degree is in the bit set ``allowed`` and whose
    constant term divides b f(0) are multiplied out."""
    n = len(f) - 1
    bound = (isqrt(n + 1) + 1) * 2 ** n * max(abs(c) for c in f) * f[0]
    k, mod = 1, p
    while mod <= 2 * bound:
        k, mod = k + 1, mod * p
    lifted = _hensel_lift(f, factors, p, k)
    out, size = [], 1
    while 2 * size <= len(lifted):
        b = f[0]
        for subset in combinations(range(len(lifted)), size):
            if not allowed >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            const = _symmetric(b * prod(lifted[i][-1] for i in subset), mod)
            if f[-1] and (not const or (b * f[-1]) % const):
                continue
            rest = [u for i, u in enumerate(lifted) if i not in subset]
            g = [_symmetric(c, mod)
                 for c in _gf_prod(b, [lifted[i] for i in subset], mod)]
            h = [_symmetric(c, mod) for c in _gf_prod(b, rest, mod)]
            if sum(map(abs, g)) * sum(map(abs, h)) <= bound:
                out.append(_zx_primitive(g))
                f, lifted = _zx_primitive(h), rest
                break
        else:
            size += 1
    return out + [f]


def _symmetric(c, mod):
    """The residue of c modulo mod in (-mod/2, mod/2]."""
    c %= mod
    return c - mod if 2 * c > mod else c


def _hensel_lift(f, factors, p, k):
    """Monic factors modulo p^k of f, given f = lc(f) prod(factors) mod p
    with the factors monic and coprime modulo p: split the factors in two
    halves, lift the two products by quadratic Hensel steps (vzGG
    Algorithm 15.10) and lift within each half."""
    mod = p ** k
    if len(factors) == 1:
        inv = pow(f[0], -1, mod)
        return [[c * inv % mod for c in f]]
    half = len(factors) // 2
    g = _gf_prod(f[0], factors[:half], p)
    h = _gf_prod(1, factors[half:], p)
    s, t = _gf_gcdex(g, h, p)
    m = p
    while m < mod:
        m2 = m * m
        e = _gf_sub(f, _gf_mul(g, h, m2), m2)
        q, r = _gf_divmod(_gf_mul(s, e, m2), h, m2)
        g = _gf_add(g, _gf_add(_gf_mul(t, e, m2), _gf_mul(q, g, m2), m2), m2)
        h = _gf_add(h, r, m2)
        bez = _gf_sub(_gf_add(_gf_mul(s, g, m2), _gf_mul(t, h, m2), m2),
                      [1], m2)
        c, d = _gf_divmod(_gf_mul(s, bez, m2), h, m2)
        s = _gf_sub(s, d, m2)
        t = _gf_sub(_gf_sub(t, _gf_mul(t, bez, m2), m2), _gf_mul(c, g, m2),
                    m2)
        m = m2
    g = [c % mod for c in g]
    h = [c % mod for c in h]
    return (_hensel_lift(g, factors[:half], p, k)
            + _hensel_lift(h, factors[half:], p, k))


# -- polynomials modulo m: descending lists of residues, no leading zero


def _gf_strip(a):
    i = 0
    while i < len(a) and not a[i]:
        i += 1
    return a[i:]


def _gf_add(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    b = [0] * (len(a) - len(b)) + b
    return _gf_strip([(x + y) % m for x, y in zip(a, b)])


def _gf_sub(a, b, m):
    return _gf_add(a, [-c for c in b], m)


def _gf_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _gf_strip([c % m for c in out])


def _gf_prod(lead, factors, m):
    """lead times the product of ``factors`` modulo m."""
    out = [lead % m]
    for u in factors:
        out = _gf_mul(out, u, m)
    return out


def _gf_divmod(a, b, m):
    """Quotient and remainder of a by b modulo m; lc(b) is a unit."""
    lead, tail = b[0], b[1:]
    inv = 1 if lead == 1 else pow(lead, -1, m)
    rem, quo = list(a), []
    for i in range(len(a) - len(tail)):
        c = rem[i] * inv % m
        quo.append(c)
        if c:
            for j, y in enumerate(tail, i + 1):
                rem[j] -= c * y
    return quo, _gf_strip([c % m for c in rem[len(quo):]])


def _gf_gcd(a, b, p):
    """Monic gcd modulo the prime p."""
    a, b = _gf_strip(a), _gf_strip([c % p for c in b])
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    inv = pow(a[0], -1, p)
    return [c * inv % p for c in a]


def _gf_gcdex(a, b, p):
    """(s, t) with s a + t b = 1 modulo the prime p, for coprime a and b;
    deg s < deg b and deg t < deg a."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, p), p)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _gf_powmod(a, e, f, p):
    """a^e modulo the monic f and the prime p."""
    out = [1]
    while e:
        if e & 1:
            out = _gf_divmod(_gf_mul(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _gf_divmod(_gf_mul(a, a, p), f, p)[1]
    return out


def _gf_ddf(f, p):
    """Distinct-degree factorization of the monic squarefree f modulo p
    (vzGG Algorithm 14.3): pairs (d, g), g the product of the monic
    irreducible factors of f of degree d."""
    out, h, d = [], [1, 0], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _gf_powmod(h, p, f, p)  # x^(p^d) modulo f
        g = _gf_gcd(f, _gf_sub(h, [1, 0], p), p)
        if len(g) > 1:
            out.append((d, g))
            f = _gf_divmod(f, g, p)[0]
            h = _gf_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _gf_edf(g, d, p, rng):
    """The monic irreducible factors of g modulo the odd prime p, given
    that all have degree d (Cantor and Zassenhaus, vzGG Algorithm 14.8)."""
    n = len(g) - 1
    if n == d:
        return [g]
    while True:
        a = _gf_strip([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        b = _gf_gcd(g, a, p)
        if len(b) == 1:
            b = _gf_gcd(g, _gf_sub(_gf_powmod(a, (p ** d - 1) // 2, g, p),
                                   [1], p), p)
        if 1 < len(b) < len(g):
            return (_gf_edf(b, d, p, rng)
                    + _gf_edf(_gf_divmod(g, b, p)[0], d, p, rng))


def minimal_poly(a, over=None):
    """Monic minimal polynomial of ``a`` over a subfield of its tower."""
    field = a.field
    if over is None:
        over = FieldHandle.rationals()
    if not field.contains_field(over):
        raise NotASubfield(f"{over!r} does not occur in the tower of {field!r}")

    mu_q = UniPoly(over, _absolute_minpoly(a))
    # [K(a):Q] is a multiple of both deg mu_q and [K:Q]; when these are
    # coprime, mu_q stays irreducible over K
    if gcd(mu_q.degree(), over.abs_degree) == 1:
        return mu_q
    for fac, _ in poly_factor(mu_q):
        if fac.evaluate(a).is_zero():
            return fac
    raise InternalError("no factor annihilates the element")


def _absolute_minpoly(a):
    """Minimal polynomial of ``a`` over Q as descending Fractions: the
    first linear relation among 1, a, a^2, ..."""
    echelon = _Echelon(a.field.abs_degree)
    power = a.field.one
    relation = echelon.feed(power.num, power.den)
    while relation is None:
        power = power * a
        relation = echelon.feed(power.num, power.den)
    return relation


def _field_norm(a):
    """N_{K/Q}(a), K the field of ``a``: the constant term of the minimal
    polynomial over Q, signed, to the power [K:Q(a)]."""
    relation = _absolute_minpoly(a)
    d = len(relation) - 1
    return ((-1) ** d * relation[-1]) ** (a.field.abs_degree // d)


# -- Capelli's test for binomials ------------------------------------


def spread_factors(mu, e):
    """Monic irreducible factors of mu(Y^e), canonically sorted, for a
    monic irreducible mu with mu(0) != 0 over K.

    mu(Y^e) is irreducible exactly when Y^e - v is irreducible over K(v),
    v a root of mu.  For deg mu = 1, v lies in K and ``binomial_splits``
    decides.  For k = deg mu > 1 the norm alone rules splitting out or
    not: N_{K(v)/Q}(v) = N_{K/Q}((-1)^k mu(0)) over a field of absolute
    degree k*[K:Q].  Only what the test cannot show irreducible is
    factored."""
    if e == 1:
        return [mu]
    field, k = mu.field, mu.degree()
    spread = [mu.coeffs[0]]
    for c in mu.coeffs[1:]:
        spread += [field.zero] * (e - 1) + [c]
    spread = UniPoly(field, spread)
    v = mu.coeffs[-1] * (-1) ** k
    if k == 1:
        splits = binomial_splits(v, e)
    else:
        splits = bool(_capelli_cases(_field_norm(v), k * field.abs_degree, e))
    if not splits:
        return [spread]
    return [fac for fac, _ in poly_factor(spread)]


def binomial_splits(lam, m):
    """Whether Y^m - lam is reducible over the field K of the nonzero
    ``lam``.  By Capelli's theorem (Lang, *Algebra*, VI 9.1) it is exactly
    when lam is a p-th power in K for a prime p | m, or 4 | m and lam lies
    in -4K^4.  Over Q the norm is lam and ``_capelli_cases`` is exact;
    over K != Q a case the norm leaves open is decided by a root in K of
    the binomial of degree p it names."""
    field = lam.field
    for p, c in _capelli_cases(_field_norm(lam), field.abs_degree, m):
        if field.abs_degree == 1:
            return True
        root_of = UniPoly(field, [field.one] + [field.zero] * (p - 1)
                          + [-lam * c])
        if any(fac.degree() == 1 for fac, _ in poly_factor(root_of)):
            return True
    return False


def _capelli_cases(norm, degree, m):
    """The cases (p, c) of Capelli's theorem for Y^m - v, v in a field K of
    absolute degree ``degree`` with N_{K/Q}(v) = ``norm``, that the norm
    leaves open: c*v a p-th power in K, for each prime p | m with c = 1
    and, when 4 | m, p = 4 with c = -1/4 (v in -4K^4).  A case is open
    when N(c*v) = c^degree * norm is a p-th power in Q."""
    cases = [(p, 1) for p in _prime_divisors(m)]
    if m % 4 == 0:
        cases.append((4, Fraction(-1, 4)))
    return [(p, c) for p, c in cases
            if _is_rational_power(Fraction(c) ** degree * norm, p)]


def _prime_divisors(m):
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + [m] if m > 1 else out


def _is_rational_power(x, p):
    """Whether the Fraction x is the p-th power of a rational number."""
    if x < 0:
        if p % 2 == 0:
            return False
        x = -x
    return all(_iroot(n, p) ** p == n for n in (x.numerator, x.denominator))


def _iroot(n, p):
    """Floor of the p-th root of the integer n >= 0 (Newton's method from
    above)."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // p)
    while True:
        y = ((p - 1) * x + n // x ** (p - 1)) // p
        if y >= x:
            return x
        x = y
