"""Laurent polynomials and truncated Laurent series over a number field.

A LaurentSeries stores a finite coefficient map exp -> AlgElem together
with a precision bound ``prec``: coefficients are known exactly for all
exponents < prec, unknown from prec on.  ``prec=None`` means the series
is an exact Laurent polynomial.  Operations that would need unknown
coefficients raise PrecisionTooLow instead of degrading silently.
"""

from __future__ import annotations

from math import lcm

from .errors import PrecisionTooLow
from .exactalg import AlgElem, _elem, _reduce, render_terms


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


# -- the integer kernel ------------------------------------------------
#
# A product sums many coefficient products into each output coefficient.
# The one kernel, _product, writes every coefficient of a series over one
# common integer denominator and every element as one integer, its
# numerator polynomial evaluated at z = 2^k (Kronecker substitution, with
# k wide enough that no digit of a sum overflows), so the inner loops
# multiply and add plain integers.  Each output coefficient is then
# unpacked, reduced modulo abs_mod and brought to lowest terms once.
# LaurentSeries.inverse uses it too, through Newton's iteration, which
# needs nothing but products (von zur Gathen & Gerhard, Modern Computer
# Algebra, 9.1).


def _scaled(coeffs):
    """(D, [(exp, numerators of c*D), ...] by ascending exp) for the
    least common denominator D of a nonempty coefficient map."""
    den = lcm(*(c.den for c in coeffs.values()))
    return den, sorted((e, c.num if c.den == den
                        else [x * (den // c.den) for x in c.num])
                       for e, c in coeffs.items())


def _bits(nums):
    """Bit length of the largest absolute value in integer vectors."""
    return max((abs(x) for num in nums for x in num), default=0).bit_length()


def _pack(num, k):
    """Descending integer coefficients evaluated at z = 2^k."""
    v = 0
    for x in num:
        v = (v << k) + x
    return v


def _unpack(v, k, count):
    """The ``count`` descending signed base-2^k digits of v; every digit
    lies in [-2^(k-1), 2^(k-1)).  Inverse of _pack."""
    out = [0] * count
    base = 1 << k
    mask, half = base - 1, base >> 1
    for i in range(count - 1, 0, -1):
        d = v & mask
        if d >= half:
            d -= base
        out[i] = d
        v = (v - d) >> k
    out[0] = v
    return out


def _product(field, a, b, prec):
    """Coefficient map of a*b below ``prec`` (None: all) for nonempty
    coefficient maps a and b."""
    n = field.abs_degree
    da, ta = _scaled(a)
    db, tb = _scaled(b)
    k = _bits(x for _, x in ta) + _bits(x for _, x in tb) \
        + (n * min(len(ta), len(tb))).bit_length() + 1
    pb = [(e, _pack(num, k)) for e, num in tb]
    top = ta[-1][0] + tb[-1][0] + 1 if prec is None else prec
    acc = {}
    get = acc.get
    for e1, num in ta:
        x = _pack(num, k)
        lim = top - e1
        for e2, y in pb:
            if e2 >= lim:
                break
            e = e1 + e2
            acc[e] = get(e, 0) + x * y
    mod, den, count = field.abs_mod, da * db, 2 * n - 1
    return {e: _elem(field, _reduce(_unpack(v, k, count), mod), den)
            for e, v in acc.items() if v}


class LaurentSeries:
    __slots__ = ("field", "coeffs", "prec")

    def __init__(self, field, coeffs, prec=None):
        clean = {}
        for e, c in coeffs.items():
            if not isinstance(c, AlgElem):
                c = field.element(c)
            if not c.is_zero():
                if prec is None or e < prec:
                    clean[int(e)] = c
        self.field = field
        self.coeffs = clean
        self.prec = prec

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(field, prec=None):
        return LaurentSeries(field, {}, prec)

    @staticmethod
    def one(field, prec=None):
        return LaurentSeries(field, {0: field.one}, prec)

    @staticmethod
    def monomial(field, coeff, exp):
        return LaurentSeries(field, {exp: coeff})

    # -- structure ---------------------------------------------------

    def is_exact(self):
        return self.prec is None

    def is_zero(self):
        """Exactly zero (only meaningful for exact series)."""
        return not self.coeffs and self.is_exact()

    def is_zero_to_precision(self):
        return not self.coeffs

    def order(self):
        """Valuation.  None for the exact zero series."""
        if self.coeffs:
            return min(self.coeffs)
        if self.is_exact():
            return None
        raise PrecisionTooLow(
            f"series is zero to precision {self.prec}; valuation unknown")

    def truncate(self, prec):
        return LaurentSeries(self.field, self.coeffs,
                             _min_prec(self.prec, prec))

    def map_to(self, field):
        return LaurentSeries(field, {e: field.embed(c)
                                     for e, c in self.coeffs.items()}, self.prec)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            prev = out.get(e)
            out[e] = c if prev is None else prev + c
        # the constructor drops the coefficients that cancelled
        return LaurentSeries(self.field, out, _min_prec(self.prec, other.prec))

    def __neg__(self):
        return LaurentSeries(self.field, {e: -c for e, c in self.coeffs.items()},
                             self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, AlgElem)):
            scalar = self.field.element(other) if isinstance(other, int) else other
            return LaurentSeries(self.field,
                                 {e: c * scalar for e, c in self.coeffs.items()},
                                 self.prec)
        prec = None
        if self.prec is not None or other.prec is not None:
            va = self._known_valuation()
            vb = other._known_valuation()
            cands = []
            if self.prec is not None and vb is not None:
                cands.append(self.prec + vb)
            if other.prec is not None and va is not None:
                cands.append(other.prec + va)
            if not cands:
                # one side zero to precision against an exact-zero-free side
                pa = self.prec if self.prec is not None else 0
                pb = other.prec if other.prec is not None else 0
                cands.append(pa + pb)
            prec = min(cands)
        if len(self.coeffs) > 1 and len(other.coeffs) > 1:
            return LaurentSeries(self.field, _product(
                self.field, self.coeffs, other.coeffs, prec), prec)
        out = {}
        get = out.get
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if prec is not None and e >= prec:
                    continue
                prev = get(e)
                out[e] = c1 * c2 if prev is None else prev + c1 * c2
        # the constructor drops the coefficients that cancelled
        return LaurentSeries(self.field, out, prec)

    __rmul__ = __mul__

    def _known_valuation(self):
        if self.coeffs:
            return min(self.coeffs)
        return self.prec  # None for exact zero: treated as +infinity

    def inverse(self, prec=None):
        """Multiplicative inverse as a series known below ``prec``.

        A truncated series of valuation v determines its inverse only
        below x^(self.prec - 2v), which caps ``prec`` and is its default.
        For an exact monomial the result is exact; any other exact series
        needs a finite target precision."""
        if not self.coeffs:
            if self.is_exact():
                raise ZeroDivisionError("inverse of the zero series")
            raise PrecisionTooLow("cannot invert a series that is zero to precision")
        v = min(self.coeffs)
        lead = self.coeffs[v]
        if self.prec is not None:
            prec = _min_prec(prec, self.prec - 2 * v)
        if len(self.coeffs) == 1:
            return LaurentSeries(self.field, {-v: lead.inverse()}, prec)
        if prec is None:
            raise PrecisionTooLow(
                "inverting a non-monomial exact series needs a target precision")
        # Newton's iteration y <- y - y*(a*y - 1) for 1/a, a = self/t^v:
        # with y known below t^done, a*y - 1 starts at t^done, and each
        # step doubles the known length, up to the t^(prec+v) that
        # 1/self = t^-v/a needs below t^prec.
        field, length = self.field, prec + v
        y, known = {0: lead.inverse()}, 1
        while known < length:
            done, known = known, min(2 * known, length)
            a = {e - v: c for e, c in self.coeffs.items() if e - v < known}
            err = {e: c for e, c in _product(field, a, y, known).items()
                   if e >= done and not c.is_zero()}
            if err:
                y.update((e, -c) for e, c in
                         _product(field, y, err, known).items())
        # the constructor drops y_0 when length <= 0, and zero terms
        return LaurentSeries(field, {e - v: y[e] for e in sorted(y)}, prec)

    def derivative(self):
        out = {e - 1: c * e for e, c in self.coeffs.items() if e != 0}
        prec = None if self.prec is None else self.prec - 1
        return LaurentSeries(self.field, out, prec)

    def substitute_power(self, n):
        """t -> t^n: exponents and precision scale by n."""
        prec = None if self.prec is None else self.prec * n
        return LaurentSeries(self.field,
                             {e * n: c for e, c in self.coeffs.items()}, prec)

    def shift(self, k):
        prec = None if self.prec is None else self.prec + k
        return LaurentSeries(self.field,
                             {e + k: c for e, c in self.coeffs.items()}, prec)

    def coeff(self, e):
        return self.coeffs.get(e, self.field.zero)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.field == other.field and self.prec == other.prec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.prec, tuple(sorted(self.coeffs))))

    def __repr__(self):
        return f"LaurentSeries({self.render()})"

    def render(self):
        body = render_terms([(self.coeffs[e], e) for e in sorted(self.coeffs)],
                            "x")
        if self.prec is not None:
            body += f" + O(x^{self.prec})"
        return body
