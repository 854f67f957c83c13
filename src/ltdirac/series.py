"""Laurent polynomials and truncated Laurent series over a number field.

A LaurentSeries stores a finite coefficient map exp -> AlgElem together
with a precision bound ``prec``: coefficients are known exactly for all
exponents < prec, unknown from prec on.  ``prec=None`` means the series
is an exact Laurent polynomial.  Operations that would need unknown
coefficients raise PrecisionTooLow instead of degrading silently.
"""

from __future__ import annotations

from .errors import PrecisionTooLow
from .exactalg import AlgElem


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


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
    def monomial(field, coeff, exp, prec=None):
        return LaurentSeries(field, {exp: coeff}, prec)

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

    def degree(self):
        return max(self.coeffs) if self.coeffs else None

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

        For an exact monomial the result is exact; otherwise a finite
        target precision is required (defaults to self.prec shifted)."""
        if not self.coeffs:
            if self.is_exact():
                raise ZeroDivisionError("inverse of the zero series")
            raise PrecisionTooLow("cannot invert a series that is zero to precision")
        v = min(self.coeffs)
        lead = self.coeffs[v]
        if len(self.coeffs) == 1 and self.is_exact():
            return LaurentSeries(self.field, {-v: lead.inverse()}, prec)
        if prec is None:
            if self.prec is None:
                raise PrecisionTooLow(
                    "inverting a non-monomial exact series needs a target precision")
            prec = self.prec - 2 * v
        # u = t^v * lead * (1 + h);  1/u = t^-v lead^-1 * sum (-h)^k
        inv_lead = lead.inverse()
        length = prec + v  # need (1+h)^-1 below t^(prec+v)
        out = {0: self.field.one}
        h = {e - v: c * inv_lead for e, c in self.coeffs.items() if e != v}
        # iterate: out = 1 - h*out, computed degree by degree
        for target in range(1, max(length, 0)):
            acc = None
            for eh, ch in h.items():
                if 0 < eh <= target:
                    prev = out.get(target - eh)
                    if prev is not None:
                        acc = ch * prev if acc is None else acc + ch * prev
            if acc is not None and not acc.is_zero():
                out[target] = -acc
        shifted = {e - v: c * inv_lead for e, c in out.items() if e - v < prec}
        return LaurentSeries(self.field, shifted, prec)

    def divide(self, other, prec=None):
        return self * other.inverse(prec=prec)

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

    def eq_to_precision(self, other):
        prec = _min_prec(self.prec, other.prec)
        exps = set(self.coeffs) | set(other.coeffs)
        for e in exps:
            if prec is not None and e >= prec:
                continue
            if self.coeff(e) != other.coeff(e):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.field == other.field and self.prec == other.prec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.prec, tuple(sorted(self.coeffs))))

    def __repr__(self):
        return f"LaurentSeries({self.render('x')})"

    def render(self, var="x"):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for e in sorted(self.coeffs):
                c = self.coeffs[e]
                cs = c.render() if not c.is_rational() else None
                if cs is not None:
                    head = f"({cs})"
                else:
                    frac = c.as_fraction()
                    head = None
                    if e != 0 and frac == 1:
                        head = ""
                    elif e != 0 and frac == -1:
                        head = "-"
                    else:
                        head = str(frac.numerator) if frac.denominator == 1 \
                            else f"{frac.numerator}/{frac.denominator}"
                if e == 0:
                    term = head if head not in ("", "-") else f"{head}1"
                elif e == 1:
                    term = f"{head}*{var}" if head not in ("", "-") \
                        else f"{head}{var}"
                else:
                    term = f"{head}*{var}^{e}" if head not in ("", "-") \
                        else f"{head}{var}^{e}"
                parts.append(term)
            body = parts[0]
            for p in parts[1:]:
                body += f"-{p[1:]}" if p.startswith("-") else f"+{p}"
        if self.prec is not None:
            body += f" + O({var}^{self.prec})"
        return body
