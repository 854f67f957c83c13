"""Polar exponential forms in a ramified variable t with t^m = x.

An ExpForm is a finite sum of terms c_j * t^(-j) with j >= 1 and c_j a
nonzero element of a number field.  The representation is normalized so
that the ramification index m is minimal: if every stored j shares a
common factor with m it is divided out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exactalg import AlgElem, minimal_poly, render_terms


class ExpForm:
    """Sum of c_j * t^(-j) over a field, with ramification index m."""

    __slots__ = ("field", "m", "coeffs", "_key")

    def __init__(self, field, m, coeffs):
        if m < 1:
            raise ValueError("ramification index must be positive")
        clean = {}
        for j, c in coeffs.items():
            if j < 1:
                raise ValueError("only strictly polar terms are allowed")
            if not isinstance(c, AlgElem):
                c = field.element(c)
            if not c.is_zero():
                clean[int(j)] = c
        m = int(m)
        if clean:
            g = m
            for j in clean:
                g = gcd(g, j)
            if g > 1:
                clean = {j // g: c for j, c in clean.items()}
                m //= g
        else:
            m = 1
        self.field = field
        self.m = m
        self.coeffs = clean
        self._key = None

    @staticmethod
    def zero(field):
        return ExpForm(field, 1, {})

    def is_zero(self):
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs, reverse=True)

    def scaled_support(self, m):
        """Coefficient map in the variable u with u^m = x (m a multiple
        of the canonical index); the constructor would re-normalize, so
        this returns the raw dict."""
        if m % self.m:
            raise ValueError("new ramification index must be a multiple")
        k = m // self.m
        return {j * k: c for j, c in self.coeffs.items()}

    def map_to(self, field):
        return ExpForm(field, self.m,
                       {j: field.embed(c) for j, c in self.coeffs.items()})

    def __neg__(self):
        return ExpForm(self.field, self.m,
                       {j: -c for j, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, ExpForm):
            return NotImplemented
        if self.m != other.m or set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[j] == other.coeffs[j] for j in self.coeffs)

    def __hash__(self):
        return hash((self.m, tuple(sorted(self.coeffs))))

    def key(self):
        """Deterministic ordering key (the global term ordering); computed
        once, since it needs a minimal polynomial per term."""
        if self._key is None:
            terms = []
            for j in self.support():
                c = self.coeffs[j]
                mu = minimal_poly(c)
                terms.append((j, mu.degree(),
                              tuple(x.as_fraction() for x in mu.coeffs),
                              c.key()))
            self._key = (self.m, tuple(terms))
        return self._key

    def __repr__(self):
        return f"ExpForm({self.render()})"

    def render(self):
        var = "t" if self.m > 1 else "x"
        body = render_terms([(self.coeffs[j], -j) for j in self.support()],
                            var, " ")
        return f"{body} ; m={self.m}"


def deg_x(form):
    """Largest j/m over the support; None for the zero form."""
    if form.is_zero():
        return None
    return Fraction(max(form.coeffs), form.m)


def c_r(form, r):
    """Coefficient of the term of x-degree r (zero when absent)."""
    r = Fraction(r)
    j = r * form.m
    if j.denominator != 1:
        return form.field.zero
    return form.coeffs.get(int(j), form.field.zero)
