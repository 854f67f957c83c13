"""The chart x - t^n - t^k*y = 0 and its uniformizer-change laws.

The fiber coordinate y stands for dx/x^r with r = k/n.  Replacing the
uniformizer t by g(t)*t (g a unit series) rescales y by g(0)^(n-k) and
the leading coefficients transported to the fiber by g(0)^(k-n); only
the constant term of g enters.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadIndices, ZeroUnit
from .exactalg import AlgElem
from .series import LaurentSeries


class DilatedChart:
    __slots__ = ("n", "k")

    def __init__(self, n, k):
        if not (1 <= n < k):
            raise BadIndices(f"need k > n >= 1, got n={n}, k={k}")
        self.n = n
        self.k = k

    @property
    def r(self):
        return Fraction(self.k, self.n)

    def relation(self, var="t"):
        """The chart equation as a string in x, t and y."""
        return f"x - {var}^{self.n} - {var}^{self.k}*y"

    def render(self):
        r = self.r
        rs = str(r) if r.denominator == 1 else f"({r})"
        return f"{self.relation()} = 0 ; y = dx/x^{rs}"

    def __eq__(self, other):
        if not isinstance(other, DilatedChart):
            return NotImplemented
        return (self.n, self.k) == (other.n, other.k)

    def __repr__(self):
        return f"DilatedChart(n={self.n}, k={self.k})"


def dilated_chart(n, k):
    return DilatedChart(n, k)


def _unit_power(g0, e):
    """g(0)^e for a uniformizer-change unit g; full series are accepted
    but only g(0) matters."""
    if isinstance(g0, LaurentSeries):
        if g0.coeffs and min(g0.coeffs) < 0:
            raise ZeroUnit("uniformizer change must be a unit series")
        g0 = g0.coeff(0)
    if not isinstance(g0, AlgElem):
        g0 = Fraction(g0)
    if g0 == 0:
        raise ZeroUnit("leading unit must be nonzero")
    return g0 ** e


def coordinate_scale(g0, n, k):
    """Factor relating fiber coordinates: y' = g(0)^(n-k) * y."""
    return _unit_power(g0, n - k)


def transport_coefficient(c, g0, n, k):
    """Transported leading coefficient: c' = g(0)^(k-n) * c."""
    return c * _unit_power(g0, k - n)
