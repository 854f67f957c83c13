"""The refined divisor attached to a decomposition at a slope r > 1.

For r = k/n > 1 the output is a divisor on the affine line over the
base field K, in the dual fiber coordinate y: the origin receives the
squared ranks of all components of x-degree < r-1 (counted
geometrically, regular part included), and each component of x-degree
exactly r-1 contributes the leading coefficients c of its orbit, moved
to the points (1-r)*c: the irreducible factors over K of one polynomial
(``bracket_values``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (DegreeMismatch, InternalError, RNotAboveOne,
                     Unsupported)
from .exactalg import UniPoly, minimal_poly, poly_factor, spread_factors
from .puiseux import c_r, deg_x
from .turrittin import LTDecomposition, lt_decompose


class DiracDivisor:
    """Finite multiset of closed points of the affine line over K, each
    its monic irreducible polynomial in the dual coordinate y, mapped to
    its multiplicity; empty = zero divisor."""

    __slots__ = ("field", "entries")

    def __init__(self, field, entries=()):
        merged = {}
        for point, mult in (entries.items() if isinstance(entries, dict)
                            else entries):
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult:
                merged[point] = merged.get(point, 0) + mult
        self.field = field
        self.entries = merged

    def is_zero(self):
        return not self.entries

    def sorted_entries(self):
        return sorted(self.entries.items(), key=lambda pm: pm[0].key())

    def total_degree(self):
        """Geometric mass: sum of multiplicity times point degree."""
        return sum(m * p.degree() for p, m in self.entries.items())

    def serialize(self):
        return [{"minpoly": p.render(), "degree": p.degree(),
                 "multiplicity": m} for p, m in self.sorted_entries()]

    def __eq__(self, other):
        if not isinstance(other, DiracDivisor):
            return NotImplemented
        return self.serialize() == other.serialize()

    def render(self):
        if self.is_zero():
            return "0"
        return " + ".join(f"{m}*({p.render()})"
                          for p, m in self.sorted_entries())

    def __repr__(self):
        return f"DiracDivisor({self.render()})"


# -- component selection ---------------------------------------------


def omega_at(dec, s):
    """Components of x-degree exactly s (never the regular one)."""
    s = Fraction(s)
    if s <= 0:
        raise ValueError("degree threshold must be positive")
    return [c for c in dec.components if deg_x(c.form) == s]


def omega_below(dec, s):
    """Components of x-degree < s, plus the regular component."""
    s = Fraction(s)
    if s <= 0:
        raise ValueError("degree threshold must be positive")
    out = []
    for c in dec.components:
        d = deg_x(c.form)
        if d is None or d < s:
            out.append(c)
    return out


def bracket_values(comp, r, field):
    """The closed points over ``field`` of the leading coefficients of the
    orbit moved by c -> (1-r)*c, as (monic irreducible factor, weight of
    each of its roots) pairs.

    With r - 1 = j/m in the form's t, the orbit moves c = c_{r-1} by
    coefficient conjugation and by zeta^(-j), zeta^m = 1, which runs over
    the e-th roots of unity, e = m/gcd(m, j).  So the moved values are
    the roots of mu(Y^e), mu the minimal polynomial of ((1-r)*c)^e over
    ``field``, and each of them is reached by orbit_size/(e*deg mu) forms.
    """
    r = Fraction(r)
    form = comp.form
    if deg_x(form) != r - 1:
        raise DegreeMismatch(
            f"component has x-degree {deg_x(form)}, expected {r - 1}")
    e = form.m // gcd(form.m, max(form.coeffs))
    value = c_r(form, r - 1) * (1 - r)
    if value.is_zero():
        raise InternalError("vanishing leading coefficient")
    mu = minimal_poly(value ** e, field)
    weight, rest = divmod(comp.orbit_size, e * mu.degree())
    if rest:
        raise InternalError("orbit size is not a multiple of the value count")
    return [(fac, weight) for fac in spread_factors(mu, e)]


# -- assembly --------------------------------------------


def as_invariant(dec, r):
    """The divisor of the decomposition at slope r (requires r > 1)."""
    r = Fraction(r)
    if r <= 1:
        raise RNotAboveOne(f"formula requires r > 1, got {r}")
    field = dec.base_field
    entries = []
    origin_mass = sum(c.orbit_size * c.rank ** 2
                      for c in omega_below(dec, r - 1))
    if origin_mass:
        entries.append((UniPoly(field, [1, 0]), origin_mass))
    for comp in omega_at(dec, r - 1):
        for fac, weight in bracket_values(comp, r, field):
            entries.append((fac, weight * comp.rank ** 2))
    return DiracDivisor(field, entries)


def as_invariant_nk(dec, n, k):
    """The divisor for the pair (n, k); only r = k/n matters when
    k > n.  For k <= n the divisor vanishes when the decomposition has
    no regular part; with a regular part nothing is asserted."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if k > n:
        return as_invariant(dec, Fraction(k, n))
    if dec.regular_component() is None:
        return DiracDivisor(dec.base_field)
    raise Unsupported(
        "k <= n with a regular part present: no value is defined")


# -- base change -----------------------------------------------------


def base_change(obj, ext):
    """Extension of scalars to ``ext``, any field whose tower contains the
    base field; a decomposition is recomputed over ``ext`` from the
    operator it keeps."""
    if isinstance(obj, DiracDivisor):
        return _divisor_base_change(obj, ext)
    if isinstance(obj, LTDecomposition):
        return lt_decompose(obj.operator.map_to(ext))
    raise TypeError(f"cannot base-change {type(obj).__name__}")


def _divisor_base_change(div, ext):
    entries = []
    for point, mult in div.entries.items():
        for fac, e in poly_factor(point.map_to(ext)):
            if e != 1:
                raise InternalError(
                    "repeated factor of an irreducible polynomial")
            entries.append((fac, mult))
    return DiracDivisor(ext, entries)
