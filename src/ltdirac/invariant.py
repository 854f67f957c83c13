"""The refined divisor attached to a decomposition at a slope r > 1.

For r = k/n > 1 the output is a divisor on the affine line over the
base field K, in the dual fiber coordinate y: the origin receives the
squared ranks of all components of x-degree < r-1 (counted
geometrically, regular part included), and each component of x-degree
exactly r-1 contributes its leading coefficients c, moved to the points
(1-r)*c and descended to closed points over K.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (DegreeMismatch, InternalError, NonIntegralDescent,
                     RNotAboveOne, Unsupported)
from .exactalg import UniPoly, minimal_poly, poly_factor
from .puiseux import ExpForm, c_r, deg_x
from .turrittin import LTComponent, LTDecomposition, _merge_orbits


class ClosedPoint:
    """A closed point of the affine line over K: a monic irreducible
    polynomial in the dual coordinate y."""

    __slots__ = ("minpoly",)

    def __init__(self, minpoly):
        self.minpoly = minpoly

    @staticmethod
    def origin(field):
        return ClosedPoint(UniPoly(field, [1, 0]))

    def degree(self):
        return self.minpoly.degree()

    def is_origin(self):
        return self.minpoly.degree() == 1 and self.minpoly.coeffs[1].is_zero()

    def key(self):
        return (self.degree(), self.minpoly.key())

    def __eq__(self, other):
        if not isinstance(other, ClosedPoint):
            return NotImplemented
        return self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def render(self):
        return self.minpoly.render("y")

    def __repr__(self):
        return f"ClosedPoint({self.render()})"


class DiracDivisor:
    """Finite multiset of closed points; empty = zero divisor."""

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


class RIndex:
    """A slope r > 0 stored as the reduced fraction k/n."""

    __slots__ = ("n", "k")

    def __init__(self, n, k):
        if n < 1 or k < 1:
            raise ValueError("n and k must be positive")
        g = gcd(n, k)
        self.n = n // g
        self.k = k // g

    @staticmethod
    def from_fraction(r):
        r = Fraction(r)
        if r <= 0:
            raise ValueError("r must be positive")
        return RIndex(r.denominator, r.numerator)

    @property
    def value(self):
        return Fraction(self.k, self.n)

    def __eq__(self, other):
        if isinstance(other, RIndex):
            return (self.n, self.k) == (other.n, other.k)
        return self.value == other

    def __repr__(self):
        return f"RIndex({self.k}/{self.n})"


# -- component selection ---------------------------------------------


def omega_at(dec, s):
    """Components of x-degree exactly s (never the regular one)."""
    s = Fraction(s)
    if s <= 0:
        raise ValueError("degree threshold must be positive")
    return [c for c in dec.components if deg_x(c.form).value == s]


def omega_below(dec, s):
    """Components of x-degree < s, plus the regular component."""
    s = Fraction(s)
    if s <= 0:
        raise ValueError("degree threshold must be positive")
    out = []
    for c in dec.components:
        d = deg_x(c.form).value
        if d is None or d < s:
            out.append(c)
    return out


def bracket_values(comp, r):
    """Leading coefficients of the orbit, moved by c -> (1-r)*c.

    Returned as (value, weight) pairs: each stored leaf contributes its
    own value once, with weight equal to the number of coefficient
    conjugates it stands for.  Total weight = orbit_size; the conjugates
    of a value share its minimal polynomial, which is all the descent
    step consumes.
    """
    r = Fraction(r)
    if deg_x(comp.form).value != r - 1:
        raise DegreeMismatch(
            f"component has x-degree {deg_x(comp.form).value}, "
            f"expected {r - 1}")
    scale = 1 - r
    out = []
    for form, sigma in comp.leaves:
        c = c_r(form, r - 1)
        value = c * c.field.element(scale)
        if value.is_zero():
            raise InternalError("vanishing leading coefficient")
        out.append((value, sigma))
    return out


# -- descent and assembly --------------------------------------------


def descend(geom, field):
    """Descend a Galois-stable weighted multiset of algebraic values to
    a divisor of closed points over ``field``."""
    groups = {}
    for value, weight in geom:
        mu = minimal_poly(value, field)
        key = mu.key()
        if key in groups:
            groups[key][1] += weight
        else:
            groups[key] = [mu, weight]
    entries = []
    for mu, weight in groups.values():
        deg = mu.degree()
        if weight % deg:
            raise NonIntegralDescent(
                f"total weight {weight} not divisible by degree {deg} "
                f"of {mu.render('y')}")
        entries.append((ClosedPoint(mu), weight // deg))
    return DiracDivisor(field, entries)


def as_invariant(dec, r):
    """The divisor of the decomposition at slope r (requires r > 1)."""
    r = Fraction(r)
    if r <= 1:
        raise RNotAboveOne(f"formula requires r > 1, got {r}")
    field = dec.base_field
    geom = []
    origin_mass = sum(c.orbit_size * c.rank ** 2
                      for c in omega_below(dec, r - 1))
    if origin_mass:
        geom.append((field.zero, origin_mass))
    for comp in omega_at(dec, r - 1):
        for value, weight in bracket_values(comp, r):
            geom.append((value, weight * comp.rank ** 2))
    return descend(geom, field)


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
    if isinstance(obj, DiracDivisor):
        return _divisor_base_change(obj, ext)
    if isinstance(obj, LTDecomposition):
        return _decomposition_base_change(obj, ext)
    raise TypeError(f"cannot base-change {type(obj).__name__}")


def _divisor_base_change(div, ext):
    entries = []
    for point, mult in div.entries.items():
        for fac, e in poly_factor(point.minpoly.map_to(ext)):
            if e != 1:
                raise InternalError(
                    "repeated factor of an irreducible polynomial")
            entries.append((ClosedPoint(fac), mult))
    return DiracDivisor(ext, entries)


def _decomposition_base_change(dec, ext):
    if not dec.base_field.is_rationals():
        raise Unsupported(
            "base change of decompositions starts from the rationals")
    leaves = []
    for comp in dec.components:
        for form, sigma in comp.leaves:
            for new_form, degree in _leaf_base_change(form, sigma, ext):
                leaves.append((new_form, comp.rank, degree))
    components = _merge_orbits(leaves, ext)
    return LTDecomposition(ext, components)


def _leaf_base_change(form, sigma, ext):
    """Split one leaf along the factorization of its coefficient tower
    over the extension field; yields (form over a tower above ext,
    relative degree)."""
    tower = form.field
    if sigma == 1 or tower.absolute_degree() == 1:
        yield form.map_to(ext) if tower.absolute_degree() == 1 else form, sigma
        return
    defining = UniPoly(ext, list(tower.abs_mod))
    total = 0
    for idx, (fac, _) in enumerate(poly_factor(defining)):
        if fac.degree() == 1:
            target, root = ext, -fac.coeffs[-1]
        else:
            target = ext.extend(fac, f"b{idx}", _trusted=True)
            root = target.gen()
        coeffs = {j: c.substitute(root) for j, c in form.coeffs.items()}
        yield ExpForm(target, form.m, coeffs), fac.degree()
        total += fac.degree()
    if total != sigma:
        raise InternalError(
            "factor degrees do not sum to the leaf degree")
