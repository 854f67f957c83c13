"""Shared worked examples used across the test suite.

Two catalogs: operators (exact recursion inputs with hand-checked slope
and divisor data) and modules built from rank-one pieces (round-trip
inputs for the decomposition), plus ``subst_zeta`` and ``descend``,
which list an orbit's values explicitly and give the divisor that
``bracket_values`` is checked against, ``compose_scaled`` and
``uniformizer_change``, which state the uniformizer scaling law on
closed points and on whole divisors, ``symbol_divisor``, Laurent's
symbol read off the Newton polygon alone, and the CLI requests behind
``tests/golden/``.
"""

import pathlib
from fractions import Fraction

from ltdirac import (DiffOperator, DiracDivisor, ExpForm, FieldHandle,
                     LaurentSeries, UniPoly, as_invariant, coordinate_scale,
                     direct_sum, exp_module, lt_decompose, minimal_poly,
                     newton_polygon, parse_operator, poly_factor,
                     regular_module)

QQ = FieldHandle.rationals()

GOLDEN = pathlib.Path(__file__).parent / "golden"

# file under GOLDEN -> the CLI arguments whose stdout it holds
GOLDEN_JOBS = [
    ("invariant_pole_r2.json",
     ["--op", "x^2*D - 1", "--mode", "invariant", "--r", "2"]),
    ("invariant_ramified_n2k3.json",
     ["--op", "x^3*D^2 - 1", "--mode", "invariant", "--n", "2", "--k", "3"]),
    ("invariant_regular_r2.json",
     ["--op", "x*D - 5", "--mode", "invariant", "--r", "2"]),
    ("invariant_zero_r2.json",
     ["--op", "x^3*D - 2", "--mode", "invariant", "--r", "2"]),
    ("decompose_mixed.json",
     ["--op", "x^3*D^2 - x*D + x^2*D - 1 + 5*x", "--mode", "decompose"]),
    ("slopes_ramified.json",
     ["--op", "x^3*D^2 - 1", "--mode", "slopes"]),
    ("invariant_ramified_text.txt",
     ["--op", "x^3*D^2 - 1", "--mode", "invariant", "--r", "3/2",
      "--format", "text"]),
    # irrational coefficients: the tower generator and its "w" fallback
    ("decompose_sqrt2.json",
     ["--op", "x^4*D^2 + x^3*D - 2", "--field", "adjoin: z^2-2",
      "--mode", "decompose"]),
    ("invariant_tower_text.txt",
     ["--op", "x^3*D^2 - 2", "--field", "adjoin: z^2-2; adjoin: w^2-3",
      "--mode", "invariant", "--r", "3/2", "--format", "text"]),
]


def rational_form(coeffs, m=1):
    """ExpForm over the rationals from {j: rational}."""
    return ExpForm(QQ, m, {j: Fraction(c) for j, c in coeffs.items()})


def orbit_key(m, coeffs):
    """A form's key up to t -> -t, the zeta-action over Q for m <= 2;
    ``coeffs`` maps j to the rational coefficient of t^-j."""
    items = tuple(sorted(coeffs.items()))
    flipped = tuple((j, -c if j % 2 else c) for j, c in items)
    return (m, min(items, flipped) if m == 2 else items)


def rational_orbit_key(form):
    """``orbit_key`` of a form whose coefficients are rational."""
    return orbit_key(form.m, {j: c.as_fraction()
                              for j, c in form.coeffs.items()})


# name -> (expression, slopes multiset, irregularity)
OPERATOR_CATALOG = [
    ("regular", "x*D - 5", [(Fraction(0), 1)], Fraction(0)),
    ("pole-one", "x^2*D - 1", [(Fraction(1), 1)], Fraction(1)),
    ("pole-two", "x^3*D - 2", [(Fraction(2), 1)], Fraction(2)),
    ("ramified", "x^3*D^2 - 1", [(Fraction(1, 2), 2)], Fraction(1)),
    ("ramified-irrational", "x^3*D^2 - 2", [(Fraction(1, 2), 2)],
     Fraction(1)),
    ("quadratic-orbit", "x^4*D^2 + 2*x^3*D + 1", [(Fraction(1), 2)],
     Fraction(2)),
    ("mixed", "x^3*D^2 - x*D + x^2*D - 1 + 5*x",
     [(Fraction(0), 1), (Fraction(1), 1)], Fraction(1)),
]


def catalog_operator(name):
    for entry in OPERATOR_CATALOG:
        if entry[0] == name:
            return parse_operator(entry[1])
    raise KeyError(name)


# forms named in the round-trip requirement plus companions
FORM_1_OVER_X = rational_form({1: 1})
FORM_MINUS_1_OVER_X = rational_form({1: -1})
FORM_3_OVER_X2 = rational_form({2: 3})
FORM_1_OVER_T = rational_form({1: 1}, m=2)
FORM_2_OVER_T3 = rational_form({3: 2}, m=2)
FORM_HALF_OVER_X = rational_form({1: Fraction(1, 2)})
FORM_MIXED_T = rational_form({3: 1, 1: 2}, m=2)


# name -> list of (form, rank); the module is the direct sum of the
# rank-one pieces tensored with trivial regular parts
MODULE_CATALOG = [
    ("regular-1", [(rational_form({}), 1)]),
    ("regular-2", [(rational_form({}), 2)]),
    ("one-over-x", [(FORM_1_OVER_X, 1)]),
    ("minus-one-over-x", [(FORM_MINUS_1_OVER_X, 1)]),
    ("three-over-x2", [(FORM_3_OVER_X2, 1)]),
    ("one-over-t", [(FORM_1_OVER_T, 1)]),
    ("two-over-t3", [(FORM_2_OVER_T3, 1)]),
    ("one-over-x-rank2", [(FORM_1_OVER_X, 2)]),
    ("sum-polar-regular", [(FORM_1_OVER_X, 1), (rational_form({}), 1)]),
    ("sum-two-slopes", [(FORM_3_OVER_X2, 1), (FORM_MINUS_1_OVER_X, 1)]),
    ("sum-ramified-regular", [(FORM_2_OVER_T3, 1), (rational_form({}), 1)]),
    ("sum-ramified-plain", [(FORM_1_OVER_T, 1), (FORM_HALF_OVER_X, 1)]),
]


def build_module(pieces):
    mats = []
    for form, rank in pieces:
        if form.is_zero():
            mats.append(regular_module(QQ, rank))
        else:
            mats.append(exp_module(form, rank, QQ))
    return direct_sum(*mats) if len(mats) > 1 else mats[0]


def catalog_module(name):
    for entry_name, pieces in MODULE_CATALOG:
        if entry_name == name:
            return build_module(pieces)
    raise KeyError(name)


def operator_from_dicts(field, coeff_dicts):
    return DiffOperator(field,
                        [LaurentSeries(field, c) for c in coeff_dicts])


def descend(geom, field):
    """Descend a Galois-stable weighted multiset of algebraic values to
    a divisor of closed points over ``field``: each value counts with
    its weight spread over the roots of its minimal polynomial."""
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
        if weight % mu.degree():
            raise ValueError(f"total weight {weight} not divisible by "
                             f"degree {mu.degree()} of {mu.render('y')}")
        entries.append((mu, weight // mu.degree()))
    return DiracDivisor(field, entries)


def subst_zeta(form, zeta):
    """The form after t -> zeta*t, for zeta with zeta^m = 1: the action
    of the roots of unity that a component's orbit_size counts."""
    field = zeta.field
    if zeta ** form.m != field.one:
        raise ValueError("zeta^m must equal 1")
    return ExpForm(field, form.m, {j: field.embed(c) * zeta ** -j
                                   for j, c in form.coeffs.items()})


def compose_scaled(poly, scale):
    """poly(scale * y) for a rational or field element scale."""
    field, d = poly.field, poly.degree()
    s = field.element(scale)
    return UniPoly(field, [c * s ** (d - i) for i, c in enumerate(poly.coeffs)])


def scale_points(div, scale):
    """The divisor with every point y = v moved to y = scale*v: each
    minimal polynomial mu becomes monic mu(y/scale)."""
    inv = 1 / Fraction(scale)
    return DiracDivisor(div.field, [
        (compose_scaled(p, inv).monic(), m)
        for p, m in div.entries.items()])


def uniformizer_change(op, r, g0):
    """(divisor at r of op, divisor at r of op with x replaced by
    g0^n*x, s) for r = k/n in lowest terms and s = coordinate_scale(g0,
    n, k).  The coefficient of x^e*D^i is multiplied by g0^(n(e-i)); by
    chart independence the second divisor is the first with every point
    scaled by s."""
    r = Fraction(r)
    n, k = r.denominator, r.numerator
    lam = Fraction(g0) ** n
    moved = DiffOperator(op.field, [
        LaurentSeries(op.field, {e: c * lam ** (e - i)
                                 for e, c in a.coeffs.items()})
        for i, a in enumerate(op.coeffs)])
    return (as_invariant(lt_decompose(op), r),
            as_invariant(lt_decompose(moved), r), coordinate_scale(g0, n, k))


def symbol_divisor(op, r):
    """Laurent's symbol of ``op`` at slope r > 1 as a divisor, from the
    Newton polygon alone: the origin carries the length of the polygon
    below slope r - 1 (the regular part included), and the closed points
    are the irreducible factors over the field of e(-y), e the edge
    polynomial of slope r - 1 (none when r - 1 is not a slope), each
    with its multiplicity in e(-y).  ``as_invariant`` refines it: a
    point of multiplicity m carries between m and m^2, exactly 1 when
    m = 1, and the origin between its mass N and N^2."""
    s = Fraction(r) - 1
    entries = []
    below = 0
    for slope, length, edge in newton_polygon(op).edges:
        if slope < s:
            below += length
        elif slope == s:
            entries += poly_factor(compose_scaled(edge, -1))
    if below:
        entries.append((UniPoly(op.field, [1, 0]), below))
    return DiracDivisor(op.field, entries)
