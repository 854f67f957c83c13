import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.polyclasses import ANP

from ltdirac import as_invariant, exactalg, lt_decompose, parse_operator
from ltdirac.errors import (DegreeCapExceeded, InternalError, NotASubfield,
                            ZeroPolynomial)
from ltdirac.exactalg import FieldHandle, UniPoly, minimal_poly, poly_factor

Q = FieldHandle.rationals()


def quadratic_field(c, name):
    """Q(sqrt(c)) via y^2 - c."""
    return Q.extend(UniPoly(Q, [1, 0, -c]), name)


def gauss_field():
    return Q.extend(UniPoly(Q, [1, 0, 1]), "i")


class TestPolyFactor:
    def test_irreducible_over_rationals(self):
        f = UniPoly(Q, [1, 0, 1])
        assert poly_factor(f) == [(f, 1)]

    def test_splits_over_gauss_field(self):
        F = gauss_field()
        i = F.gen()
        f = UniPoly(F, [1, 0, 1])
        factors = poly_factor(f)
        assert factors == [(UniPoly(F, [F.one, -i]), 1),
                           (UniPoly(F, [F.one, i]), 1)]

    def test_two_quadratics_over_sqrt2(self):
        F = quadratic_field(2, "s")
        s = F.gen()
        f = UniPoly(F, [1, 0, -10, 0, 1])
        factors = poly_factor(f)
        expected = sorted([UniPoly(F, [F.one, -2 * s, -F.one]),
                           UniPoly(F, [F.one, 2 * s, -F.one])],
                          key=lambda p: p.key())
        assert [fac for fac, _ in factors] == expected
        assert all(mult == 1 for _, mult in factors)

    def test_product_reconstruction(self):
        rng = random.Random(7)
        for _ in range(25):
            coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(2, 5))]
            if all(c == 0 for c in coeffs):
                coeffs[0] = 1
            f = UniPoly(Q, coeffs)
            if f.degree() < 1:
                continue
            product = UniPoly(Q, [f.leading()])
            for fac, mult in poly_factor(f):
                product = product * fac ** mult
            assert product == f

    def test_multiplicity(self):
        f = UniPoly(Q, [1, -2, 1])  # (y-1)^2
        assert poly_factor(f) == [(UniPoly(Q, [1, -1]), 2)]

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            poly_factor(UniPoly(Q, []))


class TestMinimalPoly:
    def test_rational(self):
        assert minimal_poly(Q.element(3)) == UniPoly(Q, [1, -3])

    def test_gauss_generator(self):
        F = gauss_field()
        assert minimal_poly(F.gen()) == UniPoly(Q, [1, 0, 1])

    def test_sum_of_square_roots(self):
        F = quadratic_field(2, "s").extend(
            UniPoly(quadratic_field(2, "s"), [1, 0, -3]), "u")
        a = F.embed(F.base.gen()) + F.gen()
        assert minimal_poly(a) == UniPoly(Q, [1, 0, -10, 0, 1])

    def test_divides_any_annihilator(self):
        F = gauss_field()
        i = F.gen()
        mu = minimal_poly(i)
        # (y^2+1)(y-1) annihilates i; the minimal polynomial divides it
        big = UniPoly(Q, [1, 0, 1]) * UniPoly(Q, [1, -1])
        factors = dict((fac.key(), mult) for fac, mult in poly_factor(big))
        assert factors.get(mu.key(), 0) >= 1

    def test_relative_minpoly(self):
        base = quadratic_field(2, "s")
        F = base.extend(UniPoly(base, [1, 0, -3]), "u")
        rel = minimal_poly(F.gen(), over=base)
        assert rel.degree() == 2
        assert rel.evaluate(F.gen()).is_zero()

    def test_not_a_subfield(self):
        F = gauss_field()
        other = quadratic_field(2, "s")
        with pytest.raises(NotASubfield):
            minimal_poly(F.gen(), over=other)

    def test_coprime_degree_skips_factoring(self, monkeypatch):
        # cube roots of 2 over Q(sqrt 2), rationals over Q(cbrt 2): the
        # degree over Q is prime to [K:Q], so mu_Q stays irreducible over K
        k2 = quadratic_field(2, "s")
        F = k2.extend(UniPoly(k2, [1, 0, 0, -2]), "c")
        c3 = Q.extend(UniPoly(Q, [1, 0, 0, -2]), "c")
        cases = [(F.gen(), k2), (F.gen() * F.gen() + 1, k2),
                 (c3.element(Fraction(5, 3)), c3), (F.element(-7), k2)]
        # the factoring path: the factor of mu_Q over K that kills a
        expected = []
        for a, over in cases:
            lifted = minimal_poly(a).map_to(over)
            expected.append(next(fac for fac, _ in poly_factor(lifted)
                                 if fac.evaluate(a).is_zero()))

        def no_factoring(f):
            raise AssertionError("poly_factor called")

        monkeypatch.setattr(exactalg, "poly_factor", no_factoring)
        for (a, over), want in zip(cases, expected):
            assert minimal_poly(a, over=over) == want
        assert minimal_poly(F.gen(), over=k2).degree() == 3
        # sqrt 2 over Q(sqrt 2): degrees 2 and 2 share a factor
        with pytest.raises(AssertionError):
            minimal_poly(F.embed(k2.gen()), over=k2)


class TestFieldArithmetic:
    @pytest.mark.parametrize("build", [gauss_field,
                                       lambda: quadratic_field(2, "s")])
    def test_mul_inverse_randomized(self, build):
        F = build()
        rng = random.Random(11)
        gen = F.gen()
        for _ in range(1000):
            a = F.element(rng.randint(-9, 9)) + gen * rng.randint(-9, 9)
            b = F.element(rng.randint(-9, 9)) + gen * rng.randint(-9, 9)
            if a.is_zero():
                continue
            assert (a * b) * a.inverse() == b

    def test_degree_cap(self):
        # Q(2^(1/9)) has degree 9; y^2 - z would make it 18 > 16
        F = Q.extend(UniPoly(Q, [1] + [0] * 8 + [-2]), "z")
        with pytest.raises(DegreeCapExceeded):
            F.extend(UniPoly(F, [F.one, F.zero, -F.gen()]), "y")

    def test_irreducibility_checked(self):
        k2 = quadratic_field(2, "s")
        cases = [UniPoly(Q, [1, 0, -4]),  # y^2-4 reducible
                 UniPoly(Q, [1, -2, 1]),  # (y-1)^2
                 UniPoly(k2, [1, 0, -2]),  # (y-s)(y+s)
                 UniPoly(k2, [1, 0, -10, 0, 1]),  # two quadratics
                 UniPoly(k2, [k2.one, -k2.gen()]) ** 2,
                 UniPoly(k2, [1, 0, -3]) ** 2]
        for f in cases:  # a ValueError, not an InternalError
            with pytest.raises(ValueError):
                f.field.extend(f, "w")

    def test_internal_checks_raise_typed_errors(self, monkeypatch):
        # a hand-built field whose modulus y^2-4 is reducible: 2+z has
        # no inverse
        bogus = FieldHandle(Q, None, "w", (1, 0, -4), ((1, 0), 1),
                            ((0, 0), 1))
        with pytest.raises(InternalError):
            (bogus.gen() + 2).inverse()
        # a vector outside the span of the vectors held
        echelon = exactalg._Echelon(2)
        assert echelon.feed([0, 1], 1) is None
        with pytest.raises(InternalError):
            echelon.express([1, 0], 1)
        # Q(sqrt 2)(sqrt 3) rejects the shift 0; with no other shift left
        # the Trager step fails typed
        monkeypatch.setattr(exactalg, "_shift_candidates",
                            lambda degree: iter([0]))
        k2 = quadratic_field(2, "s")
        with pytest.raises(InternalError):
            k2.extend(UniPoly(k2, [1, 0, -3]), "u")


# -- differential test against sympy's ANP arithmetic ------------------


def _tower8():
    k2 = Q.extend(UniPoly(Q, [1, 0, -2]), "s")
    k4 = k2.extend(UniPoly(k2, [1, 0, -3]), "u")
    return k4.extend(UniPoly(k4, [1, 0, -5]), "v")


DIFF_FIELDS = {
    "Q": Q,
    "sqrt2": quadratic_field(2, "s"),
    "cbrt2": Q.extend(UniPoly(Q, [1, 0, 0, -2]), "c"),
    "tower8": _tower8(),
}

_ratios = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def _anp_key(rep, degree):
    """Sort key of an ANP as the ``AlgElem.key`` of the sympy-backed
    representation computed it: descending coefficients, left-padded."""
    lst = rep.to_list()
    pad = [QQ(0)] * (degree - len(lst))
    return tuple(Fraction(int(c.numerator), int(c.denominator))
                 for c in pad + lst)


@st.composite
def _pairs(draw, field):
    """An element of ``field`` and the same element as a sympy ANP."""
    n = field.abs_degree
    coords = draw(st.lists(_ratios, min_size=n, max_size=n))
    z = field.abs_gen()
    elem = field.zero
    for c in coords:
        elem = elem * z + c
    mod = [QQ(c) for c in field.abs_mod]
    anp = ANP([QQ(c.numerator, c.denominator) for c in coords], mod, QQ)
    return elem, anp


def _agrees(elem, anp):
    return elem.key() == _anp_key(anp, elem.field.abs_degree)


@pytest.mark.parametrize("name", sorted(DIFF_FIELDS))
class TestAgainstSympyANP:
    @settings(max_examples=40)
    @given(data=st.data())
    def test_ring_operations(self, name, data):
        field = DIFF_FIELDS[name]
        (a, pa), (b, pb) = data.draw(_pairs(field)), data.draw(_pairs(field))
        assert _agrees(a, pa) and _agrees(b, pb)
        assert _agrees(a + b, pa + pb)
        assert _agrees(a - b, pa - pb)
        assert _agrees(-a, -pa)
        assert _agrees(a * b, pa * pb)
        k = data.draw(st.integers(0, 5))
        assert _agrees(a ** k, pa ** k)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_division_and_inverse(self, name, data):
        field = DIFF_FIELDS[name]
        (a, pa), (b, pb) = data.draw(_pairs(field)), data.draw(_pairs(field))
        assume(not b.is_zero())
        one = ANP([QQ(1)], [QQ(c) for c in field.abs_mod], QQ)
        assert _agrees(b.inverse(), one / pb)
        assert _agrees(a / b, pa / pb)
        assert _agrees(b ** -2, one / (pb * pb))
        assert b * b.inverse() == field.one

    @settings(max_examples=40)
    @given(data=st.data())
    def test_equality_hash_and_order(self, name, data):
        field = DIFF_FIELDS[name]
        (a, pa), (b, pb) = data.draw(_pairs(field)), data.draw(_pairs(field))
        assert (a == b) == (pa == pb)
        # the same value reached along another path is equal, hash too
        c = (a + b) - b
        assert c == a and hash(c) == hash(a)
        if a == b:
            assert hash(a) == hash(b)
        n = field.abs_degree
        assert (a.key() < b.key()) == (_anp_key(pa, n) < _anp_key(pb, n))


# -- factoring over K against sympy's algebraic fields -------------------


FACTOR_FIELDS = {
    "sqrt2": quadratic_field(2, "s"),
    "i": gauss_field(),
    "cbrt2": Q.extend(UniPoly(Q, [1, 0, 0, -2]), "c"),
    "tower8": _tower8(),
}

# rational polynomials that split over each field
SPLITTING = {
    "sqrt2": [[1, 0, -10, 0, 1], [1, 0, -8], [1, 0, -5, 0, 6]],
    "i": [[1, 0, 1], [1, 0, 0, 0, 1], [1, 0, 0, 0, -1]],
    "cbrt2": [[1, 0, 0, -2], [1, 0, 0, -16], [1, 0, 0, 0, 0, 0, -4]],
    "tower8": [[1, 0, -10, 0, 1], [1, 0, -16, 0, 4], [1, 0, -30],
               [1, 0, -7, 0, 10]],
}


def _sympy_factors(f):
    """poly_factor of f by sympy's factoring over QQ.algebraic_field,
    the field given by its absolute modulus and one root of it."""
    field = f.field
    mod = sp.Poly(field.abs_mod, sp.Symbol("z"))
    domain = QQ.algebraic_field(sp.AlgebraicNumber((mod, sp.CRootOf(mod, 0))))
    modq = [QQ(c) for c in field.abs_mod]
    poly = sp.Poly([ANP([QQ(x, c.den) for x in c.num], modq, QQ)
                    for c in f.coeffs], sp.Symbol("y"), domain=domain)
    out = []
    for fac, mult in poly.factor_list()[1]:
        coeffs = []
        for c in fac.monic().rep.to_list():
            elem = field.zero
            for x in (c.to_list() if isinstance(c, ANP) else [c]):
                elem = elem * field.abs_gen() + \
                    Fraction(int(x.numerator), int(x.denominator))
            coeffs.append(elem)
        out.append((UniPoly(field, coeffs), mult))
    return sorted(out, key=lambda fm: fm[0].key())


@st.composite
def _products(draw, name):
    """A rational polynomial that splits over the field, or a product of
    1-3 monic factors of degree <= 3 with multiplicities <= 2.  The
    factors' degrees add up to at most 32 / [K:Q], so the norm that
    Trager's algorithm factors over Q has degree at most 32."""
    field = FACTOR_FIELDS[name]
    if draw(st.booleans()):
        return UniPoly(field, draw(st.sampled_from(SPLITTING[name])))
    budget = 32 // field.abs_degree
    small = st.integers(-3, 3)
    f = UniPoly(field, [1])
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, min(3, budget)))
        budget -= degree
        coeffs = [field.one]
        for _ in range(degree):
            elem = field.zero
            for c in draw(st.lists(small, min_size=field.abs_degree,
                                   max_size=field.abs_degree)):
                elem = elem * field.abs_gen() + c
            coeffs.append(elem)
        f = f * UniPoly(field, coeffs) ** draw(st.integers(1, 2))
        if budget < 1:
            break
    return f


def _sympy_norm(h, s):
    """Res_z(abs_mod(z), h(y - s*z)) by sympy, for h over a field with
    absolute generator z: the norm over Q of h shifted by s*z."""
    y, z = sp.Symbol("y"), sp.Symbol("z")
    d = h.degree()
    shifted = sum(sp.Poly([sp.Rational(x, c.den) for x in c.num], z).as_expr()
                  * (y - s * z) ** (d - i) for i, c in enumerate(h.coeffs))
    return sp.Poly(sp.resultant(sp.Poly(h.field.abs_mod, z).as_expr(),
                                shifted, z), y)


def _assert_certified(factors):
    """The factors are the factorization into irreducibles, given that
    their product is checked apart: they are monic, pairwise distinct
    and sorted by key(), and a factor h of degree > 1 is irreducible
    because at the first shift s = 0, 1, ... at which the norm of
    h(y - s*z) is squarefree, that norm is irreducible over Q (Trager,
    SYMSAC 1976: the factors of a squarefree norm give those of h)."""
    keys = [fac.key() for fac, _ in factors]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for fac, mult in factors:
        assert fac.coeffs[0] == fac.field.one and mult >= 1
        if fac.degree() > 1:
            for s in itertools.count():
                norm = _sympy_norm(fac, s)
                if norm.is_sqf:
                    break
            assert [m for _, m in norm.factor_list()[1]] == [1]


@pytest.mark.parametrize("name", sorted(FACTOR_FIELDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_poly_factor_against_sympy(name, data):
    """Against sympy's factoring over the field, or over the degree-8
    tower, where that takes seconds, against sympy's norms over Q."""
    f = data.draw(_products(name))
    factors = poly_factor(f)
    if name == "tower8":
        _assert_certified(factors)
    else:
        assert factors == _sympy_factors(f)
    product = UniPoly(f.field, [1])
    for fac, mult in factors:
        product = product * fac ** mult
    assert product == f.monic()


@pytest.mark.parametrize("name", sorted(FACTOR_FIELDS))
def test_poly_factor_repeated_splitting_factors(name):
    """A rational polynomial that is not squarefree and whose squarefree
    part splits over the field: each SPLITTING entry squared, times
    y + 1."""
    field = FACTOR_FIELDS[name]
    for coeffs in SPLITTING[name]:
        f = UniPoly(field, coeffs) ** 2 * UniPoly(field, [1, 1])
        factors = poly_factor(f)
        if name == "tower8":
            _assert_certified(factors)
        else:
            assert factors == _sympy_factors(f)
        product = UniPoly(field, [1])
        for fac, mult in factors:
            product = product * fac ** mult
        assert product == f


# -- factoring over Q against sympy's factor_list ------------------------


_X = sp.Symbol("x")


def _sympy_factor_list(poly):
    """The monic factors over Q of a sympy Poly with multiplicities, as
    descending Fractions, sorted."""
    return sorted(([Fraction(int(c.p), int(c.q))
                    for c in fac.monic().all_coeffs()], mult)
                  for fac, mult in poly.factor_list()[1])


def _check_factor_rational(poly):
    coeffs = [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()]
    factors = poly_factor(UniPoly(Q, coeffs))
    assert sorted(([c.as_fraction() for c in fac.coeffs], mult)
                  for fac, mult in factors) == _sympy_factor_list(poly)


_small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def _rational_products(draw):
    """A nonzero rational constant times 1-4 factors of degree <= 8 with
    rational, non-monic coefficients and multiplicities <= 3, of total
    degree 1..24."""
    poly = sp.Poly(draw(_small_fractions.filter(bool)), _X, domain=QQ)
    budget = 24
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, min(8, budget)))
        mult = min(draw(st.integers(1, 3)), budget // degree)
        coeffs = draw(st.lists(_small_fractions, min_size=degree + 1,
                               max_size=degree + 1).filter(lambda c: c[0]))
        poly *= sp.Poly(coeffs, _X, domain=QQ) ** mult
        budget -= degree * mult
        if budget < 1:
            break
    return poly


@settings(max_examples=60, deadline=None)
@given(poly=_rational_products())
def test_factor_rational_against_sympy(poly):
    _check_factor_rational(poly)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_factor_rational_cyclotomic_products(data):
    """Products of cyclotomic polynomials split modulo every prime into
    many more factors than over Q."""
    poly = sp.Poly(1, _X, domain=QQ)
    for n in data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=6)):
        phi = sp.Poly(sp.cyclotomic_poly(n, _X), _X, domain=QQ)
        if poly.degree() + phi.degree() <= 24:
            poly *= phi
    _check_factor_rational(poly)


@pytest.mark.parametrize("coeffs", [
    [1, 0, 0, 0, 1],  # x^4 + 1
    [1, 0, -10, 0, 1],  # Swinnerton-Dyer of sqrt 2, sqrt 3
    [1, 0, -40, 0, 352, 0, -960, 0, 576],  # ... of sqrt 2, sqrt 3, sqrt 5
], ids=["x^4+1", "sd2", "sd3"])
def test_factor_rational_irreducible_splitting_everywhere(coeffs):
    """Irreducible over Q, yet reducible modulo every prime: only the
    recombination of the lifted factors shows it."""
    assert exactalg._factor_rational([Fraction(c) for c in coeffs]) == \
        [[Fraction(c) for c in coeffs]]


@pytest.mark.parametrize("n", range(1, 25))
def test_factor_rational_x_to_the_n_minus_one(n):
    _check_factor_rational(sp.Poly(_X ** n - 1, _X, domain=QQ))


# -- the echelon-of-powers kernel against sympy resultants ---------------


def _tower16():
    k8 = _tower8()
    return k8.extend(UniPoly(k8, [1, 0, -7]), "x")


MINPOLY_FIELDS = dict(DIFF_FIELDS, tower16=_tower16())


def _resultant_minpoly(a):
    """Minimal polynomial over Q as the squarefree part of the norm
    Res_z(g(z), y - a(z)), as descending Fractions.  The norm is computed
    as the characteristic polynomial of multiplication by a(z) modulo
    g(z) on the basis 1, z, ..., z^(n-1)."""
    z, y = sp.symbols("z y")
    n = a.field.abs_degree
    g = sp.Poly(list(a.field.abs_mod), z, domain=QQ)
    elem = sp.Poly([QQ(c, a.den) for c in a.num], z, domain=QQ)
    columns = []  # a(z)*z^k mod g(z), ascending in z
    for k in range(n):
        coeffs = (elem * sp.Poly(z ** k, z, domain=QQ)).rem(g).all_coeffs()
        columns.append(coeffs[::-1] + [QQ(0)] * (n - len(coeffs)))
    matrix = DomainMatrix([list(row) for row in zip(*columns)], (n, n), QQ)
    norm = sp.Poly(matrix.charpoly(), y, domain=QQ)
    sqfree = sp.quo(norm, sp.gcd(norm, norm.diff(y))).monic()
    return [Fraction(int(c.numerator), int(c.denominator))
            for c in sqfree.all_coeffs()]


_big = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                    max_denominator=10 ** 6)


@st.composite
def _minpoly_elements(draw, field):
    """Generic, large, rational and proper-subfield elements of ``field``."""
    kind = draw(st.sampled_from(["generic", "big", "rational", "subfield"]))
    if kind == "rational":
        return field.element(draw(_big))
    source = field
    if kind == "subfield":
        source = draw(st.sampled_from(field.tower_chain()[1:] or [field]))
    coords = st.lists(_big if kind == "big" else _ratios,
                      min_size=source.abs_degree,
                      max_size=source.abs_degree)
    z = source.abs_gen()
    elem = source.zero
    for c in draw(coords):
        elem = elem * z + c
    return field.embed(elem)


@pytest.mark.parametrize("name", sorted(MINPOLY_FIELDS))
@settings(max_examples=12)
@given(data=st.data())
def test_minimal_poly_against_resultant(name, data):
    field = MINPOLY_FIELDS[name]
    a = data.draw(_minpoly_elements(field))
    mu = minimal_poly(a)
    assert [c.as_fraction() for c in mu.coeffs] == _resultant_minpoly(a)
    assert field.abs_degree % mu.degree() == 0


# field data of towers, as computed by the resultant-based Trager step
# (norm of f(y - s*u), gcd back-solve) that the kernel replaced
PINNED_TOWERS = {
    # s = 0 is rejected: y + 0*u is sqrt 3, of degree 2 over Q
    "sqrt2-sqrt3": (
        (lambda c: [1, 0, -2], lambda c: [1, 0, -3]),
        (1, 0, -10, 0, 1), ((-1, 0, 11, 0), 2), ((1, 0, -9, 0), 2)),
    "cbrt2-sqrt(c+1)": (
        (lambda c: [1, 0, 0, -2], lambda c: [1, 0, -c - 1]),
        (1, 0, -3, 0, 3, 0, -3), ((0, 0, 0, 0, 1, 0), 1),
        ((0, 0, 0, 1, 0, -1), 1)),
    "i-cbrt(i+1)": (
        (lambda c: [1, 0, 1], lambda c: [1, 0, 0, -c - 1]),
        (1, 0, 0, -2, 0, 0, 2), ((0, 0, 0, 0, 1, 0), 1),
        ((0, 0, 1, 0, 0, -1), 1)),
    "sqrt2-cubic": (
        (lambda c: [1, 0, -2], lambda c: [1, 0, c / 3, Fraction(1, 2)]),
        (1, 0, 0, 46656, -373248, 0, 544195584), ((0, 0, 0, 0, 1, 0), 36),
        ((1, 0, 0, 23328, -373248, 0), 10077696)),
    "sqrt2-sqrt3-sqrt5-sqrt7": (
        tuple(lambda c, p=p: [1, 0, -p] for p in (2, 3, 5, 7)),
        (1, 0, -136, 0, 6476, 0, -141912, 0, 1513334, 0, -7453176, 0,
         13950764, 0, -5596840, 0, 46225),
        ((-9664, 0, 1312971, 0, -62415590, 0, 1364453637, 0, -14506584148,
          0, 71310531461, 0, -134848883302, 0, 61001033035, 0), 2078310400),
        ((9664, 0, -1312971, 0, 62415590, 0, -1364453637, 0, 14506584148,
          0, -71310531461, 0, 134848883302, 0, -58922722635, 0),
         2078310400)),
}


@pytest.mark.parametrize("name", sorted(PINNED_TOWERS))
def test_trager_field_data_pinned(name):
    steps, abs_mod, gen_abs, base_gen_abs = PINNED_TOWERS[name]
    field = Q
    for step in steps:  # each step's coefficients may use the last generator
        field = field.extend(UniPoly(field, step(field.gen())), "g")
    assert field.abs_mod == abs_mod
    assert field.gen_abs == gen_abs
    assert field.base_gen_abs == base_gen_abs


def test_import_and_slopes_leave_sympy_unloaded():
    """The library never loads sympy: not on import, not in any CLI mode
    over a tower given by adjoin clauses, and not when it factors a
    reducible polynomial over Q or over Q(sqrt 2)."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import sys, ltdirac\n"
              "from ltdirac import FieldHandle, UniPoly, poly_factor\n"
              "assert 'sympy' not in sys.modules\n"
              "from ltdirac.cli import main\n"
              "field = 'adjoin: z^2-2; adjoin: w^2-3'\n"
              "for extra in (['--mode', 'slopes'], ['--mode', 'decompose'],\n"
              "              ['--mode', 'invariant', '--r', '3/2']):\n"
              "    assert main(['--op', 'x^3*D^2 - 2', '--field', field]\n"
              "                + extra) == 0\n"
              "Q = FieldHandle.rationals()\n"
              "assert len(poly_factor(UniPoly(Q, [1, 0, 0, 0, 4]))) == 2\n"
              "K = Q.extend(UniPoly(Q, [1, 0, -2]), 's')\n"
              "assert len(poly_factor(UniPoly(K, [1, 0, -10, 0, 1]))) == 2\n"
              "assert 'sympy' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_sympy_used_only_for_factoring(monkeypatch):
    def no_resultant(*args, **kwargs):
        raise AssertionError("sympy resultant called")

    monkeypatch.setattr(sp, "resultant", no_resultant)
    monkeypatch.setattr(sp.polys.polytools, "resultant", no_resultant)
    tower = _tower8()
    assert minimal_poly(tower.gen() + tower.abs_gen()).degree() == 8
    assert minimal_poly(tower.gen(), over=tower.base).degree() == 2
    k2 = quadratic_field(2, "s")
    field = k2.extend(UniPoly(k2, [1, 0, 0, -3]), "u")
    assert field.abs_degree == 6
    op = parse_operator("x^4*D^3 - 22", k2)
    dec = lt_decompose(op)
    assert as_invariant(dec, Fraction(4, 3)).total_degree() > 0


# -- Capelli's binomial test against factoring ----------------------------


CAPELLI_FIELDS = dict(FACTOR_FIELDS, Q=Q)


def _binomial(lam, m):
    field = lam.field
    return UniPoly(field, [field.one] + [field.zero] * (m - 1) + [-lam])


@st.composite
def _small_elements(draw, field):
    """A nonzero element with integer coordinates in [-3, 3]."""
    elem = field.zero
    for c in draw(st.lists(st.integers(-3, 3),
                           min_size=field.abs_degree,
                           max_size=field.abs_degree)):
        elem = elem * field.abs_gen() + c
    assume(not elem.is_zero())
    return elem


@st.composite
def _capelli_inputs(draw, name):
    """(lam, m, known_reducible): lam = beta^p for a prime p | m,
    lam = -4*beta^4 with 4 | m, a rational lam, or a random lam.  m
    is at most 12 and m*[K:Q] at most 32, which bounds the norm the
    reference factoring works on."""
    field = CAPELLI_FIELDS[name]
    top = min(12, 32 // field.abs_degree)
    kind = draw(st.sampled_from(["power", "minus4", "rational", "random"]))
    beta = draw(_small_elements(field))
    if kind == "minus4":
        m = 4 * draw(st.integers(1, top // 4))
        return -4 * beta ** 4, m, True
    m = draw(st.integers(2, top))
    if kind == "power":
        p = draw(st.sampled_from(exactalg._prime_divisors(m)))
        return beta ** p, m, True
    if kind == "rational":
        lam = field.element(draw(st.fractions(-50, 50, max_denominator=12)))
        assume(not lam.is_zero())
        return lam, m, False
    return beta, m, False


@pytest.mark.parametrize("name", sorted(CAPELLI_FIELDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_binomial_splits_against_factoring(name, data):
    lam, m, known_reducible = data.draw(_capelli_inputs(name))
    splits = exactalg.binomial_splits(lam, m)
    assert splits == (len(poly_factor(_binomial(lam, m))) > 1)
    assert splits or not known_reducible


@st.composite
def _spread_inputs(draw):
    """(mu, e): mu the minimal polynomial over Q of an element of degree
    > 1 of Q(sqrt 2), Q(i) or Q(cbrt 2), random or a p-th power, and
    2 <= e <= 4."""
    field = FACTOR_FIELDS[draw(st.sampled_from(["sqrt2", "i", "cbrt2"]))]
    beta = draw(_small_elements(field))
    e = draw(st.integers(2, 4))
    v = beta ** draw(st.sampled_from([1, 2, e]))
    assume(not v.is_rational())
    return minimal_poly(v), e


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_spread_factors_against_factoring(data):
    """The norm test for deg mu > 1 is one-way: whatever it lets through
    is factored, so the factors always equal those of mu(Y^e)."""
    mu, e = data.draw(_spread_inputs())
    spread = [0] * (e * mu.degree() + 1)
    for i, c in enumerate(mu.coeffs):
        spread[e * i] = c
    spread = UniPoly(Q, spread)
    assert exactalg.spread_factors(mu, e) == [f for f, _ in poly_factor(spread)]


@pytest.mark.parametrize("name", ["sqrt2", "i", "tower8"])
def test_capelli_norm_leaves_open_case_to_root_search(name, monkeypatch):
    """Over K != Q a rational lam has the norm lam^[K:Q], a square for
    even [K:Q], so p = 2 stays open and a root of Y^2 - lam in K decides:
    2 is a square in Q(sqrt 2), -1 in Q(i), 6 and 15 in the tower, 3 in
    none but the tower."""
    field = FACTOR_FIELDS[name]
    squares = {"sqrt2": [2, 8], "i": [-1, -4], "tower8": [6, 15, 3]}[name]
    for c in squares:
        assert exactalg.binomial_splits(field.element(c), 6)
    if name != "tower8":
        assert not exactalg.binomial_splits(field.element(3), 6)
    # an odd prime with an odd norm exponent is ruled out without factoring
    monkeypatch.setattr(exactalg, "poly_factor", None)
    assert not exactalg.binomial_splits(field.element(3), 3)


def test_spread_norm_counts_degree_of_k_v(monkeypatch):
    """N(1 + sqrt 5) = -4 would leave v in -4Q^4 open over a field of
    degree 1, but K(v) has degree 2, where -4*beta^4 has the norm
    16*N(beta)^4: mu(Y^4) is irreducible with no factoring."""
    mu = UniPoly(Q, [1, -2, -4])
    want = [UniPoly(Q, [1, 0, 0, 0, -2, 0, 0, 0, -4])]
    assert [f for f, _ in poly_factor(want[0])] == want
    monkeypatch.setattr(exactalg, "poly_factor", None)
    assert exactalg.spread_factors(mu, 4) == want
