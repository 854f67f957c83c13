from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ltdirac.errors import PrecisionTooLow
from ltdirac.exactalg import FieldHandle, UniPoly
from ltdirac.series import LaurentSeries

Q = FieldHandle.rationals()


def series(coeffs, prec=None):
    return LaurentSeries(Q, coeffs, prec)


class TestRender:
    def test_truncated_irrational_coefficients(self):
        K = Q.extend(UniPoly(Q, [1, 0, -2]), "z")
        z = K.gen()
        s = LaurentSeries(K, {-1: z, 0: 1, 2: 1 - z, 3: -1}, prec=4)
        assert s.render() == "(z)*x^-1+1+(-z+1)*x^2-x^3 + O(x^4)"
        assert LaurentSeries(K, {}, prec=2).render() == "0 + O(x^2)"
        assert repr(s) == f"LaurentSeries({s.render()})"


class TestArithmetic:
    def test_add_cancels(self):
        assert (series({1: 2, -1: 3}) + series({1: -2})) == series({-1: 3})

    def test_mul_exact(self):
        a = series({-1: 1, 0: 1})
        b = series({1: 1, 2: -1})
        assert a * b == series({0: 1, 1: 1 - 1, 2: -1})  # 1 + 0*x - x^2

    def test_scalar_mul(self):
        assert series({2: 3}) * 2 == series({2: 6})
        assert series({2: 3}) * Q.element(2) == series({2: 6})

    def test_precision_of_product(self):
        a = series({0: 1}, prec=5)
        b = series({2: 1})
        assert (a * b).prec == 7

    def test_truncation_drops_high_terms(self):
        a = series({0: 1, 9: 4}).truncate(5)
        assert a.coeffs == {0: Q.element(1)}
        assert a.prec == 5


class TestOrderAndPrecision:
    def test_order(self):
        assert series({-3: 1, 2: 5}).order() == -3

    def test_order_of_truncated_zero_raises(self):
        with pytest.raises(PrecisionTooLow):
            series({}, prec=5).order()

    def test_exact_zero_order_is_none(self):
        assert series({}).order() is None


class TestInverse:
    def test_monomial_exact(self):
        inv = series({-2: 3}).inverse()
        assert inv == series({2: Q.element(1) / Q.element(3)})

    def test_series_inverse(self):
        a = series({0: 1, 1: 2, 3: -1})
        inv = a.inverse(prec=8)
        assert (a * inv).truncate(8) == LaurentSeries.one(Q, 8)

    def test_inverse_with_valuation(self):
        a = series({-1: 1, 0: 1})
        inv = a.inverse(prec=6)
        product = a * inv
        assert product.truncate(5) == LaurentSeries.one(Q, 5)

    def test_truncated_series_caps_precision(self):
        inv = series({0: 1, 1: 1}, prec=3).inverse(prec=8)
        assert inv == series({0: 1, 1: -1, 2: 1}, prec=3)
        inv = series({-1: 2}, prec=1).inverse(prec=8)
        assert inv == series({1: Fraction(1, 2)}, prec=3)

    def test_zero_to_precision_not_invertible(self):
        with pytest.raises(PrecisionTooLow):
            series({}, prec=4).inverse(prec=4)

    def test_exact_zero_not_invertible(self):
        with pytest.raises(ZeroDivisionError):
            series({}).inverse()


class TestCalculus:
    def test_derivative(self):
        a = series({-2: -1, 0: 7, 3: 2})
        assert a.derivative() == series({-3: 2, 2: 6})

    def test_substitute_power(self):
        a = series({-2: -1, 1: 4}, prec=3)
        out = a.substitute_power(2)
        assert out == series({-4: -1, 2: 4}, prec=6)

    def test_shift(self):
        assert series({0: 1}, prec=2).shift(3) == series({3: 1}, prec=5)


# -- differential test of the integer kernels ----------------------------
#
# The reference multiplies and inverts term by term in AlgElem arithmetic,
# normalizing after every operation, with the precision rules of
# LaurentSeries written out again.


def _tower8():
    k2 = Q.extend(UniPoly(Q, [1, 0, -2]), "s")
    k4 = k2.extend(UniPoly(k2, [1, 0, -3]), "u")
    return k4.extend(UniPoly(k4, [1, 0, -5]), "v")


KERNEL_FIELDS = {
    "Q": Q,
    "sqrt2": Q.extend(UniPoly(Q, [1, 0, -2]), "s"),
    "tower8": _tower8(),
}


def _known_valuation(s):
    return min(s.coeffs) if s.coeffs else s.prec


def reference_mul(a, b):
    prec = None
    if a.prec is not None or b.prec is not None:
        va, vb = _known_valuation(a), _known_valuation(b)
        cands = []
        if a.prec is not None and vb is not None:
            cands.append(a.prec + vb)
        if b.prec is not None and va is not None:
            cands.append(b.prec + va)
        if not cands:
            cands.append((a.prec or 0) + (b.prec or 0))
        prec = min(cands)
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            if prec is None or e < prec:
                out[e] = out.get(e, a.field.zero) + c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}, prec


def reference_inverse(a, prec):
    v = min(a.coeffs)
    inv_lead = a.coeffs[v].inverse()
    out = {0: inv_lead}
    for t in range(1, prec + v):
        acc = a.field.zero
        for e, c in a.coeffs.items():
            if 0 < e - v <= t and t - (e - v) in out:
                acc = acc + c * out[t - (e - v)]
        if not acc.is_zero():
            out[t] = -(acc * inv_lead)
    return {t - v: c for t, c in out.items() if t - v < prec}


_ratios = st.fractions(min_value=-30, max_value=30, max_denominator=9)


@st.composite
def _elements(draw, field):
    """A field element with random coordinates in the absolute basis."""
    coords = draw(st.lists(_ratios, min_size=field.abs_degree,
                           max_size=field.abs_degree))
    z = field.abs_gen()
    elem = field.zero
    for c in coords:
        elem = elem * z + c
    return elem


@st.composite
def _series(draw, field, max_terms=6):
    """A series with 0 to max_terms terms, exact or truncated."""
    exps = draw(st.lists(st.integers(-3, 8), max_size=max_terms,
                         unique=True))
    coeffs = {e: draw(_elements(field)) for e in exps}
    prec = draw(st.one_of(st.none(), st.integers(-2, 12)))
    return LaurentSeries(field, coeffs, prec)


@st.composite
def _far_series(draw, field):
    """A series of valuation -3..3 with up to six terms below x^41,
    exact or truncated up to x^44: its inverse is asked far out, at
    lengths that are mostly not powers of two."""
    v = draw(st.integers(-3, 3))
    exps = draw(st.lists(st.integers(v + 1, 40), max_size=5, unique=True))
    coeffs = {e: draw(_elements(field)) for e in exps}
    coeffs[v] = draw(_elements(field).filter(lambda c: not c.is_zero()))
    prec = draw(st.one_of(st.none(), st.integers(v + 1, 44)))
    return LaurentSeries(field, coeffs, prec)


def _mirror(s):
    """s(-x): a product with it cancels the odd coefficients."""
    return LaurentSeries(s.field, {e: -c if e % 2 else c
                                   for e, c in s.coeffs.items()}, s.prec)


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
class TestKernelsAgainstReference:
    @settings(max_examples=40)
    @given(data=st.data())
    def test_mul(self, name, data):
        field = KERNEL_FIELDS[name]
        a = data.draw(_series(field))
        b = data.draw(st.one_of(_series(field), _series(field, max_terms=1),
                                st.just(_mirror(a))))
        for x, y in ((a, b), (b, a)):
            product = x * y
            assert (product.coeffs, product.prec) == reference_mul(x, y)

    @settings(max_examples=50)
    @given(data=st.data())
    def test_inverse(self, name, data):
        field = KERNEL_FIELDS[name]
        far = data.draw(st.booleans())
        a = data.draw(_far_series(field) if far else _series(field))
        asking = st.integers(-2, 40 if far else 12)
        assume(a.coeffs)
        if a.prec is None:
            if len(a.coeffs) == 1:
                e, c = next(iter(a.coeffs.items()))
                assert a.inverse() == LaurentSeries(field, {-e: c.inverse()})
                return
            asked = prec = data.draw(asking)
        else:
            # a truncated series determines its inverse only so far
            asked = data.draw(st.one_of(st.none(), asking))
            prec = a.prec - 2 * min(a.coeffs)
            if asked is not None:
                prec = min(prec, asked)
        inv = a.inverse(prec=asked)
        assert (inv.coeffs, inv.prec) == (reference_inverse(a, prec), prec)

    def test_cancellation_to_zero(self, name):
        field = KERNEL_FIELDS[name]
        g = field.abs_gen() + 1
        a = LaurentSeries(field, {0: g, 1: g * g, 3: field.one})
        product = a * _mirror(a)
        assert all(e % 2 == 0 for e in product.coeffs)
        assert (product.coeffs, product.prec) == reference_mul(a, _mirror(a))
        # 1 + x + x^2 has inverse (1 - x)/(1 - x^3): every third term is 0
        b = LaurentSeries(field, {0: g, 1: g, 2: g})
        inv = b.inverse(prec=9)
        assert sorted(inv.coeffs) == [0, 1, 3, 4, 6, 7]
        assert inv.coeffs == reference_inverse(b, 9)
