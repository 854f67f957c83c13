from fractions import Fraction

import pytest

from ltdirac import (DilatedChart, FieldHandle, LaurentSeries, UniPoly,
                     coordinate_scale, dilated_chart, transport_coefficient)
from ltdirac.errors import BadIndices, ZeroUnit
from ltdirac.exactalg import minimal_poly

from catalog import compose_scaled

Q = FieldHandle.rationals()


class TestChart:
    def test_blow_up_once(self):
        chart = dilated_chart(1, 2)
        assert chart.r == 2
        assert chart.render() == "x - t^1 - t^2*y = 0 ; y = dx/x^2"

    def test_fractional_slope(self):
        chart = dilated_chart(2, 3)
        assert chart.r == Fraction(3, 2)
        assert "y = dx/x^(3/2)" in chart.render()

    def test_indices_must_be_ordered(self):
        with pytest.raises(BadIndices):
            dilated_chart(1, 1)
        with pytest.raises(BadIndices):
            dilated_chart(3, 2)
        with pytest.raises(BadIndices):
            dilated_chart(0, 2)

    def test_equality(self):
        assert dilated_chart(2, 4) == DilatedChart(2, 4)
        assert dilated_chart(1, 2) != dilated_chart(1, 3)


class TestScalingLaws:
    def test_rational_scale(self):
        assert coordinate_scale(2, 1, 3) == Fraction(1, 4)
        assert transport_coefficient(Fraction(1), 2, 1, 3) == 4

    def test_rational_scale_fractional_slope(self):
        assert coordinate_scale(3, 2, 3) == Fraction(1, 3)
        assert transport_coefficient(Fraction(-5), 3, 2, 3) == -15

    def test_negative_unit(self):
        assert coordinate_scale(-1, 1, 2) == -1
        assert transport_coefficient(Fraction(7), -1, 1, 2) == -7

    def test_mutual_inverse(self):
        for g0 in (2, 3, -1, Fraction(5, 7)):
            for n, k in ((1, 2), (2, 3), (1, 3)):
                prod = coordinate_scale(g0, n, k) * \
                    transport_coefficient(Fraction(1), g0, n, k)
                assert prod == 1, (g0, n, k)

    def test_unit_series_input(self):
        g = LaurentSeries(Q, {0: 2, 1: 9, 3: -4})
        assert coordinate_scale(g, 1, 3) == Q.element(Fraction(1, 4))

    def test_higher_terms_do_not_matter(self):
        flat = coordinate_scale(LaurentSeries(Q, {0: 3}), 2, 3)
        bumpy = coordinate_scale(LaurentSeries(Q, {0: 3, 5: 11}), 2, 3)
        assert flat == bumpy

    def test_non_unit_rejected(self):
        with pytest.raises(ZeroUnit):
            coordinate_scale(0, 1, 2)
        with pytest.raises(ZeroUnit):
            coordinate_scale(LaurentSeries(Q, {-1: 1, 0: 2}), 1, 2)
        with pytest.raises(ZeroUnit):
            transport_coefficient(Fraction(1), LaurentSeries(Q, {1: 1}), 1, 2)

    def test_algebraic_unit(self):
        F = Q.extend(UniPoly(Q, [1, 0, -2]), "s")
        s = F.gen()
        scale = coordinate_scale(s, 1, 3)  # s^-2 = 1/2
        assert scale == F.element(Fraction(1, 2))
        moved = transport_coefficient(s, s, 1, 3)  # s^2 * s = 2s
        assert moved == s + s


class TestClosedPointInvariance:
    """Transporting a coefficient and rescaling the fiber coordinate are
    inverse operations on closed points: the transported value, read in
    the rescaled coordinate, defines the same point."""

    @pytest.mark.parametrize("g0", [2, 3, -1])
    @pytest.mark.parametrize("nk", [(1, 2), (2, 3), (1, 3)])
    def test_rational_value(self, g0, nk):
        n, k = nk
        value = Q.element(Fraction(-3, 2))
        moved = transport_coefficient(value, g0, n, k)
        mu = minimal_poly(value, Q)
        mu_moved = minimal_poly(moved, Q)
        scale = coordinate_scale(g0, n, k)
        assert compose_scaled(mu, scale).monic() == mu_moved

    @pytest.mark.parametrize("g0", [2, 3, -1])
    @pytest.mark.parametrize("nk", [(1, 2), (2, 3), (1, 3)])
    def test_quadratic_value(self, g0, nk):
        n, k = nk
        F = Q.extend(UniPoly(Q, [1, 0, 1]), "i")
        value = F.gen() + F.element(1)  # 1 + i, minpoly y^2 - 2y + 2
        moved = transport_coefficient(value, F.element(g0), n, k)
        mu = minimal_poly(value, Q)
        mu_moved = minimal_poly(moved, Q)
        scale = Fraction(g0) ** (n - k)
        assert compose_scaled(mu, scale).monic() == mu_moved
