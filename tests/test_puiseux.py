from fractions import Fraction

import pytest

from ltdirac.exactalg import FieldHandle, UniPoly
from ltdirac.puiseux import ExpForm, c_r, deg_x

from catalog import subst_zeta

Q = FieldHandle.rationals()


def form(coeffs, m=1):
    return ExpForm(Q, m, {j: Fraction(c) for j, c in coeffs.items()})


class TestRender:
    def test_unit_coefficients_drop(self):
        assert form({3: -1, 1: Fraction(1, 2)}, m=2).render() == \
            "-t^-3 + 1/2*t^-1 ; m=2"
        assert form({2: 3, 1: -1}).render() == "3*x^-2 - x^-1 ; m=1"
        assert ExpForm.zero(Q).render() == "0 ; m=1"


class TestDegX:
    def test_zero_form(self):
        assert deg_x(ExpForm.zero(Q)) is None

    def test_simple_pole(self):
        assert deg_x(form({1: 1})) == 1

    def test_ramified(self):
        assert deg_x(form({3: 2, 1: 5}, m=2)) == Fraction(3, 2)


class TestCR:
    def test_ramified(self):
        assert c_r(form({3: 2, 1: 5}, m=2), Fraction(3, 2)) == Q.element(2)

    def test_unramified(self):
        assert c_r(form({2: 3}), 2) == Q.element(3)

    def test_absent(self):
        assert c_r(form({1: 1}), 2).is_zero()


class TestSubstZeta:
    def test_odd_power(self):
        w = form({1: 1}, m=2)
        assert subst_zeta(w, Q.element(-1)) == form({1: -1}, m=2)

    def test_even_power(self):
        w = form({2: 1, 1: 1}, m=4)  # canonical m stays 4
        out = subst_zeta(w, Q.element(-1))
        assert out.coeffs[2] == Q.element(1)

    def test_mixed(self):
        w = form({2: 1, 1: 1}, m=2)
        assert subst_zeta(w, Q.element(-1)) == form({2: 1, 1: -1}, m=2)

    def test_rejects_non_root(self):
        with pytest.raises(ValueError):
            subst_zeta(form({1: 1}, m=2), Q.element(2))

    def test_group_action(self):
        F = Q.extend(UniPoly(Q, [1, 0, 1]), "i")
        i = F.gen()
        w = form({3: 2, 1: 5}, m=4).map_to(F)
        one_step = subst_zeta(subst_zeta(w, i), i)
        assert one_step == subst_zeta(w, i * i)


class TestNormalization:
    def test_common_divisor_reduced(self):
        assert form({2: 1}, m=2) == form({1: 1}, m=1)
        assert form({2: 1}, m=2).m == 1

    def test_idempotent_preserves_degree(self):
        w = form({4: 1, 2: 3}, m=6)
        assert w.m == 3
        assert deg_x(w) == Fraction(2, 3)
        again = ExpForm(Q, w.m, w.coeffs)
        assert again == w

    def test_zero_coefficients_dropped(self):
        assert ExpForm(Q, 2, {1: 0}).is_zero()
