from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltdirac import (ConnectionMatrix, DiffOperator, ExpForm, FieldHandle,
                     LaurentSeries, companion, direct_sum, exp_module,
                     newton_polygon, parse_operator, push_forward, ramify,
                     regular_module, restrict_scalars, slopes, twist)
from ltdirac.errors import PrecisionTooLow, RamificationMismatch
from ltdirac.exactalg import UniPoly

from catalog import OPERATOR_CATALOG, catalog_operator, rational_form

Q = FieldHandle.rationals()
SQRT2 = Q.extend(UniPoly(Q, [1, 0, -2]), "s")


class TestNewtonPolygon:
    def test_regular(self):
        poly = newton_polygon(parse_operator("x*D - 5"))
        assert poly.slopes() == [(0, 1)]

    def test_simple_pole(self):
        poly = newton_polygon(parse_operator("x^2*D - 1"))
        assert poly.slopes() == [(1, 1)]
        (slope, length, ep), = poly.edges
        assert ep == UniPoly(Q, [1, -1])  # l - 1

    def test_half_slope(self):
        poly = newton_polygon(parse_operator("x^3*D^2 - 1"))
        assert poly.slopes() == [(Fraction(1, 2), 2)]

    def test_catalog_slopes(self):
        for name, expr, expected, irr in OPERATOR_CATALOG:
            got = slopes(parse_operator(expr))
            assert got == sorted(expected), name
            assert newton_polygon(parse_operator(expr)).irregularity() == irr

    def test_constant_coefficient_operator_is_regular_free(self):
        # D + 1 has solutions of moderate pole order: slope 0 is absent,
        # the single edge has slope 0 length... the hull point is (1,-1)
        poly = newton_polygon(parse_operator("D + 1"))
        assert poly.slopes() == [(0, 1)]

    def test_sum_of_multiplicities_is_order(self):
        for _, expr, _, _ in OPERATOR_CATALOG:
            op = parse_operator(expr)
            assert sum(m for _, m in slopes(op)) == op.order()

    def test_monomial_scaling_invariance(self):
        op = parse_operator("x^3*D^2 - x*D + 1")
        scaled = op.scale(LaurentSeries(Q, {-2: 3}))
        assert slopes(scaled) == slopes(op)

    def test_operator_product_slopes_merge(self):
        a = parse_operator("x^2*D - 1")
        b = parse_operator("x*D - 5")
        assert slopes(a.compose(b)) == [(0, 1), (1, 1)]


class TestRamify:
    def test_identity(self):
        mat = ConnectionMatrix(Q, [[LaurentSeries(Q, {-2: -1})]])
        assert ramify(mat, 1) is mat

    def test_rank_one_pullback(self):
        mat = ConnectionMatrix(Q, [[LaurentSeries(Q, {-2: -1})]])
        out = ramify(mat, 2)
        assert out.rows[0][0] == LaurentSeries(Q, {-3: -2})
        assert out.ram == 2

    def test_zero_matrix(self):
        mat = ConnectionMatrix.zero(Q, 2)
        out = ramify(mat, 3)
        assert all(e.is_zero() for row in out.rows for e in row)


def _elements(field):
    """Nonzero elements a + b*g, g the generator of ``field`` (b = 0
    over Q), with small rational a and b."""
    small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    gen = field.gen() if field.abs_degree > 1 else field.zero
    return st.tuples(small, small).map(
        lambda ab: field.element(ab[0]) + gen * ab[1]).filter(
            lambda c: not c.is_zero())


@st.composite
def _operators(draw, field):
    """Exact operators of order at most 3 with sparse coefficients."""
    order = draw(st.integers(0, 3))
    coeffs = [draw(st.dictionaries(st.integers(-3, 4), _elements(field),
                                   min_size=int(i == order), max_size=3))
              for i in range(order + 1)]
    return DiffOperator(field, [LaurentSeries(field, c) for c in coeffs])


@st.composite
def _substitutions(draw):
    """(field, n, lambda, shift) with a monomial shift in u."""
    field = draw(st.sampled_from((Q, SQRT2)))
    n = draw(st.integers(1, 3))
    lam = draw(st.one_of(st.just(field.one), _elements(field)))
    shift = LaurentSeries.monomial(field, draw(_elements(field)),
                                   draw(st.integers(-4, 1)))
    return field, n, lam, shift


def _three_passes(op, n, lam, shift):
    """var = v^n, then v = mu*u with mu^n = lam, then D_u -> D_u + shift,
    each pass a sum of powers of one order-one operator."""
    field = op.field
    d_var = DiffOperator(field, [LaurentSeries.zero(field),
                                 LaurentSeries.monomial(
                                     field, field.element(Fraction(1, n)),
                                     1 - n)])
    ramified = DiffOperator.zero(field)
    for i, a in enumerate(op.coeffs):
        ramified = ramified + (d_var ** i).scale(a.substitute_power(n))
    # the coefficient of v^e*D^j gains mu^(e-j), and n divides e - j
    dilated = []
    for j, c in enumerate(ramified.coeffs):
        out = {}
        for e, x in c.coeffs.items():
            w, rest = divmod(e - j, n)
            assert rest == 0
            out[e] = x * lam ** w
        dilated.append(LaurentSeries(field, out, c.prec))
    d_shift = DiffOperator(field, [shift, LaurentSeries.one(field)])
    out = DiffOperator.zero(field)
    for j, c in enumerate(dilated):
        out = out + (d_shift ** j).scale(c)
    return out


class TestSubstitute:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), case=_substitutions())
    def test_matches_three_passes(self, data, case):
        field, n, lam, shift = case
        op = data.draw(_operators(field))
        assert op.substitute(n, lam, shift) == \
            _three_passes(op, n, lam, shift)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), case=_substitutions())
    def test_respects_composition(self, data, case):
        field, n, lam, shift = case
        a, b = data.draw(_operators(field)), data.draw(_operators(field))
        assert a.compose(b).substitute(n, lam, shift) == \
            a.substitute(n, lam, shift).compose(b.substitute(n, lam, shift))

    def test_truncated_coefficient_precision(self):
        op = DiffOperator(Q, [LaurentSeries(Q, {0: 1}, 2),
                              LaurentSeries(Q, {2: 1})])
        out = op.substitute(2, Q.element(3), LaurentSeries.zero(Q))
        # 1 + O(x^2) at x = 3u^2 is 1 + O(u^4)
        assert out.coeffs[0] == LaurentSeries(Q, {0: 1}, 4)
        assert out.coeffs[1] == LaurentSeries(Q, {3: Fraction(3, 2)})


class TestTwist:
    def test_zero_form_is_identity(self):
        mat = ConnectionMatrix(Q, [[LaurentSeries(Q, {5: 2})]])
        assert twist(mat, ExpForm.zero(Q)) == mat

    def test_regular_by_pole(self):
        mat = regular_module(Q, 1)
        out = twist(mat, rational_form({1: 1}))
        assert out.rows[0][0] == LaurentSeries(Q, {-2: -1})

    def test_group_law(self):
        w = rational_form({2: 3, 1: -1})
        mat = ConnectionMatrix(Q, [[LaurentSeries(Q, {0: 1, -1: 2})]])
        assert twist(twist(mat, w), -w) == mat

    def test_ramification_mismatch(self):
        mat = regular_module(Q, 1)  # lives over x
        with pytest.raises(RamificationMismatch):
            twist(mat, rational_form({1: 1}, m=2))

    def test_ramified_twist_uses_t_exponents(self):
        mat = ConnectionMatrix.zero(Q, 1, ram=2)
        out = twist(mat, rational_form({1: 1}, m=2))  # form 1/t
        assert out.rows[0][0] == LaurentSeries(Q, {-2: -1})

    def test_unramified_form_on_ramified_matrix(self):
        mat = ConnectionMatrix.zero(Q, 1, ram=2)
        out = twist(mat, rational_form({1: 1}))  # 1/x = 1/t^2
        assert out.rows[0][0] == LaurentSeries(Q, {-3: -2})


class TestCompanion:
    def test_first_order_derivation(self):
        out = companion(parse_operator("D"), 10)
        assert out.size == 1
        assert out.rows[0][0].is_zero_to_precision()

    def test_first_order_pole(self):
        out = companion(parse_operator("x^2*D - 1"), 10)
        assert out.rows[0][0].coeffs == {-2: Q.element(1)}

    def test_second_order(self):
        out = companion(parse_operator("x^3*D^2 - 1"), 10)
        assert out.rows[1][0].coeffs == {-3: Q.element(1)}
        assert out.rows[1][1].is_zero_to_precision()
        assert out.rows[0][1].coeffs == {0: Q.element(1)}

    def test_precision_too_low(self):
        with pytest.raises(PrecisionTooLow):
            companion(parse_operator("x^3*D^2 - 1"), 1)

    def test_truncated_leading_coefficient(self):
        # 1/(x^2 + x^3 + O(x^4)) is known only below x^0
        lead = LaurentSeries(Q, {2: 1, 3: 1}, 4)
        op = DiffOperator(Q, [LaurentSeries(Q, {0: -1}), lead])
        out = companion(op, 8)
        assert out.rows[0][0] == LaurentSeries(Q, {-2: 1, -1: -1}, 0)
        assert out.truncation_order() == 0

    @pytest.mark.parametrize("name", [entry[0] for entry in OPERATOR_CATALOG])
    def test_entries_known_to_precision(self, name):
        op = catalog_operator(name)
        for p in (2 * op.order(), 5, 12):
            assert companion(op, p).truncation_order() == p


class TestConstructors:
    def test_push_forward_of_trivial_rank_one(self):
        mat = ConnectionMatrix.zero(Q, 1, ram=2)
        out = push_forward(mat, 2)
        assert out.size == 2
        assert out.rows[0][0].is_zero()
        assert out.rows[1][1] == LaurentSeries(Q, {-1: Fraction(1, 2)})

    def test_exp_module_unramified_matches_twist_by_negative(self):
        w = rational_form({1: 1})
        out = exp_module(w, 1, Q)
        assert out.rows[0][0] == LaurentSeries(Q, {-2: 1})

    def test_direct_sum_block_structure(self):
        a = ConnectionMatrix(Q, [[LaurentSeries(Q, {0: 1})]])
        b = ConnectionMatrix(Q, [[LaurentSeries(Q, {0: 2})]])
        out = direct_sum(a, b)
        assert out.size == 2
        assert out.rows[0][0].coeffs == {0: Q.element(1)}
        assert out.rows[1][1].coeffs == {0: Q.element(2)}
        assert out.rows[0][1].is_zero()

    def test_restrict_scalars_doubles_size(self):
        F = Q.extend(UniPoly(Q, [1, 0, 1]), "i")
        i = F.gen()
        mat = ConnectionMatrix(F, [[LaurentSeries(F, {-1: i})]])
        out = restrict_scalars(mat, Q)
        assert out.size == 2
        assert out.field.is_rationals()
        # multiplication by i in the basis (1, i): 1 -> i, i -> -1
        assert out.rows[0][1] == LaurentSeries(Q, {-1: 1})
        assert out.rows[1][0] == LaurentSeries(Q, {-1: -1})


def _cells(mat):
    """(precisions, nonzero terms) of every cell; a term maps its exponent
    to the coefficient's coordinates, descending in the absolute
    generator, as strings."""
    precs = [[e.prec for e in row] for row in mat.rows]
    terms = {(r, k): {x: " ".join(map(str, c.coords()))
                      for x, c in e.coeffs.items()}
             for r, row in enumerate(mat.rows)
             for k, e in enumerate(row) if e.coeffs}
    return precs, terms


def _truncated_cube_root_matrix():
    """A 2x2 matrix over Q(c), c^3 = 2, in t with t^3 = x, every entry
    truncated, one of them zero to its precision."""
    C3 = Q.extend(UniPoly(Q, [1, 0, 0, -2]), "c")
    c = C3.gen()
    return ConnectionMatrix(C3, [
        [LaurentSeries(C3, {-3: c + 1, -1: 2, 0: c * c, 4: 5}, 2),
         LaurentSeries(C3, {-2: c}, 1)],
        [LaurentSeries.zero(C3, 3),
         LaurentSeries(C3, {-5: 1, -4: c - 3, 0: 7, 1: c}, 5)]], ram=3)


class TestPinnedConstructors:
    """Every cell and precision of the restriction of scalars, pinned."""

    def test_push_forward_of_truncated_tower_matrix(self):
        out = push_forward(_truncated_cube_root_matrix(), 3)
        assert (out.size, out.ram, out.field.abs_degree) == (6, 1, 3)
        assert _cells(out) == (
            [[0, 0, 0, -1, -1, -1], [0] * 6, [0] * 6,
             [0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1], [1] * 6],
            {(0, 0): {-1: "0 0 2/3"},
             (0, 1): {-2: "0 1/3 1/3", -1: "1/3 0 0"},
             (0, 5): {-2: "0 1/3 0"},
             (1, 1): {-1: "0 0 1"},
             (1, 2): {-2: "0 1/3 1/3", -1: "1/3 0 0"},
             (1, 3): {-1: "0 1/3 0"},
             (2, 0): {-1: "0 1/3 1/3"},
             (2, 2): {-1: "0 0 4/3"},
             (2, 4): {-1: "0 1/3 0"},
             (3, 3): {-2: "0 1/3 -1"},
             (3, 4): {-1: "0 0 7/3"},
             (3, 5): {-3: "0 0 1/3", -1: "0 1/3 0"},
             (4, 3): {-2: "0 0 1/3", 0: "0 1/3 0"},
             (4, 4): {-2: "0 1/3 -1", -1: "0 0 1/3"},
             (4, 5): {-1: "0 0 7/3"},
             (5, 3): {0: "0 0 7/3"},
             (5, 4): {-2: "0 0 1/3", 0: "0 1/3 0"},
             (5, 5): {-2: "0 1/3 -1", -1: "0 0 2/3"}})

    def test_restrict_scalars_of_truncated_tower_matrix(self):
        out = restrict_scalars(_truncated_cube_root_matrix(), Q)
        assert (out.size, out.ram, out.field.is_rationals()) == (6, 3, True)
        assert _cells(out) == (
            [[2, 2, 2, 1, 1, 1]] * 3 + [[3, 3, 3, 5, 5, 5]] * 3,
            {(0, 0): {-3: "1", -1: "2"},
             (0, 1): {-3: "1"},
             (0, 2): {0: "1"},
             (0, 4): {-2: "1"},
             (1, 0): {0: "2"},
             (1, 1): {-3: "1", -1: "2"},
             (1, 2): {-3: "1"},
             (1, 5): {-2: "1"},
             (2, 0): {-3: "2"},
             (2, 1): {0: "2"},
             (2, 2): {-3: "1", -1: "2"},
             (2, 3): {-2: "2"},
             (3, 3): {-5: "1", -4: "-3", 0: "7"},
             (3, 4): {-4: "1", 1: "1"},
             (4, 4): {-5: "1", -4: "-3", 0: "7"},
             (4, 5): {-4: "1", 1: "1"},
             (5, 3): {-4: "2", 1: "2"},
             (5, 5): {-5: "1", -4: "-3", 0: "7"}})

    def test_exp_module_of_ramified_form_over_tower_descended_to_q(self):
        F = Q.extend(UniPoly(Q, [1, 0, 1]), "i")
        i = F.gen()
        out = exp_module(ExpForm(F, 2, {1: i, 3: 2 * i + 1}), 2, Q)
        assert (out.size, out.ram, out.field.is_rationals()) == (8, 1, True)
        assert _cells(out) == (
            [[None] * 8] * 8,
            {(0, 2): {-3: "3/2"},
             (0, 3): {-3: "3", -2: "1/2"},
             (1, 2): {-3: "-3", -2: "-1/2"},
             (1, 3): {-3: "3/2"},
             (2, 0): {-2: "3/2"},
             (2, 1): {-2: "3", -1: "1/2"},
             (2, 2): {-1: "1/2"},
             (3, 0): {-2: "-3", -1: "-1/2"},
             (3, 1): {-2: "3/2"},
             (3, 3): {-1: "1/2"},
             (4, 6): {-3: "3/2"},
             (4, 7): {-3: "3", -2: "1/2"},
             (5, 6): {-3: "-3", -2: "-1/2"},
             (5, 7): {-3: "3/2"},
             (6, 4): {-2: "3/2"},
             (6, 5): {-2: "3", -1: "1/2"},
             (6, 6): {-1: "1/2"},
             (7, 4): {-2: "-3", -1: "-1/2"},
             (7, 5): {-2: "3/2"},
             (7, 7): {-1: "1/2"}})
