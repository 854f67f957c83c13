import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltdirac import (DiffOperator, ExpForm, FieldHandle, LaurentSeries,
                     companion, direct_sum, exp_module, irregularity,
                     lt_decompose, newton_polygon, parse_operator,
                     ramification_index, regular_module, slopes)
from ltdirac.errors import InternalError, PrecisionExhausted
from ltdirac.turrittin import (PrecisionPolicy, _cyclic_operator,
                               forms_conjugate)

from catalog import (MODULE_CATALOG, OPERATOR_CATALOG, build_module,
                     catalog_module, catalog_operator, rational_form)

Q = FieldHandle.rationals()


def single_form(dec):
    assert len(dec.components) == 1
    return dec.components[0]


class TestOperatorRoute:
    def test_regular(self):
        dec = lt_decompose(catalog_operator("regular"))
        comp = single_form(dec)
        assert comp.form.is_zero() and comp.rank == 1
        assert dec.ram_index == 1

    def test_pole_one(self):
        dec = lt_decompose(catalog_operator("pole-one"))
        comp = single_form(dec)
        assert comp.form == rational_form({1: 1})
        assert (comp.rank, comp.orbit_size) == (1, 1)

    def test_ramified(self):
        dec = lt_decompose(catalog_operator("ramified"))
        comp = single_form(dec)
        assert comp.form == rational_form({1: 2}, m=2)
        assert comp.orbit_size == 2
        assert ramification_index(dec) == 2
        assert irregularity(dec) == 1

    def test_ramified_irrational(self):
        dec = lt_decompose(catalog_operator("ramified-irrational"))
        comp = single_form(dec)
        assert comp.orbit_size == 2
        assert comp.form.m == 2
        c = comp.form.coeffs[1]
        assert (c * c).is_rational() and (c * c).as_fraction() == 8

    def test_quadratic_orbit(self):
        dec = lt_decompose(catalog_operator("quadratic-orbit"))
        comp = single_form(dec)
        assert comp.orbit_size == 2 and comp.form.m == 1
        c = comp.form.coeffs[1]
        assert (c * c).as_fraction() == -1

    def test_mixed(self):
        dec = lt_decompose(catalog_operator("mixed"))
        forms = sorted(c.form.render() for c in dec.components)
        assert forms == ["0 ; m=1", "x^-1 ; m=1"]
        assert dec.total_rank == 2

    def test_total_rank_is_order(self):
        for name in ("regular", "pole-one", "ramified", "mixed",
                     "quadratic-orbit"):
            op = catalog_operator(name)
            assert lt_decompose(op).total_rank == op.order()


class TestTypedInternalChecks:
    @pytest.mark.parametrize("expr", ["x^5*D^3 - 1", "x^4*D^3 - 1",
                                      "x^5*D^4 - 16", "x^7*D^6 - 64"])
    def test_split_orbit_operators(self, expr):
        """Edge polynomials that split into Galois orbits of unequal
        degree: the answer has the right total rank, or a typed internal
        error is raised (also under python -O), never a wrong rank."""
        op = parse_operator(expr)
        try:
            dec = lt_decompose(op)
        except InternalError:
            return
        assert dec.total_rank == op.order()


class TestMatrixRoute:
    def test_companion_agrees_with_operator(self):
        for name in ("pole-one", "ramified", "mixed"):
            op = catalog_operator(name)
            mat = companion(op, 40)
            assert lt_decompose(mat) == lt_decompose(op)

    def test_round_trip_small(self):
        mod = build_module([(rational_form({1: 1}), 1)])
        dec = lt_decompose(mod)
        comp = single_form(dec)
        assert comp.form == rational_form({1: 1}) and comp.rank == 1

    def test_precision_exhausted_on_starved_input(self):
        op = catalog_operator("ramified")
        mat = companion(op, 4)
        with pytest.raises(PrecisionExhausted):
            lt_decompose(mat, PrecisionPolicy(max_doublings=0))


def _truncated_by(operator, step):
    return [c.truncate(c.prec - step) for c in operator.coeffs]


class TestPrecisionHonesty:
    """The stability check derives the cyclic operator at p from the one
    at 2p by truncating every coefficient by p; that is sound only if it
    equals the operator the elimination at p gives."""

    @pytest.mark.parametrize("name", [entry[0] for entry in OPERATOR_CATALOG])
    def test_companion_matrices(self, name):
        mat = companion(catalog_operator(name), 48)
        top = mat.truncation_order()
        for p in (top // 4, top // 2):
            assert _truncated_by(_cyclic_operator(mat, 2 * p), p) == \
                _cyclic_operator(mat, p).coeffs

    @pytest.mark.parametrize("name", [entry[0] for entry in MODULE_CATALOG])
    def test_direct_sums(self, name):
        mat = catalog_module(name)
        for p in (8 * mat.size, 16 * mat.size):
            assert _truncated_by(_cyclic_operator(mat, 2 * p), p) == \
                _cyclic_operator(mat, p).coeffs


def _orbit_key(m, coeffs):
    """A form's key up to t -> -t, the zeta-action over Q for m <= 2."""
    items = tuple(sorted(coeffs.items()))
    flipped = tuple((j, -c if j % 2 else c) for j, c in items)
    return (m, min(items, flipped) if m == 2 else items)


@st.composite
def _pieces(draw):
    """Pieces (m, {j: c}, rank) of a direct sum of rank at most 3 over Q
    in distinct orbits; {} is the regular piece.  A form with m = 2 has
    an odd exponent, so it does not descend to m = 1."""
    pieces, size, keys = [], 0, set()
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.sampled_from((1, 1, 2)))
        if size + m > 3:
            continue
        c = Fraction(draw(st.integers(-9, 9).filter(bool)))
        if m == 2:
            coeffs = {draw(st.sampled_from((1, 3))): c}
        else:
            coeffs = draw(st.sampled_from(({}, {1: c}, {2: c}, {3: c})))
        rank = draw(st.integers(1, (3 - size) // m))
        key = _orbit_key(m, coeffs)
        if key not in keys:
            keys.add(key)
            pieces.append((m, coeffs, rank))
            size += m * rank
    return pieces


class TestDirectSumRoundTrip:
    @settings(max_examples=30)
    @given(pieces=_pieces())
    def test_decomposes_into_its_pieces(self, pieces):
        blocks = [regular_module(Q, rank) if not coeffs else
                  exp_module(ExpForm(Q, m, coeffs), rank, Q)
                  for m, coeffs, rank in pieces]
        dec = lt_decompose(direct_sum(*blocks))
        found = []
        for comp in dec.components:
            assert all(c.is_rational() for c in comp.form.coeffs.values())
            coeffs = {j: c.as_fraction() for j, c in comp.form.coeffs.items()}
            found.append((_orbit_key(comp.form.m, coeffs), comp.rank,
                          comp.orbit_size))
        expected = [(_orbit_key(m, coeffs), rank, m)
                    for m, coeffs, rank in pieces]
        assert sorted(found) == sorted(expected)
        assert dec.total_rank == sum(m * rank for m, _, rank in pieces)


class TestIrregularityOracle:
    def test_catalog(self):
        for name in ("regular", "pole-one", "pole-two", "ramified",
                     "ramified-irrational", "quadratic-orbit", "mixed"):
            op = catalog_operator(name)
            assert irregularity(lt_decompose(op)) == \
                newton_polygon(op).irregularity(), name

    def test_random_operators(self):
        rng = random.Random(424)
        checked = 0
        while checked < 12:
            op = random_operator(rng)
            if op is None:
                continue
            assert irregularity(lt_decompose(op)) == \
                newton_polygon(op).irregularity()
            checked += 1


def random_operator(rng, max_order=3, max_degree=6):
    order = rng.randint(1, max_order)
    coeffs = []
    for _ in range(order + 1):
        c = {}
        for e in range(max_degree + 1):
            if rng.random() < 0.3:
                c[e] = rng.randint(-3, 3)
        coeffs.append(LaurentSeries(Q, c))
    op = DiffOperator(Q, coeffs)
    if op.order() < 1:
        return None
    return op


class TestOrbits:
    def test_zeta_conjugate_forms(self):
        a = rational_form({1: 2}, m=2)
        b = rational_form({1: -2}, m=2)
        assert forms_conjugate(a, b, Q)

    def test_non_conjugate_different_coefficients(self):
        a = rational_form({1: 2}, m=2)
        b = rational_form({1: 3}, m=2)
        assert not forms_conjugate(a, b, Q)

    def test_even_exponent_not_zeta_movable(self):
        a = rational_form({2: 1, 1: 1}, m=2)
        b = rational_form({2: -1, 1: 1}, m=2)
        assert not forms_conjugate(a, b, Q)

    def test_galois_conjugates_merge(self):
        from ltdirac import UniPoly
        F = Q.extend(UniPoly(Q, [1, 0, -2]), "s")
        s = F.gen()
        a = ExpForm(F, 1, {1: s})
        b = ExpForm(F, 1, {1: -s})
        assert forms_conjugate(a, b, Q)
