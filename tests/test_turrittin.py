import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltdirac import (ConnectionMatrix, DiffOperator, ExpForm, FieldHandle,
                     LaurentSeries, UniPoly, as_invariant, base_change,
                     companion, deg_x, direct_sum, exp_module, irregularity,
                     lt_decompose, newton_polygon, parse_operator,
                     push_forward, ramify, regular_module, turrittin)
from ltdirac.errors import (PrecisionExhausted, PrecisionTooLow,
                            RamificationMismatch)
from ltdirac.turrittin import _cyclic_operator

from catalog import (MODULE_CATALOG, OPERATOR_CATALOG, build_module,
                     catalog_module, catalog_operator, orbit_key,
                     rational_form, rational_orbit_key, scale_points,
                     symbol_divisor, uniformizer_change)

Q = FieldHandle.rationals()
SQRT2 = Q.extend(UniPoly(Q, [1, 0, -2]), "s")


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
        assert dec.ram_index == 2
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
                                      "x^5*D^4 - 16", "x^7*D^6 - 64",
                                      "x^9*D^8 - 256", "x^11*D^10 - 64"])
    def test_split_orbit_operators(self, expr):
        """Ramified edge polynomials that split into Galois orbits of
        unequal degree, all in one zeta-orbit: one component of orbit
        size q and the right total rank."""
        op = parse_operator(expr)
        dec = lt_decompose(op)
        assert dec.total_rank == op.order()
        assert [c.orbit_size for c in dec.components] == [op.order()]

    def test_coupled_galois_and_zeta_orbit(self):
        """sqrt(2)*t^-3 + t^-1 (t^2 = x): the pair (sqrt 2 -> -sqrt 2,
        t -> -t) fixes the leading term but not the form, so the orbit has
        4 forms and must stay one component (adjoining the leading
        coefficient and recursing in t splits it into two of size 2)."""
        s = SQRT2.gen()
        module = exp_module(ExpForm(SQRT2, 2, {3: s, 1: 1}), 1, Q)
        dec = lt_decompose(module)
        assert [(c.rank, c.orbit_size) for c in dec.components] == [(1, 4)]
        assert deg_x(dec.components[0].form) == Fraction(3, 2)


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

    def test_empty_matrix(self):
        dec = lt_decompose(ConnectionMatrix(Q, []))
        assert (dec.components, dec.total_rank, dec.ram_index) == ([], 0, 1)
        assert as_invariant(dec, Fraction(2)).is_zero()

    def test_no_cyclic_vector_at_precision_zero(self):
        with pytest.raises(PrecisionTooLow,
                           match="no cyclic vector found at this precision"):
            _cyclic_operator(regular_module(Q, 2), 0)

    def test_precision_exhausted_on_starved_input(self):
        mat = companion(catalog_operator("ramified"), 4).truncate(2)
        with pytest.raises(PrecisionExhausted):
            lt_decompose(mat)

    def test_starved_input_raises_typed_error(self):
        """Known below x^2 only, the cyclic operator's coefficient of D
        does not clear the polygon; at order 4 the same companion
        answers."""
        mat = companion(catalog_operator("quadratic-orbit"), 4)
        assert lt_decompose(mat) == \
            lt_decompose(catalog_operator("quadratic-orbit"))
        with pytest.raises(PrecisionExhausted):
            lt_decompose(mat.truncate(2))

    def test_retry_at_the_next_rung(self, monkeypatch):
        """A = [[-2x^-4, 1], [0, -2x^-4]]: size n = 2 and pole p = 4 put
        the first precision at n(1 + p) = 10, where the recursion asks
        for more; the second, 20, answers."""
        pole = LaurentSeries(Q, {-4: -2})
        mat = ConnectionMatrix(Q, [[pole, LaurentSeries.one(Q)],
                                   [LaurentSeries.zero(Q), pole]])
        with pytest.raises(PrecisionTooLow):
            turrittin._decompose_operator(_cyclic_operator(mat, 10))
        precs = []

        def cyclic(matrix, prec):
            precs.append(prec)
            return _cyclic_operator(matrix, prec)

        monkeypatch.setattr(turrittin, "_cyclic_operator", cyclic)
        comp = single_form(lt_decompose(mat))
        assert precs == [10, 20]
        assert (comp.form.render(), comp.rank, comp.orbit_size) == \
            ("-2/3*x^-3 ; m=1", 2, 1)

    @pytest.mark.parametrize("pieces", [
        [(rational_form({3: 2}, m=2), 1), (rational_form({1: 1}, m=2), 1)],
        [(rational_form({3: 3}), 1), (rational_form({1: 1}), 1),
         (rational_form({}), 1)],
    ], ids=["2/t^3+1/t", "3/x^3+1/x+regular"])
    def test_kept_operator_at_the_first_rung(self, pieces):
        """Both sums answer at the first precision n(1 + p), so the
        cyclic operator the decomposition keeps is known no further."""
        mat = build_module(pieces)
        pole = max(-min(e.coeffs) for row in mat.rows for e in row
                   if e.coeffs)
        dec = lt_decompose(mat)
        assert all(c.prec <= mat.size * (1 + pole)
                   for c in dec.operator.coeffs if c.prec is not None)


class TestRamifiedMatrices:
    """lt_decompose takes modules over K((x)) only; a matrix in t with
    t^n = x is decomposed through its push-forward."""

    def test_refused(self):
        mod = exp_module(ExpForm(Q, 1, {1: 1}), 1, Q)
        with pytest.raises(RamificationMismatch,
                           match=r"push_forward\(matrix, 2\)"):
            lt_decompose(ramify(mod, 2))

    @pytest.mark.parametrize("m,form,orbit", [(1, "x^-1 ; m=1", 1),
                                              (2, "t^-1 ; m=2", 2)],
                             ids=["m1", "m2"])
    def test_push_forward_of_pullback(self, m, form, orbit):
        mod = exp_module(ExpForm(Q, m, {1: 1}), 1, Q)
        dec = lt_decompose(push_forward(ramify(mod, 2), 2))
        comp = single_form(dec)
        assert (comp.form.render(), comp.rank, comp.orbit_size) == \
            (form, 2, orbit)


def _truncated_by(operator, step):
    return [c if c.prec is None else c.truncate(c.prec - step)
            for c in operator.coeffs]


class TestPrecisionHonesty:
    """The recursion trusts every coefficient of the cyclic operator up
    to the precision the elimination reports for it.  The operator at 2p
    truncated by p must therefore equal the one the elimination at p
    gives: an elimination that overstated its precision would differ."""

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
        key = orbit_key(m, coeffs)
        if key not in keys:
            keys.add(key)
            pieces.append((m, coeffs, rank))
            size += m * rank
    return pieces


def _direct_sum(pieces):
    return direct_sum(*(regular_module(Q, rank) if not coeffs else
                        exp_module(ExpForm(Q, m, coeffs), rank, Q)
                        for m, coeffs, rank in pieces))


class TestDirectSumRoundTrip:
    @settings(max_examples=30)
    @given(pieces=_pieces())
    def test_decomposes_into_its_pieces(self, pieces):
        dec = lt_decompose(_direct_sum(pieces))
        found = [(rational_orbit_key(c.form), c.rank, c.orbit_size)
                 for c in dec.components]
        expected = [(orbit_key(m, coeffs), rank, m)
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


@st.composite
def _split_orbit_family(draw):
    """x^(q+p)*D^q - c^q over Q or Q(sqrt 2): one edge of slope p/q whose
    ramified edge polynomial T^q - (q*c)^q splits into factors of
    unequal degree."""
    q = draw(st.integers(2, 6))
    p = draw(st.sampled_from([p for p in (1, 2, 3, 5) if gcd(p, q) == 1]))
    c = draw(st.integers(1, 5))
    field = draw(st.sampled_from((Q, SQRT2)))
    return parse_operator(f"x^{q + p}*D^{q} - {c ** q}", field), Fraction(p, q)


class TestSplitOrbitFamily:
    @settings(max_examples=25)
    @given(case=_split_orbit_family())
    def test_oracles(self, case):
        op, slope = case
        dec = lt_decompose(op)
        assert dec.total_rank == op.order()
        assert irregularity(dec) == newton_polygon(op).irregularity()
        ext = op.field.extend(UniPoly(op.field, [1, 0, 1]), "i")
        extended = base_change(dec, ext)
        for r in (1 + slope, 2 + slope):
            div = as_invariant(dec, r)
            assert div.total_degree() == sum(
                c.orbit_size * c.rank ** 2 for c in dec.components
                if deg_x(c.form) is None or deg_x(c.form) <= r - 1)
            assert base_change(div, ext) == as_invariant(extended, r)

    @settings(max_examples=15)
    @given(case=_split_orbit_family(),
           g0=st.sampled_from([2, Fraction(-1, 3)]))
    def test_uniformizer_change(self, case, g0):
        op, slope = case
        div, moved, s = uniformizer_change(op, 1 + slope, g0)
        assert moved == scale_points(div, s)


def _matrix_route(op, cap=64):
    """The matrix route on companions of ``op``, doubling the companion
    precision from 2*order until it answers; None beyond ``cap``."""
    prec = 2 * op.order()
    while prec <= cap:
        try:
            return lt_decompose(companion(op, prec))
        except PrecisionExhausted:
            prec *= 2
    return None


@st.composite
def _differential_operators(draw, field=Q):
    """Operators over ``field`` (Q or SQRT2) of order at most 4 with slope
    denominators up to 4: the split-orbit family x^(q+p)*D^q - c^q, or
    sparse random coefficients of degree at most 6, irrational ones too
    over SQRT2."""
    if draw(st.booleans()):
        q = draw(st.integers(2, 4))
        p = draw(st.sampled_from([p for p in (1, 2, 3, 5) if gcd(p, q) == 1]))
        c = draw(st.integers(1, 5))
        return parse_operator(f"x^{q + p}*D^{q} - {c ** q}", field)
    order = draw(st.integers(1, 4))
    units = (-3, -2, -1, 1, 2, 3)
    if field is SQRT2:
        units += (SQRT2.gen(), -SQRT2.gen(), 1 + SQRT2.gen())
    values = st.sampled_from(units)
    coeffs = [draw(st.dictionaries(st.integers(0, 6), values,
                                   min_size=int(i == order), max_size=3))
              for i in range(order + 1)]
    return DiffOperator(field, [LaurentSeries(field, c) for c in coeffs])


class TestCyclicVectors:
    def test_seeded_random_candidate(self, monkeypatch):
        """On [[0, 0], [b, b]], b = 1/(x^2 - x), the vectors e1, (1, 1)
        and (1, x) are not cyclic; the first random candidate is."""
        drawn = []
        candidates = turrittin._cyclic_vectors

        def recorded(field, size):
            for vec in candidates(field, size):
                drawn.append(vec)
                yield vec

        monkeypatch.setattr(turrittin, "_cyclic_vectors", recorded)
        b = LaurentSeries(Q, {1: -1, 2: 1}).inverse(prec=23)
        zero = LaurentSeries.zero(Q)
        dec = lt_decompose(ConnectionMatrix(Q, [[zero, zero], [b, b]]))
        assert len(drawn) == 4
        assert dec.regular_component().rank == 2
        assert dec.total_rank == 2


class TestRoutesAgree:
    @settings(max_examples=50)
    @given(op=_differential_operators())
    def test_operator_against_companion(self, op):
        dec = _matrix_route(op)
        assert dec is not None, "matrix route needs more than order 64"
        assert dec == lt_decompose(op)


def _symbol_rs(op):
    """r = 1 + s at every positive slope s of ``op``, and with r - 1
    halfway below its first slope, between neighbours and past its
    last."""
    slopes = [s for s, _ in newton_polygon(op).slopes() if s > 0]
    ends = [Fraction(0)] + slopes + [slopes[-1] + 2 if slopes else Fraction(2)]
    return [1 + s for s in slopes] + [1 + (a + b) / 2
                                      for a, b in zip(ends, ends[1:])]


def _assert_refines_symbol(op, dec):
    """``as_invariant(dec, r)`` refines Laurent's symbol of ``op`` at
    every r of ``_symbol_rs``: a point of multiplicity m in the symbol
    carries between m and m^2, exactly 1 when m = 1, and the origin
    between the symbol's mass N and N^2."""
    origin = UniPoly(op.field, [1, 0]).key()
    for r in _symbol_rs(op):
        sym = {p.key(): m for p, m in symbol_divisor(op, r).entries.items()}
        div = {p.key(): m for p, m in as_invariant(dec, r).entries.items()}
        low, mass = sym.pop(origin, 0), div.pop(origin, 0)
        assert low <= mass <= low ** 2, r
        # the same points off the origin, so none when r - 1 is no slope
        assert div.keys() == sym.keys(), r
        for key, m in sym.items():
            assert m <= div[key] <= m ** 2, r
            assert m > 1 or div[key] == 1, r


class TestLaurentSymbol:
    """The divisor against Laurent's symbol, built from the Newton
    polygon and the factored edge polynomial only, on both routes."""

    @pytest.mark.parametrize("name", [entry[0] for entry in OPERATOR_CATALOG])
    def test_catalog(self, name):
        op = catalog_operator(name)
        _assert_refines_symbol(op, lt_decompose(op))
        _assert_refines_symbol(op, _matrix_route(op))

    @settings(max_examples=25)
    @given(case=_split_orbit_family())
    def test_split_orbit_family(self, case):
        op, _ = case
        _assert_refines_symbol(op, lt_decompose(op))

    @settings(max_examples=30)
    @given(op=st.sampled_from((Q, SQRT2)).flatmap(_differential_operators))
    def test_operators(self, op):
        _assert_refines_symbol(op, lt_decompose(op))

    @settings(max_examples=20)
    @given(op=st.sampled_from((Q, SQRT2)).flatmap(_differential_operators))
    def test_matrix_route(self, op):
        dec = _matrix_route(op)
        assert dec is not None, "matrix route needs more than order 64"
        _assert_refines_symbol(op, dec)


def _perturbed(operator, tails):
    """The operator made exact, with the terms of ``tails`` added at and
    beyond the precision of each coefficient (the exact leading
    coefficient stays as it is)."""
    coeffs = []
    for c, tail in zip(operator.coeffs, tails):
        if c.prec is None:
            coeffs.append(c)
            continue
        terms = dict(c.coeffs)
        terms.update({c.prec + k: v for k, v in tail.items()})
        coeffs.append(LaurentSeries(c.field, terms))
    return DiffOperator(operator.field, coeffs)


# a term exactly at the precision, and up to two beyond it
_tail_values = st.sampled_from((-9, -1, 1, 7))
_tails = st.builds(lambda at, beyond: {0: at, **beyond}, _tail_values,
                   st.dictionaries(st.integers(1, 5), _tail_values,
                                   max_size=2))


class TestReadPrecision:
    """A matrix result holds for every module that agrees with the input
    to the precision the recursion read: changing the cyclic operator at
    and beyond the precision of each coefficient changes nothing."""

    @settings(max_examples=25)
    @given(pieces=_pieces(), data=st.data())
    def test_direct_sums(self, pieces, data):
        dec = lt_decompose(_direct_sum(pieces))
        tails = [data.draw(_tails) for _ in dec.operator.coeffs]
        assert lt_decompose(_perturbed(dec.operator, tails)) == dec

    @settings(max_examples=25)
    @given(name=st.sampled_from([entry[0] for entry in OPERATOR_CATALOG]),
           prec=st.integers(8, 24), data=st.data())
    def test_companions(self, name, prec, data):
        dec = lt_decompose(companion(catalog_operator(name), prec))
        tails = [data.draw(_tails) for _ in dec.operator.coeffs]
        assert lt_decompose(_perturbed(dec.operator, tails)) == dec
