import random
from fractions import Fraction

import pytest

from ltdirac import (DiracDivisor, ExpForm, FieldHandle, LTComponent,
                     UniPoly, as_invariant, as_invariant_nk, base_change,
                     bracket_values, c_r, deg_x, exactalg, lt_decompose,
                     omega_at, omega_below, parse_operator)
from ltdirac.errors import DegreeMismatch, RNotAboveOne, Unsupported

from catalog import (build_module, catalog_operator, descend, rational_form,
                     subst_zeta)

Q = FieldHandle.rationals()


def divisor_dict(div):
    return {e["minpoly"]: e["multiplicity"] for e in div.serialize()}


@pytest.fixture(scope="module")
def decs():
    return {
        "regular": lt_decompose(catalog_operator("regular")),
        "pole-one": lt_decompose(catalog_operator("pole-one")),
        "pole-two": lt_decompose(catalog_operator("pole-two")),
        "ramified": lt_decompose(catalog_operator("ramified")),
        "ramified-irrational":
            lt_decompose(catalog_operator("ramified-irrational")),
        "quadratic-orbit": lt_decompose(catalog_operator("quadratic-orbit")),
        "mixed": lt_decompose(catalog_operator("mixed")),
    }


class TestSelection:
    def test_omega_at_hit(self, decs):
        hits = omega_at(decs["pole-one"], 1)
        assert len(hits) == 1 and hits[0].rank == 1

    def test_omega_at_miss(self, decs):
        assert omega_at(decs["pole-one"], 2) == []

    def test_omega_at_ramified(self, decs):
        hits = omega_at(decs["ramified"], Fraction(1, 2))
        assert len(hits) == 1 and hits[0].orbit_size == 2

    def test_omega_below_includes_regular(self, decs):
        hits = omega_below(decs["regular"], 1)
        assert len(hits) == 1 and hits[0].form.is_zero()

    def test_omega_below_strict(self, decs):
        assert omega_below(decs["pole-one"], 1) == []

    def test_omega_below_mixed(self, decs):
        hits = omega_below(decs["mixed"], 1)
        assert len(hits) == 1 and hits[0].form.is_zero()


def _roots(points):
    """(root, weight) of bracket values whose closed points are rational."""
    assert all(fac.degree() == 1 for fac, _ in points)
    return sorted((-fac.coeffs[-1].as_fraction(), w) for fac, w in points)


class TestBracketValues:
    def test_simple_pole(self, decs):
        comp, = omega_at(decs["pole-one"], 1)
        assert _roots(bracket_values(comp, 2, Q)) == [(-1, 1)]

    def test_double_pole(self, decs):
        comp, = omega_at(decs["pole-two"], 2)
        assert _roots(bracket_values(comp, 3, Q)) == [(-2, 1)]

    def test_ramified_orbit(self, decs):
        comp, = omega_at(decs["ramified"], Fraction(1, 2))
        assert _roots(bracket_values(comp, Fraction(3, 2), Q)) == \
            [(-1, 1), (1, 1)]

    def test_degree_mismatch(self, decs):
        comp, = omega_at(decs["pole-one"], 1)
        with pytest.raises(DegreeMismatch):
            bracket_values(comp, 3, Q)

    @pytest.mark.parametrize("modulus, value, points", [
        # (1 + s)^2 = 3 + 2s has norm 1, and mu(Y^2) = Y^4 - 6Y^2 + 1
        # splits as (Y^2 - 2Y - 1)(Y^2 + 2Y - 1)
        ([1, 0, -2], lambda s: 1 + s, ["y^2-2*y-1", "y^2+2*y-1"]),
        # a^2 = 2 + sqrt 3 has norm 1, but Y^4 - 4Y^2 + 1 is irreducible
        ([1, 0, -4, 0, 1], lambda a: a, ["y^4-4*y^2+1"]),
    ])
    def test_norm_test_falls_back_to_factoring(self, modulus, value, points,
                                               monkeypatch):
        """deg mu = 2 with N(v) a square: the norm cannot rule splitting
        out, so mu(Y^2) is factored once, whatever the answer."""
        field = Q.extend(UniPoly(Q, modulus), "a")
        r = Fraction(3, 2)
        c = value(field.gen()) / (1 - r)
        comp = LTComponent(ExpForm(field, 2, {1: c}), 1, 4)
        calls = []
        factor = exactalg.poly_factor
        monkeypatch.setattr(exactalg, "poly_factor",
                            lambda f: calls.append(f) or factor(f))
        got = bracket_values(comp, r, Q)
        assert [(fac.render(), w) for fac, w in got] == \
            [(p, 1) for p in points]
        assert len(calls) == 1


class TestAsInvariant:
    def test_regular_rank(self, decs):
        assert divisor_dict(as_invariant(decs["regular"], 2)) == {"y": 1}

    def test_pole_one(self, decs):
        assert divisor_dict(as_invariant(decs["pole-one"], 2)) == {"y+1": 1}

    def test_ramified(self, decs):
        div = as_invariant(decs["ramified"], Fraction(3, 2))
        assert divisor_dict(div) == {"y-1": 1, "y+1": 1}

    def test_high_degree_component_invisible(self, decs):
        assert as_invariant(decs["pole-two"], 2).is_zero()

    def test_quadratic_closed_point(self, decs):
        div = as_invariant(decs["quadratic-orbit"], 2)
        assert divisor_dict(div) == {"y^2+1": 1}

    def test_irrational_ramified(self, decs):
        div = as_invariant(decs["ramified-irrational"], Fraction(3, 2))
        assert divisor_dict(div) == {"y^2-2": 1}

    def test_split_orbit(self):
        """The roots of y^3 + 1: one ramified orbit whose ramified edge
        polynomial splits into factors of degree 1 and 2."""
        dec = lt_decompose(parse_operator("x^5*D^3 - 1"))
        assert as_invariant(dec, Fraction(5, 3)).render() == \
            "1*(y+1) + 1*(y^2-y+1)"

    def test_mixed_splits_between_origin_and_point(self, decs):
        div = as_invariant(decs["mixed"], 2)
        assert divisor_dict(div) == {"y": 1, "y+1": 1}

    def test_requires_r_above_one(self, decs):
        with pytest.raises(RNotAboveOne):
            as_invariant(decs["pole-one"], 1)

    def test_geometric_mass(self, decs):
        for name, r in (("pole-one", Fraction(2)),
                        ("ramified", Fraction(3, 2)),
                        ("quadratic-orbit", Fraction(2)),
                        ("mixed", Fraction(2))):
            dec = decs[name]
            div = as_invariant(dec, r)
            expected = sum(c.orbit_size * c.rank ** 2
                           for c in omega_below(dec, r - 1))
            expected += sum(c.orbit_size * c.rank ** 2
                            for c in omega_at(dec, r - 1))
            assert div.total_degree() == expected, name


class TestAsInvariantNK:
    def test_delegates(self, decs):
        assert as_invariant_nk(decs["pole-one"], 1, 2) == \
            as_invariant(decs["pole-one"], 2)

    def test_r_only_dependence(self, decs):
        assert as_invariant_nk(decs["pole-one"], 2, 4) == \
            as_invariant_nk(decs["pole-one"], 1, 2)

    def test_small_k_without_regular_part(self, decs):
        assert as_invariant_nk(decs["pole-one"], 2, 1).is_zero()
        assert as_invariant_nk(decs["pole-one"], 2, 2).is_zero()

    def test_small_k_with_regular_part(self, decs):
        with pytest.raises(Unsupported):
            as_invariant_nk(decs["regular"], 2, 1)


class TestDescend:
    def test_origin(self):
        div = descend([(Q.zero, 4)], Q)
        assert divisor_dict(div) == {"y": 4}

    def test_rational_pair(self):
        div = descend([(Q.element(1), 1), (Q.element(-1), 1)], Q)
        assert divisor_dict(div) == {"y-1": 1, "y+1": 1}

    def test_quadratic_pair(self):
        F = Q.extend(UniPoly(Q, [1, 0, 1]), "i")
        i = F.gen()
        div = descend([(i, 1), (-i, 1)], Q)
        assert divisor_dict(div) == {"y^2+1": 1}

    def test_collapsed_weight(self):
        F = Q.extend(UniPoly(Q, [1, 0, 1]), "i")
        div = descend([(F.gen(), 2)], Q)
        assert divisor_dict(div) == {"y^2+1": 1}

    def test_non_integral(self):
        F = Q.extend(UniPoly(Q, [1, 0, 1]), "i")
        with pytest.raises(ValueError):
            descend([(F.gen(), 1)], Q)

    def test_identity_on_rational_data(self):
        entries = [(Q.element(2), 3), (Q.zero, 2)]
        div = descend(entries, Q)
        assert divisor_dict(div) == {"y-2": 3, "y": 2}

    def test_randomized_stability(self):
        rng = random.Random(99)
        fields = [Q,
                  Q.extend(UniPoly(Q, [1, 0, 1]), "i"),
                  Q.extend(UniPoly(Q, [1, 0, -2]), "s"),
                  Q.extend(UniPoly(Q, [1, 1, 1]), "w")]
        for _ in range(60):
            geom = []
            expected = 0
            for field in rng.sample(fields, rng.randint(1, 3)):
                weight = rng.randint(1, 5)
                value = field.gen() if not field.is_rationals() \
                    else field.element(rng.randint(-3, 3))
                geom.append((value, weight * field.abs_degree))
                expected += weight * field.abs_degree
            div = descend(geom, Q)
            assert div.total_degree() == expected

    @pytest.mark.parametrize("name", ["pole-one", "pole-two", "ramified",
                                      "ramified-irrational",
                                      "quadratic-orbit", "mixed"])
    def test_oracle_for_bracket_values(self, decs, name):
        """as_invariant factors mu(Y^e) over Q; moving the leading
        coefficient of every t -> zeta*t image of the form to (1-r)*c
        explicitly (zeta = +-1: every catalog form has m <= 2) and
        descending those values gives the same divisor."""
        dec = decs[name]
        for comp in dec.components:
            if comp.form.is_zero():
                continue
            r = 1 + deg_x(comp.form)
            geom = [(Q.zero, sum(c.orbit_size * c.rank ** 2
                                 for c in omega_below(dec, r - 1)))]
            for top in omega_at(dec, r - 1):
                field = top.form.field
                images = [subst_zeta(top.form, field.element(z))
                          for z in (1, -1)[:top.form.m]]
                weight = top.orbit_size * top.rank ** 2 // len(images)
                geom += [(c_r(w, r - 1) * (1 - r), weight) for w in images]
            assert as_invariant(dec, r) == descend(geom, Q), (name, r)


class TestBaseChange:
    def test_quadratic_point_splits(self):
        F = Q.extend(UniPoly(Q, [1, 0, 1]), "i")
        div = DiracDivisor(Q, [(UniPoly(Q, [1, 0, 1]), 1)])
        out = base_change(div, F)
        assert out.total_degree() == 2
        assert sorted(e["multiplicity"] for e in out.serialize()) == [1, 1]

    def test_origin_inert(self):
        F = Q.extend(UniPoly(Q, [1, 0, 1]), "i")
        div = DiracDivisor(Q, [(UniPoly(Q, [1, 0]), 4)])
        out = base_change(div, F)
        assert divisor_dict(out) == {"y": 4}

    def test_rational_point_inert(self):
        F = Q.extend(UniPoly(Q, [1, 0, -2]), "s")
        div = DiracDivisor(Q, [(UniPoly(Q, [1, -1]), 2)])
        out = base_change(div, F)
        assert out.serialize() == [{"minpoly": "y-1", "degree": 1,
                                    "multiplicity": 2}]

    @pytest.mark.parametrize("poly,name", [([1, 0, 1], "i"),
                                           ([1, 0, -2], "s")])
    def test_commutation_on_catalog(self, decs, poly, name):
        ext = Q.extend(UniPoly(Q, poly), name)
        for key, r in (("ramified", Fraction(3, 2)),
                       ("ramified-irrational", Fraction(3, 2)),
                       ("quadratic-orbit", Fraction(2)),
                       ("pole-one", Fraction(2))):
            dec = decs[key]
            lhs = base_change(as_invariant(dec, r), ext)
            rhs = as_invariant(base_change(dec, ext), r)
            assert lhs == rhs, (key, name)

    def test_matrix_route_reruns_frozen_operator(self):
        module = build_module([(rational_form({3: 2}, m=2), 1),
                               (rational_form({}), 1)])
        ext = Q.extend(UniPoly(Q, [1, 0, 1]), "i")
        extended = base_change(lt_decompose(module), ext)
        assert extended.base_field is ext
        assert extended == lt_decompose(module.map_to(ext))

    def test_degree_identity(self, decs):
        ext = Q.extend(UniPoly(Q, [1, 0, 1]), "i")
        div = as_invariant(decs["quadratic-orbit"], 2)
        out = base_change(div, ext)
        for point, mult in div.entries.items():
            above = [(p, m) for p, m in out.entries.items()
                     if _lies_above(p, point, ext)]
            assert sum(p.degree() * m for p, m in above) == \
                point.degree() * mult


def _lies_above(point_ext, point_base, ext):
    from ltdirac.exactalg import poly_factor
    return any(fac == point_ext
               for fac, _ in poly_factor(point_base.map_to(ext)))

