"""End-to-end checks of the published behavior: decomposition round
trips, slope oracles, divisor values, descent integrality, uniformizer
laws and the command-line surface."""

import ast
import collections
import json
import pathlib
import random
import re
import time
from fractions import Fraction

import pytest

import ltdirac
from ltdirac import (DiffOperator, FieldHandle, LaurentSeries, UniPoly,
                     as_invariant, as_invariant_nk, base_change, coordinate_scale,
                     deg_x, irregularity, lt_decompose, newton_polygon,
                     parse_operator, slopes,
                     transport_coefficient)
from ltdirac.cli import main
from ltdirac.errors import Unsupported
from ltdirac.exactalg import minimal_poly, poly_factor

from catalog import (FORM_1_OVER_T, FORM_1_OVER_X, FORM_2_OVER_T3,
                     FORM_3_OVER_X2, FORM_HALF_OVER_X, FORM_MINUS_1_OVER_X,
                     GOLDEN, GOLDEN_JOBS, OPERATOR_CATALOG, build_module,
                     catalog_operator, compose_scaled, descend,
                     rational_form, rational_orbit_key, scale_points,
                     uniformizer_change)

Q = FieldHandle.rationals()
ZERO = rational_form({})


def divisor_dict(div):
    return {e["minpoly"]: e["multiplicity"] for e in div.serialize()}


# -- decomposition round trips ---------------------------------------

ROUND_TRIP_CASES = [
    # module pieces -> expected components as (form, rank, orbit_size);
    # ramified forms reappear as full orbits under t -> zeta*t
    ("regular-1", [(ZERO, 1)], [(ZERO, 1, 1)]),
    ("regular-2", [(ZERO, 2)], [(ZERO, 2, 1)]),
    ("one-over-x", [(FORM_1_OVER_X, 1)], [(FORM_1_OVER_X, 1, 1)]),
    ("minus-one-over-x", [(FORM_MINUS_1_OVER_X, 1)],
     [(FORM_MINUS_1_OVER_X, 1, 1)]),
    ("three-over-x2", [(FORM_3_OVER_X2, 1)], [(FORM_3_OVER_X2, 1, 1)]),
    ("one-over-t", [(FORM_1_OVER_T, 1)], [(FORM_1_OVER_T, 1, 2)]),
    ("two-over-t3", [(FORM_2_OVER_T3, 1)], [(FORM_2_OVER_T3, 1, 2)]),
    ("one-over-x-rank2", [(FORM_1_OVER_X, 2)], [(FORM_1_OVER_X, 2, 1)]),
    ("sum-polar-regular", [(FORM_1_OVER_X, 1), (ZERO, 1)],
     [(ZERO, 1, 1), (FORM_1_OVER_X, 1, 1)]),
    ("sum-two-slopes", [(FORM_3_OVER_X2, 1), (FORM_MINUS_1_OVER_X, 1)],
     [(FORM_3_OVER_X2, 1, 1), (FORM_MINUS_1_OVER_X, 1, 1)]),
    ("sum-ramified-regular", [(FORM_2_OVER_T3, 1), (ZERO, 1)],
     [(FORM_2_OVER_T3, 1, 2), (ZERO, 1, 1)]),
    ("sum-ramified-plain", [(FORM_1_OVER_T, 1), (FORM_HALF_OVER_X, 1)],
     [(FORM_1_OVER_T, 1, 2), (FORM_HALF_OVER_X, 1, 1)]),
]


class TestRoundTrip:
    @pytest.mark.parametrize("name,pieces,expected", ROUND_TRIP_CASES,
                             ids=[c[0] for c in ROUND_TRIP_CASES])
    def test_module_recovers_its_pieces(self, name, pieces, expected):
        module = build_module(pieces)
        start = time.monotonic()
        dec = lt_decompose(module)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"{name} took {elapsed:.2f}s"
        assert dec.total_rank == module.size
        found = sorted((rational_orbit_key(c.form), c.rank, c.orbit_size)
                       for c in dec.components)
        assert found == sorted((rational_orbit_key(form), rank, orbit)
                               for form, rank, orbit in expected), name


# -- slope and irregularity oracle -----------------------------------


def decomposition_slopes(dec):
    out = {}
    for c in dec.components:
        s = deg_x(c.form) or Fraction(0)
        out[s] = out.get(s, 0) + c.orbit_size * c.rank
    return sorted(out.items())


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
    return op if op.order() >= 1 else None


class TestSlopeOracle:
    def test_catalog_operators(self):
        for name, expr, expected_slopes, expected_irr in OPERATOR_CATALOG:
            op = parse_operator(expr)
            dec = lt_decompose(op)
            assert decomposition_slopes(dec) == sorted(expected_slopes), name
            assert irregularity(dec) == expected_irr, name

    def test_random_operators_against_polygon(self):
        rng = random.Random(7)
        checked = 0
        while checked < 50:
            op = random_operator(rng)
            if op is None:
                continue
            dec = lt_decompose(op)
            polygon = newton_polygon(op)
            assert decomposition_slopes(dec) == slopes(op)
            assert irregularity(dec) == polygon.irregularity()
            assert dec.total_rank == op.order()
            checked += 1


# -- divisor worked values -------------------------------------------


class TestDivisorValues:
    def test_simple_pole_at_two(self):
        dec = lt_decompose(catalog_operator("pole-one"))
        assert divisor_dict(as_invariant(dec, 2)) == {"y+1": 1}

    def test_ramified_at_three_halves(self):
        dec = lt_decompose(catalog_operator("ramified"))
        div = as_invariant(dec, Fraction(3, 2))
        assert divisor_dict(div) == {"y-1": 1, "y+1": 1}

    def test_regular_origin_masses(self):
        dec = lt_decompose(catalog_operator("regular"))
        for r in (Fraction(3, 2), Fraction(2), Fraction(3)):
            assert divisor_dict(as_invariant(dec, r)) == {"y": 1}

    def test_steep_component_gives_zero_divisor(self):
        dec = lt_decompose(catalog_operator("pole-two"))
        assert as_invariant(dec, 2).is_zero()


class TestPairInvariance:
    """The divisor for a pair (n, k) depends only on the ratio k/n."""

    @pytest.mark.parametrize("name", ["pole-one", "ramified",
                                      "quadratic-orbit", "mixed"])
    def test_common_factor_is_invisible(self, name):
        dec = lt_decompose(catalog_operator(name))
        for n, k in ((1, 2), (2, 3), (1, 3), (3, 4)):
            base = as_invariant_nk(dec, n, k)
            for m in (2, 3):
                assert as_invariant_nk(dec, m * n, m * k) == base, (name, n, k, m)


class TestShallowPairs:
    def test_zero_without_regular_part(self):
        for name in ("pole-one", "pole-two", "ramified"):
            dec = lt_decompose(catalog_operator(name))
            for n, k in ((1, 1), (2, 1), (3, 2), (2, 2)):
                assert as_invariant_nk(dec, n, k).is_zero(), (name, n, k)

    def test_undefined_with_regular_part(self):
        for name in ("regular", "mixed"):
            dec = lt_decompose(catalog_operator(name))
            with pytest.raises(Unsupported):
                as_invariant_nk(dec, 2, 1)


# -- base change -----------------------------------------------------

EXTENSIONS = [([1, 0, 1], "i"), ([1, 0, -2], "s")]

BASE_CHANGE_CASES = [("pole-one", Fraction(2)),
                     ("ramified", Fraction(3, 2)),
                     ("ramified-irrational", Fraction(3, 2)),
                     ("quadratic-orbit", Fraction(2))]


class TestBaseChange:
    @pytest.mark.parametrize("poly,gen", EXTENSIONS,
                             ids=[g for _, g in EXTENSIONS])
    def test_commutes_with_invariant(self, poly, gen):
        ext = Q.extend(UniPoly(Q, poly), gen)
        for name, r in BASE_CHANGE_CASES:
            dec = lt_decompose(catalog_operator(name))
            assert base_change(as_invariant(dec, r), ext) == \
                as_invariant(base_change(dec, ext), r), (name, gen)

    @pytest.mark.parametrize("poly,gen", EXTENSIONS,
                             ids=[g for _, g in EXTENSIONS])
    def test_degree_identity(self, poly, gen):
        ext = Q.extend(UniPoly(Q, poly), gen)
        for name, r in BASE_CHANGE_CASES:
            div = as_invariant(lt_decompose(catalog_operator(name)), r)
            out = base_change(div, ext)
            for point, mult in div.entries.items():
                above = [(p, m) for p, m in out.entries.items()
                         if any(fac == p for fac, _ in
                                poly_factor(point.map_to(ext)))]
                assert sum(p.degree() * m for p, m in above) == \
                    point.degree() * mult, (name, gen)


# -- descent integrality ---------------------------------------------


def _field_pool():
    polys = []
    for d in (2, 3, 5, 7, 11, 13, -1, -2, -3, -5, -7, -11):
        polys.append([1, 0, -d])
    polys += [[1, 1, 1], [1, 1, 2], [1, -1, -1]]
    for d in (2, 3, 4, 5, 6, 7, 9, 10, -2, -3, -4, -5, -6, -7):
        polys.append([1, 0, 0, -d])
    polys += [[1, 0, -1, -1]]
    pool = [Q]
    for idx, coeffs in enumerate(polys):
        pool.append(Q.extend(UniPoly(Q, coeffs), f"p{idx}"))
    return pool


class TestDescentIntegrality:
    def test_randomized_stable_multisets(self):
        pool = _field_pool()
        assert len(pool) >= 30
        rng = random.Random(1105)
        for _ in range(500):
            geom = []
            expected = 0
            for _ in range(rng.randint(1, 3)):
                field = rng.choice(pool)
                shift = rng.randint(-2, 2)
                if field.is_rationals():
                    value = field.element(shift)
                else:
                    value = field.gen() + field.element(shift)
                weight = rng.randint(1, 3) * field.abs_degree
                geom.append((value, weight))
                expected += weight
            div = descend(geom, Q)
            assert div.total_degree() == expected
            assert all(m > 0 for m in div.entries.values())


# -- uniformizer-change laws -----------------------------------------


class TestUniformizerLaws:
    @pytest.mark.parametrize("g0", [2, 3, -1])
    @pytest.mark.parametrize("nk", [(1, 2), (2, 3), (1, 3)])
    def test_scaling_pair(self, g0, nk):
        n, k = nk
        assert coordinate_scale(g0, n, k) == Fraction(g0) ** (n - k)
        assert transport_coefficient(Fraction(1), g0, n, k) == \
            Fraction(g0) ** (k - n)
        assert coordinate_scale(g0, n, k) * \
            transport_coefficient(Fraction(1), g0, n, k) == 1

    @pytest.mark.parametrize("g0", [2, 3, -1])
    @pytest.mark.parametrize("nk", [(1, 2), (2, 3), (1, 3)])
    def test_closed_point_is_chart_independent(self, g0, nk):
        n, k = nk
        value = Q.element(Fraction(5, 3))
        moved = transport_coefficient(value, g0, n, k)
        scale = coordinate_scale(g0, n, k)
        assert compose_scaled(minimal_poly(value, Q), scale).monic() == \
            minimal_poly(moved, Q)

    @pytest.mark.parametrize("g0", [2, Fraction(-1, 3)])
    @pytest.mark.parametrize("name,expr,slope_data,irr", OPERATOR_CATALOG,
                             ids=[e[0] for e in OPERATOR_CATALOG])
    def test_divisor_moves_with_uniformizer(self, g0, name, expr,
                                            slope_data, irr):
        # replacing x by g0^n*x scales every point at r = k/n by
        # coordinate_scale(g0, n, k)
        op = parse_operator(expr)
        rs = {1 + s for s, _ in slope_data if s > 0} | {Fraction(2)}
        for r in sorted(rs):
            div, moved, s = uniformizer_change(op, r, g0)
            assert moved == scale_points(div, s), (r, moved.render())

    @pytest.mark.parametrize("expr,r", [
        ("x^3*D^2 - 2", Fraction(3, 2)), ("x^5*D^3 - 1", Fraction(5, 3)),
        ("x^4*D^2 + x^3*D - 3", Fraction(2)), ("x^2*D - 1", Fraction(2))])
    def test_uniformizer_law_direction(self, expr, r):
        # the points move by s, not by 1/s: the inverse law fails
        div, moved, s = uniformizer_change(parse_operator(expr), r, 2)
        assert moved == scale_points(div, s)
        assert moved != scale_points(div, 1 / s)


# -- command-line surface --------------------------------------------


class TestCommandLine:
    @pytest.mark.parametrize("fname,argv", GOLDEN_JOBS,
                             ids=[f for f, _ in GOLDEN_JOBS])
    def test_golden_outputs(self, fname, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / fname).read_text()

    def test_outputs_are_canonical_json(self, capsys):
        for fname, argv in GOLDEN_JOBS:
            if not fname.endswith(".json"):
                continue
            assert main(argv) == 0
            out = capsys.readouterr().out
            report = json.loads(out)
            assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"

    def test_parser_round_trip(self):
        corpus = [expr for _, expr, _, _ in OPERATOR_CATALOG]
        corpus += ["D*x", "3/2*x^2*D - x^-1", "-x*D + x^2 - 1/3"]
        for expr in corpus:
            op = parse_operator(expr)
            assert parse_operator(op.render()) == op


class TestDocumentation:
    def test_readme_names_every_public_name(self):
        """Every name in ltdirac.__all__ appears as an identifier inside
        a code span or code block of README.md."""
        text = (pathlib.Path(__file__).resolve().parents[1]
                / "README.md").read_text()
        blocks = re.findall(r"```.*?```", text, re.S)
        spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text,
                                                flags=re.S))
        names = {w for code in blocks + spans
                 for w in re.findall(r"[A-Za-z_]\w*", code)}
        assert [n for n in ltdirac.__all__ if n not in names] == []

    def test_no_module_imports_a_name_it_never_uses(self):
        """Every name a module of the package binds by ``import`` (not
        ``from __future__``) is read somewhere in that module;
        ``__init__.py`` imports to re-export and is left out."""
        unused = []
        for path in sorted(pathlib.Path(ltdirac.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            bound = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) \
                        and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        bound[name] = node.lineno
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            unused += [f"{path.name}:{line} {name}"
                       for name, line in bound.items() if name not in read]
        assert unused == []

    def test_no_module_contains_an_assert(self):
        """No module of the package holds an ``assert`` statement, since
        ``python -O`` strips them: every check raises a typed error."""
        package = pathlib.Path(ltdirac.__file__).parent
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(package.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []

    def test_every_definition_is_reachable(self):
        """Every module-level function and class of the package is reached
        from ``ltdirac.__all__`` and ``cli.main`` by following the names
        and attribute names that reached definitions mention; a class
        mentions everything in its methods."""
        package = pathlib.Path(ltdirac.__file__).parent
        defs = collections.defaultdict(list)
        for path in sorted(package.glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defs[node.name].append((path.name, node))
        reached, todo = set(), list(ltdirac.__all__) + ["main"]
        while todo:
            name = todo.pop()
            if name in reached or name not in defs:
                continue
            reached.add(name)
            for _, node in defs[name]:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        todo.append(sub.id)
                    elif isinstance(sub, ast.Attribute):
                        todo.append(sub.attr)
        unreached = [f"{fname}:{node.lineno} {name}"
                     for name, nodes in defs.items() if name not in reached
                     for fname, node in nodes]
        assert unreached == []
