"""Decomposition of a differential module into exponential components.

Given an operator or a connection matrix over K((x)), compute the list
of exponential forms w (over a number-field tower, in t with t^m = x)
with their regular ranks, one form per orbit under the combined action
of coefficient conjugation and t -> zeta*t.

The algorithm is the rational Newton step (van Hoeij, JSC 24, 1997).
An edge of slope a/q (lowest terms) has edge polynomial E(T^q); factor
E over the current field and adjoin one root beta per irreducible
factor.  The substitution x = lambda*u^q with lambda = (q^q*beta)^k,
k*a = 1 (mod q), gives an edge of integer slope a whose polynomial has
the root gamma = (q^q*beta)^((1-a*k)/q) in K(beta), so no q-th root is
adjoined.  One change of variables (``DiffOperator.substitute``) makes
that substitution and the twist D_u -> D_u + gamma*u^(-a-1) together;
recurse on the strictly smaller slopes over K(beta).  Each recursion leaf is then exactly one orbit, of
size the product of q*deg(factor) along its path, and its
representative in t is built once, at the leaf.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .diffop import ConnectionMatrix, DiffOperator, newton_polygon
from .errors import (InternalError, PrecisionExhausted, PrecisionTooLow,
                     RamificationMismatch)
from .exactalg import UniPoly, poly_factor, spread_factors
from .puiseux import ExpForm, deg_x
from .series import LaurentSeries


class LTComponent:
    """One orbit of exponential forms with its regular rank.

    ``orbit_size`` counts the geometric conjugates of the representative
    ``form`` under coefficient conjugation over the base field and
    t -> zeta*t together.
    """

    __slots__ = ("form", "rank", "orbit_size")

    def __init__(self, form, rank, orbit_size):
        self.form = form
        self.rank = rank
        self.orbit_size = orbit_size

    def signature(self):
        return (self.form.key(), self.rank, self.orbit_size)

    def __repr__(self):
        return (f"LTComponent({self.form.render()}, rank={self.rank}, "
                f"orbit_size={self.orbit_size})")


class LTDecomposition:
    """The components over ``base_field`` together with the operator they
    were computed from (for a matrix, its cyclic operator), which base
    change decomposes again over the larger field."""

    __slots__ = ("base_field", "components", "operator", "ram_index",
                 "total_rank")

    def __init__(self, base_field, components, operator):
        components = sorted(
            components,
            key=lambda c: (deg_x(c.form) is not None, deg_x(c.form) or 0,
                           c.form.key()))
        self.base_field = base_field
        self.components = components
        self.operator = operator
        self.ram_index = lcm(*(c.form.m for c in components))
        self.total_rank = sum(c.orbit_size * c.rank for c in components)

    def regular_component(self):
        for c in self.components:
            if c.form.is_zero():
                return c
        return None

    def signature(self):
        return (self.ram_index, self.total_rank,
                tuple(c.signature() for c in self.components))

    def __eq__(self, other):
        if not isinstance(other, LTDecomposition):
            return NotImplemented
        return self.signature() == other.signature()

    def __repr__(self):
        body = ", ".join(repr(c) for c in self.components)
        return f"LTDecomposition([{body}], m={self.ram_index})"


def irregularity(dec):
    """Sum of x-degrees over all geometric exponential components."""
    total = Fraction(0)
    for c in dec.components:
        d = deg_x(c.form)
        if d is not None:
            total += Fraction(c.orbit_size) * c.rank * d
    return total


# -- the Newton recursion on operators -------------------------------


def lt_decompose(obj):
    """Decompose an operator or a connection matrix over its base field."""
    if isinstance(obj, DiffOperator):
        return _decompose_operator(obj)
    if isinstance(obj, ConnectionMatrix):
        return _decompose_matrix(obj)
    raise TypeError(f"cannot decompose {type(obj).__name__}")


def _decompose_operator(operator):
    """Operators with finite-precision coefficients are decomposed as
    far as those coefficients determine the result: ``newton_polygon``
    raises PrecisionTooLow wherever an unknown tail could matter."""
    if operator.is_zero():
        raise ValueError("cannot decompose the zero operator")
    base = operator.field
    components = []
    mass = _split(operator, ({}, 1, base.one), 1, None, components, [0])
    if mass != operator.order():
        raise InternalError("decomposition mass does not match operator order")
    return LTDecomposition(base, components, operator)


def _split(op, path, multiplier, bound, out, counter):
    """Recurse on the slopes of ``op`` below ``bound`` (None = no bound),
    appending one component per orbit to ``out``; returns the rank mass
    found, measured relative to the entry multiplier.

    ``path`` is (terms, m, lam): the form found so far, sum c*u^(-j) for
    {j: c} in the variable u of ``op``, with x = lam*u^m."""
    op = op.normalize()
    polygon = newton_polygon(op)
    field = op.field
    mass = polygon.regular_length()
    if mass > 0:
        out.append(LTComponent(_representative(field, path, counter),
                               mass, multiplier))
    terms, m, lam = path
    for s, _, ep in polygon.edges:
        if s <= 0 or (bound is not None and s >= bound):
            continue
        a, q = s.numerator, s.denominator
        k = pow(a, -1, q)
        # ep(T) = E(T^q): every q-th coefficient from the top
        for fac, mult in poly_factor(UniPoly(field, ep.coeffs[::q])):
            field2, beta = _adjoin_root(fac, counter)
            qb = beta * q ** q
            lam2 = qb ** k
            gamma = qb ** ((1 - a * k) // q)
            child = op.map_to(field2).substitute(
                q, lam2, LaurentSeries.monomial(field2, gamma, -a - 1))
            # the variable of op is lam2 * u^q in the new variable u
            terms2 = {q * j: field2.embed(c) * lam2 ** -j
                      for j, c in terms.items()}
            terms2[a] = gamma * Fraction(1, a)
            path2 = (terms2, m * q, field2.embed(lam) * lam2 ** m)
            deg = q * fac.degree()
            sub = _split(child, path2, multiplier * deg, a, out, counter)
            if sub != mult:
                raise InternalError("edge factor mass mismatch")
            mass += deg * mult
    return mass


def _adjoin_root(fac, counter):
    """A root of the monic irreducible ``fac``: in its own field when
    linear, else the generator of a new extension."""
    if fac.degree() == 1:
        return fac.field, -fac.coeffs[-1]
    counter[0] += 1
    field = fac.field.extend(fac, f"a{counter[0]}", _trusted=True)
    return field, field.gen()


def _representative(field, path, counter):
    """The leaf's form in t = rho*u, where rho^m = lam (so t^m = x) is a
    root of the first least-degree factor of Y^m - lam."""
    terms, m, lam = path
    fac = min(spread_factors(UniPoly(field, [field.one, -lam]), m),
              key=UniPoly.degree)
    field, rho = _adjoin_root(fac, counter)
    return ExpForm(field, m,
                   {j: field.embed(c) * rho ** j for j, c in terms.items()})


# -- connection matrices: cyclic vector with adaptive precision -------


def _decompose_matrix(matrix):
    """Eliminate once and decompose once per precision, doubling it from
    size * (1 + largest pole) up to sixteen times that while the
    recursion asks for more.  ``newton_polygon`` raises PrecisionTooLow
    wherever the unknown tail could matter, so the first precision that
    answers gives the answer of every higher one.  A matrix with
    truncated entries gets one attempt, at its own precision.  Only
    modules over K((x)) (ram = 1) are accepted."""
    if matrix.ram != 1:
        raise RamificationMismatch(
            f"the matrix is in t with t^{matrix.ram} = x; decompose "
            f"push_forward(matrix, {matrix.ram}), its module over K((x))")
    given = matrix.truncation_order()
    if given is None:
        maxpole = max([0] + [-min(e.coeffs) for row in matrix.rows
                             for e in row if e.coeffs])
        start = matrix.size * (1 + maxpole)
        precs = [start << k for k in range(5)]
    else:
        precs = (given,)
    for prec in precs:
        try:
            return _decompose_operator(_cyclic_operator(matrix, prec))
        except PrecisionTooLow as exc:
            error = exc
    raise PrecisionExhausted(
        f"the recursion needs the matrix beyond order {prec}: "
        f"{error}") from error


def _cyclic_vectors(field, size):
    """Candidate cyclic vectors, deterministic order."""
    one = LaurentSeries.one(field)
    zero = LaurentSeries.zero(field)
    yield [one if i == 0 else zero for i in range(size)]
    yield [one] * size
    yield [LaurentSeries.monomial(field, field.one, i) for i in range(size)]
    rng = random.Random(20210)
    for _ in range(6):
        yield [LaurentSeries(field, {rng.randint(0, 2): rng.randint(1, 5)})
               for _ in range(size)]


def _apply_derivation(matrix, vec):
    """Derivation on section coordinates: u -> u' + (transpose A) u."""
    out = []
    for col in range(matrix.size):
        acc = vec[col].derivative()
        for i in range(matrix.size):
            entry = matrix.rows[i][col]
            if not vec[i].is_zero() and not entry.is_zero():
                acc = acc + vec[i] * entry
        out.append(acc)
    return out


def _cyclic_operator(matrix, prec):
    """Monic operator annihilating a cyclic vector, to finite precision."""
    size = matrix.size
    work = matrix.truncate(prec)
    for vec in _cyclic_vectors(matrix.field, size):
        vec = [v.truncate(prec) for v in vec]
        rows = [vec]
        for _ in range(size):
            rows.append(_apply_derivation(work, rows[-1]))
        sol = _solve_series(rows[:size], rows[size], matrix.field)
        if sol is None:
            continue
        coeffs = [-a for a in sol] + [LaurentSeries.one(matrix.field)]
        return DiffOperator(matrix.field, coeffs)
    raise PrecisionTooLow("no cyclic vector found at this precision")


def _solve_series(basis_rows, target, field):
    """Solve sum_j a_j basis_rows[j] = target over truncated series.

    Returns the coefficient list, or None when the rows are dependent
    to the available precision."""
    size = len(basis_rows)
    # system[c][j] = basis_rows[j][c], augmented with the target
    system = [[basis_rows[j][c] for j in range(size)] + [target[c]]
              for c in range(size)]
    order = []
    used = set()
    try:
        for col in range(size):
            pivot_row, pivot_ord = None, None
            for r in range(size):
                if r in used:
                    continue
                entry = system[r][col]
                if entry.is_zero_to_precision():
                    continue
                o = entry.order()
                if pivot_ord is None or o < pivot_ord:
                    pivot_row, pivot_ord = r, o
            if pivot_row is None:
                return None
            used.add(pivot_row)
            order.append((pivot_row, col))
            pivot = system[pivot_row][col]
            inv = pivot.inverse()
            system[pivot_row] = [e * inv for e in system[pivot_row]]
            for r in range(size):
                if r == pivot_row:
                    continue
                factor = system[r][col]
                if factor.is_zero_to_precision():
                    continue
                system[r] = [e - factor * p
                             for e, p in zip(system[r], system[pivot_row])]
    except PrecisionTooLow:
        return None
    solution = [None] * size
    for row, col in order:
        solution[col] = system[row][size]
    return solution
