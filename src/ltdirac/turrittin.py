"""Decomposition of a differential module into exponential components.

Given an operator or a connection matrix over K((x)), compute the list
of exponential forms w (over a splitting tower, after ramification
t^m = x) with their regular ranks n_w, grouped into orbits under the
combined action of coefficient conjugation and t -> zeta*t.

The algorithm is the rational Newton polygon recursion: ramify by the
lcm of the slope denominators, factor each edge polynomial over the
current coefficient field, adjoin one root per irreducible factor,
twist the operator by the candidate leading monomial and recurse on the
strictly smaller slopes.  Each recursion leaf carries one coefficient-
conjugacy orbit; leaves related by t -> zeta*t are merged afterwards.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .diffop import ConnectionMatrix, DiffOperator, newton_polygon
from .errors import InternalError, PrecisionExhausted, PrecisionTooLow
from .exactalg import (FieldHandle, UniPoly, k_embeddings, poly_factor,
                       roots_in_field, with_root_of_unity)
from .puiseux import ExpForm, deg_x
from .series import LaurentSeries


class PrecisionPolicy:
    """How far the matrix route may raise its working precision."""

    __slots__ = ("max_doublings", "initial")

    def __init__(self, max_doublings=2, initial=None):
        self.max_doublings = max_doublings
        self.initial = initial


class LTComponent:
    """One orbit of exponential forms with its regular rank.

    ``orbit_size`` counts the geometric conjugates of the stored
    representative under coefficient conjugation and t -> zeta*t
    together.  ``leaves`` keeps the merged (form, conjugacy degree)
    pairs; they are needed to enumerate leading coefficients later.
    """

    __slots__ = ("form", "rank", "orbit_size", "leaves")

    def __init__(self, form, rank, orbit_size, leaves=None):
        self.form = form
        self.rank = rank
        self.orbit_size = orbit_size
        self.leaves = leaves if leaves is not None else [(form, orbit_size)]

    def signature(self):
        return (self.form.key(), self.rank, self.orbit_size)

    def __repr__(self):
        return (f"LTComponent({self.form.render()}, rank={self.rank}, "
                f"orbit_size={self.orbit_size})")


class LTDecomposition:
    __slots__ = ("base_field", "components", "ram_index", "total_rank")

    def __init__(self, base_field, components):
        components = sorted(
            components,
            key=lambda c: (deg_x(c.form).value is not None,
                           deg_x(c.form).value or 0, c.form.key()))
        self.base_field = base_field
        self.components = components
        self.ram_index = _lcm_all(c.form.m for c in components) if components else 1
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


def _lcm_all(values):
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def ramification_index(dec):
    """Least m such that every form of the decomposition lives in
    t = x^(1/m)."""
    return dec.ram_index


def irregularity(dec):
    """Sum of x-degrees over all geometric exponential components."""
    total = Fraction(0)
    for c in dec.components:
        d = deg_x(c.form).value
        if d is not None:
            total += Fraction(c.orbit_size) * c.rank * d
    return total


# -- the Newton recursion on operators -------------------------------


def lt_decompose(obj, policy=None):
    """Decompose an operator or a connection matrix over its base field."""
    if isinstance(obj, DiffOperator):
        return _decompose_operator(obj)
    if isinstance(obj, ConnectionMatrix):
        return _decompose_matrix(obj, policy or PrecisionPolicy())
    raise TypeError(f"cannot decompose {type(obj).__name__}")


def _decompose_operator(operator):
    if operator.is_zero():
        raise ValueError("cannot decompose the zero operator")
    exact = DiffOperator(operator.field,
                         [LaurentSeries(operator.field, c.coeffs)
                          for c in operator.coeffs],
                         operator.var, operator.ram)
    base = operator.field
    leaves = []
    counter = [0]
    mass = _split(exact, ExpForm.zero(base), 1, None, leaves, counter)
    if mass != exact.order():
        raise InternalError("decomposition mass does not match operator order")
    components = _merge_orbits(leaves, base)
    return LTDecomposition(base, components)


def _split(op, acc, multiplier, bound, leaves, counter):
    """Recurse below ``bound`` (None = no bound); returns the rank mass
    found, measured relative to the entry multiplier."""
    op = op.normalize()
    polygon = newton_polygon(op)
    positive = [(s, ep) for s, _, ep in polygon.edges
                if s > 0 and (bound is None or s < bound)]
    q = _lcm_all(s.denominator for s, _ in positive) if positive else 1
    if q > 1:
        op = op.ramify(q).normalize()
        bound = None if bound is None else bound * q
        polygon = newton_polygon(op)
        positive = [(s, ep) for s, _, ep in polygon.edges
                    if s > 0 and (bound is None or s < bound)]
    mass = polygon.regular_length()
    if mass > 0:
        leaves.append((acc, mass, multiplier))
    for s, ep in positive:
        if s.denominator != 1:
            raise InternalError("fractional slope after ramification")
        s = int(s)
        for fac, mult in poly_factor(ep):
            if fac.degree() == 1:
                field2, alpha = op.field, -fac.coeffs[-1]
                deg = 1
            else:
                counter[0] += 1
                field2 = op.field.extend(fac, f"a{counter[0]}", _trusted=True)
                alpha = field2.gen()
                deg = fac.degree()
            child = op.map_to(field2).gauge_shift(
                LaurentSeries.monomial(field2, alpha, -s - 1))
            term = ExpForm(field2, op.ram,
                           {s: alpha * Fraction(1, s)})
            acc2 = acc.map_to(field2) + term
            sub = _split(child, acc2, multiplier * deg, s, leaves, counter)
            if sub != mult:
                raise InternalError("edge factor mass mismatch")
            mass += deg * mult
    return mass


# -- orbit merging under t -> zeta*t ---------------------------------


def forms_conjugate(f1, f2, base_field):
    """Whether two forms lie in one orbit under coefficient conjugation
    over the base field combined with t -> zeta*t."""
    if f1.m != f2.m:
        return False
    if sorted(f1.coeffs) != sorted(f2.coeffs):
        return False
    if f1.is_zero():
        return True
    m = f1.m
    big, zeta1 = with_root_of_unity(f2.field, m)
    embeddings = k_embeddings(f1.field, base_field, big)
    unity = UniPoly(big, [1] + [0] * (m - 1) + [-1])
    zetas = roots_in_field(unity) if m > 1 else [big.one]
    for emb in embeddings:
        for zeta in zetas:
            if all(emb(f1.coeffs[j]) * zeta ** (-j) == big.embed(f2.coeffs[j])
                   for j in f1.coeffs):
                return True
    return False


def _merge_orbits(leaves, base_field):
    groups = []  # list of lists of (form, rank, sigma)
    for leaf in leaves:
        form = leaf[0]
        placed = False
        for group in groups:
            if forms_conjugate(form, group[0][0], base_field):
                group.append(leaf)
                placed = True
                break
        if not placed:
            groups.append([leaf])
    components = []
    for group in groups:
        rank = group[0][1]
        sigma = group[0][2]
        if any(g[1] != rank for g in group):
            raise InternalError("merged orbit with unequal ranks")
        if any(g[2] != sigma for g in group):
            raise InternalError("merged orbit with unequal conjugacy degrees")
        rep = min((g[0] for g in group), key=lambda f: f.key())
        components.append(LTComponent(rep, rank, sigma * len(group),
                                      [(g[0], g[2]) for g in group]))
    return components


# -- connection matrices: cyclic vector with adaptive precision -------


def _decompose_matrix(matrix, policy):
    if matrix.size == 0:
        return LTDecomposition(matrix.field, [])
    input_prec = matrix.truncation_order()
    start = policy.initial
    if start is None:
        maxpole = 0
        for row in matrix.rows:
            for e in row:
                if e.coeffs:
                    maxpole = max(maxpole, -min(e.coeffs))
        start = 4 * matrix.size * (1 + maxpole)
    if input_prec is not None:
        # fixed supply of precision: stability is checked between the
        # full input precision and half of it, eliminating at the larger
        # of the two (half, for inputs shorter than 4 * size)
        half = max(input_prec // 2, 2 * matrix.size)
        try:
            if half <= input_prec:
                at_half, at_input = _stability_pair(matrix, input_prec,
                                                    input_prec - half)
            else:
                at_input, at_half = _stability_pair(matrix, half,
                                                    half - input_prec)
        except PrecisionTooLow as exc:
            raise PrecisionExhausted(
                f"input matrix known only to order {input_prec}: "
                f"{exc}") from exc
        if at_half != at_input:
            raise PrecisionExhausted(
                f"decomposition not stable between orders {half} "
                f"and {input_prec}")
        return at_input

    # each check eliminates at 2 * prec, so the last one reaches
    # start * 2^max_doublings
    prec = start
    for _ in range(policy.max_doublings):
        try:
            low, high = _stability_pair(matrix, 2 * prec, prec)
        except PrecisionTooLow:
            pass
        else:
            if low == high:
                return high
        prec *= 2
    raise PrecisionExhausted(
        f"decomposition did not stabilize within "
        f"{policy.max_doublings} precision doublings from {start}")


def _stability_pair(matrix, prec, step):
    """Decompositions of the cyclic operator at ``prec - step`` and at
    ``prec``, from one elimination at ``prec``.

    Series arithmetic tracks precision honestly, so when the matrix is
    known to ``prec``, the operator at ``prec`` with every coefficient
    truncated by ``step`` is the one the elimination at ``prec - step``
    would give."""
    operator = _cyclic_operator(matrix, prec)
    field = matrix.field
    decs = []
    for drop in (step, 0):
        frozen = [LaurentSeries(field, c.truncate(c.prec - drop).coeffs)
                  for c in operator.coeffs]
        decs.append(_decompose_operator(
            DiffOperator(field, frozen, operator.var, matrix.ram)))
    return decs


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
        coeffs = [-a for a in sol] + [LaurentSeries.one(matrix.field, prec)]
        return DiffOperator(matrix.field, coeffs, work.var, work.ram)
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
