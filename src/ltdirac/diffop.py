"""Differential operators, Newton polygons, and connection matrices.

Sign convention, fixed globally: the rank-one module attached to a polar
form w is (L((t)), d + dw), whose horizontal sections are proportional
to exp(-w).  Consequently x^2*D - 1, which annihilates exp(-1/x),
carries the form w = 1/x.

Slope convention: the polygon of sum a_i D^i is the lower hull of the
points (i, ord(a_i) - i); an edge of geometric slope s > 0 corresponds
to exponential parts of x-degree s, and the slope-0 mass (the abscissa
of the rightmost minimal vertex) is the regular rank.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PrecisionTooLow, RamificationMismatch
from .exactalg import UniPoly, render_terms
from .series import LaurentSeries


class DiffOperator:
    """Sum a_i * D^i with Laurent-polynomial coefficients; D = d/dx."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = [c if isinstance(c, LaurentSeries)
                  else LaurentSeries(field, {0: c}) for c in coeffs]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.field = field
        self.coeffs = coeffs

    @staticmethod
    def zero(field):
        return DiffOperator(field, [])

    @staticmethod
    def identity(field):
        return DiffOperator(field, [LaurentSeries.one(field)])

    @staticmethod
    def derivation(field):
        return DiffOperator(field, [LaurentSeries.zero(field),
                                    LaurentSeries.one(field)])

    def order(self):
        return len(self.coeffs) - 1  # -1 for the zero operator

    def is_zero(self):
        return not self.coeffs

    def map_to(self, field):
        return DiffOperator(field, [c.map_to(field) for c in self.coeffs])

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = LaurentSeries.zero(self.field)
        a = self.coeffs + [z] * (n - len(self.coeffs))
        b = other.coeffs + [z] * (n - len(other.coeffs))
        return DiffOperator(self.field, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return DiffOperator(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, series):
        """Left multiplication by a Laurent polynomial."""
        return DiffOperator(self.field, [series * c for c in self.coeffs])

    def compose(self, other):
        """Operator product self * other (apply other first)."""
        return self._expand(other, DiffOperator._left_derivation)

    def _left_derivation(self):
        """D * self as an operator (product rule on coefficients)."""
        shifted = [LaurentSeries.zero(self.field)] + self.coeffs
        return DiffOperator(self.field,
                            [a + b.derivative()
                             for a, b in zip(shifted, self.coeffs)]
                            + self.coeffs[-1:])

    def _expand(self, power, step, coeff=None):
        """Sum of coeff(a_i) * P_i over the coefficients a_i of self, with
        P_0 = power and P_(i+1) = step(P_i): the substitution of the
        order-one operator that ``step`` applies for D."""
        out = DiffOperator.zero(self.field)
        for i, a in enumerate(self.coeffs):
            if i:
                power = step(power)
            if not a.is_zero():
                out = out + power.scale(a if coeff is None else coeff(a))
        return out

    def __pow__(self, n):
        out = DiffOperator.identity(self.field)
        for _ in range(n):
            out = out.compose(self)
        return out

    def substitute(self, n, lam, shift):
        """The operator in u after x = lam*u^n and D_u -> D_u + shift,
        for a nonzero constant lam and a Laurent polynomial shift in u;
        the result is stored, and printed, with u in the place of x.

        Each coefficient a(x) becomes a(lam*u^n), and D_x becomes
        u^(1-n)/(n*lam) * (D_u + shift).  If L annihilates y and
        y = exp(phi) * w with phi' = shift, the result annihilates w."""
        field = self.field
        factor = LaurentSeries.monomial(field, (lam * n).inverse(), 1 - n)
        ds = factor * shift  # D_x = factor * D_u + ds
        powers = {}

        def dilate(a):
            for e in a.coeffs.keys() - powers.keys():
                powers[e] = lam ** e
            return LaurentSeries(field, {n * e: c * powers[e]
                                         for e, c in a.coeffs.items()},
                                 None if a.prec is None else a.prec * n)

        return self._expand(
            DiffOperator.identity(field),
            lambda p: p._left_derivation().scale(factor) + p.scale(ds),
            dilate)

    def normalize(self):
        """Clear a common monomial factor t^k (slopes are unaffected).

        k is the least valuation among the coefficients with a known
        term; a coefficient that is zero to its precision is shifted
        along, and ``newton_polygon`` judges whether its tail matters."""
        if self.is_zero():
            return self
        known = [min(c.coeffs) for c in self.coeffs if c.coeffs]
        if not known:
            raise PrecisionTooLow(
                "every coefficient is zero to its precision")
        shift = min(known)
        if shift == 0:
            return self
        return DiffOperator(self.field,
                            [c.shift(-shift) for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __repr__(self):
        return f"DiffOperator({self.render()})"

    def render(self):
        terms = [(c, i) for i, c in enumerate(self.coeffs) if not c.is_zero()]
        return render_terms(terms[::-1], "D", " ")


class NewtonPolygon:
    """Lower hull of {(i, ord(a_i) - i)} plus slope data.

    ``edges`` lists (slope, length, edge_poly) for the slope-0 edge (when
    the regular mass is positive) and every positive-slope hull edge, in
    increasing slope order.  The slope-0 edge polynomial collects the
    coefficients of the support points at minimal height.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges):
        self.vertices = vertices
        self.edges = edges

    def slopes(self):
        return [(slope, length) for slope, length, _ in self.edges]

    def irregularity(self):
        return sum(slope * length for slope, length, _ in self.edges)

    def regular_length(self):
        for slope, length, _ in self.edges:
            if slope == 0:
                return length
        return 0


def _lower_hull(points):
    points = sorted(points)
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies on or above segment hull[-2]..p
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def newton_polygon(operator):
    """Polygon of a nonzero operator, in the operator's own variable.

    The recursion reads the polygon at height ymin up to the regular
    vertex and along the chain of positive slopes after it, vertices and
    edge polynomials alike.  A coefficient a_i known below x^p has its
    unknown tail at heights >= p - i, so PrecisionTooLow is raised when
    that tail could lie on or below the part that is read."""
    if operator.is_zero():
        raise ValueError("newton polygon of the zero operator")
    points = {i: min(a.coeffs) - i
              for i, a in enumerate(operator.coeffs) if a.coeffs}
    if not points:
        raise PrecisionTooLow("every coefficient is zero to its precision")
    hull = _lower_hull(points.items())
    ymin = min(y for _, y in hull)
    # rightmost support point at minimal height marks the regular mass
    i0 = max(i for i, y in points.items() if y == ymin)
    chain = [(i, y) for i, y in hull if i >= i0]
    for i, a in enumerate(operator.coeffs):
        if a.prec is None:
            continue
        if i > chain[-1][0]:
            raise PrecisionTooLow(
                f"coefficient of D^{i} is zero to its precision {a.prec}")
        height = ymin
        for (xa, ya), (xb, yb) in zip(chain, chain[1:]):
            if xa < i <= xb:
                height = ya + Fraction(yb - ya, xb - xa) * (i - xa)
        if a.prec - i <= height:
            raise PrecisionTooLow(
                f"coefficient of D^{i} is known only below x^{a.prec}, "
                f"which does not clear the polygon at height {height}")
    # the slope-0 edge, at height ymin up to the regular vertex, has the
    # regular mass as its length; every edge after it has positive slope
    low = min(i for i, y in points.items() if y == ymin)
    segments = [((low, ymin), (i0, ymin), i0)] + [
        (pa, pb, pb[0] - pa[0]) for pa, pb in zip(chain, chain[1:])]
    edges = []
    for (xa, ya), (xb, yb), length in segments:
        if not length:
            continue
        slope = Fraction(yb - ya, max(xb - xa, 1))
        coeffs = []
        for i in range(xb, xa - 1, -1):
            target = ya + slope * (i - xa)
            if target.denominator == 1 and points.get(i) == target:
                coeffs.append(operator.coeffs[i].coeff(int(target) + i))
            else:
                coeffs.append(operator.field.zero)
        edges.append((slope, length, UniPoly(operator.field, coeffs)))
    return NewtonPolygon([tuple(p) for p in hull], edges)


def slopes(operator):
    """Multiset of (slope, multiplicity); includes the slope-0 mass."""
    return newton_polygon(operator).slopes()


# -- connection matrices ---------------------------------------------


class ConnectionMatrix:
    """Matrix of the derivation in a chosen basis, row convention:
    the derivation sends e_i to sum_j mat[i][j] e_j (plus the naive
    derivative on coordinates).  ``ram`` records the variable: the
    entries are series in t with t^ram = x (ram = 1 over K((x)) itself).
    """

    __slots__ = ("field", "size", "rows", "ram")

    def __init__(self, field, rows, ram=1):
        self.field = field
        self.size = len(rows)
        self.rows = [[e if isinstance(e, LaurentSeries)
                      else LaurentSeries(field, {0: e}) for e in row]
                     for row in rows]
        self.ram = ram

    @staticmethod
    def zero(field, size, ram=1):
        z = LaurentSeries.zero(field)
        return ConnectionMatrix(field, [[z] * size for _ in range(size)], ram)

    def truncation_order(self):
        precs = [e.prec for row in self.rows for e in row if e.prec is not None]
        return min(precs) if precs else None

    def map_to(self, field):
        return ConnectionMatrix(field,
                                [[e.map_to(field) for e in row]
                                 for row in self.rows], self.ram)

    def truncate(self, prec):
        return ConnectionMatrix(self.field,
                                [[e.truncate(prec) for e in row]
                                 for row in self.rows], self.ram)

    def __eq__(self, other):
        if not isinstance(other, ConnectionMatrix):
            return NotImplemented
        return (self.size == other.size and self.ram == other.ram
                and all(a == b for ra, rb in zip(self.rows, other.rows)
                        for a, b in zip(ra, rb)))

    def __repr__(self):
        return f"ConnectionMatrix(size={self.size}, ram={self.ram})"


def ramify(matrix, n):
    """Pull back along the n-th power map: A(x) dx -> A(t^n) n t^(n-1) dt."""
    if n == 1:
        return matrix
    field = matrix.field
    factor = LaurentSeries.monomial(field, field.element(n), n - 1)
    rows = [[factor * e.substitute_power(n) for e in row]
            for row in matrix.rows]
    return ConnectionMatrix(field, rows, matrix.ram * n)


def twist(matrix, form):
    """Tensor by the rank-one module of the form: A -> A + dw * Id."""
    field = matrix.field
    if form.is_zero():
        return matrix
    if matrix.ram % form.m:
        raise RamificationMismatch(
            f"form needs t^{form.m} = x but the matrix variable has "
            f"t^{matrix.ram} = x")
    support = form.scaled_support(matrix.ram)
    dw = LaurentSeries(field, {-j - 1: field.embed(c) * (-j)
                               for j, c in support.items()})
    rows = [list(row) for row in matrix.rows]
    for i in range(matrix.size):
        rows[i][i] = rows[i][i] + dw
    return ConnectionMatrix(field, rows, matrix.ram)


def companion(operator, precision):
    """Companion matrix of L/a_d, truncated to the given precision."""
    d = operator.order()
    if d < 1:
        if d == 0:
            return ConnectionMatrix(operator.field, [])
        raise ValueError("companion of the zero operator")
    if precision < 2 * d:
        raise PrecisionTooLow(
            f"precision {precision} below minimal working precision {2 * d}")
    field = operator.field
    lead = operator.coeffs[d]
    z = LaurentSeries.zero(field, precision)
    rows = [[z] * d for _ in range(d)]
    one = LaurentSeries.one(field, precision)
    for k in range(d - 1):
        rows[k][k + 1] = one
    # a_j/lead is known below the precision of 1/lead plus ord(a_j)
    low = min((a.order() for a in operator.coeffs[:d] if not a.is_zero()),
              default=0)
    inv_lead = lead.inverse(prec=precision - low)
    for j in range(d):
        a = operator.coeffs[j]
        if not a.is_zero():
            rows[d - 1][j] = rows[d - 1][j] - (a * inv_lead).truncate(precision)
    return ConnectionMatrix(field, rows)


# -- module constructors (catalog building blocks) -------------------


def regular_module(field, rank):
    """Regular module of the given rank with the trivial connection."""
    return ConnectionMatrix.zero(field, rank)


def direct_sum(*matrices):
    first = matrices[0]
    field = first.field
    ram = first.ram
    for m in matrices[1:]:
        if m.ram != ram:
            raise RamificationMismatch("direct summands use different variables")
    size = sum(m.size for m in matrices)
    z = LaurentSeries.zero(field)
    rows = [[z] * size for _ in range(size)]
    offset = 0
    for m in matrices:
        for i in range(m.size):
            for j in range(m.size):
                rows[offset + i][offset + j] = m.rows[i][j]
        offset += m.size
    return ConnectionMatrix(field, rows, ram)


def _restrict(matrix, n, base):
    """Restriction of scalars from L((t)) to base((x)), x = t^n and base
    L or Q, on the basis alpha^a t^j e_i with index (i*n + j)*deg + a,
    alpha the absolute generator of L and deg = [L:base].

    The derivation sends t^j e_i to (j/n) x^-1 t^j e_i plus
    t^(j+1-n)/n * sum_k A_ik e_k, so a term c t^s of A_ik gives
    alpha^a c/n at x^q in block (k*n + u), for s + 1 - n + j = q*n + u.
    A truncated A_ik truncates its cells at floor((prec + 1 - n + j)/n)."""
    field = matrix.field
    deg = 1 if base is field else field.abs_degree
    powers = [field.abs_gen() ** a for a in range(deg)]
    inv_n = field.element(Fraction(1, n))

    def coords(c):
        """Coordinates over base of c, ascending in alpha."""
        if base is field:
            return [c]
        return [base.element(x) for x in reversed(c.coords())]

    size = matrix.size * n * deg
    rows = [[None] * size for _ in range(size)]
    for i, row in enumerate(matrix.rows):
        for j in range(n):
            for k, entry in enumerate(row):
                cells = [{} for _ in range(n)]
                for s, c in entry.coeffs.items():
                    q, u = divmod(s + 1 - n + j, n)
                    cells[u][q] = c * inv_n
                if k == i and j:
                    diag = cells[j]
                    diag[-1] = diag.get(-1, field.zero) + inv_n * j
                prec = (None if entry.prec is None
                        else (entry.prec + 1 - n + j) // n)
                for a, power in enumerate(powers):
                    out = rows[(i * n + j) * deg + a]
                    for u, cell in enumerate(cells):
                        split = {q: coords(power * c)
                                 for q, c in cell.items()}
                        for b in range(deg):
                            out[(k * n + u) * deg + b] = LaurentSeries(
                                base, {q: v[b] for q, v in split.items()},
                                prec)
    return ConnectionMatrix(base, rows, matrix.ram // n)


def push_forward(matrix, n):
    """Direct image along t -> t^n = x: restriction of scalars from
    K((t)) to K((x)) on the basis t^j e_i, j = 0..n-1."""
    if n == 1:
        return matrix
    if matrix.ram % n:
        raise RamificationMismatch("push-forward index must divide ram")
    return _restrict(matrix, n, matrix.field)


def restrict_scalars(matrix, base):
    """Restriction of scalars along a field extension down to Q."""
    if not base.is_rationals():
        raise NotImplementedError("restriction of scalars targets Q")
    return _restrict(matrix, 1, base)


def exp_module(form, rank, base_field):
    """The base_field((x))-module obtained from the rank-one module of
    the form tensored with a trivial regular part of the given rank,
    pushed down through the ramification and the coefficient field.

    twist peels its form (twisting this module by ``form`` gives back
    the regular module), so the construction twists by the negative.
    """
    field = form.field
    if field is base_field or field == base_field:
        base_field = field
    elif not base_field.is_rationals():
        raise NotImplementedError(
            "coefficient descent implemented only down to Q")
    mat = twist(ConnectionMatrix.zero(field, rank, form.m), -form)
    return _restrict(mat, form.m, base_field)
