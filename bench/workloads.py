"""Seeded inputs and independent oracles for the benchmark workloads.

Nothing here imports ltdirac.  Every operator is generated as an
explicit table of terms, so the generator knows its own Newton polygon
and the checks never ask the code under test what the right answer is.
Every check returns a reason string instead of using ``assert``, so
``python -O`` cannot skip it.

Each workload cycles through a fixed schedule of input classes, and the
seed fills in the details of each slot.  The schedule keeps the mix of
expensive and cheap jobs the same from seed to seed, which is what
keeps a time-limited run steady; the seed still decides every
coefficient, slope and exponent.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

#: timed constants are +-m*p with p a prime <= COEFF_MAX and m <= 9; the
#: warm-up inputs use a larger prime, so they never repeat a timed input
COEFF_MAX = 97
WARM_CONSTANT = 101

#: operators from the ROADMAP that raise AssertionError at the seed
#: commit (an edge polynomial splits into Galois orbits of unequal
#: degree inside one zeta-orbit); ``defect_operators`` runs them
SPLIT_ORBIT_OPERATORS = ("x^5*D^3 - 1", "x^4*D^3 - 1", "x^5*D^4 - 16",
                         "x^7*D^6 - 64")

#: base fields of the tower workload, as CLI ``adjoin:`` clauses, with
#: their defining polynomials (descending coefficients)
TOWER_FIELDS = {
    "adjoin: z^2-2": (1, 0, -2),
    "adjoin: z^2+1": (1, 0, 1),
    "adjoin: z^3-2": (1, 0, 0, -2),
}

#: the requests behind tests/golden/, with the file each must reproduce
GOLDEN_REQUESTS = (
    ("invariant_pole_r2.json",
     ("--op", "x^2*D - 1", "--mode", "invariant", "--r", "2")),
    ("invariant_ramified_n2k3.json",
     ("--op", "x^3*D^2 - 1", "--mode", "invariant", "--n", "2", "--k", "3")),
    ("invariant_regular_r2.json",
     ("--op", "x*D - 5", "--mode", "invariant", "--r", "2")),
    ("invariant_zero_r2.json",
     ("--op", "x^3*D - 2", "--mode", "invariant", "--r", "2")),
    ("decompose_mixed.json",
     ("--op", "x^3*D^2 - x*D + x^2*D - 1 + 5*x", "--mode", "decompose")),
    ("slopes_ramified.json",
     ("--op", "x^3*D^2 - 1", "--mode", "slopes")),
    ("invariant_ramified_text.txt",
     ("--op", "x^3*D^2 - 1", "--mode", "invariant", "--r", "3/2",
      "--format", "text")),
)


# -- operators as term tables ----------------------------------------


class OpInput:
    """A differential operator sum c * x^e * D^i with its own polygon.

    ``terms`` maps the D-power i to {x-exponent e: nonzero Fraction}.
    ``edges`` lists (slope, length) of the Newton polygon of the points
    (i, ord a_i - i): the slope-0 edge first when there is a regular
    part, then the positive slopes in increasing order.
    """

    __slots__ = ("terms", "text", "edges", "field", "family")

    def __init__(self, terms, family, field="Q", text=None):
        self.terms = {i: dict(col) for i, col in terms.items() if col}
        self.text = text or render_terms(self.terms)
        self.edges = polygon_edges(self.terms)
        self.field = field
        self.family = family

    @property
    def order(self):
        return max(self.terms)

    @property
    def irregularity(self):
        return sum((s * n for s, n in self.edges), Fraction(0))

    def key(self):
        return (self.field, self.text)

    def describe(self):
        return f"{self.text} over {self.field}"

    def positive_slopes(self):
        return [s for s, _ in self.edges if s > 0]

    def mass_up_to(self, s):
        """Polygon length of the edges with slope <= s (slope 0 included)."""
        return sum(n for slope, n in self.edges if slope <= s)


def render_terms(terms):
    """Parser syntax, highest D-power first; coefficients always lead."""
    parts = []
    for i in sorted(terms, reverse=True):
        for e in sorted(terms[i]):
            c = terms[i][e]
            factors = []
            if e:
                factors.append("x" if e == 1 else f"x^{e}")
            if i:
                factors.append("D" if i == 1 else f"D^{i}")
            mag = abs(c)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            parts.append(("-" if c < 0 else "+", "*".join(factors)))
    sign, body = parts[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _lower_hull(points):
    hull = []
    for p in sorted(points):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def polygon_edges(terms):
    points = {i: min(col) - i for i, col in terms.items()}
    ymin = min(points.values())
    i0 = max(i for i, y in points.items() if y == ymin)
    edges = [(Fraction(0), i0)] if i0 > 0 else []
    chain = [p for p in _lower_hull(points.items()) if p[0] >= i0]
    for (xa, ya), (xb, yb) in zip(chain, chain[1:]):
        edges.append((Fraction(yb - ya, xb - xa), xb - xa))
    return edges


# -- operator families -----------------------------------------------


#: primes that divide no slope factor (p/q)^i of an edge polynomial
#: (p <= 3, q <= 10) and ramify in none of the tower fields (only 2 and
#: 3 do), so a constant with one of them to the first power is no
#: proper power in any base field of the benchmark
PRIMES = [p for p in range(11, COEFF_MAX + 1)
          if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def _constant(rng):
    """Plus or minus m * p with p in PRIMES and m <= 9.  By Eisenstein
    at a prime over p, Y^N - c * (small factors) is irreducible over each
    base field, so a ladder's or a binomial edge's roots form one Galois
    orbit.  Edge polynomials whose roots split into Galois orbits of
    unequal degree inside one zeta-orbit raise at the seed commit (the
    known defect that ``defect_operators`` measures), and reducible
    ladders of high degree run from seconds to minutes in the orbit
    merge there (x^11*D^10 - 64 over Q takes over 250 s)."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9)
                    * rng.choice(PRIMES))


def _small(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))


def ladder(rng, n):
    """x^(n+1)*D^n - c: one edge of slope 1/n."""
    c = _constant(rng)
    return OpInput({n: {n + 1: Fraction(1)}, 0: {0: -c}}, f"ladder-{n}")


def split_orbit(rng):
    """x^(q+p)*D^q - c^q: the edge polynomial splits into orbits of
    unequal degree; at the seed commit every member raises."""
    q = rng.choice((3, 4, 5, 6))
    p = rng.choice([a for a in (1, 2, 3, 5) if gcd(a, q) == 1])
    c = rng.randint(1, 5)
    return OpInput({q: {q + p: Fraction(1)}, 0: {0: Fraction(-c ** q)}},
                   "split-orbit")


def defect_operators(seed, seeded=4):
    """The ROADMAP split-orbit operators and ``seeded`` members of the
    split-orbit family.  They are kept out of the timed jobs, which must
    not fail, and run once per run of the routes workload so the known
    defect shows."""
    rng = random.Random(f"defect/{seed}")
    ops = [_fixed_operator(text) for text in SPLIT_ORBIT_OPERATORS]
    seen = {op.text for op in ops}
    while len(ops) < len(SPLIT_ORBIT_OPERATORS) + seeded:
        op = split_orbit(rng)
        if op.text not in seen:
            seen.add(op.text)
            ops.append(op)
    return ops


def _random_slope(rng, max_den, max_len):
    """(p, q, k): slope p/q in lowest terms and an edge of length k*q."""
    q = rng.randint(1, min(max_den, max_len))
    p = rng.choice([a for a in (1, 2, 3) if gcd(a, q) == 1])
    k = rng.randint(1, max_len // q)
    return p, q, k


def polygon_operator(rng, regular, edges, family):
    """An operator whose polygon is a flat part of length ``regular``
    followed by the given (p, q, k) edges, with extra terms strictly
    above the polygon so each coefficient has more than one term.

    An edge with q <= 2 gets seeded terms on its lattice points: its
    zeta-orbits {Y} or {Y, -Y} cannot split into Galois orbits of
    unequal degree.  An edge with q >= 3 is binomial, with a constant
    from ``_constant`` at its right end, so its edge polynomial is
    irreducible (see ``_constant``) whatever the seed."""
    heights = {i: Fraction(0) for i in range(regular + 1)}
    vertices = {0, regular}
    binomial_inner = set()
    prime_ends = {}
    primes = rng.sample(PRIMES, len(edges))
    x = regular
    for (p, q, k), prime in zip(edges, primes):
        for step in range(1, k * q + 1):
            heights[x + step] = heights[x] + Fraction(p * step, q)
        x += k * q
        vertices.add(x)
        if q >= 3:
            binomial_inner.update(range(x - k * q + 1, x))
            prime_ends[x] = prime
    order = x
    terms = {}
    for i in range(order + 1):
        h = heights.get(i)
        on_polygon = h is not None and h.denominator == 1
        if on_polygon and i in prime_ends:
            e, lead = int(h) + i, Fraction(
                rng.choice((-1, 1)) * rng.randint(1, 9) * prime_ends[i])
        elif on_polygon and (i in vertices or (
                i not in binomial_inner and rng.random() < 0.6)):
            e, lead = int(h) + i, _small(rng)
        elif rng.random() < 0.4:
            e, lead = int(h) + 1 + rng.randint(0, 1) + i, _small(rng)
        else:
            continue
        col = {e: lead}
        if rng.random() < 0.5:
            col[e + rng.randint(1, 2)] = _small(rng)
        terms[i] = col
    return OpInput(terms, family)


def one_slope(rng, order):
    p, q, k = _random_slope(rng, 6, order)
    return polygon_operator(rng, order - k * q, [(p, q, k)],
                            f"one-slope-{order}")


def two_slope(rng, order):
    while True:
        p1, q1, k1 = _random_slope(rng, 6, order - 1)
        rest = order - k1 * q1
        p2, q2, k2 = _random_slope(rng, 6, rest)
        if Fraction(p1, q1) == Fraction(p2, q2):
            continue
        edges = sorted([(p1, q1, k1), (p2, q2, k2)],
                       key=lambda e: Fraction(e[0], e[1]))
        return polygon_operator(rng, rest - k2 * q2, edges,
                                f"two-slope-{order}")


def shaped_operator(rng, regular, edges):
    """The polygon of a flat part of length ``regular`` and the given
    (p, q, k) edges; the seed picks the coefficients."""
    label = "+".join(f"{p}/{q}x{k * q}" for p, q, k in edges)
    return polygon_operator(rng, regular, edges, f"flat{regular}+{label}")


# -- workload rounds --------------------------------------------------
#
# Each route is a generator of rounds: one round is one pass over the
# route's fixed schedule of slots, and the seed fills in each slot.  A
# run takes jobs in round order, so every run sees the same mix.


class Fresh:
    """Draws inputs that have not occurred yet in this run."""

    def __init__(self, seed_text):
        self.rng = random.Random(seed_text)
        self.seen = set()

    def __call__(self, make, *args):
        for _ in range(1000):
            item = make(self.rng, *args)
            if item.key() not in self.seen:
                self.seen.add(item.key())
                return item
        raise RuntimeError(f"no unseen input left for {make.__name__}")


#: (flat part, positive edges (p, q, k) of slope p/q and length k*q) of
#: the multi-term op-q slots: orders 2-8, one or two positive slopes,
#: slope denominators 1-6.  Cost follows the polygon far more than the
#: seeded coefficients, so the polygons are fixed per slot, which keeps
#: the mix of cheap and dear jobs the same from seed to seed.
OP_Q_SHAPES = (
    (0, ((1, 1, 2),)), (0, ((2, 3, 1),)), (0, ((3, 2, 2),)),
    (1, ((1, 4, 1),)), (1, ((3, 5, 1),)), (1, ((2, 3, 2),)),
    (2, ((1, 6, 1),)), (0, ((1, 2, 1), (2, 1, 1))),
    (0, ((1, 3, 1), (1, 1, 1))), (0, ((1, 3, 1), (1, 2, 1))),
    (1, ((1, 3, 1), (1, 1, 2))), (0, ((3, 4, 1), (1, 1, 3))),
    (1, ((1, 5, 1), (3, 2, 1))),
)


def _op_q_slots():
    """Ladders n = 2..10 and the OP_Q_SHAPES, interleaved so cost is
    spread out."""
    slots = []
    for n in range(2, 11):
        slots.append((ladder, n))
        for shape in OP_Q_SHAPES[(n - 2) * 3 // 2:(n - 1) * 3 // 2]:
            slots.append((shaped_operator, *shape))
    return slots


def op_q_rounds(seed):
    fresh = Fresh(f"op-q/{seed}")
    slots = _op_q_slots()
    while True:
        yield [fresh(*slot) for slot in slots]


def _fixed_operator(text):
    """Term table of a two-term operator 'x^a*D^b - c'."""
    head, _, tail = text.partition(" - ")
    xpart, dpart = head.split("*")
    a, b = int(xpart[2:]), int(dpart[2:])
    return OpInput({b: {a: Fraction(1)}, 0: {0: Fraction(-int(tail))}},
                   "split-orbit-roadmap", text=text)


#: (base field, shape) of each op-tower slot: a ladder x^(n+1)*D^n - c,
#: or (flat part, positive edges (p, q, k)) as in OP_Q_SHAPES.  The
#: longest edge times the base degree bounds the absolute degree a job
#: reaches, and with it the job's cost, so the shapes are fixed per
#: slot; the largest, the ladder n = 8 over Q(sqrt 2), reaches the
#: default degree cap of 16.
TOWER_SLOTS = (
    ("adjoin: z^2-2", (0, ((1, 1, 2),))), ("adjoin: z^2+1", 3),
    ("adjoin: z^3-2", 3), ("adjoin: z^3-2", (1, ((1, 2, 1), (2, 1, 1)))),
    ("adjoin: z^2-2", 5), ("adjoin: z^2+1", 5),
    ("adjoin: z^2+1", 6), ("adjoin: z^2-2", 6),
    ("adjoin: z^2+1", (0, ((1, 2, 3),))),
    ("adjoin: z^2+1", (1, ((1, 3, 1), (2, 1, 2)))),
    ("adjoin: z^3-2", 4), ("adjoin: z^2-2", (0, ((1, 2, 2), (1, 1, 2)))),
    ("adjoin: z^2-2", 8),
)


def _tower_operator(rng, field, shape):
    op = ladder(rng, shape) if isinstance(shape, int) \
        else shaped_operator(rng, *shape)
    op.field = field
    op.family = f"{op.family}/{field[8:]}"
    return op


def op_tower_rounds(seed):
    fresh = Fresh(f"op-tower/{seed}")
    while True:
        yield [fresh(_tower_operator, *slot) for slot in TOWER_SLOTS]


def routes_rounds(seed):
    """One round of each of op_q_rounds, op_tower_rounds and
    matrix_rounds, interleaved evenly, so every stretch of a run mixes
    the three routes."""
    parts = (op_q_rounds(seed), op_tower_rounds(seed), matrix_rounds(seed))
    while True:
        batches = [next(part) for part in parts]
        order = sorted((Fraction(2 * i + 1, 2 * len(batch)), k, i)
                       for k, batch in enumerate(batches)
                       for i in range(len(batch)))
        yield [batches[k][i] for _, k, i in order]


def warm_routes():
    """Untimed warm-up inputs of every route; their constant is outside
    the timed range."""
    c = WARM_CONSTANT
    ops = []
    for field in ("Q", "adjoin: z^2-2", "adjoin: z^3-2"):
        ops.append(OpInput({3: {4: Fraction(1)}, 0: {0: Fraction(-c)}},
                           "warm", field=field))
        ops.append(OpInput({2: {3: Fraction(1)}, 1: {2: Fraction(1)},
                            0: {0: Fraction(-c)}}, "warm", field=field))
    return ops + [warm_matrix()]


# -- matrix route -----------------------------------------------------


class MatrixInput:
    """A direct sum of exp_module / regular_module pieces over Q.

    Each piece is (m, {j: Fraction}, rank) for the form sum c_j t^-j
    with t^m = x; an empty map is the regular piece (m = 1).  No form
    reduces to a smaller m, and no two pieces lie in one orbit."""

    __slots__ = ("pieces", "family")

    def __init__(self, pieces, family):
        self.pieces = pieces
        self.family = family

    @property
    def size(self):
        return sum(m * rank for m, _, rank in self.pieces)

    @property
    def irregularity(self):
        return sum((max(c) * rank for m, c, rank in self.pieces if c),
                   Fraction(0))

    def key(self):
        return tuple(sorted((m, tuple(sorted(c.items())), r)
                            for m, c, r in self.pieces))

    def expected_components(self):
        return sorted((form_orbit_key(m, c), rank, m if c else 1)
                      for m, c, rank in self.pieces)

    def describe(self):
        parts = []
        for m, c, rank in self.pieces:
            body = " + ".join(f"{v}*t^-{j}" for j, v in sorted(c.items()))
            parts.append(f"[{body or '0'}; m={m}; rank={rank}]")
        return " + ".join(parts)


def form_orbit_key(m, coeffs):
    """Key shared by a form and its conjugates under t -> zeta*t.

    Over Q with m <= 2 the orbit is the form and its image under
    t -> -t, which negates the odd-exponent coefficients."""
    items = tuple(sorted(coeffs.items()))
    if m == 1:
        return (1, items)
    flipped = tuple((j, -c if j % 2 else c) for j, c in items)
    return (m, min(items, flipped))


#: pieces (size, m, exponents j of the terms c_j t^-j) of each slot; a
#: piece of size s and ramification m has rank s / m, and no exponents
#: means the regular module.  The seed draws the coefficients.  Cost
#: depends on the shape far more than on the coefficients (at the seed
#: commit about 0.01-0.1 s at rank 2, 0.7-0.8 s for the rank-3 shapes
#: here, 0.07 s for three simple poles plus a regular part, 6 s for
#: 2/t^3 + 1/t with m = 2), so the schedule fixes the shapes.  The
#: rank-3 jobs take most of the matrix time and set the tail percentile
#: of the routes workload.  The rank-3 slot 2/t^3 + regular (m = 2) is
#: the catalog module sum-ramified-regular.
MATRIX_SLOTS = (
    ((1, 1, (1,)), (1, 1, ())),
    ((1, 1, (3,)), (1, 1, ())),
    ((1, 1, (3,)), (1, 1, (1,))),
    ((1, 1, (3,)), (1, 1, (1,))),
    ((1, 1, (1,)), (1, 1, (1,)), (1, 1, (1,)), (1, 1, ())),
    ((1, 1, (1,)), (1, 1, (1,)), (1, 1, (1,)), (1, 1, ())),
    ((1, 1, (2,)), (1, 1, (1,))),
    ((1, 1, (2,)), (1, 1, (1,)), (1, 1, ())),
    ((2, 2, (3,)), (1, 1, ())),
    ((1, 1, (3,)), (1, 1, (1,)), (1, 1, ())),
)

#: the rank-4 direct sum the ROADMAP times (2/t^3 + 1/t, m = 2); it is
#: in the first round, once per run
MATRIX_HEAVY = ((2, 2, (3,)), (2, 2, (1,)))


def _matrix_input(rng, spec):
    while True:
        # up to 99: a slot with one coefficient must not run out of
        # unseen inputs in a run, even when the code gets much faster
        pieces = [(m, {j: Fraction(rng.choice((-1, 1)) * rng.randint(1, 99))
                       for j in exps}, size // m) if exps
                  else (1, {}, size) for size, m, exps in spec]
        keys = [form_orbit_key(m, c) for m, c, _ in pieces]
        if len(set(keys)) == len(keys):
            break
    label = "+".join(f"m{m}p{max(exps)}" if exps else f"reg{size}"
                     for size, m, exps in spec)
    rank = sum(size for size, _, _ in spec)
    return MatrixInput(pieces, f"rank-{rank}/{label}")


def matrix_rounds(seed):
    fresh = Fresh(f"matrix-sums/{seed}")
    batch = [fresh(_matrix_input, MATRIX_HEAVY)]
    while True:
        yield batch + [fresh(_matrix_input, spec) for spec in MATRIX_SLOTS]
        batch = []


def warm_matrix():
    c = Fraction(WARM_CONSTANT)
    return MatrixInput([(1, {1: c}, 1), (1, {}, 1)], "warm")


# -- CLI requests -----------------------------------------------------


class CliRequest:
    """argv for one CLI process, with what its oracle needs."""

    __slots__ = ("argv", "golden", "op", "mode", "r", "field", "family")

    def __init__(self, argv, golden=None, op=None, mode=None, r=None,
                 field=None):
        self.argv = tuple(argv)
        self.golden = golden
        self.op = op
        self.mode = mode
        self.r = r
        self.field = field
        self.family = (f"golden/{golden}" if golden
                       else f"{mode}/{op.family}" if op else mode)

    def key(self):
        return self.argv

    def describe(self):
        return "ltdirac " + " ".join(self.argv)


#: (family, order, mode, field) of each generated cli-cold slot
CLI_SLOTS = (
    ("ladder", 3, "slopes", None),
    ("one", 4, "decompose", None),
    ("two", 4, "invariant", None),
    ("ladder", 4, "invariant", "adjoin: z^2+1"),
    ("one", 3, "slopes", "adjoin: z^2-2"),
    ("two", 5, "decompose", None),
    ("ladder", 2, "decompose", "adjoin: z^2-2"),
    ("one", 5, "invariant", None),
    ("two", 3, "slopes", "adjoin: z^2+1"),
)


def _cli_request(rng, make, order, mode, field):
    op = {"ladder": ladder, "one": one_slope, "two": two_slope}[make](
        rng, order)
    argv = ["--op", op.text, "--mode", mode]
    r = None
    if mode == "invariant":
        r = 1 + rng.choice(op.positive_slopes())
        if rng.random() < 0.5:
            argv += ["--r", f"{r.numerator}/{r.denominator}"]
        else:
            argv += ["--n", str(r.denominator), "--k", str(r.numerator)]
    if field:
        argv += ["--field", field]
    return CliRequest(argv, op=op, mode=mode, r=r, field=field)


def cli_rounds(seed):
    """The golden requests run once, interleaved with the first round."""
    fresh = Fresh(f"cli-cold/{seed}")
    first = True
    while True:
        batch = [fresh(_cli_request, *slot) for slot in CLI_SLOTS]
        if first:
            for pos, (name, argv) in enumerate(GOLDEN_REQUESTS):
                batch.insert(2 * pos, CliRequest(argv, golden=name))
            first = False
        yield batch


def warm_request():
    return CliRequest(("--op", f"x^2*D - {WARM_CONSTANT}", "--mode", "slopes"),
                      mode="slopes")


# -- oracles ----------------------------------------------------------


def check_decomposition(op, total_rank, irregularity):
    """None when rank and irregularity fit the polygon, else why."""
    if total_rank != op.order:
        return f"total rank {total_rank} != order {op.order}"
    if irregularity != op.irregularity:
        return f"irregularity {irregularity} != polygon {op.irregularity}"
    return None


def check_divisor(op, r, degree):
    """The divisor at r counts each component of x-degree <= r - 1 with
    weight orbit_size * rank^2, so its degree lies between the polygon
    length up to slope r - 1 and the square of that length."""
    mass = op.mass_up_to(r - 1)
    if not mass <= degree <= mass * mass:
        return (f"divisor degree {degree} at r={r} outside "
                f"[{mass}, {mass * mass}]")
    return None


def check_operator_job(op, total_rank, irregularity, divisors):
    """``divisors`` are (r, degree, rendering) for each r the job used."""
    reason = check_decomposition(op, total_rank, irregularity)
    if reason:
        return reason
    if [r for r, _, _ in divisors] != [1 + s for s in op.positive_slopes()]:
        return "divisors not computed at r = 1 + s for each slope s"
    for r, degree, rendered in divisors:
        reason = check_divisor(op, r, degree)
        if reason:
            return reason
        if not rendered or rendered == "0":
            return f"empty divisor rendered at r={r}"
    return None


def check_matrix_result(mat, components, total_rank, irregularity):
    """``components`` are (orbit key, rank, orbit size) read back."""
    if total_rank != mat.size:
        return f"total rank {total_rank} != size {mat.size}"
    if irregularity != mat.irregularity:
        return f"irregularity {irregularity} != {mat.irregularity}"
    if sorted(components) != mat.expected_components():
        return f"components {sorted(components)} != pieces"
    return None


def check_cli_output(req, code, stdout, golden_bytes):
    if code != 0:
        return f"exit code {code}"
    if req.golden is not None:
        if stdout != golden_bytes:
            return f"stdout differs from tests/golden/{req.golden}"
        return None
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if report.get("schema_version") != 1 or report.get("mode") != req.mode:
        return "schema_version or mode echo wrong"
    field = report.get("field", "")
    if field != "Q" if req.field is None else not field.startswith("Q["):
        return f"field echo {field!r}"
    op = req.op
    if req.mode == "slopes":
        got = [(Fraction(e["slope"]), e["multiplicity"])
               for e in report["slopes"]]
        if got != op.edges:
            return f"slopes {got} != polygon {op.edges}"
        return None
    if req.mode == "decompose":
        ranks = sum(c["rank"] * c["orbit_size"] for c in report["components"])
        if ranks != report["total_rank"]:
            return f"component ranks sum to {ranks}"
        return check_decomposition(op, report["total_rank"],
                                   Fraction(report["irregularity"]))
    if Fraction(report["r"]) != req.r:
        return f"r echo {report['r']} != {req.r}"
    degree = sum(e["multiplicity"] * e["degree"] for e in report["divisor"])
    return check_divisor(op, req.r, degree)
