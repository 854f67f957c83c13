"""Layer micro-probes: single operations timed in isolation.

Each probe reports the median over a few repetitions, so one slow
repetition (a collection, a cache miss) does not move it.  Inputs are
fixed: the probes measure the layers, not the workload mix.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter


def _median_time(fn, reps, inner=1):
    samples = []
    for _ in range(reps):
        start = perf_counter()
        for _ in range(inner):
            fn()
        samples.append((perf_counter() - start) / inner)
    return statistics.median(samples)


def _dense_element(field, gens, rng):
    """A field element with every absolute coordinate nonzero."""
    acc = field.element(Fraction(rng.randint(1, 9), rng.randint(1, 5)))
    for g in gens:
        acc = acc * (g + rng.randint(1, 7)) + Fraction(rng.randint(1, 9))
    return acc


def run_probes(lt):
    """Return {metric name: (value, unit)} for every micro-probe."""
    FieldHandle, UniPoly = lt.exactalg.FieldHandle, lt.exactalg.UniPoly
    LaurentSeries = lt.series.LaurentSeries
    poly_factor = lt.exactalg.poly_factor
    rng = random.Random(20121)
    out = {}

    q = FieldHandle.rationals()
    k2 = q.extend(UniPoly(q, [1, 0, -2]), "z")
    k4 = k2.extend(UniPoly(k2, [1, 0, -3]), "w")
    k8 = k4.extend(UniPoly(k4, [1, 0, -5]), "v")
    # (field, generators, operations per timed batch for mul and inverse)
    fields = {
        "q": (q, [q.element(3)], 200, 50),
        "sqrt2": (k2, [k2.gen()], 200, 20),
        "deg8": (k8, [k8.embed(k2.gen()), k8.embed(k4.gen()), k8.gen()],
                 20, 5),
    }
    for tag, (field, gens, n_mul, n_inv) in fields.items():
        a = _dense_element(field, gens, rng)
        b = _dense_element(field, gens, rng)
        out[f"probe.alg_mul_{tag}_us"] = (
            1e6 * _median_time(lambda: a * b, 7, n_mul), "us")
        out[f"probe.alg_inv_{tag}_us"] = (
            1e6 * _median_time(a.inverse, 7, n_inv), "us")

    for prec, reps in ((32, 5), (128, 3)):
        coeffs = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                  for _ in range(prec)]
        s = LaurentSeries(q, {i: c for i, c in enumerate(coeffs)}, prec)
        t = LaurentSeries(q, {i: c for i, c in enumerate(reversed(coeffs))},
                          prec)
        out[f"probe.series_mul_p{prec}_ms"] = (
            1e3 * _median_time(lambda: s * t, reps), "ms")
        out[f"probe.series_inv_p{prec}_ms"] = (
            1e3 * _median_time(s.inverse, reps), "ms")

    # edge polynomials of ramified ladders: Y^n - c*n^n over Q and Q(sqrt 2)
    edges = [UniPoly(field, [1] + [0] * (n - 1) + [-c * n ** n])
             for field in (q, k2) for n, c in ((4, 3), (6, 5), (8, 7))]
    out["probe.poly_factor_edge_ms"] = (
        1e3 * _median_time(lambda: [poly_factor(e) for e in edges], 3)
        / len(edges), "ms")

    out["probe.extend_ms"] = (
        1e3 * _median_time(
            lambda: k2.extend(UniPoly(k2, [1, 0, 0, -3]), "u"), 3), "ms")
    return out
