"""Command-line front end.

Parses an operator expression, runs the requested pipeline stage and
prints either a human-readable report or a stable JSON document with a
top-level schema_version.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .diffop import slopes
from .errors import InternalError, LTDiracError, ParseError, exit_code_for
from .exactalg import FieldHandle
from .invariant import as_invariant, as_invariant_nk
from .parsing import parse_operator, parse_polynomial
from .turrittin import irregularity, lt_decompose

SCHEMA_VERSION = 1


class JobSpec:
    __slots__ = ("operator", "field", "mode", "r", "n", "k", "fmt")

    def __init__(self, operator, field="Q", mode="slopes", r=None, n=None,
                 k=None, fmt="structured"):
        self.operator = operator
        self.field = field
        self.mode = mode
        self.r = r
        self.n = n
        self.k = k
        self.fmt = fmt
        if mode not in ("slopes", "decompose", "invariant"):
            raise ValueError(f"unknown mode {mode!r}")
        if fmt not in ("text", "structured"):
            raise ValueError(f"unknown format {fmt!r}")
        if mode == "invariant":
            has_r = r is not None
            has_nk = n is not None or k is not None
            if has_r == has_nk:
                raise ValueError(
                    "mode=invariant needs exactly one of r or (n, k)")
            if has_nk and (n is None or k is None):
                raise ValueError("n and k must be given together")


def _parse_field(spec):
    field = FieldHandle.rationals()
    spec = (spec or "Q").strip()
    if spec in ("Q", "q", ""):
        return field
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause.startswith("adjoin:"):
            raise ValueError(
                f"bad field clause {clause!r}; expected 'adjoin: <poly>'")
        # a parse error's position counts from just after 'adjoin:'
        name, poly = parse_polynomial(clause[len("adjoin:"):], field)
        field = field.extend(poly, name)
    return field


def _parse_r(text):
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if int(den) == 0:
            raise ValueError(f"slope r {text!r} has a zero denominator")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def run(spec):
    """Execute one job; returns the report as a dict (structured form)."""
    field = _parse_field(spec.field)
    operator = parse_operator(spec.operator, field)
    report = {
        "schema_version": SCHEMA_VERSION,
        "mode": spec.mode,
        "operator": operator.render(),
        "field": field.describe(),
    }
    if spec.mode == "slopes":
        report["slopes"] = [
            {"slope": str(s), "multiplicity": m}
            for s, m in slopes(operator)]
        return report
    dec = lt_decompose(operator)
    if spec.mode == "decompose":
        report["ram_index"] = dec.ram_index
        report["total_rank"] = dec.total_rank
        report["irregularity"] = str(irregularity(dec))
        report["components"] = [
            {"form": c.form.render(), "rank": c.rank,
             "orbit_size": c.orbit_size}
            for c in dec.components]
        return report
    if spec.r is not None:
        r = spec.r if isinstance(spec.r, Fraction) else _parse_r(spec.r)
        divisor = as_invariant(dec, r)
        report["r"] = str(r)
    else:
        divisor = as_invariant_nk(dec, spec.n, spec.k)
        report["n"] = spec.n
        report["k"] = spec.k
        report["r"] = str(Fraction(spec.k, spec.n))
    report["divisor"] = divisor.serialize()
    return report


def _render_text(report):
    lines = [f"operator: {report['operator']}",
             f"field:    {report['field']}"]
    if report["mode"] == "slopes":
        body = ", ".join(f"{e['slope']} (x{e['multiplicity']})"
                         for e in report["slopes"])
        lines.append(f"slopes:   {body}")
    elif report["mode"] == "decompose":
        lines.append(f"ram index: {report['ram_index']}")
        lines.append(f"total rank: {report['total_rank']}")
        lines.append(f"irregularity: {report['irregularity']}")
        for c in report["components"]:
            lines.append(f"  form {c['form']}  rank {c['rank']}"
                         f"  orbit {c['orbit_size']}")
    else:
        lines.append(f"r: {report['r']}")
        if not report["divisor"]:
            lines.append("divisor: 0")
        else:
            lines.append("divisor:")
            for e in report["divisor"]:
                lines.append(f"  {e['multiplicity']} * ({e['minpoly']})"
                             f"  [degree {e['degree']}]")
    return "\n".join(lines)


def _build_argparser():
    ap = argparse.ArgumentParser(
        prog="ltdirac",
        description="Slopes, exponential decomposition and the refined "
                    "divisor of a differential operator over K((x)).")
    ap.add_argument("--op", required=False,
                    help="operator expression, e.g. 'x^3*D^2 - 1'; "
                         "'-' reads from stdin")
    ap.add_argument("--field", default=None,
                    help="base field: 'Q' or 'adjoin: z^2+1' clauses "
                         "separated by ';'")
    ap.add_argument("--mode", default=None,
                    choices=["slopes", "decompose", "invariant"])
    ap.add_argument("--r", default=None, help="slope r as 'p/q' (> 1)")
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--k", type=int, default=None)
    ap.add_argument("--format", dest="fmt", default=None,
                    choices=["text", "structured"])
    ap.add_argument("--config", default=None,
                    help="JSON file with default values for the flags")
    return ap


#: the JSON type of each setting, given by the flag of the same name or
#: by a key of the --config file
_SETTING_TYPES = {"op": str, "field": str, "mode": str, "r": str, "n": int,
                  "k": int, "fmt": str}


def _settings(args):
    """The operator text and JobSpec's other keyword arguments, each flag
    over the --config file; what neither gives keeps JobSpec's default.
    ValueError when the file cannot be read or is not a JSON object,
    gives a setting a value of the wrong type (null leaves it unset), or
    when no operator is given."""
    loaded = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                loaded = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read config: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError("config is not a JSON object")
    settings = {}
    for key, kind in _SETTING_TYPES.items():
        value = loaded.get(key)
        if value is not None and type(value) is not kind:
            raise ValueError(f"config value {key!r} must be of type "
                             f"{kind.__name__}, not {type(value).__name__}")
        if getattr(args, key) is not None:
            value = getattr(args, key)
        if value is not None:
            settings[key] = value
    op = settings.pop("op", None)
    if op is None:
        raise ValueError("no operator given (--op or config)")
    return (sys.stdin.read().strip() if op == "-" else op), settings


def main(argv=None):
    args = _build_argparser().parse_args(argv)
    try:
        op, settings = _settings(args)
        spec = JobSpec(op, **settings)
        report = run(spec)
    except ParseError as exc:
        print(f"parse error: {exc} (position {exc.position}, "
              f"expected one of {', '.join(exc.expected)})", file=sys.stderr)
        return exit_code_for(exc)
    except LTDiracError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: one line on stderr, no traceback
        error = InternalError(" ".join(f"{type(exc).__name__}: {exc}".split()))
        print(f"error [{error.code}]: {error}", file=sys.stderr)
        return exit_code_for(error)
    if spec.fmt == "text":
        print(_render_text(report))
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
