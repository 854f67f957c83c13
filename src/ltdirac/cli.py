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


def run(op, field="Q", mode="slopes", r=None, n=None, k=None):
    """Execute one job on the operator text ``op`` and return its report
    (the structured form).  Mode invariant takes either the slope ``r``
    (text 'p/q' or a Fraction) or both ``n`` and ``k`` (r = k/n), else
    ValueError before the field or the operator is parsed."""
    if mode == "invariant" and (r is None) == (n is None and k is None):
        raise ValueError("mode=invariant needs exactly one of r or (n, k)")
    if mode == "invariant" and (n is None) != (k is None):
        raise ValueError("n and k must be given together")
    field = _parse_field(field)
    operator = parse_operator(op, field)
    report = {
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "operator": operator.render(),
        "field": field.describe(),
    }
    if mode == "slopes":
        report["slopes"] = [
            {"slope": str(s), "multiplicity": m}
            for s, m in slopes(operator)]
        return report
    dec = lt_decompose(operator)
    if mode == "decompose":
        report["ram_index"] = dec.ram_index
        report["total_rank"] = dec.total_rank
        report["irregularity"] = str(irregularity(dec))
        report["components"] = [
            {"form": c.form.render(), "rank": c.rank,
             "orbit_size": c.orbit_size}
            for c in dec.components]
        return report
    if r is not None:
        r = r if isinstance(r, Fraction) else _parse_r(r)
        divisor = as_invariant(dec, r)
        report["r"] = str(r)
    else:
        divisor = as_invariant_nk(dec, n, k)
        report.update(n=n, k=k, r=str(Fraction(k, n)))
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


#: each setting, given by its flag or by the key of the same name in the
#: --config file: its JSON type and, for a setting that takes one of a
#: few words, the name its error gives it and those words
_SETTING_TYPES = {
    "op": (str, None, ()), "field": (str, None, ()),
    "mode": (str, "mode", ("slopes", "decompose", "invariant")),
    "r": (str, None, ()), "n": (int, None, ()), "k": (int, None, ()),
    "fmt": (str, "format", ("text", "structured"))}


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
                    choices=_SETTING_TYPES["mode"][2])
    ap.add_argument("--r", default=None, help="slope r as 'p/q' (> 1)")
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--k", type=int, default=None)
    ap.add_argument("--format", dest="fmt", default=None,
                    choices=_SETTING_TYPES["fmt"][2])
    ap.add_argument("--config", default=None,
                    help="JSON file with default values for the flags")
    return ap


def _settings(args):
    """The job's settings by name, each flag over the --config file; what
    neither gives is left out, so ``run`` and ``main`` keep their
    defaults, and the operator '-' is read from stdin.  ValueError when
    the file cannot be read or is not a JSON object, gives a setting a
    value of the wrong type (null leaves it unset), when no operator is
    given, or when a value is not one of its setting's choices."""
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
    for key, (kind, _, _) in _SETTING_TYPES.items():
        value = loaded.get(key)
        if value is not None and type(value) is not kind:
            raise ValueError(f"config value {key!r} must be of type "
                             f"{kind.__name__}, not {type(value).__name__}")
        if getattr(args, key) is not None:
            value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if "op" not in settings:
        raise ValueError("no operator given (--op or config)")
    for key, (_, name, words) in _SETTING_TYPES.items():
        if words and key in settings and settings[key] not in words:
            raise ValueError(f"unknown {name} {settings[key]!r}")
    if settings["op"] == "-":
        settings["op"] = sys.stdin.read().strip()
    return settings


def main(argv=None):
    args = _build_argparser().parse_args(argv)
    try:
        settings = _settings(args)
        fmt = settings.pop("fmt", "structured")
        report = run(**settings)
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
    if fmt == "text":
        print(_render_text(report))
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
