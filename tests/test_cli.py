import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy as sp

from ltdirac import FieldHandle, UniPoly, parse_operator
from ltdirac.cli import JobSpec, _parse_field, main, run
from ltdirac.errors import (EXIT_CODES, DegreeCapExceeded, InternalError,
                            LTDiracError, ParseError, PrecisionExhausted,
                            Unsupported, exit_code_for)
from ltdirac.parsing import parse_polynomial

from catalog import GOLDEN, GOLDEN_JOBS


class TestGolden:
    @pytest.mark.parametrize("fname,argv", GOLDEN_JOBS,
                             ids=[f for f, _ in GOLDEN_JOBS])
    def test_byte_identity(self, fname, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / fname).read_text()

    def test_structured_output_is_stable_json(self, capsys):
        assert main(["--op", "x^2*D - 1", "--mode", "invariant",
                     "--r", "2"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["--op", "x*D - 5"]) == 0
        capsys.readouterr()

    def test_parse_error(self, capsys):
        assert main(["--op", "x^*D"]) == EXIT_CODES["parse-error"]
        assert "parse error" in capsys.readouterr().err

    def test_unsupported(self, capsys):
        argv = ["--op", "x*D - 5", "--mode", "invariant",
                "--n", "2", "--k", "1"]
        assert main(argv) == EXIT_CODES["unsupported"]
        capsys.readouterr()

    def test_degree_cap(self, capsys):
        argv = ["--op", "x^34*D^17 - 2", "--mode", "decompose"]
        assert main(argv) == EXIT_CODES["degree-cap-exceeded"]
        capsys.readouterr()

    def test_split_orbit_under_optimize(self):
        """Under python -O, where assert statements vanish, an operator
        whose ramified edge polynomial splits into Galois orbits of
        unequal degree gets its true total rank 3 and exit code 0."""
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "ltdirac.cli",
             "--op", "x^5*D^3 - 1", "--mode", "decompose"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["total_rank"] == 3
        assert [c["orbit_size"] for c in report["components"]] == [3]

    def test_unexpected_exception_is_one_line(self, capsys, monkeypatch):
        def broken(spec):
            return 1 // 0
        monkeypatch.setattr("ltdirac.cli.run", broken)
        assert main(["--op", "x*D - 5"]) == EXIT_CODES["internal-error"]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error [internal-error]: ZeroDivisionError: integer division " \
            "or modulo by zero\n"

    @pytest.mark.parametrize("argv,message", [
        (["--mode", "invariant", "--r", "2", "--n", "1", "--k", "2"],
         "error: mode=invariant needs exactly one of r or (n, k)\n"),
        (["--field", "Q(i)"],
         "error: bad field clause 'Q(i)'; expected 'adjoin: <poly>'\n")])
    def test_value_error(self, argv, message, capsys):
        assert main(["--op", "x^2*D - 1"] + argv) == 2
        assert capsys.readouterr().err == message

    def test_missing_operator(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_zero_denominator_slope(self, capsys):
        argv = ["--op", "x^2*D-1", "--mode", "invariant", "--r", "3/0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            "error: slope r '3/0' has a zero denominator\n"

    @pytest.mark.parametrize("text", [None, "{\"op\": ", "[\"op\"]"],
                             ids=["missing", "bad-json", "not-an-object"])
    def test_unreadable_config(self, text, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        if text is not None:
            cfg.write_text(text)
        assert main(["--config", str(cfg), "--op", "x^2*D - 1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("setting", [{"r": 2.5}, {"n": "2", "k": 3}],
                             ids=["r-float", "n-string"])
    def test_config_value_of_wrong_type(self, setting, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(dict(setting, op="x^3*D^2 - 1",
                                       mode="invariant")))
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config value ") and err.count("\n") == 1

    @pytest.mark.parametrize("setting,message", [
        ({"fmt": "xml"}, "error: unknown format 'xml'\n"),
        ({"mode": "spectra"}, "error: unknown mode 'spectra'\n")],
        ids=["fmt", "mode"])
    def test_config_value_out_of_choices(self, setting, message, capsys,
                                         tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(dict(setting, op="x^2*D-1")))
        assert main(["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)

    def test_code_table(self):
        assert exit_code_for(ParseError("x", 0, ())) == 2
        assert exit_code_for(Unsupported("x")) == 3
        assert exit_code_for(PrecisionExhausted("x")) == 4
        assert exit_code_for(DegreeCapExceeded("x")) == 5
        assert exit_code_for(InternalError("x")) == 6
        assert issubclass(InternalError, LTDiracError)


class TestInputChannels:
    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("x^2*D - 1\n"))
        assert main(["--op", "-", "--mode", "slopes"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["slopes"] == [{"multiplicity": 1, "slope": "1"}]

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"op": "x^2*D - 1", "mode": "invariant",
                                   "r": "2"}))
        assert main(["--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "invariant_pole_r2.json").read_text()

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"op": "x*D - 1", "mode": "slopes"}))
        assert main(["--config", str(cfg), "--op", "x^2*D - 1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["operator"] == "x^2*D - 1"

    def test_adjoined_field(self, capsys):
        assert main(["--op", "x^3*D^2 - 1", "--mode", "invariant",
                     "--r", "3/2", "--field", "adjoin: z^2+1"]) == 0
        report = json.loads(capsys.readouterr().out)
        polys = sorted(e["minpoly"] for e in report["divisor"])
        assert polys == ["y+1", "y-1"]


class TestTextFormat:
    MIXED = "x^3*D^2 - x*D + x^2*D - 1 + 5*x"

    def _text(self, argv, capsys):
        assert main(argv + ["--format", "text"]) == 0
        return capsys.readouterr().out

    def test_slopes(self, capsys):
        assert self._text(["--op", self.MIXED, "--mode", "slopes"],
                          capsys) == (
            "operator: x^3*D^2 + (-x+x^2)*D - 1+5*x\n"
            "field:    Q\n"
            "slopes:   0 (x1), 1 (x1)\n")

    def test_decompose(self, capsys):
        assert self._text(["--op", self.MIXED, "--mode", "decompose"],
                          capsys) == (
            "operator: x^3*D^2 + (-x+x^2)*D - 1+5*x\n"
            "field:    Q\n"
            "ram index: 1\n"
            "total rank: 2\n"
            "irregularity: 1\n"
            "  form 0 ; m=1  rank 1  orbit 1\n"
            "  form x^-1 ; m=1  rank 1  orbit 1\n")

    def test_linear_field_clause(self, capsys):
        """A linear clause adjoins a rational root: the field is Q again."""
        assert self._text(["--op", "x^2*D - 1", "--mode", "invariant",
                           "--r", "2", "--field", "adjoin: z-3"], capsys) == (
            "operator: x^2*D - 1\n"
            "field:    Q[z: z-3 = 0]\n"
            "r: 2\n"
            "divisor:\n"
            "  1 * (y+1)  [degree 1]\n")


class TestFieldClauses:
    @pytest.mark.parametrize("spec", [
        "adjoin: 1/z", "adjoin: z^0.5-1", "adjoin: z^2+sqrt(2)",
        "adjoin: z^2-w", "adjoin:", "adjoin: 3"])
    def test_bad_clause_is_a_parse_error(self, spec, capsys):
        assert main(["--op", "x^3*D^2 - 1", "--field", spec]) == \
            EXIT_CODES["parse-error"]
        assert capsys.readouterr().err.startswith("parse error: ")

    @pytest.mark.parametrize("spec", [
        "adjoin: z**2-2", "adjoin: 2*z^2-1", "adjoin: z^2 - 1/3",
        "adjoin: z^2-2", "adjoin: z^2-2; adjoin: w^2-3"])
    def test_clause_polynomials_match_sympy(self, spec):
        """Each clause gives the polynomial sympy's Poly reads from it."""
        field = FieldHandle.rationals()
        for clause in spec.split(";"):
            text = clause.strip()[len("adjoin:"):]
            name, poly = parse_polynomial(text, field)
            expr = sp.sympify(text.replace("^", "**"))
            (symbol,) = expr.free_symbols
            want = [Fraction(int(c.p), int(c.q))
                    for c in sp.Poly(expr, symbol).all_coeffs()]
            assert (name, poly) == (str(symbol), UniPoly(field, want))
            field = field.extend(poly, name)
        assert field == _parse_field(spec)


class TestJobSpec:
    def test_invariant_needs_r_or_nk(self):
        with pytest.raises(ValueError):
            JobSpec("x*D", mode="invariant")
        with pytest.raises(ValueError):
            JobSpec("x*D", mode="invariant", r="2", n=1, k=2)
        with pytest.raises(ValueError):
            JobSpec("x*D", mode="invariant", n=2)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            JobSpec("x*D", mode="spectra")

    def test_run_returns_structured_report(self):
        report = run(JobSpec("x^2*D - 1", mode="slopes"))
        assert report["slopes"] == [{"slope": "1", "multiplicity": 1}]


ROUND_TRIP_CORPUS = [
    "x*D - 5",
    "x^2*D - 1",
    "x^3*D^2 - 1",
    "x^3*D^2 - x*D + x^2*D - 1 + 5*x",
    "D + 1",
    "x^4*D^2 + 2*x^3*D + 1",
    "D*x",
    "3/2*x^2*D - x^-1",
    "x^-2*D^3 + 7",
    "-x*D + x^2 - 1/3",
]


class TestRenderRoundTrip:
    @pytest.mark.parametrize("expr", ROUND_TRIP_CORPUS)
    def test_parse_render_parse(self, expr):
        op = parse_operator(expr)
        again = parse_operator(op.render())
        assert again == op

    def test_render_is_fixed_point(self):
        for expr in ROUND_TRIP_CORPUS:
            text = parse_operator(expr).render()
            assert parse_operator(text).render() == text


class TestMonomialPowers:
    """x^N and D^N parse to monomials; they must equal the composition
    of N factors, and parenthesised or constant bases still compose."""

    def _composed(self, factor, n):
        out = parse_operator("1")
        for _ in range(n):
            out = out.compose(parse_operator(factor))
        return out

    @pytest.mark.parametrize("c, e, i", [(1, 0, 0), (3, 1, 1), (-2, 13, 8),
                                         (5, 4, 3), (7, -3, 2)])
    def test_c_x_e_d_i(self, c, e, i):
        x_part = (self._composed("x", e) if e >= 0
                  else self._composed("x^-1", -e))
        want = parse_operator(str(c)).compose(x_part).compose(
            self._composed("D", i))
        assert parse_operator(f"{c}*x^{e}*D^{i}") == want

    def test_parenthesised_bases(self):
        xd = parse_operator("x*D")
        assert parse_operator("(x*D)^3") == xd.compose(xd).compose(xd)
        assert parse_operator("(x)^-2") == parse_operator("x^-2")
        assert parse_operator("2^3*D") == parse_operator("8*D")

    @pytest.mark.parametrize("text", ["D^-1", "(x*D)^-2", "3^-1"])
    def test_negative_exponent_rejected(self, text):
        with pytest.raises(ParseError):
            parse_operator(text)
