import json
import pathlib
import sys

import pytest

from ccq import cli, polynomials
from ccq.errors import DegenerateCurve, ParseError
from ccq.parsing import parse_problem, serialize_problem

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
ALL_NAMES = sorted(p.stem for p in CORPUS.glob("*.json"))
COMMANDS = ("validate", "appsing", "topo", "connect")
CIRCLE = {"omega": "x2^2 + x1^2 - 1"}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "connect", str(CORPUS / "nodal_cubic_space.json"))
        assert code == 0
        assert json.loads(out) == {"components": 1, "partition": [[1, 2]]}

    def test_invalid_input(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(
            {"n": 2, "curve": {"omega": "2*x2^2 - 1"}}))
        code, _, err = run(capsys, "connect", str(f), "--components-only")
        assert code == 2
        assert "NotMonicInX2" in err

    def test_connect_needs_queries(self, capsys):
        code, _, err = run(capsys, "connect", str(CORPUS / "circle.json"))
        assert code == 2
        assert "components-only" in err

    def test_parse_error(self, capsys, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{\n  \"n\": 2,\n")
        code, _, err = run(capsys, "connect", str(f))
        assert code == 3
        assert "parse error" in err and "line" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "connect", "/nonexistent.json")
        assert code == 3

    @pytest.mark.parametrize("problem", [
        {"n": "abc", "curve": CIRCLE},
        {"n": 2.5, "curve": CIRCLE},
        {"n": 2, "curve": []},
        {"n": 3, "curve": {"omega": "x2^2 + x1^2 - 1", "rhos": "1"}},
        {"n": 2, "curve": CIRCLE, "queries": {"lambda": [[-2, "1"]]}},
        {"n": 2, "curve": {"omega": [["a", 2, "1"]]}},
        {"n": 2, "curve": {"omega": "(" * 3000 + "x2" + ")" * 3000}},
        '{"n": 2, "curve": {"omega": ' + "[" * 100000 + "]" * 100000 + "}}",
    ], ids=["n_string", "n_float", "curve_list", "rhos_string",
            "negative_exponent", "string_exponent", "deep_grammar", "deep_json"])
    def test_malformed_problem(self, capsys, tmp_path, problem):
        f = tmp_path / "malformed.json"
        f.write_text(problem if isinstance(problem, str) else json.dumps(problem))
        code, _, err = run(capsys, "validate", str(f))
        assert code == 3
        assert err.startswith("parse error:")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_not_square_free(self, capsys, tmp_path, command):
        f = tmp_path / "double.json"
        f.write_text(json.dumps({"n": 2, "curve": {"omega": "(x2^2 - x1)^2"}}))
        code, out, err = run(capsys, command, str(f), "--components-only")
        assert code == 2
        assert "NotSquareFree" in out + err

    def test_genericity_violation(self, capsys, tmp_path):
        f = tmp_path / "crit.json"
        f.write_text(json.dumps({
            "n": 2,
            "curve": {"omega": "x1^2 + x2^2 - 1"},
            "queries": {"lambda": "x1 - 1", "thetas": ["0"]},
        }))
        code, _, err = run(capsys, "connect", str(f))
        assert code == 4
        assert "genericity violation" in err

    def test_internal_degeneracy(self, capsys, monkeypatch):
        def boom(_):
            raise DegenerateCurve("synthetic")
        monkeypatch.setattr(cli, "apparent_singularities", boom)
        code, _, err = run(capsys, "appsing", str(CORPUS / "circle.json"))
        assert code == 5
        assert "degeneracy" in err


class TestCommands:
    def test_appsing_nodal(self, capsys):
        code, out, _ = run(capsys, "appsing",
                           str(CORPUS / "nodal_cubic_space.json"))
        assert code == 0
        data = json.loads(out)
        assert data["q_app"] == "x1"
        assert len(data["roots"]) == 1
        from fractions import Fraction as F
        assert F(data["roots"][0]["lo"]) <= 0 <= F(data["roots"][0]["hi"])

    def test_appsing_circle(self, capsys):
        code, out, _ = run(capsys, "appsing", str(CORPUS / "circle.json"))
        assert code == 0
        assert json.loads(out) == {"q_app": "1", "roots": []}

    def test_validate_circle(self, capsys):
        code, out, _ = run(capsys, "validate", str(CORPUS / "circle_query.json"))
        assert code == 0
        lines = out.splitlines()
        assert "pass: resultant_nonzero" in lines
        assert "pass: queries_on_curve" in lines
        assert "unknown: noether_position_H2" in lines

    def test_validate_invalid(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"n": 2, "curve": {"omega": "x1^2 - 1"}}))
        code, out, _ = run(capsys, "validate", str(f))
        assert code == 2
        assert any(line.startswith("fail:") for line in out.splitlines())

    def test_topo_dot(self, capsys, tmp_path):
        dot = tmp_path / "g.dot"
        svg = tmp_path / "g.svg"
        code, out, _ = run(capsys, "topo", str(CORPUS / "circle.json"),
                           "--dot", str(dot), "--svg", str(svg))
        assert code == 0
        assert out.startswith("graph topology {")
        assert out.count(" -- ") == 4
        assert dot.read_text().strip() == out.strip()
        text = svg.read_text()
        assert text.startswith("<svg") and "<circle" in text

    def test_connect_artifacts(self, capsys, tmp_path):
        dot = tmp_path / "c.dot"
        svg = tmp_path / "c.svg"
        code, out, _ = run(capsys, "connect",
                           str(CORPUS / "nodal_cubic_space.json"),
                           "--dot", str(dot), "--svg", str(svg))
        assert code == 0
        text = dot.read_text()
        assert "graph unresolved {" in text and "graph resolved {" in text
        assert 'id="unresolved"' in svg.read_text()

    def test_components_only(self, capsys):
        code, out, _ = run(capsys, "connect", str(CORPUS / "three_circles.json"),
                           "--components-only")
        assert code == 0
        assert json.loads(out)["components"] == 3

    def test_six_apparent_nodes(self, capsys, tmp_path):
        # two parabolas and a line cross in six points, all at irrational
        # abscissas and all apparent in the lift
        f = tmp_path / "six.json"
        f.write_text(json.dumps({"n": 3, "curve": {
            "omega": "(x2 - x1^2 + 2)*(x2 - 1/3*x1)*(x2 + 1/2*x1^2 - 5)",
            "rhos": ["x1^2 - 1/3*x1 - 2"]}}))
        code, out, _ = run(capsys, "connect", str(f), "--components-only")
        assert code == 0
        assert json.loads(out)["components"] == 3
        code, out, _ = run(capsys, "appsing", str(f))
        assert code == 0
        assert len(json.loads(out)["roots"]) == 6

    @pytest.mark.parametrize("name, want", [
        ("concentric_circles", {"components": 2, "partition": [[1], [2]]}),
        ("nodal_cubic_space_wide", {"components": 1, "partition": [[1, 2]]}),
        ("circle_irrational_queries", {"components": 1, "partition": [[1, 2]]}),
        ("circle_query", {"components": 1, "partition": [[1]]}),
    ])
    def test_connect_corpus(self, capsys, name, want):
        code, out, _ = run(capsys, "connect", str(CORPUS / f"{name}.json"))
        assert code == 0
        assert json.loads(out) == want


class TestElimination:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_elimination_per_command(self, capsys, monkeypatch, command):
        calls = {"resultant_x2": 0, "first_subresultant_x2": 0}
        for name in calls:
            fn = getattr(polynomials, name)

            def counted(*args, name=name, fn=fn):
                calls[name] += 1
                return fn(*args)

            # imported names are looked up in the importing module's globals
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name == "ccq" or mod_name.startswith("ccq."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            monkeypatch.setattr(mod, key, counted)
        code, _, _ = run(capsys, command, str(CORPUS / "nodal_cubic_space.json"))
        assert code == 0
        assert calls["resultant_x2"] == 1
        assert calls["first_subresultant_x2"] <= 1


class TestParsing:
    def test_grammar_error_position(self):
        with pytest.raises(ParseError) as ei:
            parse_problem(json.dumps(
                {"n": 2, "curve": {"omega": "x1 + @"}}))
        assert "line 1" in str(ei.value)

    def test_json_error_position(self):
        with pytest.raises(ParseError) as ei:
            parse_problem('{\n "n": 2,,\n}')
        assert ei.value.line == 2

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_round_trip(self, name):
        pf = parse_problem((CORPUS / f"{name}.json").read_text())
        pf2 = parse_problem(serialize_problem(pf))
        assert pf2.curve.omega == pf.curve.omega
        assert pf2.curve.rhos == pf.curve.rhos
        assert pf2.curve.n == pf.curve.n
        if pf.queries is None:
            assert pf2.queries is None
        else:
            assert pf2.queries.lam == pf.queries.lam
            assert pf2.queries.thetas == pf.queries.thetas

    def test_term_list_form(self):
        pf = parse_problem(json.dumps({
            "n": 2,
            "curve": {"omega": [[2, 0, "1"], [0, 2, "1"], [0, 0, "-1"]]},
            "queries": {"lambda": [[1, "1"], [0, "-3/5"]], "thetas": [[[0, "4/5"]]]},
        }))
        from ccq.polynomials import BiPoly, UniPoly
        from fractions import Fraction as F
        assert pf.curve.omega == BiPoly([(2, 0, 1), (0, 2, 1), (0, 0, -1)])
        assert pf.queries.lam == UniPoly([F(-3, 5), 1])


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "connect",
                               str(CORPUS / "concentric_circles.json"))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
