import hashlib
import io
import json
import sys
import time
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validate

from behrend.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "behrend" / "schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    validate(payload, SCHEMA)
    assert out == json.dumps(payload) + "\n"  # one compact line, as the C encoder writes it
    return payload


SAME_BRANCH_PAIR = "tower(x; g=y; exps=[2, 3]) * tower(x; g=2 y; exps=[1, 2])"


# The full DOT and SVG of `dynkin` for GOLDEN_PRODUCT: a non-monomial tangent,
# an m, a node with two factors and two contracted nodes
GOLDEN_PRODUCT = (
    "tower(x; g = y - 1/2*y^2; exps = [2, 4]) * tower(x; g = y; exps = [2, 3]) "
    "* tower(y; g = 0; exps = [3]) * m"
)
GOLDEN_DOT = (
    'graph dynkin {\n'
    '  rankdir=BT;\n'
    '  node [shape=circle];\n'
    '  n0 [label="m\\nself-int -3, mult 6, kept"];\n'
    '  n1 [label="(x + y) + m^2, (x + y - 1/2*y^2) + m^2\\nself-int -3, mult 10, kept"];\n'
    '  n2 [label="level 2\\nself-int -2, mult 7, contracted", style=dashed];\n'
    '  n3 [label="level 3\\nself-int -2, mult 11, contracted", style=dashed];\n'
    '  n4 [label="(x + y) + m^3\\nself-int -1, mult 11, kept"];\n'
    '  n5 [label="(y) + m^3\\nself-int -1, mult 8, kept"];\n'
    '  n6 [label="(x + y - 1/2*y^2) + m^4\\nself-int -1, mult 12, kept"];\n'
    '  { rank=same; n0; }\n'
    '  { rank=same; n1; n2; }\n'
    '  { rank=same; n3; n4; n5; }\n'
    '  { rank=same; n6; }\n'
    '  n0 -- n1;\n'
    '  n0 -- n2;\n'
    '  n1 -- n3;\n'
    '  n1 -- n4;\n'
    '  n2 -- n5;\n'
    '  n3 -- n6;\n'
    '}\n'
)
GOLDEN_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="400" viewBox="0 0 600 400">\n'
    '<line x1="150" y1="320" x2="150" y2="240" stroke="black"/>\n'
    '<line x1="150" y1="320" x2="300" y2="240" stroke="black"/>\n'
    '<line x1="150" y1="240" x2="150" y2="160" stroke="black"/>\n'
    '<line x1="150" y1="240" x2="300" y2="160" stroke="black"/>\n'
    '<line x1="300" y1="240" x2="450" y2="160" stroke="black"/>\n'
    '<line x1="150" y1="160" x2="150" y2="80" stroke="black"/>\n'
    '<circle cx="150" cy="320" r="12" fill="#cfe2ff" stroke="black"/>\n'
    '<text x="166" y="316" font-size="11">m</text>\n'
    '<text x="166" y="330" font-size="11">-3, mult 6</text>\n'
    '<circle cx="150" cy="240" r="12" fill="#cfe2ff" stroke="black"/>\n'
    '<text x="166" y="236" font-size="11">(x + y) + m^2, (x + y - 1/2*y^2) + m^2</text>\n'
    '<text x="166" y="250" font-size="11">-3, mult 10</text>\n'
    '<circle cx="300" cy="240" r="12" fill="white" stroke="black" stroke-dasharray="4 2"/>\n'
    '<text x="316" y="236" font-size="11">level 2</text>\n'
    '<text x="316" y="250" font-size="11">-2, mult 7</text>\n'
    '<circle cx="150" cy="160" r="12" fill="white" stroke="black" stroke-dasharray="4 2"/>\n'
    '<text x="166" y="156" font-size="11">level 3</text>\n'
    '<text x="166" y="170" font-size="11">-2, mult 11</text>\n'
    '<circle cx="300" cy="160" r="12" fill="#cfe2ff" stroke="black"/>\n'
    '<text x="316" y="156" font-size="11">(x + y) + m^3</text>\n'
    '<text x="316" y="170" font-size="11">-1, mult 11</text>\n'
    '<circle cx="450" cy="160" r="12" fill="#cfe2ff" stroke="black"/>\n'
    '<text x="466" y="156" font-size="11">(y) + m^3</text>\n'
    '<text x="466" y="170" font-size="11">-1, mult 8</text>\n'
    '<circle cx="150" cy="80" r="12" fill="#cfe2ff" stroke="black"/>\n'
    '<text x="166" y="76" font-size="11">(x + y - 1/2*y^2) + m^4</text>\n'
    '<text x="166" y="90" font-size="11">-1, mult 12</text>\n'
    '</svg>'
)


class TestCommands:
    def test_nu_text(self, capsys):
        code, out, _ = run(capsys, "nu", "(x y, x^4, y^3)")
        assert code == 0
        assert "nu = 7" in out and "length = 6" in out
        assert "(1, 3)" in out and "(2, 1)" in out

    def test_nu_json(self, capsys):
        payload = run_json(capsys, "nu", "(x^2, x y^2, y^3)")
        assert payload["nu"] == 6 and payload["length"] == 5 and payload["normal"]

    def test_nu_tower_engine(self, capsys):
        code, out, _ = run(capsys, "nu", "tower(x; g = y; exps = [2, 3])")
        assert code == 0 and "nu = " in out

    def test_length(self, capsys):
        code, out, _ = run(capsys, "length", "m^4")
        assert code == 0 and out.strip() == "length = 10"

    def test_length_tower_closed_form(self, capsys):
        code, out, _ = run(capsys, "length", "tower(x; g = y; exps = [1, 2, 3])")
        assert code == 0 and out.strip() == "length = 10"

    def test_length_three_towers(self, capsys):
        # no closed form covers it; the diagram's length, checked against
        # tests/test_towers.py::linear_algebra_length
        code, out, err = run(
            capsys,
            "length",
            "tower(x; g=y; exps=[1,2]) * tower(x; g=0; exps=[1,2]) "
            "* tower(y; g=0; exps=[1,2])",
        )
        assert (code, out, err) == (0, "length = 24\n", "")

    def test_length_same_branch_pair(self, capsys):
        code, out, err = run(capsys, "length", SAME_BRANCH_PAIR)
        assert (code, out, err) == (0, "length = 15\n", "")

    def test_nu_carries_the_length(self, capsys):
        code, out, _ = run(capsys, "nu", SAME_BRANCH_PAIR)
        assert code == 0 and out.splitlines()[:2] == ["nu = 22", "length = 15"]
        payload = run_json(capsys, "nu", SAME_BRANCH_PAIR)
        assert payload["nu"] == 22 and payload["length"] == 15

    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "normalize", "(x^2, y^3)")
        assert code == 0 and out.strip() == "(x^2, x y^2, y^3)"

    def test_normal_query(self, capsys):
        code, out, _ = run(capsys, "normal?", "(x^2, y^2)")
        assert code == 0 and out.strip() == "not normal"
        code, out, _ = run(capsys, "normal", "(x^6, x^4 y, x^2 y^2, x y^3, y^5)")
        assert code == 0 and out.strip() == "normal"

    def test_factor(self, capsys):
        code, out, _ = run(capsys, "factor", "(x^6, x^4 y, x^2 y^2, x y^3, y^5)")
        assert code == 0 and out.strip() == "n(1,2) * n(1,1) * n(2,1)^2"

    def test_fan(self, capsys):
        payload = run_json(capsys, "fan", "(x^2, x y^2, y^3)")
        assert payload["rays"] == [[1, 0], [3, 2], [0, 1]]
        assert [c["index"] for c in payload["cones"]] == [2, 3]

    def test_ferrers(self, capsys):
        code, out, _ = run(capsys, "ferrers", "(x^2, x y^2, y^3)")
        assert code == 0
        assert out.splitlines() == ["#", "# #", "# #"]

    def test_dynkin_dot(self, capsys):
        code, out, _ = run(
            capsys, "dynkin", "tower(x; g=0; exps=[2]) * tower(y; g=0; exps=[3])"
        )
        assert code == 0
        assert out.startswith("graph dynkin {") and "rank=same" in out
        assert out.count(" -- ") == 3

    def test_dynkin_dot_and_svg_golden(self, capsys, tmp_path):
        target = tmp_path / "out.svg"
        code, out, err = run(capsys, "dynkin", GOLDEN_PRODUCT, "--svg", str(target))
        assert (code, out, err) == (0, GOLDEN_DOT, "")
        assert target.read_text() == GOLDEN_SVG

    def test_dynkin_json(self, capsys):
        payload = run_json(capsys, "dynkin", "tower(y; g = 0; exps = [1, 2, 3])")
        assert payload["nu"] == 14
        assert [n["self_intersection"] for n in payload["nodes"]] == [-2, -2, -1]

    def test_verify_quick(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "2", "--bounds", "quick")
        assert code == 0
        assert "0 fail" in out

    def test_verify_json(self, capsys):
        payload = run_json(capsys, "verify", "--seed", "2", "--bounds", "quick")
        assert payload["counts"]["fail"] == 0
        assert all(r["status"] != "fail" for r in payload["results"])

    def test_verify_default_json_is_pinned(self, capsys):
        # the whole stdout: the envelope, str() of each value and the counts
        code, out, _ = run(capsys, "verify", "--format", "json", "--seed", "0")
        assert code == 0
        digest = "f17f0d781234a400a89a11a22adc4c129280eabdeebd5221416e3b706e2996f5"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bounds_choices_are_the_verify_presets(self):
        # cli writes the preset names out so that parsing does not import verify
        from behrend.cli import CHOICES, COMMANDS
        from behrend.verify import PRESETS

        assert "--bounds" in COMMANDS["verify"][2]
        assert list(CHOICES["--bounds"]) == sorted(PRESETS)


# one case per JSON kind that no other test validates, with pinned values
JSON_KINDS = [
    ("length", "(x^3, x y, y^2)", "length", {"length": 4}),
    (
        "normalize",
        "(x^2, y^3)",
        "ideal",
        {"generators": [[0, 3], [1, 2], [2, 0]], "text": "(x^2, x y^2, y^3)"},
    ),
    ("normal?", "(x^2, y^2)", "normal", {"normal": False}),
    (
        "factor",
        "(x^6, x^4 y, x^2 y^2, x y^3, y^5)",
        "factorization",
        {
            "factors": [
                {"alpha": 1, "beta": 2, "delta": 1},
                {"alpha": 1, "beta": 1, "delta": 1},
                {"alpha": 2, "beta": 1, "delta": 2},
            ]
        },
    ),
    ("ferrers", "(x^3, x y, y^2)", "ferrers", {"column_heights": [2, 1, 1]}),
    (
        "nu",
        "tower(x; g = y; exps = [2, 3])",
        "nu",
        {
            "nu": 9,
            "length": 7,
            "nodes": [
                {"level": 1, "members": [0], "factors": [], "self_intersection": -2,
                 "multiplicity": 2, "surviving": False},
                {"level": 2, "members": [0], "factors": [[0, 2]], "self_intersection": -2,
                 "multiplicity": 4, "surviving": True},
                {"level": 3, "members": [0], "factors": [[0, 3]], "self_intersection": -1,
                 "multiplicity": 5, "surviving": True},
            ],
            "edges": [[0, 1], [1, 2]],
        },
    ),
]


class TestJsonKinds:
    @pytest.mark.parametrize("command,expr,kind,fields", JSON_KINDS)
    def test_kind_validates_with_pinned_values(self, capsys, command, expr, kind, fields):
        payload = run_json(capsys, command, expr)
        assert payload == {"schema_version": 1, "kind": kind, **fields}

    def test_non_normal_nu_notes_the_upper_bound(self, capsys):
        code, out, _ = run(capsys, "nu", "(x^2, y^2)")
        assert code == 0
        assert out.splitlines() == [
            "nu = 4",
            "length = 4",
            "normal = false",
            "components (ray, e, d, d*e):",
            "  (1, 1)  e=2  d=2  4",
            "note: component count is an upper bound for non-normal ideals",
        ]

    def test_verify_reports_a_failed_check(self, capsys, monkeypatch):
        import behrend.verify
        from behrend.verify import CheckResult

        results = [
            CheckResult("nu/a", "i", 3, 3, "pass"),
            CheckResult("nu/a", "j", 4, 5, "fail"),
            CheckResult("nu/b", "k", 1, 1, "pass"),
        ]
        # cli imports run_all from verify when the command runs, so patch its home
        monkeypatch.setattr(behrend.verify, "run_all", lambda seed, bounds: results)
        code, out, _ = run(capsys, "verify", "--bounds", "quick")
        assert code == 2
        assert out.splitlines() == [
            "seed = 0, bounds = quick",
            "  nu/a: 1/2 pass",
            "  nu/b: 1/1 pass",
            "  FAIL nu/a [j]: expected 4, got 5",
            "total: 2 pass, 1 fail, 0 inconclusive",
        ]


# argv, exit code, and the stream left empty: help goes to stdout, a refused
# command line to stderr as a usage line and an error line
COMMAND_LINES = [
    (["--help"], 0, "err"),
    (["nu", "--help"], 0, "err"),
    (["frobnicate", "m"], 2, "out"),
    (["nu"], 2, "out"),
    (["length", "m^2", "--format=json"], 0, "err"),
    (["length", "m^2", "--form", "json"], 0, "err"),
    (["length", "m^2", "--format", "xml"], 2, "out"),
    (["nu", "--svg", "p.svg", "m"], 2, "out"),
    (["verify", "--seed", "x"], 2, "out"),
    (["verify", "--bounds", "quick", "--seed", "3"], 0, "err"),
    (["normal", "m^2"], 0, "err"),
    (["nu", "-2"], 1, "out"),  # a negative number is an expression, not an option
    (["normal?", "-2m^4"], 2, "out"),
    (["normal?", "--", "-2m^4"], 1, "out"),
]


@pytest.mark.parametrize("argv,code,empty", COMMAND_LINES)
def test_command_line_forms(capsys, monkeypatch, tmp_path, argv, code, empty):
    monkeypatch.delenv("BEHREND_FORMAT", raising=False)
    monkeypatch.chdir(tmp_path)
    try:
        actual = main(argv)
    except SystemExit as stop:  # help and refusals end the process
        actual = stop.code
    out, err = capsys.readouterr()
    assert actual == code
    assert {"out": out, "err": err}[empty] == "" and (out or err)
    if code == 2:
        assert err.startswith("usage: ") and "error: " in err.splitlines()[-1]
    assert list(tmp_path.iterdir()) == []


def over_the_cap(count):
    return f"unsupported: the product has {count} tower factors, above the diagram cap of 150000"


class TestExitCodes:
    def test_syntax_error(self, capsys):
        code, _, err = run(capsys, "nu", "(x^2,,)")
        assert code == 1 and "^" in err

    @pytest.mark.parametrize("expr", ["(x^\u00b2, y)", "(x^\u0663, y)", "(\u00e9, y)"])
    def test_non_ascii_is_unexpected_character(self, capsys, expr):
        # a superscript two, an Arabic-Indic three, an accented letter
        position = next(i for i, c in enumerate(expr) if not c.isascii())
        code, out, err = run(capsys, "nu", expr)
        assert code == 1 and out == ""
        assert f"unexpected character {expr[position]!r}" in err
        assert err.splitlines()[-1] == "  " + " " * position + "^"

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "nu", "(1)")
        assert code == 2 and "domain error" in err

    def test_non_normal_factor_is_domain_error(self, capsys):
        code, _, err = run(capsys, "factor", "(x^2, y^2)")
        assert code == 2 and "normalize" in err

    def test_three_variables(self, capsys):
        code, _, err = run(capsys, "nu", "(x, y, z)")
        assert code == 3 and "three-variable" in err

    @pytest.mark.parametrize("command,expr", [
        ("length", "(x^2, y^2) * tower(x; g=y; exps=[2])"),
        # of the generator lists only (x, y), however written, is a tower factor
        ("nu", "(x^2, y) * tower(x; g=y; exps=[2, 3])"),
        ("length", "(x^2, x y, y^2) * tower(x; g=y; exps=[2, 3])"),
        ("nu", "n(1,1) * tower(x; g=y; exps=[2, 3])"),
        ("dynkin", "n(99,99)^99"),
    ])
    def test_unsupported_mix(self, capsys, command, expr):
        assert run(capsys, command, expr) == (3, "", (
            "unsupported: this expression is not a product of towers (raw generator "
            "lists and n(a,b) atoms have no tower form)\n"
        ))

    @pytest.mark.parametrize(
        "command,expr,code,expected",
        [
            # m^0 is the unit ideal, whose tower form is the empty product
            ("nu", "m^0 * tower(x; g=y; exps=[2])", 0, "nu = 2"),
            ("dynkin", "m^0", 2, "domain error: a tower product needs at least one factor"),
            ("nu", "tower(x; g=y; exps=[2])^0", 2,
             "domain error: a tower product needs at least one factor"),
            ("nu", "m^0", 2, "domain error: the unit ideal does not define a fat point"),
            # a power is its base's factors repeated, and each m one more factor
            ("nu", "tower(x; g=y; exps=[1, 2])^2", 0, "nu = 10"),
            ("length", "tower(x; g=y; exps=[1, 2])^2", 0, "length = 13"),
            ("nu", "tower(x; g=y; exps=[2, 3])^2 * m^3", 0, "nu = 31"),
            ("length", "tower(x; g=y; exps=[2, 3])^2 * m^3", 0, "length = 41"),
            ("nu", "tower(x; g=y; exps=[2, 3]) * m^4", 0, "nu = 23"),
            ("length", "tower(x; g=y; exps=[2, 3]) * m^4", 0, "length = 25"),
            ("nu", "(x, y) * tower(x; g=y; exps=[2, 3])", 0, "nu = 14"),
            ("length", "(x, y) * tower(x; g=y; exps=[2, 3])", 0, "length = 10"),
            ("nu", "tower(x; g=y; exps=[2, 3])^75000", 0, "nu = 675000"),
            # refused before any copy is built, however large the exponent
            ("dynkin", "tower(x; g=y; exps=[2])^99999999999999999999", 3,
             over_the_cap(99999999999999999999)),
            ("dynkin", "tower(x; g=y; exps=[2])^9999999999", 3, over_the_cap(9999999999)),
            ("dynkin", "tower(x; g=y; exps=[2])^99999999", 3, over_the_cap(99999999)),
            ("nu", "tower(x; g=y; exps=[2, 3])^75000 * m", 3, over_the_cap(150001)),
        ],
    )
    def test_powers_of_towers(self, capsys, command, expr, code, expected):
        # the answer's first line, or one line of stderr and no traceback
        actual, out, err = run(capsys, command, expr)
        assert actual == code
        if code == 0:
            assert out.splitlines()[0] == expected and err == ""
        else:
            assert err.splitlines() == [expected] and out == ""

    @pytest.mark.parametrize("expr", ["m^{}", "(x^{}, y)", "tower(x; g={}*y; exps=[2])",
                                      "tower(x; g=1/{} y; exps=[2])", "n(2,{})"])
    def test_integer_literal_above_the_digit_cap(self, capsys, expr):
        # int() would take time quadratic in the digits, and CPython refuses them
        code, out, err = run(capsys, "length", expr.format("9" * 5000))
        assert (code, out) == (3, "")
        assert err == "unsupported: an integer literal is above the digit cap of 4300\n"

    @pytest.mark.parametrize("fmt,line", [
        ("text", "length = {}"),
        ("json", '{{"schema_version": 1, "kind": "length", "length": {}}}'),
    ])
    def test_answer_longer_than_any_literal(self, capsys, fmt, line):
        # the length of m^d is d(d+1)/2, 6000 digits for d = 10^3000 - 1;
        # CPython's int-to-str limit is lifted while the command runs
        before = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "length", "m^" + "9" * 3000, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == line.format("4" + "9" * 2999 + "5" + "0" * 2999) + "\n"
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == before

    @pytest.mark.parametrize("command,expr,code,start", [
        ("ferrers", "(x^{0}, y^{0})", 3,
         "unsupported: the staircase grid has <8600 digits> cells"),
        ("length", "(x^{})^10", 2, "domain error: MonomialIdeal([(<4301 digits>, 0)])"),
        ("dynkin", "tower(x; g=y; exps=[2, 3])^{}", 3,
         "unsupported: the product has <4301 digits> tower factors"),
        ("nu", "tower(x; g=y; exps=[1, {}])", 3,
         "unsupported: the diagram has <4300 digits> nodes"),
        ("nu", "tower(x; g=y^{}; exps=[1, 2])", 3,
         "unsupported: the tangent has degree <4300 digits>"),
        ("nu", "(x^{0}, x y^{0})", 2,
         "domain error: MonomialIdeal([(1, <4300 digits>), (<4300 digits>, 0)])"),
        ("fan", "n({0},1) * n(1,{0})", 0, ""),
        ("factor", "n({0},{0})^{0}", 0, ""),
    ])
    def test_long_numbers_formed_while_computing(self, capsys, command, expr, code, start):
        # messages and labels of more digits than any literal, formed before printing;
        # a message names such a number by its digit count
        actual, out, err = run(capsys, command, expr.format("9" * 4300))
        assert actual == code and err.startswith(start) and len(err.splitlines()) <= 1
        assert len(err) < 300
        assert (out == "") == bool(code)


SVG_CASES = [
    ("ferrers", "(x^3, x y, y^4)"),
    ("fan", "(x^2, x y^2, y^3)"),
    ("dynkin", "tower(x; g=0; exps=[1,2]) * tower(y; g=0; exps=[1,2,3])"),
]


class TestOutputsAndEnv:
    def test_format_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("BEHREND_FORMAT", "json")
        code, out, _ = run(capsys, "length", "m^2")
        assert code == 0
        assert json.loads(out)["length"] == 3

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BEHREND_FORMAT", "json")
        code, out, _ = run(capsys, "length", "m^2", "--format", "text")
        assert out.strip() == "length = 3"

    @pytest.mark.parametrize("command,expr", SVG_CASES)
    def test_unwritable_svg_path(self, capsys, tmp_path, command, expr):
        for target in (tmp_path / "missing" / "out.svg", tmp_path):
            code, out, err = run(capsys, command, expr, "--svg", str(target))
            assert code == 2 and out == ""
            assert f"cannot write SVG to {target}" in err

    @pytest.mark.parametrize("command,expr", SVG_CASES)
    def test_svg_outputs_are_selfcontained(self, capsys, tmp_path, command, expr):
        target = tmp_path / "out.svg"
        code, _, _ = run(capsys, command, expr, "--svg", str(target))
        assert code == 0 and target.exists()
        root = ET.fromstring(target.read_text())
        assert root.tag.endswith("svg")
        text = target.read_text()
        assert "http://" not in text.replace("http://www.w3.org/2000/svg", "")

    @pytest.mark.parametrize(
        "command", ["length", "nu", "normal?", "normalize", "factor", "fan", "ferrers"]
    )
    @pytest.mark.parametrize(
        "expr",
        ["n(2,3)^2 * m", "tower(x; g=0; exps=[1, 3])^2 * n(4,6)", "(x^2, x y, y^3)^3 * m^2"],
    )
    def test_polygon_route_prints_what_the_expansion_prints(self, capsys, command, expr):
        # the expanded list stands alone, so it is read directly, not summed
        from behrend import ideal_text, parse

        expanded = ideal_text(parse(expr).require_ideal())
        for fmt in ("text", "json"):
            summed = run(capsys, command, expr, "--format", fmt)
            assert summed[0] == 0
            assert summed == run(capsys, command, expanded, "--format", fmt)

    @pytest.mark.parametrize("command", ["nu", "length", "dynkin"])
    @pytest.mark.parametrize(
        "m,spelled", [("m", "(x, y)"), ("m", "(y, x, x y)"), ("m^2", "(x, y)^2")]
    )
    def test_the_list_of_m_joins_tower_products_as_m(self, capsys, command, m, spelled):
        tower = "tower(x; g=y; exps=[2, 3])"
        for fmt in ("text", "json"):
            printed = run(capsys, command, f"{spelled} * {tower}", "--format", fmt)
            assert printed[0] == 0
            assert printed == run(capsys, command, f"{m} * {tower}", "--format", fmt)

    def test_factor_roundtrip_through_parser(self, capsys):
        code, out, _ = run(capsys, "factor", "(x^6, x^4 y, x^2 y^2, x y^3, y^5)")
        from behrend import MonomialIdeal, parse

        assert parse(out.strip()).require_ideal() == MonomialIdeal(
            [(6, 0), (4, 1), (2, 2), (1, 3), (0, 5)]
        )


def library_payload(command, text):
    """The JSON payload of a command, computed from the library's answer."""
    from behrend import DomainError, UnsupportedError, parse
    from behrend.cli import dynkin_json, fan_json, ideal_json, report_json
    from behrend.newton import polygon_closure
    from behrend.normal_factor import factors_fan

    elaborated = parse(text)
    answers = {
        "length": lambda: {"length": elaborated.length()},
        "nu": lambda: (report_json if elaborated.is_monomial else dynkin_json)(elaborated.nu()),
        "normal?": lambda: {"normal": elaborated.normal()},
        "factor": lambda: {"factors": [f._asdict() for f in elaborated.factors()]},
        "fan": lambda: fan_json(factors_fan(elaborated.factors())),
        "ferrers": lambda: {"column_heights": elaborated.staircase().ferrers().column_heights},
        "normalize": lambda: ideal_json(polygon_closure(elaborated.polygon())),
    }
    try:
        return 0, json.loads(json.dumps(answers[command]())), ""
    except DomainError as error:
        return 2, None, f"domain error: {error}\n"
    except UnsupportedError as error:
        return 3, None, f"unsupported: {error}\n"


class TestLibraryAnswersAsPrinted:
    """parse(text) answers every query as the command line prints it: the
    polygon route, the expansion, the diagram and a lone list."""

    @pytest.mark.parametrize(
        "command", ["length", "nu", "normal?", "factor", "fan", "ferrers", "normalize"]
    )
    @pytest.mark.parametrize(
        "text,nu",
        [
            ("n(99,99)^99", 9801),
            ("(x^4, x^3 y, x y^3, y^4)^2", 8),
            ("tower(x; g=y; exps=[1, 2]) * tower(x; g=2*y; exps=[1, 3])", 15),
            ("(x^2, x y^2, y^3)", 6),
        ],
    )
    def test_every_command(self, capsys, command, text, nu):
        code, out, err = run(capsys, command, text, "--format", "json")
        printed = json.loads(out) if code == 0 else None
        if printed:
            del printed["schema_version"], printed["kind"]
        assert library_payload(command, text) == (code, printed, err)
        if command == "nu":
            from behrend import parse

            assert parse(text).nu().nu == nu == printed["nu"]


# the commands that read an expression, which the fuzz cases run
FUZZ_COMMANDS = ("length", "nu", "normalize", "normal?", "factor", "fan", "ferrers", "dynkin")
# the grammar's alphabet as tokens, plus the out-of-scope variable z and two
# non-ASCII characters that str.isdigit and str.isalpha accept
GRAMMAR_TOKENS = (
    "x", "y", "z", "m", "n", "tower", "g", "exps",
    "(", ")", "^", "*", ",", ";", "=", "[", "]", "+", "-", "/", " ",
    "\u00b2", "\u00e9",
)


def exponent(rng):
    """An exponent of 0 to 30 digits, small ones most often."""
    return rng.choice((0, 1, 2, rng.randint(3, 9), rng.randint(0, 10 ** rng.randint(2, 30))))


def valid_text(rng):
    """A product of one to three powers of atoms, each a generator list (some
    long), m, n(a,b) or a tower literal."""
    def atom():
        kind = rng.randrange(5)
        if kind == 0:
            return "m"
        if kind == 1:
            return f"n({rng.randint(1, 40)},{exponent(rng)})"
        if kind == 2:
            exps = sorted(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
            branch, v = rng.choice(("xy", "yx"))
            g = rng.choice(("0", v, f"-1/2*{v}^2 + 3 {v}"))
            return f"tower({branch}; g={g}; exps={exps})"
        n = rng.randint(2, 30) if kind == 3 else 2
        return "(" + ", ".join(f"x^{exponent(rng)} y^{n - 1 - i}" for i in range(n)) + ")"

    factors = [atom() for _ in range(rng.randint(1, 3))]
    return " * ".join(f"{f}^{exponent(rng)}" if rng.random() < 0.4 else f for f in factors)


def mutated(rng, text):
    """text with up to three characters deleted, inserted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(0, 3)):
        i = rng.randint(0, len(chars))
        what = rng.randrange(3)
        if what and i < len(chars):
            del chars[i]
        if what != 1:
            chars.insert(i, rng.choice("0123456789" + "".join(GRAMMAR_TOKENS)))
    return "".join(chars)


class TestFuzz:
    @given(st.sampled_from(FUZZ_COMMANDS), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_arbitrary_text_exits_with_a_code(self, command, rng):
        if rng.random() < 0.5:
            # tokens drawn uniformly, so brackets and operators mix within one
            # text; hypothesis's own list draws seldom put "(" and ")" together
            text = "".join(
                str(rng.randint(0, 99)) if rng.random() < 0.2 else rng.choice(GRAMMAR_TOKENS)
                for _ in range(rng.randint(1, 32))
            )
        else:  # near-valid text, which gets past the parser more often
            text = mutated(rng, valid_text(rng))
        err = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([command, "--", text])
        assert time.perf_counter() - start < 5, text
        assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue(), text
