import argparse
import ast
import json
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dressring import (
    ParseError,
    ParsedMatrix,
    Polynomial,
    RationalFunction,
    ResourceLimitError,
    ZeroDenominatorError,
    parse_expression,
    parse_matrix,
    parse_scalar,
)
from dressring.cli import build_parser, main
from dressring.parsing import (
    format_fraction,
    format_matrix,
    format_polynomial,
    format_rational_function,
    parse_rational,
)

from helpers import best_time, rand_rf

X = Polynomial.x()


class TestParser:
    def test_simple_fraction(self):
        r = parse_scalar("X/(X^2+1)")
        assert r == RationalFunction.make(X, X * X + 1)

    def test_matrix(self):
        m = parse_matrix("[[X/(X^2+1), (X+1)/(X^2+1)],[0,0]]")
        assert isinstance(m, ParsedMatrix)
        assert m.a == RationalFunction.make(X, X * X + 1)
        assert m.c.is_zero and m.d.is_zero

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_scalar("1/(X^2-")
        assert exc.value.position == 7

    def test_matrix_where_a_scalar_is_expected(self):
        with pytest.raises(ParseError, match=r"^expected a scalar expression, found a matrix"):
            parse_scalar("[[1,0],[0,1]]")
        with pytest.raises(ParseError) as exc:
            parse_scalar("[[1,0],[0,1]]")
        assert exc.value.position == 0

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse_scalar("X + y")
        assert exc.value.position == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_scalar("X + 1 )")

    def test_division_by_zero(self):
        with pytest.raises(ZeroDenominatorError):
            parse_scalar("1/(X - X)")

    def test_rational_literals_are_division(self):
        assert parse_scalar("3/2") == RationalFunction.from_rational(Fraction(3, 2))
        assert parse_scalar("1/2*X") == RationalFunction.make(
            Polynomial.from_coeffs([0, Fraction(1, 2)]), Polynomial.one()
        )

    def test_precedence_and_associativity(self):
        assert parse_scalar("2+3*X") == RationalFunction.from_polynomial(3 * X + 2)
        assert parse_scalar("2-1-1").is_zero
        assert parse_scalar("X^2^3") == RationalFunction.from_polynomial(X**6)
        assert parse_scalar("-X^2") == RationalFunction.from_polynomial(-(X**2))
        assert parse_scalar("8/4/2") == RationalFunction.from_rational(1)

    def test_exponent_constraints(self):
        assert parse_scalar("(X+1)^(1+1)") == RationalFunction.from_polynomial((X + 1) ** 2)
        with pytest.raises(ParseError):
            parse_scalar("X^X")
        with pytest.raises(ParseError):
            parse_scalar("2^(1/2)")

    def test_whitespace_insensitive(self):
        assert parse_scalar(" X /\t( X^2 + 1 ) ") == parse_scalar("X/(X^2+1)")

    def test_superscript_digits_are_not_integers(self):
        # '²' passes str.isdigit but not int(), so it is no digit.
        for text, offset in (("1+²", 2), ("X^²", 2), ("²", 0), ("2²", 1)):
            with pytest.raises(ParseError) as exc:
                parse_scalar(text)
            assert exc.value.position == offset
            assert str(exc.value) == f"unexpected character '²' (offset {offset})"

    def test_integer_past_the_str_digit_limit(self):
        # Digit runs of any length are read in pieces, even under the
        # smallest int/str digit limit Python allows; the values are built
        # without any conversion from text.
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int/str digit limit")
        sevens, threes = 7 * (10**5000 - 1) // 9, (10**4400 - 1) // 3
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert parse_scalar("X + " + "7" * 5000) == RationalFunction.from_polynomial(X + sevens)
            m = parse_matrix("[[1, " + "3" * 4400 + "*X], [0, " + "7" * 5000 + "/" + "3" * 4400 + "]]")
            assert m.b == RationalFunction.from_polynomial(X.scale(threes))
            assert m.d == RationalFunction.from_rational(Fraction(sevens, threes))
            assert parse_scalar("7" * 5000 + "/X").num.ints == (sevens,)
            # An exponent of that length is read too, and refused by the power bound.
            for text, offset in (("X^" + "7" * 5000, 1), ("[[1, X^(" + "3" * 4400 + ")], [0, 0]]", 6)):
                with pytest.raises(ResourceLimitError, match=f"^power at offset {offset} "):
                    parse_expression(text)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("text", ["X^(10^30)", f"X^{2**62}", "X^" + "7" * 5000,
                                      "(X+1)^(10^24)", "2^(10^12)"],
                             ids=["X^10^30", "X^2^62", "X^5000-digits", "(X+1)^10^24", "2^10^12"])
    def test_power_past_the_size_bound(self, text):
        # The bound is checked from the base and the exponent, before anything is built.
        start = time.process_time()
        with pytest.raises(ResourceLimitError, match="past the bound of 2\\^22$"):
            parse_scalar(text)
        assert time.process_time() - start < 0.1

    def test_powers_under_the_size_bound(self):
        assert parse_scalar("(X+1)^1000") == RationalFunction.from_polynomial((X + 1) ** 1000)
        assert parse_scalar("(X/2)^3") == RationalFunction.from_polynomial(X.scale(Fraction(1, 8)) * X * X)
        assert parse_scalar("X^(10^6)").num.degree == 10**6
        assert parse_scalar("2^(4*10^6)").num.ints == (2 ** (4 * 10**6),)
        assert parse_scalar("(1/(X^2+1))^0") == RationalFunction.one()

    def test_parse_rational(self):
        cases = {"3": Fraction(3), " -3/6 ": Fraction(-1, 2), "+0": Fraction(0),
                 "\u0663/\u0664": Fraction(3, 4), "0/5": Fraction(0)}
        for text, value in cases.items():
            assert parse_rational(text) == value
        for text in ("1.5", "1e3", "1_000", "", " ", "1/", "/2", "1 /2", "--1", "1/-2", "X", "²"):
            with pytest.raises(ParseError, match="^not a rational number: "):
                parse_rational(text)
        with pytest.raises(ZeroDenominatorError, match="^division by zero \\(offset 3\\)$"):
            parse_rational(" -1/0")

    def test_unicode_decimal_digits_and_spaces(self):
        # Any decimal digit int() accepts is a digit; any str.isspace is a space.
        assert parse_scalar("\u0663\u0664 +\u3000X") == parse_scalar("34 + X")
        assert parse_scalar("X^\u0662\u00a0") == RationalFunction.from_polynomial(X * X)


def rand_matrix_text(rng):
    entries = [format_rational_function(rand_rf(rng, 3)) for _ in range(4)]
    return f"[[{entries[0]}, {entries[1]}], [{entries[2]}, {entries[3]}]]"


class TestRoundTrip:
    def test_scalar_round_trip_random(self):
        rng = random.Random(301)
        for _ in range(300):
            r = rand_rf(rng, 4)
            text = format_rational_function(r)
            again = parse_scalar(text)
            assert again == r
            assert format_rational_function(again) == text  # fixed point

    def test_matrix_round_trip_random(self):
        rng = random.Random(302)
        for _ in range(100):
            text = rand_matrix_text(rng)
            m = parse_matrix(text)
            assert format_matrix(m) == text

    def test_polynomial_formats(self):
        cases = [
            Polynomial.zero(),
            Polynomial.one(),
            -X,
            X**3 - X + 1,
            Polynomial.from_coeffs([Fraction(-1, 2), 0, Fraction(3, 4)]),
        ]
        for p in cases:
            assert parse_scalar(format_polynomial(p)) == RationalFunction.from_polynomial(p)

    def test_print_past_the_str_digit_limit(self):
        # Printing needs no lifted limit: a coefficient past it is converted
        # in pieces.  The reference strings are built with the limit off.
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int/str digit limit")
        rng = random.Random(303)
        big = [Fraction(-(10**5000 + 7), 3**11000), Fraction(10**4300 - 1),
               Fraction(rng.getrandbits(40000) + 1, rng.getrandbits(30000) | 1)]
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = [str(Polynomial.from_coeffs([c, 0, 1])) for c in big]
            sys.set_int_max_str_digits(4300)
            assert str(Polynomial.from_coeffs([10**5000, 1])) == "X + 1" + "0" * 5000
            assert [str(Polynomial.from_coeffs([c, 0, 1])) for c in big] == expected
        finally:
            sys.set_int_max_str_digits(limit)


class _RandomExpression:
    """Random texts that follow the grammar, each with its value built by
    RationalFunction arithmetic in the grammar's order of evaluation."""

    SPACES = ("", "", "", " ", "  ", "\t", "\n", "　")
    SIGNS = ("", "", "", "-", "+", "--", "- -", "-+-", "+ +")
    # Parenthesised exponents that reduce to the integer k.
    EXPONENTS = ("({k})", "({k2}/2)", "({k}*(X+1)/(X+1))", "(X-X+{k})", "(({k}*X^2+{k})/(X^2+1))")

    def __init__(self, rng: random.Random):
        self.rng = rng

    def ws(self) -> str:
        return self.rng.choice(self.SPACES)

    def atom(self, depth: int):
        rng = self.rng
        r = rng.random()
        if depth > 0 and r < 0.3:
            text, value = self.expr(depth - 1)
            return f"({self.ws()}{text}{self.ws()})", value
        if r < 0.55:
            return "X", RationalFunction.x()
        n = rng.choice([0, rng.randint(1, 12), rng.randint(1, 12)])
        if rng.random() < 0.05:
            n = 10**299 + rng.randrange(10**299)
        return str(n), RationalFunction.from_rational(n)

    def power(self, depth: int):
        rng = self.rng
        text, value = self.atom(depth)
        for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
            k = rng.randint(0, 2)
            exponent = str(k) if rng.random() < 0.6 else rng.choice(self.EXPONENTS).format(k=k, k2=2 * k)
            text, value = f"{text}{self.ws()}^{self.ws()}{exponent}", value**k
        return text, value

    def unary(self, depth: int):
        signs = self.rng.choice(self.SIGNS)
        text, value = self.power(depth)
        return signs + self.ws() + text, -value if signs.count("-") % 2 else value

    def term(self, depth: int):
        text, value = self.unary(depth)
        for _ in range(self.rng.choice([0, 0, 1, 2])):
            rhs_text, rhs = self.unary(depth)
            op = "/" if self.rng.random() < 0.5 and not rhs.is_zero else "*"
            value = value / rhs if op == "/" else value * rhs
            text = f"{text}{self.ws()}{op}{self.ws()}{rhs_text}"
        return text, value

    def expr(self, depth: int):
        text, value = self.term(depth)
        for _ in range(self.rng.choice([0, 1, 1, 2])):
            rhs_text, rhs = self.term(depth)
            op = self.rng.choice("+-")
            value = value + rhs if op == "+" else value - rhs
            text = f"{text}{self.ws()}{op}{self.ws()}{rhs_text}"
        return text, value


class TestEvaluator:
    def test_random_trees_match_rational_function_arithmetic(self):
        gen = _RandomExpression(random.Random(1009))
        for i in range(500):
            text, value = gen.expr(gen.rng.randint(0, 3))
            parsed = parse_scalar(text)
            assert parsed == value, text
            if i % 10 == 0:
                entries = [gen.expr(1) for _ in range(3)] + [(text, value)]
                m = parse_matrix("[[{}, {}],[{}, {}]]".format(*(t for t, _ in entries)))
                assert m.entries() == tuple(v for _, v in entries)

    @pytest.mark.parametrize("text, error, message", [
        ("1/(X^2-", ParseError, "expected a value, found end of input (offset 7)"),
        ("(X+1", ParseError, "expected ')', found end of input (offset 4)"),
        ("", ParseError, "expected a value, found end of input (offset 0)"),
        ("X^", ParseError, "expected a value, found end of input (offset 2)"),
        ("[[1,2],[3,4]", ParseError, "expected ']', found end of input (offset 12)"),
        ("X + 1 )", ParseError, "unexpected trailing input ')' (offset 6)"),
        ("[[1,2],[3,4]] X", ParseError, "unexpected trailing input 'X' (offset 14)"),
        ("1/(X-X)", ZeroDenominatorError, "division by zero (offset 1)"),
        ("X^2 / (0*X) + 1", ZeroDenominatorError, "division by zero (offset 4)"),
        ("X^X", ParseError, "exponent must be a nonnegative integer (offset 1)"),
        ("2^(1/2)", ParseError, "exponent must be a nonnegative integer (offset 1)"),
        ("X^(0-1)", ParseError, "exponent must be a nonnegative integer (offset 1)"),
        ("X ^ (X/X+X)", ParseError, "exponent must be a nonnegative integer (offset 2)"),
        ("3 / (2 - 2) + y", ParseError, "unexpected character 'y' (offset 14)"),
    ])
    def test_error_offsets_and_messages(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_expression(text)
        assert type(exc.value) is error and str(exc.value) == message

    def test_exponents_that_reduce_to_integers(self):
        assert parse_scalar("X^((X+1)/(X+1))") == RationalFunction.x()
        assert parse_scalar("(X+1)^(6/3)") == RationalFunction.from_polynomial((X + 1) ** 2)
        assert parse_scalar("(X/(X^2+1))^(X-X)") == RationalFunction.one()
        assert parse_scalar("((X^2-1)/(X-1))^3") == RationalFunction.from_polynomial((X + 1) ** 3)

    def test_one_reduction_per_operand(self, monkeypatch):
        rng = random.Random(1013)
        polynomials = [format_polynomial(rand_rf(rng, 6).num) for _ in range(40)]
        polynomials += ["(X+1)^3*(2*X-1)/7 - 3/2*X", "-(X^2+1)^2/(4/2) + X^10"]
        matrices = [rand_matrix_text(rng) for _ in range(40)]
        calls = []
        make = RationalFunction.make

        def counting_make(num, den):
            calls.append(1)
            return make(num, den)

        monkeypatch.setattr(RationalFunction, "make", staticmethod(counting_make))
        for text in polynomials:
            parse_scalar(text)
        assert len(calls) == 0
        for text in matrices:
            del calls[:]
            parse_matrix(text)
            assert len(calls) <= 4
        del calls[:]
        parse_scalar(" + ".join(f"{k}/(X^2+{k})" for k in range(1, 41)))
        assert len(calls) == 1
        del calls[:]
        parse_scalar("(X/(X+1))^2 + 1")  # a non-polynomial base is reduced before '^'
        assert len(calls) == 2


class TestNoCliff:
    def test_dense_operand_with_large_coefficients(self):
        rng = random.Random(1019)
        coeffs = [rng.choice((-1, 1)) * rng.randrange(10**299, 10**300) for _ in range(2001)]
        p = Polynomial.from_coeffs(coeffs)
        text = format_polynomial(p)
        assert len(text) > 600_000
        start = time.process_time()
        value = parse_scalar(text)
        assert time.process_time() - start < 5
        assert value == RationalFunction.from_polynomial(p)

    def test_sum_of_fractions(self):
        text = " + ".join(f"{k}/(X^2+{k + 1})" for k in range(1, 41))
        expected = RationalFunction.zero()
        for k in range(1, 41):
            expected = expected + RationalFunction.make(Polynomial.constant(k), X * X + k + 1)
        start = time.process_time()
        value = parse_scalar(text)
        assert time.process_time() - start < 1
        assert value == expected


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_cli_json(args, capsys):
    code = main(args[:1] + ["--json"] + args[1:])
    out = capsys.readouterr().out
    return code, json.loads(out)


def readme_cli_commands():
    """(argv, exit code) for every dressring command in the README's CLI block.

    The code is the "exit N" in the line's comment, else 0; a line may hold
    several commands separated by ';'.
    """
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        stated = re.search(r"exit (\d)", comment)
        for part in command.split(";"):
            argv = shlex.split(part)
            assert argv[0] == "dressring", line
            commands.append((argv[1:], int(stated.group(1)) if stated else 0))
    return commands


def test_readme_library_tour():
    # Run the README's first Python block, then check every value its
    # comments state: an expression line's comment opens with the value.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        value = re.match(r"\s*(True|False|'[^']*')", comment)
        if value and "=" not in code.replace("==", ""):
            stated.append(code.strip())
            assert eval(code, namespace) == ast.literal_eval(value.group(1)), line
    assert len(stated) == 5
    report, fact = namespace["report"], namespace["fact"]
    assert report.principal and report.s == 2
    assert str(report.generator) == "(X)/(X^2 + 1)"
    assert len(fact.factors) == 4 and namespace["verify_factorization"](fact).ok


def registered_commands() -> set:
    """The subcommands build_parser registers."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return set(sub.choices)


# One valid line of each subcommand, every one a positive or a "no" outcome.
ONE_LINE_PER_COMMAND = [
    ["member", "X/(X^2+1)"],
    ["unit", "(X^2+1)/(X^2+2)"],
    ["gamma", "X^2+1"],
    ["gamma-plus", "X^2+X+1"],
    ["sign-at-roots", "X", "X^2-1"],
    ["principal", "X/(X^2+1)^2", "X^3/(X^2+1)^2"],
    ["square-ideal", "1/(X^2+1)", "X/(X^2+1)"],
    ["inverse-ideal", "1/(X^2+1)", "X/(X^2+1)"],
    ["factor", "[[X/(X^2+1),(X+1)/(X^2+1)],[0,0]]"],
    ["verify", "[[0,0],[0,0]]", "[[0,0],[0,0]]"],
    ["certificate", "X", "X+1"],
    ["zs-member", "1/5"],
    ["zs-gcd", "6", "10"],
    ["laurent-member", "rational", "0", "1/5,2,1"],
    ["stable-witness", "X/(X^2+1)"],
]

# Tokens of the reader's property test: flags whole, abbreviated and joined
# to their value, operands that look like flags, and every choice.
LINE_TOKENS = ["--json", "--part", "a", "b", "c", "--zero", "--js", "--part=b", "-h", "--",
               "X", "-X", "--X", "-", "", "a b", "real", "rational"]


@st.composite
def near_workload_lines(draw):
    """A line of ONE_LINE_PER_COMMAND in the bench's shape, CMD [FLAG...] --
    OPERAND..., with up to three tokens then inserted, deleted or replaced."""
    argv = draw(st.sampled_from(ONE_LINE_PER_COMMAND))
    flags = draw(st.lists(st.sampled_from([["--json"], ["--zero"], ["--part", "a"],
                                           ["--part", "b"]]), max_size=2))
    line = [argv[0], *(token for flag in flags for token in flag), "--", *argv[1:]]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, len(line)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit != "insert" and at < len(line):
            del line[at]
        if edit != "delete":
            line.insert(at, draw(st.sampled_from(LINE_TOKENS)))
    return line


# The report of each line above, every one exit 0: (human-readable stdout,
# the JSON report's result).  Both forms print the same values.
PINNED_REPORTS = {
    "member": ("member: True\n", {"member": True}),
    "unit": ("unit: True\n", {"unit": True}),
    "gamma": ("gamma: True\n", {"gamma": True}),
    "gamma-plus": ("gamma_plus: True\n", {"gamma_plus": True}),
    "sign-at-roots": ("pattern: Mixed\n", {"pattern": "Mixed"}),
    "principal": (
        "principal: True\ns: 2\nM: X\nfprime: 1\ngprime: X^2\ngenerator: (X)/(X^2 + 1)\n"
        "expansion: ['(X^2 + 1)/(X^4 + 1)', '(X^4 + X^2)/(X^4 + 1)']\n",
        {"principal": True, "s": 2, "M": "X", "fprime": "1", "gprime": "X^2",
         "generator": "(X)/(X^2 + 1)",
         "expansion": ["(X^2 + 1)/(X^4 + 1)", "(X^4 + X^2)/(X^4 + 1)"]}),
    "square-ideal": ("generator: (1)/(X^2 + 1)\n", {"generator": "(1)/(X^2 + 1)"}),
    "inverse-ideal": ("inverse_gens: ['1', 'X']\ncertificate: (1)/(X^2 + 1)\n",
                      {"inverse_gens": ["1", "X"], "certificate": "(1)/(X^2 + 1)"}),
    "factor": (
        "target: [[(X)/(X^2 + 1), (X + 1)/(X^2 + 1)], [0, 0]]\n"
        "factors: ['[[1, 1], [0, 0]]', '[[0, 0], [-1, 1]]', '[[0, (-X)/(X^2 + 1)], [0, 1]]', "
        "'[[(X^2)/(X^2 + X + 1), (X^2 + X)/(X^2 + X + 1)], "
        "[(X)/(X^2 + X + 1), (X + 1)/(X^2 + X + 1)]]']\nverified: True\ncount: 4\n",
        {"target": "[[(X)/(X^2 + 1), (X + 1)/(X^2 + 1)], [0, 0]]",
         "factors": ["[[1, 1], [0, 0]]", "[[0, 0], [-1, 1]]", "[[0, (-X)/(X^2 + 1)], [0, 1]]",
                     "[[(X^2)/(X^2 + X + 1), (X^2 + X)/(X^2 + X + 1)], "
                     "[(X)/(X^2 + X + 1), (X + 1)/(X^2 + X + 1)]]"],
         "verified": True, "count": 4}),
    "verify": ("verified: True\nfailure: None\nfactor_index: None\n",
               {"verified": True, "failure": None, "factor_index": None}),
    "certificate": ("part: a\nbeta: 1\ndelta: X^2 + X + 1\nscale: 1\nbase: -1\n",
                    {"part": "a", "beta": "1", "delta": "X^2 + X + 1", "scale": "1",
                     "base": "-1"}),
    "zs-member": ("member: True\n", {"member": True}),
    "zs-gcd": ("g: 2\nu: 2\nv: -1\n", {"g": "2", "u": "2", "v": "-1"}),
    "laurent-member": ("member: True\n", {"member": True}),
    "stable-witness": (
        "sum_sq_unit: True\nvalue_at_1: 2\nvalue_at_minus_1: -2\nsigns: ['+', '-']\n"
        "nonunit_certified: True\n",
        {"sum_sq_unit": True, "value_at_1": "2", "value_at_minus_1": "-2", "signs": ["+", "-"],
         "nonunit_certified": True}),
}


def check_schema(report: dict, command: str):
    assert set(report) == {"ok", "command", "result", "error"}
    assert isinstance(report["ok"], bool)
    assert report["command"] == command
    assert (report["result"] is None) != (report["error"] is None)


class TestCli:
    def test_member_true_exit_zero(self, capsys):
        code, report = run_cli_json(["member", "X/(X^2+1)"], capsys)
        assert code == 0 and report["result"] == {"member": True}
        check_schema(report, "member")

    def test_member_false_exit_one(self, capsys):
        code, report = run_cli_json(["member", "X"], capsys)
        assert code == 1 and report["result"] == {"member": False}

    def test_principal_odd_exit_one(self, capsys):
        code, report = run_cli_json(["principal", "1/(X^2+1)", "X/(X^2+1)"], capsys)
        assert code == 1
        assert report["result"]["principal"] is False and report["result"]["s"] == 1

    def test_factor_json_schema_and_verify(self, capsys):
        code, report = run_cli_json(["factor", "[[X/(X^2+1),(X+1)/(X^2+1)],[0,0]]"], capsys)
        assert code == 0
        check_schema(report, "factor")
        result = report["result"]
        assert set(result) == {"target", "factors", "verified", "count"}
        assert result["verified"] is True and result["count"] == len(result["factors"]) == 4
        code2, report2 = run_cli_json(["verify", result["target"], *result["factors"]], capsys)
        assert code2 == 0 and report2["result"]["verified"] is True

    def test_factor_hypothesis_not_met_exit_one(self, capsys):
        expr = "[[(X^3-3*X^2+2*X)/(X^2+1)^3,(4*X^2-8*X+3)*X/(X^2+1)^3],[0,0]]"
        code, report = run_cli_json(["factor", expr], capsys)
        assert code == 1
        assert report["error"] is not None and report["result"] is None

    def test_syntax_error_exit_two(self, capsys):
        code, report = run_cli_json(["member", "1/(X^2-"], capsys)
        assert code == 2 and "offset 7" in report["error"]

    def test_superscript_digit_exit_two(self, capsys):
        code, report = run_cli_json(["member", "1+²"], capsys)
        assert code == 2 and "offset" in report["error"]
        check_schema(report, "member")
        assert report["error"] == "unexpected character '²' (offset 2)"

    def test_matrix_entry_outside_ring_exit_two(self, capsys):
        code, report = run_cli_json(["factor", "[[X,1],[0,0]]"], capsys)
        assert code == 2 and "not in the ring" in report["error"]

    def test_verify_reports_entry_outside_ring(self, capsys):
        code, report = run_cli_json(
            ["verify", "[[X,1],[0,0]]", "[[1,0],[0,0]]"], capsys
        )
        assert code == 1
        assert report["result"] == {"verified": False, "failure": "entry-not-in-ring",
                                    "factor_index": None}
        code, report = run_cli_json(
            ["verify", "[[0,0],[0,0]]", "[[X,1],[0,0]]"], capsys
        )
        assert code == 1 and report["result"]["factor_index"] == 0
        code, report = run_cli_json(
            ["verify", "[[0,0],[0,0]]", "[[0,0],[0,0]]", "[[X,1],[0,0]]"], capsys
        )
        assert code == 1 and report["result"]["factor_index"] == 1
        assert report["result"]["failure"] == "entry-not-in-ring"

    def test_verify_detects_wrong_product(self, capsys):
        code, report = run_cli_json(
            ["verify", "[[1,0],[0,0]]", "[[0,0],[0,0]]"], capsys
        )
        assert code == 1
        assert report["result"]["failure"] == "product-mismatch"

    def test_leading_minus_operands(self, capsys):
        code, report = run_cli_json(["member", "-X/(X^2+1)"], capsys)
        assert code == 0 and report["result"] == {"member": True}
        check_schema(report, "member")
        code, report = run_cli_json(["gamma", "-1-X^2"], capsys)
        assert code == 0 and report["result"] == {"gamma": True}
        check_schema(report, "gamma")
        # the separator form keeps working
        assert run_cli_json(["member", "--", "-X/(X^2+1)"], capsys)[1]["result"] == {
            "member": True}
        assert run_cli_json(["gamma", "--", "-1-X^2"], capsys)[1]["result"] == {"gamma": True}
        code, report = run_cli_json(["sign-at-roots", "-X", "X"], capsys)
        assert code == 0 and report["result"] == {"pattern": "HasZero"}

    def test_leading_minus_operand_errors_stay_json(self, capsys):
        code, report = run_cli_json(["member", "-X/(X^2-1)"], capsys)
        assert code == 1 and report["result"] == {"member": False}
        code, report = run_cli_json(["gamma", "-X/"], capsys)
        assert code == 2 and "offset" in report["error"]
        check_schema(report, "gamma")

    def test_verify_factor_list_with_leading_minus(self, capsys):
        code, report = run_cli_json(["factor", "[[-X/(X^2+1),1/(X^2+1)],[0,0]]"], capsys)
        assert code == 0
        factors = report["result"]["factors"]
        assert any(f.startswith("[[-") for f in factors)
        code, report = run_cli_json(["verify", report["result"]["target"], *factors], capsys)
        assert code == 0 and report["result"]["verified"] is True
        # an operand that itself starts with a minus reaches the parser and
        # fails as a four-key report, not as an argparse usage error
        code, report = run_cli_json(["verify", "[[1,0],[0,0]]", "[[1,0],[0,0]]", "-1"],
                                    capsys)
        assert code == 2 and "matrix" in report["error"]
        check_schema(report, "verify")

    def test_gamma_commands(self, capsys):
        assert run_cli_json(["gamma", "X^2+1"], capsys)[0] == 0
        assert run_cli_json(["gamma", "X^2-1"], capsys)[0] == 1
        assert run_cli_json(["gamma-plus", "X^2+X+1"], capsys)[0] == 0
        assert run_cli_json(["gamma-plus", "--", "-(X^2+1)"], capsys)[0] == 1

    def test_sign_at_roots(self, capsys):
        code, report = run_cli_json(["sign-at-roots", "X+1", "X^2-X"], capsys)
        assert code == 0 and report["result"] == {"pattern": "AllPositive"}

    def test_sign_at_roots_near_irrational_root(self, capsys):
        # r agrees with sqrt(2) to 12000 bits.
        r = Fraction(isqrt(2 << 24000), 1 << 12000)
        start = time.process_time()
        code, report = run_cli_json(
            ["sign-at-roots", "--", f"X - {format_fraction(r)}", "X^2 - 2"], capsys)
        assert time.process_time() - start < 0.5
        assert code == 0 and report["result"] == {"pattern": "Mixed"}

    def test_factor_large_linear_coefficient(self, capsys):
        start = time.process_time()
        code, report = run_cli_json(
            ["factor", "--", "[[(X^2+2^600*X)/(X^2+1),(X^2+X)/(X^2+1)],[0,0]]"], capsys)
        assert time.process_time() - start < 0.5
        assert code == 0
        assert report["result"]["verified"] is True and report["result"]["count"] == 4

    def test_certificate_scale_past_a_thousand_halvings(self, capsys):
        start = time.process_time()
        code, report = run_cli_json(["certificate", "--", "X - 1", "X - 1 - 1/2^1100"], capsys)
        assert time.process_time() - start < 0.5
        assert code == 0
        assert report["result"]["delta"].startswith("X^2 - ")

    def test_integers_past_the_str_digit_limit(self, capsys):
        # 2^20000 has 6021 digits, more than Python's default int/str limit.
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        code, report = run_cli_json(
            ["factor", "--", "[[(X^2+2^20000*X)/(X^2+1),(X^2+X)/(X^2+1)],[0,0]]"], capsys)
        assert code == 0
        assert report["result"]["verified"] is True
        digits = max(re.findall(r"\d+", report["result"]["target"]), key=len)
        assert len(digits) == 6021 and digits.endswith(str(2**20000 % 10**30))
        code, report = run_cli_json(["gamma", "--", "X^2 + " + "7" * 5000], capsys)
        assert code == 0 and report["result"] == {"gamma": True}
        assert limit() == before  # main restores the process-wide limit

    def test_numbers_of_any_length_leave_the_digit_limit_alone(self, capsys, monkeypatch):
        # main reads and prints every operand and result at full length
        # without touching the interpreter-wide int/str digit limit.
        def refuse(limit):
            raise AssertionError("main changed the int/str digit limit")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
        a = 3**10500  # 5010 digits
        code, report = run_cli_json(["zs-gcd", format_fraction(a), "2"], capsys)
        assert code == 0 and report["result"]["g"] == "1"
        u, v = (parse_rational(report["result"][k]) for k in "uv")
        assert u * a + v * 2 == 1 and len(report["result"]["v"]) >= 5000
        code, report = run_cli_json(["certificate", "--", "X - 1", "X - 1 - 1/2^15000"], capsys)
        assert code == 0
        assert parse_rational(report["result"]["scale"]) == Fraction(1, 2**14999)
        assert len(report["result"]["scale"]) == 4518  # 1/ and 4516 digits
        coeff = format_fraction(Fraction(1, 5**7200))  # a 5033-digit denominator
        code, report = run_cli_json(["laurent-member", "rational", "0", f"{coeff},1"], capsys)
        assert code == 0 and report["result"] == {"member": True}

    @pytest.mark.parametrize("value", ["1.5", "1e3", "1_000", "1/0", ""])
    def test_zs_member_rejects_other_number_forms(self, capsys, value):
        code, report = run_cli_json(["zs-member", "--", value], capsys)
        check_schema(report, "zs-member")
        assert code == 2 and report["ok"] is False

    def test_zs_member_past_the_ecm_schedule_exit_two(self, capsys):
        # Two 16-digit primes, both 1 mod 4, that the second row of ECM splits.
        p, q = 1000000000000037, 2000000000000021
        code, report = run_cli_json(["zs-member", f"1/{p * q}"], capsys)
        assert code == 0 and report["result"] == {"member": True}
        # Two 20-digit primes, both 1 mod 4, run through the whole schedule.
        n = 10000000000000000097 * 20000000000000000153
        start = time.process_time()
        code, report = run_cli_json(["zs-member", f"1/{n}"], capsys)
        assert time.process_time() - start < 5
        assert code == 2
        check_schema(report, "zs-member")
        assert str(n) in report["error"] and "B1 = 2000" in report["error"]

    def test_square_and_inverse_ideal(self, capsys):
        code, report = run_cli_json(
            ["square-ideal", "1/(X^2+1)", "X/(X^2+1)"], capsys
        )
        assert code == 0 and report["result"]["generator"] == "(1)/(X^2 + 1)"
        code, report = run_cli_json(["inverse-ideal", "1/(X^2+1)", "X/(X^2+1)"], capsys)
        assert code == 0
        assert report["result"]["inverse_gens"] == ["1", "X"]

    def test_certificate(self, capsys):
        code, report = run_cli_json(["certificate", "X", "X+1"], capsys)
        assert code == 0
        assert report["result"]["delta"] == "X^2 + X + 1"
        code, report = run_cli_json(["certificate", "X+1", "X", "--part", "b"], capsys)
        assert code == 0
        code, report = run_cli_json(["certificate", "X", "X^2-1"], capsys)
        assert code == 1  # mixed sign pattern: no certificate exists

    def test_zs_commands(self, capsys):
        assert run_cli_json(["zs-member", "1/5"], capsys)[0] == 0
        assert run_cli_json(["zs-member", "3/7"], capsys)[0] == 1
        code, report = run_cli_json(["zs-gcd", "6", "10"], capsys)
        assert code == 0 and report["result"]["g"] == "2"

    def test_laurent_commands(self, capsys):
        code, report = run_cli_json(["laurent-member", "rational", "0", "1/5,2,1"], capsys)
        assert code == 0 and report["result"] == {"member": True}
        assert run_cli_json(["laurent-member", "real", "--", "-1", "1,1"], capsys)[0] == 1
        assert run_cli_json(["laurent-member", "real", "--zero"], capsys)[0] == 0
        assert run_cli_json(["laurent-member", "real", "0", "0,0"], capsys)[0] == 2
        # --zero with a given ORDER or COEFFS is an error, not the zero series.
        for operands in (["-5", "1,2"], ["-5"]):
            code, report = run_cli_json(["laurent-member", "--zero", "real", *operands], capsys)
            assert code == 2 and "--zero" in report["error"]

    @pytest.mark.parametrize("coeffs, error", [
        ("1,2,3/0", "division by zero (offset 5)"),
        ("1,2,x/3,4", "not a rational number: 'x/3' (offset 4)"),
        ("1,,2", "not a rational number: '' (offset 2)"),
    ])
    def test_laurent_coeffs_error_offset_counts_in_coeffs(self, capsys, coeffs, error):
        code, report = run_cli_json(["laurent-member", "rational", "0", coeffs], capsys)
        assert code == 2 and report["error"] == error

    @pytest.mark.parametrize("order", ["1_000", "1.5", "1/2", "", "X"])
    def test_laurent_order_other_forms_exit_two(self, capsys, order):
        code, report = run_cli_json(["laurent-member", "real", "--", order, "1"], capsys)
        check_schema(report, "laurent-member")
        assert code == 2 and report["ok"] is False

    def test_laurent_order_of_any_length(self):
        # ORDER is read like every other number, in pieces, so a 5000-digit
        # order works under the smallest int/str digit limit Python allows.
        order = "1" + "0" * 4999
        for sign, code in (("", 0), ("-", 1)):
            proc = subprocess.run(
                [sys.executable, "-X", "int_max_str_digits=640", "-m", "dressring.cli",
                 "laurent-member", "--json", "--", "real", sign + order, "1"],
                capture_output=True, text=True)
            assert proc.returncode == code, proc.stderr
            assert json.loads(proc.stdout)["result"] == {"member": code == 0}

    def test_laurent_member_strips_many_leading_zeros_in_linear_time(self, capsys):
        # n zeros before the 1: the series is X^0 + O(X^1) from order -n and
        # X^-1 + O(X^0) from order -n - 1.  Ten times the zeros take 6 to 15
        # times as long when the strip is linear, and about 95 times when it
        # is quadratic; a ratio, not a time, so host load cancels.
        def time_strip(n):
            coeffs = ",".join(["0"] * n + ["1"])
            cases = iter(((-n, 0), (-n - 1, 1), (-n, 0)))

            def run():
                order, code = next(cases)
                got, report = run_cli_json(["laurent-member", "real", "--", str(order), coeffs],
                                           capsys)
                assert got == code and report["result"] == {"member": code == 0}

            return best_time(run)

        assert time_strip(100_000) < 40 * time_strip(10_000)

    def test_member_of_a_monomial_denominator_in_linear_time(self, capsys):
        # 1/X^k + X = (X^(k+1) + 1)/X^k: the gcd of the sum's numerator and
        # X^k is read off the powers of X.  Evaluating X^k at a GCDHEU point
        # made it quadratic, 0.07 s at k = 10,000 and 0.27 s at 20,000, so
        # ten times k took about 100 times as long; linear, it takes about 10.
        def time_member(k):
            def run():
                code, report = run_cli_json(["member", "--", f"1/X^{k} + X"], capsys)
                assert code == 1 and report["result"] == {"member": False}

            return best_time(run)

        assert time_member(100_000) < 40 * time_member(10_000)

    def test_stable_witness(self, capsys):
        code, report = run_cli_json(["stable-witness", "X/(X^2+1)"], capsys)
        assert code == 0
        assert report["result"]["signs"] == ["+", "-"]
        assert report["result"]["nonunit_certified"] is True

    def test_unit_command(self, capsys):
        assert run_cli_json(["unit", "(X^2+1)/(X^2+2)"], capsys)[0] == 0
        assert run_cli_json(["unit", "X/(X^2+1)"], capsys)[0] == 1

    def test_human_output(self, capsys):
        code, out = run_cli(["member", "X/(X^2+1)"], capsys)
        assert code == 0 and out.strip() == "member: True"
        code, out = run_cli(["zs-gcd", "6", "10"], capsys)
        assert code == 0 and out == "g: 2\nu: 2\nv: -1\n"

    @pytest.mark.parametrize("argv", ONE_LINE_PER_COMMAND, ids=lambda argv: argv[0])
    def test_one_line_report_pinned(self, capsys, argv):
        # The whole stdout, key order included, of both output forms.
        text, result = PINNED_REPORTS[argv[0]]
        assert run_cli(argv, capsys) == (0, text)
        report = {"ok": True, "command": argv[0], "result": result, "error": None}
        assert run_cli(argv[:1] + ["--json"] + argv[1:], capsys) == (0, json.dumps(report) + "\n")

    def test_human_error_output(self, capsys):
        code = main(["member", "1/(X^2-"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert captured.out == "error: expected a value, found end of input (offset 7)\n"

    @pytest.mark.parametrize("command", sorted(registered_commands()))
    def test_subcommand_help_exit_zero(self, capsys, command):
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: dressring {command} ")

    def test_all_commands_emit_valid_schema(self, capsys):
        assert {argv[0] for argv in ONE_LINE_PER_COMMAND} == registered_commands()
        for argv in ONE_LINE_PER_COMMAND:
            code, report = run_cli_json(argv, capsys)
            check_schema(report, argv[0])
            assert code in (0, 1)

    def test_unknown_command_exit_two(self, capsys):
        assert main(["frobnicate", "X"]) == 2

    @pytest.mark.parametrize("argv, error", [
        (["gamma", "--", "1/X"], "expected a polynomial, got (1)/(X)"),
        (["factor", "--", "[[1,0],[1,0]]"], "factor needs a matrix with zero second row"),
        (["laurent-member", "--", "real", "0"], "laurent-member needs ORDER and COEFFS, or --zero"),
        (["member", "(" * 100_000 + "X" + ")" * 100_000], "expression too deeply nested"),
    ], ids=["gamma-not-polynomial", "factor-second-row", "laurent-missing-coeffs", "nested"])
    def test_handler_errors_exit_two(self, capsys, argv, error):
        code, report = run_cli_json(argv, capsys)
        assert code == 2
        assert report == {"ok": False, "command": argv[0], "result": None, "error": error}

    def test_deeply_nested_expression_exit_two(self, capsys):
        expr = "(" * 50_000 + "X" + ")" * 50_000
        code, report = run_cli_json(["member", expr], capsys)
        assert code == 2 and "nested" in report["error"]

    # X^(10^30) and X^(2^62) are refused by the power bound before they are built.
    @pytest.mark.parametrize("exponent", ["1" + "0" * 30, str(2**62)])
    def test_exponent_too_large_to_build_exit_two(self, capsys, exponent):
        code, report = run_cli_json(["gamma", f"X^{exponent}"], capsys)
        check_schema(report, "gamma")
        assert code == 2 and report["error"].startswith("power at offset 1 would have up to 2^")
        assert report["error"].endswith("bits, past the bound of 2^22")

    def test_readme_cli_block(self, capsys):
        commands = readme_cli_commands()
        assert {argv[0] for argv, _ in commands} == registered_commands()
        for argv, code in commands:
            assert main(argv) == code, argv
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    @pytest.mark.parametrize("argv, command, message", [
        (["member", "--json", "--bogus", "X"], "member", "unrecognized arguments: --bogus"),
        (["member", "--json"], "member", "the following arguments are required: expr"),
        (["certificate", "--json", "--part", "c", "X", "X^2+1"], "certificate",
         "argument --part: invalid choice: 'c'"),
        (["laurent-member", "--json", "rational", "0", "1/5,2,1", "--precision", "3"],
         "laurent-member", "unrecognized arguments: --precision 3"),
        # argparse reads --js as --json, and so does the error report.
        (["member", "--js", "--bogus", "X"], "member", "unrecognized arguments: --bogus"),
    ])
    def test_malformed_flags_stay_json(self, capsys, argv, command, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        report = json.loads(captured.out)
        check_schema(report, command)
        assert report["ok"] is False and message in report["error"]

    def test_malformed_flags_without_json_print_usage(self, capsys, monkeypatch):
        # A leftover token is the top-level parser's error, with its usage: the
        # whole report, on one line at this width under Python 3.10 to 3.13.
        monkeypatch.setenv("COLUMNS", "1000")
        assert main(["member", "--bogus", "X"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage: dressring [-h] [--version] {member,unit,gamma,gamma-plus,"
            "sign-at-roots,principal,square-ideal,inverse-ideal,factor,verify,certificate,"
            "zs-member,zs-gcd,laurent-member,stable-witness} ...\n"
            "dressring: error: unrecognized arguments: --bogus\n")
        assert main(["certificate", "--part", "c", "X", "X"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: dressring certificate")
        assert "dressring certificate: error: argument --part: invalid choice" in err

    @pytest.mark.parametrize("argv", [
        ["principal", "--", "1", "--"],
        ["principal", "1", "--", "--"],
        ["zs-gcd", "--", "1", "--"],
        ["verify", "--", "[[1,0],[0,0]]", "--"],
        ["square-ideal", "--", "1", "--", "X"],
    ], ids=" ".join)
    def test_second_separator_is_a_usage_error(self, capsys, argv):
        # argparse hands the operand after a second "--" an empty list or the
        # token "--", by version: a usage error on both outputs, on every version.
        message = "the separator -- may appear only once"
        code = main(argv[:1] + ["--json"] + argv[1:])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert json.loads(captured.out) == {"ok": False, "command": argv[0], "result": None,
                                            "error": message}
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: dressring {argv[0]} ")
        assert captured.err.endswith(f"dressring {argv[0]}: error: {message}\n")

    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        from dressring import cli

        calls = []
        original = cli.build_parser

        def counting_build_parser():
            calls.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            for argv in (["member", "X"], ["gamma", "X^2+1"], ["member", "--bogus", "X"]):
                main(argv)
            assert len(calls) == 1
        finally:
            cli._parser.cache_clear()

    def test_line_takes_the_reader_or_one_top_level_pass(self, capsys, monkeypatch):
        # A well-formed CMD [FLAG...] -- OPERAND... line takes no argparse
        # pass.  Every other line takes one pass of the top-level parser, whose
        # subparsers action runs the subcommand's parser when the line names one.
        from dressring import cli

        parser, calls = cli._parser(), []

        def counting(target, key):
            original = target.parse_known_args

            def counting_parse_known_args(*args, **kwargs):
                calls.append(key)
                return original(*args, **kwargs)

            monkeypatch.setattr(target, "parse_known_args", counting_parse_known_args)

        counting(parser, "top")
        for subparser in parser.commands.values():
            counting(subparser, "sub")
        workload_shape = [[argv[0], "--json", "--", *argv[1:]] for argv in ONE_LINE_PER_COMMAND]
        workload_shape += [["certificate", "--json", "--part", "b", "--", "X+1", "X"],
                           ["laurent-member", "--json", "--zero", "--", "real"]]
        for argv in workload_shape:
            assert main(argv) in (0, 1), argv
            assert calls == [], argv
        for argv, passes in [
            *((argv, ["top", "sub"]) for argv in ONE_LINE_PER_COMMAND),
            (["member", "X", "Y"], ["top", "sub"]),
            (["member", "--json", "--", "X", "Y"], ["top", "sub"]),
            (["member", "--js", "--", "X"], ["top", "sub"]),
            (["certificate", "--json", "--part=b", "--", "X+1", "X"], ["top", "sub"]),
            (["certificate", "--json", "--", "X+1", "X", "--part", "b"], ["top", "sub"]),
            (["laurent-member", "--json", "--", "real", "0", "1", "--", "2"], ["top", "sub"]),
            (["member", "-h"], ["top", "sub"]),
            (["--json", "member", "X"], ["top", "sub"]),
            (["--version"], ["top"]),
            (["--help"], ["top"]),
            (["frobnicate", "X"], ["top"]),
        ]:
            main(argv)
            assert calls == passes, argv
            calls.clear()
        capsys.readouterr()

    @settings(derandomize=True, max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(line=near_workload_lines())
    @example(line=["certificate", "--json", "--part", "c", "--", "X", "X"])
    @example(line=["principal", "--json", "--", "1", "--"])
    @example(line=["laurent-member", "--zero", "--", "real"])
    def test_line_reader_agrees_with_argparse(self, capsys, line):
        # The reader declines a line or gives exactly what the top-level
        # parser, main's other path, gives it, command included.  A line that
        # parser rejects (or answers with help) is one the reader declines.
        from dressring import cli

        args = cli._read_line(line)
        assert capsys.readouterr() == ("", "")
        try:
            expected = cli._parser().parse_args(line)
        except (cli.UsageError, SystemExit):
            assert args is None, line
        else:
            assert args is None or vars(args) == vars(expected), line
        capsys.readouterr()

    def test_command_table_uses_only_what_the_reader_reads(self):
        # _read_line reads an operand's nargs ('+' or '?') and choices, and a
        # flag's choices and default or action="store_true"; help is only
        # shown.  A keyword it does not read would fail here instead of being
        # misread.  _wants_json counts every --j... token as --json, so no
        # other flag may start with --j.
        from dressring.cli import _COMMANDS, _JSON_FLAG

        for name, _, operands, _ in _COMMANDS:
            for operand in (_JSON_FLAG, *operands):
                operand, keywords = (operand, {}) if isinstance(operand, str) else operand
                assert set(keywords) <= {"nargs", "choices", "default", "action", "help"}, name
                if operand.startswith("-"):
                    assert operand.startswith("--"), name
                    assert operand == "--json" or not operand.startswith("--j"), name
                    assert set(keywords) & {"action", "choices"} in ({"action"}, {"choices"})
                    assert keywords.get("action", "store_true") == "store_true", name
                    assert "nargs" not in keywords, name
                else:
                    assert keywords.get("nargs", "+") in ("+", "?"), name
                    assert not set(keywords) & {"action", "default"}, name

    def test_console_script_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dressring.cli", "member", "X/(X^2+1)", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"] == {"member": True}
