"""The parser's one-pass reader, its integer printer and its size bounds.

The reader must give ``_Parser``'s value on every text of its forms and
leave every other text, with its errors and their offsets, to ``_Parser``;
the printer must match the ``Fraction``-based reference in ``helpers``.
"""

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dressring import ParseError, Polynomial, ResourceLimitError, ZeroDenominatorError
from dressring.parsing import (
    _MAX_BITS,
    _MAX_TERM_PAIRS,
    _Parser,
    _bits,
    _power_pairs,
    _read,
    _read_matrix,
    format_polynomial,
    parse_expression,
    parse_scalar,
)

from helpers import format_polynomial_fractions

X = Polynomial.x()

SPACES = st.sampled_from(["", "", "", " ", "  ", "\t", "\n", "　"])
DIGITS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["0", "00", "07", "1", "٣"]),
    st.text("0123456789", min_size=700, max_size=700),
)
EXPONENTS = st.one_of(st.integers(0, 12).map(str), st.sampled_from(["0", "1", "01", "0003"]))


@st.composite
def terms(draw):
    """One term, n, n*X, n*X^e, X or X^e, with whitespace around its marks."""
    ws = lambda: draw(SPACES)  # noqa: E731
    kind = draw(st.sampled_from(["n", "n*X", "n*X^e", "X", "X^e"]))
    text = "X" if kind.startswith("X") else draw(DIGITS)
    if kind.startswith("n*"):
        text += f"{ws()}*{ws()}X"
    if kind.endswith("^e"):
        text += f"{ws()}^{ws()}{draw(EXPONENTS)}"
    return text


@st.composite
def polynomials(draw):
    """An expanded polynomial: an optional first sign, then signed terms."""
    ws = lambda: draw(SPACES)  # noqa: E731
    text = ws() + draw(st.sampled_from(["", "", "+", "-"])) + ws() + draw(terms())
    for _ in range(draw(st.integers(0, 8))):
        text += ws() + draw(st.sampled_from("+-")) + ws() + draw(terms())
    return text + ws()


@st.composite
def quotients(draw):
    ws = lambda: draw(SPACES)  # noqa: E731
    return f"{ws()}({draw(polynomials())}){ws()}/{ws()}({draw(polynomials())}){ws()}"


@st.composite
def matrices(draw):
    """[[e, e], [e, e]] with whitespace around its marks; an entry is sometimes
    1 - (P)/(Q), which the reader leaves, with the whole matrix, to _Parser."""
    ws = lambda: draw(SPACES)  # noqa: E731
    e = lambda: draw(st.one_of(polynomials(), quotients(), quotients().map("1 - {}".format)))  # noqa: E731
    return f"{ws()}[{ws()}[{e()},{e()}]{ws()},{ws()}[{e()},{e()}]{ws()}]{ws()}"


class TestReader:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(polynomials(), quotients()))
    def test_reader_matches_the_parser(self, text):
        try:
            expected = _Parser(text).parse_top()
        except ZeroDenominatorError:
            assert _read(text) is None  # a zero Q is left to the parser
            return
        assert _read(text) == expected
        assert parse_expression(text) == expected

    @settings(max_examples=50, deadline=None)
    @given(matrices())
    def test_matrix_reader_matches_the_parser(self, text):
        try:
            expected = _Parser(text).parse_top()
        except ZeroDenominatorError:
            assert _read_matrix(text) is None
            return
        # Only an entry 1 - (P)/(Q) is outside the reader's forms.
        assert _read_matrix(text) == (None if re.search(r"1 - \s*\(", text) else expected)
        assert parse_expression(text) == expected

    def test_matrix_entries_outside_the_forms_reach_the_parser(self):
        assert _read_matrix("[[X, 1], [0, X^2 + 1]]") == _Parser("[[X,1],[0,X^2+1]]").parse_top()
        for text in ("[[1 - (X)/(X^2+1), 1], [0, 1]]", "[[(X+1)^2, 1], [0, 1]]"):
            assert _read_matrix(text) is None
            assert parse_expression(text) == _Parser(text).parse_top()
        with pytest.raises(ParseError, match=re.escape("expected a value, found ',' (offset 2)")):
            parse_expression("[[, 1], [0, 1]]")

    @pytest.mark.parametrize("gap, expected", [
        ("X", "[[X, 1], [0, X^2 + 1]]"),
        ("?", "unexpected character '?' (offset 300002)"),
    ])
    def test_matrix_with_whitespace_runs_is_read_in_linear_time(self, gap, expected):
        spaces = " " * 10**5
        text = f"{spaces}[{spaces}[{spaces}{gap}{spaces},{spaces}1{spaces}]{spaces},{spaces}" \
               f"[{spaces}0{spaces},{spaces}X^2 + 1{spaces}]{spaces}]{spaces}"
        start = time.perf_counter()
        try:
            m = parse_expression(text)
            result = f"[[{m.a}, {m.b}], [{m.c}, {m.d}]]"
        except ParseError as exc:
            result = str(exc)
        assert time.perf_counter() - start < 1
        assert result == expected

    def test_repeated_zero_and_constant_terms(self):
        text = " - 0*X^3 + X^1 + 2*X - X^0 + 3 + 0 + X ^ 0003 - X^3"
        assert _read(text) == _Parser(text).parse_top() == parse_scalar("3*X + 2")
        assert _read("(X^2 + 1)/(2)") == parse_scalar("X^2/2 + 1/2")
        assert _read("(0)/(X)").is_zero
        for text in ("(0)/(5)", "(3*X - 7)/(-4)", "(5)/(10)", "(-X^3+2*X)/(-1)"):
            assert _read(text) == _Parser(text).parse_top(), text  # make divides by a constant Q

    @pytest.mark.parametrize("text, error, message", [
        ("2X", ParseError, "unexpected trailing input 'X' (offset 1)"),
        ("X^", ParseError, "expected a value, found end of input (offset 2)"),
        ("(X)/(0)", ZeroDenominatorError, "division by zero (offset 3)"),
        ("(X + 1)/(X - X)", ZeroDenominatorError, "division by zero (offset 7)"),
        ("X^5000000", ResourceLimitError,
         "power at offset 1 would have up to 2^23 bits, past the bound of 2^22"),
        ("()/(X)", ParseError, "expected a value, found ')' (offset 1)"),
        ("X + * 1", ParseError, "expected a value, found '*' (offset 4)"),
        ("2 3", ParseError, "unexpected trailing input '3' (offset 2)"),
        ("x", ParseError, "unexpected character 'x' (offset 0)"),
    ])
    def test_texts_outside_the_forms_reach_the_parser(self, text, error, message):
        assert _read(text) is None
        with pytest.raises(error) as exc:
            parse_expression(text)
        assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize("text", ["2*3", "X*2", "--X", "X^12345", "2^3", "(X+1)",
                                      "(X)/(X)^2", "3/2*X", "X^2^3", "(X)/(X)/(X)",
                                      "X + + 1"])
    def test_valid_texts_outside_the_forms_reach_the_parser(self, text):
        assert _read(text) is None
        assert parse_expression(text) == _Parser(text).parse_top()

    @pytest.mark.parametrize("text, expected", [
        ("X + " + " " * 10**5 + "(X+1)", "2*X + 1"),
        (" " * 10**5 + "(X+1)^2", "X^2 + 2*X + 1"),
        (" " * 10**5 + "X" + " " * 10**5, "X"),
        (" " * 10**5 + "?", "unexpected character '?' (offset 100000)"),
        ("X" + " " * 10**5 + "?", "unexpected character '?' (offset 100001)"),
        ("1" * 10**5 + " " * 10**5 + "?", "unexpected character '?' (offset 200000)"),
        ("(X)/" + " " * 10**5, "expected a value, found end of input (offset 100004)"),
        ("(X)/(X" + " " * 10**5 + ")" + " " * 10**5 + "*",
         "expected a value, found end of input (offset 200008)"),
    ], ids=["sum-then-group", "leading-before-power", "around-a-term", "leading-before-error",
            "before-error", "after-digits", "trailing", "around-a-quotient"])
    def test_whitespace_runs_are_read_in_linear_time(self, text, expected):
        start = time.perf_counter()
        try:
            result = format_polynomial(parse_scalar(text).num)
        except ParseError as exc:
            result = str(exc)
        assert time.perf_counter() - start < 1
        assert result == expected


class TestPrinter:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.fractions(max_denominator=10**6), st.integers(-3, 3),
                              st.integers(-(10**700), 10**700)), max_size=12),
           st.sampled_from([1, 2, 6, 35, 2**70 + 1]))
    def test_printer_matches_the_fraction_reference(self, coeffs, den):
        p = Polynomial.from_coeffs(coeffs).scale(Fraction(1, den))
        assert format_polynomial(p) == format_polynomial_fractions(p)


def dense_base(degree: int, seed: int) -> str:
    rng = random.Random(seed)
    return format_polynomial(Polynomial(tuple(rng.choice((1, -1)) for _ in range(degree + 1))))


class TestParserSums:
    def test_a_long_parenthesised_sum_is_read_in_linear_time(self):
        # A running Polynomial sum copied itself at every '+': 4000 terms took
        # about 0.9 s, and 20,000 would take about 20 s.
        base = dense_base(20000, 7)
        assert _read(f"({base})") is None  # the reader leaves it to _Parser
        start = time.perf_counter()
        value = parse_scalar(f"({base})")
        assert time.perf_counter() - start < 5
        assert format_polynomial(value.num) == base and value.den == Polynomial.one()

    @pytest.mark.parametrize("text, expected", [
        ("(1/2 + X/3 - 5*X^2/7 + X^3)", "X^3 - 5/7*X^2 + 1/3*X + 1/2"),
        ("(X^2 - X^2 + X - X)", "0"),
        ("(X/6 - X/6 + 1/4 + 3/4)", "1"),
        ("(X + 1/(X+1) - X^2 + 2)", "(-X^3 + 3*X + 3)/(X + 1)"),
        ("(1/(X+1) + X/(X+1) - X^3/2)", "-1/2*X^3 + 1"),
        ("(X^3 - 1/(X^2+1) + X^5 - X^3)", "(X^7 + X^5 - 1)/(X^2 + 1)"),
    ])
    def test_sums_over_one_and_several_denominators(self, text, expected):
        assert str(parse_scalar(text)) == expected
        assert parse_scalar(text) == _Parser(text).parse_top()


class TestProductBound:
    @pytest.mark.parametrize("base, power, message", [
        ("(X+1)", "^2000*(X+1)^2000",
         "product at offset 10 would have up to 2^24 bits, past the bound of 2^22"),
        (f"({dense_base(2000, 5)})", "^6", "would multiply up to 2^26 pairs of terms, "
                                           "past the bound of 2^22"),
    ], ids=["product-of-two-powers", "degree-2000-base-to-the-6th"])
    def test_refused_before_it_is_built(self, base, power, message):
        # Only the refusal is timed: reading the base is timed on its own and
        # subtracted (_Parser sums a base in one coefficient list, in time
        # linear in its length; the degree-2000 base takes about 20 ms).
        start = time.perf_counter()
        parse_scalar(base)
        read = time.perf_counter() - start
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as exc:
            parse_scalar(base + power)
        assert time.perf_counter() - start - read < 1
        assert str(exc.value).endswith(message)

    @pytest.mark.parametrize("text, message", [
        ("2^(4*10^6)*2^(4*10^6)",
         "product at offset 10 would have up to 2^23 bits, past the bound of 2^22"),
        ("2^(4*10^6)/(1/2^(4*10^6))",
         "product at offset 10 would have up to 2^23 bits, past the bound of 2^22"),
        ("X^(3*10^6) - 1/(X+1)",
         "product at offset 11 would have up to 2^23 bits, past the bound of 2^22"),
    ], ids=["*", "/", "cross-multiplied -"])
    def test_every_operator_is_bounded(self, text, message):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as exc:
            parse_scalar(text)
        assert time.perf_counter() - start < 1
        assert str(exc.value) == message

    @pytest.mark.parametrize("base, e", [(X + 1, 2046), (3 * X + 5, 1181),
                                         (Polynomial((1, -1) * 5 + (1,)), 323)])
    def test_the_largest_readme_powers_pass_both_bounds(self, base, e):
        # Checked from the estimates alone; building them takes about a second each.
        assert _bits((base, e)) <= _MAX_BITS
        assert _power_pairs(base, e) <= _MAX_TERM_PAIRS

    def test_products_under_the_bounds_build(self):
        assert parse_scalar("(X+1)^300*(X-1)^300") == parse_scalar(
            format_polynomial((X * X - 1) ** 300))
        assert parse_scalar("-X^(10^6)*X^(10^6)").num.ints[-1] == -1
        assert parse_scalar("(X^2+1)^3/(X+1)^2 - 1/(X-1)^2") == parse_scalar(
            "((X^2+1)^3*(X-1)^2 - (X+1)^2)/((X+1)^2*(X-1)^2)")
