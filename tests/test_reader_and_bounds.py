"""The expression parser, its integer printer and its size bounds.

Every parsed value is checked against an oracle: the coefficients summed
from the text's own terms, or a printed form.  Every error is checked by its
type, message and offset, and the printer against the ``Fraction``-based
reference in ``helpers``.
"""

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dressring import ParseError, Polynomial, RationalFunction, ResourceLimitError, ZeroDenominatorError
from dressring.parsing import (
    _MAX_BITS,
    _MAX_TERM_PAIRS,
    ParsedMatrix,
    _bits,
    _power_pairs,
    format_matrix,
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


def digits_value(text: str) -> int:
    """The value of a run of decimal digits, one digit at a time, so under any
    int/str digit limit."""
    value = 0
    for digit in text:
        value = value * 10 + int(digit)
    return value


@st.composite
def terms(draw):
    """One term, n, n*X, n*X^e, X or X^e, with whitespace around its marks,
    and its coefficient and exponent."""
    ws = lambda: draw(SPACES)  # noqa: E731
    kind = draw(st.sampled_from(["n", "n*X", "n*X^e", "X", "X^e"]))
    text, c, e = "X", 1, 1
    if not kind.startswith("X"):
        text = draw(DIGITS)
        c, e = digits_value(text), 0
    if kind.startswith("n*"):
        text += f"{ws()}*{ws()}X"
        e = 1
    if kind.endswith("^e"):
        exponent = draw(EXPONENTS)
        text += f"{ws()}^{ws()}{exponent}"
        e = digits_value(exponent)
    return text, c, e


@st.composite
def polynomials(draw):
    """An expanded polynomial, an optional first sign and then signed terms,
    and the polynomial of its summed terms."""
    ws = lambda: draw(SPACES)  # noqa: E731
    coeffs = {}
    text = ws()
    for sign in [draw(st.sampled_from(["", "", "+", "-"]))] + draw(
            st.lists(st.sampled_from("+-"), max_size=8)):
        term, c, e = draw(terms())
        text += f"{sign}{ws()}{term}{ws()}"
        coeffs[e] = coeffs.get(e, 0) + (-c if sign == "-" else c)
    return text, Polynomial.from_coeffs([coeffs.get(e, 0) for e in range(max(coeffs) + 1)])


@st.composite
def quotients(draw):
    """(P)/(Q) and its value, or None for a zero Q."""
    ws = lambda: draw(SPACES)  # noqa: E731
    (p_text, p), (q_text, q) = draw(polynomials()), draw(polynomials())
    return f"{ws()}({p_text}){ws()}/{ws()}({q_text}){ws()}", (
        RationalFunction.make(p, q) if q else None)


def scalars():
    """A polynomial or a quotient, and its value (None for a zero divisor)."""
    return st.one_of(polynomials().map(lambda c: (c[0], RationalFunction.from_polynomial(c[1]))),
                     quotients())


@st.composite
def matrices(draw):
    """[[e, e], [e, e]] with whitespace around its marks, and its value (None
    for a zero divisor); an entry is sometimes 1 - (P)/(Q)."""
    ws = lambda: draw(SPACES)  # noqa: E731
    entries = [draw(st.one_of(scalars(), quotients().map(
        lambda c: ("1 - " + c[0], None if c[1] is None else RationalFunction.one() - c[1]))))
        for _ in range(4)]
    (a, _), (b, _), (c, _), (d, _) = entries
    values = [value for _, value in entries]
    return f"{ws()}[{ws()}[{a},{b}]{ws()},{ws()}[{c},{d}]{ws()}]{ws()}", (
        None if None in values else ParsedMatrix(*values))


class TestReader:
    """parse_expression against the value each text's own terms give."""

    @settings(max_examples=200, deadline=None)
    @given(scalars())
    def test_reader_matches_the_parser(self, case):
        text, expected = case
        if expected is None:
            with pytest.raises(ZeroDenominatorError):
                parse_expression(text)
        else:
            assert parse_expression(text) == expected

    @settings(max_examples=50, deadline=None)
    @given(matrices())
    def test_matrix_reader_matches_the_parser(self, case):
        text, expected = case
        if expected is None:
            with pytest.raises(ZeroDenominatorError):
                parse_expression(text)
        else:
            assert parse_expression(text) == expected

    def test_matrix_entries_outside_the_forms_reach_the_parser(self):
        for text, expected in (
                ("[[X, 1], [0, X^2 + 1]]", "[[X, 1], [0, X^2 + 1]]"),
                ("[[1 - (X)/(X^2+1), 1], [0, 1]]", "[[(X^2 - X + 1)/(X^2 + 1), 1], [0, 1]]"),
                ("[[(X+1)^2, 1], [0, 1]]", "[[X^2 + 2*X + 1, 1], [0, 1]]")):
            assert format_matrix(parse_expression(text)) == expected
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
        start = time.process_time()
        try:
            m = parse_expression(text)
            result = f"[[{m.a}, {m.b}], [{m.c}, {m.d}]]"
        except ParseError as exc:
            result = str(exc)
        assert time.process_time() - start < 1
        assert result == expected

    def test_repeated_zero_and_constant_terms(self):
        for text, expected in (
                (" - 0*X^3 + X^1 + 2*X - X^0 + 3 + 0 + X ^ 0003 - X^3", "3*X + 2"),
                ("(X^2 + 1)/(2)", "1/2*X^2 + 1/2"),
                ("(0)/(X)", "0"),
                ("(0)/(5)", "0"),
                ("(3*X - 7)/(-4)", "-3/4*X + 7/4"),
                ("(5)/(10)", "1/2"),
                ("(-X^3+2*X)/(-1)", "X^3 - 2*X")):
            assert str(parse_expression(text)) == expected, text

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
        # An unexpected character comes first, wherever it stands.
        ("X + * 1 ?", ParseError, "unexpected character '?' (offset 8)"),
    ])
    def test_texts_outside_the_forms_reach_the_parser(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_expression(text)
        assert type(exc.value) is error and str(exc.value) == message

    def test_an_unexpected_character_comes_before_a_nesting_too_deep(self):
        with pytest.raises(ParseError, match=re.escape("unexpected character '?' (offset 50001)")):
            parse_expression("(" * 50_000 + "X?" + ")" * 50_000)
        with pytest.raises(RecursionError):
            parse_expression("(" * 50_000 + "X" + ")" * 50_000)

    VALID = [("2*3", "6"), ("X*2", "2*X"), ("--X", "X"), ("X^12345", "X^12345"), ("2^3", "8"),
             ("(X+1)", "X + 1"), ("(X)/(X)^2", "(1)/(X)"), ("3/2*X", "3/2*X"), ("X^2^3", "X^6"),
             ("(X)/(X)/(X)", "(1)/(X)"), ("X + + 1", "X + 1")]

    @pytest.mark.parametrize("text, expected", VALID, ids=[text for text, _ in VALID])
    def test_valid_texts_outside_the_forms_reach_the_parser(self, text, expected):
        # Each of these has a term that is not n, n*X, n*X^e, X or X^e.
        assert str(parse_expression(text)) == expected

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
        start = time.process_time()
        try:
            result = format_polynomial(parse_scalar(text).num)
        except ParseError as exc:
            result = str(exc)
        assert time.process_time() - start < 1
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
        start = time.process_time()
        value = parse_scalar(f"({base})")
        assert time.process_time() - start < 5
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

    @pytest.mark.parametrize("text, expected", [
        ("1 - -X", "X + 1"),
        ("1 + +X", "X + 1"),
        ("1 - 2^2", "-3"),
        ("-X^2 - -3*X^3*X", "3*X^4 - X^2"),
        ("(0) + (1)/(X^2+1) + X", "(X^3 + X + 1)/(X^2 + 1)"),
        ("(X-X) + 1/(X^2+1)", "(1)/(X^2 + 1)"),
        ("1 -", ParseError("expected a value, found end of input", 3)),
        ("1 -* 2", ParseError("expected a value, found '*'", 3)),
        ("1 - )", ParseError("expected a value, found ')'", 4)),
        # A product of a sum is checked at the offset of the term's sign, also
        # after a term read by one match.
        ("1/(X+1)^1000 - 1/(X+2)^1000", ResourceLimitError(
            "product at offset 13 would have up to 2^23 bits, past the bound of 2^22")),
        ("X^3000000 - 1/(X+1)", ResourceLimitError(
            "product at offset 10 would have up to 2^23 bits, past the bound of 2^22")),
    ])
    def test_a_sign_between_terms_is_the_next_terms_own_sign(self, text, expected):
        # a - b is a + (-b): the '-' is read as the unary sign of b.
        if isinstance(expected, str):
            assert str(parse_expression(text)) == expected
        else:
            with pytest.raises(type(expected)) as exc:
                parse_expression(text)
            assert str(exc.value) == str(expected)

    def test_a_dense_sum_of_scaled_powers_is_read_in_linear_time(self):
        # Each term c*X^e with c != +-1 was built as a dense X^e and scaled, so
        # this 8001-term sum took about 5 s; each term now adds one coefficient.
        rng = random.Random(8000)
        base = format_polynomial(Polynomial(tuple(rng.choice((2, 3, -5)) for _ in range(8001))))
        start = time.process_time()
        value = parse_scalar(f"({base})")
        assert time.process_time() - start < 1
        assert format_polynomial(value.num) == base and value.den == Polynomial.one()


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
        start = time.process_time()
        parse_scalar(base)
        read = time.process_time() - start
        start = time.process_time()
        with pytest.raises(ResourceLimitError) as exc:
            parse_scalar(base + power)
        assert time.process_time() - start - read < 1
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
        start = time.process_time()
        with pytest.raises(ResourceLimitError) as exc:
            parse_scalar(text)
        assert time.process_time() - start < 1
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
