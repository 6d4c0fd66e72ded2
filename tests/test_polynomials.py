import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressring import (
    NEG_INF,
    CertificateError,
    Polynomial,
    RationalFunction,
    ZeroDenominatorError,
    ZeroPolynomialError,
    divrem,
    poly_gcd,
    squarefree_part,
)
from dressring.polynomials import _exact_div, squarefree_decomposition

from helpers import extended_gcd, rand_poly, rand_rf

X = Polynomial.x()


def P(*coeffs):
    """Polynomial from coefficients given highest degree first."""
    return Polynomial.from_coeffs(list(reversed(coeffs)))


class TestArithmetic:
    def test_gcd_common_factor(self):
        assert poly_gcd(X * X - 1, X * X - X) == X - 1

    def test_divrem_long_division(self):
        q, r = divrem(X**3, X * X + 1)
        assert q == X and r == -X

    def test_mul_difference_of_squares(self):
        assert (X + 1) * (X - 1) == X * X - 1

    def test_divrem_by_zero(self):
        with pytest.raises(ZeroPolynomialError):
            divrem(X, Polynomial.zero())

    def test_gcd_monic(self):
        g = poly_gcd(P(2, 0, -2), P(4, -4))  # 2X^2-2 and 4X-4
        assert g == X - 1
        assert g.leading_coefficient == 1

    def test_zero_degree_sentinel(self):
        assert Polynomial.zero().degree == NEG_INF
        assert Polynomial.zero().degree != -1
        assert Polynomial.one().degree == 0

    def test_pow(self):
        assert (X + 1) ** 2 == X * X + 2 * X + 1
        assert (X + 1) ** 0 == Polynomial.one()
        p = X - Fraction(1, 2)
        for n in range(12):
            expected = Polynomial.one()
            for _ in range(n):
                expected = expected * p
            assert p**n == expected

    def test_evaluate(self):
        p = P(1, -3, 2)
        assert p.evaluate(2) == Fraction(0)
        assert p.evaluate(Fraction(1, 2)) == Fraction(3, 4)


def assert_canonical(p):
    """Positive denominator, lowest terms, no trailing zero; coeffs agrees."""
    assert p.denom > 0
    assert gcd(p.denom, *p.ints) == 1
    assert not p.ints or p.ints[-1] != 0
    assert p.coeffs == tuple(Fraction(c, p.denom) for c in p.ints)


_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(max_examples=120, deadline=None)
@given(st.lists(_fractions, max_size=6), st.lists(_fractions, min_size=1, max_size=4))
def test_divrem_reconstruction_hypothesis(ca, cb):
    a = Polynomial.from_coeffs(ca)
    b = Polynomial.from_coeffs(cb)
    if b.is_zero:
        return
    q, r = divrem(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree
    for p in (a, b, q, r, a * b, a + b, a - b, b.monic(), a.derivative(), a.scale(cb[-1])):
        assert_canonical(p)
    # One value reached by two routes has one canonical form: equal fields and hash.
    for x, y in ((q * b + r, a), ((a + b) - b, a), (b.monic().scale(b.leading_coefficient), b),
                 (Polynomial.from_coeffs(list(a.coeffs) + [0]), a)):
        assert x == y and hash(x) == hash(y) and (x.ints, x.denom) == (y.ints, y.denom)


def test_exact_div_raises_on_a_remainder():
    assert _exact_div(X * X - 1, X + 1) == X - 1
    with pytest.raises(CertificateError):
        _exact_div(X * X + 1, X + 1)


def test_divrem_reconstruction_random():
    rng = random.Random(101)
    for _ in range(200):
        a = rand_poly(rng, 6)
        b = rand_poly(rng, 4, nonzero=True)
        q, r = divrem(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_extended_gcd_identity():
    rng = random.Random(7)
    for _ in range(100):
        a = rand_poly(rng, 4, nonzero=True)
        b = rand_poly(rng, 4, nonzero=True)
        g, u, v = extended_gcd(a, b)
        assert u * a + v * b == g
        assert g == poly_gcd(a, b)


def test_gcd_with_linear_operand():
    # A linear operand b gives the gcd b or 1, read off the value of the other
    # operand at the root of b; the helpers' extended_gcd loop is the reference.
    rng = random.Random(1041)
    seen = set()
    for i in range(300):
        b = P(rng.choice([-4, -3, -1, 1, 2, 5]), rng.randint(-6, 6))
        b = b.scale(Fraction(1, rng.randint(1, 4)))
        a = rand_poly(rng, 5, nonzero=True) * (b if i % 2 else Polynomial.one())
        for p, q in ((a, b), (b, a)):
            g = poly_gcd(p, q)
            assert g == extended_gcd(p, q)[0], (str(p), str(q))
            seen.add(g.degree)
    assert seen == {0, 1}


def test_squarefree_part():
    p = (X - 1) ** 3 * (X + 2) * (X * X + 1) ** 2
    sf = squarefree_part(p)
    assert sf == ((X - 1) * (X + 2) * (X * X + 1)).monic()


def test_squarefree_decomposition_reassembles():
    rng = random.Random(13)
    for _ in range(50):
        p = rand_poly(rng, 3, nonzero=True) * rand_poly(rng, 2, nonzero=True) ** 2
        parts = squarefree_decomposition(p)
        rebuilt = Polynomial.constant(p.leading_coefficient)
        for s, mult in parts:
            rebuilt = rebuilt * s**mult
        assert rebuilt == p


class TestRationalFunction:
    def test_normalize_cancels_and_makes_monic(self):
        r = RationalFunction.make(X * X - 1, 2 * X - 2)
        assert r.num == Polynomial.from_coeffs([Fraction(1, 2), Fraction(1, 2)])
        assert r.den == Polynomial.one()

    def test_normalize_is_idempotent(self):
        r = RationalFunction.make(X * X - 1, 2 * X - 2)
        again = RationalFunction.make(r.num, r.den)
        assert again == r

    def test_x_over_x(self):
        assert RationalFunction.make(X, X) == RationalFunction.one()

    def test_zero_numerator(self):
        r = RationalFunction.make(Polynomial.zero(), X * X + 1)
        assert r == RationalFunction.zero()
        assert r.den == Polynomial.one()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            RationalFunction.make(X, Polynomial.zero())

    def test_degree(self):
        assert RationalFunction.make(X, X * X + 1).degree == -1
        assert RationalFunction.make(X * X + 3, X * X + 1).degree == 0
        assert RationalFunction.zero().degree == NEG_INF

    def test_field_ops(self):
        rng = random.Random(23)
        for _ in range(50):
            a = rand_rf(rng, 3)
            b = rand_rf(rng, 3)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) - b == a
            if b:
                assert (a / b) * b == a


    def test_polynomial_operands_match_make(self):
        # Sums, products and powers of polynomials skip make; the result
        # must be the value make would return.
        rng = random.Random(24)
        polys = [rand_poly(rng, 3) for _ in range(30)] + [Polynomial.zero()]
        one = Polynomial.one()
        for p, q in zip(polys, reversed(polys)):
            a, b = RationalFunction.from_polynomial(p), RationalFunction.from_polynomial(q)
            assert a + b == RationalFunction.make(p + q, one)
            assert a - b == RationalFunction.make(p - q, one)
            assert a * b == RationalFunction.make(p * q, one)
            assert a**3 == RationalFunction.make(p**3, one)
            assert a + 2 == RationalFunction.make(p + 2, one)
            if q:
                r = a / b
                assert r**2 == RationalFunction.make(p * p, q * q)


class TestSympyOracle:
    """Differential checks of the gcd and Yun's decomposition against SymPy."""

    @staticmethod
    def _to_sympy(sympy, p: Polynomial):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                          sympy.Symbol("x"), domain="QQ")

    @staticmethod
    def _from_sympy(p) -> Polynomial:
        return Polynomial.from_coeffs([Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])

    def test_poly_gcd(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1021)
        for i in range(150):
            common = rand_poly(rng, 3, -20, 20, nonzero=True) if i % 3 else Polynomial.one()
            lo, hi = (-10**30, 10**30) if i % 5 == 0 else (-9, 9)
            a = common * rand_poly(rng, 5, lo, hi, nonzero=True)
            b = common * rand_poly(rng, 5, lo, hi) * Polynomial.constant(Fraction(1, rng.randint(1, 7)))
            expected = self._to_sympy(sympy, a).gcd(self._to_sympy(sympy, b))
            assert poly_gcd(a, b) == self._from_sympy(expected).monic(), (str(a), str(b))

    def test_squarefree_decomposition(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1031)
        for _ in range(80):
            p = Polynomial.constant(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            for mult in range(1, 5):
                if rng.random() < 0.6:
                    p = p * rand_poly(rng, 2, -6, 6, nonzero=True) ** mult
            if p.degree < 1:
                continue
            _, factors = self._to_sympy(sympy, p).sqf_list()
            expected = sorted((m, self._from_sympy(f).monic().ints) for f, m in factors)
            got = sorted((m, s.ints) for s, m in squarefree_decomposition(p))
            assert got == expected, str(p)
