import operator
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dressring import (
    NEG_INF,
    CertificateError,
    DressElement,
    Polynomial,
    RationalFunction,
    ZeroDenominatorError,
    ZeroPolynomialError,
    divrem,
    parse_scalar,
    poly_gcd,
    squarefree_part,
)
from dressring import dress, polynomials
from dressring.polynomials import _cofactor, _gcd_cofactors, squarefree_decomposition
from dressring.realroots import IsolatingInterval, cauchy_bound

from helpers import (_pdiv_reference, best_time, extended_gcd, rand_poly, rand_rf,
                     signed_remainders_reference)

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


@settings(max_examples=120, deadline=None)
@given(st.lists(_fractions, max_size=6), st.lists(_fractions, max_size=6), _fractions)
def test_subtraction_matches_the_coefficients(ca, cb, c):
    a, b = Polynomial.from_coeffs(ca), Polynomial.from_coeffs(cb)
    n = max(len(ca), len(cb))
    diff = [x - y for x, y in zip(ca + [0] * (n - len(ca)), cb + [0] * (n - len(cb)))]
    assert a - b == Polynomial.from_coeffs(diff) == a + (-b)
    assert_canonical(a - b)
    assert c - a == Polynomial.constant(c) - a == -(a - c)


def test_exact_div_raises_on_a_remainder(monkeypatch):
    # A quotient by X - r is _cofactor's, which is 0 on a remainder; for a
    # point that isolation returns as an exact root but is none,
    # classify_numerator reports that 0 as a CertificateError.
    assert _cofactor(X * X - 1, (1, 1)) == X - 1
    assert _cofactor(X * X + 1, (1, 1)).is_zero
    monkeypatch.setattr(dress, "isolate_real_roots", lambda s: [IsolatingInterval(2, 2, 2)])
    with pytest.raises(CertificateError, match=r"^X - 2 does not divide X\^2 - 2$"):
        dress.classify_numerator(DressElement.from_parts(X * X - 2, X * X + 1))


def test_quotient_kernel_against_divrem():
    # _quotient(a, h) answers exactly when divrem leaves no remainder, and
    # then with divrem's quotient; _cofactor(p, h) is p / monic(h) or 0.
    # The divisors are primitive with |lc| up to 6, degree 0 to 5 and either
    # end the larger, and the planted quotients and remainders have runs of
    # zero coefficients.
    rng = random.Random(3131)

    def sparse(n):
        return [rng.randint(-9, 9) if rng.random() < 0.5 else 0 for _ in range(n)]

    seen = set()
    for i in range(1500):
        deg = rng.choice((0, 1, 1, 2, 3, 5))
        h = sparse(deg) + [rng.choice((-6, -3, -2, -1, 1, 2, 5, 6))]
        h = list(polynomials._strip_content(h))
        hp = Polynomial(tuple(h))
        a = Polynomial.from_coeffs(sparse(rng.randint(0, 9))) * hp
        if i % 3 == 1:
            a = a + Polynomial.from_coeffs(sparse(deg))
        elif i % 3 == 2:
            a = Polynomial.from_coeffs(sparse(rng.randint(0, 12)))
        a = a * rng.choice((1, 1, 4, -15))
        q, r = divrem(a, hp)
        got = polynomials._quotient(a.ints, h)
        assert (got is None) == bool(r), (a.ints, h)
        if got is not None:
            assert Polynomial.from_coeffs(got) == q, (a.ints, h)
        p = a.scale(Fraction(rng.randint(1, 5), rng.randint(1, 7)))
        if p:
            cofactor = polynomials._cofactor(p, h)
            assert cofactor == (Polynomial.zero() if r else divrem(p, hp.monic())[0])
            assert_canonical(cofactor)
        seen.add((min(deg, 2), abs(h[-1]) > 1, abs(h[0]) > abs(h[-1]), got is None))
    assert seen == {(0, False, False, False)} | {
        (d, big, low, refuted) for d in (1, 2) for big in (False, True)
        for low in (False, True) for refuted in (False, True)}


# (a, h) for the linear branch of _quotient at its edges.  h = h0 + h1 X is
# divided from the top when |h1| >= |h0| and from the bottom otherwise.
LINEAR_QUOTIENT_EDGES = {
    "a zero": ([], [1, 2]),
    "a zero, bottom": ([], [3, -1]),
    "a constant": ([5], [1, 2]),
    "a constant, bottom": ([6], [3, 1]),
    "|h0| = |h1|, divides": ([1, 1, 3, 3], [1, 1]),
    "|h0| = |h1|, refuted": ([2, 0, 0, 1], [-1, 1]),
    "h0 = 0, divides": ([0, 2, 0, -3], [0, 1]),
    "h0 = 0, refuted": ([1, 2], [0, -1]),
    "refuted at the first step, top": ([1, 0, 3], [1, 2]),
    "refuted at the first step, bottom": ([1, 0, 3], [3, 1]),
    "refuted at the last step, top": ([3, 0, 0, 1], [-1, 1]),
    "refuted at the last step, bottom": ([2, 1, 2], [2, 1]),
    "divides, bottom": ([-6, 1, 1], [3, 1]),
}


@pytest.mark.parametrize("case", LINEAR_QUOTIENT_EDGES)
def test_linear_quotient_edges_against_divrem(case):
    a, h = LINEAR_QUOTIENT_EDGES[case]
    q, r = divrem(Polynomial.from_coeffs(a), Polynomial(tuple(h)))
    got = polynomials._quotient(a, h)
    assert (got is None) == bool(r)
    if got is not None:
        assert Polynomial.from_coeffs(got) == q
    assert (got is None) == ("refuted" in case or case.startswith("a constant"))


def _chain_pairs(seed: int = 3939, count: int = 300) -> list[tuple[list[int], list[int]]]:
    """Seeded primitive pairs (a, b) of degree 1-14: every third pair sparse,
    to force defective steps; deg b above, equal to and below deg a in turn,
    so a third of the chains open with a Tarski swap and a third with an
    equal-degree step; every fifth pair with a common factor of degree 1-3."""
    rng = random.Random(seed)

    def rand_list(deg, sparse):
        body = [rng.randint(-9, 9) if not sparse or rng.random() < 0.3 else 0 for _ in range(deg)]
        return body + [rng.choice((-7, -3, -2, -1, 1, 2, 5))]

    pairs = []
    for i in range(count):
        sparse = i % 3 == 0
        m = rng.randint(1, 14)
        n = (m + rng.randint(1, 4), m, rng.randint(0, m - 1))[i // 3 % 3]
        a, b = rand_list(m, sparse), rand_list(n, sparse)
        if i % 5 == 0:
            common = Polynomial(tuple(rand_list(rng.randint(1, 3), False)))
            a, b = (Polynomial(tuple(a)) * common).ints, (Polynomial(tuple(b)) * common).ints
        pairs.append((list(polynomials._strip_content(a)), list(polynomials._strip_content(b))))
    return pairs


class TestSubresultantChains:
    def test_members_are_subresultants(self):
        # Every member but the last is sympy's subresultant up to sign; the
        # last is the primitive part of sympy's last.  sympy swaps a pair
        # with deg a < deg b itself, as the chain's opening -a does.
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        shapes = set()
        for a, b in _chain_pairs():
            chain = polynomials._signed_remainders(a, b)
            swapped = len(a) < len(b)
            mine = chain[1:] if swapped else chain
            theirs = [[int(c) for c in reversed(p.all_coeffs())] for p in sympy.subresultants(
                sympy.Poly(a[::-1], x), sympy.Poly(b[::-1], x))]
            assert len(mine) == len(theirs), (a, b)
            for got, want in zip(mine[:-1], theirs[:-1]):
                assert got in (want, [-c for c in want]), (a, b)
            last = list(polynomials._strip_content(theirs[-1]))
            assert mine[-1] in (last, [-c for c in last]), (a, b)
            degrees = [len(m) for m in mine]
            shapes.add((swapped, len(a) == len(b),
                        any(d - e > 1 for d, e in zip(degrees[1:], degrees[2:]))))
        assert {(True, False, True), (False, True, True), (False, False, True)} <= shapes

    def test_members_are_positive_multiples_of_the_primitive_chain(self):
        # Against the loop that took each member's content: the same degrees,
        # each member a positive multiple of the primitive one (so the same
        # primitive part, sign included), and the same last member.  The
        # chain loop forms normal steps itself; after the first step each
        # divides by beta >= |lc a|, so a normal step from an a with
        # |lc a| > 1 divides by beta > 1.
        normal_with_beta = 0
        for a, b in _chain_pairs():
            chain = polynomials._signed_remainders(a, b)
            reference = signed_remainders_reference(a, b)
            assert [len(m) for m in chain] == [len(m) for m in reference], (a, b)
            for got, want in zip(chain, reference):
                assert list(polynomials._strip_content(got)) == list(want), (a, b)
            assert list(chain[-1]) == list(reference[-1]), (a, b)
            first = 1 if len(a) < len(b) else 0  # beta = 1 dividing chain[first] by chain[first + 1]
            normal_with_beta += sum(len(chain[i]) == len(chain[i + 1]) + 1 and abs(chain[i][-1]) > 1
                                    for i in range(first + 1, len(chain) - 2))
        assert normal_with_beta > 100

    @pytest.mark.parametrize("sparse", [False, True])
    def test_members_stay_within_hadamards_bound(self, sparse):
        # The Sturm pair (a, a') of a degree-18 a, dense (every step normal)
        # or a polynomial in X^6 (defective steps): the member after one of
        # degree d is S_(d-1), so its coefficients are at most
        # |f|_2^(n-j) |g|_2^(m-j) with j = d - 1; compared squared, on integers.
        rng = random.Random(1818)
        a = [rng.randint(-99, 99) if not sparse or i % 6 == 0 else 0 for i in range(18)] + [7]
        b = list(polynomials._strip_content([i * c for i, c in enumerate(a)][1:]))
        chain = polynomials._signed_remainders(a, b)
        m, n = len(a) - 1, len(b) - 1
        f2, g2 = sum(c * c for c in a), sum(c * c for c in b)
        assert [len(c) - 1 for c in chain] == ([18, 17, 12, 11, 6, 5, 0] if sparse
                                               else list(range(18, -1, -1)))
        for before, member in zip(chain[1:], chain[2:]):
            j = len(before) - 2
            assert max(c * c for c in member) <= f2 ** (n - j) * g2 ** (m - j)

    def test_normal_step_matches_the_division_loop(self):
        # _pdiv's one loop, which divrem and a chain's steps other than normal
        # ones (deg a = deg b + 1 >= 2) take, gives the reference loop's
        # (q, r, s) on every shape, normal ones included.  Scaling a by beta
        # scales q by beta and leaves r, once divided by beta.
        rng = random.Random(2727)
        shapes = set()
        for _ in range(400):
            db = rng.randint(0, 9)
            a = [rng.randint(-99, 99) for _ in range(db + rng.randint(0, 4))] + [rng.choice((-3, -1, 2, 5))]
            b = [rng.randint(-99, 99) for _ in range(db)] + [rng.choice((-4, -1, 1, 3))]
            beta = rng.choice((1, 2, 6, 35))
            q, r, s = _pdiv_reference(a, b)
            a = [beta * c for c in a]
            assert polynomials._pdiv(a, b, beta) == ([beta * c for c in q], r, s), (a, b, beta)
            shapes.add((len(a) - len(b) == 1 and db > 0, beta > 1))
        assert shapes == {(True, False), (True, True), (False, False), (False, True)}


class TestGammaOneKernels:
    """Exact division by 1 + X^2 in one pass, and the product it inverts."""

    @pytest.mark.parametrize("times", [0, 1, 2, 3])
    def test_divides_exactly_times(self, times):
        # core(i) != 0, so core (1 + X^2)^times is divided exactly `times`
        # times; over a non-unit denominator each quotient stays canonical.
        rng = random.Random(3100 + times)
        gamma1 = X * X + 1
        checked = 0
        for _ in range(60):
            core = rand_poly(rng, 4, nonzero=True).scale(Fraction(rng.randint(1, 4),
                                                                  rng.choice((1, 2, 6))))
            if not divrem(core, gamma1)[1]:
                continue
            checked += 1
            p = core * gamma1**times
            assert list(p.ints) == polynomials._gamma1_product(core.ints, times)
            c = p.ints
            for j in range(times):
                c = polynomials._gamma1_quotient(c)
                assert Polynomial(tuple(c), p.denom) == divrem(p, gamma1 ** (j + 1))[0]
            assert polynomials._gamma1_quotient(c) is None and list(c) == list(core.ints)
        assert checked >= 50

    @pytest.mark.parametrize("ints", [(5,), (0, 1), (1, 2), (1, 0, 2), (1, 1, 1), (1, 0, 0, 1),
                                      (0, 1, 0, 1, 1)])
    def test_not_divisible(self, ints):
        assert polynomials._gamma1_quotient(ints) is None
        assert divrem(Polynomial(ints), X * X + 1)[1]

    def test_non_unit_denominator(self):
        # (3X + 1)(1 + X^2)/2: the quotient (3X + 1)/2 is canonical as it stands.
        p = (3 * X + 1).scale(Fraction(1, 2)) * (X * X + 1)
        assert p.denom == 2
        assert Polynomial(tuple(polynomials._gamma1_quotient(p.ints)), p.denom) == \
            (3 * X + 1).scale(Fraction(1, 2))


@pytest.mark.parametrize("j", [1, 5, 64, 1000])
def test_kronecker_point_is_one_bit_past_a_false_pass(j):
    # P = X - 2^j alone decides P == 0 (one product, the other side empty).
    # The bound |P|_1 = 2^j + 1 gives k = j + 1: at 2^k, P is nonzero, and
    # one bit less, X = 2^(k-1) is P's root, where P == 0 would pass.
    p = X - 2**j
    d, two_k, at = polynomials._kronecker([p], 1)
    assert d == 1 and two_k == at(X) == 2 ** (j + 1)
    assert at(p) == p(two_k) != 0 and p(two_k // 2) == 0


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


def test_gcd_with_linear_operand_is_linear_in_the_degree():
    # The exact-division kernel alone decides a linear operand: it refutes
    # 3X + 2 | X^400000 + 1 from the end of larger absolute value, in time
    # linear in the degree (test_linear_branch_is_linear_in_the_degree).
    a, b = Polynomial((1,) + (0,) * 399_999 + (1,)), 3 * X + 2
    assert _gcd_cofactors(a, b) == (Polynomial.one(), a, b)
    # When b divides a, the kernel's quotient is the cofactor.
    a = X**2000 - Fraction(-2, 3) ** 2000
    g, a_g, b_g = _gcd_cofactors(a, b)
    assert g == X + Fraction(2, 3) and a_g * g == a and b_g == Polynomial.constant(3)
    # A value 0 modulo the prime 2^30 - 35 at no root, and a b1 that prime
    # divides: inputs that any refutation modulo that prime hands on to the
    # kernel.
    p = 2**30 - 35
    for a, b in ((X * X - 4 - p, X - 2), (X * X + 1, p * X + 1)):
        assert _gcd_cofactors(a, b) == (Polynomial.one(), a, b)
    assert _gcd_cofactors((p * X + 1) * (X * X + 1), p * X + 1)[0] == X + Fraction(1, p)


@pytest.mark.parametrize("case", ["cancels", "residue 0 at no root", "coprime", "monic coprime",
                                  "false quadratic candidate"])
def test_linear_branch_is_linear_in_the_degree(case):
    # (3X + 2)(X^k + 1)/(3X + 2): the exact-division kernel cancels 3X + 2.
    # (X^k - c)/(X - 2) with c = 2^k mod 2^30 - 35 is 0 modulo that prime
    # at 2 but a(2) != 0: dividing by the unit lc from the top would double
    # every term, so the kernel divides by -2 from the bottom and refutes
    # within a few steps.  (X^k + 1)/(3X + 2) is refuted at the first step,
    # and the monic (X^k + 3)/(X - 1) only by the final remainder, after k
    # steps of terms at most 4.  For (X^k - c)/(X^2 - 2) with c = 33^k mod
    # 1087, GCDHEU proposes X^2 - 2 at xi = 33: the kernel divides by its
    # heavier end -2 from the bottom and refutes at the first step, c being
    # odd, where from the top the quotient terms would double (quadratic in
    # time and memory).  Eight times k takes about 8 times as long
    # when linear; building 3^k a(-2/3) or a(2) exactly took 30 to 45 times.
    # A ratio, not a time, so host load cancels.  Each size is the best of
    # several runs, 9 at the large size and 5 at the small one: load only adds
    # time, and at the large size it adds the most.
    def time_parse(k, repeats):
        if case == "cancels":
            text, num, den = f"(3*X+2)*(X^{k}+1)/(3*X+2)", X**k + 1, Polynomial.one()
        elif case == "residue 0 at no root":
            c = pow(2, k, 2**30 - 35)
            text, num, den = f"(X^{k} - {c})/(X - 2)", X**k - c, X - 2
        elif case == "coprime":
            text, num, den = f"(X^{k}+1)/(3*X+2)", (X**k + 1).scale(Fraction(1, 3)), X + Fraction(2, 3)
        elif case == "monic coprime":
            text, num, den = f"(X^{k}+3)/(X-1)", X**k + 3, X - 1
        else:
            c = pow(33, k, 1087)
            text, num, den = f"(X^{k} - {c})/(X^2 - 2)", X**k - c, X**2 - 2

        def run():
            r = parse_scalar(text)
            assert (r.num, r.den) == (num, den)

        return best_time(run, repeats=repeats)

    assert time_parse(200_000, 9) < 14 * time_parse(25_000, 5)


class TestGcdWithoutCliff:
    """Large gcds, each bounded at 0.5 s (a degree-200000 parse at 2 s).

    A remainder sequence took 1-3 s on each gcd here and 60 s on the parse.
    """

    @staticmethod
    def _poly(rng: random.Random, degree: int, bound: int = 10**6) -> Polynomial:
        return Polynomial.from_coeffs([rng.randint(-bound, bound) for _ in range(degree)]
                                      + [rng.randint(1, bound)])

    @staticmethod
    def _timed(call):
        start = time.process_time()
        result = call()
        assert time.process_time() - start < 0.5
        return result

    def test_coprime_degree_150_pair(self):
        rng = random.Random(150)
        a, b = self._poly(rng, 150), self._poly(rng, 150)
        assert self._timed(lambda: poly_gcd(a, b)) == Polynomial.one()

    def test_degree_150_against_a_power_of_gamma(self):
        rng = random.Random(151)
        a, g = self._poly(rng, 150), (X * X + 1) ** 75
        # X^2 + 1 is irreducible, so a nonzero remainder proves coprimality.
        assert divrem(a, X * X + 1)[1]
        assert self._timed(lambda: poly_gcd(a, g)) == Polynomial.one()
        assert self._timed(lambda: poly_gcd(a * (X * X + 1), g)) == X * X + 1

    def test_degree_40_common_factor(self):
        rng = random.Random(40)
        common = self._poly(rng, 40)
        a, b = common * self._poly(rng, 110), common * self._poly(rng, 110)
        assert self._timed(lambda: poly_gcd(a, b)) == common.monic()

    def test_parse_degree_299_over_gamma_150(self):
        rng = random.Random(299)
        num = self._poly(rng, 299, 9)
        text = f"({num})/(X^2+1)^150"
        r = self._timed(lambda: parse_scalar(text))
        assert (r.num, r.den) == (num, (X * X + 1) ** 150)

    @pytest.mark.parametrize("text, num, den", [
        ("X^200000 - (X+1)/(X^2+1)", X**200000 * (X * X + 1) - X - 1, X * X + 1),
        ("(X^200001 + 1)/(X^2 - 30*X - 31)", X**200001 + 1, X * X - 30 * X - 31),
    ])
    def test_parse_degree_200000_over_a_quadratic(self, text, num, den):
        # A(xi) of the long operand would take about 25 s; A(xi) mod B(xi)
        # is linear in its degree.  X^2 - 30X - 31 vanishes at the first
        # point xi = 31, and X + 1 divides both.
        start = time.process_time()
        r = parse_scalar(text)
        assert time.process_time() - start < 2
        g = X + 1 if den(-1) == 0 else Polynomial.one()
        assert (r.num, r.den) == (divrem(num, g)[0], divrem(den, g)[0])


def test_squarefree_part():
    p = (X - 1) ** 3 * (X + 2) * (X * X + 1) ** 2
    sf = squarefree_part(p)
    assert sf == ((X - 1) * (X + 2) * (X * X + 1)).monic()


def test_zero_polynomial_errors_and_a_constant_squarefree_part():
    zero = Polynomial.zero()
    for read in (lambda: zero.leading_coefficient, lambda: squarefree_part(zero),
                 lambda: squarefree_decomposition(zero), lambda: cauchy_bound(zero)):
        with pytest.raises(ZeroPolynomialError):
            read()
    assert squarefree_part(Polynomial.constant(3)) == Polynomial.one()


def test_polynomial_operator_errors():
    p = X + 1
    with pytest.raises(ValueError):
        p ** -1
    with pytest.raises(TypeError):
        p + "x"
    with pytest.raises(TypeError, match=r"for -: 'str' and 'Polynomial'$"):
        "x" - p
    with pytest.raises(TypeError):
        X - "a"


def test_gcd_after_every_evaluation_point_fails(monkeypatch):
    # With no evaluation point the gcd is the remainder sequence's last
    # member: a constant one gives (1, a, b), as the heuristic does.
    monkeypatch.setattr(polynomials, "_HEU_TRIES", 0)
    rng = random.Random(4901)
    seen = set()
    for i in range(60):
        a = rand_poly(rng, 4, nonzero=True) + X**5
        b = (rand_poly(rng, 3, nonzero=True) + 2 * X**4).scale(Fraction(1, rng.randint(1, 3)))
        if i % 2:
            c = X * X + rng.randint(-3, 3) * X + rng.randint(1, 5)
            a, b = a * c, b * c
        g, a_g, b_g = _gcd_cofactors(a, b)
        assert g == extended_gcd(a, b)[0] and g * a_g == a and g * b_g == b
        if g.degree == 0:
            assert (g, a_g, b_g) == (Polynomial.one(), a, b)
        seen.add(g.degree >= 1)
    assert seen == {False, True}


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

    def test_evaluate(self):
        assert RationalFunction.make(X + 1, X * X + 1).evaluate(2) == Fraction(3, 5)
        with pytest.raises(ZeroDenominatorError, match="^pole at 1$"):
            RationalFunction.make(Polynomial.one(), X - 1).evaluate(1)

    def test_reflected_and_negative_power_operators(self):
        r = RationalFunction.make(X + 1, X * X + 1)
        assert 1 / r == RationalFunction.make(X * X + 1, X + 1)
        assert r**-2 == RationalFunction.make((X * X + 1) ** 2, (X + 1) ** 2)
        assert 2 - r == RationalFunction.make(2 * X * X - X + 1, X * X + 1)

    def test_polynomial_operand_and_operator_errors(self):
        r = RationalFunction.make(X + 1, X * X + 1)
        assert r + X == RationalFunction.make(X**3 + 2 * X + 1, X * X + 1)
        assert r * (X - 1) == RationalFunction.make(X * X - 1, X * X + 1)
        with pytest.raises(ZeroDenominatorError):
            r / RationalFunction.zero()
        with pytest.raises(ValueError):
            r**1.5
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(r, "a")
        with pytest.raises(TypeError):
            "a" / r
        assert repr(r) == "RationalFunction((X + 1)/(X^2 + 1))"

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

    @staticmethod
    def _gcd_pairs() -> list[tuple[Polynomial, Polynomial]]:
        """150 mixed pairs, some with 30-digit coefficients, then 200 sharing a factor."""
        pairs = []
        rng = random.Random(1021)
        for i in range(150):
            common = rand_poly(rng, 3, -20, 20, nonzero=True) if i % 3 else Polynomial.one()
            lo, hi = (-10**30, 10**30) if i % 5 == 0 else (-9, 9)
            a = common * rand_poly(rng, 5, lo, hi, nonzero=True)
            b = common * rand_poly(rng, 5, lo, hi) * Polynomial.constant(Fraction(1, rng.randint(1, 7)))
            pairs.append((a, b))
        rng = random.Random(1)
        for _ in range(200):
            common = rand_poly(rng, 2)
            while common.degree < 1:
                common = rand_poly(rng, 2)
            pairs.append((common * rand_poly(rng, 3, nonzero=True),
                          common * rand_poly(rng, 3, nonzero=True)))
        return pairs

    def _check_gcds(self, sympy, pairs):
        for a, b in pairs:
            expected = self._to_sympy(sympy, a).gcd(self._to_sympy(sympy, b))
            assert poly_gcd(a, b) == self._from_sympy(expected).monic(), (str(a), str(b))

    @staticmethod
    def _count_chains(monkeypatch) -> list:
        chains = []
        build = polynomials._signed_remainders
        monkeypatch.setattr(polynomials, "_signed_remainders",
                            lambda a, b: chains.append((a, b)) or build(a, b))
        return chains

    def test_poly_gcd(self):
        sympy = pytest.importorskip("sympy")
        self._check_gcds(sympy, self._gcd_pairs())

    def test_poly_gcd_retry_path(self, monkeypatch):
        # Pinned pairs whose first evaluation point gives a candidate that
        # fails the division check: with one point allowed they fall back to
        # the remainder sequence, with the default they succeed at a later one.
        sympy = pytest.importorskip("sympy")
        pairs = self._gcd_pairs()
        chains = self._count_chains(monkeypatch)
        tries = polynomials._HEU_TRIES
        monkeypatch.setattr(polynomials, "_HEU_TRIES", 1)
        first_point_fails = []
        for i, (a, b) in enumerate(pairs):
            chains.clear()
            poly_gcd(a, b)
            if chains:
                first_point_fails.append(i)
        assert first_point_fails == [38, 48, 58, 94, 121, 163, 178, 197, 198, 246, 260, 277, 294, 307]
        monkeypatch.setattr(polynomials, "_HEU_TRIES", tries)
        chains.clear()
        self._check_gcds(sympy, [pairs[i] for i in first_point_fails])
        assert chains == []

    def test_poly_gcd_fallback(self, monkeypatch):
        # With no evaluation point the remainder sequence answers every pair
        # that passes the constant, equal and linear shortcuts.
        sympy = pytest.importorskip("sympy")
        pairs = self._gcd_pairs()
        chains = self._count_chains(monkeypatch)
        monkeypatch.setattr(polynomials, "_HEU_TRIES", 0)
        self._check_gcds(sympy, pairs)
        assert len(chains) == sum(min(a.degree, b.degree) >= 2 and a != b for a, b in pairs)

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


def check_cofactors(a, b):
    """_gcd_cofactors(a, b), checked: g monic, g (a/g) == a, g (b/g) == b, coprime cofactors."""
    g, a_g, b_g = _gcd_cofactors(a, b)
    for p in (g, a_g, b_g):
        assert_canonical(p)
    assert g.leading_coefficient == 1
    assert g * a_g == a and g * b_g == b
    assert poly_gcd(a_g, b_g) == Polynomial.one()
    assert poly_gcd(a, b) == g
    return g, a_g, b_g


@settings(max_examples=150, deadline=None)
@given(st.lists(_fractions, min_size=1, max_size=4), st.lists(_fractions, min_size=1, max_size=5),
       st.lists(_fractions, min_size=1, max_size=5))
def test_gcd_cofactors_of_a_planted_factor(cc, ca, cb):
    common, a, b = map(Polynomial.from_coeffs, (cc, ca, cb))
    assume(common and a and b)
    g = check_cofactors(common * a, common * b)[0]
    assert divrem(g, common.monic())[1].is_zero


class TestGcdCofactorBranches:
    """Each way _gcd_cofactors answers, with its cofactors in the caller's order."""

    def test_equal_operands(self):
        # (2X + 1)/4 has ints (1, 2) over 4: its leading coefficient 1/2 is
        # the cofactor, and only the canonical (1,)/2 equals other values.
        a = Polynomial.from_coeffs([Fraction(1, 4), Fraction(1, 2)])
        g, a_g, b_g = check_cofactors(a, a)
        assert g == X + Fraction(1, 2)
        assert (a_g.ints, a_g.denom) == (b_g.ints, b_g.denom) == ((1,), 2)

    def test_constant_operand(self):
        c, p = Polynomial.constant(Fraction(-3, 2)), X * X + 1
        assert check_cofactors(c, p) == (Polynomial.one(), c, p)
        assert check_cofactors(p, c) == (Polynomial.one(), p, c)

    def test_linear_operand(self):
        lin, lc = (2 * X - 2).scale(Fraction(1, 3)), Polynomial.constant(Fraction(2, 3))
        for other, g in (((X - 1) * (X * X + 3), X - 1), (X * X + 3, Polynomial.one())):
            assert check_cofactors(other, lin)[0] == g
            assert check_cofactors(lin, other)[0] == g
        assert check_cofactors(lin, (X - 1) * X)[1:] == (lc, X)
        assert check_cofactors((X - 1) * X, lin)[1:] == (X, lc)

    def test_monomial_operand(self):
        # c X^m against q with X^v || q: the gcd is X^min(m, v) and the
        # cofactors are shifts; the helpers' extended_gcd loop is the reference.
        rng = random.Random(1043)
        seen = set()
        for _ in range(300):
            c = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
            mono = Polynomial.from_coeffs([0] * rng.randint(0, 8) + [c])
            other = rand_poly(rng, 5, nonzero=True) * X ** rng.randint(0, 6)
            for p, q in ((mono, other), (other, mono), (mono, mono * X)):
                g = check_cofactors(p, q)[0]
                assert g == extended_gcd(p, q)[0], (str(p), str(q))
                seen.add(g.degree)
        assert seen.issuperset(range(9))
        for k in range(1, 40):
            r = parse_scalar(f"1/X^{k} + X")
            assert (r.num, r.den) == (X ** (k + 1) + 1, X**k)

    def test_shorter_operand_vanishing_at_the_point(self):
        # The first point is xi = 2 * 1 + 29 = 31, a root of the shorter
        # operand; A(xi) mod B(xi) would divide by zero there.
        b = X * X - 30 * X - 31
        for a in (X**3 + 1, X**2001 + 1):
            assert b(31) == 0 and check_cofactors(a, b)[0] == X + 1
            assert check_cofactors(b, a)[0] == X + 1
        assert check_cofactors(X**2000 + 1, b)[0] == Polynomial.one()

    def test_retry_and_fallback(self, monkeypatch):
        # The pinned pairs whose first evaluation point fails the division
        # check take a later point; with no point at all the remainder
        # sequence answers.  Both give the same cofactors in the same order.
        pairs = TestSympyOracle._gcd_pairs()
        retried = [pairs[i] for i in (38, 48, 58, 94, 121, 163, 178, 197, 198, 246)]
        chains = TestSympyOracle._count_chains(monkeypatch)
        heuristic = [check_cofactors(a, b) for a, b in retried + pairs[::7]]
        assert chains == []
        monkeypatch.setattr(polynomials, "_HEU_TRIES", 0)
        fallback = [check_cofactors(a, b) for a, b in retried + pairs[::7]]
        assert fallback == heuristic and len(chains) >= len(retried)
