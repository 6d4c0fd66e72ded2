import functools
import hashlib
import random
import time
from fractions import Fraction
from math import floor, isqrt, lcm

import pytest

from dressring import polynomials, realroots
from dressring.realroots import NEG_INF, POS_INF
from dressring import (
    Polynomial,
    SignPattern,
    ZeroPolynomialError,
    cauchy_bound,
    count_distinct_real_roots,
    is_gamma,
    is_gamma_plus,
    isolate_real_roots,
    poly_gcd,
    sign_at_roots,
    sturm_count,
)

from helpers import rand_gamma, rand_planted_roots_poly, rand_poly

X = Polynomial.x()


def grid_root_count_oracle(p: Polynomial, lo: int = -10, hi: int = 10) -> int:
    """Independent oracle for polynomials whose real roots are all integers in
    [lo, hi] (possibly times a sign-constant root-free factor): evaluate on the
    integer grid shifted by 1/3, so each unit cell holds at most one root, and
    count the cells where the sign changes."""
    pts = [Fraction(k) - Fraction(1, 3) for k in range(lo, hi + 2)]
    vals = [p.evaluate(t) for t in pts]
    assert all(v != 0 for v in vals), "oracle grid points must not be roots"
    return sum(1 for a, b in zip(vals, vals[1:]) if (a > 0) != (b > 0))


class _ChainCalls:
    def __init__(self):
        self.reset()

    def reset(self):
        self.chains, self.gcds, self.cofactor_gcds = [], 0, 0


@pytest.fixture
def chain_calls(monkeypatch):
    """Records the (a, b) of every remainder sequence built, counts poly_gcd
    calls, and counts the _gcd_cofactors calls made by realroots."""
    calls = _ChainCalls()
    build, gcd = polynomials._signed_remainders, polynomials.poly_gcd
    cofactors = realroots._gcd_cofactors

    def counting_cofactors(a, b):
        calls.cofactor_gcds += 1
        return cofactors(a, b)

    def counting_chain(a, b):
        calls.chains.append((a, b))
        return build(a, b)

    def counting_gcd(a, b):
        calls.gcds += 1
        return gcd(a, b)

    monkeypatch.setattr(polynomials, "_signed_remainders", counting_chain)
    monkeypatch.setattr(realroots, "_signed_remainders", counting_chain)
    monkeypatch.setattr(polynomials, "poly_gcd", counting_gcd)
    monkeypatch.setattr(realroots, "_gcd_cofactors", counting_cofactors)
    return calls


def repeated_root_grid(seed: int, count: int) -> list[tuple[Polynomial, Polynomial, list[Fraction]]]:
    """Seeded (p, q, planted rational roots of p), most p with a planted repeated factor.

    p is a random polynomial times (X - r)^k (k = 2 or 3), (X^2 - 2)^2,
    (X^2 + 1)^2 or nothing, in turn, with either sign of the leading
    coefficient; q is random and, half the time, shares the planted factor.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        p = rand_poly(rng, 4, nonzero=True)
        q = rand_poly(rng, 3, nonzero=True)
        roots = []
        kind = i % 4
        if kind == 0:
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            roots.append(r)
            planted = Polynomial.from_coeffs([-r, 1])
            p = p * planted ** rng.randint(2, 3)
        else:
            planted = (X * X - 2, X * X + 1, Polynomial.one())[kind - 1]
            p = p * planted**2
        if rng.random() < 0.5:
            q = q * planted
        if rng.random() < 0.5:
            p = -p
        out.append((p, q, roots))
    return out


class TestSturmCount:
    def test_no_real_roots(self):
        assert sturm_count(X * X + 1) == 0

    def test_sqrt_two_in_window(self):
        assert sturm_count(X * X - 2, 0, 2) == 1

    def test_three_planted_roots_against_oracle(self):
        p = (X - 1) * (X - 2) * (X - 3)
        expected = grid_root_count_oracle(p)
        assert expected == 3  # frozen from the oracle
        assert sturm_count(p) == expected

    def test_half_open_convention(self):
        p = X * (X - 1)
        assert sturm_count(p, -1, 0) == 1  # 0 is included at the right end
        assert sturm_count(p, 0, 1) == 1
        assert sturm_count(p, Fraction(1, 2), Fraction(3, 4)) == 0

    def test_repeated_roots_counted_once(self):
        p = (X - 1) ** 3 * (X + 2) ** 2
        assert sturm_count(p) == 2

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            sturm_count(Polynomial.zero())

    def test_empty_interval(self):
        assert sturm_count(X * X - 2, 5, -5) == 0

    def test_planted_random_roots(self):
        rng = random.Random(42)
        for _ in range(100):
            p, roots = rand_planted_roots_poly(rng, rng.randint(1, 4))
            gamma = rand_gamma(rng, 2)
            assert sturm_count(p * gamma) == len(roots)


class TestIsolation:
    def test_no_roots_empty(self):
        assert isolate_real_roots(X * X + 1) == []

    def test_sqrt_two_intervals(self):
        ivs = isolate_real_roots(X * X - 2)
        assert len(ivs) == 2
        for iv in ivs:
            assert sturm_count(X * X - 2, iv.lo, iv.hi) == 1
        # independent arithmetic check: the intervals bracket -sqrt(2), sqrt(2)
        neg, pos = ivs
        assert neg.hi <= 0 and neg.lo**2 > 2 > neg.hi**2
        assert pos.lo >= 0 and pos.lo**2 < 2 < pos.hi**2

    def test_rational_roots_exact(self):
        ivs = isolate_real_roots(X * (X - 1))
        assert [iv.exact for iv in ivs] == [Fraction(0), Fraction(1)]

    def test_intervals_disjoint_and_ordered(self):
        rng = random.Random(5)
        for _ in range(40):
            p, roots = rand_planted_roots_poly(rng, rng.randint(1, 4))
            q = p * (X * X - 2) * rand_gamma(rng, 1)
            ivs = isolate_real_roots(q)
            assert len(ivs) == len(roots) + 2
            for a, b in zip(ivs, ivs[1:]):
                assert a.hi < b.lo
            found = [iv.exact for iv in ivs if iv.is_exact]
            assert found == [Fraction(r) for r in roots]

    def test_non_dyadic_rational_root(self):
        p = Polynomial.from_coeffs([-1, 3]) * (X * X + 1)  # root 1/3
        ivs = isolate_real_roots(p)
        assert len(ivs) == 1 and ivs[0].exact == Fraction(1, 3)

    def test_roots_closer_than_the_recursion_limit(self):
        # The split points nest about 1100 deep before they separate the roots.
        big = 2**1100
        ivs = isolate_real_roots((X - 1) * (big * X - big - 1))
        assert [iv.exact for iv in ivs] == [Fraction(1), 1 + Fraction(1, big)]


class TestSignAtRoots:
    def test_all_positive(self):
        assert sign_at_roots(X + 1, X * X - X) is SignPattern.ALL_POSITIVE

    def test_mixed(self):
        assert sign_at_roots(X, X * X - 1) is SignPattern.MIXED

    def test_shared_root(self):
        assert sign_at_roots(X, X) is SignPattern.HAS_ZERO

    def test_no_roots(self):
        assert sign_at_roots(X + 5, X * X + 1) is SignPattern.NO_ROOTS

    def test_irrational_root_sign(self):
        # q(sqrt(2)) > 0 and q(-sqrt(2)) > 0 for q = X^2 - 1
        assert sign_at_roots(X * X - 1, X * X - 2) is SignPattern.ALL_POSITIVE
        # q = X is negative at -sqrt(2), positive at sqrt(2)
        assert sign_at_roots(X, X * X - 2) is SignPattern.MIXED

    def test_has_zero_iff_gcd_has_real_root(self):
        rng = random.Random(17)
        for _ in range(60):
            p = rand_poly(rng, 4, nonzero=True)
            q = rand_poly(rng, 4, nonzero=True)
            pattern = sign_at_roots(q, p)
            g = poly_gcd(p, q)
            gcd_has_real_root = g.degree >= 1 and count_distinct_real_roots(g) >= 1
            if count_distinct_real_roots(p) == 0:
                assert pattern is SignPattern.NO_ROOTS
            else:
                assert (pattern is SignPattern.HAS_ZERO) == gcd_has_real_root

    def test_no_cliff_in_approximation_bits(self, monkeypatch):
        # r agrees with sqrt(2) to 12000 bits, so an interval separating the
        # two takes about 12000 halvings; the Tarski query takes none.  The
        # largest chain member is the last query's operand sf' q itself, of
        # 23,991 bits: no remainder outgrows it.
        r = Fraction(isqrt(2 << 24000), 1 << 12000)
        build, bits = polynomials._signed_remainders, []

        def measured(a, b):
            chain = build(a, b)
            bits.append(max(abs(c).bit_length() for member in chain for c in member))
            return chain

        monkeypatch.setattr(realroots, "_signed_remainders", measured)
        start = time.process_time()
        assert sign_at_roots(X - r, X * X - 2) is SignPattern.MIXED
        assert sign_at_roots(X + r, X * X - 2) is SignPattern.MIXED
        assert sign_at_roots(X * X - r * r, X * X - 2) is SignPattern.ALL_POSITIVE
        assert time.process_time() - start < 0.5
        assert max(bits) == 23_991

    def test_evaluates_no_rational_point(self, monkeypatch):
        def refuse(coeffs, t):
            raise AssertionError(f"sign_at_roots evaluated at {t}")

        monkeypatch.setattr(realroots, "_sign_at", refuse)
        p = (X - 1) * (X * X - 2) * (X * X + 1)
        assert sign_at_roots(X + 3, p) is SignPattern.ALL_POSITIVE
        assert sign_at_roots(X - 3, p) is SignPattern.ALL_NEGATIVE
        assert sign_at_roots(X, p) is SignPattern.MIXED
        assert sign_at_roots((X - 1) * (X + 5), p) is SignPattern.HAS_ZERO
        assert sign_at_roots(X * X - 2, p) is SignPattern.HAS_ZERO
        assert sign_at_roots(X, X * X + 1) is SignPattern.NO_ROOTS


class TestGamma:
    def test_examples(self):
        assert is_gamma(X * X + 1)
        assert is_gamma(Polynomial.constant(5))
        assert not is_gamma(X * X - 1)
        assert not is_gamma(Polynomial.zero())

    def test_gamma_plus_discriminant_oracle(self):
        p = X * X + X + 1
        disc = Fraction(1) - 4  # b^2 - 4ac
        assert disc < 0 and p.evaluate(0) > 0  # derivation
        assert is_gamma_plus(p)

    def test_gamma_plus_negative(self):
        assert not is_gamma_plus(-(X * X + 1))
        assert is_gamma(-(X * X + 1))
        assert not is_gamma_plus(X * X - 1)

    def test_gamma_implies_even_degree(self):
        rng = random.Random(3)
        for _ in range(100):
            p = rand_poly(rng, 6, nonzero=True)
            if is_gamma(p):
                assert p.degree % 2 == 0

    def test_gamma_plus_positive_on_samples(self):
        rng = random.Random(11)
        for _ in range(30):
            g = rand_gamma(rng, 3)
            if is_gamma_plus(g):
                for _ in range(50):
                    t = Fraction(rng.randint(-10000, 10000), rng.randint(1, 100))
                    assert g.evaluate(t) > 0

    def test_cache_size_is_bounded(self, monkeypatch):
        # Past the bound, a miss evicts the oldest key; verdicts stay exact.
        # A root X = r != 0 of even multiplicity keeps p(0) lc > 0, so no
        # polynomial is refuted before the cache: every one is a key.
        monkeypatch.setattr(realroots, "_GAMMA_CACHE_MAX", 8)
        monkeypatch.setattr(realroots, "_gamma_cache", {})
        rng = random.Random(23)
        polys = [rand_gamma(rng, 3, 2) * (X - rng.choice((-3, -2, -1, 1, 2, 3))) ** (2 * rng.randint(0, 1))
                 for _ in range(40)]
        for p in polys + polys[::-1]:
            assert is_gamma(p) == (count_distinct_real_roots(p) == 0)
            assert p in realroots._gamma_cache and len(realroots._gamma_cache) <= 8
        assert polys[0] in realroots._gamma_cache and polys[-1] not in realroots._gamma_cache

    def test_cauchy_bound_contains_roots(self):
        rng = random.Random(19)
        for _ in range(50):
            p, roots = rand_planted_roots_poly(rng, rng.randint(1, 3))
            b = cauchy_bound(p)
            assert all(abs(r) < b for r in roots)


def divisor_reference_rational_roots(p: Polynomial) -> list[Fraction]:
    """Rational root theorem by brute force: every +-u/v with u | a0, v | lc.

    Only for small coefficients; it enumerates divisors by trial division.
    """
    coeffs = list(p.coeffs)
    roots = set()
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        roots.add(Fraction(0))
    if len(coeffs) <= 1:
        return sorted(roots)
    scale = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * scale) for c in coeffs]
    q = Polynomial.from_coeffs(ints)

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    for u in divisors(ints[0]):
        for v in divisors(ints[-1]):
            for cand in (Fraction(u, v), Fraction(-u, v)):
                if q.evaluate(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def rational_roots(p: Polynomial) -> list[Fraction]:
    return [iv.exact for iv in isolate_real_roots(p) if iv.is_exact]


class TestRationalRootsInsideIntervals:
    @pytest.mark.parametrize("exponent", [18, 30])
    def test_no_cliff_in_constant_term(self, exponent):
        # The roots are +-10^(exponent/2): a divisor search of 10^exponent
        # would take hours, interval refinement takes milliseconds.
        root = 10 ** (exponent // 2)
        start = time.process_time()
        ivs = isolate_real_roots(X * X - 10**exponent)
        elapsed = time.process_time() - start
        assert [iv.exact for iv in ivs] == [Fraction(-root), Fraction(root)]
        assert elapsed < 0.5

    def test_large_leading_coefficient(self):
        lin = Polynomial.from_coeffs([-10**18, 7919])
        p = lin * (X * X - 2)
        start = time.process_time()
        ivs = isolate_real_roots(p)
        assert [iv.exact for iv in ivs if iv.is_exact] == [Fraction(10**18, 7919)]
        assert len(ivs) == 3
        assert sign_at_roots(X - 2 * 10**14, p) is SignPattern.ALL_NEGATIVE
        assert sign_at_roots(lin + 1, p) is SignPattern.MIXED
        assert sign_at_roots(lin * (X + 5), p) is SignPattern.HAS_ZERO
        assert time.process_time() - start < 0.5

    def test_adjacent_fractions_with_large_denominators(self):
        # 1/7919 and 1/7918 differ by less than 1/lc, so a coarse interval
        # would hold both candidates.
        p = Polynomial.from_coeffs([-1, 7919]) * Polynomial.from_coeffs([-1, 7918])
        assert rational_roots(p) == [Fraction(1, 7919), Fraction(1, 7918)]
        q = Polynomial.from_coeffs([-1, 7919]) * (Polynomial.from_coeffs([-2, 0, 7918**2]))
        assert rational_roots(q) == [Fraction(1, 7919)]

    def test_matches_divisor_enumeration(self):
        rng = random.Random(23)
        for _ in range(300):
            p = rand_poly(rng, 5, -12, 12, nonzero=True)
            if rng.random() < 0.5:
                lin = Polynomial.from_coeffs([rng.randint(-12, 12), rng.randint(1, 12)])
                p = p * lin
            if rng.random() < 0.3:
                p = p * Polynomial.from_coeffs([Fraction(rng.randint(1, 9), rng.randint(1, 9))])
            assert rational_roots(p) == divisor_reference_rational_roots(p)

    def test_denominators_properly_dividing_lc(self):
        # lc = 288; each root's denominator (2, 3, 4, 12) is a proper divisor of it.
        p = (2 * X - 1) * (3 * X + 2) * (4 * X - 3) * (12 * X - 5) * (X * X + 1)
        expected = [Fraction(-2, 3), Fraction(5, 12), Fraction(1, 2), Fraction(3, 4)]
        assert rational_roots(p) == divisor_reference_rational_roots(p) == expected
        assert len(isolate_real_roots(p)) == 4

    def test_negative_leading_coefficient(self):
        p = -(3 * X - 1) * (2 * X + 5) * (X * X - 3)
        assert p.ints[-1] < 0
        ivs = isolate_real_roots(p)
        assert [iv.exact for iv in ivs] == [Fraction(-5, 2), None, Fraction(1, 3), None]
        assert rational_roots(p) == divisor_reference_rational_roots(p)
        assert ivs == isolate_real_roots(-p)
        assert ivs[1].lo ** 2 > 3 > ivs[1].hi ** 2 and ivs[3].lo ** 2 < 3 < ivs[3].hi ** 2

    def test_irrational_root_between_grid_points(self):
        # The primitive lc is 25,000,000, and sqrt(2) lies 2.4e-9 above the
        # root 1.41421356: its interval holds no point n/lc of the grid.
        p = (X * X - 2) * (10**8 * X - 141421356)
        ivs = isolate_real_roots(p)
        assert [iv.exact for iv in ivs] == [None, Fraction(141421356, 10**8), None]
        iv = ivs[2]
        assert iv.lo ** 2 < 2 < iv.hi ** 2
        assert floor(iv.lo * 25_000_000) == floor(iv.hi * 25_000_000)

    def test_rational_root_on_a_split_point(self):
        # The box (-7, 7] splits at 0, a root, which then opens the interval
        # (0, 7/4] of sqrt(2): the grid search finds no root there, and the
        # lower end is moved off 0.
        ivs = isolate_real_roots(X * (X * X - 2) * (X - 3))
        assert [iv.exact for iv in ivs] == [None, 0, None, 3]
        assert (ivs[2].lo, ivs[2].hi) == (Fraction(7, 8), Fraction(7, 4))
        assert ivs[0].lo ** 2 > 2 > ivs[0].hi ** 2

    def test_sign_query_builds_one_chain_for_p(self, chain_calls):
        p = (X - 1) * (X + 2) * (X * X - 3)
        q = X - 5
        assert sign_at_roots(q, p) is SignPattern.ALL_NEGATIVE
        # One Sturm chain of (p, p') and one Tarski chain of (p, p' q).
        sturm = [b for _, b in chain_calls.chains if len(b) == len(p.ints) - 1]
        assert len(chain_calls.chains) == 2 and len(sturm) == 1
        assert chain_calls.gcds == 0


def planted_family(deg: int) -> Polynomial:
    """A 53-bit constant times factors aX - b or X^2 - k, chosen by a fair coin, to degree >= deg.

    Seeded by deg; a in 1..255, b in -255..255 and k in 2..199, so every root
    is real and some factors repeat.
    """
    rng = random.Random(deg)
    p = Polynomial.from_coeffs([rng.getrandbits(53) | 1 << 52])
    while p.degree < deg:
        if rng.random() < 0.5:
            a = rng.randint(1, 255)
            p = p * (a * X - rng.randint(-255, 255))
        else:
            p = p * (X * X - rng.randint(2, 199))
    return p


@functools.cache
def planted_isolation(deg: int) -> tuple[Polynomial, list, dict[str, int]]:
    """planted_family(deg), its isolating intervals, and the _variations and _sign_at calls made."""
    calls = dict.fromkeys(["_variations", "_sign_at"], 0)
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            def counting(*args, name=name, f=getattr(realroots, name)):
                calls[name] += 1
                return f(*args)

            mp.setattr(realroots, name, counting)
        p = planted_family(deg)
        return p, isolate_real_roots(p), calls


class TestPlantedFamily:
    """Inside a single-root interval the halving reads the sign of sf alone, not the chain."""

    # Degree: (most _variations calls, most _sign_at calls).  The bisection by
    # chain counts made 554/1992/2544 and 7232/49852/78924; bisecting each
    # single-root interval below width 1/lc^2 made 1580/5668/8124/14139 sign
    # calls, and the search on the 1/lc grid makes 1358/4764/6926/10570.
    @pytest.mark.parametrize("deg, max_variations, max_signs", [
        (12, 100, 1_450), (24, 190, 5_000), (30, 230, 7_400), (36, 200, 11_200)])
    def test_call_counts(self, deg, max_variations, max_signs):
        p, ivs, calls = planted_isolation(deg)
        assert len(ivs) == count_distinct_real_roots(p)
        assert calls["_variations"] <= max_variations
        assert calls["_sign_at"] <= max_signs

    def test_chain_read_only_at_the_box_ends_and_the_split(self, monkeypatch):
        # (-3, 3] splits once, at 0; each half then halves by sign alone.
        calls = []
        variations = realroots._variations
        monkeypatch.setattr(realroots, "_variations", lambda chain, t: calls.append(t) or variations(chain, t))
        assert len(isolate_real_roots(X * X - 2)) == 2
        assert calls == [-3, 3, 0]

    # SHA-256 of repr(isolate_real_roots(planted_family(d))) for d in 8..30,
    # one line each, pinned from the output of the 1/lc^2 bisection.
    PLANTED_OUTPUT_SHA256 = "677dd206c857e541c4575a217a5b60a84884a8b40a3dba02629420b0b15efaee"

    def test_output_is_pinned(self):
        text = "\n".join(repr(isolate_real_roots(planted_family(d))) for d in range(8, 31))
        assert hashlib.sha256(text.encode()).hexdigest() == self.PLANTED_OUTPUT_SHA256

    @pytest.mark.parametrize("deg", [12, 24, 30, 36])
    def test_against_sympy(self, deg):
        sympy = pytest.importorskip("sympy")
        p, ivs, _ = planted_isolation(deg)
        sp = sympy.Poly(list(reversed(p.ints)), sympy.Symbol("x"), domain="QQ")
        assert len(ivs) == len(sp.intervals())
        exact = sorted(Fraction(int(r.p), int(r.q)) for r in sympy.ground_roots(sp))
        assert [iv.exact for iv in ivs if iv.is_exact] == exact
        # Disjoint intervals, a sign change of sqf_part in each, and the counts
        # equal: so each interval holds one root (count_roots takes minutes).
        sqf = sp.sqf_part()
        for iv, nxt in zip(ivs, ivs[1:]):
            assert iv.hi < nxt.lo
        for iv in ivs:
            if not iv.is_exact:
                lo, hi = (sympy.Rational(t.numerator, t.denominator) for t in (iv.lo, iv.hi))
                assert sqf.eval(lo) * sqf.eval(hi) < 0


class TestChainWork:
    """Remainder sequences and gcds per query.

    A sign query with deg p >= 2 and q != 0 takes one gcd(p, q) first: a
    factor of it with a real root is a shared root, HAS_ZERO with no chain.
    Otherwise the Sturm chain of p (a second one on the squarefree part when
    p has a repeated root) and the Tarski chain of (sf, sf' q) decide.  An
    even-degree p with p(0) lc(p) <= 0 has a real root, so is_gamma refutes
    it with no chain.
    """

    def test_uncached_gamma_builds_one_chain(self, chain_calls, monkeypatch):
        monkeypatch.setattr(realroots, "_gamma_cache", {})
        for p, verdict, chains in (((X * X + 1) * (X * X + 2), True, 1),
                                   # p(0) = -6 < 0 < lc: refuted by one value.
                                   ((X * X - 2) * (X * X + X + 3), False, 0),
                                   # p(0) = 7 > 0 > lc.
                                   (-(X**6) + 3 * X**5 - X + 7, False, 0),
                                   # p(0) lc = 6 > 0 proves nothing: the chain finds the roots.
                                   ((X * X - 2) * (X * X - 3), False, 1)):
            chain_calls.reset()
            assert is_gamma(p) is verdict
            assert (len(chain_calls.chains), chain_calls.gcds) == (chains, 0), str(p)

    @pytest.mark.parametrize("q, pattern, chains", [
        (X * X + 1, SignPattern.ALL_POSITIVE, 2),
        (X, SignPattern.MIXED, 2),
        # gcd(p, q) = X - 1, a shared real root by its odd degree.
        ((X - 1) * (X + 3), SignPattern.HAS_ZERO, 0),
        # gcd(p, q) = X^2 - 2, refuted from Gamma by its value at 0.
        (X * X - 2, SignPattern.HAS_ZERO, 0),
    ])
    def test_sign_query_on_squarefree_p_chain_count(self, chain_calls, monkeypatch, q, pattern, chains):
        monkeypatch.setattr(realroots, "_gamma_cache", {})
        p = (X - 1) * (X * X - 2) * (X * X + 1)
        assert sign_at_roots(q, p) is pattern
        assert (len(chain_calls.chains), chain_calls.gcds, chain_calls.cofactor_gcds) == (chains, 0, 1)

    def test_repeated_root_costs_one_extra_chain(self, chain_calls, monkeypatch):
        monkeypatch.setattr(realroots, "_gamma_cache", {})
        p = (X - 1) ** 2 * (X * X - 2) * (X * X + 1)
        assert sign_at_roots(X, p) is SignPattern.MIXED
        # gcd(-p, X - 1) = X - 1: no chain.
        assert sign_at_roots(X - 1, -p) is SignPattern.HAS_ZERO
        assert (len(chain_calls.chains), chain_calls.gcds, chain_calls.cofactor_gcds) == (3, 0, 2)
        chain_calls.reset()
        assert is_gamma((X * X + 1) ** 2 * (X * X + 3))
        assert (len(chain_calls.chains), chain_calls.gcds) == (2, 0)

    @pytest.mark.parametrize("q, p, pattern", [
        # A shared root-free factor is no shared root: gcd X^2 + 1 is in Gamma.
        ((X * X + 1) * (X - 5), (X * X + 1) * (X - 2) * (X + 3), SignPattern.ALL_NEGATIVE),
        (X * X + 1, (X * X + 1) * (X * X - 2), SignPattern.ALL_POSITIVE),
        ((X * X + 1) * X, (X * X + 1) * (X * X - 2), SignPattern.MIXED),
        # A shared X^2 - 2, even degree with real roots.
        (X**3 - 2 * X, X**4 - 4, SignPattern.HAS_ZERO),
        ((X * X - 2) * (X * X + 1), (X * X - 2) * (X + 7), SignPattern.HAS_ZERO),
        # A linear p takes no gcd: its root is shared exactly when t = 0.
        ((2 * X - 3) * (X * X + 1), 2 * X - 3, SignPattern.HAS_ZERO),
        (X - 1, 2 * X - 3, SignPattern.ALL_POSITIVE),
        (X - 2, -(2 * X - 3), SignPattern.ALL_NEGATIVE),
        # A shared repeated root.
        ((X - 1) ** 2, (X - 1) ** 3 * (X + 2), SignPattern.HAS_ZERO),
        ((X * X - 3) ** 2 * (X + 1), (X * X - 3) ** 3 * (X * X + 5), SignPattern.HAS_ZERO),
        # A constant q: gcd 1, and t = +-n.
        (Polynomial.constant(-3), (X * X - 2) * (X - 1), SignPattern.ALL_NEGATIVE),
        (Polynomial.constant(Fraction(1, 2)), X * X - 2, SignPattern.ALL_POSITIVE),
    ])
    def test_gcd_first_against_the_reference(self, chain_calls, monkeypatch, q, p, pattern):
        monkeypatch.setattr(realroots, "_gamma_cache", {})
        assert reference_sign_at_roots(q, p) is pattern
        g = poly_gcd(p, q)
        chain_calls.reset()
        assert sign_at_roots(q, p) is pattern
        assert chain_calls.cofactor_gcds == (p.degree >= 2)
        if pattern is SignPattern.HAS_ZERO and p.degree >= 2:
            # No chain on p: only is_gamma's on g, when g's value at 0 proves nothing.
            assert all(len(a) <= g.degree + 1 for a, _ in chain_calls.chains)


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def reference_sign_at_roots(q: Polynomial, p: Polynomial) -> SignPattern:
    """sign_at_roots by isolation and refinement, from public functions only.

    At an exact root the sign is q's value there.  An irrational root a of p
    in (lo, hi] is a root of q iff p*q has no more distinct roots in
    (lo, hi] than q has; otherwise the interval is halved around a until q
    has no root in it, and sign q(a) = sign q(hi).
    """
    ivs = isolate_real_roots(p)
    if not ivs:
        return SignPattern.NO_ROOTS
    if q.is_zero:
        return SignPattern.HAS_ZERO
    signs = set()
    for iv in ivs:
        if iv.is_exact:
            s = _sign(q.evaluate(iv.exact))
        elif sturm_count(p * q, iv.lo, iv.hi) == sturm_count(q, iv.lo, iv.hi):
            s = 0
        else:
            lo, hi = iv.lo, iv.hi
            while sturm_count(q, lo, hi) > 0:
                mid = (lo + hi) / 2
                if sturm_count(p, lo, mid) == 1:
                    hi = mid
                else:
                    lo = mid
            s = _sign(q.evaluate(hi))
        if s == 0:
            return SignPattern.HAS_ZERO
        signs.add(s)
    if signs == {1}:
        return SignPattern.ALL_POSITIVE
    if signs == {-1}:
        return SignPattern.ALL_NEGATIVE
    return SignPattern.MIXED


class TestSignAtRootsReference:
    """Differential check against the isolation-based reference above."""

    @staticmethod
    def _pairs():
        rng = random.Random(1207)
        out = []
        for i in range(420):
            p = rand_poly(rng, 4, nonzero=True)
            q = rand_poly(rng, 4, nonzero=True)
            kind = i % 7
            if kind == 1:  # shared rational root
                lin = Polynomial.from_coeffs([rng.randint(-9, 9), rng.randint(1, 4)])
                p, q = p * lin, q * lin
            elif kind == 2:  # shared irrational roots, as a quadratic factor
                quad = Polynomial.from_coeffs([-rng.randint(2, 11), rng.randint(-3, 3), 1])
                p, q = p * quad, q * quad
            elif kind == 3:  # squared q, sometimes sharing a root with p
                if rng.random() < 0.5:
                    lin = X - rng.randint(-3, 3)
                    p, q = p * lin, q * lin
                q = q * q
            elif kind == 4:  # constant or zero q
                q = Polynomial.constant(rng.randint(-2, 2))
            elif kind == 5:  # huge coefficients
                p = p * Polynomial.from_coeffs([rng.randint(-10**30, 10**30), rng.randint(1, 10**20)])
                q = q.scale(rng.randint(1, 10**25)) + Polynomial.constant(rng.randint(-10**25, 10**25))
            elif kind == 6:  # irrational roots close to a rational point of q
                d = rng.randint(2, 7)
                p = p * (X * X - d)
                q = (X - Fraction(isqrt(d * 10**20), 10**10)) * rng.choice([1, -1, X - 9])
            out.append((p, q))
        return out

    def test_matches_reference_in_both_orders(self):
        seen = set()
        for p, q in self._pairs():
            for a, b in ((q, p), (p, q)):
                if b.is_zero:
                    with pytest.raises(ZeroPolynomialError):
                        sign_at_roots(a, b)
                    continue
                expected = reference_sign_at_roots(a, b)
                assert sign_at_roots(a, b) is expected, (str(a), str(b))
                seen.add(expected)
        assert seen == set(SignPattern)


# SHA-256 of isolate_real_roots, sturm_count, sign_at_roots and is_gamma on
# repeated_root_grid(1414, 240), pinned from the output before the Sturm data
# and every gcd were read off one signed remainder sequence.
LAYER_OUTPUT_SHA256 = "1a3e418e11d923c7ec931d551d0364f2df6d430e28928ee871ae8c7edc43ecce"


def layer_output_text() -> str:
    lines = []
    for p, q, _ in repeated_root_grid(1414, 240):
        lines.append(repr(isolate_real_roots(p)))
        lines.append(repr([sturm_count(p, lo, hi) for lo, hi in (
            (NEG_INF, POS_INF), (-1, 1), (Fraction(-1, 3), 2), (0, POS_INF))]))
        lines.append(repr([sign_at_roots(q, p), sign_at_roots(p, q), sign_at_roots(p, p * q)]))
        lines.append(repr([is_gamma(p), is_gamma(p * p + 1), is_gamma(q * q * (X * X + 1))]))
    return "\n".join(lines)


def test_layer_output_is_pinned():
    text = layer_output_text()
    assert hashlib.sha256(text.encode()).hexdigest() == LAYER_OUTPUT_SHA256


class TestSympyOracle:
    """Differential checks against SymPy's own real-root algorithms."""

    @staticmethod
    def _inputs():
        rng = random.Random(97)
        out = []
        for _ in range(40):  # seeded random
            out.append(rand_poly(rng, 7, -20, 20, nonzero=True))
        for _ in range(10):  # huge coefficients
            p = Polynomial.from_coeffs([rng.randint(-10**40, 10**40), rng.randint(1, 10**20)])
            out.append(p * rand_poly(rng, 4, -10**15, 10**15, nonzero=True))
        for _ in range(10):  # high multiplicity
            p, _ = rand_planted_roots_poly(rng, rng.randint(1, 3))
            out.append(p ** rng.randint(2, 5) * (X * X - rng.randint(2, 7)) ** 3)
        for _ in range(10):  # clustered roots
            base, den = rng.randint(-50, 50), 10 ** rng.randint(3, 8)
            p = Polynomial.one()
            for k in range(3):
                p = p * Polynomial.from_coeffs([-(base * den + k), den])
            out.append(p * (Polynomial.from_coeffs([-(base * den + 1) ** 2 - 1, 0, den * den])))
        return out

    @staticmethod
    def _to_sympy(sympy, p: Polynomial):
        x = sympy.Symbol("x")
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(p.coeffs)], x, domain="QQ")

    @staticmethod
    def _sympy_pattern(sympy, q, p) -> SignPattern:
        """Sign pattern of q at the real roots of p, from SymPy's isolation."""
        intervals = p.intervals()
        if not intervals:
            return SignPattern.NO_ROOTS
        if q.is_zero:
            return SignPattern.HAS_ZERO
        g = sympy.gcd(p, q)
        sqf = p.sqf_part()
        signs = set()
        for (s, t), _ in intervals:
            if g.degree() >= 1 and g.count_roots(s, t) >= 1:
                return SignPattern.HAS_ZERO
            while q.count_roots(s, t) > 0:
                s, t = sqf.refine_root(s, t, eps=(t - s) / 4)
            signs.add(1 if q.eval(s) > 0 else -1)
        if signs == {1}:
            return SignPattern.ALL_POSITIVE
        if signs == {-1}:
            return SignPattern.ALL_NEGATIVE
        return SignPattern.MIXED

    def test_root_counts_and_rational_roots(self):
        sympy = pytest.importorskip("sympy")
        for p in self._inputs():
            sp = self._to_sympy(sympy, p)
            ivs = isolate_real_roots(p)
            assert len(ivs) == len(sp.intervals()) == count_distinct_real_roots(p)
            expected = sorted(Fraction(int(r.p), int(r.q)) for r in sp.ground_roots())
            assert [iv.exact for iv in ivs if iv.is_exact] == expected

    def test_repeated_roots(self):
        sympy = pytest.importorskip("sympy")
        shared_zeros = 0
        for p, q, planted in repeated_root_grid(2718, 160):
            sp, sq = self._to_sympy(sympy, p), self._to_sympy(sympy, q)
            sqf = sp.sqf_part()
            n = sqf.count_roots()
            assert count_distinct_real_roots(p) == n
            assert is_gamma(p) is (n == 0)
            ivs = isolate_real_roots(p)
            exact = sorted(Fraction(int(r.p), int(r.q))
                           for r in sympy.real_roots(sqf) if r.is_Rational)
            assert len(ivs) == n and [iv.exact for iv in ivs if iv.is_exact] == exact
            ends = sorted(set(planted) | {r + d for r in planted for d in (-1, Fraction(1, 2), 2)})
            for lo in ends:
                for hi in ends:
                    if lo < hi:  # sympy counts [lo, hi]; sturm_count counts (lo, hi]
                        expected = sqf.count_roots(lo, hi) - (sqf.eval(lo) == 0)
                        assert sturm_count(p, lo, hi) == expected, (str(p), lo, hi)
            pattern = sign_at_roots(q, p)
            assert pattern is self._sympy_pattern(sympy, sq, sp)
            if sympy.gcd(sp, sq).sqf_part().count_roots() > 0:
                assert pattern is SignPattern.HAS_ZERO
                shared_zeros += 1
        assert shared_zeros >= 30

    def test_repeated_root_with_a_non_monic_gcd(self):
        # gcd(p, p') = (3X^2 - 1)^2 has lc 9, so the squarefree part is the
        # exact quotient of p by a primitive divisor with |lc| > 1.
        sympy = pytest.importorskip("sympy")
        base = (3 * X * X - 1) ** 3 * (5 * X - 2)
        ends = [Fraction(n, 10) for n in range(-12, 13, 3)] + [Fraction(2, 5)]
        for p in (base, -base, base.scale(Fraction(7, 4))):
            sp = self._to_sympy(sympy, p)
            sqf = sp.sqf_part()
            ivs = isolate_real_roots(p)
            assert count_distinct_real_roots(p) == len(ivs) == sqf.count_roots() == 3
            assert [iv.exact for iv in ivs if iv.is_exact] == [Fraction(2, 5)]
            assert all(sqf.count_roots(iv.lo, iv.hi) == 1 for iv in ivs)
            for lo in ends:
                for hi in ends:
                    if lo < hi:  # sympy counts [lo, hi]; sturm_count counts (lo, hi]
                        expected = sqf.count_roots(lo, hi) - (sqf.eval(lo) == 0)
                        assert sturm_count(p, lo, hi) == expected, (str(p), lo, hi)
            for q in (X, X - 1, 5 * X - 2, 3 * X * X - 1, X * X - Fraction(1, 5), -X - 1):
                pattern = self._sympy_pattern(sympy, self._to_sympy(sympy, q), sp)
                assert sign_at_roots(q, p) is pattern, (str(q), str(p))

    def test_sign_patterns(self):
        sympy = pytest.importorskip("sympy")
        inputs = self._inputs()
        rng = random.Random(41)
        for p in inputs:
            q = rng.choice(inputs)
            roots = rational_roots(p)
            if roots and rng.random() < 0.5:  # share one real root with p
                q = q * Polynomial.from_coeffs([-rng.choice(roots), 1])
            for a, b in ((q, p), (p, q)):
                expected = self._sympy_pattern(
                    sympy, self._to_sympy(sympy, a), self._to_sympy(sympy, b))
                assert sign_at_roots(a, b) is expected
