import hashlib
import random
import re
from fractions import Fraction
from functools import reduce
from itertools import product
from math import lcm

import pytest

from dressring import (
    CertificateError,
    DressElement,
    IdealGens,
    Polynomial,
    RationalFunction,
    ShapeViolation,
    associates,
    divides,
    ideal_inverse,
    ideal_square,
    is_member,
    is_principal,
    is_unit,
    poly_gcd,
    principal_generator,
)
from dressring import dress, ideals, polynomials, realroots

from helpers import rand_member, rand_member_nonzero, rand_poly

X = Polynomial.x()
GAMMA = X * X + 1


def elem(num, den=GAMMA):
    return DressElement.from_parts(num, den)


class TestIdealSquare:
    def test_basic_pair(self):
        s = ideal_square(IdealGens.of(elem(Polynomial.one()), elem(X)))
        assert s.value == RationalFunction.make(Polynomial.one(), GAMMA)
        # derivation: both square quotients are members
        for g in (elem(Polynomial.one()), elem(X)):
            assert is_member((g * g).value / s.value)

    def test_principal_ideal(self):
        a = elem(X)
        assert ideal_square(IdealGens.of(a)).value == (a * a).value

    def test_remark_stable_pair_is_unit(self):
        s = ideal_square(IdealGens.of(elem(X), elem(X * X - 1)))
        assert s.value == RationalFunction.make(X**4 - X * X + 1, GAMMA * GAMMA)
        assert is_unit(s.value)

    def test_three_generators_divides_all_products(self):
        rng = random.Random(71)
        for _ in range(50):
            gens = [rand_member_nonzero(rng, 2) for _ in range(3)]
            s = ideal_square(IdealGens(tuple(gens)))
            for i in range(3):
                for j in range(3):
                    assert is_member((gens[i] * gens[j]).value / s.value)

    def test_zero_ideal_rejected(self):
        with pytest.raises(ShapeViolation):
            IdealGens.of(DressElement.zero())

    def test_no_generators_rejected(self):
        with pytest.raises(ShapeViolation, match="at least one generator"):
            IdealGens(())

    def test_two_generator_square_equals_sum_of_squares(self):
        # independent cross-check: for J = (a, b) the returned generator is
        # exactly a^2 + b^2, the ideal-squaring identity
        rng = random.Random(76)
        for _ in range(100):
            a = rand_member(rng, 2)
            b = rand_member(rng, 2)
            if a.is_zero and b.is_zero:
                continue
            s = ideal_square(IdealGens.of(a, b))
            assert s.value == (a * a + b * b).value

    def test_squaring_identity_memberships(self):
        rng = random.Random(72)
        for _ in range(200):
            a = rand_member(rng, 2)
            b = rand_member(rng, 2)
            if a.is_zero and b.is_zero:
                continue
            s = a * a + b * b
            for prod in (a * a, a * b, b * b):
                assert is_member(prod.value / s.value)


class TestPrincipality:
    def test_odd_pair_not_principal(self):
        assert not is_principal(elem(Polynomial.one()), elem(X))
        report = principal_generator(elem(Polynomial.one()), elem(X))
        assert report.s == 1 and not report.principal
        assert report.generator is None and report.expansion is None

    def test_even_pair_with_generator(self):
        a = elem(X, GAMMA * GAMMA)
        b = elem(X**3, GAMMA * GAMMA)
        assert is_principal(a, b)
        report = principal_generator(a, b)
        assert report.M == X and report.fprime == Polynomial.one()
        assert report.gprime == X * X and report.s == 2
        assert report.generator.value == RationalFunction.make(X, GAMMA)
        # derivation: explicit membership of both quotients
        assert a.value / report.generator.value == RationalFunction.make(Polynomial.one(), GAMMA)
        assert b.value / report.generator.value == RationalFunction.make(X * X, GAMMA)
        c1, c2 = report.expansion
        assert (c1 * a + c2 * b).value == report.generator.value

    def test_pair_with_zero_is_principal(self):
        a = rand_member_nonzero(random.Random(73))
        report = principal_generator(a, DressElement.zero())
        assert report.principal and report.s == 0
        assert associates(report.generator, a)

    def test_equal_pair(self):
        c = elem(Polynomial.constant(5), Polynomial.one())
        report = principal_generator(c, c)
        assert report.principal and report.s == 0
        assert associates(report.generator, c)

    def test_both_zero_rejected(self):
        with pytest.raises(ShapeViolation):
            is_principal(DressElement.zero(), DressElement.zero())

    def test_random_dichotomy(self):
        rng = random.Random(74)
        for _ in range(100):
            a = rand_member(rng, 2)
            b = rand_member(rng, 2)
            if a.is_zero and b.is_zero:
                continue
            report = principal_generator(a, b)
            assert report.principal == is_principal(a, b)
            assert (report.generator is not None) == report.principal
            if report.principal:
                assert divides(report.generator, a) and divides(report.generator, b)
                c1, c2 = report.expansion
                assert (c1 * a + c2 * b).value == report.generator.value

    def test_even_pairs_against_checked_arithmetic(self):
        # Reference: the public, checked DressElement constructor and
        # arithmetic, none of which the certificate in principal_generator uses.
        rng = random.Random(77)
        dens = [Polynomial.one(), GAMMA, GAMMA * GAMMA, X * X + X + 1,
                GAMMA * (X * X + 2), X**4 + 1]
        seen_s, n_even, n_zero, n_const = set(), 0, 0, 0
        while n_even < 300:
            pair = []
            for _ in range(2):
                den = rng.choice(dens)
                kind = rng.random()
                if kind < 0.1:
                    num = Polynomial.zero()
                elif kind < 0.2:
                    num = Polynomial.constant(rng.randint(-4, 4) or 1)
                else:
                    num = rand_poly(rng, int(den.degree), -3, 3)
                pair.append(DressElement.from_parts(num, den))
            a, b = pair
            if a.is_zero and b.is_zero:
                continue
            report = principal_generator(a, b)
            if not report.principal:
                continue
            n_even += 1
            seen_s.add(report.s)
            n_zero += a.is_zero or b.is_zero
            n_const += a.degree == 0 or b.degree == 0
            gen = DressElement(report.generator.value)
            c1, c2 = (DressElement(c.value) for c in report.expansion)
            assert (c1 * a + c2 * b).value == gen.value
            assert divides(gen, a) and divides(gen, b)
        assert {0, 2, 4} <= seen_s and n_zero > 0 and n_const > 0

    def test_even_pair_makes_no_membership_checks(self, monkeypatch):
        a = elem(X, GAMMA * GAMMA)
        b = elem(X**3, GAMMA * GAMMA)
        calls = []
        original = dress.membership_failure

        def counting(r):
            calls.append(r)
            return original(r)

        monkeypatch.setattr(dress, "membership_failure", counting)
        report = principal_generator(a, b)
        assert report.principal and calls == []


class TestInverse:
    def test_example_pair(self):
        inv = ideal_inverse(elem(Polynomial.one()), elem(X))
        assert inv.certificate.value == RationalFunction.make(Polynomial.one(), GAMMA)
        assert [str(g) for g in inv.gens] == ["1", "X"]

    def test_principal_single(self):
        inv = ideal_inverse(DressElement.from_rational(3), DressElement.zero())
        assert inv.gens[0] == RationalFunction.from_rational(Fraction(1, 3))
        assert inv.gens[1].is_zero
        assert inv.certificate.value == RationalFunction.from_rational(9)

    def test_zero_pair_rejected(self):
        with pytest.raises(ShapeViolation, match="zero ideal is not invertible"):
            ideal_inverse(DressElement.zero(), DressElement.zero())

    def test_remark_stable_pair_inverse_is_unit_scaled(self):
        a, b = elem(X), elem(X * X - 1)
        inv = ideal_inverse(a, b)
        u = a.value * a.value + b.value * b.value
        assert is_unit(u)
        assert inv.gens[0] == a.value / u and inv.gens[1] == b.value / u

    def test_witness_identity_random(self):
        rng = random.Random(75)
        for _ in range(200):
            a = rand_member(rng, 2)
            b = rand_member(rng, 2)
            if a.is_zero and b.is_zero:
                continue
            inv = ideal_inverse(a, b)
            assert a.value * inv.gens[0] + b.value * inv.gens[1] == RationalFunction.one()


class TestAgainstCheckedArithmetic:
    """Inverses and squares against the public, checked DressElement arithmetic."""

    def test_inverse_is_pair_over_sum_of_squares(self):
        rng = random.Random(78)
        grid = [elem(Polynomial.from_coeffs(c), GAMMA * GAMMA)
                for c in product(range(-2, 3), repeat=4)]
        pairs = [tuple(rng.sample(grid, 2)) for _ in range(400)]
        specials = [DressElement.zero(), DressElement.from_rational(3),
                    DressElement.from_rational(Fraction(-1, 2)), elem(Polynomial.constant(-2))]
        for z in specials:
            for c in rng.sample(grid, 15):
                pairs += [(z, c), (c, z)]
        n_zero = n_const = 0
        for a, b in pairs:
            if a.is_zero and b.is_zero:
                continue
            n_zero += a.is_zero or b.is_zero
            n_const += a.numerator.degree == 0 or b.numerator.degree == 0
            s = (a * a + b * b).value
            inv = ideal_inverse(a, b)
            assert inv.gens == (a.value / s, b.value / s)
            assert inv.certificate.value == s
        assert n_zero >= 30 and n_const >= 90

    def test_square_is_sum_of_squares(self):
        rng = random.Random(79)
        seen = set()
        for _ in range(400):
            gens = [rand_member(rng, 2) for _ in range(rng.randint(1, 4))]
            if all(g.is_zero for g in gens):
                continue
            seen.add(len(gens))
            assert ideal_square(IdealGens(tuple(gens))).value == sum(g * g for g in gens).value
        assert seen == {1, 2, 3, 4}


def _tamper_numerator_data(monkeypatch, index, change):
    """Make ideals._numerator_data return change(x) in place of its field x at index.

    The fields are (M, cofactors, s, gamma, nums).
    """
    original = ideals._numerator_data

    def tampered(gens):
        data = list(original(gens))
        data[index] = change(data[index])
        return tuple(data)

    monkeypatch.setattr(ideals, "_numerator_data", tampered)


def _tamper_num(k):
    """A change for the nums field that doubles entry k."""
    return lambda nums: [p + p if i == k else p for i, p in enumerate(nums)]


# The three consumers of the certificate.  Each check is real code raising
# CertificateError, so these tests also pass under python -O, where asserts
# would vanish.
CONSUMERS = {
    "principal_generator": principal_generator,
    "ideal_square": lambda a, b: ideal_square(IdealGens.of(a, b)),
    "ideal_inverse": ideal_inverse,
}
# name: (pair, T, s).  (X, X^3)/gamma^2 is principal (s = 2) with
# numerator gcd M = X, so the cofactors 1, X^2 differ from the numerators;
# (1, 1) has s = 0 and a constant T; (X^2, 1) has s = 2 and M = 1; (1, X)
# has s = 1, which principal_generator decides without the certificate.
PAIRS = {
    "X,X^3": ((elem(X, GAMMA * GAMMA), elem(X**3, GAMMA * GAMMA)), "X^4 + 1", 2),
    "1,1": ((elem(Polynomial.one()), elem(Polynomial.one())), "2", 0),
    "X^2,1": ((elem(X * X), elem(Polynomial.one())), "X^4 + 1", 2),
    "1,X": ((elem(Polynomial.one()), elem(X)), "X^2 + 1", 1),
}
# The cases of the first pair keep the consumer alone as their id.
CASES = [pytest.param(consumer, pair, id=consumer if pair == "X,X^3" else f"{consumer}-{pair}")
         for pair in PAIRS for consumer in CONSUMERS
         if PAIRS[pair][2] % 2 == 0 or consumer != "principal_generator"]


@pytest.mark.parametrize("consumer, pair", CASES)
class TestSumOfSquaresCertificate:
    """Every part of the one certificate, through every function that reads it."""

    def test_root_free(self, monkeypatch, consumer, pair):
        # Both deciders of the cofactor gcd say "not coprime": the value test
        # on the identity's values proves nothing, and is_gamma, which then
        # decides, refutes root-freeness.
        gens, t, _ = PAIRS[pair]
        monkeypatch.setattr(ideals, "_values_coprime", lambda values, xi: False)
        monkeypatch.setattr(ideals, "is_gamma", lambda p: False)
        with pytest.raises(CertificateError, match=f"T = {re.escape(t)} has real roots"):
            CONSUMERS[consumer](*gens)

    @pytest.mark.parametrize("delta", [2, -2])
    def test_degree(self, monkeypatch, consumer, pair, delta):
        gens, _, s = PAIRS[pair]
        _tamper_numerator_data(monkeypatch, 2, lambda s: s + delta)
        with pytest.raises(CertificateError, match=f"has degree {2 * s}, not 2s = {2 * (s + delta)}"):
            CONSUMERS[consumer](*gens)

    @pytest.mark.parametrize("index, change", [(0, lambda m: m + m), (4, _tamper_num(0)),
                                               (4, _tamper_num(1))], ids=["M", "f", "g"])
    def test_identity(self, monkeypatch, consumer, pair, index, change):
        _tamper_numerator_data(monkeypatch, index, change)
        with pytest.raises(CertificateError, match="f_i' f_i == M T violated"):
            CONSUMERS[consumer](*PAIRS[pair][0])


def test_root_freeness_of_t_decided_on_the_cofactor_gcd():
    # For cofactor tuples that need not be coprime (M = 1, so the tuple is
    # its own numerators and only the root-freeness can fail), the decision
    # matches a Sturm count of T itself.  Planted shared factors give the
    # tuples a common real root (X - 1) or a common root-free factor X^2 + 1.
    rng = random.Random(2311)
    outcomes = set()
    for i in range(400):
        shared = (Polynomial.one(), X - 1, GAMMA, (X - 1) * GAMMA)[i % 4]
        cofactors = [shared * rand_poly(rng, 3, -4, 4, nonzero=True)
                     for _ in range(rng.choice((1, 2, 2, 3)))]
        t = sum((f * f for f in cofactors), Polynomial.zero())
        root_free = realroots.count_distinct_real_roots(t) == 0
        s = max(f.degree for f in cofactors)
        try:
            ideals._sum_of_squares(Polynomial.one(), cofactors, s, cofactors)
            decided = True
        except CertificateError as e:
            assert "has real roots" in str(e)
            decided = False
        assert decided == root_free, [str(f) for f in cofactors]
        outcomes.add((i % 4, decided))
    assert outcomes == {(0, True), (0, False), (1, False), (2, True), (2, False), (3, False)}


def test_value_test_never_calls_a_shared_factor_coprime(monkeypatch):
    # The certificate's value test on 1-4 integer cofactors, M = 1 and nums
    # the cofactors, so the identity holds and the test always runs.  Lists
    # share a planted X - 1, 1 + X^2 or (X - 1)(1 + X^2), or carry a zero
    # cofactor, or plant nothing.  "Coprime" is only ever said of a list
    # whose gcd is 1, never of a planted factor, and the certificate's
    # verdict matches a Sturm count of T on every list.
    verdicts = []
    decide = ideals._values_coprime

    def spy(values, xi):
        verdicts.append(decide(values, xi))
        return verdicts[-1]

    monkeypatch.setattr(ideals, "_values_coprime", spy)
    rng = random.Random(4407)
    seen = set()
    for i in range(600):
        kind = i % 5
        n = rng.randint(2 if kind == 4 else 1, 4)
        cofactors = [rand_poly(rng, 3, -4, 4, nonzero=True) for _ in range(n)]
        if kind == 4:
            cofactors[rng.randrange(n)] = Polynomial.zero()
        elif kind:
            shared = (X - 1, GAMMA, (X - 1) * GAMMA)[kind - 1]
            cofactors = [shared * f for f in cofactors]
        t = sum((f * f for f in cofactors), Polynomial.zero())
        s = max(f.degree for f in cofactors if f)
        verdicts.clear()
        try:
            ideals._sum_of_squares(Polynomial.one(), cofactors, s, cofactors)
            root_free = True
        except CertificateError as e:
            assert "has real roots" in str(e)
            root_free = False
        assert root_free == (realroots.count_distinct_real_roots(t) == 0)
        assert len(verdicts) == 1
        names = [str(f) for f in cofactors]
        if verdicts[0]:
            assert reduce(poly_gcd, cofactors, Polynomial.zero()) == Polynomial.one(), names
        assert not (verdicts[0] and kind in (1, 2, 3)), names
        seen.add((kind, verdicts[0]))
    assert {(0, True), (0, False), (1, False), (2, False), (3, False), (4, True)} <= seen


def test_value_test_point_meets_its_coprimality_bound(monkeypatch):
    # The value test proves the f_i' coprime only when xi >= 2 + 2|P| for
    # every nonzero P = D f_j' (|.| the largest absolute coefficient), and
    # it takes xi and D from _kronecker.  On 1-4 cofactors over denominators
    # 1-6, some zero, with M = 1 or a random monic M and nums = M f_i, every
    # point _kronecker hands back must meet that bound.  One cofactor
    # (terms = 2, the fewest products) is the tightest case.
    calls = []
    kronecker = ideals._kronecker

    def spy(polys, terms, *rest):
        calls.append((polys, terms, kronecker(polys, terms, *rest)))
        return calls[-1][2]

    monkeypatch.setattr(ideals, "_kronecker", spy)
    rng = random.Random(4501)
    seen = set()
    for _ in range(400):
        cofactors = [Polynomial.zero() if rng.random() < 0.2 else
                     rand_poly(rng, 4, -60, 60).scale(Fraction(1, rng.randint(1, 6)))
                     for _ in range(rng.randint(1, 4))]
        if not any(cofactors):
            continue
        m = rng.choice((Polynomial.one(), X + rng.randint(-3, 3), GAMMA))
        s = max(f.degree for f in cofactors if f)
        calls.clear()
        try:
            ideals._sum_of_squares(m, cofactors, s, [m * f for f in cofactors])
        except CertificateError as e:
            assert "has real roots" in str(e)
        (polys, terms, (d, xi, _)), = calls
        assert terms == len(cofactors) + 1
        assert d == reduce(lcm, [p.denom for p in polys])
        for fp in polys[:len(cofactors)]:
            if fp:
                assert xi >= 2 + 2 * max(abs(d // fp.denom * c) for c in fp.ints), str(fp)
        seen.add((len(cofactors), not all(cofactors)))
    assert {n for n, _ in seen} == {1, 2, 3, 4} and (4, True) in seen


def test_sum_of_squares_kernel_matches_products():
    # The kernel's one integer convolution against the sum of Polynomial
    # products, on 1-4 cofactors of degree 0-6 over denominators 1-6, about
    # one in five zero.  With M = 1 and nums = cofactors the identity holds,
    # so the kernel returns T unless the cofactors share a real root.  Three
    # or four of them, over (1 + X^2)^3, also go through ideal_square.
    rng = random.Random(3307)
    seen = set()
    for _ in range(500):
        cofactors = [Polynomial.zero() if rng.random() < 0.2 else
                     rand_poly(rng, 6, -5, 5).scale(Fraction(1, rng.randint(1, 6)))
                     for _ in range(rng.randint(1, 4))]
        if not any(cofactors):
            continue
        t = sum(f * f for f in cofactors)
        s = max(f.degree for f in cofactors if f)
        if realroots.count_distinct_real_roots(t) == 0:
            assert ideals._sum_of_squares(Polynomial.one(), cofactors, s, cofactors) == t
        else:
            with pytest.raises(CertificateError, match="has real roots"):
                ideals._sum_of_squares(Polynomial.one(), cofactors, s, cofactors)
        if len(cofactors) > 2:
            gens = [elem(f, GAMMA**3) for f in cofactors]
            assert ideal_square(IdealGens(tuple(gens))).value == sum(g * g for g in gens).value
        seen.add((len(cofactors), not all(cofactors), t.denom > 1))
    assert {n for n, _, _ in seen} == {1, 2, 3, 4}
    assert (3, True, True) in seen and (4, True, True) in seen


def test_cofactors_sharing_a_real_root_raise():
    cofactors = [(X - 1) * (X + 2), (X - 1) * X]
    with pytest.raises(CertificateError, match="has real roots"):
        ideals._sum_of_squares(Polynomial.one(), cofactors, 2, cofactors)


# Inputs for the generator tests below.  The c05 grid: 625 numerators of
# degree <= 3 with coefficients -2..2, all over (1 + X^2)^2.  The mixed pairs
# put (1 + X^2)^k next to other root-free quadratics in each denominator and
# give both numerators a shared factor, so M != 1, v(gamma) < k and a T
# divisible by 1 + X^2 all occur.
C05_GRID = [elem(Polynomial.from_coeffs(c), GAMMA * GAMMA)
            for c in product(range(-2, 3), repeat=4)]
OTHER_QUADRATICS = [X * X + X + 1, X * X + 2, X * X - 2 * X + 5, 4 * X * X + 1]
SHARED_FACTORS = [Polynomial.one(), X, X - 1, 2 * X + 3, GAMMA, X * X + X + 1]


def c05_sample_pairs(seed, count):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        a, b = rng.choice(C05_GRID), rng.choice(C05_GRID)
        if not (a.is_zero and b.is_zero):
            pairs.append((a, b))
    return pairs


def mixed_denominator_pairs(seed, count):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        shared = rng.choice(SHARED_FACTORS)
        pair = []
        for _ in range(2):
            den = GAMMA ** rng.randint(0, 3)
            for _ in range(rng.randint(0, 2)):
                den = den * rng.choice(OTHER_QUADRATICS)
            room = int(den.degree - shared.degree)
            num = shared * rand_poly(rng, room, -3, 3) if room >= 0 else rand_poly(rng, 0, -3, 3)
            pair.append(DressElement.from_parts(num, den))
        if not (pair[0].is_zero and pair[1].is_zero):
            pairs.append(tuple(pair))
    return pairs


GENERATOR_PAIRS = {
    "c05": lambda: c05_sample_pairs(1501, 3000),
    "mixed": lambda: mixed_denominator_pairs(1502, 1500),
}

# SHA-256 of repr(principal_generator(a, b)) over each set of GENERATOR_PAIRS,
# pinned from the output before the generator and its expansion coefficients
# were reduced by cancelling powers of 1 + X^2 in place of a gcd each.
GENERATOR_OUTPUT_SHA256 = {
    "c05": "7fe3709c34ee30cd711db9706be2286eb55a58fed837fb5fefe395274163feee",
    "mixed": "aba14386ec11afd3e3623b9b8c2d98c9b64908caefbe5464238baa99080e039a",
}


@pytest.mark.parametrize("name", list(GENERATOR_PAIRS))
def test_generator_output_is_pinned(name):
    text = "\n".join(repr(principal_generator(a, b)) for a, b in GENERATOR_PAIRS[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_OUTPUT_SHA256[name]


def unreduced_outputs(a, b, report):
    """(num, den) of c1, c2 and the generator as the formulas give them, before reduction."""
    _, gamma = dress.over_common_denominator((a, b))
    h = GAMMA ** (report.s // 2)
    t = report.fprime * report.fprime + report.gprime * report.gprime
    return [(h * report.fprime, t), (h * report.gprime, t), (report.M * h, gamma)]


def assert_reduced_outputs(a, b):
    report = principal_generator(a, b)
    assert report.principal
    got = [c.value for c in report.expansion] + [report.generator.value]
    for r, (num, den) in zip(got, unreduced_outputs(a, b, report)):
        assert r == RationalFunction.make(num, den), (str(a), str(b), str(r))
        assert r.den.monic() == r.den
        assert r.is_zero or poly_gcd(r.num, r.den) == Polynomial.one()
    return report


class TestReducedGenerator:
    """The generator and expansion are built reduced by cancelling powers of 1 + X^2 only."""

    def test_sum_of_squares_divisible_past_k(self):
        # f' = X^2 - 1, g' = 2X: T = (1 + X^2)^2, but only h = 1 + X^2 cancels.
        report = assert_reduced_outputs(elem(X * X - 1, GAMMA * GAMMA), elem(2 * X, GAMMA * GAMMA))
        assert report.s == 2 and report.M == Polynomial.one()
        c1, c2 = report.expansion
        assert c1.value == RationalFunction.make(X * X - 1, GAMMA)
        assert c2.value == RationalFunction.make(2 * X, GAMMA)
        assert report.generator.value == RationalFunction.make(Polynomial.one(), GAMMA)

    def test_gamma_with_fewer_factors_than_k(self):
        # s = 4, k = 2, but gamma = (1 + X^2)(X^2 + X + 1) has v(gamma) = 1.
        den = GAMMA * (X * X + X + 1)
        report = assert_reduced_outputs(elem(X**4, den), elem(Polynomial.one(), den))
        assert report.s == 4
        assert report.generator.value == RationalFunction.make(GAMMA, X * X + X + 1)

    def test_numerator_gcd_not_one(self):
        m = X + 2
        report = assert_reduced_outputs(elem(m * (X * X - 1), GAMMA**3), elem(m * 2 * X, GAMMA**3))
        assert report.M == m and report.s == 2
        assert report.generator.value == RationalFunction.make(m, GAMMA * GAMMA)

    def test_zero_and_constant_cofactors(self):
        c = elem(Polynomial.constant(Fraction(-3, 2)), X * X + 2)
        for a, b in ((c, DressElement.zero()), (DressElement.zero(), c), (c, c)):
            assert assert_reduced_outputs(a, b).s == 0

    @pytest.mark.parametrize("name", list(GENERATOR_PAIRS))
    def test_every_even_pair_matches_make(self, name):
        n_even = 0
        for a, b in GENERATOR_PAIRS[name]():
            if is_principal(a, b):
                assert_reduced_outputs(a, b)
                n_even += 1
        assert n_even >= 300

    def test_unreduced_input_gives_exact_generator(self):
        # The raw constructor skips reduction, so gcd(M, gamma) = 1 no longer
        # holds; the generator still has the exact value M h/gamma.
        q = X * X + X + 1
        a = DressElement(RationalFunction(X * X * q, q * GAMMA))
        b = DressElement(RationalFunction(q, q * GAMMA))
        report = principal_generator(a, b)
        assert report.principal and report.M == q and report.s == 2
        gen = report.generator.value
        assert gen == RationalFunction(q, q)  # M h/gamma = 1, with q left in both
        c1, c2 = report.expansion
        assert (c1.value * a.value + c2.value * b.value) == RationalFunction.make(gen.num, gen.den)

    def test_against_sympy_cancel(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def to_sympy(p):
            return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in reversed(p.coeffs)], x, domain="QQ")

        n_even = 0
        for a, b in mixed_denominator_pairs(1503, 300):
            report = principal_generator(a, b)
            if not report.principal:
                continue
            n_even += 1
            got = [c.value for c in report.expansion] + [report.generator.value]
            for r, (num, den) in zip(got, unreduced_outputs(a, b, report)):
                p, q = to_sympy(num).cancel(to_sympy(den), include=True)
                lc = q.LC()
                assert (to_sympy(r.num), to_sympy(r.den)) == (p / lc, q / lc), (str(a), str(b))
        assert n_even >= 100

    def test_each_parity_takes_only_its_gcds_no_make_and_no_sturm_chain(self, monkeypatch):
        # Over a shared denominator the numerator gcd M brings the cofactors.
        # An odd pair stops there: one gcd and nothing else.  An even pair
        # certifies T root-free from the identity's values of its coprime
        # cofactors: no second gcd and no Sturm chain of T.  Cofactors that
        # share 1 + X^2 fail the value test and take one poly_gcd, whose
        # is_gamma decides.  No divrem either: powers of 1 + X^2 leave T and
        # gamma by synthetic division, and (X, X^3) takes the gcd's linear
        # branch, which reads X^3/X with _cofactor.  The gcd takes a content
        # only of a candidate (or of a linear divisor): a coprime pair takes
        # none, however much content it shares.
        counts = {"_gcd_cofactors": 0, "poly_gcd": 0, "make": 0, "_sturm_chain": 0,
                  "divrem": 0, "__mul__": 0, "__add__": 0, "_strip_content": 0}

        def counting(name, original):
            def wrapper(*args):
                counts[name] += 1
                return original(*args)
            return wrapper

        cofactors = counting("_gcd_cofactors", polynomials._gcd_cofactors)
        monkeypatch.setattr(dress, "_gcd_cofactors", cofactors)
        monkeypatch.setattr(ideals, "_gcd_cofactors", cofactors)
        gcd = counting("poly_gcd", polynomials.poly_gcd)
        monkeypatch.setattr(polynomials, "poly_gcd", gcd)
        monkeypatch.setattr(ideals, "poly_gcd", gcd)
        monkeypatch.setattr(RationalFunction, "make",
                            staticmethod(counting("make", RationalFunction.make)))
        monkeypatch.setattr(realroots, "_sturm_chain",
                            counting("_sturm_chain", realroots._sturm_chain))
        monkeypatch.setattr(polynomials, "_strip_content",
                            counting("_strip_content", polynomials._strip_content))
        div = counting("divrem", polynomials.divrem)
        monkeypatch.setattr(polynomials, "divrem", div)
        monkeypatch.setattr(ideals, "divrem", div, raising=False)
        # T is one integer convolution: no Polynomial product or sum.
        for name in ("__mul__", "__add__"):
            op = counting(name, getattr(Polynomial, name))
            monkeypatch.setattr(Polynomial, name, op)
            monkeypatch.setattr(Polynomial, name.replace("__", "__r", 1), op)
        realroots._gamma_cache.clear()
        even = {"_gcd_cofactors": 1}
        odd = {"_gcd_cofactors": 1}
        # (pair, s, calls other than zero); c05's median class has s = 3.
        cases = [((elem(X * X - 1, GAMMA * GAMMA), elem(2 * X, GAMMA * GAMMA)), 2, even),
                 ((elem(X, GAMMA * GAMMA), elem(X**3, GAMMA * GAMMA)), 2, even),
                 ((elem(X**4, GAMMA**3), elem(X + 1, GAMMA**3)), 4, even),
                 ((elem(X, GAMMA * GAMMA), elem(Polynomial.one(), GAMMA * GAMMA)), 1, odd),
                 ((elem(X**3 - X + 1, GAMMA * GAMMA), elem(2 * X**3 + X * X - 1, GAMMA * GAMMA)),
                  3, odd),
                 # M = X^2 + X: the gcd's cofactors X and 1 are taken as they come.
                 ((elem(X**3 + X * X, GAMMA * GAMMA), elem(X * X + X, GAMMA * GAMMA)), 1,
                  {**odd, "_strip_content": 1}),
                 # Shared content 2, M = X + 1: one candidate is made primitive.
                 ((elem(2 * X**3 + 2, GAMMA * GAMMA), elem(2 * X * X - 2, GAMMA * GAMMA)), 2,
                  {**even, "_strip_content": 1}),
                 # The common denominator takes a gcd and three products.
                 ((elem(X), elem(Polynomial.one(), GAMMA * GAMMA)), 3,
                  {"_gcd_cofactors": 2, "__mul__": 3, "_strip_content": 1})]
        for (a, b), s, expected in cases:
            counts.update(dict.fromkeys(counts, 0))
            report = principal_generator(a, b)
            assert (report.s, report.principal) == (s, s % 2 == 0), (str(a), str(b))
            assert counts == {**dict.fromkeys(counts, 0), **expected}, (str(a), str(b))
        shared = [GAMMA, X * GAMMA]
        counts.update(dict.fromkeys(counts, 0))
        ideals._sum_of_squares(Polynomial.one(), shared, 3, shared)
        assert counts == {**dict.fromkeys(counts, 0), "poly_gcd": 1, "_strip_content": 1}
