import random
import time
from fractions import Fraction
import math

import pytest

from dressring import numberrings
from dressring import (
    CertificateError,
    IndeterminateSeriesError,
    ResourceLimitError,
    SeriesBase,
    ShapeViolation,
    TruncLaurent,
    ZeroPolynomialError,
    factorize,
    laurent_member,
    zs_gcd,
    zs_member,
)
from dressring.numberrings import is_probable_prime
from helpers import (
    montgomery_add,
    montgomery_curve,
    montgomery_multiple,
    trial_division_reference,
)


def sum_of_two_squares_lt(p: int) -> bool:
    """Brute force: p = a^2 + b^2 with 1 <= a < b (see notes in the acceptance suite)."""
    a = 1
    while a * a * 2 < p:
        rest = p - a * a
        b = int(rest**0.5)
        for cand in (b - 1, b, b + 1):
            if cand > a and cand * cand == rest:
                return True
        a += 1
    return False


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n) if sieve[i]]


def trial_factor(n: int) -> dict[int, int]:
    """Oracle: prime factorization by trial division (for n up to about 10^12)."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def rand_prime(rng, lo: int, hi: int, residue=None) -> int:
    """A prime in [lo, hi), certified by trial division, optionally with p % 4 == residue."""
    while True:
        p = rng.randrange(lo, hi) | 1
        if (residue is None or p % 4 == residue) and trial_factor(p) == {p: 1}:
            return p


def planted(primes) -> tuple[int, dict[int, int]]:
    """The product of oracle-certified primes and its factorization."""
    n, expected = 1, {}
    for p in primes:
        n *= p
        expected[p] = expected.get(p, 0) + 1
    return n, expected


# The p-1 stage's bounds, and 2^PM1_EXPONENT, the power of 2 that its stage 1
# takes: the product of the largest prime powers up to PM1_B1.
PM1_B1, PM1_B2 = 1000, 10_000
PM1_EXPONENT = math.prod(max(p**k for k in range(1, 10) if p**k <= PM1_B1)
                         for p in primes_below(PM1_B1 + 1))
# ECM's bounds: stage 1 multiplies by lcm(1, ..., ECM_B1), and stage 2 looks
# for one more prime up to ECM_B2 in giant steps of ECM_D.  p-1's stage 2 takes
# the same giant steps.
ECM_B1, ECM_B2, ECM_D = 100, 5000, 210


def smooth_prime(rng, lo: int, cofactor: int = 1) -> int:
    """A prime p >= lo, certified by trial division, with p - 1 = 2 * cofactor
    times distinct odd primes below PM1_B1."""
    odd_primes = primes_below(PM1_B1)[1:]
    while True:
        p = 2 * cofactor
        while p < lo:
            p *= rng.choice(odd_primes)
        if trial_factor(p + 1) == {p + 1: 1} and max(trial_factor(p).values()) == 1:
            return p + 1


def semismooth_prime(rng, lo: int, big=None) -> int:
    """A prime p >= lo whose p - 1 is a prime in (PM1_B1, PM1_B2], ``big`` or
    drawn from rng, times a PM1_B1-smooth part, such that stage 1 alone misses
    p: 2^PM1_EXPONENT != 1 mod p."""
    bigs = [q for q in primes_below(PM1_B2 + 1) if q > PM1_B1]
    while True:
        p = smooth_prime(rng, lo, big or rng.choice(bigs))
        if pow(2, PM1_EXPONENT, p) != 1:
            return p


def rough_prime(rng, lo: int, hi: int) -> int:
    """A prime q in [lo, hi) that p-1 cannot find: the order of 2 mod q has a
    prime factor above PM1_B2."""
    while True:
        q = rand_prime(rng, lo, hi)
        r = max(trial_factor(q - 1))
        if r > PM1_B2 and pow(2, (q - 1) // r, q) != 1:
            return q


def oracle_zs_member(q: Fraction, known_primes) -> bool:
    """Z_S membership: divide the known primes out of the denominator, trial-divide the rest."""
    den = q.denominator
    for p in known_primes:
        while den % p == 0:
            if p % 4 != 1:
                return False
            den //= p
    assert den < 10**12
    return all(p % 4 == 1 for p in trial_factor(den))


# Two primes of 20 digits, both 1 mod 4: their product runs through every row
# of the ECM schedule, so zs_member must factor it and cannot.
PAST_THE_SCHEDULE = 10000000000000000097 * 20000000000000000153
# Two primes of 19 digits whose product, above _MR_EXACT_BOUND, runs through
# the schedule too.
PAST_THE_MR_BOUND = 3000000000000000037 * 7000000000000000013


def assert_past_the_schedule(error: Exception, n: int) -> None:
    """The limit's message names n and the schedule's last row."""
    b1, b2, curves = numberrings._ECM_SCHEDULE[-1]
    assert str(n) in str(error)
    assert f"{curves} curves with B1 = {b1} and B2 = {b2}" in str(error)


@pytest.fixture
def refuse_ecm(monkeypatch):
    def refuse(n, *curve):
        raise AssertionError(f"_ecm_curve({n}, {curve}) called")

    monkeypatch.setattr(numberrings, "_ecm_curve", refuse)


class TestFactorize:
    def test_small(self):
        assert factorize(1) == {}
        assert factorize(360) == {2: 3, 3: 2, 5: 1}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_large_semiprime(self):
        n = 1000003 * 999983
        assert factorize(n) == {999983: 1, 1000003: 1}

    def test_against_trial_division(self):
        bound = numberrings._TRIAL_BOUND
        cases = [1] + [2**k for k in range(1, 70)]
        below = max(p for p in range(bound - 60, bound) if trial_factor(p) == {p: 1})
        above = min(p for p in range(bound, bound + 60) if trial_factor(p) == {p: 1})
        for p in (below, above):
            cases += [p, p**2, p**3, 2 * p**3, p**2 * above]
        # A prime above the bound and below its square.
        cases.append(999983)
        for n in cases:
            f = factorize(n)
            assert f == trial_factor(n)
            assert list(f) == sorted(f)

    def test_trial_division_against_the_reference_loop(self):
        rng = random.Random(3901)
        small = primes_below(numberrings._TRIAL_BOUND)
        for _ in range(300):
            n = math.prod(p ** rng.randint(1, 40) for p in rng.sample(small, rng.randint(0, 6)))
            big = [rand_prime(rng, 1001, 10**8) for _ in range(rng.randint(0, 2))]
            n *= math.prod(big)
            found, rest = trial_division_reference(n, numberrings._TRIAL_BOUND)
            assert rest == math.prod(big)
            for q in big:
                found[q] = found.get(q, 0) + 1
            f = factorize(n)
            assert f == dict(sorted(found.items()))
            assert list(f) == sorted(f)

    def test_planted_eight_digit_primes(self):
        rng = random.Random(205)
        for size in (2, 2, 2, 2, 2, 2, 4, 4, 4, 4):
            n, expected = planted(rand_prime(rng, 10**7, 10**8) for _ in range(size))
            f = factorize(n)
            assert f == expected
            assert list(f) == sorted(f)

    def test_past_the_ecm_schedule_raises(self):
        # Two 16-digit primes, both 1 mod 4, that p-1 and the first row of
        # ECM miss and the second row splits.
        p, q = 1000000000000037, 2000000000000021
        assert factorize(p * q) == {p: 1, q: 1}
        assert zs_member(Fraction(1, p * q))
        # The end of the schedule is the limit, reached within seconds.
        start = time.process_time()
        with pytest.raises(ResourceLimitError) as info:
            zs_member(Fraction(1, PAST_THE_SCHEDULE))
        assert time.process_time() - start < 5
        assert_past_the_schedule(info.value, PAST_THE_SCHEDULE)

    def test_probable_prime(self):
        assert is_probable_prime(2) and is_probable_prime(999983)
        assert not is_probable_prime(1) and not is_probable_prime(999983 * 3)

    def test_probable_prime_deterministic_bound(self):
        # The least strong pseudoprime to the bases 2..37 lies below the
        # documented bound, so it must be rejected.
        assert not is_probable_prime(399165290221 * 798330580441)
        assert is_probable_prime(2**61 - 1) and is_probable_prime(10**18 + 9)

    def test_strong_lucas_above_the_miller_rabin_bound(self):
        # The least strong pseudoprime to the bases 2..41, the bound itself.
        n = numberrings._MR_EXACT_BOUND
        assert n == 1287836182261 * 2575672364521
        assert trial_factor(1287836182261) == {1287836182261: 1}
        assert trial_factor(2575672364521) == {2575672364521: 1}
        assert not is_probable_prime(n)
        assert not numberrings._strong_lucas(n)
        for e in (89, 107, 127):
            assert is_probable_prime(2**e - 1)

    def test_factorize_at_the_miller_rabin_bound(self):
        # Both primes have p - 1 = 2^a * 3^3 * 5 * 127 * 18778597, too rough for
        # p-1, and the first row of ECM misses them too; the second row splits n.
        n = numberrings._MR_EXACT_BOUND
        assert factorize(n) == {1287836182261: 1, 2575672364521: 1}
        # Two 19-digit primes past the schedule, their product above the bound.
        n = PAST_THE_MR_BOUND
        assert n > numberrings._MR_EXACT_BOUND
        start = time.process_time()
        with pytest.raises(ResourceLimitError) as info:
            factorize(n)
        assert time.process_time() - start < 5
        assert_past_the_schedule(info.value, n)

    def test_strong_lucas_pseudoprimes(self):
        # 5459, 5777 and 10877 are the least strong Lucas pseudoprimes with
        # Selfridge's parameters: the Lucas part alone accepts them, and
        # Miller-Rabin rejects them, which is why BPSW runs both.  Among the odd
        # n < 20000 without a prime factor below 42 (the ones is_probable_prime
        # hands it), the Lucas part errs on exactly five, and on no prime or
        # square of a prime.
        wrong = [n for n in range(43, 20000, 2)
                 if min(trial_factor(n)) > 41
                 and numberrings._strong_lucas(n) != (trial_factor(n) == {n: 1})]
        assert wrong == [5459, 5777, 10877, 16109, 18971]
        for n in wrong:
            assert not is_probable_prime(n)
        # A square has no D with (D/n) = -1; the search would run to D = p.
        assert not numberrings._strong_lucas((2**61 - 1) ** 2)
        # Selfridge's search meets D = -43 before any D with (D/n) = -1, and
        # (-43/n) = 0 shows the factor 43.
        assert numberrings._strong_lucas(43 * 1002817) is False

    def test_jacobi_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(4707)
        for n in [1, 3, 5, 7, 9, 15, 999_999] + [rng.randrange(1, 10**6, 2) for _ in range(300)]:
            grid = [rng.randrange(-10**7, 10**7) for _ in range(8)]
            for a in [0, n, -n, 3 * n, 1, -1, 2, -2] + grid:
                assert numberrings._jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)

    def test_parts_resume_at_the_splitting_finder(self, monkeypatch):
        # Four 8-digit primes: the third finder, ECM's curve sigma = 7, splits
        # off one prime, and the composite part resumes at it; the fourth,
        # sigma = 8, splits that part, and its composite part resumes there.
        # No call on a divisor of m uses a lower finder than a call on m did.
        ps = [22129273, 23603227, 48833327, 98674547]
        n = math.prod(ps)
        calls = []
        pm1, curve = numberrings._pollard_pm1, numberrings._ecm_curve
        monkeypatch.setattr(numberrings, "_pollard_pm1", lambda m: calls.append((0, m)) or pm1(m))
        monkeypatch.setattr(numberrings, "_ecm_curve", lambda m, *c: calls.append(
            (numberrings._FINDERS.index(c), m)) or curve(m, *c))
        assert factorize(n) == dict.fromkeys(ps, 1)
        for t, (i, m) in enumerate(calls):
            assert all(i >= j for j, big in calls[:t] if big % m == 0), calls[:t + 1]
        first = {}
        for i, m in calls:
            first.setdefault(m, i)
        assert first.pop(n) == 0
        assert sorted(first.values()) == [2, 3]

    def test_resumed_parts_skip_only_futile_finders(self, monkeypatch):
        # Products of three and four 8-digit primes, some squared.  Every finder
        # that a resumed part m skips returns 0 on m, so factorize with the
        # resume makes the same splitting calls, and returns the same dicts, as
        # with every part starting at p-1.  A finder that acted on the size of
        # m, not only on residues mod m, could split a part that its run on the
        # whole missed, and this would fail.
        rng = random.Random(4722)
        pm1, curve = numberrings._pollard_pm1, numberrings._ecm_curve

        def run(j, m):
            c = numberrings._FINDERS[j]
            return curve(m, *c) if c else pm1(m)

        def record(m, j, result):
            first.setdefault(m, j)
            return result

        monkeypatch.setattr(numberrings, "_pollard_pm1", lambda m: record(m, 0, pm1(m)))
        monkeypatch.setattr(numberrings, "_ecm_curve", lambda m, *c: record(
            m, numberrings._FINDERS.index(c), curve(m, *c)))
        resumed = []
        for size in (3, 4) * 5:
            primes = [rand_prime(rng, 10**7, 10**8) for _ in range(size)]
            n, expected = planted(p for p in primes for _ in range(rng.choice((1, 1, 1, 2))))
            first = {}  # each m that a finder ran on, and the first finder run on it
            assert factorize(n) == dict(sorted(expected.items())), n
            for m, i in first.items():
                assert not any(run(j, m) for j in range(i)), (n, m, i)
                resumed += [i] if i else []
        # Nine parts resume, past p-1 and past up to three curves.
        assert sorted(resumed) == [1, 1, 2, 2, 3, 3, 4, 4, 4]


class TestPollardPm1:
    """Semiprimes p*q planted so that one stage of p-1 must split them, or so
    that both stages must miss and ECM must split them."""

    def test_exponent_table(self):
        # p-1 and ECM take their stage-1 exponent and their stage-2 plan from
        # one builder: every prime of (B1, B2] above ECM_D/2 is m * ECM_D +- j
        # for a pair (m, j) of the plan, and every pair serves such a prime.
        assert numberrings._stage_tables(PM1_B1, PM1_B2)[0] == PM1_EXPONENT
        for b1, b2 in ((PM1_B1, PM1_B2), (ECM_B1, ECM_B2)):
            k, babies, plan = numberrings._stage_tables(b1, b2)
            assert k == math.lcm(*range(1, b1 + 1))
            primes = {q for q in primes_below(b2 + 1) if q > max(b1, ECM_D // 2)}
            covered = set()
            for m, js in enumerate(plan, 1):
                assert set(js) <= set(babies)
                for j in js:
                    pair = {m * ECM_D - j, m * ECM_D + j}
                    assert pair & primes, (b1, m, j)
                    covered |= pair & primes
            assert covered == primes, (b1, b2)
            assert plan[-1], (b1, b2)

    @pytest.mark.parametrize("seed, side", [(3711, 1), (3712, 1), (3713, -1), (3714, -1)])
    def test_stage_two_on_both_sides_of_a_giant(self, refuse_ecm, seed, side):
        # The prime in p - 1 is m * ECM_D + side * j with 0 < j < ECM_D/2, and
        # m * ECM_D - side * j, the other value of its pair, is composite.
        rng = random.Random(seed)
        bigs = {q for q in primes_below(PM1_B2 + 1) if q > PM1_B1}
        big = rng.choice(sorted(
            q for q in bigs if (q % ECM_D < ECM_D // 2) == (side > 0)
            and 2 * ECM_D * ((q + ECM_D // 2) // ECM_D) - q not in bigs))
        p, q = semismooth_prime(rng, 10**8, big), rough_prime(rng, 10**7, 10**8)
        assert numberrings._pollard_pm1(p * q) == p
        assert factorize(p * q) == dict(sorted({p: 1, q: 1}.items()))

    @pytest.mark.parametrize("seed", [3601, 3602, 3603])
    def test_stage_one_splits_a_smooth_p_minus_1(self, seed):
        rng = random.Random(seed)
        p, q = smooth_prime(rng, 10**8), rough_prime(rng, 10**7, 10**8)
        assert pow(2, PM1_EXPONENT, p) == 1 != pow(2, PM1_EXPONENT, q)
        assert factorize(p * q) == dict(sorted({p: 1, q: 1}.items()))

    @pytest.mark.parametrize("seed, big", [(3701, None), (3702, None), (3703, 1009), (3704, 9973)])
    def test_stage_two_splits_a_semismooth_p_minus_1(self, refuse_ecm, seed, big):
        # 1009 and 9973 are the least and the largest prime that stage 2 tries.
        rng = random.Random(seed)
        p, q = semismooth_prime(rng, 10**8, big), rough_prime(rng, 10**7, 10**8)
        assert factorize(p * q) == dict(sorted({p: 1, q: 1}.items()))

    def test_pm1_splits_sixteen_digit_primes(self):
        # Both primes are 1 mod 4, and p-1 splits p*q:
        # p - 1 = 2^2 * 5 * 347 * 541 * 587 * 641 * 739, and
        # q - 1 = 2^2 * 5 * 29 * 101 * 281 * 121499449.
        p, q = 1043992322111021, 2000000000000021
        assert factorize(p * q) == {p: 1, q: 1}
        assert zs_member(Fraction(1, p * q))

    @pytest.fixture
    def ecm_calls(self, monkeypatch):
        """The (n, sigma) of every _ecm_curve call, one entry a curve."""
        calls = []
        original = numberrings._ecm_curve

        def recording(n, sigma, b1, b2):
            calls.append((n, sigma))
            return original(n, sigma, b1, b2)

        monkeypatch.setattr(numberrings, "_ecm_curve", recording)
        return calls

    @staticmethod
    def assert_one_ecm_pass(calls, n):
        """ECM ran once on n: sigma = 6, 7, ... each once, up to a curve that splits n."""
        last = calls[-1][1]
        assert calls == [(n, sigma) for sigma in range(6, last + 1)]
        assert numberrings._ecm_curve(n, *numberrings._FINDERS[last - 5])

    @pytest.mark.parametrize("seed", [3801, 3802, 3803])
    def test_both_smooth_falls_through_to_ecm(self, ecm_calls, seed):
        rng = random.Random(seed)
        p, q = smooth_prime(rng, 10**8), smooth_prime(rng, 10**7)
        # Stage 1 finds every prime at once: gcd(2^E - 1, pq) = pq.
        assert pow(2, PM1_EXPONENT, p * q) == 1
        assert factorize(p * q) == dict(sorted({p: 1, q: 1}.items()))
        self.assert_one_ecm_pass(ecm_calls, p * q)

    @pytest.fixture
    def pm1_calls(self, monkeypatch):
        calls = []
        original = numberrings._pollard_pm1

        def recording(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(numberrings, "_pollard_pm1", recording)
        return calls

    @pytest.mark.parametrize("p", [1093, 3511, 1000003])
    def test_prime_square_falls_through_to_ecm(self, pm1_calls, ecm_calls, p):
        # 1093 and 3511 are the two known Wieferich primes, 2^(p-1) = 1 mod p^2,
        # and their p - 1 is 1000-smooth, so stage 1 gives gcd = p^2.  The order
        # of 2 mod 1000003 is divisible by 166667, so both stages give gcd = 1.
        # A point that is 0 mod p has Z = 0 mod p^2 (Z is the square of the
        # formal group's parameter), so only ECM's stage 2 splits p^2.  It does
        # for 3511 and 1000003 on the first row; every curve mod 1093 has an
        # order of at most 1160, which divides lcm(1, ..., 2000), and for 1093^2 no
        # row of the schedule finds a factor.  The square check takes every p^2
        # before p-1.
        assert numberrings._pollard_pm1(p * p) == 0
        if p == 1093:
            assert not any(numberrings._ecm_curve(p * p, *c) for c in numberrings._FINDERS[1:])
        else:
            first_row = numberrings._FINDERS[1:1 + numberrings._ECM_SCHEDULE[0][2]]
            assert p in (numberrings._ecm_curve(p * p, *c) for c in first_row)
        pm1_calls.clear()
        ecm_calls.clear()
        assert factorize(p * p) == {p: 2}
        assert pm1_calls == ecm_calls == []

    def test_square_root_is_factored_once(self, pm1_calls, ecm_calls):
        # A square cofactor goes on as its root, counted twice.
        p, q = 1000000000000037, 2000000000000021
        assert factorize(3 * (p * q) ** 2) == {3: 1, p: 2, q: 2}
        assert pm1_calls == [p * q]
        self.assert_one_ecm_pass(ecm_calls, p * q)

    @pytest.mark.parametrize("p", [1093, 3511])
    def test_wieferich_prime_powers(self, p):
        # An even power is taken by the square check, p^3 and p^5 by p-1 or ECM
        # after it, and 7 * 1000033 beside them by trial division and the stack.
        for k in range(2, 7):
            assert factorize(p**k) == {p: k}
            assert factorize(7 * p**k * 1000033) == {7: 1, p: k, 1000033: 1}


class TestEcm:
    """The x:z arithmetic against affine points, the stage-2 plan, and
    semiprimes that p-1 cannot split and ECM must."""

    def test_tables(self):
        # The plan's pairs are checked with p-1's in test_exponent_table; the
        # primes of (ECM_B1, ECM_D/2] are babies themselves and take no pair.
        k, babies, plan = numberrings._stage_tables(ECM_B1, ECM_B2)
        assert k == math.lcm(*range(1, ECM_B1 + 1))
        assert babies == tuple(j for j in range(1, ECM_D // 2 + 1) if math.gcd(j, ECM_D) == 1)
        assert {q for q in babies if q > ECM_B1} == {101, 103}
        assert numberrings._ECM_SCHEDULE[0] == (ECM_B1, ECM_B2, 30)
        assert plan != numberrings._stage_tables(PM1_B1, PM1_B2)[2]

    @pytest.mark.parametrize("p", [10007, 1000003])
    @pytest.mark.parametrize("sigma", [6, 7, 13, 35])
    def test_ladder_matches_affine_points(self, p, sigma):
        x, a24 = numberrings._suyama(sigma, p)
        A, B, P = montgomery_curve(x, a24, p)
        ks = [1, 2, 3, 4, 5, 17, 100, 2**20 + 7, numberrings._stage_tables(ECM_B1, ECM_B2)[0]]
        if p == 10007:
            # The order of P, by walking its multiples: [order]P is the point
            # at infinity, as is every multiple of it.
            order, R = 1, P
            while R is not None:
                order, R = order + 1, montgomery_add(R, P, A, B, p)
            ks += [order, 2 * order, 3 * order, order + 1, order - 1]
        infinite = 0
        for k in ks:
            X, Z = numberrings._ladder(k, x, a24, p)
            ref = montgomery_multiple(k, P, A, B, p)
            if ref is None:
                infinite += 1
                assert Z % p == 0, k
            else:
                assert Z % p and (X - ref[0] * Z) % p == 0, k
        assert infinite >= (3 if p == 10007 else 0)

    @pytest.mark.parametrize("sigma", [6, 9])
    def test_doubling_and_differential_addition(self, sigma):
        p = 1000003
        x, a24 = numberrings._suyama(sigma, p)
        A, B, P = montgomery_curve(x, a24, p)
        xs = {k: montgomery_multiple(k, P, A, B, p)[0] for k in range(1, 12)}
        for a in range(1, 6):
            X, Z = numberrings._xdbl(xs[a], 1, a24, p)
            assert (X - xs[2 * a] * Z) % p == 0
            for b in range(1, a):
                X, Z = numberrings._xadd(xs[a], 1, xs[b], 1, xs[a - b], 1, p)
                assert (X - xs[a + b] * Z) % p == 0

    def test_the_curve_setup_gcd(self):
        # Suyama's sigma = 6 has u = 31 and v = 24, so the curve's setup gcd
        # gcd(16 u^3 v^4, n) is 31 for n = 31 * 1000003, a proper divisor,
        # and n itself for n = 93 = 3 * 31, which splits nothing.
        assert numberrings._ecm_curve(31 * 1000003, 6, ECM_B1, ECM_B2) == 31
        assert numberrings._ecm_curve(93, 6, ECM_B1, ECM_B2) == 0

    def test_stage_two_splits_a_pinned_curve(self):
        # On the first curve, sigma = 6, stage 1 misses both primes of n.  Mod
        # 4981579 the order of P is 257 times a divisor of k, with
        # 257 = 1 * 210 + 47 a prime of the plan, so stage 2 finds 4981579.
        p, q = 3436067, 4981579
        n = p * q
        k = numberrings._stage_tables(ECM_B1, ECM_B2)[0]
        x, a24 = numberrings._suyama(6, n)
        assert math.gcd(numberrings._ladder(k, x, a24, n)[1], n) == 1
        assert numberrings._ecm_curve(n, 6, ECM_B1, ECM_B2) == q
        A, B, P = montgomery_curve(*numberrings._suyama(6, q), q)
        R = montgomery_multiple(k, P, A, B, q)
        assert R is not None and montgomery_multiple(257, R, A, B, q) is None
        A, B, P = montgomery_curve(*numberrings._suyama(6, p), p)
        assert montgomery_multiple(k * 257, P, A, B, p) is not None
        assert factorize(n) == {p: 1, q: 1}

    @pytest.mark.parametrize("seed", [4001, 4002, 4003, 4004, 4005])
    def test_ecm_splits_rough_semiprimes(self, seed):
        # Both p - 1 have a prime factor above PM1_B2 in the order of 2, so
        # p-1 finds neither prime, and ECM must split p*q.
        rng = random.Random(seed)
        p, q = rough_prime(rng, 10**6, 10**8), rough_prime(rng, 10**6, 10**8)
        assert numberrings._pollard_pm1(p * q) == 0
        assert factorize(p * q) == dict(sorted({p: 1, q: 1}.items()))

    def test_raises_when_ecm_gives_up(self, monkeypatch):
        # No stage follows ECM's last curve: when every curve gives up,
        # factorize raises.  Each of the 95 curves runs once on p*q, with
        # sigma = 6, ..., 100 counting on across the rows of the schedule.
        rng = random.Random(4006)
        p, q = rough_prime(rng, 10**6, 10**8), rough_prime(rng, 10**6, 10**8)
        calls = []
        monkeypatch.setattr(numberrings, "_ecm_curve", lambda *args: calls.append(args) or 0)
        with pytest.raises(ResourceLimitError) as info:
            factorize(p * q)
        assert_past_the_schedule(info.value, p * q)
        assert calls == ([(p * q, sigma, 100, 5000) for sigma in range(6, 36)]
                         + [(p * q, sigma, 500, 50_000) for sigma in range(36, 76)]
                         + [(p * q, sigma, 2000, 200_000) for sigma in range(76, 101)])


class TestFactorizeSympyOracle:
    """Differential check of factorize against SymPy's factorint."""

    def test_factorize_matches_factorint(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1039)
        cases = [rng.randrange(1, 10**15) for _ in range(100)]
        for _ in range(50):
            primes = [sympy.nextprime(rng.randrange(10, 10**9)) for _ in range(rng.randint(1, 3))]
            n, _ = planted(int(p) for p in primes)
            cases.append(n * rng.randrange(1, 10**4))
        # Split by p-1's stage 1, by its stage 2, by ECM after stage 1 found pq,
        # and by ECM where p-1 finds neither prime.
        for _ in range(5):
            rough = rough_prime(rng, 10**7, 10**8)
            cases += [smooth_prime(rng, 10**8) * rough, semismooth_prime(rng, 10**8) * rough,
                      smooth_prime(rng, 10**8) * smooth_prime(rng, 10**7),
                      rough * rough_prime(rng, 10**6, 10**8)]
        # Three and four primes of 6-9 digits, some squared: a split leaves
        # composite parts, which resume at the finder that split them.
        # factorint takes seconds on these, so nextprime alone certifies them.
        products = []
        for size in (3, 4) * 8:
            primes = [int(sympy.nextprime(rng.randrange(10**5, 10**9))) for _ in range(size)]
            products.append(planted(p for p in primes for _ in range(rng.choice((1, 1, 1, 2)))))
        for n in cases:
            expected = {int(p): e for p, e in sympy.factorint(n).items()}
            f = factorize(n)
            assert f == expected, n
            assert list(f) == sorted(f)
        for n, expected in products:
            f = factorize(n)
            assert f == dict(sorted(expected.items())), n
            assert list(f) == sorted(f)

    def test_thirteen_and_fourteen_digit_semiprimes(self):
        # p-1 and the first row of ECM split none of these six; the second row
        # splits each.
        sympy = pytest.importorskip("sympy")
        rng = random.Random(4106)
        for digits in (13, 13, 13, 14, 14, 14):
            p, q = (int(sympy.nextprime(rng.randrange(10 ** (digits - 1), 10**digits)))
                    for _ in range(2))
            assert factorize(p * q) == dict(sorted({p: 1, q: 1}.items()))


class TestZsMember:
    def test_examples(self):
        assert zs_member(Fraction(1, 5))
        assert not zs_member(Fraction(1, 3))
        assert not zs_member(Fraction(3, 7))
        assert not zs_member(Fraction(7, 3))
        assert zs_member(Fraction(10))

    def test_multiplicative_on_coprime_parts(self):
        rng = random.Random(201)
        for _ in range(200):
            a = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            b = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            prod = a * b
            if (a.denominator * b.denominator) == prod.denominator:  # coprime reduced parts
                assert zs_member(prod) == (zs_member(a) and zs_member(b))

    def test_prime_table_vs_residue_and_two_squares(self):
        for p in primes_below(1000):
            member = zs_member(Fraction(1, p))
            assert member == (p % 4 == 1)
            assert member == sum_of_two_squares_lt(p)


    def test_parity_rejection_skips_factoring(self, monkeypatch):
        # Two 16-digit primes, 1 and 3 mod 4: factoring their product would
        # take a tenth of a second or more.
        p, q = 1000000000000037, 1100000000000023
        start = time.process_time()
        assert not zs_member(Fraction(1, p * q))
        assert time.process_time() - start < 0.5

        def no_factoring(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(numberrings, "factorize", no_factoring)
        for den in (2, 3, 4, 6, 7, 11, 12, 5 * 3 * 5, 2 * 5, p * q):
            assert den % 4 != 1
            assert not zs_member(Fraction(1, den))


class TestZsGcd:
    def test_certificate_checks_raise(self, monkeypatch):
        original = numberrings._int_extended_gcd

        def wrong_bezout(a, b):
            d, x, y = original(a, b)
            return d, x + 1, y

        monkeypatch.setattr(numberrings, "_int_extended_gcd", wrong_bezout)
        with pytest.raises(CertificateError, match="u\\*a \\+ v\\*b"):
            zs_gcd(Fraction(6), Fraction(10))
        monkeypatch.setattr(numberrings, "_int_extended_gcd", original)
        # d = gcd(30, 50) = 10 has S-part 5, so u = 2/5 and v = -1/5; a split
        # that hides the S-part of d fails the check that S(d) clears them.
        split = numberrings._split_s
        monkeypatch.setattr(numberrings, "_split_s", lambda n: (1, split(n)[1]))
        with pytest.raises(CertificateError, match="not in Z_S"):
            zs_gcd(Fraction(30), Fraction(50))

    def test_example_6_10(self):
        g, u, v = zs_gcd(Fraction(6), Fraction(10))
        assert g == 2
        assert u * 6 + v * 10 == 2
        # derivation: small search reaches 2, and 2 divides both in the ring
        found = any(
            x * 6 + y * 10 == 2
            for x in (Fraction(n, d) for n in range(-9, 10) for d in (1, 5, 13))
            for y in (Fraction(n, d) for n in range(-9, 10) for d in (1, 5, 13))
        )
        assert found
        assert zs_member(Fraction(6, 2) / 1) and zs_member(Fraction(10, 2))

    def test_unit_input(self):
        g, u, v = zs_gcd(Fraction(5), Fraction(0))
        assert g == 1 and u * 5 == 1

    def test_coprime_integers(self):
        g, u, v = zs_gcd(Fraction(3), Fraction(7))
        assert g == 1 and u * 3 + v * 7 == 1

    def test_both_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            zs_gcd(Fraction(0), Fraction(0))

    def test_shared_denominator_factored_once(self, monkeypatch):
        n = 3 * 5 * 7 * 13
        calls = []
        original = numberrings.factorize

        def recording(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(numberrings, "factorize", recording)
        a, b = Fraction(1, n), Fraction(2, n)  # both reduced over n
        g, u, v = zs_gcd(a, b)
        assert calls.count(n) == 1
        assert g == Fraction(1, 3 * 7)
        assert u * a + v * b == g

    def test_contract_random(self):
        rng = random.Random(202)
        for _ in range(200):
            a = Fraction(rng.randint(-300, 300))
            b = Fraction(rng.randint(-300, 300))
            if a == 0 and b == 0:
                continue
            g, u, v = zs_gcd(a, b)
            assert g > 0
            assert u * a + v * b == g
            assert zs_member(u) and zs_member(v)
            if a:
                assert zs_member(a / g)
            if b:
                assert zs_member(b / g)

    def test_contract_cli_sized(self):
        # Each value is k/(p*q) with 6-8 digit primes of both residues mod 4.
        rng = random.Random(206)
        for _ in range(30):
            primes = [rand_prime(rng, 10**5, 10**8, rng.choice([1, 3])) for _ in range(4)]
            a = Fraction(rng.choice([1, -1]) * rng.randint(1, 60), primes[0] * primes[1])
            b = Fraction(rng.choice([1, -1]) * rng.randint(1, 60), primes[2] * primes[3])
            g, u, v = zs_gcd(a, b)
            assert g > 0
            assert u * a + v * b == g
            for x in (u, v, a / g, b / g):
                assert oracle_zs_member(x, primes)

    def test_rational_inputs(self):
        g, u, v = zs_gcd(Fraction(3, 7), Fraction(9, 14))
        assert u * Fraction(3, 7) + v * Fraction(9, 14) == g
        assert zs_member(u) and zs_member(v)
        assert zs_member(Fraction(3, 7) / g) and zs_member(Fraction(9, 14) / g)


class TestLaurent:
    def test_examples(self):
        assert not laurent_member(TruncLaurent.make(SeriesBase.REAL_HENSELIAN, -1, [1, 1]))
        assert not laurent_member(
            TruncLaurent.make(SeriesBase.RATIONAL_HENSELIAN, 0, [Fraction(1, 3), 1])
        )
        assert laurent_member(
            TruncLaurent.make(SeriesBase.RATIONAL_HENSELIAN, 0, [Fraction(1, 5), 2, 1])
        )

    def test_declared_zero_is_member(self):
        assert laurent_member(TruncLaurent.zero(SeriesBase.REAL_HENSELIAN))
        assert laurent_member(TruncLaurent.zero(SeriesBase.RATIONAL_HENSELIAN))
        assert TruncLaurent.zero(SeriesBase.REAL_HENSELIAN).coefficient(5) == 0

    def test_zero_to_precision_indeterminate(self):
        with pytest.raises(IndeterminateSeriesError):
            laurent_member(TruncLaurent.make(SeriesBase.REAL_HENSELIAN, 0, [0, 0]))

    def test_leading_zero_normalization(self):
        s = TruncLaurent.make(SeriesBase.REAL_HENSELIAN, -2, [0, 0, 3, 1])
        assert s.order == 0 and s.coeffs == (Fraction(3), Fraction(1))
        assert s.precision == 2
        assert laurent_member(s)

    def test_rational_base_positive_order(self):
        assert laurent_member(TruncLaurent.make(SeriesBase.RATIONAL_HENSELIAN, 1, [Fraction(1, 3)]))

    def test_mixed_bases_rejected(self):
        a = TruncLaurent.make(SeriesBase.REAL_HENSELIAN, 0, [1])
        b = TruncLaurent.make(SeriesBase.RATIONAL_HENSELIAN, 0, [1])
        with pytest.raises(ShapeViolation):
            a + b

    def test_real_base_members_closed_under_ring_ops(self):
        rng = random.Random(203)
        for _ in range(100):
            o1, o2 = rng.randint(0, 3), rng.randint(0, 3)
            s1 = TruncLaurent.make(
                SeriesBase.REAL_HENSELIAN, o1,
                [Fraction(rng.randint(-5, 5)) for _ in range(4)] + [1],
            )
            s2 = TruncLaurent.make(
                SeriesBase.REAL_HENSELIAN, o2,
                [Fraction(rng.randint(-5, 5)) for _ in range(4)] + [1],
            )
            assert laurent_member(s1) and laurent_member(s2)
            total = s1 + s2
            if not total.is_zero_to_precision:
                assert laurent_member(total)
            assert laurent_member(s1 * s2)

    def test_multiplication_exact_coefficients(self):
        s1 = TruncLaurent.make(SeriesBase.REAL_HENSELIAN, 0, [1, 2, 3])
        s2 = TruncLaurent.make(SeriesBase.REAL_HENSELIAN, 1, [5, -2])
        prod = s1 * s2
        assert prod.order == 1 and prod.precision == 3
        assert prod.coeffs == (Fraction(5), Fraction(8))

    def test_precision_is_order_plus_known_coefficients(self):
        base = SeriesBase.REAL_HENSELIAN
        assert TruncLaurent(base, -2, (Fraction(3), Fraction(1))).precision == 0
        assert TruncLaurent.zero(base).precision == 0
        s = TruncLaurent.make(base, -1, [1, 0, 2])
        for t in (s, -s, s + s, s * s, s - s):
            assert t.precision == t.order + len(t.coeffs)

    def test_make_needs_a_coefficient(self):
        with pytest.raises(ShapeViolation):
            TruncLaurent.make(SeriesBase.REAL_HENSELIAN, 0, [])

    def test_coefficient_at_the_precision_is_unknown(self):
        s = TruncLaurent.make(SeriesBase.REAL_HENSELIAN, -1, [1, 2])
        assert s.coefficient(s.precision - 1) == 2
        with pytest.raises(IndeterminateSeriesError):
            s.coefficient(s.precision)

    def test_declared_zero_operands(self):
        base = SeriesBase.RATIONAL_HENSELIAN
        a, zero = TruncLaurent.make(base, -1, [3, 1]), TruncLaurent.zero(base)
        assert a + zero is a and zero + a is a
        assert -zero is zero
        assert (a * zero).is_declared_zero and a * zero == zero

    def test_sum_of_nonzero_series_keeps_the_smaller_precision(self):
        # Each operand holds a coefficient, so its precision exceeds its order,
        # and the sum always has a known coefficient: it never raises.
        rng = random.Random(48)
        for base in SeriesBase:
            for _ in range(100):
                a, b = (TruncLaurent.make(base, rng.randint(-3, 3),
                                          [rng.randint(-2, 2) for _ in range(rng.randint(1, 4))])
                        for _ in range(2))
                total = a + b
                assert total.precision == min(a.precision, b.precision)
                for k in range(min(a.order, b.order), total.precision):
                    assert total.coefficient(k) == a.coefficient(k) + b.coefficient(k)

    def test_product_is_the_cauchy_sum(self):
        # Every coefficient of a * b below its precision is the Cauchy sum of
        # the operands' coefficients, also for operands zero to their
        # precision (all coefficients 0) or declared zero.
        rng = random.Random(51)

        def series(base):
            if rng.random() < 0.05:
                return TruncLaurent.zero(base)
            n = rng.randint(1, 6)
            if rng.random() < 0.1:
                return TruncLaurent.make(base, rng.randint(-3, 3), [0] * n)
            return TruncLaurent.make(base, rng.randint(-3, 3),
                                     [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                      for _ in range(n)])

        for base in SeriesBase:
            for _ in range(500):
                a, b = series(base), series(base)
                prod = a * b
                if a.is_declared_zero or b.is_declared_zero:
                    assert prod.is_declared_zero
                    continue
                lo = a.order + b.order
                assert prod.precision == min(a.order + b.precision, b.order + a.precision)
                for k in range(lo, prod.precision):
                    assert prod.coefficient(k) == sum(
                        a.coefficient(i) * b.coefficient(k - i) for i in range(a.order, k - b.order + 1))

    def test_rational_base_negative_order_is_no_member(self):
        assert not laurent_member(TruncLaurent.make(SeriesBase.RATIONAL_HENSELIAN, -1, [1, 1]))


class TestFloatInputs:
    """A float is no exact rational: every entry point raises TypeError, as Polynomial does."""

    def test_series_coefficients(self):
        with pytest.raises(TypeError):
            TruncLaurent.make(SeriesBase.RATIONAL_HENSELIAN, 0, [0.2, 1])

    @pytest.mark.parametrize("order", [0.5, Fraction(1, 2), "1"], ids=["float", "Fraction", "str"])
    def test_series_order(self, order):
        # An order must be an integer: 0.5 would give a series of precision 1.5.
        with pytest.raises(TypeError):
            TruncLaurent.make(SeriesBase.REAL_HENSELIAN, order, [1])

    def test_zs_member(self):
        assert zs_member(3)
        with pytest.raises(TypeError):
            zs_member(0.2)

    def test_zs_gcd(self):
        assert zs_gcd(6, 10)[0] == 2
        for a, b in ((0.2, Fraction(1)), (Fraction(1), 0.5)):
            with pytest.raises(TypeError):
                zs_gcd(a, b)
