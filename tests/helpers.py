"""Seeded random generators and bounds shared by the unit and acceptance tests."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd
from typing import Callable

from dressring import DressElement, Polynomial, RationalFunction, divrem
from dressring.idempotent import VerificationReport
from dressring.parsing import format_fraction

# Empirical bound on the number of factors the fixed factorization pipeline returns.
FACTOR_COUNT_BOUND = 12


def best_time(run: Callable[[], object], repeats: int = 3) -> float:
    """The least CPU time of this process over repeats calls of run.  Time spent
    preempted by other processes does not count, and contention for caches and
    memory only adds time, so a ratio of two best times is the sturdy way to
    test a growth rate."""
    times = []
    for _ in range(repeats):
        start = time.process_time()
        run()
        times.append(time.process_time() - start)
    return min(times)


# numberrings.factorize's trial division as it was before one gcd replaced it.
def trial_division_reference(n: int, bound: int) -> tuple[dict[int, int], int]:
    """(found, rest): the primes below bound that divide n >= 1, with their
    exponents, by a loop over 2 and the odd numbers up to sqrt(n), and n over
    them.  rest is 1 or has no prime factor below bound."""
    found: dict[int, int] = {}
    p = 2
    while p * p <= n and p < bound:
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
        p += 2 if p > 2 else 1
    if 1 < n < bound:
        found[n] = found.get(n, 0) + 1
        n = 1
    return found, n


# polynomials._pdiv and _signed_remainders as they were before subresultant
# division replaced the content gcd of every member: the reference chain.
def _pdiv_reference(a, b):
    """(q, r, s) with s*a == q*b + r, deg r < deg b, s = -|lc(b)|^k."""
    db = len(b) - 1
    lb = b[-1]
    k = len(a) - db
    s = -abs(lb) ** k
    r = [s * c for c in a]
    q = [0] * k
    for i in range(k - 1, -1, -1):
        c = r[i + db] // lb
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                r[i + j] -= c * bj
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return q, r, s


def _strip_content_reference(c):
    g = gcd(*c)
    if g > 1:
        return [v // g for v in c]
    return c


def signed_remainders_reference(a, b):
    """Signed remainder sequence a, b, -rem(a, b), ... of nonzero primitive integer lists."""
    chain = [a, b]
    while len(b) > 1:
        r = [-v for v in a] if len(a) < len(b) else _pdiv_reference(a, b)[1]
        if not r:
            break
        a, b = b, _strip_content_reference(r)
        chain.append(b)
    return chain


# Textbook affine arithmetic on a Montgomery curve B y^2 = x^3 + A x^2 + x
# over a prime field: the reference for numberrings' x:z ladder.  A point is
# (x, y), and None is the point at infinity.
def montgomery_add(P, Q, A: int, B: int, p: int):
    """P + Q on B y^2 = x^3 + A x^2 + x over F_p."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if x1 == x2:
        slope = (3 * x1 * x1 + 2 * A * x1 + 1) * pow(2 * B * y1, -1, p)
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p)
    x3 = (B * slope * slope - A - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def montgomery_multiple(k: int, P, A: int, B: int, p: int):
    """[k]P for k >= 0, by double-and-add."""
    out = None
    while k:
        if k & 1:
            out = montgomery_add(out, P, A, B, p)
        P = montgomery_add(P, P, A, B, p)
        k >>= 1
    return out


def montgomery_curve(x: int, a24: int, p: int):
    """(A, B, P): the curve with (A + 2)/4 = a24 mod p and the point P = (x, 1)
    on it, B chosen so that y = 1.  B only twists the curve, which leaves the
    x of every multiple of P unchanged."""
    A = (4 * a24 - 2) % p
    B = (x**3 + A * x * x + x) % p
    assert B, "x is a 2-torsion point"
    return A, B, (x % p, 1)


def rand_poly(rng: random.Random, max_deg: int, lo: int = -9, hi: int = 9,
              nonzero: bool = False) -> Polynomial:
    while True:
        deg = rng.randint(0, max_deg)
        p = Polynomial.from_coeffs([rng.randint(lo, hi) for _ in range(deg + 1)])
        if p or not nonzero:
            return p


def rand_irreducible_quadratic(rng: random.Random) -> Polynomial:
    """Monic X^2 + aX + b with negative discriminant."""
    a = rng.randint(-3, 3)
    b = a * a // 4 + rng.randint(1, 5)
    return Polynomial.from_coeffs([b, a, 1])


def rand_gamma(rng: random.Random, max_quadratics: int = 3,
               min_quadratics: int = 1) -> Polynomial:
    """Monic product of irreducible quadratics: no real roots."""
    g = Polynomial.one()
    for _ in range(rng.randint(min_quadratics, max_quadratics)):
        g = g * rand_irreducible_quadratic(rng)
    return g


def rand_rf(rng: random.Random, max_deg: int = 4, lo: int = -9, hi: int = 9) -> RationalFunction:
    num = rand_poly(rng, max_deg, lo, hi)
    den = rand_poly(rng, max_deg, lo, hi, nonzero=True)
    return RationalFunction.make(num, den)


def rand_member(rng: random.Random, max_quadratics: int = 3,
                allow_zero: bool = True) -> DressElement:
    gamma = rand_gamma(rng, max_quadratics)
    max_num_deg = int(gamma.degree)
    num = rand_poly(rng, max_num_deg, nonzero=not allow_zero)
    return DressElement.from_parts(num, gamma)


def rand_member_nonzero(rng: random.Random, max_quadratics: int = 3) -> DressElement:
    return rand_member(rng, max_quadratics, allow_zero=False)


def rand_unit(rng: random.Random, max_quadratics: int = 2) -> DressElement:
    """Random unit: ratio of root-free polynomials of equal degree."""
    while True:
        k = rng.randint(1, max_quadratics)
        num = Polynomial.constant(Fraction(rng.randint(1, 5)))
        for _ in range(k):
            num = num * rand_irreducible_quadratic(rng)
        den = Polynomial.one()
        for _ in range(k):
            den = den * rand_irreducible_quadratic(rng)
        if num != den:
            return DressElement.from_parts(num, den)


def rand_sum_of_two_squares(rng: random.Random, max_deg: int = 3) -> Polynomial:
    """a^2 + b^2 for random a, b, retried until nonzero."""
    while True:
        a = rand_poly(rng, max_deg, -5, 5)
        b = rand_poly(rng, max_deg, -5, 5)
        s = a * a + b * b
        if not s.is_zero:
            return s


def rand_planted_roots_poly(rng: random.Random, n_roots: int,
                            lo: int = -10, hi: int = 10) -> tuple[Polynomial, list[int]]:
    """Product of distinct integer-rooted linear factors; returns (poly, roots)."""
    roots = rng.sample(range(lo, hi + 1), n_roots)
    p = Polynomial.one()
    for r in roots:
        p = p * Polynomial.from_coeffs([-r, 1])
    return p, sorted(roots)


def extended_gcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Extended Euclid over Q[X]: (g, u, v) with u*a + v*b == g, g the monic gcd.

    A reference for the library's gcd: its own loop of Euclidean divisions,
    independent of poly_gcd's evaluation points and its fallback sequence.
    """
    r0, r1 = a, b
    u0, u1 = Polynomial.one(), Polynomial.zero()
    v0, v1 = Polynomial.zero(), Polynomial.one()
    while not r1.is_zero:
        q, r = divrem(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero:
        return r0, u0, v0
    lc = r0.leading_coefficient
    return r0.monic(), u0.scale(1 / lc), v0.scale(1 / lc)


def triples_product(factors) -> tuple[tuple[Polynomial, ...], Polynomial]:
    """(N, d) with N/d the product of the triples v w^T / s, None (the
    identity) skipped: v_1 (w_1.v_2) ... (w_{k-1}.v_k) w_k^T / (s_1 ... s_k)."""
    one, zero = Polynomial.one(), Polynomial.zero()
    rank_one = [f for f in factors if f is not None]
    if not rank_one:
        return (one, zero, zero, one), one
    (v1, v2), w, den = rank_one[0]
    scalar = one
    for (x1, x2), w_next, s in rank_one[1:]:
        scalar, den, w = scalar * (w[0] * x1 + w[1] * x2), den * s, w_next
    return tuple(vi * wj for vi in (scalar * v1, scalar * v2) for wj in w), den


def verify_triples_polynomial(target, factors) -> VerificationReport:
    """The factor check with Polynomial products: a reference for
    idempotent._verify_triples, which decides the same identities by one
    integer evaluation.

    ``target`` is (N_T, d_T); each factor is a triple (v, w, s) for
    v w^T / s, None for the identity, or False for a non-idempotent one.
    """
    for i, f in enumerate(factors):
        if f is None:
            continue
        if f is not False:
            (v1, v2), (w1, w2), s = f
            if w1 * v1 + w2 * v2 == s or not (v1 or v2) or not (w1 or w2):
                continue  # idempotent: w.v == s, or the zero matrix
        return VerificationReport(False, "factor-not-idempotent", i)
    num, den = triples_product(factors)
    target_n, target_d = target
    if any(x * target_d != t * den for x, t in zip(num, target_n)):
        return VerificationReport(False, "product-mismatch")
    return VerificationReport(True)


def format_polynomial_fractions(p: Polynomial) -> str:
    """Canonical text of p, one Fraction per coefficient: a reference for
    parsing.format_polynomial, which prints from the integer numerators."""
    if p.is_zero:
        return "0"
    coeffs = p.coeffs
    out = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = format_fraction(mag)
        else:
            xpart = "X" if k == 1 else f"X^{k}"
            body = xpart if mag == 1 else f"{format_fraction(mag)}*{xpart}"
        if not out:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(out)
