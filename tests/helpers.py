"""Seeded random generators and bounds shared by the unit and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction

from dressring import DressElement, Polynomial, RationalFunction, divrem
from dressring.parsing import format_fraction

# Empirical bound on the number of factors the fixed factorization pipeline returns.
FACTOR_COUNT_BOUND = 12


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
