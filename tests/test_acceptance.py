"""Acceptance suite: one test per criterion, each printing a PASS line with its
runtime and asserting the stated budget.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from dressring import (
    DressElement,
    Mat2,
    Polynomial,
    RationalFunction,
    SeriesBase,
    TruncLaurent,
    divides,
    factor_row_matrix,
    factor_small,
    is_member,
    is_principal,
    is_unit,
    laurent_member,
    parse_matrix,
    parse_scalar,
    principal_generator,
    stable_range_witness,
    sturm_count,
    verify_factorization,
    zs_member,
)
from dressring.cli import main as cli_main
from dressring.parsing import format_matrix, format_rational_function

from helpers import (
    FACTOR_COUNT_BOUND,
    rand_gamma,
    rand_member,
    rand_planted_roots_poly,
    rand_poly,
    rand_rf,
)

X = Polynomial.x()


@contextmanager
def budget(number: int, name: str, limit_seconds: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (budget {limit_seconds}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded its {limit_seconds}s budget"


def test_c01_dress_identity():
    rng = random.Random(1001)
    one = RationalFunction.one()
    with budget(1, "dress identity", 5.0):
        for _ in range(500):
            x = rand_rf(rng, 4)
            y, z = x + one, x - one
            lhs = (2 * x) / (one + x * x)
            rhs = (y * y - z * z) / (y * y + z * z)
            assert lhs == rhs


def test_c02_generator_membership():
    rng = random.Random(1002)
    one = RationalFunction.one()
    with budget(2, "generator membership", 2.0):
        for _ in range(200):
            x = rand_rf(rng, 3)
            assert is_member(one / (one + x * x))


def test_c03_ring_closure():
    rng = random.Random(1003)
    with budget(3, "ring closure", 5.0):
        for _ in range(500):
            a = rand_member(rng, 2)
            b = rand_member(rng, 2)
            assert is_member((a + b).value)
            assert is_member((a * b).value)


def test_c04_ideal_squaring():
    rng = random.Random(1004)
    with budget(4, "ideal squaring", 5.0):
        for _ in range(200):
            a = rand_member(rng, 2)
            b = rand_member(rng, 2)
            if a.is_zero and b.is_zero:
                continue
            s = a * a + b * b
            for prod in (a * a, a * b, b * b):
                assert is_member(prod.value / s.value)


def test_c05_principality_dichotomy_exhaustive():
    # Exhaustive over unordered pairs: the criterion is symmetric in (a, b).
    # principal_generator verifies the divisibility checks and the expansion
    # identity internally (raising on failure) for every even-case pair; a
    # deterministic subsample is re-verified here through the public API.
    gamma = (X * X + 1) ** 2
    grid = [Polynomial.from_coeffs(c) for c in product(range(-2, 3), repeat=4)]
    elems = [DressElement.from_parts(p, gamma) for p in grid]
    with budget(5, "principality dichotomy", 60.0):
        n_even = n_checked = 0
        for i in range(len(grid)):
            for j in range(i, len(grid)):
                if grid[i].is_zero and grid[j].is_zero:
                    continue
                a, b = elems[i], elems[j]
                report = principal_generator(a, b)
                assert report.principal == (report.s % 2 == 0)
                assert (report.generator is not None) == report.principal
                assert (report.expansion is not None) == report.principal
                if report.principal:
                    n_even += 1
                    if n_even % 25 == 0:
                        assert is_principal(a, b)
                        c1, c2 = report.expansion
                        assert divides(report.generator, a)
                        assert divides(report.generator, b)
                        assert (c1 * a + c2 * b).value == report.generator.value
                        n_checked += 1
                elif n_even % 25 == 0:
                    assert not is_principal(a, b)
        assert n_even > 0 and n_checked > 0


def _planted_hypothesis_pairs(rng: random.Random, count: int):
    """Random (p, q) satisfying hypothesis (i) or (ii): q sign-definite over
    the roots of p (planted), with a mix of degree gaps, rootless numerators,
    padding-inducing denominators, and swapped orientations."""
    out = []
    while len(out) < count:
        variant = rng.randrange(4)
        k = rng.randint(1, 3)
        x, roots = rand_planted_roots_poly(rng, k, -5, 5)
        if variant == 0:
            # y everywhere positive (or negative), deg y <= deg x
            h = rand_poly(rng, k // 2, -3, 3, nonzero=True)
            y = h * h + Polynomial.constant(rng.randint(1, 4))
            if rng.random() < 0.5:
                y = -y
        elif variant == 1:
            # y with real roots planted strictly above every root of x
            m = rng.randint(1, max(1, k))
            y = Polynomial.one()
            for _ in range(m):
                t = max(roots) + rng.randint(1, 4)
                y = y * Polynomial.from_coeffs([-t, 1])
            if y.degree > x.degree:
                continue
        elif variant == 2:
            # x has no real roots: the sign hypothesis is vacuous
            x = rand_gamma(rng, 2)
            y = rand_poly(rng, int(x.degree), -5, 5, nonzero=True)
        else:
            # mirrored orientation, resolved through hypothesis (ii)
            h = rand_poly(rng, k // 2, -3, 3, nonzero=True)
            y = h * h + Polynomial.constant(rng.randint(1, 4))
            x, y = y, x
        if x.is_zero or y.is_zero:
            continue
        half = (max(int(x.degree), int(y.degree)) + 1) // 2
        extra = rng.choice([0, 0, 1, 2])  # sometimes force the padding branch
        gamma = Polynomial.from_coeffs([1, 0, 1]) ** (half + extra)
        try:
            p = DressElement.from_parts(x, gamma)
            q = DressElement.from_parts(y, gamma)
        except Exception:
            continue
        out.append((p, q))
    return out


def test_c06_factorization_soundness():
    rng = random.Random(1006)
    pairs = _planted_hypothesis_pairs(rng, 100)
    with budget(6, "factorization soundness", 60.0):
        failures = 0
        for p, q in pairs:
            fact = factor_row_matrix(p, q)
            assert len(fact.factors) <= FACTOR_COUNT_BOUND
            report = verify_factorization(fact)
            if not (report.ok and fact.target == Mat2.row(p, q)):
                failures += 1
        assert failures == 0


def test_c07_small_degree_completeness():
    gamma_lin = X * X + 1
    gamma_quad = (X * X + 1) ** 2
    with budget(7, "small-degree completeness", 120.0):
        # numerators of degree <= 1, coefficients in -2..2
        lin_grid = [Polynomial.from_coeffs(c) for c in product(range(-2, 3), repeat=2)]
        for x in lin_grid:
            for y in lin_grid:
                p = DressElement.from_parts(x, gamma_lin)
                q = DressElement.from_parts(y, gamma_lin)
                fact = factor_small(p, q)
                assert verify_factorization(fact).ok
                assert fact.target == Mat2.row(p, q)
                assert len(fact.factors) <= FACTOR_COUNT_BOUND
        # monic quadratic pairs sharing a linear factor
        quad_grid = [
            Polynomial.from_coeffs([v, u, 1])
            for u in range(-2, 3)
            for v in range(-2, 3)
        ]
        from dressring import poly_gcd

        n_shared = 0
        for x in quad_grid:
            for y in quad_grid:
                if poly_gcd(x, y).degree < 1:
                    continue
                n_shared += 1
                p = DressElement.from_parts(x, gamma_quad)
                q = DressElement.from_parts(y, gamma_quad)
                fact = factor_small(p, q)
                assert verify_factorization(fact).ok
                assert fact.target == Mat2.row(p, q)
                assert len(fact.factors) <= FACTOR_COUNT_BOUND
        assert n_shared > 25  # includes the 25 equal pairs plus true deg-1 cases


def test_c08_stable_range_witness():
    rng = random.Random(1008)
    gamma = X * X + 1
    a = DressElement.from_parts(X, gamma)
    b = DressElement.from_parts(X * X - 1, gamma)
    with budget(8, "stable-range witness", 5.0):
        assert is_unit((a * a + b * b).value)
        for _ in range(200):
            z = rand_member(rng, 2)
            ev = stable_range_witness(z)
            assert (ev.sign_at_1, ev.sign_at_minus_1) == ("+", "-")
            assert ev.nonunit_certified


def _sum_of_two_squares(p: int) -> bool:
    """p = a^2 + b^2 with 1 <= a < b.  For odd primes this is the classical
    two-squares representability (a = b or a = 0 are impossible); p = 2 has
    only the degenerate a = b = 1 representation and is excluded, matching the
    ring, which inverts exactly the primes congruent to 1 mod 4."""
    a = 1
    while 2 * a * a < p:
        rest = p - a * a
        b = int(rest**0.5)
        for cand in (b - 1, b, b + 1):
            if cand > a and cand * cand == rest:
                return True
        a += 1
    return False


def test_c09_rational_prime_table():
    sieve_limit = 1000
    sieve = bytearray([1]) * sieve_limit
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(sieve_limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    primes = [i for i in range(sieve_limit) if sieve[i]]
    with budget(9, "prime localization table", 5.0):
        for p in primes:
            member = zs_member(Fraction(1, p))
            assert member == (p % 4 == 1) == _sum_of_two_squares(p)


def test_c10_laurent_membership():
    rng = random.Random(1010)
    with budget(10, "Laurent membership", 2.0):
        assert not laurent_member(TruncLaurent.make(SeriesBase.REAL_HENSELIAN, -1, [1, 1]))
        assert not laurent_member(
            TruncLaurent.make(SeriesBase.RATIONAL_HENSELIAN, 0, [Fraction(1, 3), 1])
        )
        assert laurent_member(
            TruncLaurent.make(SeriesBase.RATIONAL_HENSELIAN, 0, [Fraction(1, 5), 1])
        )
        for _ in range(100):
            s1 = TruncLaurent.make(
                SeriesBase.REAL_HENSELIAN, rng.randint(0, 3),
                [Fraction(rng.randint(-5, 5)) for _ in range(4)] + [1],
            )
            s2 = TruncLaurent.make(
                SeriesBase.REAL_HENSELIAN, rng.randint(0, 3),
                [Fraction(rng.randint(-5, 5)) for _ in range(4)] + [1],
            )
            assert laurent_member(s1) and laurent_member(s2)
            total = s1 + s2
            if not total.is_zero_to_precision:
                assert laurent_member(total)
            assert laurent_member(s1 * s2)


def test_c11_sturm_oracle():
    rng = random.Random(1011)
    with budget(11, "Sturm oracle", 2.0):
        for _ in range(100):
            p, roots = rand_planted_roots_poly(rng, rng.randint(1, 4))
            gamma = rand_gamma(rng, 2)
            assert sturm_count(p * gamma) == len(roots)


def _cli_json(argv, capsys):
    code = cli_main([argv[0], "--json"] + argv[1:])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_c12_cli_round_trip_and_schema(capsys):
    rng = random.Random(1012)
    with budget(12, "CLI round-trip and schema", 10.0):
        for _ in range(500):
            if rng.random() < 0.7:
                r = rand_rf(rng, 4)
                text = format_rational_function(r)
                assert parse_scalar(text) == r
                assert format_rational_function(parse_scalar(text)) == text
            else:
                entries = [format_rational_function(rand_rf(rng, 2)) for _ in range(4)]
                text = f"[[{entries[0]}, {entries[1]}], [{entries[2]}, {entries[3]}]]"
                m = parse_matrix(text)
                assert format_matrix(m) == text
        invocations = [
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
        for argv in invocations:
            code, report = _cli_json(argv, capsys)
            assert set(report) == {"ok", "command", "result", "error"}
            assert isinstance(report["ok"], bool) and report["command"] == argv[0]
            assert (report["result"] is None) != (report["error"] is None)
            assert code in (0, 1)
        # every factor output re-verifies through the CLI
        for matrix in (
            "[[X/(X^2+1),(X+1)/(X^2+1)],[0,0]]",
            "[[X/(X^2+1),-1/(X^2+1)],[0,0]]",
            "[[(X^2+X)/(X^2+1)^2,(X^2-2*X)/(X^2+1)^2],[0,0]]",
        ):
            code, report = _cli_json(["factor", matrix], capsys)
            assert code == 0 and report["result"]["verified"] is True
            result = report["result"]
            assert result["count"] == len(result["factors"]) <= FACTOR_COUNT_BOUND
            code2, report2 = _cli_json(
                ["verify", result["target"], *result["factors"]], capsys
            )
            assert code2 == 0 and report2["result"]["verified"] is True
