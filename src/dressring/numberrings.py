"""Number-theoretic instances: the localization Z_S and truncated Laurent membership.

Z_S inverts exactly the primes congruent to 1 mod 4, the multiplicative set
generated by the odd primes that divide a sum of two coprime squares.  The
paper's minimal Dress ring D_Q of Q also inverts 2 = 1^2 + 1^2, as
1/2 = 1/(1 + 1^2), so Z_S is a proper subring of D_Q.  Over a
Henselian base the corresponding membership tests reduce to the order of a
series: the valuation ring itself over a real-closed residue field, and
Z_S + (positive-order part) over a rational residue field.  Root lifting is
never re-executed; only these conclusions are used.

Z_S membership and gcds factor denominators with ``factorize``: trial
division by one gcd with the product of the primes below 1000, then for each
cofactor Miller-Rabin on 13 bases (and a strong Lucas test from 3.3e24 on), a
perfect-square check, and one list of finders: Pollard's p-1 to B1 = 1000 and
B2 = 10,000, then Lenstra's elliptic curve method (ECM, Ann. Math. 126, 1987)
on the curves of a fixed schedule: 30 to B1 = 100 and B2 = 5000, 40 to 500
and 50,000, and 25 to 2000 and 200,000.  A cofactor that none splits raises
ResourceLimitError.  The parts of a split resume at the finder that split it,
as each finder before it gave 0 on their multiple, and so gives 0 on them.
The stage 2 of p-1 and of ECM runs on one baby-step giant-step plan, with
giant steps of 210.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .errors import (
    CertificateError,
    IndeterminateSeriesError,
    ResourceLimitError,
    ShapeViolation,
    ZeroPolynomialError,
)
from .parsing import format_fraction
from .polynomials import _as_fraction

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


# Miller-Rabin on the bases _SMALL_PRIMES is exact below this bound, the least
# strong pseudoprime to all of them (Sorenson and Webster, 2015).
_MR_EXACT_BOUND = 3317044064679887385961981


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 primes as witnesses, and a strong Lucas test
    from ``_MR_EXACT_BOUND`` (about 3.3e24) on.

    Deterministic below that bound.  At and above it the two tests together are
    a Baillie-PSW test (Baillie and Wagstaff, Math. Comp. 35, 1980), which no
    known composite passes; a True answer there means n is a BPSW probable prime.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT_BOUND or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) of an odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 1 without a prime factor
    below 42, as is_probable_prime hands it on.

    Selfridge's method A takes the first D of 5, -7, 9, -11, ... with Jacobi
    symbol (D/n) = -1, and P = 1, Q = (1 - D)/4; a perfect square, which has
    no such D, is composite.  With n + 1 = d * 2^s, d odd, n passes when
    U_d = 0 or V_(d * 2^r) = 0 for some 0 <= r < s, all mod n.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # D shares a prime factor with n
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k from k = 1, doubling k and adding the next bit of d:
    # U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k, and with P = 1,
    # U_(k+1) = (U_k + V_k)/2, V_(k+1) = (D U_k + V_k)/2.
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, D * u + v
            u = (u if u % 2 == 0 else u + n) // 2 % n
            v = (v if v % 2 == 0 else v + n) // 2 % n
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


# Trial division takes one gcd with the product of the primes below this
# bound.  On the 3,437 integers that the zs-* ops of the cli benchmark factor
# (seeds 1-10, denominators with 6-8 digit prime factors), factorize took
# 2.19-2.32, 2.17-2.25, 2.20-2.25 and 2.42-2.44 s with bounds of 200, 1000,
# 10,000 and 100,000 (best of 3 in each of two runs; Python 3.11, Xeon).
_TRIAL_BOUND = 1000
# Pollard p-1 bounds: stage 1 raises 2 to every prime power up to _PM1_B1,
# stage 2 to one more prime up to _PM1_B2.  The same 3,437 integers took
# 2.19-2.26 s with these bounds, 2.07-2.16 s with 500 and 5000, 2.70-2.76 s
# with 2000 and 20,000, 4.04-4.14 s with 1000 and 100,000, and 2.70-2.73 s
# with ECM alone.  On their 2,456 composite cofactors p-1 splits 1,346 in
# 0.88 s, of which stage 1 takes 0.55 s (Python 3.11, Xeon).
_PM1_B1 = 1000
_PM1_B2 = 10_000
# The giant step of both stage 2s: the babies j <= _STAGE2_D/2 prime to
# 210 = 2 * 3 * 5 * 7 are 24 of the 105.
_STAGE2_D = 210
# ECM's schedule: rows of (B1, B2, curves).  Each curve's stage 1 multiplies by
# lcm(1, ..., B1), and its stage 2 looks for one more prime up to B2 in giant
# steps of _STAGE2_D.  The zs-* ops of the cli benchmark (seeds 1-60) leave
# 6,645 composite cofactors to the stage after p-1: the first row splits every
# one of them, with 2.51 curves on average and 21 at most; a curve costs about
# 0.4 ms on a 16-digit cofactor.  The later rows climb towards the standard
# table's B1 = 2000 for 15-digit factors (Zimmermann and Dodson, ANTS 2006).
# On 12 semiprimes of two random primes per size, the schedule split all of
# them up to 15-digit primes, 7 at 16 digits and 4 at 17, within 1.05 s each,
# and it runs out in 0.5-1.1 s on a 31-39 digit n (CPU time, Python 3.11,
# Xeon).  The table is factorize's only limit.
_ECM_SCHEDULE = ((100, 5000, 30), (500, 50_000, 40), (2000, 200_000, 25))
# factorize's finders in order: p-1 (None), then ECM's curves as (sigma, B1, B2),
# Suyama's sigma = 6, 7, ... counting on across the rows of _ECM_SCHEDULE.
_FINDERS = (None, *((sigma, b1, b2) for sigma, (b1, b2) in enumerate(
    [(b1, b2) for b1, b2, curves in _ECM_SCHEDULE for _ in range(curves)], 6)))


def _primes_in(lo: int, hi: int) -> list[int]:
    """The primes p with lo < p <= hi, by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * (hi + 1)
    for i in range(2, isqrt(hi) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [p for p in range(max(lo + 1, 2), hi + 1) if sieve[p]]


@functools.cache
def _trial_table() -> tuple[tuple[int, ...], int]:
    """(primes, P): the primes below _TRIAL_BOUND and their product, built on first use."""
    primes = tuple(_primes_in(1, _TRIAL_BOUND - 1))
    return primes, prod(primes)


@functools.cache
def _stage_tables(b1: int, b2: int) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(k, babies, plan) for the bounds b1 < b2 of p-1 or ECM: k = lcm(1, ..., b1)
    for stage 1; babies the j in [1, _STAGE2_D/2] prime to _STAGE2_D; plan[m - 1]
    the j of babies with m * _STAGE2_D + j or m * _STAGE2_D - j a prime in
    (b1, b2], for m = 1, 2, ....  The primes in (b1, _STAGE2_D/2] are babies
    themselves and take no pair.  Built on first use, not at import."""
    half = _STAGE2_D // 2
    babies = tuple(j for j in range(1, half + 1, 2) if gcd(j, _STAGE2_D) == 1)
    plan: dict[int, set[int]] = {}
    for q in _primes_in(max(b1, half), b2):
        m = (q + half) // _STAGE2_D
        plan.setdefault(m, set()).add(abs(q - m * _STAGE2_D))
    return (lcm(*range(1, b1 + 1)), babies,
            tuple(tuple(sorted(plan.get(m, ()))) for m in range(1, max(plan) + 1)))


def _pair_product(giants: list[int], babies: list[int], plan, n: int) -> int:
    """The product mod n of giants[m - 1] - babies[j] over the pairs (m, j) of plan."""
    acc = 1
    for vm, js in zip(giants, plan):
        acc = acc * prod([vm - babies[j] for j in js]) % n
    return acc


def _pollard_pm1(n: int) -> int:
    """A proper divisor of the odd composite n found by Pollard's p-1, or 0.

    Stage 1 (J. M. Pollard, Proc. Cambridge Philos. Soc. 76, 1974) takes
    g = gcd(H - 1, n) with H = 2^E mod n, which splits n when the order of 2
    modulo some but not every prime power of n divides E.  Only if g = 1,
    stage 2 (P. L. Montgomery, Math. Comp. 48, 1987) works on the values
    V_k = H^k + H^-k, with V_(a+b) = V_a V_b - V_(a-b): it makes the babies V_j
    for odd j <= D/2 and the giants V_(mD), D = _STAGE2_D, and takes one gcd of
    the product of the V_(mD) - V_j over ECM's plan for (_PM1_B1, _PM1_B2].
    As V_(mD) - V_j = H^-mD (H^mD - H^j)(H^mD - H^-j), it also splits n when
    the order of H modulo some but not every prime of n is a prime mD +- j of
    the plan.  Both stages cost the same for every n of one size.
    """
    exponent, _, plan = _stage_tables(_PM1_B1, _PM1_B2)
    h = pow(2, exponent, n)
    g = gcd(h - 1, n)
    if g == 1:
        half = _STAGE2_D // 2
        v = [0, (h + pow(h, -1, n)) % n] + [0] * (half - 1)
        v2 = (v[1] * v[1] - 2) % n
        for j in range(3, half + 1, 2):
            v[j] = (v[j - 2] * v2 - v[abs(j - 4)]) % n  # V_-1 = V_1
        vd = (v[half] * v[half] - 2) % n  # V_D = V_(D/2)^2 - V_0
        giants = [vd, (vd * vd - 2) % n]
        while len(giants) < len(plan):
            giants.append((giants[-1] * vd - giants[-2]) % n)
        g = gcd(_pair_product(giants, v, plan, n), n)
    return g if 1 < g < n else 0


def _xdbl(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """X:Z of twice the point x:z on the Montgomery curve with (A + 2)/4 = a24, mod n."""
    s, t = (x + z) ** 2 % n, (x - z) ** 2 % n
    e = s - t
    return s * t % n, e * (t + a24 * e) % n


def _xadd(x1: int, z1: int, x2: int, z2: int, x0: int, z0: int, n: int) -> tuple[int, int]:
    """X:Z of P1 + P2 from P1 = x1:z1, P2 = x2:z2 and P1 - P2 = x0:z0, mod n."""
    da, cb = (x2 - z2) * (x1 + z1) % n, (x2 + z2) * (x1 - z1) % n
    return z0 * (da + cb) ** 2 % n, x0 * (da - cb) ** 2 % n


def _ladder(k: int, x: int, a24: int, n: int) -> tuple[int, int]:
    """X:Z of [k](x:1), k >= 1, on the Montgomery curve with (A + 2)/4 = a24, mod n.

    Montgomery's ladder keeps R1 - R0 = (x:1): each bit of k adds the two and
    doubles one of them, so every sum has the difference x:1.  The sum and the
    double are _xadd and _xdbl inlined, as the loop is most of a curve's time.
    """
    x0, z0 = x, 1
    x1, z1 = _xdbl(x, 1, a24, n)
    for bit in bin(k)[3:]:
        a, b, c, d = x0 + z0, x0 - z0, x1 + z1, x1 - z1
        da, cb = d * a % n, c * b % n
        xs, zs = (da + cb) ** 2 % n, x * (da - cb) ** 2 % n
        if bit == "1":
            s, t = c * c % n, d * d % n
            e = s - t
            x0, z0, x1, z1 = xs, zs, s * t % n, e * (t + a24 * e) % n
        else:
            s, t = a * a % n, b * b % n
            e = s - t
            x0, z0, x1, z1 = s * t % n, e * (t + a24 * e) % n, xs, zs
    return x0, z0


def _suyama(sigma: int, n: int) -> tuple[int, int] | int:
    """(x, a24): the point x:1 and (A + 2)/4 of Suyama's curve sigma mod n, or
    gcd(16 u^3 v^4, n) when that is not 1.  With u = sigma^2 - 5 and
    v = 4 sigma, x = u^3/v^3 and (A + 2)/4 = (v - u)^3 (3u + v)/(16 u^3 v)."""
    u, v = (sigma * sigma - 5) % n, 4 * sigma % n
    u3 = u * u * u % n
    t = 16 * u3 * pow(v, 4, n) % n
    g = gcd(t, n)
    if g != 1:
        return g
    inv = pow(t, -1, n)
    return 16 * u3 * u3 * v * inv % n, (v - u) ** 3 * (3 * u + v) * v**3 * inv % n


def _ecm_curve(n: int, sigma: int, b1: int, b2: int) -> int:
    """A proper divisor of the odd composite n found by ECM on Suyama's curve
    sigma with the bounds b1 < b2 of a row of _ECM_SCHEDULE, or 0.

    Stage 1 takes Q = [k]P with k = lcm(1, ..., b1) by one ladder and
    g = gcd(Z_Q, n), which splits n when the order of P modulo some but not
    every prime of n divides k.  Only if g = 1, stage 2 (P. L. Montgomery,
    Math. Comp. 48, 1987) makes the affine x of [j]Q for the babies j and of
    the giant steps [m * _STAGE2_D]Q by one batched inversion, and takes one gcd
    of the product of the x_m - x_j of the plan: a prime q = m * _STAGE2_D +- j
    of (b1, b2] gives [q]Q = 0, so x_m = x_j, modulo every prime of n where the
    order of Q is q.  The inversion's own gcd catches Z_j = 0, so a prime of
    (b1, _STAGE2_D/2] that is a baby counts too.
    """
    k, babies, plan = _stage_tables(b1, b2)
    curve = _suyama(sigma, n)
    if isinstance(curve, int):
        return curve if curve < n else 0
    x, a24 = curve
    X, Z = _ladder(k, x, a24, n)
    g = gcd(Z, n)
    if g != 1:
        return g if g < n else 0
    q = X * pow(Z, -1, n) % n
    # [j]Q for odd j up to _STAGE2_D/2: [j] = [j - 2] + [2] with difference [j - 4].
    x2, z2 = _xdbl(q, 1, a24, n)
    pts = [(q, 1), (q, 1)]
    for _ in range(3, _STAGE2_D // 2 + 1, 2):
        (xa, za), (xb, zb) = pts[-1], pts[-2]
        pts.append(_xadd(xa, za, x2, z2, xb, zb, n))
    del pts[0]
    xd, zd = _xdbl(*pts[-1], a24, n)
    giants = [(xd, zd), _xdbl(xd, zd, a24, n)]
    while len(giants) < len(plan):
        (xa, za), (xb, zb) = giants[-1], giants[-2]
        giants.append(_xadd(xa, za, xd, zd, xb, zb, n))
    zs = [pts[j // 2][1] for j in babies] + [z for _, z in giants]
    prefix = [1]
    for z in zs:
        prefix.append(prefix[-1] * z % n)
    g = gcd(prefix[-1], n)
    if g != 1:
        return g if g < n else 0
    inv = pow(prefix[-1], -1, n)
    affine = [0] * len(zs)
    for i in range(len(zs) - 1, -1, -1):
        affine[i] = inv * prefix[i] % n
        inv = inv * zs[i] % n
    xj = [0] * (_STAGE2_D // 2 + 1)
    for i, j in enumerate(babies):
        xj[j] = pts[j // 2][0] * affine[i] % n
    xm = [xg * inv_zm % n for (xg, _), inv_zm in zip(giants, affine[len(babies):])]
    g = gcd(_pair_product(xm, xj, plan, n), n)
    return g if 1 < g < n else 0


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, keys in increasing order.

    Trial division takes one gcd of n with the product of the primes below
    ``_TRIAL_BOUND`` (1000) and divides out only the primes of that gcd.  A
    cofactor left that ``is_probable_prime`` does not call prime and that is
    a perfect square r^2 goes on as r, counted twice; any other goes through
    ``_FINDERS``: Pollard's p-1 with ``_PM1_B1`` = 1000 and ``_PM1_B2`` =
    10,000, a stage of fixed cost (about 0.36 ms on a 16-digit cofactor),
    then ECM's curves, from 30 with B1 = 100 and B2 = 5000 (about 0.4 ms a
    curve) to 25 with B1 = 2000 and B2 = 200,000.  The table is the limit:
    if no finder returns a proper divisor, ResourceLimitError names n and
    the schedule's last row.  The square check takes p^2 for a prime such as
    1093, on which p-1 and ECM's stage 1 find only gcd = n.

    Parts of a split resume at the finder that split it, exactly, as finders
    use fixed bounds and residues mod m: one that gave 0 on m took gcds of 1
    or m only, which stay 1 or d mod a divisor d, so it gives 0 on d.  The
    splitting finder runs again: its later gcds are untried on the parts.
    """
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    original = n
    out: dict[int, int] = {}
    primes, product = _trial_table()
    g = gcd(n, product)
    for p in primes:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            out[p] = 0
            while n % p == 0:
                out[p] += 1
                n //= p
    # (m, k, i): m^k divides n and is left to split from _FINDERS[i] on; a
    # square m = r^2 goes on as (r, 2k, i), so that r is factored once.
    stack = [(n, 1, 0)] if n > 1 else []
    while stack:
        m, k, i = stack.pop()
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + k
            continue
        r = isqrt(m)
        if r * r == m:
            stack.append((r, 2 * k, i))
            continue
        for i, curve in enumerate(_FINDERS[i:], i):
            d = _ecm_curve(m, *curve) if curve else _pollard_pm1(m)
            if d:
                break
        else:
            b1, b2, curves = _ECM_SCHEDULE[-1]
            raise ResourceLimitError(
                f"factorize({format_fraction(original)}): ECM found no factor up to the last "
                f"row of its schedule, {curves} curves with B1 = {b1} and B2 = {b2}")
        stack.extend([(d, k, i), (m // d, k, i)])
    return dict(sorted(out.items()))


def zs_member(q: Fraction) -> bool:
    """True iff q lies in Z_S: every prime factor of the reduced denominator is 1 mod 4."""
    q = _as_fraction(q)
    den = q.denominator
    # A product of primes that are 1 mod 4 is 1 mod 4, so an even denominator
    # or one that is 3 mod 4 has a prime factor outside S.
    if den % 4 != 1:
        return False
    return _split_s(den)[1] == 1


def _split_s(n: int) -> tuple[int, int]:
    """(S-part, rest) of n >= 1: the product of its prime powers that are 1 mod 4, and n over it."""
    s_part = rest = 1
    for p, e in factorize(n).items():
        if p % 4 == 1:
            s_part *= p**e
        else:
            rest *= p**e
    return s_part, rest


def zs_gcd(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Generator of the Z_S-ideal (a, b) with an exact Bezout certificate.

    Returns (g, u, v) with u*a + v*b = g, u and v in Z_S, and g the positive
    generator carrying only primes outside S.  The computation clears
    denominators, takes the integer gcd d, and strips the S-unit content; the
    integer Bezout pair is rescaled by the resulting S-unit.  a's denominator,
    the part of b's denominator not shared with it, and d are factored once
    each, so a shared denominator is factored once.
    """
    a, b = _as_fraction(a), _as_fraction(b)
    if a == 0 and b == 0:
        raise ZeroPolynomialError("zs_gcd needs at least one nonzero input")
    # scale = a.denominator * b_only, and the non-S part is multiplicative.
    b_only = b.denominator // gcd(a.denominator, b.denominator)
    scale = a.denominator * b_only
    ai, bi = int(a * scale), int(b * scale)
    d, x, y = _int_extended_gcd(ai, bi)
    s_d, rest_d = _split_s(d)
    g = Fraction(rest_d, _split_s(a.denominator)[1] * _split_s(b_only)[1])
    # w = g / (d / scale) = S(scale) / S(d) is an S-unit, so u = x*w and
    # v = y*w lie in Z_S: both denominators divide S(d).
    w = g * scale / d
    u, v = x * w, y * w
    if u * a + v * b != g:
        a, b, g, u, v = map(format_fraction, (a, b, g, u, v))
        raise CertificateError(f"zs_gcd({a}, {b}): u*a + v*b != g for g={g}, u={u}, v={v}")
    if s_d % u.denominator or s_d % v.denominator:
        a, b, u, v = map(format_fraction, (a, b, u, v))
        raise CertificateError(f"zs_gcd({a}, {b}): Bezout coefficients u={u}, v={v} not in Z_S")
    return g, u, v


def _int_extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(d, x, y) with d = gcd(a, b) > 0 and x*a + y*b = d."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class SeriesBase(enum.Enum):
    """Residue behaviour of the Henselian base field."""

    REAL_HENSELIAN = "real"
    RATIONAL_HENSELIAN = "rational"


@dataclass(frozen=True, slots=True)
class TruncLaurent:
    """Truncated Laurent series: coefficients for exponents order <= k < precision.

    Three states: the declared-zero series (empty coefficients), a series that
    is zero to its precision but not declared zero (all stored coefficients
    vanish; membership is indeterminate), and a normal series whose leading
    stored coefficient is nonzero.  Operations never fabricate coefficients
    beyond the tracked precision.
    """

    base: SeriesBase
    order: int
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(base: SeriesBase, order: int, coeffs) -> "TruncLaurent":
        order = operator.index(order)  # TypeError for 0.5, Fraction(1, 2) or "1"
        cs = [_as_fraction(c) for c in coeffs]
        if not cs:
            raise ShapeViolation("use TruncLaurent.zero for the zero series")
        return TruncLaurent._renormalize(base, order, cs)

    @staticmethod
    def zero(base: SeriesBase) -> "TruncLaurent":
        return TruncLaurent(base, 0, ())

    @property
    def precision(self) -> int:
        """The first exponent whose coefficient is unknown."""
        return self.order + len(self.coeffs)

    @property
    def is_declared_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_zero_to_precision(self) -> bool:
        return bool(self.coeffs) and all(c == 0 for c in self.coeffs)

    def coefficient(self, k: int) -> Fraction:
        if self.is_declared_zero:
            return Fraction(0)
        if k < self.order:
            return Fraction(0)
        if k >= self.precision:
            raise IndeterminateSeriesError(f"coefficient of X^{k} is beyond the precision")
        return self.coeffs[k - self.order]

    def __add__(self, other: "TruncLaurent") -> "TruncLaurent":
        self._check_base(other)
        if self.is_declared_zero:
            return other
        if other.is_declared_zero:
            return self
        # Neither is declared zero, so each has precision > order, and prec > lo.
        prec = min(self.precision, other.precision)
        lo = min(self.order, other.order)
        cs = [self.coefficient(k) + other.coefficient(k) for k in range(lo, prec)]
        return TruncLaurent._renormalize(self.base, lo, cs)

    def __neg__(self) -> "TruncLaurent":
        if self.is_declared_zero:
            return self
        return TruncLaurent(self.base, self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "TruncLaurent") -> "TruncLaurent":
        return self + (-other)

    def __mul__(self, other: "TruncLaurent") -> "TruncLaurent":
        self._check_base(other)
        if self.is_declared_zero or other.is_declared_zero:
            return TruncLaurent.zero(self.base)
        lo = self.order + other.order
        prec = min(self.order + other.precision, other.order + self.precision)
        cs = [Fraction(0)] * (prec - lo)
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coeffs):
                k = self.order + i + other.order + j
                if k < prec:
                    cs[k - lo] += ci * cj
        return TruncLaurent._renormalize(self.base, lo, cs)

    @staticmethod
    def _renormalize(base: SeriesBase, order: int, cs: list[Fraction]) -> "TruncLaurent":
        """The series with its leading zeros stripped, unless every coefficient is zero."""
        lead = next((i for i, c in enumerate(cs) if c), 0)
        return TruncLaurent(base, order + lead, tuple(cs[lead:]))

    def _check_base(self, other: "TruncLaurent") -> None:
        if self.base is not other.base:
            raise ShapeViolation("cannot mix series over different base fields")


def laurent_member(s: TruncLaurent) -> bool:
    """Membership of a truncated series in the minimal ring of its base field.

    Real base: membership in the valuation ring, i.e. order >= 0.  Rational
    base: order > 0, or order 0 with a constant coefficient in Z_S.  A series
    that is zero to precision without being declared zero is indeterminate.
    """
    if s.is_declared_zero:
        return True
    if s.is_zero_to_precision:
        raise IndeterminateSeriesError(
            "series is zero to its precision but not declared zero; membership unknown"
        )
    if s.base is SeriesBase.REAL_HENSELIAN:
        return s.order >= 0
    if s.order > 0:
        return True
    if s.order == 0:
        return zs_member(s.coeffs[0])
    return False
