"""Seeded workloads: input generation, the timed op, and the output check.

Every workload is a deterministic stream of ops drawn from ``random.Random(seed)``.
``next_ops`` builds inputs (outside any timed region), ``run`` is the op that
is timed, and ``check`` verifies one outcome with ``oracle`` only, never with
the layer being timed.  An outcome is ``(True, value)`` or ``(False, exc)``.

The library is always reached through attribute lookups on the package
(``dressring.principal_generator``, ``dressring.cli.main``) so that the traced
run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import product

import dressring
import dressring.cli
from dressring import DressElement, Polynomial

import oracle as O

GAMMA1 = [1, 0, 1]  # 1 + X^2
GAMMA2 = [1, 0, 2, 0, 1]  # (1 + X^2)^2


def _elem(num, den) -> DressElement:
    return DressElement.from_parts(Polynomial.from_coeffs(num), Polynomial.from_coeffs(den))


def _trimmed(cs) -> list:
    return O.trim(list(cs))


class _Strata:
    """Draws from per-seed shuffles of a fixed list of parameter combinations.

    Every full pass yields each combination once, so runs with different
    seeds execute the same mix of cost classes and differ only in the
    numbers drawn inside each class.
    """

    def __init__(self, rng: random.Random, combos):
        self.rng, self.combos, self.block = rng, list(combos), []

    def next(self):
        if not self.block:
            self.block = list(self.combos)
            self.rng.shuffle(self.block)
        return self.block.pop()


# ---------------------------------------------------------------------------
# principality: principal_generator on the c05 grid
# ---------------------------------------------------------------------------


class Principality:
    """principal_generator(a, b) for unordered pairs of the c05 grid.

    625 numerators of degree <= 3 with coefficients -2..2, all over
    (X^2 + 1)^2.  Pairs are drawn uniformly with replacement from the
    195,624 unordered pairs that are not both zero.
    """

    name = "principality"
    chunk = 1024

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.grid = [_trimmed(c) for c in product(range(-2, 3), repeat=4)]
        self.elems = [_elem(c, GAMMA2) for c in self.grid]
        n = len(self.grid)
        # Row i of the upper triangle (j >= i) starts at starts[i].
        self.starts = [i * n - i * (i - 1) // 2 for i in range(n)]
        self.n_pairs = n * (n + 1) // 2
        self.zero = self.grid.index([])

    def next_ops(self, count: int) -> list:
        out = []
        rng, starts, n = self.rng, self.starts, len(self.grid)
        while len(out) < count:
            k = rng.randrange(self.n_pairs)
            i = bisect_right(starts, k) - 1
            j = i + (k - starts[i])
            if i == j == self.zero:
                continue
            out.append((i, j))
        return out

    def run(self, op):
        i, j = op
        return dressring.principal_generator(self.elems[i], self.elems[j])

    def check(self, op, outcome) -> bool:
        ok, report = outcome
        if not ok:
            return False
        f, g = self.grid[op[0]], self.grid[op[1]]
        s = O.principality_s(f, g)
        principal = s % 2 == 0
        if report.principal != principal or report.s != s:
            return False
        if not principal:
            return report.generator is None and report.expansion is None
        if report.generator is None or report.expansion is None:
            return False
        c1, c2 = report.expansion
        for t in O.POINTS:
            gamma = O.horner(GAMMA2, t)
            a, b = O.horner(f, t) / gamma, O.horner(g, t) / gamma
            gen = O.elem_at(report.generator, t)
            if gen == 0 or gen != O.elem_at(c1, t) * a + O.elem_at(c2, t) * b:
                return False
        return True


# ---------------------------------------------------------------------------
# factorization: planted-hypothesis pairs mixed with the c07 small grids
# ---------------------------------------------------------------------------


def _rand_poly(rng, max_deg, lo, hi):
    return _poly_of_degree(rng, rng.randint(0, max_deg), lo, hi)


def _poly_of_degree(rng, degree, lo, hi):
    lead = rng.choice([c for c in range(lo, hi + 1) if c])
    return [rng.randint(lo, hi) for _ in range(degree)] + [lead]


def _rand_root_free_quadratic(rng):
    """Monic X^2 + aX + b with negative discriminant."""
    a = rng.randint(-3, 3)
    return [a * a // 4 + rng.randint(1, 5), a, 1]


class Factorization:
    """Alternates factor_row_matrix on planted pairs and factor_small on c07 pairs.

    Planted pairs follow the c06 generator: numerators of degree 1-3 whose
    sign hypothesis holds by construction (q of one sign at the roots of p,
    roots planted above, a root-free p, or the mirrored orientation), degree
    gaps that force the shear, extra denominator degree that forces the
    padding branch, over random root-free denominators.  The small pairs are
    the two c07 grids: 625 pairs of degree <= 1 over 1 + X^2, and the 73
    monic quadratic pairs over (1 + X^2)^2 that share a linear factor.
    """

    name = "factorization"
    chunk = 32

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        lin = [_trimmed(c) for c in product(range(-2, 3), repeat=2)]
        quad = [[v, u, 1] for u in range(-2, 3) for v in range(-2, 3)]
        lin_e = [_elem(c, GAMMA1) for c in lin]
        quad_e = [_elem(c, GAMMA2) for c in quad]
        self.small = [((x, GAMMA1), (y, GAMMA1), lin_e[i], lin_e[j])
                      for i, x in enumerate(lin) for j, y in enumerate(lin)]
        self.small += [((x, GAMMA2), (y, GAMMA2), quad_e[i], quad_e[j])
                       for i, x in enumerate(quad) for j, y in enumerate(quad)
                       if O.gcd_degree(x, y) >= 1]
        # A golden-ratio stride from a seeded start: any run of consecutive
        # draws covers the grid evenly, so seeds differ in which pairs they
        # draw, not in how many of each region of the grid.
        n_small = len(self.small)
        stride = round(n_small * (math.sqrt(5) - 1) / 2)
        while math.gcd(stride, n_small) != 1:
            stride += 1
        start = self.rng.randrange(n_small)
        self.small_order = [(start + i * stride) % n_small for i in range(n_small)]
        rng = self.rng
        # (variant, extra denominator degree), then the variant's own choices.
        self.strata = _Strata(rng, [(v, e) for v in range(4) for e in (0, 0, 1, 2)])
        self.variant_strata = [
            _Strata(rng, [(k, hd, sign) for k in (1, 2, 3) for hd in range(k // 2 + 1)
                          for sign in (1, -1)]),
            _Strata(rng, [(k, m) for k in (1, 2, 3) for m in range(1, k + 1)]),
            _Strata(rng, [(nq, yd) for nq in (1, 2) for yd in range(2 * nq + 1)]),
            _Strata(rng, [(k, hd) for k in (1, 2, 3) for hd in range(k // 2 + 1)]),
        ]
        self.count = 0

    def _planted(self):
        rng = self.rng
        variant, extra = self.strata.next()
        choice = self.variant_strata[variant].next()
        if variant == 2:  # x without real roots: the hypothesis is vacuous
            n_quadratics, y_degree = choice
            x = O.pprod([_rand_root_free_quadratic(rng) for _ in range(n_quadratics)])
            y = _poly_of_degree(rng, y_degree, -5, 5)
        else:
            k = choice[0]
            roots = sorted(rng.sample(range(-5, 6), k))
            x = O.pprod([[-r, 1] for r in roots])
            if variant == 1:  # y with m real roots planted above every root of x
                y = O.pprod([[-(roots[-1] + rng.randint(1, 4)), 1] for _ in range(choice[1])])
            else:  # y = h^2 + c of one strict sign everywhere, deg y <= deg x
                h = _poly_of_degree(rng, choice[1], -3, 3)
                y = O.padd(O.pmul(h, h), [rng.randint(1, 4)])
                if variant == 0:
                    y = O.pscale(y, choice[2])
                else:  # mirrored orientation, resolved through the swap
                    x, y = y, x
        half = (max(O.deg(x), O.deg(y)) + 1) // 2
        # extra > 0 leaves a denominator that forces the padding branch
        gamma = O.pprod([_rand_root_free_quadratic(rng) for _ in range(half + extra)])
        return ("row", (x, gamma), (y, gamma), _elem(x, gamma), _elem(y, gamma))

    def next_ops(self, count: int) -> list:
        out = []
        for _ in range(count):
            if self.count % 2 == 0:
                out.append(self._planted())
            else:  # the small pairs in the strided order, without repeats per pass
                i = (self.count // 2) % len(self.small)
                out.append(("small",) + self.small[self.small_order[i]])
            self.count += 1
        return out

    def run(self, op):
        kind, _, _, p, q = op
        if kind == "row":
            return dressring.factor_row_matrix(p, q)
        return dressring.factor_small(p, q)

    def check(self, op, outcome) -> bool:
        ok, fact = outcome
        if not ok:
            return False
        _, (x, gx), (y, gy), _, _ = op

        def target(t):
            return (O.horner(x, t) / O.horner(gx, t), O.horner(y, t) / O.horner(gy, t),
                    Fraction(0), Fraction(0))

        for t in O.POINTS:
            if O.mat_at(fact.target, t) != target(t):
                return False
        factors = [lambda t, m=m: O.mat_at(m, t) for m in fact.factors]
        return O.factorization_holds(target, factors)


# ---------------------------------------------------------------------------
# cli: in-process dressring.cli.main over all 15 subcommands
# ---------------------------------------------------------------------------


class Planted:
    """scalar * prod(aX + b) * prod(X^2 + cX - k) * prod(root-free quadratics).

    The real roots are known exactly: -b/a, and (-c +- sqrt(c^2 + 4k)) / 2
    with c^2 + 4k not a square.
    """

    def __init__(self, scalar, lins, irrs, frees):
        self.scalar, self.lins, self.irrs, self.frees = scalar, lins, irrs, frees
        factors = [[b, a] for a, b in lins] + [[-k, c, 1] for c, k in irrs] + frees
        self.coeffs = O.pscale(O.pprod(factors), scalar)

    def roots(self) -> list:
        out = [Fraction(-b, a) for a, b in self.lins]
        for c, k in self.irrs:
            d = c * c + 4 * k
            out += [O.QSqrt(Fraction(-c, 2), Fraction(e, 2), d) for e in (1, -1)]
        return out

    def max_root(self) -> Fraction:
        """A rational number above every real root."""
        bound = max([Fraction(-b, a) for a, b in self.lins], default=Fraction(0))
        for c, k in self.irrs:
            bound = max(bound, Fraction(abs(c) + 1 + c * c + 4 * k, 1))
        return bound


def sign_pattern(q, p: Planted) -> str:
    """The SignPattern value of the coefficient list q at the real roots of p."""
    roots = p.roots()
    if not roots:
        return "NoRoots"
    signs = set()
    for r in roots:
        if isinstance(r, Fraction):
            signs.add(O.sign(O.horner(q, r)))
        else:
            signs.add(O.poly_sign_at_qsqrt(q, r))
    if 0 in signs:
        return "HasZero"
    if signs == {1}:
        return "AllPositive"
    if signs == {-1}:
        return "AllNegative"
    return "Mixed"


def _rand_lin(rng):
    return (rng.randint(1, 3), rng.randint(-9, 9))


def _rand_irr(rng):
    while True:
        c, k = rng.randint(-5, 5), rng.randint(1, 12)
        if not O.is_square(c * c + 4 * k):
            return (c, k)


def _rand_frees(rng, count):
    """Distinct monic root-free quadratics X^2 + cX + d."""
    seen, out = set(), []
    while len(out) < count:
        c = rng.randint(-4, 4)
        d = c * c // 4 + rng.randint(1, 9)
        if (c, d) not in seen:
            seen.add((c, d))
            out.append([d, c, 1])
    return out


def _rand_prime(rng, lo, hi, residue):
    while True:
        n = rng.randrange(lo, hi) | 1
        if n % 4 == residue and O.is_prime(n):
            return n


# Constant terms of the big variants: 10^e .. 10^(e + 1/2) for each e, which
# together cover [10^8, 10^10].
_BIG_EXPONENTS = (8.0, 8.5, 9.0, 9.5)
_GOLDEN = (math.sqrt(5) - 1) / 2


def _heavy(rng, degree, roots, big_exponent=None) -> Planted:
    """Degree-`degree` planted polynomial with rational and irrational real roots.

    ``roots`` = (linear factors, irrational quadratics) asked for; the counts
    shrink to fit the degree, and a linear factor fixes the parity.  With
    ``big_exponent`` e one root-free factor becomes X^2 + K, sized so that
    the constant term is about 10^e.
    """
    room = degree - (2 if big_exponent is not None else 0)  # keep one root-free factor
    n_lin = min(roots[0], room)
    n_irr = min(roots[1], (room - n_lin) // 2)
    n_lin += (degree - n_lin) % 2
    while True:
        lins = [_rand_lin(rng) for _ in range(n_lin)]
        irrs = [_rand_irr(rng) for _ in range(n_irr)]
        frees = _rand_frees(rng, (degree - n_lin - 2 * n_irr) // 2)
        scalar = rng.choice([1, 1, 2, 3, -1, -2])
        if big_exponent is not None:
            c_rest = scalar
            for a, b in lins:
                c_rest *= b
            for _, k in irrs:
                c_rest *= -k
            for f in frees[1:]:
                c_rest *= f[0]
            if c_rest == 0 or abs(c_rest) >= 10**6:
                continue
            target = int(10 ** big_exponent)
            frees[0] = [max(1, target // abs(c_rest)), 0, 1]
        return Planted(scalar, lins, irrs, frees)


def _definite_partner(rng, p: Planted, degree: int) -> Planted:
    """Polynomial of the given degree with one strict sign at every root of p:
    root-free quadratics, plus linear factors with roots above all of p's."""
    n_lin = degree % 2 + 2 * rng.randint(0, 1)
    top = p.max_root()
    lins = []
    for _ in range(n_lin):
        r = top + rng.randint(1, 6)
        lins.append((r.denominator, -r.numerator))
    return Planted(rng.choice([1, 2, -1, -3]), lins, [], _rand_frees(rng, (degree - n_lin) // 2))


def _member_text(rng, max_frees=2):
    den = O.pprod(_rand_frees(rng, rng.randint(1, max_frees)))
    num = _rand_poly(rng, O.deg(den), -9, 9)
    return num, den, O.fmt_rf(num, den)


# Realroots-heavy commands take most slots; every subcommand appears.
_CLI_CYCLE = (
    ["sign-at-roots"] * 4 + ["sign-at-roots-big"]
    + ["certificate"] * 3 + ["certificate-big"]
    + ["gamma"] * 3 + ["gamma-plus"] * 3
    + ["zs-member", "zs-gcd", "member", "unit", "principal", "square-ideal",
       "inverse-ideal", "factor", "verify", "laurent-member", "stable-witness"]
)


class Cli:
    """dressring.cli.main([cmd, "--json", ..., "--", *operands]) with stdout captured.

    Ops follow a fixed cycle of slots, shuffled once per seed, so every run has
    the same command mix.  Every op has a pinned expected exit code; ``--``
    keeps operands that start with '-' from being read as flags.
    """

    name = "cli"
    chunk = 26

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.cycle = list(_CLI_CYCLE)
        self.rng.shuffle(self.cycle)
        self.count = 0
        self.grid = [_trimmed(c) for c in product(range(-2, 3), repeat=4)]
        self.lin_grid = [_trimmed(c) for c in product(range(-2, 3), repeat=2)]
        rng = self.rng
        degrees, styles = range(6, 11), ("mixed", "mixed", "shared", "definite")
        # Root counts of every planted polynomial, and the degree of the
        # second operand of sign-at-roots, cycle through all their values.
        self.roots = _Strata(rng, [(n_lin, n_irr) for n_lin in (1, 2, 3) for n_irr in (1, 2)])
        self.partner_degrees = _Strata(rng, [4, 5, 6, 7])
        self.big_styles = _Strata(rng, ["mixed", "mixed", "shared", "definite"])
        self.big_parts = _Strata(rng, "ab")
        self.big_offset = rng.random()
        self.strata = {
            "sign-at-roots": _Strata(rng, [(d, s) for d in degrees for s in styles]),
            "sign-at-roots-big": _Strata(rng, [(d, e) for d in (6, 8, 10)
                                                for e in _BIG_EXPONENTS]),
            "certificate": _Strata(rng, [(n, pd, part) for n in range(6, 10)
                                         for pd in (True, True, True, True, False)
                                         for part in "ab"]),
            "certificate-big": _Strata(rng, [(n, e) for n in (6, 7, 8, 9)
                                             for e in _BIG_EXPONENTS]),
            "gamma": _Strata(rng, [(d, f) for d in (6, 8, 10) for f in (True, False)]),
            "gamma-plus": _Strata(rng, [(d, f, sc) for d in (6, 8, 10)
                                        for f, sc in ((True, 1), (True, -1), (False, 1))]),
        }

    def next_ops(self, count: int) -> list:
        out = []
        for _ in range(count):
            kind = self.cycle[self.count % len(self.cycle)]
            self.count += 1
            out.append(getattr(self, "_op_" + kind.replace("-", "_"))(self.rng))
        return out

    # Each _op_* method returns (argv, expected_exit, check_data).

    def _op_sign_at_roots(self, rng, degree=None, style=None, big_exponent=None):
        if degree is None:
            degree, style = self.strata["sign-at-roots"].next()
        p = _heavy(rng, degree, self.roots.next(), big_exponent)
        q_degree = self.partner_degrees.next()
        if style == "mixed":
            q = _heavy(rng, q_degree, self.roots.next())
        elif style == "shared":  # shares a real-rooted factor with p
            q = _heavy(rng, q_degree - 1, self.roots.next())
            if rng.randrange(len(p.lins) + len(p.irrs)) < len(p.lins):
                q = Planted(q.scalar, q.lins + [rng.choice(p.lins)], q.irrs, q.frees)
            else:
                q = Planted(q.scalar, q.lins, q.irrs + [rng.choice(p.irrs)], q.frees)
        else:
            q = _definite_partner(rng, p, q_degree)
        pattern = sign_pattern(q.coeffs, p)
        argv = ["sign-at-roots", "--json", "--", O.fmt_poly(q.coeffs), O.fmt_poly(p.coeffs)]
        return argv, 0, ("pattern", pattern)

    def _big_exponent(self, exponent: float) -> float:
        """``exponent`` plus an offset in [0, 1/2) from a golden-ratio sequence
        with a seeded start, so the sizes of the big constants in any run of
        ops spread evenly over their half-decades."""
        self.big_offset = (self.big_offset + _GOLDEN) % 1
        return exponent + self.big_offset / 2

    def _op_sign_at_roots_big(self, rng):
        degree, exponent = self.strata["sign-at-roots-big"].next()
        return self._op_sign_at_roots(rng, degree, self.big_styles.next(),
                                      self._big_exponent(exponent))

    def _op_certificate(self, rng, n=None, definite=True, part="a", big_exponent=None):
        if n is None:
            n, definite, part = self.strata["certificate"].next()
        x = _heavy(rng, n, self.roots.next(), big_exponent)
        y = _definite_partner(rng, x, n) if definite else _heavy(rng, n, self.roots.next())
        expected = 0 if sign_pattern(y.coeffs, x) in ("NoRoots", "AllPositive",
                                                      "AllNegative") else 1
        if part == "a":
            argv = ["certificate", "--json", "--", O.fmt_poly(x.coeffs), O.fmt_poly(y.coeffs)]
        else:  # part b: delta = x*eta + y^2 with the roles swapped
            argv = ["certificate", "--json", "--part", "b", "--",
                    O.fmt_poly(y.coeffs), O.fmt_poly(x.coeffs)]
        return argv, expected, ("certificate", part, x.coeffs, y.coeffs)

    def _op_certificate_big(self, rng):
        n, exponent = self.strata["certificate-big"].next()
        return self._op_certificate(rng, n, True, self.big_parts.next(),
                                    self._big_exponent(exponent))

    @staticmethod
    def _root_free_or_not(rng, degree, root_free, scalar):
        if root_free:
            return Planted(scalar, [], [], _rand_frees(rng, degree // 2))
        return Planted(scalar, [], [_rand_irr(rng)], _rand_frees(rng, degree // 2 - 1))

    def _op_gamma(self, rng):
        degree, root_free = self.strata["gamma"].next()
        p = self._root_free_or_not(rng, degree, root_free, rng.choice([1, 2, -1, -5]))
        argv = ["gamma", "--json", "--", O.fmt_poly(p.coeffs)]
        return argv, 0 if root_free else 1, ("verdict", "gamma", root_free)

    def _op_gamma_plus(self, rng):
        degree, root_free, sign = self.strata["gamma-plus"].next()
        p = self._root_free_or_not(rng, degree, root_free, sign * rng.choice([1, 2, 3]))
        verdict = root_free and sign > 0
        argv = ["gamma-plus", "--json", "--", O.fmt_poly(p.coeffs)]
        return argv, 0 if verdict else 1, ("verdict", "gamma_plus", verdict)

    def _op_zs_member(self, rng):
        member = rng.random() < 0.5
        p = _rand_prime(rng, 10**5, 10**8, 1)
        q = _rand_prime(rng, 10**5, 10**8, 1 if member else 3)
        argv = ["zs-member", "--json", "--", f"{rng.randint(1, 99)}/{p * q}"]
        return argv, 0 if member else 1, ("verdict", "member", member)

    def _op_zs_gcd(self, rng):
        vals = []
        for _ in range(2):
            p = _rand_prime(rng, 10**5, 10**8, rng.choice([1, 3]))
            q = _rand_prime(rng, 10**5, 10**8, rng.choice([1, 3]))
            vals.append(Fraction(rng.choice([1, -1]) * rng.randint(1, 60), p * q))
        argv = ["zs-gcd", "--json", "--", str(vals[0]), str(vals[1])]
        return argv, 0, ("zs-gcd", vals[0], vals[1])

    def _op_member(self, rng):
        num, den, _ = _member_text(rng)
        style = rng.randrange(3)
        verdict = style == 0
        if style == 1:  # a real root in the denominator that the numerator keeps
            while True:
                a, b = _rand_lin(rng)
                if O.horner(num, Fraction(-b, a)) != 0:
                    break
            den = O.pmul(den, [b, a])
        elif style == 2:  # positive degree, which no cancellation can change
            num = [rng.randint(-9, 9) for _ in range(len(den))] + [rng.choice([1, -2, 3])]
        argv = ["member", "--json", "--", O.fmt_rf(num, den)]
        return argv, 0 if verdict else 1, ("verdict", "member", verdict)

    def _op_unit(self, rng):
        m = rng.randint(1, 2)
        den = O.pprod(_rand_frees(rng, m))
        verdict = rng.random() < 0.5
        num = O.pscale(O.pprod(_rand_frees(rng, m if verdict else m - 1)), rng.choice([1, -2, 3]))
        argv = ["unit", "--json", "--", O.fmt_rf(num, den)]
        return argv, 0 if verdict else 1, ("verdict", "unit", verdict)

    def _op_principal(self, rng):
        while True:
            f, g = rng.choice(self.grid), rng.choice(self.grid)
            if f or g:
                break
        principal = O.principality_s(f, g) % 2 == 0
        argv = ["principal", "--json", "--", O.fmt_rf(f, GAMMA2), O.fmt_rf(g, GAMMA2)]
        return argv, 0 if principal else 1, ("verdict", "principal", principal)

    def _op_square_ideal(self, rng):
        gens = [_member_text(rng, 1) for _ in range(rng.randint(2, 3))]
        argv = ["square-ideal", "--json", "--"] + [text for _, _, text in gens]
        return argv, 0, ("square-ideal",)

    def _op_inverse_ideal(self, rng):
        a, b = _member_text(rng, 1), _member_text(rng, 1)
        argv = ["inverse-ideal", "--json", "--", a[2], b[2]]
        return argv, 0, ("inverse-ideal", a[:2], b[:2])

    def _op_factor(self, rng):
        x, y = rng.choice(self.lin_grid), rng.choice(self.lin_grid)
        matrix = f"[[{O.fmt_rf(x, GAMMA1)}, {O.fmt_rf(y, GAMMA1)}], [0, 0]]"
        return ["factor", "--json", "--", matrix], 0, ("factor", (x, GAMMA1), (y, GAMMA1))

    def _op_verify(self, rng):
        while True:
            num, den, text = _member_text(rng)
            if num:
                break
        valid = rng.random() < 0.5
        second = f"[[1, 0], [1{'-' if valid else '+'}{text}, 0]]"
        argv = ["verify", "--json", "--", f"[[{text}, 0], [0, 0]]", "[[1, -1], [0, 0]]", second]
        return argv, 0 if valid else 1, ("verdict", "verified", valid)

    def _op_laurent_member(self, rng):
        base = rng.choice(["real", "rational"])
        order = rng.randint(-2, 2)
        den = rng.choice([1, 5, 13, 17, 65, 3, 7, 15, 21])
        lead = Fraction(rng.choice([1, 2, 4, -1, -8]), den)
        coeffs = [lead] + [Fraction(rng.randint(-5, 5)) for _ in range(2)]
        if base == "real":
            member = order >= 0
        else:
            member = order > 0 or (order == 0 and all(p % 4 == 1 for p in (3, 5, 7, 13, 17)
                                                      if den % p == 0))
        argv = ["laurent-member", "--json", "--", base, str(order),
                ",".join(str(c) for c in coeffs)]
        return argv, 0 if member else 1, ("verdict", "member", member)

    def _op_stable_witness(self, rng):
        _, _, text = _member_text(rng)
        return ["stable-witness", "--json", "--", text], 0, ("stable-witness",)

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dressring.cli.main(op[0])
        return code, out.getvalue()

    def check(self, op, outcome) -> bool:
        ok, value = outcome
        if not ok:
            return False
        argv, expected, data = op
        code, text = value
        if code != expected:
            return False
        try:
            report = json.loads(text)
        except ValueError:
            return False
        if (not isinstance(report, dict) or set(report) != {"ok", "command", "result", "error"}
                or report["ok"] is not (code == 0) or report["command"] != argv[0]
                or (report["result"] is None) == (report["error"] is None)):
            return False
        result = report["result"]
        kind = data[0]
        if kind == "verdict":
            return result is not None and result.get(data[1]) is data[2]
        if kind == "pattern":
            return result["pattern"] == data[1]
        if kind == "certificate":
            return expected == 1 or _certificate_holds(result, *data[1:])
        if kind == "zs-gcd":
            a, b = data[1], data[2]
            g, u, v = (Fraction(result[k]) for k in ("g", "u", "v"))
            return g > 0 and u * a + v * b == g
        if kind == "square-ideal":
            num, _ = O.parse_rf_text(result["generator"])
            return bool(num)
        if kind == "inverse-ideal":
            (na, da), (nb, db) = data[1], data[2]
            g1, g2 = result["inverse_gens"]
            checked = 0
            for t in O.POINTS:
                try:
                    lhs = (O.horner(na, t) / O.horner(da, t) * O.rf_text_at(g1, t)
                           + O.horner(nb, t) / O.horner(db, t) * O.rf_text_at(g2, t))
                except ZeroDivisionError:
                    continue
                if lhs != 1:
                    return False
                checked += 1
            return checked >= 2
        if kind == "factor":
            (x, gx), (y, gy) = data[1], data[2]

            def target(t):
                return (O.horner(x, t) / O.horner(gx, t), O.horner(y, t) / O.horner(gy, t),
                        Fraction(0), Fraction(0))

            factors = [lambda t, m=m: O.matrix_text_at(m, t) for m in result["factors"]]
            return (result["verified"] is True and result["count"] == len(result["factors"])
                    and all(O.matrix_text_at(result["target"], t) == target(t)
                            for t in O.POINTS)
                    and O.factorization_holds(target, factors))
        if kind == "stable-witness":
            return (result["signs"] == ["+", "-"] and result["nonunit_certified"] is True
                    and result["sum_sq_unit"] is True
                    and Fraction(result["value_at_1"]) > 0 > Fraction(result["value_at_minus_1"]))
        return False


def _certificate_holds(result, part, x, y) -> bool:
    """delta = x^2 + y*beta (part a) with the roles of the positivity pair,
    delta positive at the check points, and deg delta = 2 deg x."""
    if result["part"] != part:
        return False
    beta = O.parse_poly_text(result["beta"])
    delta = O.parse_poly_text(result["delta"])
    if O.deg(delta) != 2 * O.deg(x):
        return False
    for t in O.POINTS:
        xv, yv, dv = O.horner(x, t), O.horner(y, t), O.horner(delta, t)
        if dv <= 0 or dv != xv * xv + yv * O.horner(beta, t):
            return False
    return True


WORKLOADS = {w.name: w for w in (Principality, Factorization, Cli)}
