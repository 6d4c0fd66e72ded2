import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import dressring
from dressring import (
    CertificateError,
    CertificatePreconditionError,
    DressElement,
    Factorization,
    HypothesisNotMet,
    Mat2,
    NotInDressRing,
    Polynomial,
    RationalFunction,
    ShapeViolation,
    SignPattern,
    conjugate_factorization,
    factor_row_matrix,
    factor_small,
    is_gamma,
    is_gamma_plus,
    is_idempotent,
    positivity_certificate,
    sign_at_roots,
    stable_range_witness,
    swap_factorization,
    verify_factorization,
)
from dressring import dress, idempotent

from helpers import (
    FACTOR_COUNT_BOUND,
    rand_gamma,
    rand_irreducible_quadratic,
    rand_member_nonzero,
    rand_poly,
    triples_product,
    verify_triples_polynomial,
)

X = Polynomial.x()
GAMMA = X * X + 1


def elem(num, den=GAMMA):
    if isinstance(num, int):
        num = Polynomial.constant(num)
    return DressElement.from_parts(num, den)


def tamper_certificate(monkeypatch, change):
    """Make _certificate return its certificate with (beta, delta) = change(x, y, beta, delta)."""
    original = idempotent._certificate

    def tampered(x, y, pattern):
        cert = original(x, y, pattern)
        beta, delta = change(x, y, cert.beta, cert.delta)
        return dataclasses.replace(cert, beta=beta, delta=delta)

    monkeypatch.setattr(idempotent, "_certificate", tampered)


# A row for the mirrored dominant branch, reached with two sign_at_roots calls:
# neither ratio lies in D, deg p < deg q rules out the first orientation after
# its query, and X+5 is positive at the roots 0 and 1 of X(X-1).
MIRRORED = (elem(X + 5, GAMMA**2), elem(X * (X - 1), GAMMA**2))


class TestIsIdempotent:
    def test_projection(self):
        assert is_idempotent(Mat2.of(1, 0, 0, 0))

    def test_worked_example(self):
        d = X * X + X + 1
        t = Mat2(
            DressElement.from_parts(X + 1, d),
            DressElement.from_parts(X, d),
            DressElement.from_parts(X * (X + 1), d),
            DressElement.from_parts(X * X, d),
        )
        # derivation: trace 1 and determinant 0, confirmed by exact multiplication
        assert (t.trace().value, t.det().value) == (RationalFunction.one(), RationalFunction.zero())
        assert is_idempotent(t)

    def test_identity_is_idempotent_but_nonsingular(self):
        ident = Mat2.identity()
        assert is_idempotent(ident)
        assert not ident.is_singular()
        assert repr(ident) == "Mat2([[1, 0], [0, 1]])"

    def test_singular_trace_one_family(self):
        # second row forced by d = 1 - a and bc = a(1 - a); b and c are built
        # as a genuine splitting of a(1 - a), optionally twisted by a unit
        rng = random.Random(91)
        from helpers import rand_unit

        for k in range(200):
            a = rand_member_nonzero(rng, 2)
            rest = DressElement.one() - a
            if rest.is_zero:
                continue
            if k % 3 == 0:
                b, c = a, rest
            elif k % 3 == 1:
                b, c = a * rest, DressElement.one()
            else:
                u = rand_unit(rng)
                b, c = a * u, rest * u.inverse()
            if b.is_zero:
                continue
            m = Mat2(a, b, c, rest)
            assert m.is_singular() and is_idempotent(m)
            perturbed = Mat2(a, b, c, rest + DressElement.one())
            assert not is_idempotent(perturbed)


def entrywise_product(m1, m2):
    """The textbook 2x2 product in DressElement arithmetic, entry by entry."""
    a, b, c, d = m1.entries()
    e, f, g, h = m2.entries()
    return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def rand_entry(rng, dens):
    kind = rng.randrange(4)
    if kind == 0:
        return DressElement.zero()
    if kind == 1:  # a constant: a polynomial entry with denominator 1
        return DressElement.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    den = rng.choice(dens)
    return DressElement.from_parts(rand_poly(rng, int(den.degree)), den)


class TestMat2Product:
    def test_random_pairs_match_entrywise_formula(self):
        rng = random.Random(95)
        dens = [GAMMA, X * X + X + 1, (X * X + 2) * GAMMA] + [rand_gamma(rng) for _ in range(3)]
        for m in [Mat2.identity(), Mat2.zero()] + [
                Mat2(*(rand_entry(rng, dens) for _ in range(4))) for _ in range(150)]:
            assert is_idempotent(m) == (entrywise_product(m, m) == m)

    def test_swap_equals_permutation_conjugation(self):
        # Random rank-one triples v w^T / s (idempotent or not), the identity,
        # and the factors of a pipeline result, split back into triples.
        rng = random.Random(96)
        dens = [GAMMA, X * X + X + 1, (X * X + 2) * GAMMA]
        perm = Mat2.of(0, 1, 1, 0)
        triples = []
        for _ in range(30):
            s = rng.choice(dens)
            half = int(s.degree) // 2
            triples.append(((rand_poly(rng, half), rand_poly(rng, half)),
                            (rand_poly(rng, half), rand_poly(rng, half)), s))
        triples.append(None)
        fact = factor_row_matrix(elem(X), elem(X + 1))
        triples += [idempotent._factor_of(m) for m in fact.factors]
        swapped = [idempotent._matrix(f) for f in idempotent._swap(triples)]
        assert swapped[0] == Mat2.of(1, 1, 0, 0)
        assert swapped[1:] == [entrywise_product(entrywise_product(perm, idempotent._matrix(f)),
                                                 perm) for f in triples]


class TestPositivityCertificate:
    def assert_invariants(self, x, y, cert):
        assert cert.delta == x * x + y * cert.beta
        assert is_gamma_plus(cert.delta)
        assert is_gamma(cert.beta)
        assert x.degree - 1 <= cert.beta.degree <= x.degree
        assert cert.delta.degree == 2 * x.degree

    def test_linear_pair(self):
        x, y = X, X + 1
        cert = positivity_certificate(x, y)
        self.assert_invariants(x, y, cert)
        # beta = 1 is a valid certificate here; ours must satisfy the same
        # invariants but need not equal it (see delta discriminant below)
        delta_ref = x * x + y * Polynomial.one()
        assert Fraction(1) - 4 < 0 and delta_ref == X * X + X + 1

    def test_rootless_x(self):
        x, y = X * X + 1, X * X - 5
        cert = positivity_certificate(x, y)
        self.assert_invariants(x, y, cert)

    def test_sign_definite_at_roots(self):
        x, y = X * X - 1, X * X
        assert sign_at_roots(y, x) is SignPattern.ALL_POSITIVE
        cert = positivity_certificate(x, y)
        self.assert_invariants(x, y, cert)

    def test_rejects_zero_input(self):
        with pytest.raises(CertificatePreconditionError, match="must be nonzero"):
            positivity_certificate(Polynomial.zero(), X)

    def test_rejects_unequal_degrees(self):
        with pytest.raises(CertificatePreconditionError):
            positivity_certificate(X, X * X + 1)
        with pytest.raises(CertificatePreconditionError):
            positivity_certificate(X, X * X)

    def test_rejects_mixed_and_shared(self):
        # Unequal degrees fail the degree precondition, checked before the
        # pattern; a MIXED pattern of equal-degree inputs is the parametrized test below.
        with pytest.raises(CertificatePreconditionError, match="equal degrees"):
            positivity_certificate(X, X * X - 1)
        with pytest.raises(CertificatePreconditionError, match=SignPattern.HAS_ZERO.value):
            positivity_certificate(X * X - 1, X * (X - 1))  # shared root 1

    @pytest.mark.parametrize("x, y, pattern", [
        (X * X - 1, X * X + X - 1, SignPattern.MIXED),  # y(1) = 1, y(-1) = -1
        (X * X - 1, X * (X - 1), SignPattern.HAS_ZERO),
    ], ids=["mixed", "has-zero"])
    def test_rejects_indefinite_pattern_of_equal_degree_inputs(self, x, y, pattern):
        assert sign_at_roots(y, x) is pattern
        with pytest.raises(CertificatePreconditionError, match=pattern.value):
            positivity_certificate(x, y)

    @pytest.mark.parametrize("change, message", [
        (lambda x, y, beta, delta: (X - 2, x * x + y * (X - 2)), "beta = .* has real roots"),
        (lambda x, y, beta, delta: (beta, delta + 1), "identity delta = x\\^2 \\+ y\\*beta"),
        (lambda x, y, beta, delta: (GAMMA, x * x + y * GAMMA), "degrees out of range"),
    ], ids=["beta-root-free", "identity", "degrees"])
    def test_result_checks(self, monkeypatch, change, message):
        # Each tampered certificate fails exactly one of the checks that
        # positivity_certificate runs on the certificate it returns.
        tamper_certificate(monkeypatch, change)
        with pytest.raises(CertificateError, match=message):
            positivity_certificate(X, X + 1)

    @pytest.mark.parametrize("lc_y, k", [(1000, 10), (2**1100, 1101)], ids=["1000", "2^1100"])
    def test_leading_coefficient_shrink(self, lc_y, k):
        # y < 0 at the roots +-1 of x, so the seed has sign +1, and c = 2^-k is
        # the first power of two with lc(x)^2 - c*lc(y) = 1 - c*lc_y > 0.  The
        # second case needs more halvings than any fixed cap of 1000.
        x, y = X * X - 1, (X * X - 2).scale(lc_y)
        start = time.process_time()
        cert = positivity_certificate(x, y)
        assert time.process_time() - start < 0.5
        assert cert.base == GAMMA.scale(Fraction(1, 2**k))
        self.assert_invariants(x, y, cert)

    def test_scale_search_past_a_thousand_halvings(self):
        # y(1) = -2^-1100 at the root of x; the discriminant of
        # delta = (X-1)^2 - s*y is s^2 - 4*s*2^-1100, so the first passing
        # scale is 2^-1099, past any fixed cap of 1000 halvings.
        x, y = X - 1, X - 1 - Fraction(1, 2**1100)
        start = time.process_time()
        cert = positivity_certificate(x, y)
        assert time.process_time() - start < 0.5
        assert cert.scale == Fraction(1, 2**1099)
        self.assert_invariants(x, y, cert)

    def test_scale_is_the_largest_passing_power_of_two(self):
        # The search returns 2^-k with 2^-k passing and 2^-(k-1) failing,
        # the scale the plain halving loop 1, 1/2, 1/4, ... stops at.
        rng = random.Random(95)
        for _ in range(60):
            deg = rng.randint(1, 4)
            x = rand_poly(rng, deg, nonzero=True)
            while x.degree != deg:
                x = rand_poly(rng, deg, nonzero=True)
            half = rand_poly(rng, deg // 2, nonzero=True)
            lc_scale = rng.choice([1, -1]) * 2 ** rng.randint(0, 80)
            y = (half * half + Polynomial.one()).scale(lc_scale)
            if y.degree != deg:
                continue
            x = x.scale(Fraction(1, 2 ** rng.randint(0, 40)))
            cert = positivity_certificate(x, y)
            base_y = cert.base * y
            assert is_gamma_plus(x * x - base_y.scale(cert.scale))
            if cert.scale < 1:
                assert not is_gamma_plus(x * x - base_y.scale(2 * cert.scale))

    def test_random_valid_pairs(self):
        rng = random.Random(92)
        done = 0
        while done < 100:
            deg = rng.randint(1, 4)
            x = rand_poly(rng, deg, nonzero=True)
            while x.degree != deg:
                x = rand_poly(rng, deg, nonzero=True)
            # plant y of the same degree, everywhere positive, so the sign
            # hypothesis holds whatever the roots of x are
            half = rand_poly(rng, deg // 2, nonzero=True)
            y = half * half + rand_gamma(rng, 1) ** 0  # half^2 + 1
            y = half * half + Polynomial.one()
            if y.degree != deg:
                continue
            cert = positivity_certificate(x, y)
            self.assert_invariants(x, y, cert)
            done += 1


def target_of(p, q):
    return Mat2.row(p, q)


class TestFactorRowMatrix:
    def test_worked_example_four_factors(self):
        p = elem(X)
        q = elem(X + 1)
        fact = factor_row_matrix(p, q)
        assert len(fact.factors) == 4
        assert fact.factors[0] == Mat2.of(1, 1, 0, 0)
        assert verify_factorization(fact).ok
        assert fact.target == target_of(p, q)

    def test_no_cliff_in_root_free_offset(self):
        # The shared-root branch needs c0 = 2^1199 to make
        # X^2 + (2^600 + 1) X + c0 root-free.
        p, q = elem(X * X + X.scale(2**600)), elem(X * X + X)
        start = time.process_time()
        fact = factor_row_matrix(p, q)
        assert time.process_time() - start < 0.5
        assert len(fact.factors) == 4
        assert verify_factorization(fact).ok
        assert fact.target == target_of(p, q)

    def test_zero_q(self):
        fact = factor_row_matrix(elem(X), DressElement.zero())
        assert len(fact.factors) == 2
        assert verify_factorization(fact).ok

    def test_zero_p(self):
        fact = factor_row_matrix(DressElement.zero(), elem(X))
        assert len(fact.factors) == 2
        assert verify_factorization(fact).ok

    def test_zero_matrix(self):
        fact = factor_row_matrix(DressElement.zero(), DressElement.zero())
        assert verify_factorization(fact).ok

    def test_shear_path(self):
        p = elem(X)
        q = elem(-1)
        fact = factor_row_matrix(p, q)
        assert verify_factorization(fact).ok
        assert fact.target == target_of(p, q)
        assert len(fact.factors) <= FACTOR_COUNT_BOUND

    def test_swapped_hypothesis(self):
        # deg q > deg p and p sign-definite at roots of q
        p = elem(Polynomial.one())
        q = elem(X)
        fact = factor_row_matrix(p, q)
        assert verify_factorization(fact).ok
        assert fact.target == target_of(p, q)

    def test_proportional(self):
        fact = factor_row_matrix(elem(X), elem(2 * X))
        assert len(fact.factors) == 3
        assert verify_factorization(fact).ok

    def test_padding_path(self):
        gamma6 = (X * X + 1) ** 3
        p = DressElement.from_parts(X, gamma6)
        q = DressElement.from_parts(X + 1, gamma6)
        fact = factor_row_matrix(p, q)
        assert verify_factorization(fact).ok
        assert fact.target == target_of(p, q)
        assert len(fact.factors) <= FACTOR_COUNT_BOUND

    def test_mixed_denominators(self):
        # equal degrees only after the least common denominator is taken
        p = DressElement.from_parts(X, X * X + 1)
        q = DressElement.from_parts(X + 1, X * X + 2)
        fact = factor_row_matrix(p, q)
        assert verify_factorization(fact).ok
        assert fact.target == target_of(p, q)
        assert len(fact.factors) <= FACTOR_COUNT_BOUND

    def test_even_degree_numerators_same_gamma(self):
        p = DressElement.from_parts(X * X - 2, GAMMA)
        q = DressElement.from_parts(X * X + 3, GAMMA)
        fact = factor_row_matrix(p, q)
        assert verify_factorization(fact).ok
        assert fact.target == target_of(p, q)

    def test_hypothesis_not_met_reports_data(self):
        gamma6 = (X * X + 1) ** 3
        p = DressElement.from_parts(X * (X - 1) * (X - 2), gamma6)
        q = DressElement.from_parts((2 * X - 1) * (2 * X - 3), gamma6)
        with pytest.raises(HypothesisNotMet) as exc:
            factor_row_matrix(p, q)
        assert exc.value.sign_q_at_p is SignPattern.MIXED
        assert exc.value.deg_p == -3

    def test_hypothesis_not_met_carries_the_row(self):
        gamma6 = (X * X + 1) ** 3
        rows = [
            (elem(X * (X - 1) * (X - 2), gamma6), elem((2 * X - 1) * (2 * X - 3), gamma6)),
            (elem(X * (X - 1) * (X - 2), gamma6), elem((2 * X - 1) * (2 * X - 3), X * X + X + 1)),
            (elem(X * (X - 1) * (X - 2), gamma6), elem(X * (2 * X - 1) * (2 * X - 3), gamma6)),
        ]
        gammas = []
        for p, q in rows:
            with pytest.raises(HypothesisNotMet) as exc:
                factor_row_matrix(p, q)
            (x, y), gamma = exc.value.numerators, exc.value.denominator
            assert RationalFunction.make(x, gamma) == p.value
            assert RationalFunction.make(y, gamma) == q.value
            gammas.append(gamma)
        assert gammas == [gamma6, gamma6 * (X * X + X + 1), gamma6]
        unset = HypothesisNotMet("message")
        assert unset.numerators is None and unset.denominator is None

    def test_common_root_not_small_rejected(self):
        # shared real root with degree-3 numerators: outside every branch
        gamma6 = (X * X + 1) ** 3
        p = DressElement.from_parts(X * (X - 1) * (X - 2), gamma6)
        q = DressElement.from_parts(X * (2 * X - 1) * (2 * X - 3), gamma6)
        with pytest.raises(HypothesisNotMet) as exc:
            factor_row_matrix(p, q)
        assert exc.value.sign_q_at_p is SignPattern.HAS_ZERO


class TestSwapAndConjugate:
    def test_swap_involution(self):
        fact = factor_row_matrix(elem(X), elem(X + 1))
        back = swap_factorization(swap_factorization(fact))
        assert back.target == fact.target
        assert verify_factorization(back).ok

    def test_swap_requires_row_shape(self):
        m = Mat2.of(1, 0, 0, 0)
        bad = Factorization(Mat2.identity(), (m,))
        with pytest.raises(ShapeViolation):
            swap_factorization(bad)

    def test_swap_adds_one_factor_over_direct_route(self):
        q = elem(X)
        direct = factor_row_matrix(q, DressElement.zero())  # (q 0; 0 0) directly
        via_swap = swap_factorization(factor_row_matrix(DressElement.zero(), q))
        assert via_swap.target == direct.target
        assert len(via_swap.factors) == len(factor_row_matrix(DressElement.zero(), q).factors) + 1
        assert verify_factorization(via_swap).ok

    def test_shear_conjugation_recovers_original_second_entry(self):
        p, q = elem(X), elem(X + 1)
        widened = factor_row_matrix(p, p + q)
        back = conjugate_factorization(
            widened, Mat2(DressElement.one(), DressElement.from_rational(-1),
                          DressElement.zero(), DressElement.one())
        )
        assert back.target == Mat2.row(p, q)
        assert verify_factorization(back).ok

    def test_permutation_conjugation_moves_projection(self):
        proj = Mat2.of(1, 0, 0, 0)
        fact = Factorization(proj, (proj,))
        perm = Mat2.of(0, 1, 1, 0)
        conj = conjugate_factorization(fact, perm)
        assert conj.target == Mat2.of(0, 0, 0, 1)

    def test_conjugation_by_shear_and_permutation(self):
        rng = random.Random(93)
        pairs = [(elem(X), elem(X + 1)), (elem(X), elem(-1)),
                 (elem(X + 2), elem(X - 1)),
                 (elem(X * (X - 1)), elem((X + 2) * (X + 3)))]
        facts = [factor_row_matrix(p, q) for p, q in pairs]
        for i in range(100):
            fact = facts[i % len(facts)]
            u = DressElement.from_rational(rng.randint(-3, 3))
            shear = Mat2(DressElement.one(), u, DressElement.zero(), DressElement.one())
            conj = conjugate_factorization(fact, shear)
            assert verify_factorization(conj).ok
            assert all(is_idempotent(m) for m in conj.factors)
        perm = Mat2.of(0, 1, 1, 0)
        conj = conjugate_factorization(facts[0], perm)
        assert verify_factorization(conj).ok

    def test_identity_conjugation_is_noop(self):
        fact = factor_row_matrix(elem(X), elem(X + 1))
        same = conjugate_factorization(fact, Mat2.identity())
        assert same == fact

    def test_non_invertible_rejected(self):
        fact = factor_row_matrix(elem(X), elem(X + 1))
        with pytest.raises(ShapeViolation):
            conjugate_factorization(fact, Mat2.of(1, 0, 0, 0))

    def test_nonzero_non_unit_determinant_rejected(self):
        # det P = X/(X^2+1) is nonzero but has a real root.
        fact = factor_row_matrix(elem(X), elem(X + 1))
        p = Mat2(elem(X), DressElement.zero(), DressElement.zero(), DressElement.one())
        with pytest.raises(ShapeViolation, match="invertible over the ring"):
            conjugate_factorization(fact, p)

    def test_matches_reference_with_non_constant_unit_determinant(self):
        # det P = (X^2+2)/(X^2+1) is a unit of D that is not a constant.
        zero, one = DressElement.zero(), DressElement.one()
        p = Mat2(elem(X * X + 2), elem(X), zero, one)
        det = p.a * p.d - p.b * p.c
        inv = det.inverse()
        p_inv = Mat2(p.d * inv, -p.b * inv, -p.c * inv, p.a * inv)
        g4 = GAMMA**2
        facts = [factor_row_matrix(elem(X), elem(X + 1)),
                 factor_row_matrix(elem(X), elem(-1)),
                 factor_row_matrix(DressElement.from_parts(X, GAMMA**3),
                                   DressElement.from_parts(X + 1, GAMMA**3)),
                 factor_row_matrix(DressElement.from_parts((X - 1) * (X + 2), g4),
                                   DressElement.from_parts((X - 1) * (X - 3), g4))]

        def conjugated(m):
            return entrywise_product(entrywise_product(p_inv, m), p)

        for fact in facts:
            conj = conjugate_factorization(fact, p)
            assert conj.target == conjugated(fact.target)
            assert conj.factors == tuple(map(conjugated, fact.factors))


class TestFactorSmall:
    def test_common_linear_factor_worked_example(self):
        g4 = (X * X + 1) ** 2
        p = DressElement.from_parts(X * (X + 1), g4)
        q = DressElement.from_parts(X * (X - 2), g4)
        fact = factor_small(p, q)
        assert verify_factorization(fact).ok
        assert fact.target == target_of(p, q)

    def test_proportional_quadratics(self):
        g4 = (X * X + 1) ** 2
        fact = factor_small(
            DressElement.from_parts(X * X + X, g4),
            DressElement.from_parts(2 * X * X + 2 * X, g4),
        )
        assert len(fact.factors) == 3
        assert verify_factorization(fact).ok

    def test_constants(self):
        g4 = (X * X + 1) ** 2
        fact = factor_small(DressElement.from_parts(Polynomial.constant(3), g4),
                            DressElement.from_parts(Polynomial.constant(5), g4))
        assert verify_factorization(fact).ok

    def test_degree_one_grid_dispatch(self):
        fact = factor_small(elem(X + 2), elem(X - 1))
        assert verify_factorization(fact).ok

    def test_one_split_and_one_gcd(self, monkeypatch):
        # The one gcd brings its cofactors; a row with a zero entry needs none.
        counts = {"over_common_denominator": 0, "_gcd_cofactors": 0}

        def counting(name):
            original = getattr(idempotent, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)
            return wrapper

        for name in counts:
            monkeypatch.setattr(idempotent, name, counting(name))
        # The row's work is everything before its first Mat2 is built; the
        # builder's own gcds, each vector entry against its s, are not counted.
        at_build = []
        build = idempotent._matrix

        def first_build_counted(f, *values):
            if not at_build:
                at_build.append(dict(counts))
            return build(f, *values)

        monkeypatch.setattr(idempotent, "_matrix", first_build_counted)
        g4 = (X * X + 1) ** 2
        for x, y in ((X + 2, X - 1), (X * (X + 1), X * (X - 2)), (X * X + X, 2 * X * X + 2 * X),
                     (Polynomial.zero(), X)):
            counts.update(dict.fromkeys(counts, 0))
            at_build.clear()
            fact = factor_small(DressElement.from_parts(x, g4), DressElement.from_parts(y, g4))
            assert at_build == [{"over_common_denominator": 1, "_gcd_cofactors": int(bool(x))}], \
                (str(x), str(y))
            assert counts["over_common_denominator"] == 1
            assert verify_factorization(fact).ok

    def test_shape_violation(self):
        g6 = (X * X + 1) ** 3
        p = DressElement.from_parts(X**3, g6)
        q = DressElement.from_parts(X * X, g6)
        with pytest.raises(ShapeViolation):
            factor_small(p, q)

    def test_shared_irrational_root_is_proportional_case(self):
        # gcd of degree 2 means proportional; e.g. both = X^2 - 2 up to scalar
        g4 = (X * X + 1) ** 2
        p = DressElement.from_parts(X * X - 2, g4)
        q = DressElement.from_parts(3 * (X * X - 2), g4)
        fact = factor_small(p, q)
        assert verify_factorization(fact).ok

    def test_shared_fractional_root(self):
        g4 = (X * X + 1) ** 2
        half = Polynomial.from_coeffs([Fraction(-1, 2), 1])  # X - 1/2
        p = DressElement.from_parts(half * (X + 1), g4)
        q = DressElement.from_parts(half * (X - 2), g4)
        fact = factor_small(p, q)
        assert verify_factorization(fact).ok
        assert fact.target == Mat2.row(p, q)

    def test_shared_root_away_from_zero_exact_factors(self):
        # gcd X - 1: the branch builds its idempotent around rho = 1.
        g4 = (X * X + 1) ** 2
        p = DressElement.from_parts((X - 1) * (X + 2), g4)
        q = DressElement.from_parts((X - 1) * (X - 3), g4)
        fact = factor_small(p, q)
        assert str(fact.target) == (
            "[[(X^2 + X - 2)/(X^4 + 2*X^2 + 1), (X^2 - 4*X + 3)/(X^4 + 2*X^2 + 1)], [0, 0]]")
        assert [str(m) for m in fact.factors] == [
            "[[1, -1], [0, 0]]",
            "[[1, 0], [(X^4 + X^2 - 2*X - 4)/(X^4 + 2*X^2 + 1), 0]]",
            "[[1, 1], [0, 0]]",
            "[[(6/5*X^2 + 14/5*X + 4/5)/(X^2 + 2*X + 5),"
            " (6/5*X^2 - 16/5*X - 6/5)/(X^2 + 2*X + 5)],"
            " [(-1/5*X^2 - 9/5*X - 14/5)/(X^2 + 2*X + 5),"
            " (-1/5*X^2 - 4/5*X + 21/5)/(X^2 + 2*X + 5)]]",
        ]

    def test_shared_root_negative_leading_coefficients(self, monkeypatch):
        # The cofactors' leading coefficients set the shear's t = -c: -2 for
        # the negative pair, and 1/2 for the non-monic (2X^2 - 2, X^2 + X - 2),
        # so both rows take the shear's general path, not its t = +-1 sums.
        g4 = (X * X + 1) ** 2
        shear, ts = idempotent._shear, []
        monkeypatch.setattr(idempotent, "_shear", lambda fs, t: ts.append(t) or shear(fs, t))
        for x, y in [(-(X * (X + 1)), X * (X - 2) * 2), (2 * X * X - 2, X * X + X - 2)]:
            p, q = DressElement.from_parts(x, g4), DressElement.from_parts(y, g4)
            fact = factor_small(p, q)
            assert verify_factorization(fact).ok
            assert fact.target == Mat2.row(p, q)
        assert ts == [-2, Fraction(1, 2)]


class TestVerifyFactorization:
    def test_pipeline_output_passes(self):
        fact = factor_row_matrix(elem(X), elem(X + 1))
        assert verify_factorization(fact).ok

    def test_tampered_target_product_mismatch(self):
        fact = factor_row_matrix(elem(X), elem(X + 1))
        tampered = Factorization(
            Mat2(fact.target.a + DressElement.one(), fact.target.b, fact.target.c,
                 fact.target.d),
            fact.factors,
        )
        report = verify_factorization(tampered)
        assert not report.ok and report.failure == "product-mismatch"

    def test_non_idempotent_factor_flagged(self):
        fact = factor_row_matrix(elem(X), elem(X + 1))
        bad = Mat2.of(2, 1, 0, 0)
        report = verify_factorization(Factorization(fact.target, fact.factors[:-1] + (bad,)))
        assert not report.ok
        assert report.failure == "factor-not-idempotent"
        assert report.factor_index == len(fact.factors) - 1


class TestVerifyPerturbed:
    FACTORIZATIONS = [
        lambda: factor_row_matrix(elem(X), elem(X + 1)),
        lambda: factor_row_matrix(elem(X), elem(-1)),
        lambda: factor_row_matrix(DressElement.from_parts(X, (X * X + 1) ** 3),
                                  DressElement.from_parts(X + 1, (X * X + 1) ** 3)),
        lambda: factor_small(DressElement.from_parts(X * (X + 1), (X * X + 1) ** 2),
                             DressElement.from_parts(X * (X - 2), (X * X + 1) ** 2)),
    ]

    @pytest.mark.parametrize("make", FACTORIZATIONS)
    def test_broken_factor_reported_with_index(self, make):
        fact = make()
        bad = Mat2.of(2, 1, 0, 0)
        assert entrywise_product(bad, bad) != bad
        for i in range(len(fact.factors)):
            factors = list(fact.factors)
            factors[i] = bad
            # a later broken factor never hides the first one
            factors.append(bad)
            report = verify_factorization(Factorization(fact.target, tuple(factors)))
            assert (report.ok, report.failure, report.factor_index) == (
                False, "factor-not-idempotent", i)

    @pytest.mark.parametrize("make", FACTORIZATIONS)
    def test_wrong_idempotent_factor_is_product_mismatch(self, make):
        fact = make()
        for i, f in enumerate(fact.factors):
            for other in (Mat2.of(1, 0, 0, 0), Mat2.of(0, 0, 0, 1), Mat2.identity()):
                factors = list(fact.factors)
                factors[i] = other
                product = Mat2.identity()
                for m in factors:
                    product = entrywise_product(product, m)
                report = verify_factorization(Factorization(fact.target, tuple(factors)))
                assert report.factor_index is None
                if product == fact.target:
                    assert report.ok
                else:
                    assert (report.ok, report.failure) == (False, "product-mismatch")

    def test_empty_factor_list_is_the_identity(self):
        assert verify_factorization(Factorization(Mat2.identity(), ())).ok
        report = verify_factorization(Factorization(Mat2.zero(), ()))
        assert report.failure == "product-mismatch"


def c06_c07_rows():
    """The c06 planted pairs and the two c07 grids, as (p, q) pairs."""
    from itertools import product

    from test_acceptance import _planted_hypothesis_pairs

    rows = [("c06", p, q) for p, q in _planted_hypothesis_pairs(random.Random(1006), 100)]
    lin = [Polynomial.from_coeffs(c) for c in product(range(-2, 3), repeat=2)]
    rows += [("c07", elem(x), elem(y)) for x in lin for y in lin]
    quad = [Polynomial.from_coeffs([v, u, 1]) for u in range(-2, 3) for v in range(-2, 3)]
    g4 = GAMMA**2
    rows += [("c07", elem(x, g4), elem(y, g4)) for x in quad for y in quad
             if dressring.poly_gcd(x, y).degree >= 1]
    return rows


def old_rule(fact):
    """The previous verifier: N*N == d*N per factor, then the full matrix product."""
    for i, m in enumerate(fact.factors):
        nums, d = dress.over_common_denominator(m.entries())
        a, b, c, e = nums
        square = (a * a + b * c, a * b + b * e, c * a + e * c, c * b + e * e)
        if square != tuple(x * d for x in nums):
            return (False, "factor-not-idempotent", i)
    product = Mat2.identity()
    for m in fact.factors:
        product = entrywise_product(product, m)
    if product != fact.target:
        return (False, "product-mismatch", None)
    return (True, None, None)


class TestRankOneVerifier:
    def test_is_idempotent_pins(self):
        e = factor_row_matrix(elem(X), elem(X + 1)).factors[-1]
        two = DressElement.from_rational(2)
        assert is_idempotent(Mat2.zero())
        assert is_idempotent(Mat2.identity())
        assert is_idempotent(e)
        assert not is_idempotent(Mat2.of(0, 1, 0, 0))  # nilpotent: det 0, trace 0
        assert not is_idempotent(Mat2(*(two * x for x in e.entries())))  # trace 2
        assert not is_idempotent(Mat2.of(2, 0, 0, 2))  # 2I: not the identity

    def test_non_idempotent_stage_factor_is_reported(self, monkeypatch):
        # (0 q; 0 2) = (q; 2)(0 1) has w.v = 2 != s = 1, so the boundary check
        # must reject it before any Mat2 is built.
        zero, one = Polynomial.zero(), Polynomial.one()
        monkeypatch.setattr(idempotent, "_factor_zero_p", lambda num, den: [
            idempotent._E11, ((num, den + den), (zero, one), den)])
        with pytest.raises(CertificateError, match="factor-not-idempotent at factor 1"):
            factor_row_matrix(DressElement.zero(), elem(X))

    def test_agrees_with_old_rule_on_tampered_factorizations(self):
        rng = random.Random(97)
        rows = c06_c07_rows()
        two = DressElement.from_rational(2)
        nilpotent = Mat2.of(0, 1, 0, 0)
        seen = set()
        for kind, p, q in rows[:100] + rows[100::4]:
            fact = factor_row_matrix(p, q)
            fs = list(fact.factors)
            i, j = rng.randrange(len(fs)), rng.randrange(len(fs) + 1)
            extra = rng.choice([Mat2.identity(), Mat2.zero()])
            candidates = [
                fs,
                fs[:i] + [Mat2(*(two * x for x in fs[i].entries()))] + fs[i + 1:],
                fs[:j] + [nilpotent] + fs[j:],
                fs[:j] + [extra] + fs[j:],
                fs[:i] + [Mat2(fs[i].a, fs[i].c, fs[i].b, fs[i].d)] + fs[i + 1:],
                fs[:-1],
            ]
            for factors in candidates:
                tampered = Factorization(fact.target, tuple(factors))
                report = verify_factorization(tampered)
                got = (report.ok, report.failure, report.factor_index)
                assert got == old_rule(tampered), (kind, str(p), str(q), factors)
                seen.add(got[:2])
        assert seen == {(True, None), (False, "factor-not-idempotent"),
                        (False, "product-mismatch")}


def rand_rational_poly(rng, max_deg, big=0):
    """A random polynomial, zero included, with rational coefficients near
    +-big (small integers for big = 0) over denominators up to 6."""
    coeffs = [Fraction(rng.choice((-1, 1)) * (big + rng.randint(0, 9)), rng.randint(1, 6))
              for _ in range(rng.randint(-1, max_deg) + 1)]
    return Polynomial.from_coeffs(coeffs)


def rand_triples(rng, big=0, most=20):
    """(target, factors) for _verify_triples: 1 to most factors, identities (None),
    failed candidates (False), zero vectors and idempotent triples w.v == s
    (a few with another s), with the exact product as the target."""
    zero, one = Polynomial.zero(), Polynomial.one()
    factors = []
    for _ in range(rng.randint(1, most)):
        r = rng.random()
        if r < 0.08:
            factors.append(None)
            continue
        if r < 0.1:
            factors.append(False)
            continue
        v = (rand_rational_poly(rng, 2, big), rand_rational_poly(rng, 2, big))
        w = (rand_rational_poly(rng, 2, big), rand_rational_poly(rng, 2, big))
        if r < 0.15:
            v = (zero, zero) if r < 0.125 else v
            w = w if r < 0.125 else (zero, zero)
        s = w[0] * v[0] + w[1] * v[1]
        if r > 0.97 or not s:
            s = rand_rational_poly(rng, 2, big) or one
        factors.append((v, w, s))
    num, den = triples_product([f for f in factors if f is not False])
    c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    return ([x.scale(c) for x in num], den.scale(c)), factors


def tampered(rng, target, factors, lowest):
    """A copy with one polynomial's lowest (or highest) integer coefficient moved by +-1."""
    def moved(p):
        ints = list(p.ints) or [0]
        ints[0 if lowest else -1] += rng.choice((-1, 1))
        return Polynomial.from_coeffs([Fraction(c, p.denom) for c in ints])

    (num, den), factors = target, list(factors)
    slots = [i for i, f in enumerate(factors) if f]
    if not slots or rng.random() < 0.2:
        j = rng.randrange(5)
        if j == 4:
            return (num, moved(den)), factors
        return (num[:j] + [moved(num[j])] + num[j + 1:], den), factors
    i, j = rng.choice(slots), rng.randrange(5)
    polys = [*factors[i][0], *factors[i][1], factors[i][2]]
    polys[j] = moved(polys[j])
    factors[i] = ((polys[0], polys[1]), (polys[2], polys[3]), polys[4])
    return (num, den), factors


class TestIntegerEvaluationCheck:
    # _verify_triples decides w.v == s and the product identity at X = 2^k;
    # the Polynomial-product check in helpers is the reference.
    @pytest.mark.parametrize("big, most, count", [(0, 20, 300), (2**600, 6, 60)],
                             ids=["small", "2^600"])
    def test_same_report_as_the_polynomial_check(self, big, most, count):
        rng = random.Random(2024 + count)
        seen = set()
        for _ in range(count):
            target, factors = rand_triples(rng, big, most)
            cases = [(target, factors)] + [tampered(rng, target, factors, lowest)
                                           for lowest in (True, False, True, False)]
            for t, fs in cases:
                report = idempotent._verify_triples(t, fs)
                assert report == verify_triples_polynomial(t, fs), (t, fs)
                seen.add((report.ok, report.failure))
        assert seen == {(True, None), (False, "factor-not-idempotent"),
                        (False, "product-mismatch")}

    def test_pipeline_factors_and_their_tampered_copies(self):
        rng = random.Random(31)
        for _, p, q in c06_c07_rows()[::7]:
            (x, y), gamma = dress.over_common_denominator([p, q])
            fact = factor_row_matrix(p, q)
            target = ([x, y, Polynomial.zero(), Polynomial.zero()], gamma)
            factors = [idempotent._factor_of(m) for m in fact.factors]
            assert idempotent._verify_triples(target, factors).ok
            for lowest in (True, False):
                t, fs = tampered(rng, target, factors, lowest)
                assert idempotent._verify_triples(t, fs) == verify_triples_polynomial(t, fs)

    def test_zero_vectors_identities_and_failed_candidates(self):
        zero, one = Polynomial.zero(), Polynomial.one()
        ident = ([one, zero, zero, one], one)
        assert idempotent._verify_triples(ident, []).ok
        assert idempotent._verify_triples(ident, [None, None]).ok
        # a zero vector makes the zero matrix whatever s is, so the product is 0
        zero_v = ((zero, zero), (X, one), X + 3)
        assert idempotent._verify_triples(([zero] * 4, one), [None, zero_v]).ok
        assert idempotent._verify_triples(ident, [zero_v]).failure == "product-mismatch"
        report = idempotent._verify_triples(ident, [None, ((X, one), (one, X), X), False])
        assert (report.ok, report.failure, report.factor_index) == (
            False, "factor-not-idempotent", 1)
        report = idempotent._verify_triples(ident, [None, False, ((X, one), (one, X), X)])
        assert report.factor_index == 1


class TestShear:
    @pytest.mark.parametrize("t", [-1, 1, Fraction(1, 3), Fraction(-7, 2)])
    def test_shear_is_conjugation_by_the_shear_matrix(self, t, monkeypatch):
        # t = +-1 is a sum or a difference per vector entry, with no scale.
        rng = random.Random(str(t))
        zero, one = Polynomial.zero(), Polynomial.one()
        p = (one, Polynomial.constant(t), zero, one)
        scale, scaled = Polynomial.scale, []
        for _ in range(50):
            fs = [((rand_rational_poly(rng, 3), rand_rational_poly(rng, 3)),
                   (rand_rational_poly(rng, 3), rand_rational_poly(rng, 3)),
                   rand_rational_poly(rng, 3) or one) for _ in range(rng.randint(1, 6))]
            monkeypatch.setattr(Polynomial, "scale", lambda a, k: scaled.append(k) or scale(a, k))
            sheared = idempotent._shear(fs, t)
            monkeypatch.setattr(Polynomial, "scale", scale)
            assert sheared == idempotent._conjugate(fs, p)
        assert (scaled == []) == (t in (1, -1))


class TestIdealClassOfLastFactor:
    def test_principality_matches_last_nonzero_row(self):
        # The product's first row is a scalar times w_k^T, as is each row of
        # the last factor v_k w_k^T / s_k, so (p, q) and any nonzero row of
        # the last factor generate ideals in the same class.
        counts = {True: 0, False: 0}
        for kind, p, q in c06_c07_rows():
            if p.is_zero and q.is_zero:
                continue
            last = factor_row_matrix(p, q).factors[-1]
            row = (last.a, last.b) if not (last.a.is_zero and last.b.is_zero) else (last.c, last.d)
            principal = dressring.is_principal(p, q)
            assert principal == dressring.is_principal(*row), (kind, str(p), str(q))
            counts[principal] += 1
        assert counts[True] > 0 and counts[False] > 0


class TestDerivationChecks:
    # A fault injected into a pipeline stage is caught where the factorization
    # is returned: _verified checks w.v == s and the product, and reports an
    # entry outside D, so the stages check nothing of their own.
    SHARED_ROOT_ROW = (elem(X * (X + 1), GAMMA**2), elem(X * (X - 2), GAMMA**2))

    def test_core_unit_check(self, monkeypatch):
        # beta = X - 2 with the identity kept: T and u = delta/(tau*beta) are
        # still exact, but u and the entries of T leave D.
        tamper_certificate(monkeypatch, lambda x, y, beta, delta: (X - 2, x * x + y * (X - 2)))
        with pytest.raises(CertificateError, match="entry-not-in-ring .* at factor"):
            factor_row_matrix(elem(X), elem(X + 1))

    def test_equal_degree_check(self):
        # The certificate's own precondition guards every caller.
        with pytest.raises(CertificatePreconditionError, match="equal degrees"):
            idempotent._factor_dominant(X, X * X, Polynomial.one(), sign_at_roots(X * X, X))

    def test_shared_root_combination_check(self):
        # Cubics sharing the root 0: x1 = X^2 + 1, y1 = X^2 + X, and
        # c*x1 + y1 = X - 1 keeps its linear term, so the factors miss the row.
        x, y, gamma = X**3 + X, X**3 + X * X, GAMMA**2
        factors = idempotent._factor_quadratics_sharing_root(x, gamma, X, X * X + 1, X * X + X)
        split = ((x, y, Polynomial.zero(), Polynomial.zero()), gamma)
        with pytest.raises(CertificateError, match="product-mismatch"):
            idempotent._verified(Mat2.row(elem(x, gamma), elem(y, gamma)), split, factors)

    def test_shared_root_offset_check(self, monkeypatch):
        # delta = x + 1 leaves delta - x constant, not linear, but every delta
        # makes e idempotent and the product exact, and X^2 + X + 1 is
        # root-free: the factorization is valid and verifies.
        monkeypatch.setattr(idempotent, "_grow_linear_to_gamma", lambda x, m: x + 1)
        fact = factor_row_matrix(*self.SHARED_ROOT_ROW)
        assert fact.target == Mat2.row(*self.SHARED_ROOT_ROW)
        assert verify_factorization(fact).ok

    def test_root_free_offset_check(self, monkeypatch):
        # delta = x + M - 1 = X^2 + 2X - 1 has real roots, so e leaves D.
        monkeypatch.setattr(idempotent, "_grow_linear_to_gamma", lambda x, m: x + m - 1)
        with pytest.raises(CertificateError, match="entry-not-in-ring .* at factor"):
            factor_row_matrix(*self.SHARED_ROOT_ROW)

    def test_stable_range_witness_sign_check(self, monkeypatch):
        # 1/(X - 1) is not in D; with membership unchecked it reaches the
        # witness, whose value at 1 is then 0.
        monkeypatch.setattr(dress, "membership_failure", lambda r: None)
        with pytest.raises(CertificateError, match="must be \\+ and -"):
            stable_range_witness(elem(1, X - 1))


class TestBoundaryVerification:
    def test_one_verification_per_public_call(self, monkeypatch):
        zero, one = DressElement.zero(), DressElement.one()
        g4 = (X * X + 1) ** 2
        g6 = (X * X + 1) ** 3
        shared_p = DressElement.from_parts(X * (X + 1), g4)
        shared_q = DressElement.from_parts(X * (X - 2), g4)
        fact = factor_row_matrix(elem(X), elem(X + 1))
        shear = Mat2.of(1, 2, 0, 1)
        cases = {
            "zero": lambda: factor_row_matrix(zero, zero),
            "p=0": lambda: factor_row_matrix(zero, elem(X)),
            "q=0": lambda: factor_row_matrix(elem(X), zero),
            "q/p in D": lambda: factor_row_matrix(elem(X), elem(2 * X)),
            "p/q in D": lambda: factor_row_matrix(elem(X), one),
            "dominant": lambda: factor_row_matrix(elem(X), elem(X + 1)),
            "shear": lambda: factor_row_matrix(elem(X), elem(-1)),
            "padded": lambda: factor_row_matrix(DressElement.from_parts(X, g6),
                                                DressElement.from_parts(X + 1, g6)),
            "mirrored": lambda: factor_row_matrix(*MIRRORED),
            "small common root": lambda: factor_row_matrix(shared_p, shared_q),
            "factor_small linear": lambda: factor_small(elem(X + 2), elem(X - 1)),
            "factor_small quadratic": lambda: factor_small(shared_p, shared_q),
            "swap": lambda: swap_factorization(fact),
            "conjugate": lambda: conjugate_factorization(fact, shear),
        }
        calls = []
        original = idempotent._verify_triples

        def counting(target, factors, *values):
            calls.append(target)
            return original(target, factors, *values)

        queries = []
        original_query = idempotent.sign_at_roots
        monkeypatch.setattr(idempotent, "_verify_triples", counting)
        monkeypatch.setattr(idempotent, "sign_at_roots",
                            lambda q, p: queries.append(p) or original_query(q, p))
        counts, query_counts = {}, {}
        for name, call in cases.items():
            calls.clear()
            queries.clear()
            call()
            counts[name], query_counts[name] = len(calls), len(queries)
        assert counts == dict.fromkeys(cases, 1)
        assert query_counts["mirrored"] == 2  # the mirrored dominant branch ran

    def test_check_survives_optimized_mode(self):
        # A wrong factor list must be caught by real code, not by an assert
        # that python -O removes; the CLI reports it as an operational error.
        script = """
import contextlib, io, json, sys
from dressring import CertificateError, DressElement, Mat2, Polynomial, cli, idempotent

def wrong(num, den):
    # (0 2q; 0 1) = (2q; 1)(0 1) is idempotent, but the product is (0 2q; 0 0)
    one, zero = Polynomial.one(), Polynomial.zero()
    return [((one, zero), (one, zero), one), ((num + num, den), (zero, one), den)]

idempotent._factor_zero_p = wrong
q = DressElement.from_parts(Polynomial.one(), Polynomial.from_coeffs([1, 0, 1]))
try:
    idempotent.factor_row_matrix(DressElement.zero(), q)
    raised = None
except CertificateError as exc:
    raised = str(exc)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["factor", "--json", "--", "[[0, 1/(X^2+1)], [0, 0]]"])
# A positivity certificate whose beta fails the root-free check.
idempotent.is_gamma = lambda p: False
try:
    idempotent.positivity_certificate(Polynomial.x(), Polynomial.from_coeffs([1, 1]))
    cert_raised = None
except CertificateError as exc:
    cert_raised = str(exc)
print(json.dumps({"optimize": sys.flags.optimize, "raised": raised, "code": code,
                  "report": json.loads(out.getvalue()), "cert_raised": cert_raised}))
"""
        src = os.path.dirname(os.path.dirname(dressring.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["optimize"] == 1
        assert out["raised"] is not None and "product-mismatch" in out["raised"]
        assert out["code"] == 2
        report = out["report"]
        assert set(report) == {"ok", "command", "result", "error"}
        assert report["ok"] is False and report["command"] == "factor"
        assert report["result"] is None and "product-mismatch" in report["error"]
        assert out["cert_raised"] is not None and "real roots" in out["cert_raised"]


def old_proportional_rule(p, q):
    """The previous proportional test: reduce q/p, then p/q, each with RationalFunction.make."""
    ratio = q.value / p.value
    if dress.is_member(ratio):
        return "q/p", ratio
    ratio = p.value / q.value
    if dress.is_member(ratio):
        return "p/q", ratio
    return None, None


def over_random_gamma(rng, num):
    """num over a random root-free denominator of degree >= deg num, reduced."""
    gamma = rand_gamma(rng, 2)
    while gamma.degree < num.degree:
        gamma = gamma * rand_irreducible_quadratic(rng)
    return DressElement.from_parts(num, gamma)


def planted_common_factor_rows(rng, count):
    """Rows (m a/g1, m b/g2) over independent root-free g1, g2.

    The common factor m is 1, a random polynomial or a root-free quadratic;
    b is random, a scalar multiple of a, or a times a root-free quadratic,
    in either orientation.
    """
    rows = []
    for i in range(count):
        m = (Polynomial.one(), rand_poly(rng, 2, nonzero=True), rand_gamma(rng, 1))[i % 3]
        a = rand_poly(rng, 2, nonzero=True)
        b = (rand_poly(rng, 2, nonzero=True), a.scale(rng.choice([-3, -1, 2])),
             a * rand_irreducible_quadratic(rng))[i // 3 % 3]
        if i // 9 % 2:
            a, b = b, a
        rows.append((over_random_gamma(rng, m * a), over_random_gamma(rng, m * b)))
    return rows


class TestProportionalRule:
    """factor_row_matrix decides q/p and p/q from one gcd of the numerators;
    the old rule reduced each ratio with RationalFunction.make."""

    def observed_rule(self, monkeypatch, rows):
        # _factor_proportional(num, den, rn, rd) takes the cofactors (rn, rd)
        # unreduced; num is x for q/p = rn/rd and y for the swapped p/q.
        calls = []
        original = idempotent._factor_proportional

        def recording(num, den, rn, rd):
            calls.append((num, RationalFunction.make(rn, rd)))
            return original(num, den, rn, rd)

        monkeypatch.setattr(idempotent, "_factor_proportional", recording)
        for p, q in rows:
            calls.clear()
            try:
                factor_row_matrix(p, q)
            except HypothesisNotMet:
                pass
            if p.is_zero or q.is_zero:
                assert calls == []
                continue
            assert len(calls) <= 1
            (x, _), _ = dress.over_common_denominator([p, q])
            yield p, q, next((("q/p" if num == x else "p/q", r) for num, r in calls),
                             (None, None))

    def test_grids_agree_with_old_rule(self, monkeypatch):
        rows = [(p, q) for _, p, q in c06_c07_rows()]
        seen = set()
        for p, q, got in self.observed_rule(monkeypatch, rows):
            assert got == old_proportional_rule(p, q), (str(p), str(q))
            seen.add(got[0])
        assert seen == {"q/p", "p/q", None}

    def test_planted_common_factors_agree_with_old_rule(self, monkeypatch):
        rows = planted_common_factor_rows(random.Random(1301), 504)
        seen, shared = {}, 0
        for p, q, got in self.observed_rule(monkeypatch, rows):
            assert got == old_proportional_rule(p, q), (str(p), str(q))
            (x, y), _ = dress.over_common_denominator([p, q])
            shared += dressring.poly_gcd(x, y).degree >= 1
            seen[got[0]] = seen.get(got[0], 0) + 1
            assert (got[1] is None) or isinstance(got[1], RationalFunction)
        assert set(seen) == {"q/p", "p/q", None} and min(seen.values()) >= 50, seen
        assert shared >= 200


class TestRowWork:
    """Work counts of factor_row_matrix, branch by branch."""

    def test_one_split_and_no_zero_entry_reduction(self, monkeypatch):
        zero, one = DressElement.zero(), DressElement.one()
        g4, g6 = GAMMA**2, GAMMA**3
        cases = {
            "zero": (zero, zero),
            "p=0": (zero, elem(X)),
            "q=0": (elem(X), zero),
            "q/p in D": (elem(X), elem(2 * X)),
            "p/q in D": (elem(X), one),
            "dominant": (elem(X), elem(X + 1)),
            "shear": (elem(X), elem(-1)),
            "padded": (elem(X, g6), elem(X + 1, g6)),
            "mirrored": MIRRORED,
            "mixed denominators": (elem(X * X - 2, g4), elem(X + 3, X * X + X + 1)),
            "small common root": (elem(X * (X + 1), g4), elem(X * (X - 2), g4)),
        }
        counts = {"over_common_denominator": 0, "zero make": 0}

        def counting(name, original, is_counted=lambda *args: True):
            def wrapper(*args):
                counts[name] += is_counted(*args)
                return original(*args)
            return wrapper

        monkeypatch.setattr(idempotent, "over_common_denominator", counting(
            "over_common_denominator", idempotent.over_common_denominator))
        monkeypatch.setattr(RationalFunction, "make", staticmethod(counting(
            "zero make", RationalFunction.make, lambda num, den: num.is_zero)))
        queries = []
        original_query = idempotent.sign_at_roots
        monkeypatch.setattr(idempotent, "sign_at_roots",
                            lambda q, p: queries.append(p) or original_query(q, p))
        zero_entries = 0
        for name, (p, q) in cases.items():
            counts.update(dict.fromkeys(counts, 0))
            queries.clear()
            fact = factor_row_matrix(p, q)
            assert counts == {"over_common_denominator": 1, "zero make": 0}, name
            if name == "mirrored":
                assert len(queries) == 2  # the mirrored dominant branch ran
            zero_entries += sum(e.is_zero for m in fact.factors for e in m.entries())
        assert zero_entries >= 2 * len(cases)


def per_entry_matrix(f):
    """The previous factor builder: one checked from_parts per nonzero entry of v w^T / s."""
    if f is None:
        return Mat2.identity()
    v, w, s = f
    return Mat2(*(DressElement.from_parts(vi * wj, s) if vi and wj else DressElement.zero()
                  for vi in v for wj in w))


def built_or_error(build, f):
    try:
        return build(f)
    except NotInDressRing as exc:
        return ("NotInDressRing", exc.reason)


class TestFactorMatrixBuilder:
    """_matrix (entries proven reduced by the check's values, make for the rest)
    against the per-entry builder; the sign queries."""

    def recorded_triples(self, monkeypatch, calls):
        triples = []
        original = idempotent._matrix

        def recording(f, *values):
            triples.append((f, *values))
            return original(f, *values)

        monkeypatch.setattr(idempotent, "_matrix", recording)
        for call in calls:
            call()
        monkeypatch.setattr(idempotent, "_matrix", original)
        return triples

    def test_grid_factors_and_their_images_match_per_entry_builder(self, monkeypatch):
        # The swap and conjugation images re-enter through _factor_of, whose s
        # = d * N_ij can have real roots, so the checked path runs as well.
        zero, one = DressElement.zero(), DressElement.one()
        shear, unit_det = Mat2.of(1, 2, 0, 1), Mat2(elem(X * X + 2), elem(X), zero, one)
        rows = c06_c07_rows()
        facts = [factor_row_matrix(p, q) for _, p, q in rows]
        calls = [lambda p=p, q=q: factor_row_matrix(p, q) for _, p, q in rows]
        calls += [lambda f=f: swap_factorization(f) for f in facts]
        calls += [lambda f=f, m=(shear, unit_det)[i % 2]: conjugate_factorization(f, m)
                  for i, f in enumerate(facts[::3])]
        # Each factor is rebuilt from the values and the half point that
        # _verified passed, so the entries those values prove take that path.
        triples = self.recorded_triples(monkeypatch, calls)
        real_rooted = 0
        for f, values, half in triples:
            assert idempotent._matrix(f, values, half) == per_entry_matrix(f), f
            real_rooted += f is not None and not is_gamma(f[2].monic())
        assert len(triples) > 5000 and real_rooted > 100, (len(triples), real_rooted)

    def test_random_triples_match_per_entry_builder(self, monkeypatch):
        # s root-free (monic or not, constant or not) or with real roots; each
        # vector entry 0, a constant, c*s, a multiple of a factor of s, or
        # random; some entries exceed the degree bound and must raise.  Every
        # triple is built bare and from its values at a _kronecker point.  In
        # every third triple s is nonconstant, v_i is c*s or a multiple of a
        # factor of s and w_j is nonzero, so every entry shares a factor with s
        # and the values prove none: all four go to make.
        makes = []
        make = RationalFunction.make
        monkeypatch.setattr(RationalFunction, "make", staticmethod(
            lambda num, den: makes.append(num) or make(num, den)))
        rng = random.Random(1601)
        seen = set()
        for i in range(60):
            shared = i % 3 == 0
            half = rand_gamma(rng, 1)
            choices = [half * rand_gamma(rng, 1), half.scale(Fraction(-3, 2)),
                       half * (X - rng.randint(-2, 2))]
            if not shared:
                choices.append(Polynomial.constant(rng.choice([1, -2, Fraction(1, 3)])))
            s = rng.choice(choices)

            def vector_entry(kinds):
                kind = rng.choice(kinds)
                if kind == 0:
                    return Polynomial.zero()
                if kind == 1:
                    return Polynomial.constant(rng.randint(-4, 4) or 1)
                if kind == 2:
                    return s.scale(Fraction(rng.randint(1, 5), rng.choice([1, -2, 3])))
                if kind == 3:
                    return half * rand_poly(rng, 1, nonzero=True)
                return rand_poly(rng, int(s.degree), nonzero=True)

            v_kinds, w_kinds = ((2, 3), (1, 3)) if shared else (range(5), range(5))
            f = ((vector_entry(v_kinds), vector_entry(v_kinds)),
                 (vector_entry(w_kinds), vector_entry(w_kinds)), s)
            polys = [*f[0], *f[1], s]
            _, xi, at = idempotent._kronecker(polys, 4, 1)
            expected = built_or_error(per_entry_matrix, f)
            got = built_or_error(idempotent._matrix, f)
            makes.clear()
            from_values = built_or_error(
                lambda f: idempotent._matrix(f, tuple(map(at, polys)), xi >> 1), f)
            assert got == from_values == expected, f
            if shared and isinstance(got, Mat2):
                assert len(makes) == 4, f
            seen.add((shared, isinstance(got, Mat2)))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_make_count_on_the_grids(self, monkeypatch):
        # A count, not a time: the c06 and c07 factors have 7688 nonzero
        # entries, the check's values prove all but 947 of them reduced, and
        # each of those 947 shares a factor with its s (make was called once
        # per nonzero entry before).  The stages hand their triples over
        # unreduced, so _matrix is the only caller of make.  12 of the 947
        # are entries of the factor that carries u = delta/(tau beta), on the
        # 8 c07 rows whose delta and tau*beta share 1 + X^2.
        #
        # The products inside _matrix count the same way: one per nonzero
        # entry built.  1648 of the rows' 3116 factors are constant triples,
        # 23 distinct ones, and _matrix builds each of those once: from an
        # empty table the products are 4248 (7688 when every constant factor
        # was rebuilt), and a second pass builds no constant matrix.  No
        # entry, nor the target's zero row, takes the checked DressElement
        # constructor (798 did, one zero per row).
        inside, made, outside, products, checked, constant = [], [], [], [], [], []
        build, make, mul = idempotent._matrix, RationalFunction.make, Polynomial.__mul__
        post_init = DressElement.__post_init__

        def building(f, *values):
            inside.append(True)
            before = len(products)
            try:
                m = build(f, *values)
            finally:
                inside.pop()
            if f is not None and all(p.degree <= 0 for p in (*f[0], *f[1], f[2])):
                constant.append((f, m, len(products) - before))
            return m

        def recording(num, den):
            (made if inside else outside).append((num, den))
            return make(num, den)

        def multiplying(a, b):
            if inside:
                products.append(True)
            return mul(a, b)

        rows = c06_c07_rows()
        table = {}
        monkeypatch.setattr(idempotent, "_constant_matrices", table)
        monkeypatch.setattr(idempotent, "_matrix", building)
        monkeypatch.setattr(RationalFunction, "make", staticmethod(recording))
        monkeypatch.setattr(Polynomial, "__mul__", multiplying)
        monkeypatch.setattr(DressElement, "__post_init__",
                            lambda e: checked.append(e) or post_init(e))
        facts = [factor_row_matrix(p, q) for _, p, q in rows]
        assert sum(not e.is_zero for f in facts for m in f.factors for e in m.entries()) == 7688
        assert outside == []
        assert len(made) == 947
        assert all(dressring.poly_gcd(num, den).degree >= 1 for num, den in made)
        assert len(products) == 4248 and checked == []
        assert sum(len(f.factors) for f in facts) == 3116
        assert len(constant) == 1648 and len(table) == 23 == len({f for f, _, _ in constant})
        constant.clear()
        for _, p, q in rows:
            factor_row_matrix(p, q)
        assert len(constant) == 1648 and len(table) == 23
        assert all(m is table[f] and count == 0 for f, m, count in constant)
        small = 0
        for _, p, q in rows:
            try:
                factor_small(p, q)
                small += 1
            except ShapeViolation:
                pass
        assert small == 716 and outside == []

    def test_constant_table_is_bounded(self, monkeypatch):
        # Past its bound the table of constant matrices evicts its oldest key,
        # and a served matrix, hit or miss, is the per-entry builder's.  The
        # triples are (1 k/3; 0 0) over a non-monic s = k + 2, so every build
        # scales v.
        bound, table = 8, {}
        monkeypatch.setattr(idempotent, "_constant_matrices", table)
        monkeypatch.setattr(idempotent, "_CONSTANT_MATRICES_MAX", bound)
        c, zero = Polynomial.constant, Polynomial.zero()
        triples = [((c(k + 2), zero), (c(1), c(Fraction(k, 3))), c(k + 2))
                   for k in range(3 * bound)]
        for i, f in enumerate(triples):
            assert idempotent._matrix(f) == per_entry_matrix(f), f
            assert len(table) == min(i + 1, bound)
        assert list(table) == triples[-bound:]
        for f in triples[-bound:]:
            m = table[f]
            assert idempotent._matrix(f) is m and m == per_entry_matrix(f), f
        f = triples[0]  # evicted, so a miss again, here built from its values
        polys = [*f[0], *f[1], f[2]]
        _, xi, at = idempotent._kronecker(polys, 4, 1)
        assert idempotent._matrix(f, tuple(map(at, polys)), xi >> 1) == per_entry_matrix(f)
        assert list(table) == triples[-bound + 1:] + triples[:1]

    def test_constant_coprime_or_multiple_entries_by_make(self):
        # Entries that are constants, coprime to s or c*s, which make reduces
        # like any other; s with real roots and s sharing a factor as well.
        one, g2 = Polynomial.one(), GAMMA * (X * X + 2)
        for f in [
            ((Polynomial.constant(3), X), (X + 1, Polynomial.constant(5)), 2 * GAMMA),
            ((4 * GAMMA, X), (Polynomial.constant(7), Polynomial.zero()), 2 * GAMMA),
            ((X * X + X + 3, GAMMA.scale(Fraction(-1, 2))), (one, Polynomial.constant(2)), GAMMA),
            ((Polynomial.constant(5), one), (X * X * X, 3 * g2), g2),
            ((X - 1, 2 * X - 2), (Polynomial.constant(3), one), X - 1),
            ((GAMMA, one), (X, one), g2),  # GAMMA divides g2
        ]:
            assert idempotent._matrix(f) == per_entry_matrix(f), f

    @pytest.mark.parametrize("f", [
        ((X * X, Polynomial.one()), (X, Polynomial.one()), GAMMA),
        ((Polynomial.one(), X * GAMMA), (Polynomial.one(), X), GAMMA),
        ((X, Polynomial.one()), (Polynomial.one(), Polynomial.zero()), X - 1),
        ((X * X, Polynomial.one()), (Polynomial.one(), X), X * (X - 1)),
    ], ids=["over-degree", "over-degree-shared-factor", "real-root-s", "real-root-s-reduced"])
    def test_entry_outside_the_ring_raises(self, f):
        with pytest.raises(NotInDressRing):
            idempotent._matrix(f)

    def test_one_sign_query_per_orientation(self, monkeypatch):
        g6 = GAMMA**3
        cases = {
            "q/p in D": ((elem(X), elem(2 * X)), 0),
            "dominant": ((elem(X), elem(X + 1)), 1),
            "shear": ((elem(X), elem(-1)), 1),
            "padded": ((elem(X, g6), elem(X + 1, g6)), 1),
            "mirrored": (MIRRORED, 2),
            "mixed denominators, mirrored": ((elem(X * X - 2, GAMMA**2),
                                              elem(X + 3, X * X + X + 1)), 2),
        }
        calls = []
        original = idempotent.sign_at_roots

        def counting(q, p):
            calls.append((q, p))
            return original(q, p)

        monkeypatch.setattr(idempotent, "sign_at_roots", counting)
        for name, ((p, q), count) in cases.items():
            calls.clear()
            assert verify_factorization(factor_row_matrix(p, q)).ok
            assert len(calls) == count, name
        # The public certificate asks its own; the branch takes the pattern given.
        calls.clear()
        positivity_certificate(X, X + 1)
        assert len(calls) == 1
        calls.clear()
        idempotent._factor_dominant(X, X + 1, GAMMA, SignPattern.ALL_POSITIVE)
        assert calls == []

    @pytest.mark.parametrize("p, q", [
        (elem(X), DressElement(RationalFunction(X + 1, -GAMMA))),
        (DressElement(RationalFunction(X + 5, -GAMMA**2)), elem(X * (X - 1), GAMMA**2)),
    ], ids=["dominant", "mirrored"])
    def test_raw_non_monic_denominator_asks_its_own_pattern(self, monkeypatch, p, q):
        # RationalFunction(num, den) trusts its arguments, so a raw value can
        # carry a denominator with a negative leading coefficient.  The element
        # takes the monic form, so the cofactor gamma/den is positive and the
        # row's own pattern reaches the certificate unchanged.
        assert all(e.denominator.ints[-1] == e.denominator.denom for e in (p, q))
        asked, given = [], []
        original_query, original_certificate = idempotent.sign_at_roots, idempotent._certificate

        def recording_query(b, a):
            asked.append(original_query(b, a))
            return asked[-1]

        def recording_certificate(x, y, pattern):
            assert pattern is sign_at_roots(y, x)  # a wrong pattern never terminates
            given.append(pattern)
            return original_certificate(x, y, pattern)

        monkeypatch.setattr(idempotent, "sign_at_roots", recording_query)
        monkeypatch.setattr(idempotent, "_certificate", recording_certificate)
        fact = factor_row_matrix(p, q)
        assert given == [SignPattern.ALL_NEGATIVE] and given[0] is asked[-1]
        assert verify_factorization(fact).ok


# SHA-256 of the target and factor strings of every c06/c07 row, pinned from
# the output before factor_row_matrix was rewritten on one set of numerators.
# A change that only makes the pipeline faster must leave it as it is.
GRID_OUTPUT_SHA256 = "9c59e95e13e6c1fd8cb5f7f745ecbdbe9073e44003dc89b1097bbb1cda81e286"


def test_grid_output_is_pinned():
    facts = (factor_row_matrix(p, q) for _, p, q in c06_c07_rows())
    text = "\n\n".join("\n".join([str(f.target)] + [str(m) for m in f.factors]) for f in facts)
    assert hashlib.sha256(text.encode()).hexdigest() == GRID_OUTPUT_SHA256


# SHA-256 of the target and factor strings of the first 960 factorization
# ops of the benchmark's generator (bench/workloads.py) for two seeds, pinned
# from the output of the Polynomial-product check and the general
# conjugation; a change that only makes them faster must leave it as it is.
BENCH_OUTPUT_SHA256 = {
    77: "c68aa6891b79161c4aac7d57cc7da1ab9a7753f5ec5a201b594d15bc4a68b419",
    303: "a7dc89c513eaf92c0a2316f6045f64833c966db4b59890aa42c0c501df16c0b5",
}


@pytest.mark.parametrize("seed", sorted(BENCH_OUTPUT_SHA256))
def test_bench_factorizations_are_pinned(seed):
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    w = workloads.Factorization(seed)
    facts = [w.run(op) for op in w.next_ops(960)]
    text = "\n\n".join("\n".join([str(f.target)] + [str(m) for m in f.factors]) for f in facts)
    assert hashlib.sha256(text.encode()).hexdigest() == BENCH_OUTPUT_SHA256[seed]


class TestStableRangeWitness:
    def test_fixed_pair_is_unit(self):
        ev = stable_range_witness(DressElement.zero())
        assert ev.sum_sq_unit

    def test_fixed_pair_is_checked_once(self, monkeypatch):
        # a^2 + b^2 does not depend on z: two witnesses make one is_unit call.
        calls = []
        original = dress.is_unit
        monkeypatch.setattr(dress, "is_unit", lambda r: calls.append(r) or original(r))
        idempotent._witness_sum_sq_unit.cache_clear()
        first, second = stable_range_witness(elem(X)), stable_range_witness(DressElement.zero())
        assert len(calls) == 1
        assert first.sum_sq_unit and second.sum_sq_unit

    def test_examples(self):
        for z in (DressElement.zero(), elem(Polynomial.one()), elem(X)):
            ev = stable_range_witness(z)
            assert (ev.sign_at_1, ev.sign_at_minus_1) == ("+", "-")
            assert ev.nonunit_certified

    def test_random_members(self):
        rng = random.Random(94)
        for _ in range(50):
            z = rand_member_nonzero(rng, 2)
            ev = stable_range_witness(z)
            assert ev.value_at_1 > 0 > ev.value_at_minus_1
            assert ev.nonunit_certified

    def test_values_are_f1_at_plus_and_minus_one(self):
        # f1 = X*d' + (X^2 - 1)*f of the evidence's docstring, built in full.
        # Denominators with d'(1) != d'(-1) catch a sign or a point mix-up.
        rng = random.Random(48)
        checked = 0
        while checked < 40:
            z = rand_member_nonzero(rng, 2)
            d = z.denominator
            if d.evaluate(1) == d.evaluate(-1):
                continue
            f1 = X * d + (X * X - 1) * z.numerator
            ev = stable_range_witness(z)
            assert (ev.value_at_1, ev.value_at_minus_1) == (f1.evaluate(1), f1.evaluate(-1))
            checked += 1

    def test_raw_non_monic_denominator(self):
        # Left as given, d' = -(X^2+1) would flip both witness signs and the
        # check would raise CertificateError on a member of the ring.
        ev = stable_range_witness(DressElement(RationalFunction(Polynomial.one(), -GAMMA)))
        assert (ev.value_at_1, ev.value_at_minus_1) == (2, -2)
        assert ev.nonunit_certified
