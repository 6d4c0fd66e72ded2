import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressring import realroots
from dressring import (
    CertificatePreconditionError,
    DressElement,
    IdealGens,
    NotInDressRing,
    Polynomial,
    RationalFunction,
    ShapeViolation,
    ZeroPolynomialError,
    associates,
    classify_numerator,
    divides,
    factor_row_matrix,
    factor_small,
    ideal_inverse,
    is_member,
    is_principal,
    is_unit,
    positivity_certificate,
    principal_generator,
    stable_range_witness,
)

from helpers import rand_member, rand_member_nonzero, rand_rf, rand_sum_of_two_squares, rand_unit

X = Polynomial.x()
GAMMA = X * X + 1


class TestMembership:
    def test_examples(self):
        assert is_member(RationalFunction.make(X, GAMMA))
        assert not is_member(RationalFunction.from_polynomial(X))
        assert not is_member(RationalFunction.make(Polynomial.one(), X * X - 1))
        assert is_member(RationalFunction.zero())

    def test_membership_on_unreduced_presentation(self):
        # (X^3 + X)/(X^2+1)^2 reduces to X/(X^2+1); membership must agree.
        r = RationalFunction.make(X**3 + X, GAMMA * GAMMA)
        assert is_member(r)

    def test_checked_construction(self):
        with pytest.raises(NotInDressRing) as exc:
            DressElement(RationalFunction.from_polynomial(X))
        assert exc.value.reason == "positive-degree"
        with pytest.raises(NotInDressRing) as exc:
            DressElement(RationalFunction.make(Polynomial.one(), X * X - 1))
        assert exc.value.reason == "denominator-has-real-roots"

    def test_raw_non_monic_denominator_takes_the_monic_form(self):
        raw = DressElement(RationalFunction(Polynomial.one(), -GAMMA))
        assert str(raw) == "(-1)/(X^2 + 1)"
        assert raw == DressElement.from_parts(Polynomial.constant(-1), GAMMA)
        assert raw.denominator == GAMMA
        # A monic denominator is kept as given, reduced or not.
        unreduced = RationalFunction(X * GAMMA, GAMMA * GAMMA)
        assert DressElement(unreduced).value is unreduced

    @pytest.mark.parametrize("num", [Polynomial.one(), Polynomial.zero()],
                             ids=["one-over-zero", "zero-over-zero"])
    def test_raw_zero_denominator_is_rejected(self, num):
        value = RationalFunction(num, Polynomial.zero())
        assert not is_member(value)
        with pytest.raises(NotInDressRing) as exc:
            DressElement(value)
        assert exc.value.reason == "denominator-has-real-roots"

    def test_ring_closure_random(self):
        rng = random.Random(55)
        for _ in range(200):
            a = rand_member(rng)
            b = rand_member(rng)
            assert is_member((a + b).value)
            assert is_member((a * b).value)

    def test_generator_membership(self):
        rng = random.Random(56)
        one = RationalFunction.one()
        for _ in range(100):
            x = rand_rf(rng, 3)
            assert is_member(one / (one + x * x))


class TestUnits:
    def test_examples(self):
        assert is_unit(RationalFunction.make(GAMMA, X * X + 2))
        assert not is_unit(RationalFunction.make(GAMMA, X**4 + 1))
        assert is_unit(RationalFunction.make(X**4 - X * X + 1, GAMMA * GAMMA))

    def test_unit_and_inverse_are_members(self):
        rng = random.Random(57)
        for _ in range(200):
            u = rand_unit(rng)
            assert is_member(u.value)
            assert is_member(u.inverse().value)

    def test_nonunit_inverse_raises(self):
        with pytest.raises(NotInDressRing):
            DressElement.from_parts(X, GAMMA).inverse()


class TestDivisibility:
    def test_examples(self):
        a = DressElement.from_parts(Polynomial.one(), GAMMA)
        b = DressElement.from_parts(X, GAMMA)
        assert not divides(a, b)
        a2 = DressElement.from_parts(X, GAMMA)
        b2 = DressElement.from_parts(X * X, GAMMA * GAMMA)
        assert divides(a2, b2)
        assert divides(a, DressElement.zero())

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            divides(DressElement.zero(), DressElement.one())

    def test_associates_examples(self):
        a = DressElement.from_parts(X, GAMMA)
        b = DressElement.from_parts(2 * X, X * X + 2)
        # ratio (X^2+2)/(2(X^2+1)) is a unit: derived via is_unit
        assert is_unit(a.value / b.value)
        assert associates(a, b)
        c = DressElement.from_parts(X * X, GAMMA * GAMMA)
        assert not associates(a, c)
        assert associates(DressElement.zero(), DressElement.zero())
        assert not associates(a, DressElement.zero())


class TestDressIdentity:
    def test_identity_exact_random(self):
        rng = random.Random(58)
        one = RationalFunction.one()
        for _ in range(200):
            x = rand_rf(rng, 4)
            y, z = x + one, x - one
            lhs = (2 * x) / (one + x * x)
            rhs = (y * y - z * z) / (y * y + z * z)
            assert lhs == rhs

    def test_sum_of_squares_degree_rule(self):
        rng = random.Random(59)
        for _ in range(200):
            f1, g1 = rand_sum_of_two_squares(rng), rand_sum_of_two_squares(rng)
            f2, g2 = rand_sum_of_two_squares(rng), rand_sum_of_two_squares(rng)
            r1 = RationalFunction.make(f1, g1)
            r2 = RationalFunction.make(f2, g2)
            assert (r1 + r2).degree == max(r1.degree, r2.degree)


@settings(max_examples=40, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 4), st.integers(-6, 6))
def test_membership_closure_hypothesis(c0, c1, b_off, d0):
    gamma = Polynomial.from_coeffs([b_off * b_off + 1, 2 * b_off, 1])  # (X+b)^2 + 1
    a = DressElement.from_parts(Polynomial.from_coeffs([c0, c1]), gamma)
    b = DressElement.from_parts(Polynomial.from_coeffs([d0]), gamma)
    assert is_member((a + b).value) and is_member((a * b).value)


class TestClassifyNumerator:
    def test_split_linear_and_rootfree(self):
        a = DressElement.from_parts(X * (X * X + 1), (X * X + 2) ** 2)
        c = classify_numerator(a)
        assert [(str(f), m) for f, m in c.real_rooted] == [("X", 1)]
        assert [(str(f), m) for f, m in c.root_free] == [("X^2 + 1", 1)]
        assert c.mixed == ()
        assert c.reassemble() == X * (X * X + 1)

    def test_mixed_cubic(self):
        # X^3 - 2 has exactly one real root (2^(1/3)): 1 < 3 = degree, so mixed
        a = DressElement.from_parts(X**3 - 2, (X * X + 1) ** 2)
        c = classify_numerator(a)
        assert c.real_rooted == () and c.root_free == ()
        assert [str(f) for f, _ in c.mixed] == ["X^3 - 2"]

    def test_constant(self):
        c = classify_numerator(DressElement.from_rational(5))
        assert c.constant == 5
        assert c.real_rooted == c.root_free == c.mixed == ()

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            classify_numerator(DressElement.zero())

    def test_one_sturm_chain_per_factor(self, monkeypatch):
        # One chain for the membership check of the denominator, one for the
        # single squarefree factor of the numerator; none for its cofactor.
        built = []
        original = realroots._sturm_data

        def counting(p):
            built.append(p)
            return original(p)

        monkeypatch.setattr(realroots, "_sturm_data", counting)
        monkeypatch.setattr(realroots, "_gamma_cache", {})
        reduced = (X - 1) * (X + 2) * (X * X - 3)
        c = classify_numerator(DressElement.from_parts(reduced * (X * X + 1), (X * X + 1) ** 3))
        assert len(built) == 2
        assert [(str(f), m) for f, m in c.real_rooted] == [("X + 2", 1), ("X - 1", 1),
                                                          ("X^2 - 3", 1)]
        assert c.root_free == c.mixed == ()
        assert c.constant == 1 and c.reassemble() == reduced

    def test_roots_closer_than_the_recursion_limit(self):
        big = 2**1100
        num = (X - 1) * (big * X - big - 1)
        c = classify_numerator(DressElement.from_parts(num, (X * X + 1) ** 2))
        assert c.real_rooted == ((X - 1, 1), (X - 1 - Fraction(1, big), 1))
        assert c.root_free == c.mixed == ()
        assert c.constant == big and c.reassemble() == num

    def test_multiplicities_and_reassembly(self):
        rng = random.Random(60)
        for _ in range(30):
            a = rand_member_nonzero(rng)
            c = classify_numerator(a)
            assert c.reassemble() == a.numerator



class TestElementOperators:
    def test_truth_reflected_and_power(self):
        a = DressElement.from_parts(X, GAMMA)
        assert a and not DressElement.zero()
        assert 1 - a == DressElement.from_parts(X * X - X + 1, GAMMA)
        assert a**2 == DressElement.from_parts(X * X, GAMMA * GAMMA)
        with pytest.raises(TypeError):
            a + "x"


class TestRingElementArguments:
    """The public functions on ring elements read a rational number, a
    Polynomial or a RationalFunction as the element it names, through the
    checked constructor, and reject any other type."""

    def test_rationals_name_elements(self):
        one, zero = DressElement.one(), DressElement.zero()
        report = principal_generator(1, 0)
        assert report.principal and report.s == 0
        assert report.generator == one and report.expansion == (one, zero)
        assert is_principal(1, 0)
        fact = factor_row_matrix(1, 0)
        assert [str(m) for m in fact.factors] == ["[[1, -1], [0, 0]]", "[[1, 0], [0, 0]]"]
        assert factor_small(1, 0) == fact
        with pytest.raises(ShapeViolation, match="^the zero ideal is not invertible$"):
            ideal_inverse(0, 0)
        with pytest.raises(CertificatePreconditionError):
            positivity_certificate(0, X)
        assert positivity_certificate(2, 3) == positivity_certificate(2 * X**0, 3 * X**0)
        evidence = stable_range_witness(0)
        assert (evidence.value_at_1, evidence.value_at_minus_1) == (1, -1)
        assert divides(2, RationalFunction.make(X, GAMMA))
        assert associates(Fraction(2, 3), 5) and not associates(1, 0)
        assert classify_numerator(Fraction(5, 2)).constant == Fraction(5, 2)
        assert IdealGens.of(0, 1).gens == (zero, one)

    @pytest.mark.parametrize("func, args", [
        pytest.param(f, args, id=f.__qualname__) for f, args in [
            (principal_generator, ("X", 1)),
            (is_principal, (1, 0.5)),
            (ideal_inverse, (None, 1)),
            (divides, (1, [1])),
            (associates, ("1", 1)),
            (classify_numerator, (2.0,)),
            (IdealGens.of, ("X",)),
            (factor_row_matrix, (1, "0")),
            (factor_small, (b"1", 0)),
            (stable_range_witness, (0.0,)),
            (positivity_certificate, ("X", X)),
        ]])
    def test_other_types_are_a_type_error(self, func, args):
        with pytest.raises(TypeError):
            func(*args)

    def test_values_outside_the_ring_are_rejected(self):
        with pytest.raises(NotInDressRing):
            factor_row_matrix(X, 1)
        with pytest.raises(NotInDressRing):
            principal_generator(1, RationalFunction.make(Polynomial.one(), X))
