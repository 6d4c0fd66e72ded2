"""Value semantics of every dataclass the library returns: frozen, slotted,
equal however built, and unchanged by replace, pickle and deepcopy."""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction

import pytest

import dressring
from dressring import (
    DressElement,
    IdealGens,
    Mat2,
    Polynomial,
    SeriesBase,
    TruncLaurent,
    classify_numerator,
    factor_row_matrix,
    ideal_inverse,
    isolate_real_roots,
    parse_matrix,
    parse_scalar,
    positivity_certificate,
    principal_generator,
    stable_range_witness,
    verify_factorization,
)


def D(text: str) -> DressElement:
    return DressElement(parse_scalar(text))


def _samples() -> dict[type, tuple[object, object]]:
    """Two library-built instances of each value class, differing in some field."""
    x = Polynomial.x()
    a, b = D("X/(X^2+1)"), D("1/(X^2+1)")
    even = principal_generator(D("(X^2-1)/(X^2+1)^2"), D("2*X/(X^2+1)^2"))
    odd = principal_generator(D("X/(X^2+1)^2"), D("1/(X^2+1)^2"))
    fact = factor_row_matrix(a, b)
    other_fact = factor_row_matrix(b, a)
    roots = isolate_real_roots(x * x - 2) + isolate_real_roots(x - 1)
    pairs = [
        (x + Fraction(1, 2), x * x - 3),
        (parse_scalar("X/(X^2+1)"), parse_scalar("(X-2)/(X+3)")),
        (a, b),
        (classify_numerator(D("(X^2-1)*(X^2+1)/(X^2+1)^3")), classify_numerator(D("X/(X^2+1)"))),
        (IdealGens.of(a, b), IdealGens.of(b)),
        (even, odd),
        (ideal_inverse(a, b), ideal_inverse(D("(X^2-1)/(X^2+1)"), a)),
        (Mat2.row(a, b), Mat2.identity()),
        (positivity_certificate(x + 1, x), positivity_certificate(x, x - 1)),
        (fact, other_fact),
        (verify_factorization(fact),
         verify_factorization(dataclasses.replace(fact, target=other_fact.target))),
        (stable_range_witness(a), stable_range_witness(D("X^3/(X^2+1)^2"))),
        (TruncLaurent.make(SeriesBase.REAL_HENSELIAN, 0, [1, 2]),
         TruncLaurent.make(SeriesBase.RATIONAL_HENSELIAN, -1, [3])),
        (parse_matrix("[[1,X],[0,0]]"), parse_matrix("[[X,0],[1,1/(X+1)]]")),
        (roots[0], roots[-1]),
    ]
    return {type(first): (first, second) for first, second in pairs}


SAMPLES = _samples()
CLASSES = sorted(SAMPLES, key=lambda cls: cls.__name__)


def _field_values(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def test_every_value_class_is_sampled():
    # A value class added later must join SAMPLES, so the tests below cover it.
    found = {obj for module in vars(dressring).values() if inspect.ismodule(module)
             for obj in vars(module).values()
             if inspect.isclass(obj) and dataclasses.is_dataclass(obj)}
    assert found == set(SAMPLES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestValueSemantics:
    def test_assignment_raises(self, cls):
        obj, other = SAMPLES[cls]
        before = _field_values(obj)
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(other, f.name))
        assert _field_values(obj) == before

    def test_no_instance_dict(self, cls):
        for obj in SAMPLES[cls]:
            assert not hasattr(obj, "__dict__")

    def test_keyword_and_positional_construction_agree(self, cls):
        for obj in SAMPLES[cls]:
            values = _field_values(obj)
            by_keyword, by_position = cls(**values), cls(*values.values())
            assert by_keyword == by_position == obj
            assert hash(by_keyword) == hash(by_position) == hash(obj)

    def test_replace_changes_one_field(self, cls):
        obj, other = SAMPLES[cls]
        before, new = _field_values(obj), _field_values(other)
        changed = [name for name in before if before[name] != new[name]]
        assert changed
        for name in changed:
            after = _field_values(dataclasses.replace(obj, **{name: new[name]}))
            assert after == {**before, name: new[name]}

    def test_pickle_and_deepcopy_round_trip(self, cls):
        for obj in SAMPLES[cls]:
            for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert type(back) is cls and back == obj and hash(back) == hash(obj)
