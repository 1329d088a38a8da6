"""The value records: Residue, Point2, Matrix2, Hat, EncodingTriple, AutGroup,
IsoResult, CensusRow, CensusReport, Normalization and Correspondence.
Residue now lives in the tests' reference module, a dyadic.Record still.

The first nine were frozen dataclasses and the last two typing.NamedTuple
classes; the reprs below were captured from that code.
Pinned here: repr, hash (that of the tuple of the fields), pickling, equality
only with the same class, no assignment, the validation messages on every
construction route, and the order (none).
"""

import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dyhat import AffineMap, DyadicRational as D, EncodingTriple, Hat
from dyhat.classify import AutGroup, CensusReport, CensusRow, IsoResult
from dyhat.errors import InvalidHat
from dyhat.geometry import Matrix2, Point2
from dyhat.hats import Normalization
from dyhat.oracle import Correspondence

from reference import Residue, validate_encoding_triple

#: The witness of case c from T 1 3 5 to T 5 15 1.
_MAP = AffineMap.from_scaled(((1, 0, 3, -1), 0), ((0, 0), 0))
_MAP_REPR = (
    "AffineMap(linear=Matrix2(a=DyadicRational(1, 0), b=DyadicRational(0, 0), "
    "c=DyadicRational(3, 0), d=DyadicRational(-1, 0)), "
    "translation=Point2(x=DyadicRational(0, 0), y=DyadicRational(0, 0)))"
)
_COUNTS = {"Trivial": 1, "C2": 2, "C3": 0, "S3": 0}
_ROW = CensusRow(3, 5, 3, 2, _COUNTS, True)
_ROW_REPR = (
    "CensusRow(j=3, m=5, pointed_classes=3, isomorphism_classes=2, "
    "aut_counts={'Trivial': 1, 'C2': 2, 'C3': 0, 'S3': 0}, orbit_ok=True)"
)

#: (class, field values, repr of the former class with those fields)
SAMPLES = [
    (Residue, (3, 7), "Residue(value=3, modulus=7)"),
    (Point2, (D(1, -1), D(-3)),
     "Point2(x=DyadicRational(1, -1), y=DyadicRational(-3, 0))"),
    (Matrix2, (D(1), D(0), D(3, -2), D(-1)),
     "Matrix2(a=DyadicRational(1, 0), b=DyadicRational(0, 0), "
     "c=DyadicRational(3, -2), d=DyadicRational(-1, 0))"),
    (Hat, (-4, 3, 5), "Hat(i=-4, j=3, m=5)"),
    (EncodingTriple, (5, 3, 1), "EncodingTriple(i=5, j=3, m=1)"),
    (AutGroup, ("C2", (("ABC", _MAP), ("CBA", _MAP))),
     f"AutGroup(tag='C2', witnesses=(('ABC', {_MAP_REPR}), ('CBA', {_MAP_REPR})))"),
    (IsoResult, (True, "c", _MAP),
     f"IsoResult(isomorphic=True, case='c', witness={_MAP_REPR})"),
    (IsoResult, (False, None, None),
     "IsoResult(isomorphic=False, case=None, witness=None)"),
    (CensusRow, (3, 5, 3, 2, _COUNTS, True), _ROW_REPR),
    (CensusReport, (3, 5, (_ROW,)),
     f"CensusReport(j_max=3, m_max=5, rows=({_ROW_REPR},))"),
    (Normalization, (Hat(5, 15, 1), _MAP),
     f"Normalization(hat=Hat(i=5, j=15, m=1), witness={_MAP_REPR})"),
    (Correspondence, ("c", (0, 2, 1)), "Correspondence(case='c', perm=(0, 2, 1))"),
]

_IDS = [f"{cls.__name__}{k}" for k, (cls, _, _) in enumerate(SAMPLES)]

#: Records that hold a dict (aut_counts) and so, like the dataclasses, have no hash.
_UNHASHABLE = (CensusRow, CensusReport)

_ORDER = (operator.lt, operator.le, operator.gt, operator.ge)


@pytest.mark.parametrize("cls, fields, expected", SAMPLES, ids=_IDS)
def test_repr_and_hash_are_those_of_the_dataclass(cls, fields, expected):
    value = cls(*fields)
    assert repr(value) == expected
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(fields)


@pytest.mark.parametrize("cls, fields, expected", SAMPLES, ids=_IDS)
def test_pickle_and_copy_round_trip(cls, fields, expected):
    value = cls(*fields)
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value), value._make(fields),
               value._replace()]
    for other in copies:
        assert type(other) is cls
        assert other == value
        assert repr(other) == expected


@pytest.mark.parametrize("cls, fields, expected", SAMPLES, ids=_IDS)
def test_equal_only_to_the_same_class(cls, fields, expected):
    value = cls(*fields)
    assert value == cls(*fields) and not value != cls(*fields)
    # neither a plain tuple nor a record of another class, in either order
    others = [fields] + [other(*f) for other, f, _ in SAMPLES if other is not cls]
    for other in others:
        assert value != other and other != value
        assert not value == other and not other == value


def test_hat_and_triple_with_the_same_fields_differ():
    hat, triple = Hat(1, 3, 5), EncodingTriple(1, 3, 5)
    assert hat != triple and triple != hat
    assert hat != (1, 3, 5) and (1, 3, 5) != hat
    assert triple != (1, 3, 5) and (1, 3, 5) != triple
    assert len({hat, triple, (1, 3, 5)}) == 3


@pytest.mark.parametrize("cls, fields, expected", SAMPLES, ids=_IDS)
def test_assignment_raises(cls, fields, expected):
    value = cls(*fields)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == expected


@pytest.mark.parametrize("cls, fields, expected", SAMPLES, ids=_IDS)
def test_records_have_no_order(cls, fields, expected):
    value = cls(*fields)
    for op in _ORDER:
        for left, right in ((value, value), (value, fields), (fields, value)):
            with pytest.raises(TypeError):
                op(left, right)


@pytest.mark.parametrize("cls, fields, expected", SAMPLES, ids=_IDS)
def test_records_have_no_tuple_arithmetic(cls, fields, expected):
    value = cls(*fields)
    cases = [(operator.add, value, value), (operator.add, value, fields),
             (operator.add, fields, value), (operator.mul, value, 2),
             (operator.mul, 2, value), (operator.iadd, value, fields),
             (operator.imul, value, 2)]
    for op, left, right in cases:
        with pytest.raises(TypeError, match=f"^{cls.__name__} values have no arithmetic$"):
            op(left, right)


def _outcome(build):
    """What build() gives: its value as a tuple, or its exception's type
    and message."""
    try:
        return tuple(build())
    except Exception as error:
        return type(error), str(error)


def _checked(i, j, m):
    validate_encoding_triple(i, j, m)
    return i, j, m


def test_encoding_triple_validates_as_the_three_checks_on_a_grid():
    accepted = 0
    for i in range(-3, 20):
        for j in range(-3, 10):
            for m in range(-3, 4):
                got = _outcome(lambda: EncodingTriple(i, j, m))
                assert got == _outcome(lambda: _checked(i, j, m)), (i, j, m)
                accepted += got == (i, j, m)
    # each j in {1, 3, 5, 7, 9} admits j values of i, for m in {1, 3}
    assert accepted == 2 * (1 + 3 + 5 + 7 + 9)


_ints = st.one_of(st.integers(-40, 40), st.integers())
#: ints, and values that compare and take % like ints but are not ints
_numbers = st.one_of(_ints, st.booleans(), st.floats(-40, 40),
                     st.integers(-40, 40).map(float))


@given(_numbers, _numbers, _numbers)
def test_encoding_triple_validates_as_the_three_checks(i, j, m):
    assert _outcome(lambda: EncodingTriple(i, j, m)) == _outcome(lambda: _checked(i, j, m))


#: (class, valid fields, invalid fields, error, message)
INVALID = [
    (Residue, (3, 7), (3, 4), ValueError, "modulus must be an odd positive integer"),
    (Residue, (3, 7), (3, -7), ValueError, "modulus must be an odd positive integer"),
    (Residue, (3, 7), (7, 7), ValueError, r"residue value must lie in \[0, modulus\)"),
    (Residue, (3, 7), (-1, 7), ValueError, r"residue value must lie in \[0, modulus\)"),
    (Hat, (1, 3, 5), (1, 2, 5), InvalidHat, "j must be an odd positive integer, got 2"),
    (Hat, (1, 3, 5), (1, 3, -5), InvalidHat, "m must be an odd positive integer, got -5"),
    (EncodingTriple, (1, 3, 5), (1, 3, 4), InvalidHat,
     "m must be an odd positive integer, got 4"),
    (EncodingTriple, (1, 3, 5), (2, 3, 5), InvalidHat, r"i must be odd in 1\.\.5, got 2"),
    (EncodingTriple, (1, 3, 5), (7, 3, 5), InvalidHat, r"i must be odd in 1\.\.5, got 7"),
    (Hat, (1, 3, 5), (1, 2.5, 5), InvalidHat, r"j must be an odd positive integer, got 2\.5"),
    (Hat, (1, 3, 5), (1, 3, 5.0), InvalidHat, r"m must be an odd positive integer, got 5\.0"),
    (Hat, (1, 3, 5), (1, True, 5), InvalidHat, "j must be an odd positive integer, got True"),
    (Hat, (1, 3, 5), (2.5, 3, 5), InvalidHat, r"i must be an integer, got 2\.5"),
    (Hat, (1, 3, 5), (True, 3, 5), InvalidHat, "i must be an integer, got True"),
    (EncodingTriple, (1, 3, 5), (True, True, True), InvalidHat,
     "j must be an odd positive integer, got True"),
    (EncodingTriple, (1, 3, 5), (1, 3, True), InvalidHat,
     "m must be an odd positive integer, got True"),
    (EncodingTriple, (1, 3, 5), (1, 2.5, 5), InvalidHat,
     r"j must be an odd positive integer, got 2\.5"),
    (EncodingTriple, (1, 3, 5), (1.0, 3, 5), InvalidHat, r"i must be odd in 1\.\.5, got 1\.0"),
    (EncodingTriple, (1, 3, 5), (True, 3, 5), InvalidHat, r"i must be odd in 1\.\.5, got True"),
    # a value that is not an int prints as its repr: "3" and Fraction(3)
    # are not the int 3
    (Hat, (1, 3, 5), (1, "3", 5), InvalidHat, "j must be an odd positive integer, got '3'"),
    (Hat, (1, 3, 5), (1, Fraction(3), 5), InvalidHat,
     r"j must be an odd positive integer, got Fraction\(3, 1\)"),
    (Hat, (1, 3, 5), ("1", 3, 5), InvalidHat, "i must be an integer, got '1'"),
    (Hat, (1, 3, 5), (Fraction(1), 3, 5), InvalidHat, r"i must be an integer, got Fraction\(1, 1\)"),
    (EncodingTriple, (1, 3, 5), (1, 3, "5"), InvalidHat,
     "m must be an odd positive integer, got '5'"),
    (EncodingTriple, (1, 3, 5), ("1", 3, 5), InvalidHat, r"i must be odd in 1\.\.5, got '1'"),
    (EncodingTriple, (1, 3, 5), (Fraction(1), 3, 5), InvalidHat,
     r"i must be odd in 1\.\.5, got Fraction\(1, 1\)"),
]


@pytest.mark.parametrize("cls, valid, invalid, error, message", INVALID)
def test_every_construction_route_validates(cls, valid, invalid, error, message):
    value = cls(*valid)
    builds = [
        lambda: cls(*invalid),
        lambda: cls(**dict(zip(cls._fields, invalid))),
        lambda: cls._make(invalid),
        lambda: value._replace(**dict(zip(cls._fields, invalid))),
    ]
    for build in builds:
        with pytest.raises(error, match=f"^{message}$"):
            build()


def _int_opcode(n: int, protocol: int) -> bytes:
    """How a pickle of this protocol writes the small integer n."""
    return pickle.dumps(n, min(protocol, 1))[:-1]


@pytest.mark.parametrize("cls, valid, tampered, error, message", [
    (Residue, (3, 7), (9, 7), ValueError, r"residue value must lie in \[0, modulus\)"),
    (Hat, (1, 3, 5), (1, 4, 5), InvalidHat, "j must be an odd positive integer, got 4"),
    (EncodingTriple, (1, 3, 5), (7, 3, 5), InvalidHat, r"i must be odd in 1\.\.5, got 7"),
])
def test_unpickling_validates(cls, valid, tampered, error, message):
    # a pickle of a valid record, edited to hold one invalid field
    (old,), (new,) = ({a for a, b in zip(valid, tampered) if a != b},
                      {b for a, b in zip(valid, tampered) if a != b})
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(cls(*valid), protocol)
        before, after = _int_opcode(old, protocol), _int_opcode(new, protocol)
        assert data.count(before) == 1 and len(before) == len(after)
        with pytest.raises(error, match=f"^{message}$"):
            pickle.loads(data.replace(before, after))
