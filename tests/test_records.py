"""The five immutable records built on `td2g.intlinalg.Record`.

`NerveModel`, `DoubleCoverElement`, `TDGroupElement`, `TDHElement` and
`TDMorphism` are built positionally or by keyword, compare and hash by
their fields, print as `Name(field=value, ...)`, refuse assignment, and
are never equal to a tuple.
"""

from fractions import Fraction

import pytest

from td2g.crossedmod import TDGroupElement, TDHElement, TDMorphism
from td2g.groups import PseudoOrthogonal, flip_element
from td2g.intlinalg import Phase, RatVec, Record
from td2g.kinvariant import DoubleCoverElement
from td2g.tdcorr import NerveModel

G = TDGroupElement(RatVec([1, Fraction(1, 2)]))
H = TDHElement((1, -2), Phase(Fraction(1, 3)))
E1 = PseudoOrthogonal.identity(1)

# class -> (field values, different field values, repr of the first)
CASES = {
    TDGroupElement: ((G.a,), (RatVec([0, 0]),), "TDGroupElement(a=RatVec(['1', '1/2']))"),
    TDHElement: (
        ((1, -2), Phase(Fraction(1, 3))),
        ((1, -2), Phase(0)),
        "TDHElement(m=(1, -2), s=Phase(1/3))",
    ),
    TDMorphism: (
        (H, G),
        (H, TDGroupElement(RatVec([0, 0]))),
        "TDMorphism(h=TDHElement(m=(1, -2), s=Phase(1/3)), g=TDGroupElement(a=RatVec(['1', '1/2'])))",
    ),
    DoubleCoverElement: (
        ((1, 0), E1),
        ((1, 0), flip_element(1)),
        "DoubleCoverElement(u=(1, 0), a=PseudoOrthogonal(n=1, iso=1, IntMat([[1, 0], [0, 1]])))",
    ),
    NerveModel: (
        (("p", "q"), {"p": (0, 1), "q": (1,)}),
        (("p",), {"p": (0,)}),
        "NerveModel(points=('p', 'q'), cover={'p': (0, 1), 'q': (1,)})",
    ),
}
RECORDS = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


@RECORDS
def test_positional_and_keyword_construction_agree(cls):
    values, _, _ = CASES[cls]
    names = cls.__slots__
    x = cls(*values)
    assert tuple(getattr(x, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == x
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == x


@RECORDS
def test_equality_and_hash_by_fields(cls):
    values, other, _ = CASES[cls]
    x, y = cls(*values), cls(*values)
    assert x == y and not x != y
    assert x != cls(*other)
    if cls is NerveModel:
        # like a tuple holding a dict, a nerve's cover makes it unhashable
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == hash(values)
        assert len({x, y, cls(*other)}) == 2


@RECORDS
def test_repr(cls):
    values, _, text = CASES[cls]
    assert repr(cls(*values)) == text


@RECORDS
def test_assignment_refused(cls):
    values, other, _ = CASES[cls]
    x = cls(*values)
    for name in cls.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, other[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == cls(*values)


@RECORDS
def test_never_equal_to_a_tuple(cls):
    values, _, _ = CASES[cls]
    x = cls(*values)
    assert not isinstance(x, tuple)
    assert x != values and values != x
    assert x != tuple(values[:1]) and x != ()


def test_only_a_record_of_the_same_class_is_equal():
    class Twin(Record):
        __slots__ = ("a",)

    assert Twin(G.a) == Twin(a=G.a)
    assert Twin(G.a) != G and G != Twin(G.a)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (((1,),), {}, "TDHElement() missing argument 's'"),
        (((1,), Phase(0), 3), {}, "TDHElement() takes 2 arguments but 3 were given"),
        (((1,),), {"m": (1,)}, "TDHElement() got multiple values for argument 'm'"),
        (((1,), Phase(0)), {"q": 1}, "TDHElement() got an unexpected keyword argument 'q'"),
    ],
)
def test_bad_arguments_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError) as exc:
        TDHElement(*args, **kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "points, cover, message",
    [
        ((), {}, "nerve needs at least one point"),
        (("p", "q"), {"p": (0,)}, "point 'q' is not covered"),
        (("p",), {"p": ()}, "point 'p' is not covered"),
        (("p",), {"p": (0, 1, 0)}, "duplicate cover indices at point 'p'"),
    ],
)
def test_nerve_validation(points, cover, message):
    with pytest.raises(ValueError) as exc:
        NerveModel(points, cover)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "u, error, message",
    [
        ((2, 0), ValueError, "cover component must be a 0/1 vector of length 2n"),
        ((1,), ValueError, "cover component must be a 0/1 vector of length 2n"),
        ((1, 0, 0), ValueError, "cover component must be a 0/1 vector of length 2n"),
        ((True, 0), TypeError, "integer entry required, got True"),
        ((Fraction(1), 0), TypeError, "integer entry required, got Fraction(1, 1)"),
    ],
)
def test_double_cover_validation(u, error, message):
    with pytest.raises(error) as exc:
        DoubleCoverElement(u, E1)
    assert str(exc.value) == message


def test_double_cover_stores_u_as_a_tuple():
    x = DoubleCoverElement(u=[1, 0], a=E1)
    assert x.u == (1, 0) and type(x.u) is tuple
    assert x == DoubleCoverElement((1, 0), E1)
