"""The immutable value types of td2g.

`Obj`, `CrossedIntertwiner`, `NerveModel`, `DoubleCoverElement`,
`TDGroupElement`, `TDHElement` and `TDMorphism` are plain records on
`td2g.intlinalg.Record`: built positionally or by keyword, they compare
and hash by their fields, print as `Name(field=value, ...)`, refuse
assignment and deletion, and are never equal to a tuple.  Every other
slotted value type refuses assignment and deletion too.
"""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import td2g
from td2g.crossedmod import CrossedIntertwiner, TDGroupElement, TDHElement, TDMorphism
from td2g.groups import PseudoOrthogonal, flip_element
from td2g.intlinalg import IntMat, Phase, RatVec, Record
from td2g.kinvariant import DoubleCoverElement
from td2g.rng import XorShift64Star
from td2g.tdcocycle import NerveModel, TDCocycle, _Entries, default_nerve, random_cocycle
from td2g.twogroup import Mor, Obj, mor_identity, obj_unit, section

G = TDGroupElement(RatVec([1, Fraction(1, 2)]))
H = TDHElement((1, -2), Phase(Fraction(1, 3)))
E1 = PseudoOrthogonal.identity(1)

# class -> (field values, different field values, repr of the first)
CASES = {
    Obj: (
        (E1, IntMat.zeros(2)),
        (flip_element(1), section(flip_element(1)).x),
        "Obj(g=PseudoOrthogonal(n=1, iso=1, IntMat([[1, 0], [0, 1]])), x=IntMat([[0, 0], [0, 0]]))",
    ),
    CrossedIntertwiner: (
        (IntMat.identity(2), 1, IntMat.zeros(2)),
        (IntMat.identity(2), -1, IntMat.zeros(2)),
        "CrossedIntertwiner(amat=IntMat([[1, 0], [0, 1]]), eps=1, xmat=IntMat([[0, 0], [0, 0]]))",
    ),
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


# slotted classes whose instances are meant to change: a generator's state
# and the per-call memos and views of the k-invariant and tdcorr kernels
MUTABLE = {
    XorShift64Star,
    td2g.kinvariant._Products,
    td2g.kinvariant._Chain,
    td2g.kinvariant._Actions,
    _Entries,
}

# one instance of every slotted value type that is not a plain record
VALUES = {
    IntMat: IntMat([[1]]),
    RatVec: RatVec([1, Fraction(1, 2)]),
    Phase: Phase(Fraction(1, 3)),
    PseudoOrthogonal: PseudoOrthogonal.identity(1),
    Mor: mor_identity(obj_unit(1)),
    TDCocycle: random_cocycle(default_nerve(), 1, 3),
}
VALUES.update({cls: cls(*CASES[cls][0]) for cls in CASES})


def _slotted_classes():
    for info in pkgutil.iter_modules(td2g.__path__):
        module = importlib.import_module(f"td2g.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and cls.__dict__.get("__slots__"):
                yield cls


def test_every_slotted_class_is_listed():
    assert set(_slotted_classes()) == set(VALUES) | MUTABLE


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_types_refuse_assignment_and_deletion(cls):
    x = VALUES[cls]
    before = {name: getattr(x, name) for name in cls.__slots__}
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert all(getattr(x, name) is value for name, value in before.items())
