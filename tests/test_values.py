"""The value protocol of ``abelweb``: which types are immutable, and how
they compare.

Every immutable type derives from ``exactalg._Frozen``, which refuses
assignment with a message naming the class.  The value types derive
from ``exactalg._Value`` and compare and hash by one key each; objects
of different types are unequal even when their keys agree.  The other
frozen types compare by identity.  No class but the two bases defines
``__setattr__``, ``__eq__`` or ``__hash__``.
"""

import ast
import pathlib
import sys

import pytest

import abelweb
from abelweb import (
    AdaptedStructure,
    ConstantFoliation,
    ConstantWeb,
    ExteriorForm,
    HomogeneousPoly,
    Matrix,
    MomentWebSpec,
    PlaneArrangement,
    ProjectivePoint,
    RelationBasisElement,
    RncFit,
    moment_web,
    relation_space,
)
from abelweb.exactalg import _Frozen, _Value

# two constructions of one value per frozen type
SAMPLES = {
    Matrix: lambda: Matrix([[1, "1/2"]]),
    HomogeneousPoly: lambda: HomogeneousPoly(2, 1, {(1, 0): 3}),
    ExteriorForm: lambda: ExteriorForm(3, 2, {(0, 2): 1}),
    ConstantFoliation: lambda: ConstantFoliation(1, 2, Matrix([[1, 2]])),
    ConstantWeb: lambda: moment_web(MomentWebSpec(1, 2, range(4))),
    ProjectivePoint: lambda: ProjectivePoint([2, 1]),
    RelationBasisElement: lambda: relation_space(moment_web(MomentWebSpec(1, 2, range(4))), 0)[0],
    MomentWebSpec: lambda: MomentWebSpec(1, 2, range(4)),
    AdaptedStructure: lambda: AdaptedStructure(Matrix.identity(2), [ProjectivePoint([1, 0])]),
    PlaneArrangement: lambda: PlaneArrangement(1, 2, [Matrix([[1, 0, -1]])]),
    RncFit: lambda: RncFit(Matrix.identity(2), [1, 1], [1, 2], [0, 1]),
}


def _subclasses(cls):
    """The subclasses that their module holds (a mutant compiled by
    ``test_mutants`` derives from ``_Frozen`` too, but no module holds it)."""
    for sub in cls.__subclasses__():
        if sub is getattr(sys.modules[sub.__module__], sub.__name__, None):
            yield sub
            yield from _subclasses(sub)


def test_samples_cover_every_frozen_type():
    assert set(_subclasses(_Frozen)) - {_Value} == set(SAMPLES)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_frozen_types_refuse_assignment(cls):
    value = SAMPLES[cls]()
    message = f"^{cls.__name__} is immutable$"
    for name in (*cls.__slots__, "extra"):
        before = getattr(value, name, None)
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, 0)
        assert getattr(value, name, None) is before
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_values_compare_by_key_and_the_others_by_identity(cls):
    first, second = SAMPLES[cls](), SAMPLES[cls]()
    assert first == first and hash(first) == hash(first)
    if issubclass(cls, _Value):
        assert first == second and hash(first) == hash(second)
    else:
        assert first != second
    assert first != object() and not first == object()


def test_equal_keys_of_different_types_are_unequal():
    pairs = [
        (HomogeneousPoly(3, 3, {(0, 1, 2): 1}), ExteriorForm(3, 3, {(0, 1, 2): 1})),
        (HomogeneousPoly(2, 1), ExteriorForm(2, 1)),
    ]
    for poly, form in pairs:
        assert poly._key() == form._key()
        assert poly != form and form != poly


def test_zero_polynomials_of_different_degrees_are_unequal():
    assert HomogeneousPoly(2, 1) != HomogeneousPoly(2, 2)
    assert HomogeneousPoly(2, 1).is_zero and HomogeneousPoly(2, 2).is_zero


def test_only_the_two_bases_define_the_value_protocol():
    protocol = {"__setattr__", "__eq__", "__hash__"}
    defined = {}
    for path in sorted(pathlib.Path(abelweb.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                names = {item.name for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
                names |= {target.id for item in node.body if isinstance(item, ast.Assign)
                          for target in item.targets if isinstance(target, ast.Name)}
                if names & protocol:
                    defined[node.name] = names & protocol
    assert defined == {"_Frozen": {"__setattr__"}, "_Value": {"__eq__", "__hash__"}}
