from fractions import Fraction

import pytest

import oracle
from abelweb import (
    ExteriorForm,
    HomogeneousPoly,
    index_subsets,
    monomial_exponents,
    poly_space_dim,
    substitute,
    wedge,
)
from abelweb.exactalg import _minors
from helpers import evaluate, make_rng


def test_monomial_order_grlex():
    assert monomial_exponents(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomial_exponents(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomial_exponents(1, 4) == ((4,),)
    for nvars, degree in [(2, 3), (3, 2), (4, 3)]:
        assert len(monomial_exponents(nvars, degree)) == poly_space_dim(nvars, degree)
    p = HomogeneousPoly(2, 2, {(0, 2): 1, (1, 1): 2, (2, 0): 3})
    assert p.vector() == (Fraction(3), Fraction(2), Fraction(1))


def test_substitute_is_pullback():
    # f(u, v) = u*v pulled back along u = x1 + x2, v = x1 - x2 gives x1^2 - x2^2
    f = HomogeneousPoly(2, 2, {(1, 1): 1})
    g = substitute(f, [[1, 1], [1, -1]])
    assert g == HomogeneousPoly(2, 2, {(2, 0): 1, (0, 2): -1})


def test_substitute_respects_evaluation():
    rng = make_rng(4)
    for _ in range(10):
        f = oracle.from_vector(
            2, 3, [rng.randint(-4, 4) for _ in range(poly_space_dim(2, 3))]
        )
        forms = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        g = substitute(f, forms)
        point = [rng.randint(-3, 3) for _ in range(4)]
        pulled = [sum(c * x for c, x in zip(form, point)) for form in forms]
        assert evaluate(g, point) == evaluate(f, pulled)


def test_subset_order_colex():
    assert index_subsets(4, 2) == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))


def _covector(row) -> ExteriorForm:
    return ExteriorForm(len(row), 1, {(i,): c for i, c in enumerate(row)})


def test_wedge_antisymmetry_and_associativity():
    e = [_covector([1 if i == j else 0 for i in range(4)]) for j in range(4)]
    assert wedge(e[0], e[1]).coefficient((0, 1)) == 1
    assert wedge(e[1], e[0]).coefficient((0, 1)) == -1
    assert wedge(e[0], e[0]).is_zero
    left = wedge(wedge(e[2], e[0]), e[1])
    right = wedge(e[2], wedge(e[0], e[1]))
    assert left == right


def test_minors_equal_iterated_wedge():
    rng = make_rng(5)
    for _ in range(10):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
        iterated = _covector(rows[0])
        for row in rows[1:]:
            iterated = wedge(iterated, _covector(row))
        assert {s: v for s, v in _minors(rows, 5).items() if v} == iterated.coeffs


def test_minors_of_two_rows():
    assert _minors([[1, 0, 2], [0, 1, 3]], 3) == {(0, 1): 1, (0, 2): 3, (1, 2): -2}


def test_wedge_detects_dependence():
    assert wedge(_covector([1, 2, 3]), _covector([2, 4, 6])).is_zero
    assert not any(_minors([[1, 2, 3], [2, 4, 6]], 3).values())


def test_grade_overflow_rejected():
    with pytest.raises(ValueError):
        ExteriorForm(2, 3)
