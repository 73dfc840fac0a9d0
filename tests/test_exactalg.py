import math
from fractions import Fraction

import pytest

import oracle
from abelweb import InternalContradictionError, Matrix, binomial, rational
from abelweb import exactalg
from abelweb.exactalg import _sparse_echelon, certified_kernel
from helpers import dense_kernel, draw, make_rng, random_invertible, random_matrix, sparse_rows


def test_rational_parsing():
    assert rational("3/4") == Fraction(3, 4)
    assert rational("-7") == Fraction(-7)
    assert rational(" 2/6 ") == Fraction(1, 3)
    assert rational(5) == Fraction(5)
    with pytest.raises(ValueError):
        rational("1/0")
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(TypeError):
        rational(True)


def test_binomial_conventions():
    assert binomial(5, 2) == 10
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(0, 0) == 1


def test_matrix_immutable_and_shape():
    m = Matrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = 5
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    assert m[1, 0] == 3


def test_rref_and_rank_agree():
    rng = make_rng(1)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        _, pivots = m.rref()
        assert m.rank() == len(pivots)
        assert m.rank() == m.transpose().rank()


def _kernel(m: Matrix) -> list[tuple[Fraction, ...]]:
    """``certified_kernel`` of the integer rows of ``m``, as dense tuples."""
    _, basis = certified_kernel(sparse_rows(m), m.cols)
    return dense_kernel(basis, m.cols)


def test_kernel_basis_canonical():
    m = Matrix([[1, 2, 3], [2, 4, 6]])
    basis = _kernel(m)
    assert len(basis) == 2
    # free coordinates carry 1, in increasing column order
    assert basis[0] == (Fraction(-2), Fraction(1), Fraction(0))
    assert basis[1] == (Fraction(-3), Fraction(0), Fraction(1))
    for vec in basis:
        assert m.apply(vec) == (Fraction(0),) * 2


def test_kernel_vectors_lie_in_kernel_random():
    rng = make_rng(2)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 7))
        for vec in _kernel(m):
            assert all(x == 0 for x in m.apply(vec))
        assert m.rank() + len(_kernel(m)) == m.cols


def test_det_inverse_solve():
    rng = make_rng(3)
    for _ in range(15):
        m = random_invertible(rng, rng.randint(1, 5))
        assert m.det() != 0
        assert m * m.inverse() == Matrix.identity(m.rows)
        rhs = [rng.randint(-5, 5) for _ in range(m.rows)]
        x = m.inverse().apply(rhs)
        assert m.apply(x) == tuple(Fraction(v) for v in rhs)
    singular = Matrix([[1, 2], [2, 4]])
    assert singular.det() == 0
    assert not singular.is_invertible()
    with pytest.raises(ValueError, match="singular"):
        singular.inverse()


def _seeded_matrix(rng, rows, cols, rank, rational) -> Matrix:
    """A rows x cols matrix of rank at most ``rank``: a product through a
    middle dimension of ``rank``, with entries in -3..3 over 1, 2 or 3
    when ``rational``."""
    def entry():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3) if rational else (1,)))

    a = [[entry() for _ in range(rank)] for _ in range(rows)]
    b = [[entry() for _ in range(cols)] for _ in range(rank)]
    return Matrix([[sum(row[t] * b[t][j] for t in range(rank)) for j in range(cols)] for row in a])


def test_dense_eliminations_need_no_prime_and_no_minors(monkeypatch):
    # integer and rational, wide, tall and square, of full rank and rank
    # deficient, up to 14 x 14: every value is taken from the oracle first,
    # then the sparse elimination and the Laplace sweep are made to raise
    rng = make_rng(43)
    cases = []
    for k in range(84):
        size = k % 14 + 1
        rows, cols = [(size, size), (size, size + rng.randint(1, 4)),
                      (size + rng.randint(1, 4), size)][k % 3]
        full = min(rows, cols)
        rank = full if k % 2 else rng.randint(0, full - 1) if full > 1 else 0
        m = _seeded_matrix(rng, rows, cols, rank, rational=k % 4 >= 2)
        reduced, pivots = oracle.rref(m)
        det = oracle.det(m) if rows == cols else None
        cases.append((m, oracle.rank(m), (reduced, pivots),
                      Matrix(reduced.entries[: len(pivots)]), det,
                      oracle.inverse(m) if det else None))

    def unused(*args):
        raise AssertionError("a dense elimination needs no sparse elimination and no minors")

    for name in ("certified_kernel", "_sparse_echelon", "_minors"):
        monkeypatch.setattr(exactalg, name, unused)
    cached = exactalg._laplace_terms.cache_info().currsize
    kinds = set()
    for m, rank, rref, row_space, det, inverse in cases:
        assert (m.rank(), m.rref(), m.row_space_rref()) == (rank, rref, row_space), m
        assert m.is_invertible() == (inverse is not None), m
        if det is not None:
            assert m.det() == det, m
        if inverse is not None:
            assert [list(row) for row in m.inverse().entries] == inverse, m
        elif m.rows == m.cols:
            with pytest.raises(ValueError, match="^matrix is singular$"):
                m.inverse()
        kinds.add(((m.rows > m.cols) - (m.rows < m.cols), rank == min(m.rows, m.cols),
                   m.den > 1))
    assert kinds == {(shape, full, rational) for shape in (-1, 0, 1)
                     for full in (False, True) for rational in (False, True)}
    big = next(m for m, _, _, _, det, _ in cases if m.rows == m.cols == 14 and det)
    assert big.det() != 0
    assert exactalg._laplace_terms.cache_info().currsize == cached


def test_row_space_rref_identifies_span():
    a = Matrix([[1, 2], [0, 1]])
    b = Matrix([[2, 5], [1, 2]])
    assert a.row_space_rref() == b.row_space_rref()


def test_json_round_trip():
    m = Matrix([[Fraction(1, 3), -2], [0, Fraction(7, 2)]])
    assert Matrix.from_json(m.to_json()) == m
    assert m.to_json()[0][0] == "1/3"


def test_sparse_echelon_rank_and_span():
    # the echelon of sparse integer rows: its size is the rank, each row
    # starts at its pivot with non-zero integers of content 1, and it spans
    # the rows
    rng = make_rng(40)
    for _ in range(60):
        rows = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), -3, 3)
        ints = [[int(x) for x in row] for row in rows.entries]
        if rng.random() < 0.5:
            ints.append([2 * a - b for a, b in zip(ints[0], ints[-1])])
        sparse = [{c: a for c, a in enumerate(row) if a} for row in ints]
        echelon = _sparse_echelon(sparse)
        assert len(echelon) == Matrix(ints).rank()
        for q, row in echelon.items():
            assert min(row) == q and 0 not in row.values() and math.gcd(*row.values()) == 1
        # every input row reduces to zero after the echelon's own rows
        assert _sparse_echelon([*echelon.values(), *sparse]).keys() == echelon.keys()


@pytest.mark.parametrize("fault", ["drop a row", "skip back-substitution"])
def test_broken_elimination_raises_instead_of_hanging(monkeypatch, fault):
    # a faulty elimination fails the exact check of its one pass and raises
    # InternalContradictionError: there is no second elimination to wait for
    calls = []
    real = exactalg._sparse_echelon

    def drop_a_row(rows):
        calls.append(fault)
        return real(list(rows)[:-1])

    def leave_unreduced(echelon):
        # the echelon keeps its entries at later pivots
        calls.append(fault)

    rng = make_rng(41)

    def full_rows():
        k = rng.randint(2, 6)
        return [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(k + 3)] for _ in range(k)]

    cases = [([{0: 1, 1: 1, 2: 1}, {1: 1, 2: 2, 3: 1}], 4)]
    for _ in range(10):
        # dense rows of full row rank: every row counts, and the first row has
        # entries at the later pivots, so back-substitution has work to do
        rows = draw(full_rows, lambda rows: Matrix(rows).rank() == len(rows),
                    "Matrix(rows).rank() == len(rows)")
        cases.append(([dict(enumerate(row)) for row in rows], len(rows) + 3))
    if fault == "drop a row":
        monkeypatch.setattr(exactalg, "_sparse_echelon", drop_a_row)
    else:
        monkeypatch.setattr(exactalg, "_back_substitute", leave_unreduced)
    for rows, ncols in cases:
        calls.clear()
        with pytest.raises(InternalContradictionError):
            exactalg.certified_kernel(rows, ncols)
        assert calls == [fault]
