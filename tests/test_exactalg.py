import itertools
import math
from fractions import Fraction

import pytest

from abelweb import InternalContradictionError, Matrix, binomial, rational
from abelweb import exactalg
from abelweb.exactalg import _extend_mod, _is_prime, _prime_below, _primes
from helpers import make_rng, random_invertible, random_matrix


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


def test_kernel_basis_canonical():
    m = Matrix([[1, 2, 3], [2, 4, 6]])
    basis = m.kernel_basis()
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
        for vec in m.kernel_basis():
            assert all(x == 0 for x in m.apply(vec))
        assert m.rank() + len(m.kernel_basis()) == m.cols


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


def test_row_space_rref_identifies_span():
    a = Matrix([[1, 2], [0, 1]])
    b = Matrix([[2, 5], [1, 2]])
    assert a.row_space_rref() == b.row_space_rref()


def test_json_round_trip():
    m = Matrix([[Fraction(1, 3), -2], [0, Fraction(7, 2)]])
    assert Matrix.from_json(m.to_json()) == m
    assert m.to_json()[0][0] == "1/3"


def test_prime_sequence():
    assert [n for n in range(60) if _is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    for n in range(60, 5000):
        assert _is_prime(n) == all(n % q for q in range(2, math.isqrt(n) + 1)), n
    # strong pseudoprimes to several of the bases, and a Carmichael number
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 561):
        assert not _is_prime(n)
    primes = list(itertools.islice(_primes(), 5))
    assert primes[0] == 2**61 - 1
    assert primes == sorted(primes, reverse=True) and all(map(_is_prime, primes))
    assert not any(_is_prime(n) for n in range(primes[1] + 1, primes[0]))


def test_extend_mod_rank_and_persistence():
    # check_pg extends one echelon per prefix of a subset, so an extension
    # must leave the pivots and span of the echelon it starts from as they
    # were; a lazy rescale may rewrite a shared row in place, by a unit
    rng = make_rng(40)
    p = _prime_below(2**61)
    for _ in range(60):
        rows = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), -3, 3)
        ints = [[int(x) for x in row] for row in rows.entries]
        if rng.random() < 0.5:
            ints.append([2 * a - b for a, b in zip(ints[0], ints[-1])])
        sparse = [{c: a for c, a in enumerate(row) if a} for row in ints]
        split = rng.randint(0, len(ints))
        head = _extend_mod({}, sparse[:split], p)
        frozen = {q: dict(row) for q, row in head.items()}
        full = _extend_mod(head, sparse[split:], p)
        assert head.keys() == frozen.keys()
        for q, row in head.items():
            assert full[q] is row and row.keys() == frozen[q].keys()
            assert all(a * row[q] % p == b * frozen[q][q] % p for a, b in zip(
                frozen[q].values(), row.values()))
        assert len(full) == Matrix(ints).rank()
        for q, row in full.items():
            assert min(row) == q and all(0 < a < p for a in row.values())
        # every input row reduces to zero: the echelon spans the rows
        assert _extend_mod(full, sparse, p).keys() == full.keys()


@pytest.mark.parametrize("fault", ["drop a row", "skip back-substitution"])
def test_broken_elimination_raises_instead_of_hanging(monkeypatch, fault):
    # a correct elimination certifies before the product of the primes it
    # tries reaches 2**62 B**3; a faulty one must hit that cap and raise,
    # not try primes forever
    calls = []

    def count(p):
        calls.append(p)
        assert len(calls) < 1000, "certified_kernel kept trying primes"

    real = exactalg._extend_mod

    def drop_a_row(echelon, rows, p):
        count(p)
        return real(echelon, list(rows)[:-1], p)

    def leave_unreduced(echelon, p):
        # the echelon keeps its entries at later pivots, and its pivots unscaled
        count(p)

    rng = make_rng(41)
    cases = [([{0: 1, 1: 1, 2: 1}, {1: 1, 2: 2, 3: 1}], 4)]
    for _ in range(10):
        # dense rows of full row rank: every row counts, and the first row has
        # entries at the later pivots, so back-substitution has work to do
        while True:
            k = rng.randint(2, 6)
            rows = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(k + 3)] for _ in range(k)]
            if Matrix(rows).rank() == k:
                break
        cases.append(([dict(enumerate(row)) for row in rows], k + 3))
    if fault == "drop a row":
        monkeypatch.setattr(exactalg, "_extend_mod", drop_a_row)
    else:
        monkeypatch.setattr(exactalg, "_back_substitute", leave_unreduced)
    for rows, ncols in cases:
        calls.clear()
        with pytest.raises(InternalContradictionError):
            exactalg.certified_kernel(rows, ncols)
