"""The elimination kernel and the stacked-rank PG check against the oracle.

``oracle`` holds the earlier Fraction Gauss-Jordan ``rref``, Fraction
Gaussian ``det``, Bareiss ``rank`` and wedge-product ``check_pg``.  Inputs
are seeded (``ABELWEB_SEED``) and cover the shapes where elimination
bookkeeping goes wrong: tall, wide, rank-deficient, zero columns, and
webs that fail general position at every subset size.
"""

from fractions import Fraction

import oracle
from abelweb import ConstantFoliation, ConstantWeb, Matrix, check_pg
from helpers import make_rng


def _random_rational_matrix(rng) -> Matrix:
    rows, cols = rng.randint(0, 8), rng.randint(0, 8)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3, 5)))

    kind = rng.randrange(3)
    if kind == 1 and min(rows, cols) > 1:
        # a product through a thinner middle dimension is rank deficient
        k = rng.randint(1, min(rows, cols) - 1)
        a = [[entry() for _ in range(k)] for _ in range(rows)]
        b = [[entry() for _ in range(cols)] for _ in range(k)]
        data = [
            [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
        ]
    else:
        data = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == 2 and cols:
        for j in rng.sample(range(cols), rng.randint(1, cols)):
            for row in data:
                row[j] = Fraction(0)
    return Matrix(data) if rows else Matrix([])


def test_kernel_matches_oracle():
    rng = make_rng(40)
    squares = 0
    for _ in range(4000):
        m = _random_rational_matrix(rng)
        assert m.rank() == oracle.rank(m), m
        assert m.rref() == oracle.rref(m), m
        if m.rows == m.cols:
            squares += 1
            assert m.det() == oracle.det(m), m
    assert squares > 300


def _random_web(rng, r, n, d) -> ConstantWeb:
    foliations = []
    while len(foliations) < d:
        matrix = Matrix([[rng.randint(-2, 2) for _ in range(r * n)] for _ in range(r)])
        if matrix.rank() == r:
            foliations.append(ConstantFoliation(r, n, matrix))
    return ConstantWeb(r, n, foliations)


def test_check_pg_matches_oracle():
    rng = make_rng(41)
    types = [(1, 2, 4), (1, 3, 4), (2, 2, 4), (2, 3, 4), (3, 2, 3)]
    failing = 0
    for k in range(300):
        web = _random_web(rng, *types[k % len(types)])
        verdict = check_pg(web)
        assert verdict == oracle.check_pg(web), web.to_json()
        failing += not verdict[0]
    assert 60 <= failing <= 180  # about a third
