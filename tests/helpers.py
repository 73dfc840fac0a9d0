"""Shared generators for seeded test data.

The seed honors the ABELWEB_SEED environment variable so failures can be
reproduced bit-exactly.
"""

import math
import os
import random
import sys
from fractions import Fraction

from abelweb import ConstantFoliation, ConstantWeb, Matrix

DEFAULT_SEED = int(os.environ.get("ABELWEB_SEED", "20260825"))


def make_rng(offset: int = 0) -> random.Random:
    return random.Random(DEFAULT_SEED + offset)


def random_matrix(rng, rows, cols, lo=-5, hi=5) -> Matrix:
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


DRAW_TRIES = 1000


def draw(make, accept, predicate: str):
    """The first result of ``make()`` that ``accept`` holds for, in at most
    DRAW_TRIES calls; ``predicate`` names ``accept`` in the failure.

    A fault that makes ``accept`` refuse every draw then fails the test
    that draws, instead of hanging it.
    """
    for _ in range(DRAW_TRIES):
        candidate = make()
        if accept(candidate):
            return candidate
    raise AssertionError(f"no draw in {DRAW_TRIES} tries satisfied {predicate}")


def random_invertible(rng, m) -> Matrix:
    return draw(lambda: random_matrix(rng, m, m), Matrix.is_invertible, "Matrix.is_invertible")


def random_foliation(rng, r, n) -> ConstantFoliation:
    return ConstantFoliation(r, n, _rank_r(lambda: random_matrix(rng, r, r * n), r))


def random_pg_web(rng, r, n, d) -> ConstantWeb:
    return draw(lambda: ConstantWeb(r, n, [random_foliation(rng, r, n) for _ in range(d)]),
                ConstantWeb.is_pg, "ConstantWeb.is_pg")


def small_entry_web(rng, r, n, d) -> ConstantWeb:
    """A web with entries in -2..2, so that many fail general position."""
    def matrix():
        return Matrix([[rng.randint(-2, 2) for _ in range(r * n)] for _ in range(r)])

    return ConstantWeb(r, n, [ConstantFoliation(r, n, _rank_r(matrix, r)) for _ in range(d)])


def _rank_r(make, r) -> Matrix:
    return draw(make, lambda matrix: matrix.rank() == r, f"Matrix.rank() == {r}")


def arrangement_through_points(rng, r, n, points):
    """Planes through given points of the base plane, transverse to it.

    Each point is a length-n coordinate sequence with nonzero first
    coordinate (projective representative of a base-plane point).
    """
    from abelweb import PlaneArrangement

    eta = [[1 if j == a else 0 for j in range(r + n)] for a in range(r)]
    planes = []
    for coords in points:
        p = [Fraction(0)] * r + [Fraction(c) for c in coords]
        assert p[r] != 0

        def through_p():
            rows = []
            for _ in range(n - 1):
                row = [Fraction(rng.randint(-3, 3)) for _ in range(r + n)]
                value = sum(a * b for a, b in zip(row, p))
                row[r] -= value / p[r]
                rows.append(row)
            return rows

        rows = draw(through_p,
                    lambda rows: Matrix(rows).rank() == n - 1
                    and Matrix(rows + eta).rank() == r + n - 1,
                    "rank n - 1, and r + n - 1 with the base plane")
        planes.append(Matrix(rows))
    return PlaneArrangement(r, n, planes)


def evaluate(poly, point) -> Fraction:
    """The value of a ``HomogeneousPoly`` at a point, term by term in ``Fraction``."""
    total = Fraction(0)
    for expo, c in poly.coeffs.items():
        term = c
        for v, e in zip(point, expo):
            term *= Fraction(v) ** e
        total += term
    return total


def sparse_rows(m: Matrix) -> list[dict[int, int]]:
    """The integer rows of ``m`` (den times its rows) as the sparse dicts
    ``certified_kernel`` reads."""
    return [{c: a for c, a in enumerate(row) if a} for row in m.ints]


def dense_kernel(basis, ncols: int) -> list[tuple[Fraction, ...]]:
    """``certified_kernel`` vectors ``(den, vec)`` as dense ``Fraction`` tuples
    of width ``ncols``, the form ``oracle.kernel_basis`` returns."""
    dense = []
    for den, vec in basis:
        row = [Fraction(0)] * ncols
        for c, x in vec.items():
            row[c] = Fraction(x, den)
        dense.append(tuple(row))
    return dense


def check_reduced(reduced, basis, ncols: int) -> None:
    """Assert what ``certified_kernel`` promises of its ``reduced`` rows next
    to ``basis``: one primitive integer row per pivot q, non-zero only at
    q and at the free columns (the basis vectors' last keys), vanishing on
    every basis vector, and len(reduced) + len(basis) = ncols."""
    free = {next(reversed(vec)) for _, vec in basis}
    assert len(reduced) + len(basis) == ncols and not free & set(reduced)
    for q, row in reduced.items():
        assert row.get(q) and set(row) <= free | {q} and 0 not in row.values(), (q, row)
        assert math.gcd(*row.values()) == 1, (q, row)
        for _, vec in basis:
            assert sum(a * vec.get(c, 0) for c, a in row.items()) == 0, (q, row, vec)


def count_calls(monkeypatch, real) -> list:
    """Wrap the library function ``real`` in every ``abelweb`` module that
    binds it, calling through; returns the list of the arguments of each call."""
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("abelweb") and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, counting)
    return calls
