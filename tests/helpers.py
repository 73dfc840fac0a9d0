"""Shared generators for seeded test data.

The seed honors the ABELWEB_SEED environment variable so failures can be
reproduced bit-exactly.
"""

import os
import random
from fractions import Fraction

from abelweb import ConstantFoliation, ConstantWeb, Matrix

DEFAULT_SEED = int(os.environ.get("ABELWEB_SEED", "20260825"))


def make_rng(offset: int = 0) -> random.Random:
    return random.Random(DEFAULT_SEED + offset)


def random_matrix(rng, rows, cols, lo=-5, hi=5) -> Matrix:
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_invertible(rng, m) -> Matrix:
    while True:
        candidate = random_matrix(rng, m, m)
        if candidate.is_invertible():
            return candidate


def random_foliation(rng, r, n) -> ConstantFoliation:
    while True:
        matrix = random_matrix(rng, r, r * n)
        if matrix.rank() == r:
            return ConstantFoliation(r, n, matrix)


def random_pg_web(rng, r, n, d) -> ConstantWeb:
    while True:
        web = ConstantWeb(r, n, [random_foliation(rng, r, n) for _ in range(d)])
        if web.is_pg():
            return web


def small_entry_web(rng, r, n, d) -> ConstantWeb:
    """A web with entries in -2..2, so that many fail general position."""
    foliations = []
    while len(foliations) < d:
        matrix = Matrix([[rng.randint(-2, 2) for _ in range(r * n)] for _ in range(r)])
        if matrix.rank() == r:
            foliations.append(ConstantFoliation(r, n, matrix))
    return ConstantWeb(r, n, foliations)


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
        while True:
            rows = []
            for _ in range(n - 1):
                row = [Fraction(rng.randint(-3, 3)) for _ in range(r + n)]
                value = sum(a * b for a, b in zip(row, p))
                row[r] -= value / p[r]
                rows.append(row)
            matrix = Matrix(rows)
            if matrix.rank() == n - 1 and Matrix(rows + eta).rank() == r + n - 1:
                planes.append(matrix)
                break
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


def dense_kernel(basis, ncols: int) -> list[tuple[Fraction, ...]]:
    """``certified_kernel`` vectors ``(den, vec)`` as dense ``Fraction`` tuples
    of width ``ncols``, the form ``Matrix.kernel_basis`` returns."""
    dense = []
    for den, vec in basis:
        row = [Fraction(0)] * ncols
        for c, x in vec.items():
            row[c] = Fraction(x, den)
        dense.append(tuple(row))
    return dense
