"""Reference implementations that the library's elimination kernel,
general-position check and relation-matrix assembly are compared against.

These are the former ``Matrix.rref``, ``Matrix.rank`` (Bareiss on
integer rows), ``Matrix.det``, ``check_pg`` (wedge products of the
generator normals) and ``relation_matrix`` (each basis monomial pulled
back on its own through ``substitute``), kept verbatim as module-level
functions of a ``Matrix`` or ``ConstantWeb`` passed as ``self`` /
``web``.  They are slower and share no elimination code with
``abelweb.exactalg`` and no pullback tables with ``abelweb.webcore``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from abelweb import Matrix
from abelweb.multilinear import (
    HomogeneousPoly,
    monomial_exponents,
    monomial_position,
    poly_space_dim,
    subset_position,
    substitute,
    wedge,
)
from abelweb.webcore import ConstantWeb, generator_normal


def _clear_row(row: Sequence[Fraction]) -> list[int]:
    """Scale a rational row to coprime integers (empty gcd -> zero row)."""
    lcm = 1
    for x in row:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in row]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def rref(self) -> tuple["Matrix", tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns."""
    m = [list(row) for row in self.entries]
    pivots: list[int] = []
    pivot_row = 0
    for col in range(self.cols):
        pivot = next(
            (i for i in range(pivot_row, self.rows) if m[i][col] != 0), None
        )
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        inv = 1 / m[pivot_row][col]
        m[pivot_row] = [x * inv for x in m[pivot_row]]
        for i in range(self.rows):
            if i != pivot_row and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == self.rows:
            break
    return Matrix(m), tuple(pivots)


def rank(self) -> int:
    """Exact rank by fraction-free Bareiss elimination."""
    m = [_clear_row(row) for row in self.entries]
    m = [row for row in m if any(row)]
    if not m:
        return 0
    rank = 0
    prev = 1
    for col in range(self.cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        for i in range(rank + 1, len(m)):
            if any(m[i]):
                f = m[i][col]
                m[i] = [
                    (lead * m[i][j] - f * m[rank][j]) // prev
                    for j in range(self.cols)
                ]
        prev = lead
        rank += 1
        if rank == len(m):
            break
    return rank


def det(self) -> Fraction:
    if self.rows != self.cols:
        raise ValueError("determinant of a non-square matrix")
    n = self.rows
    if n == 0:
        return Fraction(1)
    m = [list(row) for row in self.entries]
    sign = 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for i in range(col + 1, n):
            if m[i][col] != 0:
                factor = m[i][col] / m[col][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[col])]
    result = Fraction(sign)
    for i in range(n):
        result *= m[i][i]
    return result


def check_pg(web: ConstantWeb) -> tuple[bool, tuple[int, ...] | None]:
    """Test the general-position condition.

    Returns ``(True, None)`` or ``(False, subset)`` where ``subset`` is
    the lexicographically first failing index set (1-based).
    """
    normals = [generator_normal(f) for f in web.foliations]
    for delta in range(1, min(web.d, web.n) + 1):
        for subset in itertools.combinations(range(web.d), delta):
            product = normals[subset[0]]
            for j in subset[1:]:
                product = wedge(product, normals[j])
            if product.is_zero:
                return False, tuple(j + 1 for j in subset)
    return True, None


def relation_matrix(web: ConstantWeb, h: int) -> Matrix:
    """The assembled map from E_r(h)^d to Sym^h(V*) (x) Lambda^r(V*)."""
    r, n, d = web.r, web.n, web.d
    rn = r * n
    mono_pos = monomial_position(rn, h)
    sub_pos = subset_position(rn, r)
    n_subsets = len(sub_pos)
    dim_e = poly_space_dim(r, h)
    rows = len(mono_pos) * n_subsets
    cols = d * dim_e
    entries = [[Fraction(0)] * cols for _ in range(rows)]
    basis = monomial_exponents(r, h)
    for j, foliation in enumerate(web.foliations):
        normal = generator_normal(foliation)
        for b, expo in enumerate(basis):
            col = j * dim_e + b
            poly = substitute(
                HomogeneousPoly(r, h, {expo: 1}), foliation.matrix.entries
            )
            for mono, pc in poly.coeffs.items():
                base = mono_pos[mono] * n_subsets
                for subset, nc in normal.coeffs.items():
                    entries[base + sub_pos[subset]][col] += pc * nc
    return Matrix(entries)
