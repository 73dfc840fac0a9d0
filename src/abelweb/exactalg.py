"""Exact rational scalars and dense matrices.

Every computation in this package runs over Q, represented by
``fractions.Fraction`` (always in lowest terms, positive denominator).
There is no floating point anywhere: the statements we verify are
equalities of dimensions, so tolerances would make them meaningless.

Rationals serialize as strings ``"p/q"`` or ``"p"`` in all JSON formats.

One fraction-free (Bareiss) kernel, :func:`_eliminate`, serves rank,
RREF and det.  It runs on denominator-cleared integer rows: row scaling
changes neither rank nor row space, and every intermediate entry is a
minor of the integer matrix, so each division is exact.  ``rank`` and
``det`` need only the pivot count and the last pivot (the integer
determinant, up to the sign of the swaps), so they skip back-elimination
and touch only rows below each pivot, dropping rows that become zero;
that keeps tall rank-deficient relation matrices cheap.  ``rref`` also
reduces the rows above each pivot (Gauss-Jordan), after which a pivot
row divided by its pivot entry is a row of the RREF.

A tall matrix A (more rows than columns, as every relation matrix is)
is not eliminated itself: ``rank`` and ``rref`` eliminate its Gram
matrix G = A^T A, formed from the cleared integer rows, instead.  This
is exact over Q, which is ordered: x^T G x = |Ax|^2, so Gx = 0 forces
Ax = 0 and ker G = ker A, hence rank G = rank A.  The rows of G are
combinations of the rows of A, so the two row spaces are equal; the
RREF, its pivots and the canonical kernel basis are the same matrices.
G is cols x cols, so the step pays only when rows > cols; wide and
square matrices (and ``det``) are eliminated as they are.

The kernel basis returned by :meth:`Matrix.kernel_basis` is the canonical
one read off the reduced row echelon form: free columns in increasing
index order, with a 1 in the free coordinate of each basis vector.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction


def rational(value) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"cannot interpret {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            denominator = int(den)
            if denominator == 0:
                raise ValueError(f"zero denominator in rational {value!r}")
            return Fraction(int(num), denominator)
        return Fraction(int(text))
    raise TypeError(f"cannot interpret {value!r} as a rational")


def json_array(value, field: str) -> list:
    """``value``, which was read from JSON for ``field``, if it is an array.

    Anything else is bad input naming the field: a string would
    otherwise be taken apart into characters, "10" as the row [1, 0].
    """
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a JSON array, got {value!r}")
    return value


def binomial(k: int, l: int) -> int:
    """C(k, l), with the convention that it is 0 outside 0 <= l <= k."""
    if l < 0 or l > k or k < 0:
        return 0
    return math.comb(k, l)


def _clear_row(row: Sequence[Fraction]) -> tuple[list[int], int, int]:
    """Scale a rational row to coprime integers.

    Returns ``(ints, lcm, g)`` with ``ints = row * lcm / g``; ``g`` is 0
    for a zero row.
    """
    lcm = math.lcm(*(x.denominator for x in row))
    ints = [x.numerator * (lcm // x.denominator) for x in row]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints, lcm, g


def _eliminate(
    rows: list[list[int]], ncols: int, full: bool
) -> tuple[list[int], list[list[int]], int]:
    """Fraction-free elimination; see the module docstring.

    Returns the pivot columns, the pivot rows in order, and the sign of
    the row swaps (meaningful only at full row rank, since zero rows are
    dropped).  ``full`` selects Gauss-Jordan over forward elimination.
    """
    m = [row for row in rows if any(row)]
    pivots: list[int] = []
    sign = 1
    prev = 1
    for col in range(ncols):
        k = len(pivots)
        if k == len(m):
            break
        p = next((i for i in range(k, len(m)) if m[i][col]), None)
        if p is None:
            continue
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        prow = m[k]
        lead = prow[col]
        for i in range(0 if full else k + 1, len(m)):
            if i != k:
                f = m[i][col]
                m[i] = [(lead * a - f * b) // prev for a, b in zip(m[i], prow)]
        m[k + 1 :] = [row for row in m[k + 1 :] if any(row)]
        prev = lead
        pivots.append(col)
    return pivots, m[: len(pivots)], sign


def _gram(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """A^T A of the integer rows of A.

    The upper triangle is summed over the non-zeros of each row, then
    mirrored.
    """
    gram = [[0] * ncols for _ in range(ncols)]
    for row in rows:
        nz = [(j, v) for j, v in enumerate(row) if v]
        for k, (i, a) in enumerate(nz):
            target = gram[i]
            for j, b in nz[k:]:
                target[j] += a * b
    for i in range(ncols):
        for j in range(i):
            gram[i][j] = gram[j][i]
    return gram


class Matrix:
    """Immutable dense matrix over Q."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]) -> None:
        data = tuple(tuple(rational(x) for x in row) for row in entries)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "entries", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Matrix({[list(map(str, row)) for row in self.entries]})"

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.entries)) if self.rows else Matrix([])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = other.transpose().entries
        return Matrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.entries]
        )

    def apply_row(self, vector: Sequence) -> tuple[Fraction, ...]:
        """Row vector times matrix."""
        vec = [rational(x) for x in vector]
        if len(vec) != self.rows:
            raise ValueError("shape mismatch")
        return tuple(
            sum(vec[i] * self.entries[i][j] for i in range(self.rows))
            for j in range(self.cols)
        )

    def apply(self, vector: Sequence) -> tuple[Fraction, ...]:
        """Matrix times column vector."""
        vec = [rational(x) for x in vector]
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)

    def _row_space_ints(self) -> list[list[int]]:
        """Integer rows spanning the row space: the Gram matrix if tall."""
        ints = [_clear_row(row)[0] for row in self.entries]
        return _gram(ints, self.cols) if self.rows > self.cols else ints

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        pivots, reduced, _ = _eliminate(self._row_space_ints(), self.cols, full=True)
        zero = Fraction(0)
        m = [
            [Fraction(a, row[p]) if a else zero for a in row]
            for row, p in zip(reduced, pivots)
        ]
        m.extend([zero] * self.cols for _ in range(self.rows - len(pivots)))
        return Matrix(m), tuple(pivots)

    def rank(self) -> int:
        """Exact rank by fraction-free elimination."""
        return len(_eliminate(self._row_space_ints(), self.cols, full=False)[0])

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """Canonical basis of the right null space.

        One vector per free column of the RREF, free columns taken in
        increasing order, and each vector normalized so its free
        coordinate equals 1.
        """
        reduced, pivots = self.rref()
        free = [j for j in range(self.cols) if j not in pivots]
        basis = []
        for f in free:
            vec = [Fraction(0)] * self.cols
            vec[f] = Fraction(1)
            for i, p in enumerate(pivots):
                vec[p] = -reduced[i, f]
            basis.append(tuple(vec))
        return basis

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        cleared = [_clear_row(row) for row in self.entries]
        pivots, reduced, sign = _eliminate(
            [ints for ints, _, _ in cleared], self.cols, full=False
        )
        if len(pivots) < self.rows:
            return Fraction(0)
        num = sign * (reduced[-1][pivots[-1]] if reduced else 1)
        den = 1
        for _, lcm, g in cleared:
            num *= g
            den *= lcm
        return Fraction(num, den)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        augmented = Matrix(
            [
                list(self.entries[i]) + [1 if i == j else 0 for j in range(n)]
                for i in range(n)
            ]
        )
        reduced, pivots = augmented.rref()
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Matrix([reduced.row(i)[n:] for i in range(n)])

    def solve(self, rhs: Sequence) -> tuple[Fraction, ...] | None:
        """One exact solution of ``self @ x = rhs``, or None if inconsistent.

        With several solutions, returns the one with zeros in the free
        coordinates (canonical particular solution).
        """
        vec = [rational(x) for x in rhs]
        if len(vec) != self.rows:
            raise ValueError("shape mismatch")
        augmented = Matrix(
            [list(row) + [vec[i]] for i, row in enumerate(self.entries)]
        )
        reduced, pivots = augmented.rref()
        if self.cols in pivots:
            return None
        solution = [Fraction(0)] * self.cols
        for i, p in enumerate(pivots):
            solution[p] = reduced[i, self.cols]
        return tuple(solution)

    def row_space_rref(self) -> "Matrix":
        """Canonical form of the row span (RREF with zero rows dropped)."""
        reduced, pivots = self.rref()
        return Matrix([reduced.row(i) for i in range(len(pivots))])

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.entries]

    @classmethod
    def from_json(cls, data, field: str = "matrix") -> "Matrix":
        """A matrix from a JSON array of row arrays; ``field`` names it in errors."""
        rows = json_array(data, field)
        return cls(
            json_array(row, f"{field} row {i}") for i, row in enumerate(rows, start=1)
        )
