"""Exact rational scalars and dense matrices.

Every computation in this package runs over Q, in integers wherever it
can: a :class:`Matrix` holds integer rows over one positive denominator,
and ``fractions.Fraction`` (always in lowest terms, positive
denominator) is the form of a single rational at the boundary: parsed
input, returned entries and vectors.  One parser (:func:`_ratio`) reads
every int, ``Fraction`` or "p/q" string.  There is no floating point
anywhere: the statements we verify are equalities of dimensions, so
tolerances would make them meaningless.

Rationals serialize as strings ``"p/q"`` or ``"p"`` in all JSON formats.

There are two exact eliminations, both in integers and neither using a
prime: one for sparse relation rows and one for every dense matrix.

Relation spaces call :func:`certified_kernel`: the canonical kernel
basis of sparse integer rows, from one sparse elimination over Z.
:func:`_sparse_echelon` builds an echelon row by row and
:func:`_back_substitute` reduces it in place, both by the one
fraction-free step of :func:`_eliminate`; the basis is read off the
reduced rows and checked against all the rows in exact integers, a net
for the code that raises InternalContradictionError on a failure.  Each
basis vector is a dict of integers over its support and one positive
denominator; the reduced rows are returned too, one primitive integer
row per pivot.

Every dense matrix goes through :func:`_echelon`, a fraction-free
Gauss-Jordan elimination (Bareiss) that is exact in integers by itself,
with no check.  :class:`Matrix` reads its rank, RREF, inverse and
determinant off it, on its integer rows (row scaling changes neither
rank nor row space); recovery and the Castelnuovo test read
their ranks off it, and the general-position check
(``webcore._kernel``) its kernel vectors.

Immutability is one policy: :class:`_Frozen` refuses assignment after
construction (constructors use ``object.__setattr__``), and
:class:`_Value` compares and hashes by one key per class.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InternalContradictionError

def _ratio(value) -> tuple[int, int]:
    """An int, Fraction or "p/q" string as integers (p, q), q > 0, not
    necessarily in lowest terms: the one parser of rational input."""
    if type(value) is int:
        return value, 1
    if isinstance(value, str):  # before Fraction, whose isinstance is the slow ABC one
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            denominator = int(den)
            if denominator == 0:
                raise ValueError(f"zero denominator in rational {value!r}")
            numerator = int(num)
            return (numerator, denominator) if denominator > 0 else (-numerator, -denominator)
        return int(text), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value), 1
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rational(value) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*_ratio(value))


def json_array(value, field: str) -> list:
    """``value``, which was read from JSON for ``field``, if it is an array.

    Anything else is bad input naming the field: a string would
    otherwise be taken apart into characters, "10" as the row [1, 0].
    """
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a JSON array, got {json.dumps(value)}")
    return value


def json_object(value, field: str, keys: Iterable[str] = ()) -> dict:
    """``value``, which was read from JSON for ``field``, if it is an object
    holding every one of ``keys``.

    Anything else is bad input naming the field (and the missing key),
    not an ``AttributeError`` or a bare ``KeyError`` from a lookup.
    """
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a JSON object, got {json.dumps(value)}")
    for key in keys:
        if key not in value:
            raise ValueError(f"{field} has no field {key!r}")
    return value


def json_rational(value, field: str) -> Fraction:
    """``value``, which was read from JSON for ``field``, as a rational;
    anything but an integer or a "p/q" string is bad input naming the field."""
    try:
        return rational(value)
    except (TypeError, ValueError):
        raise ValueError(f'{field} must be an integer or a "p/q" string with q != 0, '
                         f"got {json.dumps(value)}") from None


def binomial(k: int, l: int) -> int:
    """C(k, l), with the convention that it is 0 outside 0 <= l <= k."""
    if l < 0 or l > k or k < 0:
        return 0
    return math.comb(k, l)


def _clear_denominators(rows: Iterable[Iterable]) -> tuple[list[list[int]], int]:
    """Rational rows (anything :func:`rational` reads) times one lcm ``den``
    of all their denominators: ``(ints, den)``."""
    rows = [[_ratio(x) for x in row] for row in rows]
    den = math.lcm(*(q for row in rows for _, q in row))
    return [[p * (den // q) for p, q in row] for row in rows], den


@functools.cache
def index_subsets(ambient_dim: int, grade: int) -> tuple[tuple[int, ...], ...]:
    """Strictly increasing index subsets, in colexicographic order."""
    combos = itertools.combinations(range(ambient_dim), grade)
    return tuple(sorted(combos, key=lambda s: tuple(reversed(s))))


@functools.cache
def _laplace_terms(n: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """For each k-subset S of range(n) in colex order, its k terms of the
    expansion along row k, in one flat tuple: ``(sign, S[t], j)`` with
    sign (-1)^(k-1+t) and j the index of S minus S[t] among the
    (k-1)-subsets."""
    position = {s: i for i, s in enumerate(index_subsets(n, k - 1))}
    return tuple(
        ((-1) ** (k - 1 + t), c, position[s[:t] + s[t + 1 :]])
        for s in index_subsets(n, k)
        for t, c in enumerate(s)
    )


def _minors(rows: Sequence[Sequence[int]], n: int) -> dict[tuple[int, ...], int]:
    """Every maximal minor of integer rows with n columns, by column subset (colex).

    One Laplace sweep over subset sizes: along row i (1-based) over the
    columns S, M_i(S) = sum_t (-1)^(i-1+t) a_{i,S[t]} M_{i-1}(S minus S[t]).
    The minors of each size are a list in colex order, and the terms are
    read off a table cached per (n, i) (:func:`_laplace_terms`), i terms
    per subset in a row, so no subset is sliced or hashed in the sweep:
    one list of products per row, summed i at a time.
    """
    minors = [1]
    for i, row in enumerate(rows, start=1):
        products = iter([sign * row[c] * minors[j] for sign, c, j in _laplace_terms(n, i)])
        minors = list(map(sum, zip(*[products] * i)))
    return dict(zip(index_subsets(n, len(rows)), minors))


def _echelon(rows: Iterable[Sequence[int]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows:
    ``(rows, pivots, D, sign)``.

    At step k the pivot a is the first non-zero entry, column by column
    after the last pivot, of the rows not used yet.  Its row is swapped
    to position k, which flips ``sign``, and every other row becomes
    (a * row - row[c] * pivot row) / a', with a' the previous pivot (1
    at the start).  The division is exact, since every entry stays a
    minor of the rows (Sylvester's identity).  The sweep stops at the
    first step with no pivot, where the rows left are zero.  Then row i
    < len(pivots) is D, the last pivot, at its pivot column and 0 at the
    others, so the rows over D are the RREF.  A row's update reads only
    itself and the pivot row, so the rows not used yet go through forward
    Bareiss elimination and D is its last pivot: a square matrix with a
    pivot in every row has determinant ``sign * D``.
    """
    rows = [list(row) for row in rows]
    pivots, previous, sign, start = [], 1, 1, 0
    for k in range(len(rows)):
        found = next(
            ((c, i) for c in range(start, len(rows[0])) for i in range(k, len(rows)) if rows[i][c]),
            None,
        )
        if found is None:
            break
        c, i = found
        if i != k:
            rows[k], rows[i] = rows[i], rows[k]
            sign = -sign
        pivot = rows[k]
        a = pivot[c]
        for i, row in enumerate(rows):
            if i != k:
                f = row[c]
                rows[i] = [(a * x - f * y) // previous for x, y in zip(row, pivot)]
        pivots.append(c)
        previous, start = a, c + 1
    return rows, pivots, previous, sign


def _eliminate(row: dict[int, int], basis: dict[int, int], col: int) -> list[int]:
    """row <- (a/g) row - (f/g) basis in place, with a = basis[col], f =
    row[col] and g = gcd(a, f): exact in integers, 0 at ``col``, and the
    same span with ``basis`` as before, as a/g != 0.  Returns the columns
    it fills in."""
    a, f = basis[col], row[col]
    g = math.gcd(a, f)
    a, f = a // g, f // g
    if a != 1:
        for c in row:
            row[c] *= a
    filled = []
    for c, b in basis.items():
        x = row.get(c, 0)
        v = x - f * b
        if v:
            row[c] = v
            if not x:
                filled.append(c)
        else:
            del row[c]
    return filled


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """A non-zero integer row divided by its content, the gcd of its entries."""
    g = math.gcd(*row.values())
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _sparse_echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """An echelon basis over Q of the span of integer ``rows``, extended row by row.

    The echelon maps each pivot column to its basis row, a sparse dict of
    integers with content 1 whose least column is the pivot; no row has a
    column left of its pivot, so reducing a row by another never fills in
    left of that pivot.  A new row (column -> integer) is reduced by
    :func:`_eliminate` at the pivots in its support in increasing order,
    kept on a heap as fill adds more; what is left, if anything, is
    divided by its content and stored under its least column.  So the
    length of the result is the rank over Q.  Its one caller is
    :func:`certified_kernel`; dense rows go through :func:`_echelon`.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: a for c, a in row.items() if a}
        heap = [c for c in row if c in echelon]
        heapq.heapify(heap)
        while heap:
            col = heapq.heappop(heap)
            if col in row:
                for c in _eliminate(row, echelon[col], col):
                    if c in echelon:
                        heapq.heappush(heap, c)
        if row:
            echelon[min(row)] = _primitive(row)
    return echelon


def _back_substitute(echelon: dict[int, dict[int, int]]) -> None:
    """Reduce an echelon of :func:`_sparse_echelon` in place until each row
    is non-zero only at its pivot and at free columns.

    From the last pivot up, each row is reduced by :func:`_eliminate` at
    the later pivots in its support, then divided by its content.  Their
    rows are reduced already, so a reduction fills in only free columns
    and each later pivot is cleared once.
    """
    for q in sorted(echelon, reverse=True):
        row = echelon[q]
        for col in [c for c in row if c != q and c in echelon]:
            _eliminate(row, echelon[col], col)
        echelon[q] = _primitive(row)


def _packed(vectors: Sequence[dict[int, int]], ncols: int, bound: int) -> list[int]:
    """Integer vectors w_k packed column by column: P_j = sum_k w_k[j] *
    2**(k*bits), bits = bound.bit_length().

    A map f linear over Z has f(P) = sum_k f(w_k) * 2**(k*bits).  If every
    |f(w_k)| <= bound < 2**bits, then f(P) = 0 exactly when every f(w_k) =
    0: with f(w_m) the lowest non-zero term, f(P) = 2**(m*bits) * (f(w_m) +
    2**bits * M) for an integer M, and 2**bits does not divide f(w_m).
    """
    bits = bound.bit_length()
    packed = [0] * ncols
    for k, vec in enumerate(vectors):
        for j, w in vec.items():
            packed[j] += w << (k * bits)
    return packed


def certified_kernel(
    rows: Iterable[dict[int, int]], ncols: int
) -> tuple[dict[int, dict[int, int]], list[tuple[int, dict[int, int]]]]:
    """Reduced rows and canonical kernel basis over Q of an integer matrix,
    given by sparse rows: ``(reduced, basis)``.

    Each row maps column indices to non-zero integers.  ``basis`` is
    the canonical basis of the right null space: one vector per free
    column f of the RREF, in increasing order, with v[f] = 1, zero at
    every other free column, and support in f and the pivots before f.
    Each vector v comes as ``(den, vec)`` with v = vec / den: ``den`` > 0
    is its least common denominator and ``vec`` maps the columns of its
    non-zero entries, in increasing order, to integers, so the last key
    is f and ``vec[f] == den``.  ``reduced`` maps each pivot q of the
    RREF to a primitive integer row, non-zero only at q and at free
    columns, with the same span over Q as ``rows``: its kernel is the
    kernel of ``rows``.  With no free column, each such row is the unit
    row at q, and no back pass runs.

    Method: one sparse elimination over Z, no prime.  The rows, sparsest
    first, go through :func:`_sparse_echelon` and then :func:`_back_substitute`.
    Every step is an exact row operation over Z with a non-zero factor
    on the row it changes, so the span over Q is kept; the echelon rows
    have distinct least columns, so they are a basis of that span, and
    those columns are the pivots of the RREF over Q.  After the back pass
    row q is non-zero only at q and at free columns, so row_q / row_q[q]
    is the RREF row of pivot q.  These rows are ``reduced``, and the
    canonical vector of free column f is -row_q[f] / row_q[q] at each
    pivot q < f, over the least common denominator of those entries.

    The vectors are then checked against all rows at once, in integers,
    on their :func:`_packed` columns: every |a . w_k| <= |a|_1 * max|w_k|,
    so a row a has a . P = 0 exactly when a . w_k = 0 for every k.  The
    check proves nothing the argument above does not; it guards the code,
    and a failure raises InternalContradictionError.
    """
    rows = sorted((row for row in rows if row), key=len)
    echelon = _sparse_echelon(rows)
    if len(echelon) == ncols:
        return {q: {q: 1} for q in echelon}, []
    _back_substitute(echelon)
    # an entry at another pivot means a faulty elimination; the read-out
    # skips it, and the check fails on it
    terms: dict[int, list[tuple[int, int, int]]] = {
        f: [] for f in range(ncols) if f not in echelon
    }
    for q in sorted(echelon):
        row = echelon[q]
        for f, b in row.items():
            if f in terms:
                terms[f].append((q, -b, row[q]))
    basis = []
    for f, column in terms.items():
        den = math.lcm(*(abs(a) // math.gcd(b, a) for _, b, a in column))
        vec = {q: b * den // a for q, b, a in column}
        vec[f] = den
        basis.append((den, vec))
    top = max((sum(map(abs, row.values())) for row in rows), default=0)
    widest = max(abs(w) for _, vec in basis for w in vec.values())
    packed = _packed([vec for _, vec in basis], ncols, top * widest)
    if any(sum(a * packed[j] for j, a in row.items()) for row in rows):
        raise InternalContradictionError("certified_kernel: a kernel vector fails A v = 0")
    return echelon, basis


def _format(a: int, den: int) -> str:
    """a / den in lowest terms, as ``str(Fraction(a, den))`` prints it."""
    g = math.gcd(a, den)
    return str(a // g) if g == den else f"{a // g}/{den // g}"


class _Frozen:
    """An immutable type, compared by identity: assignment raises an
    ``AttributeError`` that names the class."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _Value(_Frozen):
    """An immutable type compared and hashed by the ``_key()`` each subclass
    defines; objects of different types are unequal whatever their keys."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class Matrix(_Value):
    """Immutable dense matrix over Q.

    Held as integer rows ``ints`` over one positive denominator ``den``,
    the least one: the entry (i, j) is ints[i][j] / den, and the gcd of den
    and every entry is 1.  So equal matrices have equal ``(den, ints)``.
    Every operation reads and builds these integers; ``Fraction``s are
    made only by ``entries``, ``row``, ``[i, j]`` and the scalar and
    vector results (``det``, ``apply``).  Rank, RREF, inverse and
    determinant are read off one fraction-free elimination of ``ints``
    (:func:`_echelon`).
    """

    __slots__ = ("rows", "cols", "den", "ints")

    def __init__(self, entries: Iterable[Iterable]) -> None:
        ints, den = _clear_denominators(entries)
        if any(len(row) != len(ints[0]) for row in ints):
            raise ValueError("ragged rows")
        self._store(ints, den)

    @classmethod
    def _from_ints(cls, ints: Iterable[Sequence[int]], den: int) -> "Matrix":
        """The matrix ``ints / den``, ``den`` != 0, with no parse."""
        m = object.__new__(cls)
        m._store(list(ints), den)
        return m

    def _store(self, ints: list[Sequence[int]], den: int) -> None:
        """Hold ``ints / den`` divided through by the gcd of den and every
        entry, signed as den, so that the denominator held is positive."""
        g = math.gcd(den, *itertools.chain.from_iterable(ints))
        if den < 0:
            g = -g
        ints = tuple(tuple(row) if g == 1 else tuple(a // g for a in row) for row in ints)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "rows", len(ints))
        object.__setattr__(self, "cols", len(ints[0]) if ints else 0)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._from_ints([[int(i == j) for j in range(n)] for i in range(n)], 1)

    def __getitem__(self, key):
        i, j = key
        return Fraction(self.ints[i][j], self.den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.ints[i])

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Every row as ``Fraction``s, built on each call."""
        return tuple(self.row(i) for i in range(self.rows))

    def _key(self):
        return self.den, self.ints

    def __repr__(self) -> str:
        return f"Matrix({self.to_json()})"

    def transpose(self) -> "Matrix":
        return Matrix._from_ints(zip(*self.ints), self.den)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.ints))
        return Matrix._from_ints(
            [[sum(map(operator.mul, row, col)) for col in cols] for row in self.ints],
            self.den * other.den,
        )

    def apply(self, vector: Sequence) -> tuple[Fraction, ...]:
        """Matrix times column vector."""
        (vec,), scale = _clear_denominators([vector])
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        den = self.den * scale
        return tuple(Fraction(sum(map(operator.mul, row, vec)), den) for row in self.ints)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns: the rows of
        :func:`_echelon` over its D."""
        rows, pivots, D, _ = _echelon(self.ints)
        return Matrix._from_ints(rows, D), tuple(pivots)

    def rank(self) -> int:
        """Exact rank: the number of pivots of :func:`_echelon`."""
        return len(_echelon(self.ints)[1])

    def det(self) -> Fraction:
        """``sign * D`` of :func:`_echelon` over den**n, or 0 if some step
        has no pivot."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        _, pivots, D, sign = _echelon(self.ints)
        return Fraction(sign * D if len(pivots) == self.rows else 0, self.den**self.rows)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Matrix":
        """A^-1 off one :func:`_echelon` of [den A | den I]: its RREF is
        [I | A^-1] exactly when A is invertible, that is when its pivots are
        0 .. n - 1."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        rows, pivots, D, _ = _echelon(
            [[*row, *(self.den * (i == j) for j in range(n))] for i, row in enumerate(self.ints)]
        )
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._from_ints([row[n:] for row in rows], D)

    def row_space_rref(self) -> "Matrix":
        """Canonical form of the row span (RREF with zero rows dropped)."""
        reduced, pivots = self.rref()
        return Matrix._from_ints(reduced.ints[: len(pivots)], reduced.den)

    def to_json(self) -> list[list[str]]:
        return [[_format(a, self.den) for a in row] for row in self.ints]

    @classmethod
    def from_json(cls, data, field: str = "matrix") -> "Matrix":
        """A matrix from a JSON array of row arrays; ``field`` names it in errors.

        The rows are parsed once, by the constructor; only a document it
        refuses is read again, in order, to name its first bad field.
        """
        rows = json_array(data, field)
        if all(isinstance(row, list) for row in rows):
            try:
                return cls(rows)
            except (TypeError, ValueError):
                pass
        for i, row in enumerate(rows, start=1):
            for k, x in enumerate(json_array(row, f"{field} row {i}"), start=1):
                json_rational(x, f"{field} row {i} entry {k}")
        i, row = next((i, row) for i, row in enumerate(rows, start=1) if len(row) != len(rows[0]))
        raise ValueError(f"ragged rows in {field}: row {i} has {len(row)} entries, "
                         f"row 1 has {len(rows[0])}")
