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

There are two exact eliminations, one for sparse relation rows and one
for every dense matrix.

Relation spaces call :func:`certified_kernel`: the canonical kernel
basis of sparse integer rows, from elimination modulo a 61-bit prime
(:func:`_extend_mod`, a sparse echelon), back-substituted in place on
that echelon (:func:`_back_substitute`), lifted to Q over one running
denominator per vector (:func:`_lift`, which needs a rational
reconstruction only where that denominator grows) and checked exactly.
Arithmetic modulo p only proposes the basis; the check and the
certificate in its docstring make it a result, and a proven bound on
the primes tried turns a faulty elimination into an error, not a hang.
Each basis vector is a dict of integers over its support and one
positive denominator.

Every dense matrix goes through :func:`_echelon`, a fraction-free
Gauss-Jordan elimination (Bareiss) that is exact in integers by itself:
no prime and no certificate.  :class:`Matrix` reads its rank, RREF,
inverse and determinant off it, on its integer rows (row scaling changes
neither rank nor row space); recovery and the Castelnuovo test read
their ranks off it, and the general-position check
(``webcore._kernel``) its kernel vectors.

Immutability is one policy: :class:`_Frozen` refuses assignment after
construction (constructors use ``object.__setattr__``), and
:class:`_Value` compares and hashes by one key per class.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import json
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

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


# Miller-Rabin with these bases is exact for every n < 3.3 * 10**24
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 3.3 * 10**24."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _prime_below(n: int) -> int:
    """The largest odd prime below ``n`` > 3.

    Kept: every kernel asks for the same few again.
    """
    n -= 1 + n % 2
    while not _is_prime(n):
        n -= 2
    return n


def _primes() -> Iterator[int]:
    """The primes below 2**61 in descending order, 2**61 - 1 first."""
    p = 2**61
    while True:
        p = _prime_below(p)
        yield p


def _extend_mod(rows: Iterable[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """An echelon basis modulo ``p`` of the span of ``rows``, extended row by row.

    The echelon maps each pivot column to its basis row, a sparse dict of
    residues whose least column is the pivot; no row has a column left
    of its pivot, so reducing a row by another never fills in left of
    that pivot.  A new row (column -> integer) is reduced at the pivots
    in its support in increasing order, kept on a heap as fill adds
    more; what is left, if anything, is stored under its least column.
    A basis row is scaled to 1 at its pivot only when it first reduces a
    row, in place, which changes neither pivot nor span.  So the length
    of the result is the rank modulo ``p``.  Its one caller is
    :func:`certified_kernel`; dense rows go through :func:`_echelon`.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: a % p for c, a in row.items() if a % p}
        heap = [c for c in row if c in echelon]
        heapq.heapify(heap)
        while heap:
            col = heapq.heappop(heap)
            f = row.get(col)
            if not f:
                continue
            basis = echelon[col]
            if basis[col] != 1:
                inv = pow(basis[col], -1, p)
                for c, b in basis.items():
                    basis[c] = b * inv % p
            for c, b in basis.items():
                a = row.get(c, 0)
                v = (a - f * b) % p
                if v:
                    row[c] = v
                    if not a and c in echelon:
                        heapq.heappush(heap, c)
                else:  # f * b is not 0 modulo p, so a was not
                    del row[c]
        if row:
            echelon[min(row)] = row
    return echelon


def _reconstruct(u: int, modulus: int) -> tuple[int, int] | None:
    """The fraction a/b = u modulo ``modulus`` with |a|, |b| <= sqrt(modulus/2).

    There is at most one (Wang's half-extended Euclid); it is returned as
    the integer pair (a, b) in lowest terms with b > 0, or None if there
    is none.  A result is only a candidate: the caller checks it exactly.
    """
    bound = math.isqrt(modulus // 2)
    r0, r1, s0, s1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    g = math.gcd(r1, s1) if s1 > 0 else -math.gcd(r1, s1)
    return r1 // g, s1 // g


def _back_substitute(echelon: dict[int, dict[int, int]], p: int) -> None:
    """Turn an echelon of :func:`_extend_mod` into the RREF modulo ``p``, in place.

    From the last pivot up, each row is scaled to 1 at its pivot and
    reduced at the later pivots in its support.  Their rows are reduced
    already, 0 at every pivot but their own, so a reduction fills in only
    free columns and each later pivot is cleared once.
    """
    for q in sorted(echelon, reverse=True):
        row = echelon[q]
        if row[q] != 1:
            inv = pow(row[q], -1, p)
            for c, b in row.items():
                row[c] = b * inv % p
        for col in [c for c in row if c != q and c in echelon]:
            f = row.pop(col)
            for c, b in echelon[col].items():
                if c != col:
                    v = (row.get(c, 0) - f * b) % p
                    if v:
                        row[c] = v
                    else:  # f * b is not 0 modulo p, so row[c] was not
                        del row[c]


def _lift(
    rows: list[dict[int, int]], ncols: int, pivots: list[int], free: list[int],
    residues: list[list[int]], modulus: int,
) -> list[tuple[int, dict[int, int]]] | None:
    """The kernel vectors with these residues, if each lifts and ``rows . v = 0``.

    ``residues[k]`` holds the entries of the vector of free column
    ``free[k]`` at the pivots before it, modulo ``modulus``.  Each vector
    v is returned as ``(den, vec)``: ``den`` > 0 is the least common
    denominator of v, and ``vec`` = den * v holds the integers at the
    non-zero entries, keys ascending, so its last key is the free column
    f and ``vec[f] == den``.

    Each entry u is lifted to the fraction a/b = u modulo ``modulus``
    with |a|, b <= N = isqrt(modulus // 2) that :func:`_reconstruct`
    returns, over one running denominator D per vector, the lcm of the b
    found so far.  If some x = u * D modulo ``modulus`` has |x| <= N, and
    D <= N, the entry is x/D with no half-gcd: as N (N + 1) <= 2 N**2 <
    modulus (the modulus is odd), (x, D) is an integer multiple of the
    pair at the first remainder <= N of the Euclidean sequence of
    (modulus, u), where :func:`_reconstruct` stops (the lemma behind
    Wang's method), so it would return x/D in lowest terms, and D stays
    the lcm.  Otherwise :func:`_reconstruct` lifts u and D becomes the
    lcm of D and b.  So the vectors are those of one :func:`_reconstruct`
    per entry.

    The check runs once over the rows for all vectors together, on those
    integer vectors w_k.  Column j carries the packed integer P_j =
    sum_k w_k[j] * 2**(k*bits).  A row a then has a . P = sum_k (a . w_k)
    * 2**(k*bits), and every |a . w_k| <= |a|_1 * max|w_k| < 2**bits, so
    a . P = 0 exactly when a . w_k = 0 for every k (the lowest non-zero
    term could not be cancelled).
    """
    bound = math.isqrt(modulus // 2)
    basis = []
    for f, column in zip(free, residues):
        den, vec = 1, {}
        for q, u in zip(pivots, column):
            if not u:
                continue
            # x = u * den modulo the modulus, in -bound .. bound if it fits
            x = (u * den + bound) % modulus - bound
            if x <= bound and den <= bound:
                vec[q] = x
                continue
            fraction = _reconstruct(u, modulus)
            if fraction is None:
                return None
            a, b = fraction
            lcm = math.lcm(den, b)
            if lcm != den:
                scale, den = lcm // den, lcm
                for c in vec:
                    vec[c] *= scale
            vec[q] = a * (den // b)
        vec[f] = den
        basis.append((den, vec))
    top = max((sum(map(abs, row.values())) for row in rows), default=0)
    bits = (top * max(abs(w) for _, vec in basis for w in vec.values())).bit_length()
    packed = [0] * ncols
    for k, (_, vec) in enumerate(basis):
        for j, w in vec.items():
            packed[j] += w << (k * bits)
    if any(sum(a * packed[j] for j, a in row.items()) for row in rows):
        return None
    return basis


def certified_kernel(
    rows: Iterable[dict[int, int]], ncols: int
) -> list[tuple[int, dict[int, int]]]:
    """Canonical kernel basis over Q of an integer matrix, given by sparse rows.

    Each row maps column indices to non-zero integers.  The result is
    the canonical basis of the right null space: one vector per free
    column f of the RREF, in increasing order, with v[f] = 1, zero at
    every other free column, and support in f and the pivots before f.
    Each vector v comes as ``(den, vec)`` with v = vec / den: ``den`` > 0
    is its least common denominator and ``vec`` maps the columns of its
    non-zero entries, in increasing order, to integers, so the last key
    is f and ``vec[f] == den`` (see :func:`_lift`).

    Method (Dixon's p-adic idea in its simplest, one-shot form).  For p
    in a fixed descending sequence of primes below 2**61, the rows A,
    sparsest first, are eliminated modulo p by :func:`_extend_mod`.
    :func:`_back_substitute` then reduces that echelon in place, from the
    last pivot up, each row only at the later pivots in its support,
    whose rows are reduced already, which leaves the RREF modulo p (it is
    unique, so no second elimination is needed).  Whatever the order of
    the row operations, the rank rank_p found modulo p is at most rank_Q,
    the rank of A over Q.  Full column rank modulo p therefore means an
    empty kernel.  Otherwise each kernel vector modulo p is lifted to Q
    by rational reconstruction, entry by entry over one running
    denominator (:func:`_lift`; the fractions are those of one
    reconstruction per entry), and A v = 0 is checked exactly in integers.

    Why a result that passes the check is exact.  The checked vectors are
    independent (each is 1 at its own free column, 0 at the others), so
    dim_Q ker A >= their number = ncols - rank_p >= ncols - rank_Q =
    dim_Q ker A: they are a basis.  The set of last non-zero positions of
    the non-zero vectors of a subspace depends only on the subspace and
    has its dimension as size; the checked vectors have distinct last
    positions (their free columns), so the free columns are those of the
    RREF over Q.  The canonical basis vector of a free column f is the
    only kernel vector with v[f] = 1 and zero at the other free columns,
    and the checked vector for f is such a vector.

    A check can fail when p divides a minor (an unlucky prime) or when
    the entries need more than one prime.  Then the residues of the next
    prime are combined with the earlier ones by the Chinese remainder
    theorem.  Only primes with the largest rank and, among those, the
    least pivot tuple are combined.  The bound rank_p <= rank_Q holds for
    every leading block of columns too, so the pivots over Q are least
    in the componentwise (Gale) order, hence lexicographically.  A prime
    with the rank and pivots over Q has the RREF over Q, reduced modulo
    p, as its RREF, and all other primes divide one fixed non-zero minor
    D (rank_Q independent rows at the pivots over Q).  Once the product
    of the combined primes exceeds 2 H**2, H the largest numerator or
    denominator in the RREF, reconstruction returns the RREF entries and
    the check passes.

    Why the loop ends.  Let B be the product of the min(rows, ncols)
    largest row norms, rounded up.  Every RREF entry is a ratio of two
    minors of A (Cramer's rule), so Hadamard's bound gives H <= B, and
    |D| <= B.  The primes other than those combined divide D, so their
    product is at most B; the combined ones before the last multiply to
    at most 2 H**2, and every prime is below 2**61.  So a correct
    elimination returns before the product of all primes tried, skipped
    and reset ones included, reaches 2**62 B**3; past that point the
    elimination is at fault, and InternalContradictionError is raised.
    """
    rows = sorted((row for row in rows if row), key=len)
    tried, cap, best = 1, None, None
    for p in _primes():
        if tried > 1:
            if cap is None:  # needed only once a prime has failed
                squares = sorted(sum(map(operator.mul, r.values(), r.values())) for r in rows)
                cap = 2**62 * (math.isqrt(math.prod(squares[-ncols:])) + 1) ** 3
            if tried >= cap:
                raise InternalContradictionError(
                    "certified_kernel: no certified kernel within the proven number of primes"
                )
        tried *= p
        echelon = _extend_mod(rows, p)
        if len(echelon) == ncols:
            return []
        _back_substitute(echelon, p)
        pivots = sorted(echelon)
        # kernel vector f is -(RREF column f) at the pivots before f; an
        # entry at another pivot means a faulty elimination, and is left
        # for the check to fail on and the cap to catch
        residues = {f: [0] * bisect.bisect(pivots, f) for f in range(ncols) if f not in echelon}
        for k, q in enumerate(pivots):
            for f, b in echelon[q].items():
                if f in residues:
                    residues[f][k] = p - b
        free, residues = list(residues), list(residues.values())
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, modulus, combined = key, p, residues
        elif key == best:
            inv = pow(modulus, -1, p)
            combined = [
                [x + modulus * ((y - x) * inv % p) for x, y in zip(xs, ys)]
                for xs, ys in zip(combined, residues)
            ]
            modulus *= p
        else:
            continue
        basis = _lift(rows, ncols, pivots, free, combined, modulus)
        if basis is not None:
            return basis


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
