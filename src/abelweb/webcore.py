"""Constant webs of type (r, n): general position and closed-form bounds.

A constant foliation of type (r, n) on V = Q^(rn) is the family of
parallel affine subspaces cut out by r independent linear forms, stored
as the rows of an r x (rn) matrix.  A constant web is a list of d such
foliations.  The general-position condition (PG) asks that the wedge of
any delta <= min(d, n) of the generator normals is nonzero.

Each generator normal Omega_j is decomposable: it is the wedge of the r
rows of kappa_j.  A wedge of delta such normals is therefore the wedge
of the delta*r stacked rows, and a wedge of covectors is nonzero exactly
when they are linearly independent.  Independent rows stay independent
in every subset, so the subsets of the top size min(d, n) decide PG;
smaller ones are searched only to report the first failure.

One exact method decides every subset, in integers, on the web's rows
cleared by one lcm (``ConstantWeb.cleared_kappas``).  If the columns of
K span the kernel of the stacked rows of a prefix P of a subset, then P
plus one more foliation j has independent rows exactly when kappa_j K
has rank r.  So each prefix eliminates its own projected r x m rows
fraction-free (``exactalg._echelon``, Bareiss), fails if their rank is
below r, and otherwise projects the rows of every later foliation onto
their kernel (``_project``), where m drops by r.  After n - 2
foliations m = 2r, and the 2r stacked projected rows of the last two
are square: their determinant is the pairing of their maximal minors
(``_pairings``, the generalized Laplace expansion).  The walk is the same
for every n: for n = 2 the prefix is empty, nothing is projected, and
the pairings read the integer normals that ``ConstantWeb.cleared_normals``
keeps for R(0), so one sweep of minors per foliation serves both.

The closed-form quantities:

* q_of(r, n, d)        = d - r(n-1) - 2
* degree_bound(...h)   = C(r-1+h, r-1) * max(d - (r+h)(n-1) - 1, 0)
* rho_bound(r, n, d)   = sum of the degree bounds over h
* h_cutoff(r, n, d)    = first degree whose relation space provably vanishes
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import DegenerateWebError
from .exactalg import (
    Matrix, _Value, _echelon, _minors, binomial, index_subsets, json_array, json_object,
)
from .multilinear import ExteriorForm


class ConstantFoliation(_Value):
    """One codimension-r foliation, given by the rows of its defining map."""

    __slots__ = ("r", "n", "matrix", "_span")

    def __init__(self, r: int, n: int, matrix: Matrix):
        if matrix.rows != r or matrix.cols != r * n:
            raise ValueError(f"expected a {r}x{r * n} coefficient matrix")
        if matrix.rank() != r:
            raise DegenerateWebError("not a foliation: coefficient matrix is rank deficient")
        self._store(r, n, matrix)

    @classmethod
    def _of_rank_r(cls, r: int, n: int, matrix: Matrix) -> "ConstantFoliation":
        """The foliation of an r x rn matrix already proven of rank r, with no test."""
        foliation = object.__new__(cls)
        foliation._store(r, n, matrix)
        return foliation

    def _store(self, r: int, n: int, matrix: Matrix) -> None:
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_span", None)

    def row_span(self) -> Matrix:
        """Canonical (RREF) form of the row span; foliation identity."""
        if self._span is None:
            object.__setattr__(self, "_span", self.matrix.row_space_rref())
        return self._span

    def _key(self):
        return self.r, self.n, self.row_span()

    def __repr__(self) -> str:
        return f"ConstantFoliation(r={self.r}, n={self.n}, {self.matrix!r})"


class ConstantWeb(_Value):
    """A list of d constant foliations sharing one type (r, n).

    Construction never refuses a web that fails general position; the
    ``pg`` result is computed lazily and rank computations gate on it.
    ``_relations`` keeps one record per degree of R(0), R(1), ...: its
    reduced rows and its basis (see ``abelian._Degree``).
    """

    __slots__ = ("r", "n", "foliations", "_pg", "_relations", "_kappas", "_normals")

    def __init__(self, r: int, n: int, foliations: Sequence[ConstantFoliation]):
        foliations = tuple(foliations)
        require_web_type(r, n, len(foliations))
        for f in foliations:
            if (f.r, f.n) != (r, n):
                raise ValueError("foliation type mismatch")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "foliations", foliations)
        object.__setattr__(self, "_pg", None)
        object.__setattr__(self, "_relations", [])
        object.__setattr__(self, "_kappas", None)
        object.__setattr__(self, "_normals", None)

    @property
    def d(self) -> int:
        return len(self.foliations)

    def foliation_set(self) -> frozenset:
        return frozenset(self.foliations)

    def cleared_kappas(self) -> tuple[list[list[list[int]]], int]:
        """``(kappas, L)``: kappa_1, ..., kappa_d as integer rows, all times
        the lcm L of the matrices' denominators: one scale, so relations
        stay relations."""
        if self._kappas is None:
            lcm = math.lcm(*(f.matrix.den for f in self.foliations))
            kappas = [
                [[a * (lcm // f.matrix.den) for a in row] for row in f.matrix.ints]
                for f in self.foliations
            ]
            object.__setattr__(self, "_kappas", (kappas, lcm))
        return self._kappas

    def cleared_normals(self) -> list[dict[tuple[int, ...], int]]:
        """The maximal minors of each cleared kappa_j, L^r * Omega_j: one
        complete table per foliation, every r-subset of columns in colex
        order, zeros included, as ``exactalg._minors`` returns it, so a
        reader indexes it by position."""
        if self._normals is None:
            normals = [_minors(kappa, self.r * self.n) for kappa in self.cleared_kappas()[0]]
            object.__setattr__(self, "_normals", normals)
        return self._normals

    def pg(self) -> tuple[bool, tuple[int, ...] | None]:
        if self._pg is None:
            object.__setattr__(self, "_pg", check_pg(self))
        return self._pg

    def is_pg(self) -> bool:
        return self.pg()[0]

    def require_pg(self, allow_degenerate: bool = False) -> None:
        ok, failing = self.pg()
        if not ok and not allow_degenerate:
            raise DegenerateWebError(
                f"web not in general position: normals of foliations {failing} wedge to zero"
            )

    def _key(self):
        return self.r, self.n, self.foliations

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "foliations": [f.matrix.to_json() for f in self.foliations],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ConstantWeb":
        r, n = web_type_from_json(data, "web", ("foliations",))
        if not json_array(data["foliations"], "foliations"):
            raise ValueError("foliations must hold at least one foliation, got []")
        foliations = []
        for j, rows in enumerate(data["foliations"], start=1):
            matrix = Matrix.from_json(rows, f"foliation {j}")
            try:
                foliations.append(ConstantFoliation(r, n, matrix))
            except (ValueError, DegenerateWebError) as exc:
                raise type(exc)(f"foliation {j}: {exc}") from None
        return cls(r, n, foliations)


def web_type_from_json(data, field: str, keys: Sequence[str]) -> tuple[int, int]:
    """The fields ``r >= 1`` and ``n >= 2`` of the JSON object ``field``, as integers.

    ``data`` must be an object holding ``r``, ``n`` and every one of
    ``keys`` (see ``exactalg.json_object``).  Checked before any matrix
    is built, so a bad value is reported under its own name; ``true``
    and ``2.5`` are refused, not truncated.
    """
    json_object(data, field, ("r", "n", *keys))
    values = []
    for field, least in (("r", 1), ("n", 2)):
        value = data[field]
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ValueError(f"expected an integer {field} >= {least}, got {json.dumps(value)}")
        values.append(value)
    return values[0], values[1]


def generator_normal(foliation: ConstantFoliation) -> ExteriorForm:
    """The r-form obtained by wedging the defining rows, read off ``_minors``
    of the matrix's integer rows and divided by den^r; never zero, since
    every ``ConstantFoliation`` has rank r, so some maximal minor is not."""
    r, cols = foliation.r, foliation.matrix.cols
    ints, den = foliation.matrix.ints, foliation.matrix.den
    return ExteriorForm(
        cols, r, {s: Fraction(v, den**r) for s, v in _minors(ints, cols).items() if v}
    )


def check_pg(web: ConstantWeb) -> tuple[bool, tuple[int, ...] | None]:
    """Test the general-position condition.

    Returns ``(True, None)`` or ``(False, subset)`` where ``subset`` is
    the first failing index set (1-based), by size and then
    lexicographically.

    The subsets of the top size min(d, n) are tested first:
    rows that are independent stay independent in every subset, and
    every smaller subset lies in one of the top size, so if all of those
    pass the web is PG.  Otherwise let T be the first failing one; sizes
    2 .. top - 1 are searched in order and their first failure, if any,
    is reported, else T.  A smaller subset whose lex-first top-size
    completion (itself and the least indices not in it) precedes T lies
    in a top-size subset that passed, so it is skipped.  No top-size
    subset is tested twice.

    Each size is one lexicographic walk over the web's integer rows
    (``web.cleared_kappas()``; scaling by L != 0 changes no rank).
    ``stack[k]`` holds, for the first k foliations of the current
    subset, the rows of every later foliation projected onto the kernel
    of their stacked rows (``_project``); the next subset keeps the
    projections of the prefix it shares.  A prefix whose last
    foliation's projected rows have rank < r fails, and so does every
    subset that extends it: the first one not skipped is reported.  A
    subset of n foliations is projected along its first n - 2 only,
    which leaves 2r columns, and its last two are decided by the pairing
    of their projected normals, computed once per prefix.  For n = 2 that
    prefix is empty: every pair of foliations is one pairing of the
    cached ``cleared_normals``, the sweep R(0) reads too, and a web of
    one foliation is the walk of size 1.  Every step is exact, in
    integers.
    """
    root = dict(enumerate(web.cleared_kappas()[0]))
    top = min(web.d, web.n)

    def first_failure(delta: int, failing: tuple[int, ...] = ()) -> tuple[int, ...] | None:
        paired = 2 if delta == web.n else 0  # the last two foliations, by the pairing
        stack: list[dict] = [root]
        previous: tuple[int, ...] = ()
        for prefix in itertools.combinations(range(web.d - paired), delta - paired):
            if failing:
                rest = [j for j in range(web.d) if j not in prefix][: top - delta]
                if tuple(sorted(prefix + tuple(rest))) < failing:
                    continue  # its lex-first top-size completion passed
            shared = next(
                (k for k, (a, b) in enumerate(zip(previous, prefix)) if a != b), 0
            )
            del stack[shared + 1 :]
            for k in range(shared, len(prefix)):
                j = prefix[k]
                later = range(j + 1, web.d) if paired or k + 1 < len(prefix) else ()
                node = _project(stack[-1], j, later)
                if node is None:  # the first subset extending prefix[: k + 1] fails
                    return prefix + tuple(range(prefix[-1] + 1, prefix[-1] + 1 + paired))
                stack.append(node)
            previous = prefix
            if paired:
                start = prefix[-1] + 1 if prefix else 0
                normals = (
                    [_minors(rows, 2 * web.r) for rows in stack[-1].values()] if prefix
                    else web.cleared_normals()  # nothing projected: R(0)'s sweep
                )
                pair = next((pair for pair, value in _pairings(web.r, normals) if not value), None)
                if pair is not None:
                    return prefix + (start + pair[0], start + pair[1])
        return None

    failing = first_failure(top)
    if failing is None:
        return True, None
    smaller = (first_failure(delta, failing) for delta in range(2, top))
    failing = next((subset for subset in smaller if subset), failing)
    return False, tuple(j + 1 for j in failing)


def _project(
    rows: dict[int, list[list[int]]], j: int, later: Iterable[int]
) -> dict[int, list[list[int]]] | None:
    """The rows of each foliation in ``later`` times a kernel basis of
    ``rows[j]``, or None if ``rows[j]`` has rank below its number of rows.

    Let K span the kernel of the stacked rows of a prefix P, and
    ``rows[i]`` = kappa_i K.  Then P + (j,) has independent rows exactly
    when kappa_j K has full rank, and then K B spans the kernel of P +
    (j,), where B is a kernel basis of kappa_j K: the rows returned are
    kappa_i K B.  Each vector of B is non-zero at its free column and at
    the pivots only (``_kernel``), so a projected entry is r + 1 products.
    """
    kernel = _kernel(rows[j])
    if kernel is None:
        return None
    return {
        i: [[sum(map(operator.mul, pick(row), vector)) for pick, vector in kernel]
            for row in rows[i]]
        for i in later
    }


def _kernel(rows: list[list[int]]) -> list[tuple[operator.itemgetter, list[int]]] | None:
    """A kernel basis of integer rows, or None if they are dependent.

    Read off the fraction-free Gauss-Jordan elimination
    ``exactalg._echelon``: each row i is D at its pivot column p_i and 0
    at the other pivots, so the kernel vector of a free column f is D at
    f and -row_i[f] at p_i.  Each is divided by its content and returned
    as an itemgetter of its columns (the pivots, then f) and its entries.
    """
    rows, pivots, D, _ = _echelon(rows)
    if len(pivots) < len(rows):
        return None
    kernel = []
    for f in range(len(rows[0])):
        if f not in pivots:
            vector = [-row[f] for row in rows] + [D]
            g = math.gcd(*vector)
            kernel.append((operator.itemgetter(*pivots, f), [x // g for x in vector]))
    return kernel


@functools.cache
def _pairing_signs(r: int) -> tuple[int, ...]:
    """eps(T) = (-1)^(sum(T) + r(r+1)/2), the sign of the shuffle (T^c, T),
    for each r-subset T of range(2r) in colex order."""
    return tuple((-1) ** (sum(t) + r * (r + 1) // 2) for t in index_subsets(2 * r, r))


def _pairings(
    r: int, normals: Sequence[dict[tuple[int, ...], int]]
) -> Iterator[tuple[tuple[int, int], int]]:
    """For the maximal minors N of r x 2r integer blocks, each a complete
    table in colex order (``exactalg._minors``), each pair of positions
    i < j (lexicographic) with sum_T eps(T) N_i(T^c) N_j(T): by the
    generalized Laplace expansion along the first r rows, the determinant
    of the two blocks stacked.

    Complements reverse colex order.  S precedes T in colex order exactly
    when max(S delta T) lies in T, and S^c delta T^c = S delta T, whose
    largest element lies in S^c exactly when it does not lie in S, that
    is, when it lies in T.  So S^c follows T^c exactly when S precedes T,
    the complement of the k-th r-subset of range(2r) is the k-th from
    the end, and N(T^c) is the table read backwards.  Each normal is laid
    out once as two lists in colex order, N(T) and eps(T) N(T^c), so a
    pair is one sum of products and no subset is looked up.
    """
    signs = _pairing_signs(r)
    plain = [list(normal.values()) for normal in normals]
    dual = [list(map(operator.mul, signs, reversed(values))) for values in plain]
    for i, j in itertools.combinations(range(len(normals)), 2):
        yield (i, j), sum(map(operator.mul, dual[i], plain[j]))


def require_web_type(r: int, n: int, d: int) -> None:
    """The type rule of every web, arrangement and bound: r >= 1, n >= 2, d >= 1."""
    if r < 1 or n < 2 or d < 1:
        raise ValueError(
            f"web type requires r >= 1, n >= 2, d >= 1, got r = {r}, n = {n}, d = {d}"
        )


def q_of(r: int, n: int, d: int) -> int:
    require_web_type(r, n, d)
    return d - r * (n - 1) - 2


def degree_bound(r: int, n: int, d: int, h: int) -> int:
    """Upper bound for the dimension of the degree-h relation space."""
    require_web_type(r, n, d)
    return binomial(r - 1 + h, r - 1) * max(d - (r + h) * (n - 1) - 1, 0)


def h_cutoff(r: int, n: int, d: int) -> int:
    """Smallest h with d <= (r+h)(n-1)+1; all higher relation spaces vanish."""
    require_web_type(r, n, d)
    h = 0
    while d > (r + h) * (n - 1) + 1:
        h += 1
    return h


def rho_bound(r: int, n: int, d: int) -> int:
    """The optimal total rank bound: sum of the per-degree bounds."""
    return sum(degree_bound(r, n, d, h) for h in range(h_cutoff(r, n, d)))
