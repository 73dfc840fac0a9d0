"""Constant webs of type (r, n): general position and closed-form bounds.

A constant foliation of type (r, n) on V = Q^(rn) is the family of
parallel affine subspaces cut out by r independent linear forms, stored
as the rows of an r x (rn) matrix.  A constant web is a list of d such
foliations.  The general-position condition (PG) asks that the wedge of
any delta <= min(d, n) of the generator normals is nonzero.

Each generator normal Omega_j is decomposable: it is the wedge of the r
rows of kappa_j.  A wedge of delta such normals is therefore the wedge
of the delta*r stacked rows, and a wedge of covectors is nonzero exactly
when they are linearly independent.  So PG is a rank condition on
stacked rows, with no exterior algebra.  Independent rows stay
independent in every subset, so the subsets of the top size min(d, n)
decide PG; smaller ones are searched only to report the first failure.

``check_pg`` takes those ranks modulo the prime p below 2**30 first, on
the web's rows cleared by one lcm (``ConstantWeb.cleared_kappas``),
extending one sparse echelon (``exactalg._extend_mod``) per prefix of
the current subset.  Rank modulo p never exceeds rank over Q, so full
rank modulo p proves independence; only a subset that looks deficient
gets an exact rank, rn minus the size of its ``exactalg.certified_kernel``,
so the first failing subset is the one exact ranks alone report.

The closed-form quantities:

* q_of(r, n, d)        = d - r(n-1) - 2
* degree_bound(...h)   = C(r-1+h, r-1) * max(d - (r+h)(n-1) - 1, 0)
* rho_bound(r, n, d)   = sum of the degree bounds over h
* h_cutoff(r, n, d)    = first degree whose relation space provably vanishes
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateWebError
from .exactalg import (
    Matrix, _extend_mod, _minors, _prime_below, binomial,
    certified_kernel, json_array, json_object,
)
from .multilinear import ExteriorForm


class ConstantFoliation:
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

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("ConstantFoliation is immutable")

    def row_span(self) -> Matrix:
        """Canonical (RREF) form of the row span; foliation identity."""
        if self._span is None:
            object.__setattr__(self, "_span", self.matrix.row_space_rref())
        return self._span

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConstantFoliation)
            and (self.r, self.n) == (other.r, other.n)
            and self.row_span() == other.row_span()
        )

    def __hash__(self) -> int:
        return hash((self.r, self.n, self.row_span()))

    def __repr__(self) -> str:
        return f"ConstantFoliation(r={self.r}, n={self.n}, {self.matrix!r})"


class ConstantWeb:
    """A list of d constant foliations sharing one type (r, n).

    Construction never refuses a web that fails general position; the
    ``pg`` result is computed lazily and rank computations gate on it.
    ``_relations`` keeps the bases of R(0), R(1), ... (see ``abelian``).
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

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("ConstantWeb is immutable")

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
        """The non-zero maximal minors of each cleared kappa_j by column
        subset (colex): L^r * Omega_j, one table per foliation."""
        if self._normals is None:
            normals = [
                {s: v for s, v in _minors(kappa, self.r * self.n).items() if v}
                for kappa in self.cleared_kappas()[0]
            ]
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConstantWeb)
            and (self.r, self.n) == (other.r, other.n)
            and self.foliations == other.foliations
        )

    def __hash__(self) -> int:
        return hash((self.r, self.n, self.foliations))

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
    of the matrix's integer rows and divided by den^r; never zero."""
    r, cols = foliation.r, foliation.matrix.cols
    ints, den = foliation.matrix.ints, foliation.matrix.den
    normal = ExteriorForm(
        cols, r, {s: Fraction(v, den**r) for s, v in _minors(ints, cols).items() if v}
    )
    if normal.is_zero:
        raise DegenerateWebError("not a foliation: generator normal vanishes")
    return normal


def check_pg(web: ConstantWeb) -> tuple[bool, tuple[int, ...] | None]:
    """Test the general-position condition.

    Returns ``(True, None)`` or ``(False, subset)`` where ``subset`` is
    the first failing index set (1-based), by size and then
    lexicographically.

    Only the subsets of the top size min(d, n) are tested first: rows
    that are independent stay independent in every subset, and every
    smaller subset lies in one of the top size, so if all of those pass
    the web is PG.  Otherwise let T be the first failing one; sizes
    2 .. top - 1 are searched in order and their first failure, if any,
    is reported, else T.  A smaller subset whose lex-first top-size
    completion (itself and the least indices not in it) precedes T lies
    in a top-size subset that passed, so it is skipped.  Size 1 never
    fails (a foliation has rank r), and no top-size subset is tested
    twice.

    The rows are ``web.cleared_kappas()``, turned into sparse dicts once:
    scaling by L != 0 changes no rank.  Ranks are taken modulo the prime
    p below 2**30 (one CPython digit); any prime is sound, since full rank
    modulo p proves independence, and every failure is confirmed by
    ``certified_kernel`` on the same rows: the delta * r rows are
    dependent when its kernel has more than r * (n - delta) vectors.
    ``stack[k]`` is the echelon modulo p of the first k foliations of the
    current subset; the next subset in order keeps the echelons of the
    prefix it shares and extends them (see the module docstring).  An
    echelon row is scaled to 1 at its pivot only when it first reduces
    another row, so the rows of a leaf echelon, which the next subset
    drops, are not all normalized for nothing.
    """
    p = _prime_below(2**30)
    kappas, _ = web.cleared_kappas()
    rows = [[{c: a for c, a in enumerate(row) if a} for row in kappa] for kappa in kappas]
    top = min(web.d, web.n)

    def first_failure(delta: int, failing: tuple[int, ...] = ()) -> tuple[int, ...] | None:
        stack: list[dict] = [{}]
        previous: tuple[int, ...] = ()
        for subset in itertools.combinations(range(web.d), delta):
            if failing:
                rest = [j for j in range(web.d) if j not in subset][: top - delta]
                if tuple(sorted(subset + tuple(rest))) < failing:
                    continue  # its lex-first top-size completion passed
            shared = next(
                (k for k, (a, b) in enumerate(zip(previous, subset)) if a != b), 0
            )
            del stack[shared + 1 :]
            for j in subset[shared:]:
                stack.append(_extend_mod(stack[-1], rows[j], p))
            previous = subset
            if len(stack[-1]) < delta * web.r:
                stacked = [row for j in subset for row in rows[j]]
                if len(certified_kernel(stacked, web.r * web.n)) > web.r * (web.n - delta):
                    return subset
        return None

    failing = first_failure(top)
    if failing is None:
        return True, None
    smaller = (first_failure(delta, failing) for delta in range(2, top))
    failing = next((subset for subset in smaller if subset), failing)
    return False, tuple(j + 1 for j in failing)


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
