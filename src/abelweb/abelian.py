"""Abelian-relation spaces of constant webs, degree by degree.

A degree-h relation of a web with foliation maps kappa_j and generator
normals Omega_j is a d-tuple (c_1, ..., c_d) of degree-h homogeneous
polynomials in r variables with

    sum_j  c_j(kappa_j) * Omega_j  =  0.

The relation space R(h) is the kernel of the linear map assembling the
left-hand side in the space Sym^h(V*) (x) Lambda^r(V*).  The matrix
layout is fixed once and for all: rows are indexed by (degree-h monomial
in rn variables, graded-lex) x (r-subset, colex); columns by (foliation
j) x (degree-h monomial in r variables, graded-lex).

Assembly works in integers.  It reads the pullbacks of the degree-h
monomials from integer tables kept on each foliation
(``ConstantFoliation.pullbacks``, built one degree from the previous
one), places their products with the normal's coefficients, and scales
each foliation's columns to one common factor, so the sparse rows are a
multiple of the relation matrix and have its kernel.  That kernel comes
from :func:`exactalg.certified_kernel`: elimination modulo a 61-bit
prime (rank_p <= rank_Q), lifted to Q and checked against the rows in
exact integers, which also proves the dimension and that the basis is
the canonical (RREF) one.  ``relation_matrix`` is the same rows divided
by their factor, as a dense matrix.

Verification of a relation deliberately does not read the tables: it
pulls each component back through ``multilinear.substitute``.  A wrong
table would give a wrong kernel, and that kernel would sum to zero
against the same wrong table, so checking it there would prove nothing.

A computed dimension exceeding the per-degree bound on a general-position
web would contradict a proven statement, so it aborts with
InternalContradictionError instead of returning.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateWebError, InternalContradictionError
from .exactalg import Matrix, binomial, certified_kernel
from .multilinear import (
    HomogeneousPoly,
    poly_space_dim,
    subset_position,
    substitute,
)
from .webcore import (
    ConstantWeb,
    degree_bound,
    generator_normal,
    h_cutoff,
    q_of,
    rho_bound,
)


class RelationBasisElement:
    """One abelian relation, re-verified exactly on construction."""

    __slots__ = ("degree", "components")

    def __init__(self, web: ConstantWeb, degree: int, components: Sequence[HomogeneousPoly]):
        components = tuple(components)
        if len(components) != web.d:
            raise ValueError("one polynomial component per foliation is required")
        for c in components:
            if c.nvars != web.r or c.degree != degree:
                raise ValueError("component has wrong polynomial space")
        _verify_relation(web, components)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RelationBasisElement is immutable")

    def vector(self) -> tuple[Fraction, ...]:
        """Concatenated component coefficients, foliation-major."""
        out: list[Fraction] = []
        for c in self.components:
            out.extend(c.vector())
        return tuple(out)


def _verify_relation(web: ConstantWeb, components: Sequence[HomogeneousPoly]) -> None:
    total: dict[tuple, Fraction] = {}
    for foliation, c in zip(web.foliations, components):
        if c.is_zero:
            continue
        normal = generator_normal(foliation)
        poly = substitute(c, foliation.matrix.entries)
        for expo, pc in poly.coeffs.items():
            for subset, nc in normal.coeffs.items():
                key = (expo, subset)
                total[key] = total.get(key, Fraction(0)) + pc * nc
    if any(v != 0 for v in total.values()):
        raise InternalContradictionError("claimed abelian relation does not sum to zero")


def _relation_rows(web: ConstantWeb, h: int) -> tuple[dict[int, dict[int, int]], int]:
    """``scale`` times the degree-h relation matrix as sparse integer rows, and ``scale``.

    Rows are keyed by their index in the layout and hold their non-zero
    entries by column.  Foliation j, of denominator D_j, contributes its
    integer pullback table (D_j^h times the pullbacks) times the normal
    of its integer rows (D_j^r times its normal); each block is then
    multiplied up to the common factor ``scale`` = lcm_j D_j^(h+r).
    """
    r = web.r
    sub_pos = subset_position(r * web.n, r)
    n_subsets = len(sub_pos)
    dim_e = poly_space_dim(r, h)
    powers = [f.denominator ** (h + r) for f in web.foliations]
    scale = math.lcm(*powers)
    rows: dict[int, dict[int, int]] = {}
    for j, (foliation, power) in enumerate(zip(web.foliations, powers)):
        factor = scale // power
        integral = foliation.denominator**r
        normal = [
            (sub_pos[s], (c * integral).numerator * factor)
            for s, c in generator_normal(foliation).coeffs.items()
        ]
        for col, pullback in enumerate(foliation.pullbacks(h), j * dim_e):
            for mono, pc in pullback.items():
                base = mono * n_subsets
                for s, nc in normal:
                    rows.setdefault(base + s, {})[col] = pc * nc
    return rows, scale


def relation_matrix(web: ConstantWeb, h: int) -> Matrix:
    """The assembled map from E_r(h)^d to Sym^h(V*) (x) Lambda^r(V*).

    The rows of :func:`_relation_rows` divided by their scale, as a
    dense matrix; rank and kernel computations read those rows directly.
    """
    rn = web.r * web.n
    rows, scale = _relation_rows(web, h)
    zero = Fraction(0)
    entries = [
        [zero] * (web.d * poly_space_dim(web.r, h))
        for _ in range(poly_space_dim(rn, h) * binomial(rn, web.r))
    ]
    for i, row in rows.items():
        for j, a in row.items():
            entries[i][j] = Fraction(a, scale)
    return Matrix(entries)


def _relation_kernel(web: ConstantWeb, h: int) -> list[tuple[Fraction, ...]]:
    """The canonical kernel basis of the degree-h relation matrix."""
    rows, _ = _relation_rows(web, h)
    return certified_kernel(rows.values(), web.d * poly_space_dim(web.r, h))


def _guard_bound(web: ConstantWeb, h: int, dim: int) -> None:
    if web.is_pg():
        bound = degree_bound(web.r, web.n, web.d, h)
        if dim > bound:
            raise InternalContradictionError(
                f"dim R({h}) = {dim} exceeds the proven bound {bound} "
                f"for a general-position web of type ({web.r},{web.n}), d={web.d}"
            )


def relation_space_dim(web: ConstantWeb, h: int, allow_degenerate: bool = False) -> int:
    """dim R(h), the number of certified canonical kernel vectors."""
    web.require_pg(allow_degenerate)
    dim = len(_relation_kernel(web, h))
    _guard_bound(web, h, dim)
    return dim


def relation_space(
    web: ConstantWeb, h: int, allow_degenerate: bool = False
) -> list[RelationBasisElement]:
    """Canonical kernel basis of the degree-h relation space."""
    web.require_pg(allow_degenerate)
    kernel = _relation_kernel(web, h)
    _guard_bound(web, h, len(kernel))
    dim_e = poly_space_dim(web.r, h)
    basis = []
    for vec in kernel:
        components = [
            HomogeneousPoly.from_vector(web.r, h, vec[j * dim_e : (j + 1) * dim_e])
            for j in range(web.d)
        ]
        basis.append(RelationBasisElement(web, h, components))
    return basis


class DegreeReport:
    __slots__ = ("h", "dim", "bound", "saturated")

    def __init__(self, h: int, dim: int, bound: int):
        self.h = h
        self.dim = dim
        self.bound = bound
        self.saturated = dim == bound

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "dim": self.dim,
            "bound": self.bound,
            "saturated": self.saturated,
        }


class RankReport:
    """Per-degree dimensions, bounds and totals for one web.

    ``dims[h]`` is dim R(h) for h = 0 .. h_cutoff - 1.  The bounds are
    theorems about PG webs, so a web failing PG (reachable with
    ``allow_degenerate``) is neither checked against rho nor called
    semi-extremal or of maximal rank; ``"pg": false`` replaces both flags.
    """

    def __init__(self, web: ConstantWeb, dims: Sequence[int]):
        self.r, self.n, self.d = web.r, web.n, web.d
        self.per_degree = tuple(
            DegreeReport(h, dim, degree_bound(web.r, web.n, web.d, h))
            for h, dim in enumerate(dims)
        )
        self.total_rank = sum(dims)
        self.rho = rho_bound(web.r, web.n, web.d)
        self.pg = web.is_pg()
        self.maximal_rank = self.semi_extremal = None
        if self.pg:
            if self.total_rank > self.rho:
                raise InternalContradictionError("total rank exceeds the proven bound")
            self.maximal_rank = self.total_rank == self.rho
            self.semi_extremal = _semi_extremal(
                self.r, self.n, self.d, self.dim(0), self.dim(1)
            )

    def dim(self, h: int) -> int:
        for item in self.per_degree:
            if item.h == h:
                return item.dim
        return 0

    def to_json(self) -> dict:
        flags = {"pg": False}
        if self.pg:
            flags = {"semi_extremal": self.semi_extremal,
                     "maximal_rank": self.maximal_rank}
        return {
            "r": self.r,
            "n": self.n,
            "d": self.d,
            "per_degree": [item.to_json() for item in self.per_degree],
            "total_rank": self.total_rank,
            "rho": self.rho,
            **flags,
        }

    def to_tsv(self) -> str:
        lines = ["h\tdim\tbound\tsaturated"]
        for item in self.per_degree:
            lines.append(
                f"{item.h}\t{item.dim}\t{item.bound}\t{str(item.saturated).lower()}"
            )
        verdict = f"maximal={str(self.maximal_rank).lower()}" if self.pg else "pg=false"
        lines.append(f"total\t{self.total_rank}\trho={self.rho}\t{verdict}")
        return "\n".join(lines) + "\n"


def _semi_extremal(r: int, n: int, d: int, dim0: int, dim1: int) -> bool:
    """True iff q >= n-1 and dim R(0), dim R(1) are maximal.

    q >= n-1 forces a cutoff of at least 2, so a rank report always has both.
    """
    return (
        q_of(r, n, d) >= n - 1
        and dim0 == d - r * (n - 1) - 1
        and dim1 == r * (d - (r + 1) * (n - 1) - 1)
    )


def total_rank(
    web: ConstantWeb, allow_degenerate: bool = False, paranoid: bool = False
) -> RankReport:
    """Rank report over all degrees below the provable cutoff.

    ``paranoid`` additionally computes the first provably-zero degree and
    asserts it really vanishes.  That is a theorem about PG webs only, so
    a web failing PG (``allow_degenerate``) is not checked.
    """
    web.require_pg(allow_degenerate)
    cutoff = h_cutoff(web.r, web.n, web.d)
    dims = [relation_space_dim(web, h, allow_degenerate) for h in range(cutoff)]
    if paranoid and web.is_pg():
        extra = relation_space_dim(web, cutoff)
        if extra != 0:
            raise InternalContradictionError(
                f"dim R({cutoff}) = {extra}, expected 0 beyond the cutoff"
            )
    return RankReport(web, dims)


def is_semi_extremal(web: ConstantWeb, allow_degenerate: bool = False) -> bool:
    """True iff R(0) and R(1) are both of maximal dimension (and q >= n-1)."""
    dims = [relation_space_dim(web, h, allow_degenerate) for h in (0, 1)]
    return _semi_extremal(web.r, web.n, web.d, *dims)


def subweb(web: ConstantWeb, indices: Sequence[int]) -> ConstantWeb:
    """Restriction to the 1-based foliation indices, order preserved.

    A web already known to be in general position passes that on: every
    subset the subweb's PG check would test is one the web's check
    tested, so the subweb needs no check of its own.
    """
    indices = list(indices)
    if len(set(indices)) != len(indices):
        raise ValueError("subweb indices must be distinct")
    for i in indices:
        if not 1 <= i <= web.d:
            raise ValueError(f"foliation index {i} outside 1..{web.d}")
    sub = ConstantWeb(web.r, web.n, [web.foliations[i - 1] for i in indices])
    if web._pg == (True, None):
        object.__setattr__(sub, "_pg", web._pg)
    return sub
