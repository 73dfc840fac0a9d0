"""Abelian-relation spaces of constant webs, degree by degree.

A degree-h relation of a web with foliation maps kappa_j and generator
normals Omega_j is a d-tuple c of degree-h forms in r variables with
sum_j c_j(kappa_j) * Omega_j = 0 in Sym^h(V*) (x) Lambda^r(V*).  It is
stored as one vector over (foliation j) x (monomial, graded-lex), that
is d * C(r-1+h, h) columns.  R(0) is the kernel of the C(rn, r) x d
matrix whose column j is the normal Omega_j.

R(h), h >= 1, comes from R(h-1) by prolongation (Chern and Griffiths,
"Abel's theorem and webs", Jahresber. DMV 80, 1978).  Along a direction
a of V, the left-hand side differentiates to that of the degree-(h-1)
tuple D_a c = (sum_i kappa_j[i, a] * dc_j/dx_i)_j, so D_a maps R(h) into
R(h-1).  Conversely, if every D_a c lies in R(h-1), every first
derivative of the left-hand side vanishes, and so does the left-hand
side, by Euler's identity (h times a degree-h form is sum_a x_a times
its derivative along a).  This holds for every web, PG or not.  Since y
lies in R(h-1) exactly when y_q = sum_f K_f[q] * y_f at every column q
outside the free columns f of its canonical basis K, R(h) is the kernel
of rn * (d * C(r+h-2, h-1) - dim R(h-1)) sparse integer rows, where the
relation matrix has C(rn+h-1, h) * C(rn, r).

An empty R(h-1) leaves only the rows D_a c = 0 for every a.  For each
j these say kappa_j^T grad c_j = 0, and kappa_j has rank r, so every
c_j is constant, hence zero in degree h >= 1: R(h) = 0, for every web,
PG or not.  So the chain ends at its first empty degree, and no degree
above it builds rows or calls the kernel.  The bases are kept on the
web (``ConstantWeb._relations``), so each degree is eliminated once, in
the sparse integer form ``certified_kernel`` returns: each vector as a
dict of integers over its support and one positive denominator, so the
next degree's rows are built in integers.  ``relation_space`` alone
turns them into ``Fraction`` coefficients.

Every kernel comes from :func:`exactalg.certified_kernel`: computed
modulo a 61-bit prime, lifted to Q and checked against the rows in
exact integers, which proves it is the canonical (RREF) basis of the
rows' kernel.  That kernel is R(h), so the certificate carries over.

Every row is built from ``ConstantWeb.cleared_kappas``, the kappa_j
times one lcm L of all their denominators; their maximal minors
(``ConstantWeb.cleared_normals``, one table per web) are L^r * Omega_j,
the integer normals.
Verification of a relation (``_verify_relation``) also runs in integers.
The coefficients of all components are cleared by one lcm D; each
non-zero component is pulled back along its cleared kappa_j by
``multilinear._expand`` and the sum of P_j (x) N_j over (monomial in rn
variables, r-subset) must vanish.  That sum is L^(h+r) * D times the
rational one because the scale is common to every term; a scale per
foliation would weight the foliations differently and could accept a
false relation.  Verification reads neither R(h-1) nor the prolonged
rows, since a wrong prolongation would pass any check made with its own
rows, and ``relation_matrix``, the relation map by its definition, pulls
back through ``multilinear.substitute``, the same expansion.

A computed dimension exceeding the per-degree bound on a general-position
web would contradict a proven statement, so it aborts with
InternalContradictionError instead of returning.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import InternalContradictionError
from .exactalg import Matrix, _clear_denominators, certified_kernel
from .multilinear import (
    HomogeneousPoly,
    _expand,
    monomial_exponents,
    monomial_position,
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
    """Raise unless sum_j c_j(kappa_j) * Omega_j = 0; see the module docstring."""
    live = [j for j, c in enumerate(components) if not c.is_zero]
    if not live:
        return
    rn, h = web.r * web.n, components[live[0]].degree
    (kappas, _), normals = web.cleared_kappas(), web.cleared_normals()
    coeffs, _ = _clear_denominators(components[j].coeffs.values() for j in live)
    positions = subset_position(rn, web.r)
    width = len(positions)
    total: dict[int, int] = {}
    for j, values in zip(live, coeffs):
        terms = [(positions[s], v) for s, v in normals[j].items()]
        pulled = _expand(dict(zip(components[j].coeffs, values)), kappas[j], h)
        for code, p in pulled.items():
            if p:
                for pos, v in terms:
                    key = code * width + pos
                    total[key] = total.get(key, 0) + p * v
    if any(total.values()):
        raise InternalContradictionError("claimed abelian relation does not sum to zero")


def relation_matrix(web: ConstantWeb, h: int) -> Matrix:
    """The map from E_r(h)^d to Sym^h(V*) (x) Lambda^r(V*), by its definition.

    Rows are indexed by (degree-h monomial in rn variables, graded-lex)
    x (r-subset, colex), columns as relation vectors.  Relation spaces
    are not computed from it (see the module docstring).
    """
    mono_pos = monomial_position(web.r * web.n, h)
    sub_pos = subset_position(web.r * web.n, web.r)
    basis = monomial_exponents(web.r, h)
    entries = [[0] * (web.d * len(basis)) for _ in range(len(mono_pos) * len(sub_pos))]
    for j, foliation in enumerate(web.foliations):
        normal = generator_normal(foliation).coeffs
        # pulled back along the integer rows, den times kappa_j
        scale = foliation.matrix.den**h
        for col, expo in enumerate(basis, j * len(basis)):
            pulled = substitute(HomogeneousPoly(web.r, h, {expo: 1}), foliation.matrix.ints)
            for mono, pc in pulled.coeffs.items():
                for subset, nc in normal.items():
                    entries[mono_pos[mono] * len(sub_pos) + sub_pos[subset]][col] = pc * nc / scale
    return Matrix(entries)


def _normal_rows(web: ConstantWeb) -> list[dict[int, int]]:
    """The rows of R(0): one per r-subset, the cleared normals' minors there."""
    rows: dict[tuple[int, ...], dict[int, int]] = {}
    for j, normal in enumerate(web.cleared_normals()):
        for subset, c in normal.items():
            rows.setdefault(subset, {})[j] = c
    return list(rows.values())


def _prolonged_rows(
    web: ConstantWeb, h: int, lower: list[tuple[int, dict[int, int]]]
) -> Iterator[dict[int, int]]:
    """Rows whose kernel is R(h), h >= 1, from the canonical basis K of R(h-1).

    K comes as ``certified_kernel`` returns it: each K_f as ``(den, vec)``
    with K_f = vec / den, keys ascending and the free column f last.  One
    row per direction a and non-free column q of K: (e_q - sum_f K_f[q]
    e_f) applied to D_a c, times the lcm of the denominators of the
    K_f[q], so that every weight is an integer, computed in integers.
    """
    r, rn = web.r, web.r * web.n
    dim_e = poly_space_dim(r, h)
    pos = monomial_position(r, h)
    # derivative[t][a]: the lcm of the kappas' denominators times
    # coordinate t = (j, m) of D_a c, as (column, integer) pairs; x^m in
    # dc_j/dx_i has (m_i + 1) times the coefficient of x^(m + e_i) in c_j
    derivative = []
    for j, kappa in enumerate(web.cleared_kappas()[0]):
        for m in monomial_exponents(r, h - 1):
            raised = [
                (kappa[i], j * dim_e + pos[m[:i] + (m[i] + 1,) + m[i + 1 :]], m[i] + 1)
                for i in range(r)
            ]
            derivative.append([
                [(col, factor * row[a]) for row, col, factor in raised if row[a]]
                for a in range(rn)
            ])
    # y is in span K iff y_q = sum_f K_f[q] * y_f at every non-free q
    touching: dict[int, list[tuple[int, int, int]]] = {q: [] for q in range(len(derivative))}
    for den, vec in lower:
        f = next(reversed(vec))
        del touching[f]
        for q, x in vec.items():
            if q != f:
                touching[q].append((f, x, den))
    for q, terms in touching.items():
        # K_f[q] = x / den has the denominator den / gcd(x, den) in lowest terms
        scale = math.lcm(*(den // math.gcd(x, den) for _, x, den in terms))
        weight = [(q, scale)] + [(f, -x * scale // den) for f, x, den in terms]
        for a in range(rn):
            row: dict[int, int] = {}
            for t, w in weight:
                for col, c in derivative[t][a]:
                    row[col] = row.get(col, 0) + w * c
            yield {col: c for col, c in row.items() if c}


def _relation_kernel(
    web: ConstantWeb, h: int, allow_degenerate: bool
) -> list[tuple[int, dict[int, int]]]:
    """The canonical basis of R(h), gated on PG and checked against the bound.

    Every lower degree is computed first; all of them are kept on the web.
    The chain ends at its first empty degree: R(g-1) = 0 forces R(g) = 0
    (see the module docstring), so no rows are built above it.
    """
    web.require_pg(allow_degenerate)
    chain = web._relations
    while len(chain) <= h:
        g = len(chain)
        if g and not chain[-1]:
            chain.append([])
            continue
        rows = _prolonged_rows(web, g, chain[-1]) if g else _normal_rows(web)
        chain.append(certified_kernel(rows, web.d * poly_space_dim(web.r, g)))
    bound = degree_bound(web.r, web.n, web.d, h)
    if web.is_pg() and len(chain[h]) > bound:
        raise InternalContradictionError(
            f"dim R({h}) = {len(chain[h])} exceeds the proven bound {bound} "
            f"for a general-position web of type ({web.r},{web.n}), d={web.d}"
        )
    return chain[h]


def relation_space_dim(web: ConstantWeb, h: int, allow_degenerate: bool = False) -> int:
    """dim R(h), the number of certified canonical kernel vectors."""
    return len(_relation_kernel(web, h, allow_degenerate))


def relation_space(
    web: ConstantWeb, h: int, allow_degenerate: bool = False
) -> list[RelationBasisElement]:
    """Canonical kernel basis of the degree-h relation space.

    The only place the kernel vectors become ``Fraction`` coefficients;
    each component's are set in column order, that is graded-lex.
    """
    monomials = monomial_exponents(web.r, h)
    elements = []
    for den, vec in _relation_kernel(web, h, allow_degenerate):
        coeffs: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(web.d)]
        for c, x in vec.items():
            j, k = divmod(c, len(monomials))
            coeffs[j][monomials[k]] = Fraction(x, den)
        elements.append(RelationBasisElement(
            web, h, [HomogeneousPoly(web.r, h, coeff) for coeff in coeffs]
        ))
    return elements


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
