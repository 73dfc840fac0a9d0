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
its derivative along a).  This holds for every web, PG or not.
R(h-1) is the kernel of the reduced rows ``certified_kernel`` returned
for it: one primitive integer row per pivot q, non-zero only at q and at
the free columns of the canonical basis.  So c lies in R(h) exactly when
row_q . D_a c = 0 for every direction a and pivot q: R(h) is the kernel
of rn * (d * C(r+h-2, h-1) - dim R(h-1)) sparse integer rows, where the
relation matrix has C(rn+h-1, h) * C(rn, r).  Each is a row of R(h-1)
composed with D_a, read as it is held; nothing is read back from the
basis vectors.

An empty R(h-1) leaves only the rows D_a c = 0 for every a.  For each
j these say kappa_j^T grad c_j = 0, and kappa_j has rank r, so every
c_j is constant, hence zero in degree h >= 1: R(h) = 0, for every web,
PG or not.  So the chain ends at its first empty degree, and no degree
above it builds rows or calls the kernel; its reduced rows are the unit
rows.  The chain is kept on the web (``ConstantWeb._relations``), one
:class:`_Degree` per degree, so each degree is eliminated once: its
reduced rows, which the next degree reads, and its canonical basis, in
the sparse integer form ``certified_kernel`` returns, each vector as a
dict of integers over its support and one positive denominator.
``relation_space`` alone turns them into ``Fraction`` coefficients.

Every kernel comes from :func:`exactalg.certified_kernel`: one sparse
elimination over Z, whose exact row operations keep the rows' span over
Q, so the basis it reads off is the canonical (RREF) basis of the rows'
kernel, checked against the rows in exact integers.  That kernel is
R(h).

Every row is built from ``ConstantWeb.cleared_kappas``, the kappa_j
times one lcm L of all their denominators; their maximal minors
(``ConstantWeb.cleared_normals``, one colex table each) are L^r * Omega_j,
the integer normals.
Verification (``_verify_relation``) also runs in integers, once per
degree for all the vectors w_k of a basis, in the form
``certified_kernel`` returns.  They are packed (``exactalg._packed``)
into one integer per column (foliation j, monomial), vector k at bit
offset k * bits.  Each foliation's packed component is pulled back along
its cleared kappa_j by ``multilinear._expand`` and the sum of P_j (x) N_j
over (monomial in rn variables, r-subset) must vanish.  Both maps are
linear over Z, so that sum is sum_k S(w_k) * 2**(k*bits), S(w) the same
sum for w alone.  S(w) is L^(h+r) times the rational sum of the relation
w, because the scale is common to every term; a scale per foliation
would weight the foliations differently and could accept a false
relation.  Each entry of S(w) is bounded: x^m pulls back to a product of
h rows of the cleared kappa_j, whose l1 norm is at most R_j^h, R_j the
largest row l1 norm of kappa_j, so no coefficient exceeds R_j^h, and
|S(w)| <= |w|_1 * max_j R_j^h * max_j |N_j| at every entry.  With bits the
bit length of that bound over the largest |w_k|_1, every entry of
S(w_k) is below 2**bits, so the packed sum vanishes exactly when every
S(w_k) does: the lowest non-zero one cannot be cancelled.  A single
relation (``RelationBasisElement``) is a batch of one, its components
cleared by one lcm.  Verification reads neither R(h-1) nor the prolonged
rows, since a wrong prolongation would pass any check made with its own
rows, and ``relation_matrix``, the relation map by its definition, pulls
back through ``multilinear.substitute``, the same expansion.

A computed dimension exceeding the per-degree bound on a general-position
web would contradict a proven statement, so it aborts with
InternalContradictionError instead of returning.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .errors import InternalContradictionError
from .exactalg import Matrix, _Frozen, _clear_denominators, _packed, certified_kernel
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


class RelationBasisElement(_Frozen):
    """One abelian relation, verified exactly on construction."""

    __slots__ = ("degree", "components")

    def __init__(self, web: ConstantWeb, degree: int, components: Sequence[HomogeneousPoly]):
        components = tuple(components)
        if len(components) != web.d:
            raise ValueError("one polynomial component per foliation is required")
        for c in components:
            if c.nvars != web.r or c.degree != degree:
                raise ValueError("component has wrong polynomial space")
        (ints,), den = _clear_denominators([[x for c in components for x in c.vector()]])
        _verify_relation(web, degree, [(den, dict(enumerate(ints)))])
        self._store(degree, components)

    @classmethod
    def _of_verified(cls, degree: int, components: tuple[HomogeneousPoly, ...]):
        """The relation of components already verified, with no second check."""
        element = object.__new__(cls)
        element._store(degree, components)
        return element

    def _store(self, degree: int, components: tuple[HomogeneousPoly, ...]) -> None:
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", components)

    def vector(self) -> tuple[Fraction, ...]:
        """Concatenated component coefficients, foliation-major."""
        out: list[Fraction] = []
        for c in self.components:
            out.extend(c.vector())
        return tuple(out)


def _verify_relation(
    web: ConstantWeb, h: int, basis: Sequence[tuple[int, dict[int, int]]]
) -> None:
    """Raise unless every vec / den of ``basis``, in the form
    ``certified_kernel`` returns, is a degree-h relation; one packed check
    for all of them (see the module docstring)."""
    (kappas, _), normals = web.cleared_kappas(), web.cleared_normals()
    monomials = monomial_exponents(web.r, h)
    row_norm = max(sum(map(abs, row)) for kappa in kappas for row in kappa)
    top_normal = max(abs(v) for normal in normals for v in normal.values())
    vectors = [vec for _, vec in basis]
    widest = max((sum(map(abs, vec.values())) for vec in vectors), default=0)
    packed = _packed(vectors, web.d * len(monomials), widest * row_norm**h * top_normal)
    width = len(normals[0])
    total: dict[int, int] = {}
    for j, kappa in enumerate(kappas):
        column = packed[j * len(monomials) : (j + 1) * len(monomials)]
        pulled = _expand({m: p for m, p in zip(monomials, column) if p}, kappa, h)
        terms = [(pos, v) for pos, v in enumerate(normals[j].values()) if v]
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
    """The rows of R(0): one per r-subset where some cleared normal is
    non-zero, holding the normals' minors there."""
    rows: dict[int, dict[int, int]] = {}
    for j, normal in enumerate(web.cleared_normals()):
        for pos, c in enumerate(normal.values()):
            if c:
                rows.setdefault(pos, {})[j] = c
    return list(rows.values())


def _prolonged_rows(
    web: ConstantWeb, h: int, lower: dict[int, dict[int, int]]
) -> Iterator[dict[int, int]]:
    """Rows whose kernel is R(h), h >= 1, from the reduced rows of R(h-1).

    ``lower`` is the ``reduced`` echelon ``certified_kernel`` returned for
    R(h-1): each pivot q to a primitive integer row whose kernel, over all
    q, is R(h-1).  One row per pivot q, ascending, and direction a: row_q
    applied to D_a c, in integers.  Up to sign this is the row that the
    canonical basis K of R(h-1) gives, (e_q - sum_f K_f[q] e_f) cleared to
    integers: K_f[q] = -row_q[f] / row_q[q], and row_q is primitive, so the
    least clearing scale is |row_q[q]|.
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
    for _, weight in sorted(lower.items()):
        for a in range(rn):
            row: dict[int, int] = {}
            for t, w in weight.items():
                for col, c in derivative[t][a]:
                    row[col] = row.get(col, 0) + w * c
            yield {col: c for col, c in row.items() if c}


class _Degree(NamedTuple):
    """One degree h of the relation chain, as ``certified_kernel`` returns
    it: the reduced rows whose kernel is R(h), and the canonical basis of R(h)."""

    rows: dict[int, dict[int, int]]
    basis: list[tuple[int, dict[int, int]]]


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
        ncols = web.d * poly_space_dim(web.r, g)
        if g and not chain[-1].basis:
            chain.append(_Degree({q: {q: 1} for q in range(ncols)}, []))
            continue
        rows = _prolonged_rows(web, g, chain[-1].rows) if g else _normal_rows(web)
        chain.append(_Degree(*certified_kernel(rows, ncols)))
    bound = degree_bound(web.r, web.n, web.d, h)
    if web.is_pg() and len(chain[h].basis) > bound:
        raise InternalContradictionError(
            f"dim R({h}) = {len(chain[h].basis)} exceeds the proven bound {bound} "
            f"for a general-position web of type ({web.r},{web.n}), d={web.d}"
        )
    return chain[h].basis


def relation_space_dim(web: ConstantWeb, h: int, allow_degenerate: bool = False) -> int:
    """dim R(h), the number of certified canonical kernel vectors."""
    return len(_relation_kernel(web, h, allow_degenerate))


def relation_space(
    web: ConstantWeb, h: int, allow_degenerate: bool = False
) -> list[RelationBasisElement]:
    """Canonical kernel basis of the degree-h relation space, verified by
    one call of :func:`_verify_relation`.

    The only place the kernel vectors become ``Fraction`` coefficients;
    each component's are set in column order, that is graded-lex.
    """
    basis = _relation_kernel(web, h, allow_degenerate)
    _verify_relation(web, h, basis)
    monomials = monomial_exponents(web.r, h)
    elements = []
    for den, vec in basis:
        coeffs: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(web.d)]
        for c, x in vec.items():
            j, k = divmod(c, len(monomials))
            coeffs[j][monomials[k]] = Fraction(x, den)
        elements.append(RelationBasisElement._of_verified(
            h, tuple(HomogeneousPoly(web.r, h, coeff) for coeff in coeffs)
        ))
    return elements


class RankReport:
    """Per-degree dimensions, bounds and totals for one web.

    ``dims[h]`` is dim R(h) and ``bounds[h]`` its bound, for
    h = 0 .. h_cutoff - 1.  The bounds are theorems about PG webs, so a
    web failing PG (reachable with ``allow_degenerate``) is called
    neither semi-extremal nor of maximal rank; ``"pg": false`` replaces
    both flags.  The dims are not checked against rho here: every caller
    reads them off :func:`_relation_kernel`, which refuses a PG web's
    dim R(h) above its bound degree by degree, and rho is the sum of
    those bounds.
    """

    def __init__(self, web: ConstantWeb, dims: Sequence[int]):
        self.r, self.n, self.d = web.r, web.n, web.d
        self.dims = tuple(dims)
        self.bounds = tuple(degree_bound(web.r, web.n, web.d, h) for h in range(len(self.dims)))
        self.total_rank = sum(self.dims)
        self.rho = rho_bound(web.r, web.n, web.d)
        self.pg = web.is_pg()
        self.maximal_rank = self.semi_extremal = None
        if self.pg:
            self.maximal_rank = self.total_rank == self.rho
            self.semi_extremal = _semi_extremal(
                self.r, self.n, self.d, self.dim(0), self.dim(1)
            )

    def dim(self, h: int) -> int:
        """dim R(h); 0 outside the degrees below the cutoff."""
        return self.dims[h] if 0 <= h < len(self.dims) else 0

    def to_json(self) -> dict:
        flags = {"pg": False}
        if self.pg:
            flags = {"semi_extremal": self.semi_extremal,
                     "maximal_rank": self.maximal_rank}
        return {
            "r": self.r,
            "n": self.n,
            "d": self.d,
            "per_degree": [{"h": h, "dim": dim, "bound": bound, "saturated": dim == bound}
                           for h, (dim, bound) in enumerate(zip(self.dims, self.bounds))],
            "total_rank": self.total_rank,
            "rho": self.rho,
            **flags,
        }

    def to_tsv(self) -> str:
        lines = ["h\tdim\tbound\tsaturated"]
        for h, (dim, bound) in enumerate(zip(self.dims, self.bounds)):
            lines.append(f"{h}\t{dim}\t{bound}\t{str(dim == bound).lower()}")
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

    ``paranoid`` additionally computes the first provably-zero degree,
    the cutoff.  Its bound is 0, so the bound guard of
    :func:`_relation_kernel` is the check: a non-zero dim R(cutoff) raises
    there.  Vanishing is a theorem about PG webs only, so a web failing
    PG (``allow_degenerate``) is not checked.
    """
    web.require_pg(allow_degenerate)
    cutoff = h_cutoff(web.r, web.n, web.d)
    dims = [relation_space_dim(web, h, allow_degenerate) for h in range(cutoff)]
    if paranoid and web.is_pg():
        relation_space_dim(web, cutoff)
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
