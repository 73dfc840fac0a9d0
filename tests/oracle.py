"""Reference implementations that the library's elimination kernel,
general-position check, relation-matrix assembly, relation
verification, point reading, normal-form recovery and canonical data are
compared against.

``rref`` (Fraction Gauss-Jordan), ``rank`` (Bareiss on integer rows),
``kernel_basis`` (read off that ``rref``) and ``det`` (Fraction Gaussian
elimination) are the reference for ``Matrix.rref``, ``rank``,
``kernel_basis`` and ``det``, and through them for ``inverse`` and
``is_invertible``; the library reads the kernel basis off
``exactalg.certified_kernel`` (a sparse elimination over Z, checked)
and the others off the fraction-free ``exactalg._echelon``.
``solve``, also read off that ``rref``, serves the former recovery below.
``transpose``, ``mul``, ``apply`` and ``inverse`` (the last read off
that ``rref`` of [A | I]) are the ``Fraction`` reference for the
integer ``Matrix`` operations of the same names; ``apply_row`` (row
vector times matrix) serves the former point reader below.
``intersect_with_base_plane`` is the former intersection: each point
the one vector of the ``kernel_basis`` of its plane's xi-block, where
the library reads it off the block's signed maximal minors.
``fit_rnc`` is the former curve fit: the frame inverted, the transform
and the Cremona images formed in ``Fraction``s with ``inverse``,
``mul`` and ``apply`` above, and the images' coordinates on the line
read off their ``rref``, whose rank above 2 means no curve; the
library fits in integers, with one inverse and Cramer's rule.
``vandermonde_weights`` is the product formula
w_j = 1 / prod_{k != j} (tau_j - tau_k), where the library evaluates
each cofactor P(t)/(t - tau_j) at tau_j.
``moment_relation_basis`` builds the relations of a moment web from
their closed form, c_j = w_j tau_j^rho y^m, with no sparse elimination,
no prolongation and no relation matrix, and puts them in the form of
the library's kernel vectors with that ``rref``.
``projective_coords`` is the
former ``ProjectivePoint`` normalization (a ``Fraction`` per coordinate,
then divided by the leading one).
The others are the former ``check_pg`` (wedge products of the
generator normals), ``wedge_rows`` (one determinant per minor, the
reference for ``exactalg._minors`` and ``generator_normal``),
``omega_expansion`` (Omega(t) multiplied out row by row as a polynomial
in t with ``ExteriorForm`` coefficients, through ``wedge``),
``substitute`` (``Fraction`` polynomial products), ``_verify_relation``
with ``_pullback`` (each component pulled back through that
``substitute`` and multiplied by its normal in ``Fraction``),
``_point_from_block_matrix`` (``Fraction`` dot products with the inverse
basis and quotients against the leading entry), ``foliation_from_point``
(each row of F(p) by full-length ``Fraction`` vector additions, one per
non-zero coordinate of p) and ``relation_matrix``
(each basis monomial pulled back on its own through ``substitute``),
kept verbatim as module-level functions of a ``Matrix`` or
``ConstantWeb`` passed as ``self`` / ``web``.  They are slower and share
no elimination code with ``abelweb.exactalg``, no modular arithmetic
with ``abelweb.webcore.check_pg``, no Laplace sweep with
``abelweb.exactalg._minors`` and no integer expansion with
``abelweb.multilinear.substitute`` or ``abelweb.abelian._verify_relation``.

``RelationBasisElement`` and ``relation_space`` wrap the library's
canonical kernel vectors, densified by ``helpers.dense_kernel``, but
verify each relation with the ``Fraction`` ``_verify_relation`` here.
``recover_base_case`` / ``recover_normal_form`` are the former recovery:
it pulls the degree-1 relations back through ``substitute`` and solves
for the points of the critical subweb from the generator normals, where
the library reads every point off the recovered coordinates.  Each
takes the critical subweb to be foliations 1..d0; a test reaches another
one by reordering the web (``abelweb.subweb``).  ``canonical_data`` is the
former canonical data: it eliminates every degree twice (``total_rank``,
then ``relation_space`` until a space is empty) and completes the
degree-1 block greedily, one rank per candidate, where the library reads
pivot columns once, takes its weights from the product formula and
forms each P(t)/(t - tau_j) as a product of d - 1 linear factors, where
the library divides P(t) synthetically.
Both use only the ``Fraction`` copies above.
``prolonged_rows`` is the former prolongation: it inverts the canonical
basis K of R(h-1) into one weight per non-free column q,
e_q - sum_f K_f[q] e_f times the lcm of the denominators of the
K_f[q], where the library takes each weight straight from the reduced
rows that ``certified_kernel`` returned for R(h-1).
``from_vector``, a polynomial from its graded-lex coefficients, is a test
helper that the library does not need.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from abelweb import Matrix, rational
from abelweb.abelian import (
    _relation_kernel,
    relation_space_dim,
    subweb as take_subweb,
    total_rank,
)
from abelweb.canonical import CanonicalData
from abelweb.errors import DegenerateWebError, InternalContradictionError
from abelweb.grassmann import (
    AdaptedStructure,
    MomentWebSpec,
    ProjectivePoint,
    RncFit,
    _castelnuovo_threshold,
    castelnuovo_rnc_test,
    moment_web,
    point_dimension,
)
from abelweb.incidence import PlaneArrangement
from abelweb.multilinear import (
    ExteriorForm,
    HomogeneousPoly,
    index_subsets,
    monomial_exponents,
    monomial_position,
    poly_space_dim,
    subset_position,
    wedge,
)
from abelweb.webcore import ConstantFoliation, ConstantWeb, generator_normal, q_of
from helpers import dense_kernel


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


def kernel_basis(self) -> list[tuple[Fraction, ...]]:
    """The canonical kernel basis read off :func:`rref`: one vector per
    free column, in increasing order, 1 at its free column."""
    reduced, pivots = rref(self)
    basis = []
    for f in (j for j in range(self.cols) if j not in pivots):
        vec = [Fraction(0)] * self.cols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -reduced[i, f]
        basis.append(tuple(vec))
    return basis


def solve(self, rhs: Sequence) -> tuple[Fraction, ...] | None:
    """The solution of ``self @ x = rhs`` that is zero at the free columns,
    read off the :func:`rref` of [A | b]; None if the system is inconsistent."""
    reduced, pivots = rref(Matrix([list(row) + [b] for row, b in zip(self.entries, rhs)]))
    if self.cols in pivots:
        return None
    x = [Fraction(0)] * self.cols
    for i, p in enumerate(pivots):
        x[p] = reduced[i, self.cols]
    return tuple(x)


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


def transpose(self) -> list[list[Fraction]]:
    """The transpose as ``Fraction`` rows, entry by entry."""
    return [[self[i, j] for i in range(self.rows)] for j in range(self.cols)]


def mul(self, other) -> list[list[Fraction]]:
    """The product as ``Fraction`` rows, one ``Fraction`` dot product per entry."""
    return [
        [sum((self[i, k] * other[k, j] for k in range(self.cols)), Fraction(0))
         for j in range(other.cols)]
        for i in range(self.rows)
    ]


def apply(self, vector: Sequence) -> tuple[Fraction, ...]:
    """Matrix times column vector, in ``Fraction``s."""
    vec = [Fraction(x) for x in vector]
    return tuple(sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in self.entries)


def apply_row(self, vector: Sequence) -> tuple[Fraction, ...]:
    """Row vector times matrix, in ``Fraction``s."""
    vec = [Fraction(x) for x in vector]
    if len(vec) != self.rows:
        raise ValueError("shape mismatch")
    return tuple(sum((a * b for a, b in zip(vec, col)), Fraction(0))
                 for col in zip(*self.entries))


def inverse(self) -> list[list[Fraction]]:
    """A^-1 as ``Fraction`` rows, read off the :func:`rref` of [A | I]."""
    n = self.rows
    reduced, pivots = rref(Matrix([list(row) + [int(i == j) for j in range(n)]
                                   for i, row in enumerate(self.entries)]))
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return [[reduced[i, n + j] for j in range(n)] for i in range(n)]


def projective_coords(coords: Sequence) -> tuple[Fraction, ...]:
    """The former ``ProjectivePoint`` normalization: every coordinate made a
    ``Fraction``, then divided by the first non-zero one."""
    coords = tuple(rational(c) for c in coords)
    lead = next((c for c in coords if c != 0), None)
    if lead is None:
        raise ValueError("projective point needs a nonzero coordinate")
    return tuple(c / lead for c in coords)


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


def wedge_rows(rows: Sequence[Sequence]) -> ExteriorForm:
    """Wedge of covectors; subset coefficients are the maximal minors.

    Equivalent to wedging the rows one by one, but computed directly as
    the k x k minors of the stacked row matrix.
    """
    matrix = Matrix(rows)
    k = matrix.rows
    n = matrix.cols
    if k > n:
        raise ValueError("grade exceeds ambient dimension")
    coeffs = {}
    for subset in index_subsets(n, k):
        minor = Matrix([[matrix[i, j] for j in subset] for i in range(k)])
        coeffs[subset] = minor.det()
    return ExteriorForm(n, k, coeffs)


def omega_expansion(basis: Matrix, r: int, n: int) -> list[ExteriorForm]:
    """Coefficient forms K_0..K_{r(n-1)} of Omega(t) = wedge_a sum_alpha t^(alpha-1) m_{a,alpha}.

    The generator normal of the moment foliation at tau is then exactly
    sum_rho tau^rho K_rho.
    """
    rn = r * n
    if basis.rows != rn or basis.cols != rn:
        raise ValueError(f"basis must be {rn}x{rn}")
    # polynomial in t with exterior-form coefficients, degree-indexed dict
    poly: dict[int, ExteriorForm] = {0: ExteriorForm(rn, 0, {(): 1})}
    for a in range(r):
        next_poly: dict[int, ExteriorForm] = {}
        for alpha in range(n):
            row = basis.row(a * n + alpha)
            row_form = ExteriorForm(rn, 1, {(i,): c for i, c in enumerate(row)})
            for deg, form in poly.items():
                term = wedge(form, row_form)
                key = deg + alpha
                coeffs = dict(next_poly[key].coeffs) if key in next_poly else {}
                for s, c in term.coeffs.items():
                    coeffs[s] = coeffs.get(s, Fraction(0)) + c
                next_poly[key] = ExteriorForm(rn, term.grade, coeffs)
        poly = next_poly
    return [poly.get(rho, ExteriorForm(rn, r)) for rho in range(r * (n - 1) + 1)]


def from_vector(nvars: int, degree: int, vector: Sequence) -> HomogeneousPoly:
    """The polynomial with these coefficients in the graded-lex monomial order."""
    basis = monomial_exponents(nvars, degree)
    if len(vector) != len(basis):
        raise ValueError("coefficient vector has wrong length")
    return HomogeneousPoly(nvars, degree, dict(zip(basis, vector)))


def _product(p: dict, q: dict) -> dict:
    """Product of two ``Fraction`` polynomials keyed by exponent tuples."""
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return out


def _power(p: dict, k: int, nvars: int) -> dict:
    """p**k by repeated :func:`_product`, from the constant 1."""
    result = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        result = _product(result, p)
    return result


def substitute(poly: HomogeneousPoly, forms: Sequence[Sequence]) -> HomogeneousPoly:
    """Pull a polynomial back along linear forms.

    Substitutes ``forms[i]`` (a covector on the target space) for the
    i-th variable of ``poly``; the result is homogeneous of the same
    degree in ``len(forms[0])`` variables.
    """
    if len(forms) != poly.nvars:
        raise ValueError("one linear form per variable is required")
    nvars = len(forms[0]) if forms else 0
    if any(len(f) != nvars for f in forms):
        raise ValueError("forms live on different spaces")
    linear = [
        {tuple(int(v == i) for v in range(nvars)): Fraction(c) for i, c in enumerate(f)}
        for f in forms
    ]
    result: dict[tuple[int, ...], Fraction] = {}
    power_cache: dict[tuple[int, int], dict] = {}
    for expo, c in poly.coeffs.items():
        term = {(0,) * nvars: c}
        for i, e in enumerate(expo):
            if e:
                key = (i, e)
                if key not in power_cache:
                    power_cache[key] = _power(linear[i], e, nvars)
                term = _product(term, power_cache[key])
        for mono, v in term.items():
            result[mono] = result.get(mono, Fraction(0)) + v
    return HomogeneousPoly(nvars, poly.degree, result)


def _pullback(foliation: ConstantFoliation, c: HomogeneousPoly) -> dict[tuple, Fraction]:
    """c(kappa) * Omega of one foliation, by (monomial in rn variables, r-subset)."""
    normal = generator_normal(foliation).coeffs
    return {
        (expo, subset): pc * nc
        for expo, pc in substitute(c, foliation.matrix.entries).coeffs.items()
        for subset, nc in normal.items()
    }


def _verify_relation(web: ConstantWeb, components: Sequence[HomogeneousPoly]) -> None:
    total: dict[tuple, Fraction] = {}
    for foliation, c in zip(web.foliations, components):
        if c.is_zero:
            continue
        for key, value in _pullback(foliation, c).items():
            total[key] = total.get(key, 0) + value
    if any(total.values()):
        raise InternalContradictionError("claimed abelian relation does not sum to zero")


class RelationBasisElement:
    """One abelian relation, re-verified by ``_verify_relation`` above."""

    def __init__(self, web: ConstantWeb, degree: int, components: Sequence[HomogeneousPoly]):
        self.degree = degree
        self.components = tuple(components)
        _verify_relation(web, self.components)

    def vector(self) -> tuple[Fraction, ...]:
        return tuple(x for c in self.components for x in c.vector())


def relation_space(web: ConstantWeb, h: int) -> list[RelationBasisElement]:
    """The library's canonical basis of R(h), verified by ``_verify_relation``."""
    dim_e = poly_space_dim(web.r, h)
    return [
        RelationBasisElement(web, h, [
            from_vector(web.r, h, vec[j * dim_e : (j + 1) * dim_e])
            for j in range(web.d)
        ])
        for vec in dense_kernel(_relation_kernel(web, h, False), web.d * dim_e)
    ]


def prolonged_rows(web: ConstantWeb, h: int, lower: list[tuple[int, dict[int, int]]]):
    """Rows whose kernel is R(h), h >= 1, from the canonical basis K of R(h-1).

    K comes as ``certified_kernel`` returns it: each K_f as ``(den, vec)``
    with K_f = vec / den, keys ascending and the free column f last.  One
    row per non-free column q of K and direction a: (e_q - sum_f K_f[q]
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


def foliation_from_point(basis: Matrix, p: ProjectivePoint) -> ConstantFoliation:
    """The foliation F(p): rows sum_alpha xi_alpha m_{a,alpha}, a = 1..r."""
    n = len(p.coords)
    if basis.rows != basis.cols or basis.rows % n != 0:
        raise ValueError("basis shape incompatible with the point's space")
    r = basis.rows // n
    rows = []
    for a in range(r):
        row = [Fraction(0)] * basis.cols
        for alpha, xi in enumerate(p.coords):
            if xi != 0:
                block = basis.row(a * n + alpha)
                row = [x + xi * y for x, y in zip(row, block)]
        rows.append(row)
    return ConstantFoliation(r, n, Matrix(rows))


def _point_from_block_matrix(basis_inv: Matrix, foliation: ConstantFoliation, r: int, n: int, k: int) -> ProjectivePoint:
    """Read p_k off a foliation expressed in the recovered coordinates.

    Each defining covector, written in the m-basis and reshaped r x n,
    must be rank 1 with one common right factor; that factor is the point.
    """
    xi: tuple[Fraction, ...] | None = None
    rows_m = [apply_row(basis_inv, row) for row in foliation.matrix.entries]
    blocks = [
        [coeffs[a * n : (a + 1) * n] for a in range(r)] for coeffs in rows_m
    ]
    for block in blocks:
        for row in block:
            if any(c != 0 for c in row):
                xi = row
                break
        if xi is not None:
            break
    if xi is None:
        raise DegenerateWebError(
            f"web is not semi-extremal / degenerate: foliation {k} vanishes"
        )
    lead_pos = next(i for i, c in enumerate(xi) if c != 0)
    for block in blocks:
        for row in block:
            # proportional to xi: cross-ratios with the leading entry agree
            factor = row[lead_pos] / xi[lead_pos]
            if any(c != factor * x for c, x in zip(row, xi)):
                raise DegenerateWebError(
                    "web is not semi-extremal / degenerate: foliation "
                    f"{k} is not of the form F(p) in the recovered coordinates"
                )
    return ProjectivePoint(xi)


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


def intersect_with_base_plane(arr: PlaneArrangement) -> list[ProjectivePoint]:
    """The d intersection points with {eta = 0}: each plane's point is the
    one vector of the :func:`kernel_basis` of its xi-block."""
    points = []
    for idx, plane in enumerate(arr.planes):
        kernel = kernel_basis(Matrix([row[arr.r :] for row in plane.entries]))
        if len(kernel) != 1:
            raise DegenerateWebError(
                "arrangement not in general position w.r.t. base plane: "
                f"plane {idx + 1} meets it in a {len(kernel)}-dimensional set"
            )
        points.append(ProjectivePoint(kernel[0]))
    return points


def fit_rnc(points: Sequence[ProjectivePoint]) -> RncFit:
    """The former ``fit_rnc``: the frame inverted and the Cremona images
    formed in ``Fraction``s, the images' coefficients on the line through
    points n+2 and n+3 read off the :func:`rref` of all images, whose
    rank above 2 means no curve.  Same checks, order and messages."""
    points = list(points)
    n = point_dimension(points)
    d = len(points)
    if d < n + 3:
        raise ValueError(f"fitting needs at least n+3 = {n + 3} points")

    try:
        frame_inv = Matrix(inverse(Matrix(list(zip(*(p.coords for p in points[:n]))))))
    except ValueError:  # singular
        raise DegenerateWebError("first n points are not in general position") from None
    v = apply(frame_inv, points[n].coords)
    if any(c == 0 for c in v):
        raise DegenerateWebError("first n+1 points are not in general position")
    scale = Matrix([[1 / v[i] if i == j else 0 for j in range(n)] for i in range(n)])
    transform = Matrix(mul(scale, frame_inv))

    # Cremona images of the non-frame points; on a curve through the
    # frame these are collinear
    images = []
    for p in points[n:]:
        y = apply(transform, p.coords)
        if any(c == 0 for c in y):
            raise DegenerateWebError("not on a common RNC")
        images.append(tuple(1 / c for c in y))
    line_a, line_b = images[1], images[2]
    reduced, pivots = rref(Matrix(list(zip(line_a, line_b, *images))))
    if pivots[:2] != (0, 1):
        raise DegenerateWebError("coincident points on the candidate curve")
    if len(pivots) > 2:
        raise DegenerateWebError("not on a common RNC")
    coordinates = [(reduced[0, k], reduced[1, k]) for k in range(2, reduced.cols)]
    c = 1
    while any(lam + mu / c == 0 for lam, mu in coordinates):
        c += 1
    line_b = tuple(c * x for x in line_b)
    parameters = [(mu / c) / (lam + mu / c) for lam, mu in coordinates]
    return RncFit(transform, line_a, line_b, parameters)


def vandermonde_weights(taus: Sequence[Fraction]) -> list[Fraction]:
    """w_j = 1 / prod_{k != j} (tau_j - tau_k), by the product formula."""
    return [1 / math.prod((tau - other for other in taus if other != tau), start=Fraction(1))
            for tau in taus]


def moment_relation_basis(spec: MomentWebSpec, h: int) -> list[tuple[Fraction, ...]]:
    """The canonical basis of R(h) of a moment web, from the closed form.

    With w_j = 1 / prod_{k != j} (tau_j - tau_k), the tuples
    c_j = w_j tau_j^rho y^m, |m| = h, 0 <= rho <= d - (r+h)(n-1) - 2, are
    relations of the web whatever its base change, as many as the degree
    bound.  They are brought to the form of the library's kernel vectors
    (1 at its last non-zero column, 0 at every other vector's, by that
    column ascending) by the :func:`rref` of the columns reversed.
    """
    r, n, taus = spec.r, spec.n, spec.taus
    weights = vandermonde_weights(taus)
    monomials = len(monomial_exponents(r, h))
    vectors = []
    for rho in range(len(taus) - (r + h) * (n - 1) - 1):
        for m in range(monomials):
            vec = [Fraction(0)] * (len(taus) * monomials)
            for j, (w, tau) in enumerate(zip(weights, taus)):
                vec[j * monomials + m] = w * tau**rho
            vectors.append(vec[::-1])
    if not vectors:
        return []
    reduced, pivots = rref(Matrix(vectors))
    return [reduced.row(i)[::-1] for i in reversed(range(len(pivots)))]


def recover_base_case(web: ConstantWeb) -> AdaptedStructure:
    """Recovery for webs of the critical order d = (r+1)(n-1)+2."""
    r, n, d = web.r, web.n, web.d

    dim0 = relation_space_dim(web, 0)
    if dim0 != d - r * (n - 1) - 1:
        raise DegenerateWebError(
            "web is not semi-extremal / degenerate: "
            f"degree-0 relation space has dimension {dim0}"
        )
    relations = relation_space(web, 1)
    if len(relations) != r:
        raise DegenerateWebError(
            "web is not semi-extremal / degenerate: "
            f"degree-1 relation space has dimension {len(relations)}"
        )

    # u_{a,j}: the linear component of relation a along foliation j,
    # pulled back to a covector on the ambient space
    u = [
        [
            substitute(comp, web.foliations[j].matrix.entries).vector()
            for j, comp in enumerate(rel.components)
        ]
        for rel in relations
    ]
    for j in range(d):
        block = Matrix([u[a][j] for a in range(r)])
        if block.rank() != r or block.row_space_rref() != web.foliations[j].row_span():
            raise DegenerateWebError(
                "web is not semi-extremal / degenerate: recovered covectors "
                f"do not cut out foliation {j + 1}"
            )

    basis = Matrix([u[a][alpha] for a in range(r) for alpha in range(n)])
    if not basis.is_invertible():
        raise DegenerateWebError(
            "web is not semi-extremal / degenerate: recovered covector basis is singular"
        )

    # express the normal of each foliation alpha <= n in the normals of
    # foliations n+1..d; the coefficient columns are the missing points
    tail = Matrix([generator_normal(f).vector() for f in web.foliations[n:]])
    if tail.rank() != d - n:
        raise DegenerateWebError(
            "web is not semi-extremal / degenerate: normals of foliations "
            f"{n + 1}..{d} are linearly dependent"
        )
    system = tail.transpose()
    xi = []
    for alpha in range(n):
        omega = generator_normal(web.foliations[alpha]).vector()
        solution = solve(system, omega)
        if solution is None:
            raise DegenerateWebError(
                "web is not semi-extremal / degenerate: basis normal "
                f"{alpha + 1} lies outside the span of the remaining normals"
            )
        xi.append(solution)

    points = [ProjectivePoint([int(i == j) for i in range(n)]) for j in range(n)]
    for idx in range(d - n):
        coords = [xi[alpha][idx] for alpha in range(n)]
        if all(c == 0 for c in coords):
            raise DegenerateWebError(
                "web is not semi-extremal / degenerate: foliation "
                f"{n + idx + 1} received no point coordinates"
            )
        points.append(ProjectivePoint(coords))
    return AdaptedStructure(basis, points)


def recover_normal_form(web: ConstantWeb) -> AdaptedStructure:
    """Rebuild an adapted structure (basis, points) from a semi-extremal web.

    The construction runs on foliations 1..d0 of the web, the subweb of
    the critical order d0 = (r+1)(n-1)+2, and extends to the remaining
    foliations by expressing their covectors in the recovered
    coordinates.
    """
    r, n, d = web.r, web.n, web.d
    if r < 2:
        raise ValueError("recovery requires r >= 2")
    q = q_of(r, n, d)
    if q < n - 1:
        raise ValueError(
            f"recovery requires at least (r+1)(n-1)+2 = {(r + 1) * (n - 1) + 2} foliations"
        )
    web.require_pg()
    d0 = (r + 1) * (n - 1) + 2

    base = recover_base_case(take_subweb(web, range(1, d0 + 1)))
    basis = base.basis
    basis_inv = basis.inverse()

    points = list(base.points) + [
        _point_from_block_matrix(basis_inv, web.foliations[k], r, n, k + 1)
        for k in range(d0, d)
    ]

    for k in range(d):
        rebuilt = foliation_from_point(basis, points[k])
        if rebuilt != web.foliations[k]:
            raise DegenerateWebError(
                "web is not semi-extremal / degenerate: recovered structure "
                f"fails to cut out foliation {k + 1}"
            )

    if d >= _castelnuovo_threshold(r, n) and not castelnuovo_rnc_test(points, r):
        # semi-extremality was verified above, which provably places the
        # points on a rational normal curve
        raise InternalContradictionError(
            "recovered points of a semi-extremal web fail the rational-normal-curve test"
        )
    return AdaptedStructure(basis, points)


def canonical_data(spec: MomentWebSpec) -> CanonicalData:
    """Ordered relation basis, points, and curve of a moment web.

    The basis order is fixed: the q+1 weighted power relations
    z_j = c_j tau_j^rho of degree 0, then the r weighted linear relations
    z_j = c_j y_a, then the canonical remainder degree by degree.  With
    that order the j-th point is [1 : tau_j : ... : tau_j^q : 0 : ... : 0]
    and the curve through them is [1 : t : ... : t^q : 0 : ... : 0]; both
    facts are asserted rather than assumed.
    """
    r, n = spec.r, spec.n
    d = len(spec.taus)
    q = q_of(r, n, d)
    if q < n - 1:
        raise ValueError(
            f"canonical data requires at least (r+1)(n-1)+2 = {(r + 1) * (n - 1) + 2} parameters"
        )
    web = moment_web(spec)
    report = total_rank(web)
    if not report.maximal_rank or not report.semi_extremal:
        raise InternalContradictionError("moment web fails to saturate the rank bounds")
    weights = vandermonde_weights(spec.taus)

    # designated degree-0 block: z_j = c_j tau_j^rho, rho = 0..q
    basis: list[RelationBasisElement] = []
    for rho in range(q + 1):
        components = [
            HomogeneousPoly.constant(r, c * t**rho)
            for c, t in zip(weights, spec.taus)
        ]
        basis.append(RelationBasisElement(web, 0, components))
    if report.dim(0) != q + 1:
        raise InternalContradictionError(
            f"degree-0 relation space has dimension {report.dim(0)}, expected {q + 1}"
        )

    # designated degree-1 block: z_j = c_j y_a, a = 1..r
    designated1 = []
    for a in range(r):
        components = [
            HomogeneousPoly(r, 1, {tuple(1 if i == a else 0 for i in range(r)): c})
            for c in weights
        ]
        designated1.append(RelationBasisElement(web, 1, components))
    basis.extend(designated1)

    # canonical remainder, degree by degree
    kernel1 = relation_space(web, 1)
    rows = [list(el.vector()) for el in designated1]
    chosen: list[RelationBasisElement] = []
    for el in kernel1:
        if len(rows) == len(kernel1):
            break
        candidate = list(el.vector())
        if Matrix(rows + [candidate]).rank() == len(rows) + 1:
            rows.append(candidate)
            chosen.append(el)
    if len(rows) != len(kernel1):
        raise InternalContradictionError(
            "degree-1 kernel basis fails to complete the designated relations"
        )
    basis.extend(chosen)
    h = 2
    while True:
        space = relation_space(web, h)
        if not space:
            break
        basis.extend(space)
        h += 1

    if len(basis) != report.total_rank:
        raise InternalContradictionError(
            f"assembled {len(basis)} relations, expected rank {report.total_rank}"
        )
    N = report.total_rank - 1

    # evaluation at the origin: constants survive, positive degrees vanish
    columns = []
    for j in range(d):
        column = [
            el.components[j].coefficient((0,) * r) if el.degree == 0 else Fraction(0)
            for el in basis
        ]
        columns.append(column)

    points = []
    for j, column in enumerate(columns):
        point = ProjectivePoint(column)
        expected = tuple(spec.taus[j] ** rho for rho in range(q + 1)) + (
            Fraction(0),
        ) * (N - q)
        if point.coords != expected:
            raise InternalContradictionError(
                f"point {j + 1} differs from its displayed coordinate form"
            )
        points.append(point)
    if len(set(points)) != d:
        raise InternalContradictionError("canonical points are not pairwise distinct")

    # curve z(t) = sum_j P(t)/(t - tau_j) z_j, each quotient a product of
    # d - 1 linear factors; must close at degree q
    curve = [[Fraction(0)] * (N + 1) for _ in range(d)]
    for j, column in enumerate(columns):
        cofactor = [Fraction(1)]
        for k, tk in enumerate(spec.taus):
            if k != j:
                cofactor = [a - tk * b for a, b in zip([0] + cofactor, cofactor + [0])]
        for e, c in enumerate(cofactor):
            if c != 0:
                for i, zc in enumerate(column):
                    curve[e][i] += c * zc
    for e in range(q + 1, d):
        if any(c != 0 for c in curve[e]):
            raise InternalContradictionError(
                f"canonical curve has a nonzero coefficient in degree {e} > q = {q}"
            )
    curve_coeffs = curve[: q + 1]

    data = CanonicalData(N, q, spec.taus, weights, points, curve_coeffs)
    for tau, point in zip(spec.taus, points):
        if data.point_at(tau) != point:
            raise InternalContradictionError(
                "canonical curve fails to interpolate its defining points"
            )
    return data
