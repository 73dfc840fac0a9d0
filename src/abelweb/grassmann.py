"""Moment-curve webs, normal-form recovery, and almost-Grassmannian bases.

The central objects are webs of the form F(p_1), ..., F(p_d): fix an
invertible rn x rn matrix whose rows m_{a,alpha} are read as a covector
basis indexed by pairs (a, alpha) with a < r, alpha < n (a-major
flattening, row index a*n + alpha), and attach to every point
p = [xi_1 : ... : xi_n] of P^{n-1} the codimension-r foliation cut out by

    sum_alpha  xi_alpha m_{a,alpha} = 0,        a = 1, ..., r.

Moment webs take the points on the rational normal curve
[1 : tau : ... : tau^(n-1)]; they realize every rank bound with equality.
Recovery goes the other way: from a semi-extremal web alone, rebuild a
basis from the degree-1 relations of a subweb of the critical order and
read every point p_j off foliation j written in that basis (F(p) has
rows e_a (x) p there).  The r vectors e_a (x) p have disjoint supports
and p != 0, so they are independent; on an invertible basis, then, F(p)
has rank r with no test.  Moment webs, incidence webs and rebuilt
structures build F(p) on such a basis (the identity, or one proven
invertible), and only the public :func:`foliation_from_point`, which
takes any basis, ranks it.  The reader accepts foliation j only if it is
F(p_j), which certifies that the web is F(p_1), ..., F(p_d); the
Castelnuovo minimal-span criterion certifies that the points lie on a
common rational normal curve, and :func:`fit_rnc` fits that curve.

A point is held as integers over one denominator (``ProjectivePoint``),
and F(p), the Castelnuovo images and the fit read those integers; no
reader clears ``Fraction``s.  Recovery runs in integers: the basis
comes off the certified kernel of R(1) and the cleared kappas, its
inverse off one ``Matrix.inverse``, the points off integer rows, and the
block ranks and the Castelnuovo rank off one fraction-free elimination
of dense integer rows (``exactalg._echelon``).  The fit inverts the
frame once and then needs only 2 x 2 minors (Cramer's rule); its line
and parameters are the only ``Fraction``s it builds.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateWebError, InternalContradictionError
from .exactalg import (
    Matrix, _Frozen, _Value, _echelon, _format, _minors, _ratio, json_array, json_object,
    json_rational, rational,
)
from .multilinear import ExteriorForm, monomial_exponents
from .webcore import (
    ConstantFoliation,
    ConstantWeb,
    q_of,
    require_web_type,
    web_type_from_json,
)
from .abelian import (
    _relation_kernel,
    _semi_extremal,
    _verify_relation,
    relation_space_dim,
    subweb as take_subweb,
)


class ProjectivePoint(_Value):
    """A point of projective space, canonicalized on construction.

    The point is scaled so its first non-zero coordinate is 1 and held,
    as a ``Matrix`` row is, as integers ``ints`` over one denominator
    ``den`` > 0: coordinate k is ints[k] / den, ints[lead] == den and
    gcd(den, *ints) == 1.  That form is unique, so equality and hashing
    compare ``(den, ints)``.  It is read off the coordinates cleared to
    integers X: with g = gcd(X) carrying the sign of the lead X_l,
    ints = X / g and den = X_l / g.  ``coords`` builds the ``Fraction``s
    on demand.
    """

    __slots__ = ("ints", "den")

    def __init__(self, coords: Sequence):
        pairs = [_ratio(c) for c in coords]
        lcm = math.lcm(*(q for _, q in pairs))
        xs = [p * (lcm // q) for p, q in pairs]
        lead = next((x for x in xs if x), None)
        if lead is None:
            raise ValueError("projective point needs a nonzero coordinate")
        g = math.gcd(*xs)
        if lead < 0:
            g = -g
        object.__setattr__(self, "ints", tuple(x // g for x in xs))
        object.__setattr__(self, "den", lead // g)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates as ``Fraction``s, the first non-zero one 1, built
        on each call."""
        return tuple(Fraction(a, self.den) for a in self.ints)

    def _key(self):
        return self.den, self.ints

    def __repr__(self) -> str:
        return "[" + " : ".join(self.to_json()) + "]"

    def to_json(self) -> list[str]:
        return [_format(a, self.den) for a in self.ints]


def moment_point(n: int, tau) -> ProjectivePoint:
    """[1 : tau : ... : tau^(n-1)]."""
    tau = rational(tau)
    return ProjectivePoint([tau**k for k in range(n)])


class MomentWebSpec(_Frozen):
    """Type, parameters, and covector basis of a moment web.

    A given base change must be an invertible rn x rn matrix; the
    default identity is not tested.
    """

    __slots__ = ("r", "n", "taus", "base_change")

    def __init__(self, r: int, n: int, taus: Sequence, base_change: Matrix | None = None):
        taus = tuple(rational(t) for t in taus)
        require_web_type(r, n, len(taus))
        if len(set(taus)) != len(taus):
            raise ValueError("parameters must be distinct")
        if base_change is None:
            base_change = Matrix.identity(r * n)
        elif base_change.rows != r * n or base_change.cols != r * n:
            raise ValueError(f"base change must be {r * n}x{r * n}")
        elif not base_change.is_invertible():
            raise ValueError("base change must be invertible")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "base_change", base_change)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "taus": [str(t) for t in self.taus],
            "base_change": self.base_change.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "MomentWebSpec":
        r, n = web_type_from_json(data, "moment web", ("taus",))
        base = data.get("base_change")
        return cls(
            r, n,
            [json_rational(t, f"taus entry {k}")
             for k, t in enumerate(json_array(data["taus"], "taus"), start=1)],
            Matrix.from_json(base, "base_change") if base is not None else None,
        )


def points_from_json(data) -> list[ProjectivePoint]:
    """A JSON array of coordinate arrays as points, named point 1, 2, ... in errors.

    Each point is parsed once, by the constructor; only a point it
    refuses is read again, entry by entry, to name its first bad entry.
    """
    points = []
    for i, coords in enumerate(json_array(data, "points"), start=1):
        coords = json_array(coords, f"point {i}")
        try:
            points.append(ProjectivePoint(coords))
        except (TypeError, ValueError) as exc:
            for k, c in enumerate(coords, start=1):
                json_rational(c, f"point {i} entry {k}")
            raise ValueError(f"point {i}: {exc}") from None
    return points


def point_dimension(points: Sequence[ProjectivePoint]) -> int:
    """The coordinate count n shared by a non-empty point list."""
    if not points:
        raise ValueError("empty point list")
    n = len(points[0].ints)
    for i, p in enumerate(points, start=1):
        if len(p.ints) != n:
            raise ValueError(f"point {i} has {len(p.ints)} coordinates, point 1 has {n}")
    return n


def foliation_from_point(basis: Matrix, p: ProjectivePoint) -> ConstantFoliation:
    """The foliation F(p) on any basis; rank deficient rows raise
    ``DegenerateWebError``."""
    return ConstantFoliation(*_point_rows(basis, p))


def _foliation_on_invertible(basis: Matrix, p: ProjectivePoint) -> ConstantFoliation:
    """F(p) on a basis already proven invertible, with no rank test: its
    rows are (e_a (x) p) times the basis, r independent vectors times an
    invertible matrix."""
    return ConstantFoliation._of_rank_r(*_point_rows(basis, p))


def _point_rows(basis: Matrix, p: ProjectivePoint) -> tuple[int, int, Matrix]:
    """``(r, n, rows)`` of F(p): rows sum_alpha xi_alpha m_{a,alpha}, a = 1..r,
    summed in integers: the basis's integer rows times the point's, over
    the product of their denominators."""
    n = len(p.ints)
    if basis.rows != basis.cols or basis.rows % n != 0:
        raise ValueError("basis shape incompatible with the point's space")
    r = basis.rows // n
    terms = [(alpha, xi) for alpha, xi in enumerate(p.ints) if xi]
    rows = []
    for a in range(r):
        row = [0] * basis.cols
        for alpha, xi in terms:
            for c, y in enumerate(basis.ints[a * n + alpha]):
                if y:
                    row[c] += xi * y
        rows.append(row)
    return r, n, Matrix._from_ints(rows, basis.den * p.den)


def moment_web(spec: MomentWebSpec) -> ConstantWeb:
    foliations = [
        _foliation_on_invertible(spec.base_change, moment_point(spec.n, tau))
        for tau in spec.taus
    ]
    return ConstantWeb(spec.r, spec.n, foliations)


def omega_expansion(basis: Matrix, r: int, n: int) -> list[ExteriorForm]:
    """Coefficient forms K_0..K_{r(n-1)} of Omega(t) = wedge_a sum_alpha t^(alpha-1) m_{a,alpha}.

    The generator normal of the moment foliation at tau is then exactly
    sum_rho tau^rho K_rho.  K_rho sums the maximal minors (``_minors``) of
    the integer rows m_{a,alpha_a} over the choices with sum_a (alpha_a - 1) = rho.
    """
    rn = r * n
    if basis.rows != rn or basis.cols != rn:
        raise ValueError(f"basis must be {rn}x{rn}")
    ints, den = basis.ints, basis.den
    sums: list[dict[tuple[int, ...], int]] = [{} for _ in range(r * (n - 1) + 1)]
    for alphas in itertools.product(range(n), repeat=r):
        total = sums[sum(alphas)]
        rows = [ints[a * n + alpha] for a, alpha in enumerate(alphas)]
        for subset, v in _minors(rows, rn).items():
            total[subset] = total.get(subset, 0) + v
    return [
        ExteriorForm(rn, r, {s: Fraction(v, den**r) for s, v in total.items() if v})
        for total in sums
    ]


def _monomials(coords: Sequence, r: int) -> list:
    """All degree-r monomials of ``coords`` (integers or rationals), graded-lex order."""
    return [
        math.prod(c**e for c, e in zip(coords, expo) if e)
        for expo in monomial_exponents(len(coords), r)
    ]


def _castelnuovo_threshold(r: int, n: int) -> int:
    """Fewest points for which :func:`castelnuovo_rnc_test` is decisive."""
    return 2 * n + 1 if r == 2 else r * (n - 1) + 1


def castelnuovo_rnc_test(points: Sequence[ProjectivePoint], r: int) -> bool:
    """Minimal-span criterion for lying on a rational normal curve.

    True iff the degree-r monomial images of the points span a space of
    dimension exactly r(n-1)+1, the minimum for points in general
    position; this holds iff they lie on a common rational normal curve
    of degree n-1.  Requires d >= r(n-1)+1, strengthened to d >= 2n+1
    when r = 2.  The images are ranked in integers, the images of each
    point's ``ints``: that scales its image by den^r, which leaves the
    rank alone.
    """
    n = point_dimension(points)
    d = len(points)
    if d < _castelnuovo_threshold(r, n):
        raise ValueError("below Castelnuovo threshold")
    images = [_monomials(p.ints, r) for p in points]
    return len(_echelon(images)[1]) == r * (n - 1) + 1


class AdaptedStructure(_Frozen):
    """A covector basis and points exhibiting a web as F(p_1), ..., F(p_d)."""

    __slots__ = ("basis", "points")

    def __init__(self, basis: Matrix, points: Sequence[ProjectivePoint]):
        if not basis.is_invertible():
            raise DegenerateWebError("adapted basis must be invertible")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "points", tuple(points))

    @classmethod
    def _of_invertible(cls, basis: Matrix, points: Sequence[ProjectivePoint]):
        """The structure of a basis already proven invertible, with no rank test."""
        structure = object.__new__(cls)
        object.__setattr__(structure, "basis", basis)
        object.__setattr__(structure, "points", tuple(points))
        return structure

    def rebuild(self) -> ConstantWeb:
        """The web F(p_j) cut by this structure, in point order, with no rank
        test: the basis was proven invertible when the structure was made."""
        n = point_dimension(self.points)
        r = self.basis.rows // n
        return ConstantWeb(
            r, n, [_foliation_on_invertible(self.basis, p) for p in self.points]
        )

    def to_json(self) -> dict:
        return {
            "basis": self.basis.to_json(),
            "points": [p.to_json() for p in self.points],
        }

    @classmethod
    def from_json(cls, data: dict) -> "AdaptedStructure":
        """Bad input names its field: the basis must be square, and the
        points share one length n >= 2 dividing its size.  Other keys are
        ignored."""
        json_object(data, "adapted structure", ("basis", "points"))
        basis = Matrix.from_json(data["basis"], "basis")
        points = points_from_json(data["points"])
        if basis.rows != basis.cols:
            raise ValueError(f"basis must be square, got {basis.rows}x{basis.cols}")
        n = point_dimension(points)
        if n < 2 or not basis.rows or basis.rows % n:
            raise ValueError(f"points have {n} coordinates, which must be at least 2 "
                             f"and divide the basis size {basis.rows} > 0")
        return cls(basis, points)


def _recover_basis(web: ConstantWeb) -> tuple[Matrix, list[list[int]]]:
    """The covector basis B of a web of the critical order d = (r+1)(n-1)+2,
    and the columns of B^-1 in integers, as :func:`_point_from_block_matrix`
    reads them.

    Row a*n + alpha is the linear component of the a-th canonical
    degree-1 relation along foliation alpha, pulled back to the ambient
    space.  Pulled back along foliation j, the r relations give the rows
    of C_j kappa_j, C_j the r x r matrix of their components there; since
    kappa_j has rank r, they cut out foliation j exactly when C_j has
    rank r.

    R(1) is verified by one call of ``_verify_relation``; then all of it
    is read in integers off its certified kernel, vector a = vec_a / den_a,
    and the kappas cleared by L: row a of C_j times den_a is the block row
    vec_a[j*r + b], and row (a, alpha) times s_a = den_a * L is
    sum_b vec_a[alpha*r + b] * (L kappa_alpha)[b].  These rows, S B with
    S = diag(s_a) (x) I, are inverted by :meth:`Matrix.inverse`; the
    columns returned are those of (S B)^-1 = B^-1 S^-1 times its
    denominator, and the point reader ignores S^-1 and that scale.

    S B is never singular, so a singular one is an internal contradiction:
    up to a row permutation it is diag(C~_alpha) (L J), where the check
    above gives each block C~_alpha = vec_a[alpha*r + b] rank r, and J,
    the kappas of foliations 1..n stacked, is invertible by general position.
    """
    r, n, d = web.r, web.n, web.d
    rn = r * n
    dim0 = relation_space_dim(web, 0)
    relations = _relation_kernel(web, 1, False)
    _verify_relation(web, 1, relations)
    if not _semi_extremal(r, n, d, dim0, len(relations)):
        raise DegenerateWebError(
            "web is not semi-extremal / degenerate: relation spaces of degree "
            f"0 and 1 have dimensions {dim0} and {len(relations)}"
        )
    for j in range(d):
        block = [[vec.get(j * r + b, 0) for b in range(r)] for _, vec in relations]
        if len(_echelon(block)[1]) != r:
            raise DegenerateWebError(
                "web is not semi-extremal / degenerate: recovered covectors "
                f"do not cut out foliation {j + 1}"
            )

    kappas, lcm = web.cleared_kappas()
    rows, scales = [], []
    for den, vec in relations:
        for alpha in range(n):
            terms = [(vec[alpha * r + b], kappas[alpha][b])
                     for b in range(r) if alpha * r + b in vec]
            rows.append([sum(x * row[c] for x, row in terms) for c in range(rn)])
            scales.append(den * lcm)
    try:
        inverse = Matrix._from_ints(rows, 1).inverse()
    except ValueError:
        raise InternalContradictionError("recovered covector basis is singular") from None
    lcm = math.lcm(*scales)
    basis = Matrix._from_ints([[x * (lcm // s) for x in row] for row, s in zip(rows, scales)], lcm)
    return basis, list(zip(*inverse.ints))


def _point_from_block_matrix(
    columns: Sequence[Sequence[int]], kappa: Sequence[Sequence[int]], r: int, n: int, k: int
) -> ProjectivePoint:
    """Read p_k off foliation k expressed in the recovered coordinates.

    ``columns`` are the columns of the inverse of the recovered basis,
    columns a*n .. a*n + n - 1 all times one non-zero integer t_a, and
    ``kappa`` the foliation's defining rows, all times another
    (``ConstantWeb.cleared_kappas``).  Each covector then has integer
    m-basis coefficients, which are its rational ones times one non-zero
    scale, and block a times t_a.  Reshaped r x n, they must be rank 1
    with one common right factor xi, the point (scaling row a of the
    reshape by t_a changes neither): every block row x passes
    x[i] * xi[lead] == x[lead] * xi[i], lead the first non-zero position
    of xi.

    Acceptance certifies the foliation.  Every covector then has
    coefficients c (x) xi, so it is sum_a c_a sum_alpha xi_alpha m_{a,alpha},
    a covector of F(p_k); the foliation and F(p_k) both have r
    independent covectors, so they are equal.

    All-zero blocks are an internal contradiction: each row of ``kappa``
    (rank r) is non-zero, and ``columns`` are those of an invertible
    matrix, (S B)^-1 times its denominator, so its coefficients are too.
    """
    blocks = []
    for row in kappa:
        coeffs = [sum(a * b for a, b in zip(row, col)) for col in columns]
        blocks.extend(coeffs[a * n : (a + 1) * n] for a in range(r))
    xi = next((row for row in blocks if any(row)), None)
    if xi is None:
        raise InternalContradictionError(f"foliation {k} vanishes in the recovered coordinates")
    lead = next(i for i, c in enumerate(xi) if c)
    for row in blocks:
        if any(c * xi[lead] != row[lead] * x for c, x in zip(row, xi)):
            raise DegenerateWebError(
                "web is not semi-extremal / degenerate: foliation "
                f"{k} is not of the form F(p) in the recovered coordinates"
            )
    return ProjectivePoint(xi)


def recover_normal_form(web: ConstantWeb) -> AdaptedStructure:
    """Rebuild an adapted structure (basis, points) from a semi-extremal web.

    The basis comes from foliations 1..d0 of the web, the subweb of the
    critical order d0 = (r+1)(n-1)+2.  Every point is then read off its
    foliation's covectors expressed in the recovered coordinates.  The
    reader accepts foliation k only if it is F(p_k) in that basis (see
    :func:`_point_from_block_matrix`), so no rebuild of F(p_k) is needed
    to certify the structure.  Another admissible critical subweb is
    reached by reordering the web (``abelian.subweb``) so that its
    foliations come first; the bases then agree up to the structure
    group C (x) A.
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
    basis, columns = _recover_basis(take_subweb(web, range(1, d0 + 1)))
    points = [
        _point_from_block_matrix(columns, kappa, r, n, k)
        for k, kappa in enumerate(web.cleared_kappas()[0], start=1)
    ]
    if d >= _castelnuovo_threshold(r, n) and not castelnuovo_rnc_test(points, r):
        # semi-extremality was verified above, which provably places the
        # points on a rational normal curve
        raise InternalContradictionError(
            "recovered points of a semi-extremal web fail the rational-normal-curve test"
        )
    # Matrix.inverse of S B proved B invertible
    return AdaptedStructure._of_invertible(basis, points)


class RncFit(_Frozen):
    """A rational normal curve through given points, in fitted coordinates.

    ``transform`` maps the ambient space so the first n+1 points become
    the standard frame; the coordinate-wise inverse (Cremona) map then
    straightens the curve to the line through ``line_a`` and ``line_b``.
    ``parameters[i]`` is the affine parameter of point n+1+i (1-based
    numbering: points n+1..d), pinned so point n+2 gets 0 and point n+3
    gets 1; any other choice differs by a Moebius reparametrization.
    ``line_a`` is point n+2 and ``line_b`` point n+3, scaled as
    :func:`fit_rnc` says so that no point sits at parameter infinity.
    The inverse of ``transform`` is computed on the first
    :meth:`point_at` and kept; a fit is immutable, so it stays right.
    """

    __slots__ = ("transform", "line_a", "line_b", "parameters", "_inverse")

    def __init__(self, transform: Matrix, line_a, line_b, parameters):
        object.__setattr__(self, "transform", transform)
        object.__setattr__(self, "line_a", tuple(line_a))
        object.__setattr__(self, "line_b", tuple(line_b))
        object.__setattr__(self, "parameters", tuple(parameters))
        object.__setattr__(self, "_inverse", None)

    def point_at(self, s) -> ProjectivePoint:
        """The curve point with affine parameter s."""
        s = rational(s)
        z = [(1 - s) * a + s * b for a, b in zip(self.line_a, self.line_b)]
        if any(c == 0 for c in z):
            raise DegenerateWebError(f"parameter {s} hits a frame point")
        if self._inverse is None:
            object.__setattr__(self, "_inverse", self.transform.inverse())
        return ProjectivePoint(self._inverse.apply([1 / c for c in z]))

    def to_json(self) -> dict:
        return {
            "transform": self.transform.to_json(),
            "line_a": [str(c) for c in self.line_a],
            "line_b": [str(c) for c in self.line_b],
            "parameters": [str(s) for s in self.parameters],
        }


def fit_rnc(points: Sequence[ProjectivePoint]) -> RncFit:
    """Fit a rational normal curve of degree n-1 through >= n+3 points.

    Raises DegenerateWebError("not on a common RNC") when no such curve
    exists, and a general-position error when the first n+1 points do
    not form a projective frame.  Through n+2 points in general position
    there passes exactly one such curve (Harris, *Algebraic Geometry*,
    Thm 1.18), so fitting n+3 or more also tests that they lie on one.

    Everything runs in integers.  Write point k as P_k / L_k (``ints``
    over ``den``) and the inverse of G = [P_1 .. P_n] as A / delta, one
    ``Matrix.inverse`` (A is ``adj``).  With U = A P_(n+1) and W_k = A P_k, the
    transform sending points 1..n onto the coordinate points and point
    n+1 to [1 : ... : 1] has rows L_(n+1) A_i / U_i (no U_i is 0 on a
    frame), and point k goes to the Cremona image
    (U_i L_k / (L_(n+1) W_k,i))_i.  A curve through the coordinate points
    meets the hyperplane x_i = 0 only in the n-1 of them that lie there,
    so a zero W_k,i puts point k off every such curve or onto a point of
    the frame; either is "not on a common RNC".

    On a curve the images are collinear.  Scaled by L_(n+1) prod W_k / L_k
    they are the integer columns Z_k[i] = U_i prod_(l != i) W_k,l.  With
    a = point n+2, b = point n+3 and the first pair (i, j) where
    Delta = det[Z_a, Z_b]_ij != 0 (with none, a and b coincide), Cramer's
    rule on rows i, j gives the only candidate coefficients of Z_k in
    the span of Z_a and Z_b: lambda = det[Z_k, Z_b]_ij and
    mu = det[Z_a, Z_k]_ij over Delta.  In coordinate l,
    Delta Z_k[l] - lambda Z_a[l] - mu Z_b[l] is the 3 x 3 minor of
    [Z_a Z_b Z_k] on rows i, j, l, so Delta Z_k = lambda Z_a + mu Z_b in
    every coordinate says that every minor bordering the non-zero one
    vanishes: exactly that [Z_a Z_b Z_k] has rank <= 2.  Rows i and j
    alone always pass.

    An image lam * a + mu * b (a, b the images of points n+2, n+3) gets
    the parameter mu / (lam + mu).  If some image has lam + mu = 0, b
    becomes c * b for the least integer c >= 2 with no lam + mu / c = 0,
    and the parameters (mu / c) / (lam + mu / c); points n+2, n+3 keep 0
    and 1.  In the integers above that parameter is y / (c x + y), with
    x = lambda L_b prod W_a and y = mu L_a prod W_b: the factors that
    turn Z_a, Z_b and Z_k back into images cancel.
    """
    points = list(points)
    n = point_dimension(points)
    d = len(points)
    if d < n + 3:
        raise ValueError(f"fitting needs at least n+3 = {n + 3} points")

    try:
        frame_inv = Matrix._from_ints(list(zip(*(p.ints for p in points[:n]))), 1).inverse()
    except ValueError:  # singular
        raise DegenerateWebError("first n points are not in general position") from None
    adj = frame_inv.ints
    u = [sum(map(operator.mul, row, points[n].ints)) for row in adj]
    if not all(u):
        raise DegenerateWebError("first n+1 points are not in general position")
    den = points[n].den
    lcm = math.lcm(*u)
    transform = Matrix._from_ints(
        [[den * (lcm // u_i) * x for x in row] for row, u_i in zip(adj, u)], lcm
    )

    ws = []
    for p in points[n:]:
        w = [sum(map(operator.mul, row, p.ints)) for row in adj]
        if not all(w):
            raise DegenerateWebError("not on a common RNC")
        ws.append(w)
    zs = [[u_i * (math.prod(w) // w_i) for u_i, w_i in zip(u, w)] for w in ws]
    za, zb = zs[1], zs[2]
    pair = next(((i, j) for i, j in itertools.combinations(range(n), 2)
                 if za[i] * zb[j] != za[j] * zb[i]), None)
    if pair is None:
        raise DegenerateWebError("coincident points on the candidate curve")
    i, j = pair
    delta = za[i] * zb[j] - za[j] * zb[i]
    fa, fb = points[n + 2].den * math.prod(ws[1]), points[n + 1].den * math.prod(ws[2])
    xy = []
    for z in zs:
        lam, mu = z[i] * zb[j] - z[j] * zb[i], za[i] * z[j] - za[j] * z[i]
        if any(delta * c != lam * a + mu * b for a, b, c in zip(za, zb, z)):
            raise DegenerateWebError("not on a common RNC")
        xy.append((lam * fa, mu * fb))
    c = 1
    while any(c * x + y == 0 for x, y in xy):
        c += 1
    line_a = [Fraction(u_i * points[n + 1].den, den * w_i) for u_i, w_i in zip(u, ws[1])]
    line_b = [Fraction(c * u_i * points[n + 2].den, den * w_i) for u_i, w_i in zip(u, ws[2])]
    return RncFit(transform, line_a, line_b, [Fraction(y, c * x + y) for x, y in xy])


def akivis_structure(foliations: Sequence[ConstantFoliation]) -> Matrix:
    """The unique covector basis adapted to n+1 foliations in general position.

    Decomposes each defining covector of the last foliation in the joint
    basis of the first n, C = kappa_{n+1} joint^-1 (r x rn); with C_alpha
    the alpha-th block of r columns of C, row a of C_alpha kappa_alpha is
    m_{a,alpha}.  The first n foliations are then cut by the blocks and
    the last by the row sums.

    Neither J, the first n kappas stacked, nor the result is ever
    singular, so a singular one is an internal contradiction.  The rn
    rows of J are independent by ``require_pg`` with d = n + 1.  Up to a
    row permutation the result is diag(C_alpha) J, and u C_alpha = 0
    with u != 0 would make u kappa_{n+1} = sum_{beta != alpha} (u C_beta)
    kappa_beta a non-trivial dependency (u kappa_{n+1} != 0) among the
    rows of the n foliations other than alpha, which PG excludes.  So
    det(result) = +-det J prod_alpha det C_alpha, and with J proven
    invertible by its inverse, the n r x r determinants det C_alpha
    (one ``_minors`` sweep each) certify the result with no rank test.
    """
    foliations = list(foliations)
    if not foliations:
        raise ValueError("empty foliation list")
    r, n = foliations[0].r, foliations[0].n
    if len(foliations) != n + 1:
        raise ValueError(f"exactly n+1 = {n + 1} foliations are required")
    web = ConstantWeb(r, n, foliations)
    web.require_pg()

    kappas, lcm = web.cleared_kappas()
    joint = Matrix._from_ints([row for kappa in kappas[:n] for row in kappa], lcm)
    try:
        inverse = joint.inverse()
    except ValueError:
        raise InternalContradictionError("joint basis of the first n is singular") from None
    coeffs = foliations[n].matrix * inverse
    # det C_alpha over the r columns of block alpha (det of the transpose)
    columns = list(zip(*coeffs.ints))
    if not all(_minors(columns[alpha * r : (alpha + 1) * r], r)[tuple(range(r))]
               for alpha in range(n)):
        raise InternalContradictionError(
            "foliations admit no adapted basis: block decomposition is singular"
        )
    # row a of C_alpha kappa_alpha, all over den(C) * L
    return Matrix._from_ints([
        [sum(map(operator.mul, row[alpha * r : (alpha + 1) * r], column))
         for column in zip(*kappas[alpha])]
        for row in coeffs.ints for alpha in range(n)
    ], coeffs.den * lcm)


def structures_equivalent(basis1: Matrix, basis2: Matrix, r: int, n: int) -> bool:
    """Whether two adapted bases differ by an element of the structure group.

    The change of basis g with basis2 = g . basis1, rearranged into the
    r^2 x n^2 matrix M[(a,b),(alpha,beta)] = g[(a,alpha),(b,beta)], has
    rank 1 exactly when g is a Kronecker product C (x) A.
    """
    rn = r * n
    for basis in (basis1, basis2):
        if basis.rows != rn or basis.cols != rn:
            raise ValueError(f"bases must be {rn}x{rn}")
        if not basis.is_invertible():
            raise ValueError("bases must be invertible")
    g = basis2 * basis1.inverse()
    rearranged = Matrix._from_ints(
        [
            [g.ints[a * n + alpha][b * n + beta] for alpha in range(n) for beta in range(n)]
            for a in range(r)
            for b in range(r)
        ],
        g.den,
    )
    return rearranged.rank() == 1
