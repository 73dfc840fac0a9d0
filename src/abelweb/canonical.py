"""Vandermonde weights, Lagrange interpolation, and canonical web data.

For d pairwise distinct parameters tau_1..tau_d, P(t) = prod_k (t - tau_k)
and its cofactors Q_j = P(t)/(t - tau_j), the weights

    c_j = 1 / Q_j(tau_j) = 1 / prod_{k != j} (tau_j - tau_k)

solve the moment system sum_j tau_j^rho c_j = delta_{rho, d-1}.  They
drive everything here: the general solution of the truncated moment
system, the polynomial identity

    sum_j P(t)/(t - tau_j) c_j f(tau_j) = f(t)    for deg f <= d-1,

and the canonical data of a moment web — a relation basis in a fixed
order, the resulting points [1 : tau_j : ... : tau_j^q : 0 : ... : 0],
and the degree-q curve through them.  The solution polynomial, the
identity and the curve are each one sum sum_j v_j Q_j (``_interpolate``).

Univariate polynomials are plain ascending coefficient lists of exact
rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InternalContradictionError
from .exactalg import Matrix, binomial, rational
from .multilinear import HomogeneousPoly
from .webcore import h_cutoff, q_of, require_web_type
from .abelian import RankReport, RelationBasisElement, relation_space
from .grassmann import MomentWebSpec, ProjectivePoint, moment_web


def _strip(coeffs: Sequence) -> list[Fraction]:
    coeffs = [rational(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(list(p)):
        total = total * x + c
    return total


def _check_distinct(taus: Sequence) -> tuple[Fraction, ...]:
    taus = tuple(rational(t) for t in taus)
    if len(set(taus)) != len(taus):
        raise ValueError("parameters must be distinct")
    return taus


def _cofactors(taus: Sequence[Fraction]) -> list[list[Fraction]]:
    """P(t)/(t - tau_j) for every j, P(t) = prod_k (t - tau_k): P is formed
    once and divided by each t - tau_j synthetically, O(d^2) in all."""
    poly = [Fraction(1)]
    for tk in taus:
        poly = [a - tk * b for a, b in zip([0] + poly, poly + [0])]
    quotients = []
    for tj in taus:
        # P = (t - tj) Q: Q's top coefficient is P's, then q_(k-1) = p_k + tj q_k
        q = [poly[-1]]
        for c in reversed(poly[1:-1]):
            q.append(c + tj * q[-1])
        quotients.append(q[::-1])
    return quotients


def _interpolate(cofactors: Sequence[Sequence[Fraction]], values: Sequence) -> list[Fraction]:
    """sum_j values[j] * Q_j, Q_j = P(t)/(t - tau_j) from :func:`_cofactors`:
    the polynomial of degree < d that takes the value values[j] / c_j at tau_j."""
    total = [Fraction(0)] * len(cofactors)
    for v, cofactor in zip(values, cofactors):
        if v:
            for e, c in enumerate(cofactor):
                total[e] += v * c
    return total


def vandermonde_weights(taus: Sequence) -> tuple[Fraction, ...]:
    """The unique solution of sum_j tau_j^rho c_j = delta_{rho, d-1}: c_j = 1 / Q_j(tau_j)."""
    taus = _check_distinct(taus)
    return tuple(1 / _poly_eval(q, t) for q, t in zip(_cofactors(taus), taus))


def check_general_solution(
    r: int, n: int, taus: Sequence, f_coeffs: Sequence
) -> tuple[Fraction, ...]:
    """z_j = c_j f(tau_j) for deg f <= q(d), with the moment equations re-checked.

    Every exact solution of the truncated system
    sum_j tau_j^rho z_j = 0 (rho = 0..r(n-1)) arises this way; see
    solution_polynomial for the converse direction.
    """
    taus = _check_distinct(taus)
    d = len(taus)
    q = q_of(r, n, d)
    f = _strip(f_coeffs)
    if len(f) - 1 > q:
        raise ValueError(f"polynomial degree exceeds q(d) = {q}")
    weights = vandermonde_weights(taus)
    z = tuple(c * _poly_eval(f, t) for c, t in zip(weights, taus))
    for rho in range(r * (n - 1) + 1):
        moment = sum(t**rho * zj for t, zj in zip(taus, z))
        if moment != 0:
            raise InternalContradictionError(
                f"moment {rho} of a weighted polynomial solution is {moment}, not 0"
            )
    return z


def solution_polynomial(
    r: int, n: int, taus: Sequence, z: Sequence
) -> tuple[Fraction, ...]:
    """The polynomial f of degree <= q(d) with z_j = c_j f(tau_j).

    Raises ValueError when z does not solve the moment system, and
    InternalContradictionError if a genuine solution needs degree above
    q(d) — the solution space provably has dimension q(d)+1.
    """
    taus = _check_distinct(taus)
    z = [rational(v) for v in z]
    if len(z) != len(taus):
        raise ValueError("one value per parameter is required")
    d = len(taus)
    q = q_of(r, n, d)
    for rho in range(r * (n - 1) + 1):
        if sum(t**rho * zj for t, zj in zip(taus, z)) != 0:
            raise ValueError("values do not solve the moment system")
    # Lagrange basis through (tau_j, z_j / c_j) collapses to
    # f = sum_j z_j * P(t)/(t - tau_j)
    f = _strip(_interpolate(_cofactors(taus), z))
    if len(f) - 1 > q:
        raise InternalContradictionError(
            f"moment-system solution interpolates to degree {len(f) - 1} > q(d) = {q}"
        )
    return tuple(f)


def lagrange_identity(taus: Sequence, f_coeffs: Sequence) -> bool:
    """Whether sum_j P(t)/(t-tau_j) c_j f(tau_j) = f(t) holds identically.

    True for every f of degree <= d-1 and false beyond — the left-hand
    side has degree < d, so it can only reproduce f up to that bound.
    """
    taus = _check_distinct(taus)
    f = _strip(f_coeffs)
    values = [c * _poly_eval(f, t) for c, t in zip(vandermonde_weights(taus), taus)]
    return _strip(_interpolate(_cofactors(taus), values)) == f


def dimension_formula(r: int, n: int, q: int) -> int:
    """Closed form for the maximal rank of webs with q(d) = q.

    Writing q = rho(n-1) + m - 1 with rho >= 1 and 1 <= m <= n-1, the
    value is (n-1) C(r+rho, r+1) + m C(r+rho, r); it agrees with the sum
    of per-degree bounds at d = q + r(n-1) + 2.
    """
    require_web_type(r, n, q + r * (n - 1) + 2)
    if q < n - 1:
        raise ValueError("formula requires q >= n-1")
    rho, rem = divmod(q, n - 1)
    m = rem + 1
    return (n - 1) * binomial(r + rho, r + 1) + m * binomial(r + rho, r)


class CanonicalData:
    """Relation-basis data of a moment web at the origin.

    N is the rank minus one; points are the d images of the origin under
    the relation-basis maps; curve_coeffs are the q+1 vector coefficients
    of the degree-q polynomial curve through all of them.
    """

    __slots__ = ("N", "q", "taus", "weights", "points", "curve_coeffs")

    def __init__(self, N, q, taus, weights, points, curve_coeffs):
        self.N = N
        self.q = q
        self.taus = tuple(taus)
        self.weights = tuple(weights)
        self.points = tuple(points)
        self.curve_coeffs = tuple(tuple(v) for v in curve_coeffs)

    def point_at(self, t) -> ProjectivePoint:
        """The curve evaluated at parameter t, coordinate by coordinate
        (Horner); a coordinate with no non-zero coefficient is 0."""
        t = rational(t)
        return ProjectivePoint([
            _poly_eval(coeffs, t) if any(coeffs) else Fraction(0)
            for coeffs in zip(*self.curve_coeffs)
        ])

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "q": self.q,
            "taus": [str(t) for t in self.taus],
            "weights": [str(c) for c in self.weights],
            "points": [p.to_json() for p in self.points],
            "curve": [[str(c) for c in vec] for vec in self.curve_coeffs],
        }


def canonical_data(spec: MomentWebSpec) -> CanonicalData:
    """Ordered relation basis, points, and curve of a moment web.

    Each relation space R(h), h below the cutoff, is computed once; the
    rank report is read off their dimensions.  The basis order is fixed:
    the q+1 weighted power relations z_j = c_j tau_j^rho of degree 0,
    then the r weighted linear relations z_j = c_j y_a, then the
    canonical kernel vectors of R(1) that the linear relations leave
    independent (the pivot columns after them, in order), then R(h) for
    h >= 2.  With that order the j-th point is
    [1 : tau_j : ... : tau_j^q : 0 : ... : 0] and the curve through them
    is [1 : t : ... : t^q : 0 : ... : 0]; both facts are asserted rather
    than assumed.
    """
    r, n = spec.r, spec.n
    d = len(spec.taus)
    q = q_of(r, n, d)
    if q < n - 1:
        raise ValueError(
            f"canonical data requires at least (r+1)(n-1)+2 = {(r + 1) * (n - 1) + 2} parameters"
        )
    web = moment_web(spec)
    spaces = [relation_space(web, h) for h in range(h_cutoff(r, n, d))]
    report = RankReport(web, [len(space) for space in spaces])
    if not report.maximal_rank or not report.semi_extremal:
        raise InternalContradictionError("moment web fails to saturate the rank bounds")
    weights = vandermonde_weights(spec.taus)

    # designated degree-0 block: z_j = c_j tau_j^rho, rho = 0..q
    degree0 = [
        RelationBasisElement(web, 0, [
            HomogeneousPoly.constant(r, c * t**rho) for c, t in zip(weights, spec.taus)
        ])
        for rho in range(q + 1)
    ]
    if report.dim(0) != q + 1:
        raise InternalContradictionError(
            f"degree-0 relation space has dimension {report.dim(0)}, expected {q + 1}"
        )

    # designated degree-1 block: z_j = c_j y_a, a = 1..r
    linear = [
        RelationBasisElement(web, 1, [
            HomogeneousPoly(r, 1, {tuple(1 if i == a else 0 for i in range(r)): c})
            for c in weights
        ])
        for a in range(r)
    ]

    # completion of the degree-1 block from the canonical kernel basis: a
    # vector is a pivot column exactly when it is independent of all
    # vectors before it.  The basis goes on with the kernel vectors at
    # pivots[r:], then R(h) for h >= 2; no output reads them, so they are
    # not assembled.  With dim R(0) = q + 1 and len(pivots) = dim R(1) it
    # holds exactly total_rank = sum_h dim R(h) relations.
    kernel1 = spaces[1]
    columns = Matrix([el.vector() for el in linear + kernel1]).transpose()
    _, pivots = columns.rref()
    if pivots[:r] != tuple(range(r)) or len(pivots) != len(kernel1):
        raise InternalContradictionError(
            "degree-1 kernel basis fails to complete the designated relations"
        )
    N = report.total_rank - 1

    # evaluation at the origin: constants survive, positive degrees
    # vanish, so only the q+1 relations of degree 0, which come first,
    # give non-zero entries; the N-q after them are zeros
    zeros = [Fraction(0)] * (N - q)
    columns = [[el.components[j].coefficient((0,) * r) for el in degree0] for j in range(d)]

    points = []
    for j, column in enumerate(columns):
        point = ProjectivePoint(column + zeros)
        if point != ProjectivePoint([spec.taus[j] ** rho for rho in range(q + 1)] + zeros):
            raise InternalContradictionError(
                f"point {j + 1} differs from its displayed coordinate form"
            )
        points.append(point)
    if len(set(points)) != d:
        raise InternalContradictionError("canonical points are not pairwise distinct")

    # curve z(t) = sum_j P(t)/(t - tau_j) z_j by coordinates; must close at degree q
    cofactors = _cofactors(spec.taus)
    curve = list(zip(*(_interpolate(cofactors, values) for values in zip(*columns))))
    for e in range(q + 1, d):
        if any(c != 0 for c in curve[e]):
            raise InternalContradictionError(
                f"canonical curve has a nonzero coefficient in degree {e} > q = {q}"
            )
    curve_coeffs = [list(vec) + zeros for vec in curve[: q + 1]]

    data = CanonicalData(N, q, spec.taus, weights, points, curve_coeffs)
    for tau, point in zip(spec.taus, points):
        if data.point_at(tau) != point:
            raise InternalContradictionError(
                "canonical curve fails to interpolate its defining points"
            )
    return data
