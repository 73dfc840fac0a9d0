"""Tangent webs of incidence varieties of plane arrangements.

Fix homogeneous coordinates [eta_1 : .. : eta_r : xi_1 : .. : xi_n] on
P^(r+n-1) and the base (n-1)-plane {eta = 0}.  An arrangement of d
r-planes, each given as the kernel of n-1 independent linear forms,
meets the base plane in d points (when transverse); the web of all
(n-1)-planes through the arrangement is, to first order at the base
plane, the constant web F(p_1), ..., F(p_d) in the chart coordinates
x_{a,alpha} with the identity covector basis.

Each p_j is the kernel of the (n-1) x n xi-block B of plane j's forms,
read off one sweep of B's maximal minors (``exactalg._minors``) by
Cramer's rule: x_k = (-1)^k det(B without column k).  For a row b of B,
sum_k b_k x_k expands the determinant of [b; B] along its first row, and
that matrix repeats a row, so B x = 0.  B has rank n-1 exactly when some
maximal minor is non-zero, and then x != 0 spans its one-dimensional
kernel.  Only when every minor vanishes is the rank of B computed, to
name the dimension of the intersection.  No kernel is eliminated, the
minors become the point's integers as they are, and the identity basis
needs no rank test for F(p_j) (``grassmann._foliation_on_invertible``).

The same minors check the input: a non-zero one makes the n-1 rows of B
independent, so the n-1 forms are too, and :class:`PlaneArrangement`
ranks a plane's forms only when every minor of its xi-block vanishes.
A plane whose xi-block is deficient but whose forms are independent is
an arrangement; it fails only later, as a plane meeting the base plane
in more than a point.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DegenerateWebError
from .exactalg import Matrix, _Frozen, _minors, json_array
from .webcore import ConstantWeb, require_web_type, web_type_from_json
from .grassmann import ProjectivePoint, _foliation_on_invertible


class PlaneArrangement(_Frozen):
    """d r-planes in P^(r+n-1), each cut out by n-1 independent forms.

    ``_kernels`` holds each plane's signed maximal minors
    x_k = (-1)^k det(B without column k) of its xi-block B (see the
    module docstring).  Non-zero, they are the plane's intersection point
    and prove its forms independent, so a plane is ranked only when they
    all vanish.
    """

    __slots__ = ("r", "n", "planes", "_kernels")

    def __init__(self, r: int, n: int, planes: Sequence[Matrix]):
        planes = tuple(planes)
        require_web_type(r, n, len(planes))
        kernels = []
        for i, plane in enumerate(planes, start=1):
            if plane.rows != n - 1 or plane.cols != r + n:
                raise ValueError(f"plane {i} needs a {n - 1}x{r + n} form matrix")
            # in colex order the subset without column k is at n - 1 - k
            minors = _minors([row[r:] for row in plane.ints], n)
            kernels.append([(-1) ** k * minors[s] for k, s in enumerate(reversed(minors))])
            if not any(kernels[-1]) and plane.rank() != n - 1:
                raise ValueError(f"plane {i} forms are not independent")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "_kernels", tuple(kernels))

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "planes": [plane.to_json() for plane in self.planes],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PlaneArrangement":
        r, n = web_type_from_json(data, "arrangement", ("planes",))
        if not json_array(data["planes"], "planes"):
            raise ValueError("planes must hold at least one plane, got []")
        return cls(r, n, [
            Matrix.from_json(rows, f"plane {i}") for i, rows in enumerate(data["planes"], start=1)
        ])


def intersect_with_base_plane(arr: PlaneArrangement) -> list[ProjectivePoint]:
    """The d intersection points with {eta = 0}, as points of P^(n-1).

    Each plane must meet the base plane transversally in a single point.
    A plane whose xi-block has rank below n-1 meets it in a projective
    set of dimension at least 1 and is rejected, a plane containing the
    base plane included.  The message names the dimension of the kernel
    of the xi-block.  Each point is the vector of signed maximal minors
    of the block (see the module docstring).
    """
    r, n = arr.r, arr.n
    points = []
    for idx, (plane, coords) in enumerate(zip(arr.planes, arr._kernels)):
        # a point with eta = 0 lies on the plane exactly when its xi
        # coordinates are in the kernel of the plane's xi-block
        if not any(coords):
            rank = Matrix._from_ints([row[r:] for row in plane.ints], plane.den).rank()
            raise DegenerateWebError(
                "arrangement not in general position w.r.t. base plane: "
                f"plane {idx + 1} meets it in a {n - rank}-dimensional set"
            )
        points.append(ProjectivePoint(coords))
    return points


def tangent_incidence_web(arr: PlaneArrangement) -> ConstantWeb:
    """The constant web F(p_j) at the intersection points, identity basis."""
    points = intersect_with_base_plane(arr)
    if len(set(points)) != len(points):
        raise DegenerateWebError(
            "arrangement meets base plane in fewer than d points"
        )
    basis = Matrix.identity(arr.r * arr.n)
    return ConstantWeb(
        arr.r, arr.n, [_foliation_on_invertible(basis, p) for p in points]
    )
