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
name the dimension of the intersection.  No kernel is eliminated, and
the identity basis needs no rank test for F(p_j)
(``grassmann._foliation_on_invertible``).
"""

from __future__ import annotations

from typing import Sequence

from .errors import DegenerateWebError
from .exactalg import Matrix, _minors, json_array
from .webcore import ConstantWeb, require_web_type, web_type_from_json
from .grassmann import ProjectivePoint, _foliation_on_invertible


class PlaneArrangement:
    """d r-planes in P^(r+n-1), each cut out by n-1 independent forms."""

    __slots__ = ("r", "n", "planes")

    def __init__(self, r: int, n: int, planes: Sequence[Matrix]):
        planes = tuple(planes)
        require_web_type(r, n, len(planes))
        for i, plane in enumerate(planes, start=1):
            if plane.rows != n - 1 or plane.cols != r + n:
                raise ValueError(f"plane {i} needs a {n - 1}x{r + n} form matrix")
            if plane.rank() != n - 1:
                raise ValueError(f"plane {i} forms are not independent")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "planes", planes)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("PlaneArrangement is immutable")

    @property
    def d(self) -> int:
        return len(self.planes)

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
    n = arr.n
    points = []
    for idx, plane in enumerate(arr.planes):
        # a point with eta = 0 lies on the plane exactly when its xi
        # coordinates are in the kernel of the plane's xi-block
        block = [row[arr.r :] for row in plane.ints]
        # in colex order the subset without column k is at n - 1 - k
        minors = _minors(block, n)
        coords = [(-1) ** k * minors[subset] for k, subset in enumerate(reversed(minors))]
        if not any(coords):
            rank = Matrix._from_ints(block, plane.den).rank()
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
