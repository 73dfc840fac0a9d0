from fractions import Fraction

import pytest

from abelweb import (
    DegenerateWebError,
    Matrix,
    MomentWebSpec,
    PlaneArrangement,
    ProjectivePoint,
    intersect_with_base_plane,
    moment_web,
    tangent_incidence_web,
    total_rank,
)
from helpers import arrangement_through_points, make_rng


def test_arrangement_validation():
    with pytest.raises(ValueError):
        PlaneArrangement(2, 2, [Matrix([[1, 2, 3]])])
    with pytest.raises(ValueError):
        PlaneArrangement(2, 3, [Matrix([[1, 0, 0, 0, 0], [2, 0, 0, 0, 0]])])


def test_intersection_point_explicit():
    # planes in P^3, base line {eta1 = eta2 = 0}; the plane
    # {eta2 + xi1 - 3 xi2 = 0} meets the base line in [xi1 : xi2] = [3 : 1]
    arr = PlaneArrangement(2, 2, [Matrix([[0, 1, 1, -3]])])
    points = intersect_with_base_plane(arr)
    assert points == [ProjectivePoint([3, 1])]


def test_plane_containing_base_plane_rejected():
    # the form eta1 vanishes on the whole base line
    arr = PlaneArrangement(2, 2, [Matrix([[1, 0, 0, 0]])])
    with pytest.raises(DegenerateWebError, match="general position"):
        intersect_with_base_plane(arr)


def test_coincident_points_rejected():
    arr = PlaneArrangement(
        2, 2, [Matrix([[0, 1, 1, -3]]), Matrix([[1, 1, 2, -6]])]
    )
    with pytest.raises(DegenerateWebError, match="fewer than"):
        tangent_incidence_web(arr)


def test_moment_arrangement_reproduces_moment_web():
    rng = make_rng(22)
    for (r, n, d) in [(2, 2, 6), (2, 3, 8)]:
        taus = list(range(d))
        base_points = [[Fraction(t) ** k for k in range(n)] for t in taus]
        arr = arrangement_through_points(rng, r, n, base_points)
        web = tangent_incidence_web(arr)
        reference = moment_web(MomentWebSpec(r, n, taus))
        assert web.foliation_set() == reference.foliation_set()


def test_generic_arrangement_respects_bounds():
    rng = make_rng(23)
    points = []
    while len(points) < 6:
        candidate = [rng.randint(1, 7), rng.randint(-7, 7), rng.randint(-7, 7)]
        if candidate not in points:
            points.append(candidate)
    arr = arrangement_through_points(rng, 2, 3, points)
    web = tangent_incidence_web(arr)
    if web.is_pg():
        report = total_rank(web)  # the internal guard enforces every bound
        assert report.total_rank <= report.rho


def test_arrangement_json_round_trip():
    arr = PlaneArrangement(2, 2, [Matrix([[0, 1, 1, -3]])])
    again = PlaneArrangement.from_json(arr.to_json())
    assert again.planes == arr.planes
    assert (again.r, again.n) == (2, 2)


def test_planes_are_ranked_only_when_every_xi_minor_vanishes(monkeypatch):
    # plane 1's xi-block [[1, 2, 3], [2, 4, 6]] has rank 1, but its eta
    # column makes the two forms independent: it is an arrangement, whose
    # plane 1 meets the base plane in a line
    low = Matrix([[1, 1, 2, 3], [0, 2, 4, 6]])
    transverse = Matrix([[0, 1, 0, -1], [1, 0, 1, 0]])
    arr = PlaneArrangement(1, 3, [low, transverse])
    with pytest.raises(DegenerateWebError, match="plane 1 meets it in a 2-dimensional set"):
        intersect_with_base_plane(arr)
    with pytest.raises(ValueError, match="^plane 2 forms are not independent$"):
        PlaneArrangement(1, 3, [transverse, Matrix([[1, 1, 2, 3], [2, 2, 4, 6]])])
    # a non-zero minor proves the forms independent, with no rank
    ranked = []
    real = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda self: ranked.append(self) or real(self))
    PlaneArrangement(1, 3, [transverse, transverse])
    assert ranked == []
    PlaneArrangement(1, 3, [low, transverse])
    assert ranked == [low]
