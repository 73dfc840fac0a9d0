"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines
as they happen; without ``-s`` they appear in the captured output.
"""

from fractions import Fraction

from abelweb import (
    ConstantWeb,
    Matrix,
    MomentWebSpec,
    ProjectivePoint,
    castelnuovo_rnc_test,
    canonical_data,
    degree_bound,
    dimension_formula,
    fit_rnc,
    foliation_from_point,
    h_cutoff,
    lagrange_identity,
    moment_point,
    moment_web,
    q_of,
    recover_normal_form,
    relation_space_dim,
    rho_bound,
    structures_equivalent,
    subweb,
    tangent_incidence_web,
    total_rank,
    vandermonde_weights,
)
from helpers import (
    arrangement_through_points,
    make_rng,
    random_invertible,
    random_pg_web,
)


def _verdict(num, description, body):
    try:
        body()
    except BaseException:
        print(f"[ACCEPTANCE {num:2d}] FAIL - {description}")
        raise
    print(f"[ACCEPTANCE {num:2d}] PASS - {description}")


def test_criterion_1_closed_form_table():
    def body():
        assert rho_bound(1, 2, 4) == 3
        assert rho_bound(1, 2, 5) == 6
        for d in range(1, 31):
            assert rho_bound(1, 2, d) == (d - 1) * (d - 2) // 2
        for r in range(1, 6):
            for n in range(2, 6):
                for d in range(1, 25):
                    assert (rho_bound(r, n, d) == 0) == (d <= r * (n - 1) + 1)

    _verdict(1, "closed-form rank bound table", body)


def test_criterion_2_dimension_identity():
    def body():
        for r in range(1, 6):
            for n in range(2, 6):
                for q in range(n - 1, 13):
                    d = q + r * (n - 1) + 2
                    assert dimension_formula(r, n, q) == rho_bound(r, n, d), (r, n, q)

    _verdict(2, "rank formula equals summed per-degree bounds on the full grid", body)


def test_criterion_3_moment_webs_saturate_bounds():
    def body():
        cases = [
            (1, 2, 5),
            (2, 2, 5),
            (2, 2, 6),
            (2, 2, 8),
            (2, 3, 8),
            (2, 3, 10),
            (3, 2, 8),
            (1, 3, 7),
        ]
        for (r, n, d) in cases:
            web = moment_web(MomentWebSpec(r, n, list(range(d))))
            for h in range(h_cutoff(r, n, d)):
                assert relation_space_dim(web, h) == degree_bound(r, n, d, h), (r, n, d, h)

    _verdict(3, "moment webs achieve every per-degree bound", body)


def test_criterion_4_random_webs_never_exceed_bounds():
    def body():
        rng = make_rng(100)
        for (r, n) in [(2, 2), (2, 3), (1, 2)]:
            for _ in range(50):
                d = rng.randint(r * (n - 1) + 2, 10)
                web = random_pg_web(rng, r, n, d)
                # total_rank raises InternalContradictionError on any
                # per-degree exceedance; reaching the report is the pass
                report = total_rank(web)
                assert report.total_rank <= report.rho

    _verdict(4, "150 seeded random webs stay within all per-degree bounds", body)


def test_criterion_5_critical_order_rank():
    def body():
        for (r, n) in [(2, 2), (2, 3), (3, 2)]:
            d = (r + 1) * (n - 1) + 2
            web = moment_web(MomentWebSpec(r, n, list(range(d))))
            assert total_rank(web).total_rank == r + n, (r, n)

    _verdict(5, "webs of critical order have rank r+n", body)


def test_criterion_6_recovery_round_trip():
    def body():
        rng = make_rng(200)
        for (r, n, d) in [(2, 2, 6), (2, 2, 8), (2, 3, 8), (3, 2, 10)]:
            d0 = (r + 1) * (n - 1) + 2
            for seed in range(20):
                g = random_invertible(rng, r * n)
                web = moment_web(MomentWebSpec(r, n, list(range(d)), g))
                structure = recover_normal_form(web)
                assert structure.rebuild().foliation_set() == web.foliation_set()
                threshold = 2 * n + 1 if r == 2 else r * (n - 1) + 1
                if d >= threshold:
                    assert castelnuovo_rnc_test(structure.points, r)
                if d >= n + 3:
                    fit_rnc(structure.points)
                if d > d0 and seed % 5 == 0:
                    # the critical subweb of 1..n+1 and the last foliations
                    tail = d - (d0 - n - 1)
                    alt = [*range(1, n + 2), *range(tail + 1, d + 1), *range(n + 2, tail + 1)]
                    other = recover_normal_form(subweb(web, alt))
                    assert structures_equivalent(structure.basis, other.basis, r, n)

    _verdict(6, "gauge-conjugated moment webs recover exactly (80 seeds)", body)


def test_criterion_7_vandermonde_lagrange():
    def body():
        rng = make_rng(300)
        for d in range(2, 11):
            taus = list(range(d))
            system = Matrix([[Fraction(t) ** rho for t in taus] for rho in range(d)])
            assert vandermonde_weights(taus) == system.inverse().apply([0] * (d - 1) + [1])
        for d in range(2, 9):
            while True:
                taus = [Fraction(rng.randint(-12, 12)) for _ in range(d)]
                if len(set(taus)) == d:
                    break
            for e in range(d):
                assert lagrange_identity(taus, [0] * e + [1])
            assert not lagrange_identity(taus, [0] * d + [1])

    _verdict(7, "weights match linear solves; interpolation identity sharp at degree d", body)


def test_criterion_8_canonical_data():
    def body():
        for (r, n, d) in [(1, 2, 5), (2, 2, 7), (2, 3, 8)]:
            data = canonical_data(MomentWebSpec(r, n, list(range(d))))
            q = q_of(r, n, d)
            assert data.q == q
            assert len(data.curve_coeffs) == q + 1
            assert Matrix(data.curve_coeffs).rank() == q + 1
            for tau, point in zip(data.taus, data.points):
                lead = tuple(Fraction(tau) ** rho for rho in range(q + 1))
                assert point.coords[: q + 1] == lead
                assert all(c == 0 for c in point.coords[q + 1 :])
                assert data.point_at(tau) == point

    _verdict(8, "canonical points and degree-q curve in displayed form", body)


def test_criterion_9_incidence_tangent_webs():
    def body():
        rng = make_rng(400)
        for (r, n, d) in [(2, 2, 6), (2, 3, 8)]:
            taus = list(range(d))
            base_points = [[Fraction(t) ** k for k in range(n)] for t in taus]
            arr = arrangement_through_points(rng, r, n, base_points)
            web = tangent_incidence_web(arr)
            reference = moment_web(MomentWebSpec(r, n, taus))
            assert web.foliation_set() == reference.foliation_set()
            report = total_rank(web)
            assert report.total_rank == rho_bound(r, n, d)

    _verdict(9, "moment-point arrangements yield maximal-rank tangent webs", body)


def test_criterion_10_negative_controls():
    def body():
        r, n, d = 2, 3, 9
        points = [moment_point(n, t) for t in range(d - 1)] + [ProjectivePoint([1, 1, 9])]
        assert not castelnuovo_rnc_test(points, r)
        basis = Matrix.identity(r * n)
        web = ConstantWeb(r, n, [foliation_from_point(basis, p) for p in points])
        assert web.is_pg()
        report = total_rank(web)
        assert not report.semi_extremal
        assert report.total_rank < report.rho

    _verdict(10, "a point off the curve breaks semi-extremality and maximal rank", body)
