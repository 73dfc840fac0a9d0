from fractions import Fraction
from unittest import mock

import pytest

from abelweb import (
    AdaptedStructure,
    ConstantFoliation,
    ConstantWeb,
    DegenerateWebError,
    Matrix,
    MomentWebSpec,
    ProjectivePoint,
    akivis_structure,
    castelnuovo_rnc_test,
    fit_rnc,
    foliation_from_point,
    generator_normal,
    moment_point,
    moment_web,
    omega_expansion,
    recover_normal_form,
    structures_equivalent,
    subweb,
    tangent_incidence_web,
    total_rank,
)
from abelweb import abelian
from abelweb.grassmann import _monomials
from helpers import (
    arrangement_through_points,
    count_calls,
    draw,
    make_rng,
    random_invertible,
    random_pg_web,
)


def test_projective_point_canonical():
    p = ProjectivePoint([0, 2, 4])
    assert p.coords == (Fraction(0), Fraction(1), Fraction(2))
    assert p == ProjectivePoint([0, -1, -2])
    with pytest.raises(ValueError):
        ProjectivePoint([0, 0])


def test_foliation_from_point_basics():
    basis = Matrix.identity(4)
    f = foliation_from_point(basis, ProjectivePoint([1, 0]))
    # rows are the coordinate covectors for (a, 1)
    assert f.matrix == Matrix([[1, 0, 0, 0], [0, 0, 1, 0]])
    g = foliation_from_point(basis, ProjectivePoint([1, 1]))
    assert g.matrix == Matrix([[1, 1, 0, 0], [0, 0, 1, 1]])


def test_foliation_from_point_ranks_its_rows_on_a_singular_basis():
    # the blocks of a = 0 and a = 1 are equal, so F(p) repeats its row
    basis = Matrix([[1, 2, 0, 1], [0, 1, 1, 3], [1, 2, 0, 1], [0, 1, 1, 3]])
    with pytest.raises(DegenerateWebError, match="^not a foliation: coefficient matrix "
                                                 "is rank deficient$"):
        foliation_from_point(basis, ProjectivePoint([2, -1]))
    with pytest.raises(DegenerateWebError, match="^not a foliation"):
        foliation_from_point(Matrix([[0] * 4] * 4), ProjectivePoint([1, 0]))


def test_webs_on_a_proven_basis_rank_no_foliation(monkeypatch):
    # the identity, a base change checked by its spec and a proven
    # structure basis make every F(p) rank r with no test
    rng = make_rng(66)
    gauge = random_invertible(rng, 4)
    spec = MomentWebSpec(2, 2, list(range(8)), gauge)
    structure = recover_normal_form(moment_web(spec))
    arr = arrangement_through_points(rng, 2, 2, [[1, t] for t in range(6)])
    ranked, real = [], Matrix.rank

    def rank(self):
        ranked.append(self)
        return real(self)

    monkeypatch.setattr(Matrix, "rank", rank)
    webs = [moment_web(MomentWebSpec(2, 2, list(range(8)))), moment_web(spec),
            structure.rebuild(), tangent_incidence_web(arr)]
    assert ranked == []
    assert all(f.matrix.rank() == 2 for web in webs for f in web.foliations)


def test_moment_web_rows():
    spec = MomentWebSpec(1, 2, [0, 1, 2])
    web = moment_web(spec)
    assert [f.matrix.row(0) for f in web.foliations] == [
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(2)),
    ]
    assert web.is_pg()


def test_moment_web_gauge_covariance():
    rng = make_rng(10)
    g = random_invertible(rng, 4)
    taus = [0, 1, 2, 3]
    plain = moment_web(MomentWebSpec(2, 2, taus))
    gauged = moment_web(MomentWebSpec(2, 2, taus, g))
    for a, b in zip(plain.foliations, gauged.foliations):
        assert b.matrix == a.matrix * g


def test_repeated_taus_rejected():
    with pytest.raises(ValueError, match="distinct"):
        MomentWebSpec(1, 2, [0, 1, 1])


def test_moment_spec_rejects_a_misshapen_or_singular_base_change():
    # moment_web builds F(p) with no rank test on this checked base change
    with pytest.raises(ValueError, match="^base change must be 4x4$"):
        MomentWebSpec(2, 2, [0, 1, 2], Matrix.identity(3))
    singular = Matrix([[1, 2, 0, 1], [0, 1, 1, 3], [1, 3, 1, 4], [2, 0, 1, 1]])
    with pytest.raises(ValueError, match="^base change must be invertible$"):
        MomentWebSpec(2, 2, [0, 1, 2], singular)


def test_omega_expansion_interpolates_normals():
    rng = make_rng(11)
    for (r, n) in [(1, 2), (2, 2), (2, 3)]:
        basis = random_invertible(rng, r * n)
        ks = omega_expansion(basis, r, n)
        assert len(ks) == r * (n - 1) + 1
        for tau in [0, 1, 2, -1, Fraction(1, 2)]:
            f = foliation_from_point(basis, moment_point(n, tau))
            expected = generator_normal(f).vector()
            summed = [Fraction(0)] * len(expected)
            for rho, k in enumerate(ks):
                for i, c in enumerate(k.vector()):
                    summed[i] += Fraction(tau) ** rho * c
            assert tuple(summed) == expected


def test_omega_expansion_identity_basis_independent():
    ks = omega_expansion(Matrix.identity(6), 2, 3)
    assert Matrix([k.vector() for k in ks]).rank() == len(ks)


def test_veronese():
    """The degree-2 monomials in graded-lex order, and the rank 5 = r(n-1)+1
    of the Veronese images of 8 points on a conic, which is what
    ``castelnuovo_rnc_test`` asks of them."""
    assert _monomials((1, 0), 2) == [1, 0, 0]
    assert _monomials((1, 1), 2) == [1, 1, 1]
    assert _monomials((2, 3), 2) == [4, 6, 9]
    assert castelnuovo_rnc_test([moment_point(3, t) for t in range(8)], 2)


def test_normals_span_rank_moment():
    """The d generator normals of a moment web span r(n-1)+1 dimensions of Lambda^r V*."""
    def span_rank(foliations):
        return Matrix([generator_normal(f).vector() for f in foliations]).rank()

    for (r, n, d) in [(1, 2, 4), (2, 2, 6), (2, 3, 8)]:
        web = moment_web(MomentWebSpec(r, n, list(range(d))))
        assert span_rank(web.foliations) == r * (n - 1) + 1
    one = moment_web(MomentWebSpec(2, 2, [0, 1]))
    assert span_rank(one.foliations[:1]) == 1


def test_castelnuovo():
    on_conic = [moment_point(3, t) for t in range(7)]
    assert castelnuovo_rnc_test(on_conic, 2)
    off = on_conic[:6] + [ProjectivePoint([1, 1, 7])]
    assert not castelnuovo_rnc_test(off, 2)
    with pytest.raises(ValueError, match="below Castelnuovo threshold"):
        castelnuovo_rnc_test(on_conic[:6], 2)
    # n = 2: the curve is the whole line
    assert castelnuovo_rnc_test([moment_point(2, t) for t in range(6)], 2)


def test_recover_identity_moment_web():
    web = moment_web(MomentWebSpec(2, 2, [0, 1, 2, 3, 4, 5]))
    structure = recover_normal_form(web)
    assert structure.rebuild().foliation_set() == web.foliation_set()
    assert castelnuovo_rnc_test(structure.points, 2)


def test_recover_under_gauge_seeds():
    rng = make_rng(12)
    for (r, n, d) in [(2, 2, 6), (2, 3, 8), (3, 2, 10)]:
        for _ in range(3):
            g = random_invertible(rng, r * n)
            web = moment_web(MomentWebSpec(r, n, list(range(d)), g))
            structure = recover_normal_form(web)
            assert structure.rebuild().foliation_set() == web.foliation_set()


def test_recovery_runs_no_rank_test_on_the_recovered_basis(monkeypatch):
    # inverting S B (one elimination of [S B | I]) proves the basis
    # invertible; the public constructor still tests it
    rng = make_rng(65)
    web = moment_web(MomentWebSpec(2, 2, list(range(8)), random_invertible(rng, 4)))
    ranked, real = [], Matrix.rank

    def rank(self):
        ranked.append(self)
        return real(self)

    monkeypatch.setattr(Matrix, "rank", rank)
    structure = recover_normal_form(web)
    assert structure.basis not in ranked
    AdaptedStructure(structure.basis, structure.points)
    assert ranked == [structure.basis]


def test_recover_alternative_subwebs_equivalent():
    rng = make_rng(13)
    r, n, d = 2, 2, 8
    g = random_invertible(rng, 4)
    web = moment_web(MomentWebSpec(r, n, list(range(d)), g))
    first = recover_normal_form(web)
    # the critical subweb 1, 2, 3, 7, 8 moved to the front
    second = recover_normal_form(subweb(web, [1, 2, 3, 7, 8, 4, 5, 6]))
    assert structures_equivalent(first.basis, second.basis, r, n)
    assert second.rebuild().foliation_set() == web.foliation_set()


def test_structures_equivalent_refuses_a_singular_basis():
    singular = Matrix([[1, 2, 0, 1], [0, 1, 1, 0], [1, 3, 1, 1], [2, 0, 1, 3]])  # row 3 = 1 + 2
    for bases in ((singular, Matrix.identity(4)), (Matrix.identity(4), singular)):
        with pytest.raises(ValueError, match="^bases must be invertible$"):
            structures_equivalent(*bases, 2, 2)


_STRUCTURE = {"basis": [["1", "0"], ["0", "1"]], "points": [["1", "0"], ["0", "1"], ["1", "1"]]}


@pytest.mark.parametrize("field, value, message", [
    ("points", [], "empty point list"),
    ("points", [["1", "0"], ["1", "0", "1"]], "point 2 has 3 coordinates, point 1 has 2"),
    ("points", [["1", "0", "0"]], "points have 3 coordinates, which must be at least 2 and"),
    ("points", [["1"]], "points have 1 coordinates, which must be at least 2"),
    ("basis", [["1", "0"]], "basis must be square, got 1x2"),
    ("basis", [], "divide the basis size 0 > 0"),
], ids=["points-empty", "points-mixed-lengths", "points-length-not-dividing",
        "points-length-1", "basis-not-square", "basis-empty"])
def test_adapted_structure_from_json_names_bad_fields(field, value, message):
    AdaptedStructure.from_json(_STRUCTURE)  # valid as it stands
    with pytest.raises(ValueError) as info:
        AdaptedStructure.from_json({**_STRUCTURE, field: value})
    assert message in str(info.value)


@pytest.mark.parametrize("value", [
    [3, 1], "xy", 5, [True, 1], [1, 1.5], [0, 1], [1, 4], [2, 2],
], ids=["permutation-array", "permutation-string", "permutation-number", "permutation-bool",
        "permutation-float", "permutation-zero", "permutation-above-d", "permutation-repeated"])
def test_adapted_structure_from_json_ignores_permutation(value):
    # older documents carried the recovery subweb as "permutation"; like
    # every unknown key it is ignored, whatever it holds
    structure = AdaptedStructure.from_json({**_STRUCTURE, "permutation": value})
    assert structure.to_json() == _STRUCTURE


def test_recover_rejects_non_semi_extremal():
    rng = make_rng(14)
    web = random_pg_web(rng, 2, 2, 6)
    with pytest.raises(DegenerateWebError, match="not semi-extremal"):
        recover_normal_form(web)


def test_recover_rejects_a_foliation_not_of_the_form_F_p():
    # the first five foliations fix the basis; the seventh is in general
    # position with them but is not F(p) for any p, which only the point
    # reader can see
    moment = moment_web(MomentWebSpec(2, 2, list(range(7))))
    foreign = ConstantFoliation(2, 2, Matrix([[1, 2, 0, 3], [0, 1, 5, -1]]))
    web = ConstantWeb(2, 2, list(moment.foliations[:6]) + [foreign])
    assert web.is_pg()
    with pytest.raises(DegenerateWebError, match="foliation 7 is not of the form F\\(p\\)"):
        recover_normal_form(web)


def test_recover_preconditions():
    web = moment_web(MomentWebSpec(1, 2, [0, 1, 2, 3]))
    with pytest.raises(ValueError, match="r >= 2"):
        recover_normal_form(web)
    small = moment_web(MomentWebSpec(2, 2, [0, 1, 2, 3]))
    with pytest.raises(ValueError):
        recover_normal_form(small)


def test_fit_rnc_moment_points():
    points = [moment_point(3, t) for t in range(6)]
    fit = fit_rnc(points)
    # pinned parameters
    assert fit.parameters[1] == 0
    assert fit.parameters[2] == 1
    for i, s in enumerate(fit.parameters):
        assert fit.point_at(s) == points[3 + i]


def test_fit_rnc_point_at_parameter_infinity():
    # t = 0..4 on P^1 puts one point at parameter infinity, so line_b is
    # rescaled; the order 0, 1, 3, 2, 4 needs no rescaling and keeps its fit
    cases = [((0, 1, 2, 3, 4), (-1, 0, 1), ["2/3", "1"]),
             ((0, 1, 3, 2, 4), (Fraction(6, 7), 0, 1), ["2/3", "3/4"])]
    for ts, parameters, line_b in cases:
        points = [ProjectivePoint([1, t]) for t in ts]
        fit = fit_rnc(points)
        assert fit.parameters == parameters
        assert fit.to_json()["line_b"] == line_b
        for s, point in zip(fit.parameters, points[2:]):
            assert fit.point_at(s) == point
    # the same on a conic of P^2
    points = [moment_point(3, t) for t in (-2, -1, 0, 2, 3, 4)]
    fit = fit_rnc(points)
    assert fit.parameters[1:3] == (0, 1)
    for s, point in zip(fit.parameters, points[3:]):
        assert fit.point_at(s) == point


def test_fit_rnc_point_at_inverts_the_transform_once(monkeypatch):
    points = [moment_point(3, t) for t in range(7)]
    fit = fit_rnc(points)
    inverse, inverted = Matrix.inverse, []
    monkeypatch.setattr(Matrix, "inverse", lambda self: inverted.append(self) or inverse(self))
    for s, point in zip(fit.parameters, points[3:]):
        assert fit.point_at(s) == point
    assert inverted == [fit.transform]


def test_fit_rnc_point_at_a_frame_point_is_degenerate():
    fit = fit_rnc([ProjectivePoint(p) for p in [[1, 0], [0, 1], [1, 1], [1, 2], [1, 3]]])
    with pytest.raises(DegenerateWebError, match="^parameter 3 hits a frame point$"):
        fit.point_at(3)


def test_fit_rnc_rejects_generic_points():
    rng = make_rng(15)

    def refused(points):
        try:
            fit_rnc(points)
        except DegenerateWebError as exc:
            assert "not on a common RNC" in str(exc) or "general position" in str(exc)
            return True
        return False

    draw(lambda: [ProjectivePoint([rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9)])
                  for _ in range(6)],
         refused, "fit_rnc raises DegenerateWebError")


def test_fit_rnc_needs_enough_points():
    with pytest.raises(ValueError):
        fit_rnc([moment_point(3, t) for t in range(5)])


def test_akivis_simple_pencils():
    # dx, dy, dx + 2 dy
    web = ConstantWeb.from_json(
        {"r": 1, "n": 2, "foliations": [[["1", "0"]], [["0", "1"]], [["1", "2"]]]}
    )
    basis = akivis_structure(web.foliations)
    assert basis == Matrix([[1, 0], [0, 2]])


def test_akivis_normal_form_is_fixed_point():
    basis = Matrix.identity(6)
    points = [ProjectivePoint(p) for p in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])]
    foliations = [foliation_from_point(basis, p) for p in points]
    assert akivis_structure(foliations) == basis


def test_akivis_postcondition_seeded():
    rng = make_rng(16)
    web = random_pg_web(rng, 2, 2, 3)
    basis = akivis_structure(web.foliations)
    r, n = 2, 2
    for alpha in range(n):
        block = Matrix([basis.row(a * n + alpha) for a in range(r)])
        assert block.row_space_rref() == web.foliations[alpha].row_span()
    sums = Matrix(
        [
            [
                sum(basis.row(a * n + alpha)[j] for alpha in range(n))
                for j in range(r * n)
            ]
            for a in range(r)
        ]
    )
    assert sums.row_space_rref() == web.foliations[n].row_span()


def test_akivis_uniqueness_on_moment_web():
    web = moment_web(MomentWebSpec(2, 2, [0, 1, 2, 3, 4]))
    bases = []
    for subset in [(0, 1, 2), (0, 2, 4), (1, 3, 4)]:
        bases.append(akivis_structure([web.foliations[i] for i in subset]))
    for other in bases[1:]:
        assert structures_equivalent(bases[0], other, 2, 2)


def test_structures_equivalent_kronecker():
    rng = make_rng(17)
    r, n = 2, 3
    basis = random_invertible(rng, r * n)
    c = random_invertible(rng, r)
    a = random_invertible(rng, n)
    kron = Matrix(
        [
            [
                c[i // n, k // n] * a[i % n, k % n]
                for k in range(r * n)
            ]
            for i in range(r * n)
        ]
    )
    assert structures_equivalent(basis, kron * basis, r, n)
    assert structures_equivalent(basis, basis, r, n)
    generic = random_invertible(rng, r * n)
    assert not structures_equivalent(basis, generic * basis, r, n)


def test_adapted_structure_json_round_trip():
    web = moment_web(MomentWebSpec(2, 2, [0, 1, 2, 3, 4, 5]))
    structure = recover_normal_form(web)
    again = AdaptedStructure.from_json(structure.to_json())
    assert again.basis == structure.basis
    assert again.points == structure.points


def test_rebuilt_moment_web_has_maximal_rank():
    web = moment_web(MomentWebSpec(2, 3, list(range(8))))
    report = total_rank(web)
    assert report.maximal_rank


def test_recovery_verifies_R1_in_one_call_and_builds_no_element(monkeypatch):
    # R(1) of the critical (2,2,5) subweb has 2 vectors; recovery reads them
    # once off the kernel and verifies them with one packed check
    web = moment_web(MomentWebSpec(2, 2, range(7), Matrix(
        [[1, 1, 0, 2], [0, 1, 1, 0], [2, 0, 1, 1], [0, 3, 0, 1]])))
    calls = count_calls(monkeypatch, abelian._verify_relation)
    elements = mock.Mock(wraps=abelian.RelationBasisElement)
    monkeypatch.setattr(abelian, "RelationBasisElement", elements)
    recover_normal_form(web)
    assert len(calls) == 1
    assert elements.mock_calls == []
