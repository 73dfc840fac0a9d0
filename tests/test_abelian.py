from fractions import Fraction

import pytest

import oracle
from abelweb import (
    ConstantFoliation,
    ConstantWeb,
    DegenerateWebError,
    HomogeneousPoly,
    Matrix,
    MomentWebSpec,
    RelationBasisElement,
    degree_bound,
    h_cutoff,
    moment_web,
    poly_space_dim,
    relation_matrix,
    relation_space,
    relation_space_dim,
    subweb,
    total_rank,
)
from abelweb import abelian, exactalg
from abelweb.webcore import check_pg
from abelweb.errors import InternalContradictionError
from helpers import (
    check_reduced,
    count_calls,
    make_rng,
    random_invertible,
    random_pg_web,
    small_entry_web,
)


def three_pencils():
    # dx, dy, d(x+y): the classical hexagonal 3-web of the plane
    return ConstantWeb(
        1,
        2,
        [
            ConstantFoliation(1, 2, Matrix([[1, 0]])),
            ConstantFoliation(1, 2, Matrix([[0, 1]])),
            ConstantFoliation(1, 2, Matrix([[1, 1]])),
        ],
    )


def test_relation_matrix_shape():
    web = three_pencils()
    m = relation_matrix(web, 0)
    # rows: (one degree-0 monomial) x (two 1-subsets); cols: d * dim E_1(0)
    assert m.rows == 2
    assert m.cols == 3


def test_three_pencils_rank_one():
    web = three_pencils()
    assert relation_space_dim(web, 0) == 1
    basis = relation_space(web, 0)
    assert len(basis) == 1
    # dx + dy - d(x+y) = 0 up to scale
    vec = basis[0].vector()
    assert vec[0] == vec[1] == -vec[2]


def test_relation_elements_are_verified():
    web = three_pencils()
    good = [HomogeneousPoly.constant(1, c) for c in (1, 1, -1)]
    RelationBasisElement(web, 0, good)
    bad = [HomogeneousPoly.constant(1, c) for c in (1, 1, 1)]
    with pytest.raises(InternalContradictionError):
        RelationBasisElement(web, 0, bad)
    # foliations with denominators 2, 3, 1, 2, 3: the verifier clears them
    # by one scale common to all terms; a scale per foliation would
    # reject the true relation or accept the rescaled one
    half, third = Fraction(1, 2), Fraction(1, 3)
    rows = [[half, 0], [0, third], [1, 1], [1, -half], [2 * third, 1]]
    web = ConstantWeb(1, 2, [ConstantFoliation(1, 2, Matrix([row])) for row in rows])
    for h in (1, 2):
        relation = relation_space(web, h)[0].components
        RelationBasisElement(web, h, relation)
        rescaled = [
            HomogeneousPoly(1, h, {e: lcm * x for e, x in c.coeffs.items()})
            for c, lcm in zip(relation, (2, 3, 1, 2, 3))
        ]
        with pytest.raises(InternalContradictionError):
            RelationBasisElement(web, h, rescaled)


def test_relation_space_verifies_its_degree_in_one_call(monkeypatch):
    # the (2,2,6) moment web under a base change: dim R(h) = 3, 4, 3, and
    # each degree is verified by one packed check, not one per vector
    web = moment_web(MomentWebSpec(2, 2, range(6), Matrix(
        [[1, 1, 0, 2], [0, 1, 1, 0], [2, 0, 1, 1], [0, 3, 0, 1]])))
    calls = count_calls(monkeypatch, abelian._verify_relation)
    for h, dim in enumerate((3, 4, 3)):
        calls.clear()
        assert len(relation_space(web, h)) == dim
        assert len(calls) == 1, (h, len(calls))


def test_total_rank_of_type_r_2_sweeps_each_normal_once(monkeypatch):
    # PG pairs the cached normals that R(0) reads: one table of minors per
    # foliation, whatever d
    for r, d in ((1, 2), (1, 5), (2, 7), (3, 10)):
        web = moment_web(MomentWebSpec(r, 2, range(d)))
        calls = count_calls(monkeypatch, exactalg._minors)
        total_rank(web)
        assert len(calls) == d, (r, d, len(calls))
        monkeypatch.undo()


def test_relation_elements_need_one_component_per_foliation():
    web = three_pencils()
    with pytest.raises(ValueError, match="^one polynomial component per foliation is required$"):
        RelationBasisElement(web, 0, [HomogeneousPoly.constant(1, 1)] * (web.d - 1))


def test_rank_requires_pg():
    f = ConstantFoliation(1, 2, Matrix([[1, 0]]))
    web = ConstantWeb(1, 2, [f, f])
    with pytest.raises(DegenerateWebError):
        relation_space_dim(web, 0)
    relation_space_dim(web, 0, allow_degenerate=True)


def test_moment_web_saturates_all_degrees():
    spec = MomentWebSpec(2, 2, [0, 1, 2, 3, 4, 5])
    web = moment_web(spec)
    for h in range(h_cutoff(2, 2, 6)):
        assert relation_space_dim(web, h) == degree_bound(2, 2, 6, h)


def test_total_rank_report_fields():
    spec = MomentWebSpec(2, 2, [0, 1, 2, 3, 4])
    report = total_rank(moment_web(spec), paranoid=True)
    assert report.total_rank == 4
    assert report.rho == 4
    assert report.maximal_rank
    assert report.semi_extremal
    data = report.to_json()
    assert data["per_degree"][0] == {"h": 0, "dim": 2, "bound": 2, "saturated": True}
    assert "total\t4" in report.to_tsv()


def test_random_webs_respect_bounds():
    rng = make_rng(8)
    for (r, n, d) in [(1, 2, 6), (2, 2, 6), (2, 3, 7)]:
        web = random_pg_web(rng, r, n, d)
        report = total_rank(web)  # the bound guard raises on any violation
        assert report.total_rank <= report.rho


def test_semi_extremal_gate():
    # too few foliations: q < n-1
    spec = MomentWebSpec(2, 2, [0, 1, 2, 3])
    assert not total_rank(moment_web(spec)).semi_extremal
    spec = MomentWebSpec(2, 2, [0, 1, 2, 3, 4])
    assert total_rank(moment_web(spec)).semi_extremal
    rng = make_rng(9)
    web = random_pg_web(rng, 2, 3, 8)
    # a generic web of this order is not semi-extremal
    assert not total_rank(web).semi_extremal


def test_subweb_indexing():
    spec = MomentWebSpec(2, 2, [0, 1, 2, 3, 4])
    web = moment_web(spec)
    sub = subweb(web, [2, 5, 1])
    assert sub.d == 3
    assert sub.foliations[0] == web.foliations[1]
    assert sub.foliations[2] == web.foliations[0]
    with pytest.raises(ValueError):
        subweb(web, [1, 1])
    with pytest.raises(ValueError):
        subweb(web, [0])
    with pytest.raises(ValueError):
        subweb(web, [6])


def test_rank_count_identity():
    spec = MomentWebSpec(2, 2, [0, 1, 2, 3, 4])
    web = moment_web(spec)
    from abelweb import poly_space_dim, relation_matrix

    for h in range(3):
        matrix = relation_matrix(web, h)
        dim_r = len(oracle.kernel_basis(matrix))
        assert dim_r + oracle.rank(matrix) == web.d * poly_space_dim(2, h)
        assert dim_r == relation_space_dim(web, h)


def test_dims_invariant_under_symmetry():
    """Every dim R(h) below the cutoff is invariant under permuting the
    foliations, mixing the rows of one, and a global change of coordinates
    (prolongation differentiates in coordinates, so it must not see them)."""
    rng = make_rng(24)
    from helpers import random_invertible

    webs = []
    for r, n, d in [(2, 2, 8), (3, 2, 7)]:
        taus = []
        while len(taus) < d:
            tau = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if tau not in taus:
                taus.append(tau)
        webs.append(moment_web(MomentWebSpec(r, n, taus, random_invertible(rng, r * n))))
    # fails PG: the last foliation repeats the first, rows mixed
    web = random_pg_web(rng, 2, 2, 6)
    mix = random_invertible(rng, 2)
    webs.append(ConstantWeb(2, 2, list(web.foliations) + [
        ConstantFoliation(2, 2, mix * web.foliations[0].matrix)]))

    for web in webs:
        r, n, d = web.r, web.n, web.d
        degrees = range(h_cutoff(r, n, d))

        def dims(other):
            return [relation_space_dim(other, h, allow_degenerate=True) for h in degrees]

        expected = dims(web)
        assert any(expected[2:]), web.to_json()  # R(h) != 0 at some h >= 2

        order = list(range(1, d + 1))
        rng.shuffle(order)
        assert dims(subweb(web, order)) == expected, (web.to_json(), order)

        k = rng.randrange(d)
        foliations = list(web.foliations)
        foliations[k] = ConstantFoliation(
            r, n, random_invertible(rng, r) * foliations[k].matrix)
        assert dims(ConstantWeb(r, n, foliations)) == expected, (web.to_json(), k)

        g = random_invertible(rng, r * n)
        moved = ConstantWeb(r, n, [ConstantFoliation(r, n, f.matrix * g) for f in web.foliations])
        assert dims(moved) == expected, web.to_json()
    assert not webs[-1].is_pg()


def test_subweb_of_moment_web_stays_semi_extremal():
    web = moment_web(MomentWebSpec(2, 2, list(range(8))))
    assert total_rank(web).semi_extremal
    smaller = subweb(web, [1, 2, 3, 4, 6, 7, 8])
    assert total_rank(smaller).semi_extremal



def test_subweb_of_pg_web_inherits_the_result():
    rng = make_rng(25)
    pg = 0
    for k in range(90):
        r, n, d = [(1, 2, 5), (2, 2, 4), (1, 3, 4)][k % 3]
        web = small_entry_web(rng, r, n, d)
        pg += web.is_pg()
        indices = rng.sample(range(1, d + 1), rng.randint(1, d))
        sub = subweb(web, indices)
        assert sub.pg() == check_pg(sub), (web.to_json(), indices)
    assert 10 <= pg <= 80


def test_subweb_of_pg_web_runs_no_pg_check(monkeypatch):
    web = moment_web(MomentWebSpec(2, 2, list(range(7))))
    assert web.is_pg()

    def refuse(_web):
        raise AssertionError("check_pg called on a subweb of a PG web")

    monkeypatch.setattr("abelweb.webcore.check_pg", refuse)
    assert subweb(web, [7, 2, 5, 1]).pg() == (True, None)
    assert relation_space_dim(subweb(web, [1, 2, 3, 4, 5]), 0) == degree_bound(2, 2, 5, 0)


def _webs_whose_chain_empties(rng) -> list[ConstantWeb]:
    """Seeded PG webs of types (2,2,5..7) and (2,3,8), and one (2,2,5) web
    failing PG (foliation 2 shares a row with foliation 1): for each the
    relation chain empties below the cutoff."""
    webs = [random_pg_web(rng, 2, n, d) for n, d in [(2, 5), (2, 6), (2, 7), (3, 8)] * 2]
    foliations = list(random_pg_web(rng, 2, 2, 5).foliations)
    shared = foliations[0].matrix.row(0)
    foliations[1] = ConstantFoliation(2, 2, Matrix([shared, foliations[1].matrix.row(1)]))
    webs.append(ConstantWeb(2, 2, foliations))
    assert not webs[-1].is_pg()
    return webs


def _oracle_dims(web) -> list[int]:
    """dim R(h) for h = 0 .. cutoff, from the relation matrix by its definition."""
    dims = []
    for h in range(h_cutoff(web.r, web.n, web.d) + 1):
        matrix = oracle.relation_matrix(web, h)
        dims.append(matrix.cols - oracle.rank(matrix))
    return dims


def test_relation_chain_ends_at_its_first_empty_degree(monkeypatch):
    calls = []
    real = abelian.certified_kernel

    def counted(rows, ncols):
        calls.append(ncols)
        return real(rows, ncols)

    for web in _webs_whose_chain_empties(make_rng(26)):
        expected = _oracle_dims(web)
        empty = expected.index(0)
        assert empty < len(expected) - 1, web.to_json()  # below the cutoff
        calls.clear()
        monkeypatch.setattr(abelian, "certified_kernel", counted)
        dims = [relation_space_dim(web, h, allow_degenerate=True) for h in range(len(expected))]
        monkeypatch.undo()
        assert dims == expected, web.to_json()
        # one kernel per degree up to the first empty one, none above it
        assert len(calls) == empty + 1, web.to_json()


def test_relation_chain_stop_matches_oracle_under_paranoid():
    for web in _webs_whose_chain_empties(make_rng(27)):
        expected = _oracle_dims(web)
        report = total_rank(web, allow_degenerate=True, paranoid=True)
        assert list(report.dims) == expected[:-1], web.to_json()
        cutoff = len(expected) - 1
        assert relation_space_dim(web, cutoff, allow_degenerate=True) == expected[-1] == 0


def _prolongation_webs(rng) -> list[ConstantWeb]:
    """Moment webs under a base change with each foliation's rows mixed;
    each again with a row-mixed copy of its foliation 1 appended, which
    fails PG; and a (2,2,5) web failing PG whose chain empties below the
    cutoff."""
    webs = []
    for r, n, d in [(1, 2, 6), (2, 2, 6), (2, 3, 8), (3, 2, 8)]:
        web = moment_web(MomentWebSpec(r, n, rng.sample(range(-6, 7), d),
                                       random_invertible(rng, r * n)))
        mixed = [ConstantFoliation(r, n, random_invertible(rng, r) * f.matrix)
                 for f in web.foliations]
        copy = ConstantFoliation(r, n, random_invertible(rng, r) * web.foliations[0].matrix)
        webs += [ConstantWeb(r, n, mixed), ConstantWeb(r, n, mixed + [copy])]
    return webs + _webs_whose_chain_empties(rng)[-1:]


def test_prolonged_rows_match_the_inverted_basis_oracle():
    """Each degree's rows, taken from the reduced rows of the degree below,
    are the rows the oracle builds by inverting that degree's canonical
    basis, row by row up to sign; and every chain entry holds reduced rows
    that vanish on its basis and leave exactly dim R(h) columns free."""
    mixed = repeated = 0
    for web in _prolongation_webs(make_rng(34)):
        relation_space_dim(web, h_cutoff(web.r, web.n, web.d), allow_degenerate=True)
        chain = web._relations
        for h, (reduced, basis) in enumerate(chain):
            check_reduced(reduced, basis, web.d * poly_space_dim(web.r, h))
        for h in range(1, len(chain)):
            rows = list(abelian._prolonged_rows(web, h, chain[h - 1].rows))
            expected = list(oracle.prolonged_rows(web, h, chain[h - 1].basis))
            assert len(rows) == len(expected), (web.to_json(), h)
            for row, other in zip(rows, expected):
                assert row in (other, {c: -x for c, x in other.items()}), (web.to_json(), h)
                mixed += row != other
        repeated += not web.is_pg() and all(entry.basis for entry in chain)
    # some reduced rows have a negative pivot entry; four webs never empty
    assert mixed and repeated == 4
