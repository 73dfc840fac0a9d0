import pytest

from abelweb import (
    ConstantFoliation,
    ConstantWeb,
    DegenerateWebError,
    Matrix,
    check_pg,
    degree_bound,
    generator_normal,
    h_cutoff,
    q_of,
    rho_bound,
)
from abelweb.exactalg import _prime_below
from helpers import make_rng, random_pg_web


def test_foliation_validation():
    with pytest.raises(DegenerateWebError):
        ConstantFoliation(2, 2, Matrix([[1, 2, 3, 4], [2, 4, 6, 8]]))
    with pytest.raises(ValueError):
        ConstantFoliation(2, 2, Matrix([[1, 0, 0], [0, 1, 0]]))


def test_foliation_identity_is_row_span():
    a = ConstantFoliation(1, 2, Matrix([[1, 2]]))
    b = ConstantFoliation(1, 2, Matrix([[2, 4]]))
    c = ConstantFoliation(1, 2, Matrix([[1, 3]]))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_check_pg_reports_first_failure():
    # three pencils on the plane; the third repeats the first
    f1 = ConstantFoliation(1, 2, Matrix([[1, 0]]))
    f2 = ConstantFoliation(1, 2, Matrix([[0, 1]]))
    f3 = ConstantFoliation(1, 2, Matrix([[2, 0]]))
    web = ConstantWeb(1, 2, [f1, f2, f3])
    ok, failing = check_pg(web)
    assert not ok
    assert failing == (1, 3)
    with pytest.raises(DegenerateWebError):
        web.require_pg()
    web.require_pg(allow_degenerate=True)


def test_check_pg_survives_an_unlucky_prime():
    p0 = 2**61 - 1
    assert _prime_below(2**61) == p0  # the prime check_pg works modulo

    def web(*rows):
        return ConstantWeb(1, 2, [ConstantFoliation(1, 2, Matrix([row])) for row in rows])

    # foliations 1 and 2 are parallel modulo p0 only: the exact rank decides
    assert check_pg(web([1, 0], [1, p0], [0, 1])) == (True, None)
    assert check_pg(web([1, 0], [2, 0])) == (False, (1, 2))


def test_pg_holds_for_seeded_webs():
    rng = make_rng(6)
    for (r, n) in [(1, 2), (2, 2), (2, 3)]:
        web = random_pg_web(rng, r, n, 5)
        assert web.is_pg()
        assert len(web.foliation_set()) == 5


def test_generator_normal_matches_wedge():
    f = ConstantFoliation(2, 2, Matrix([[1, 0, 2, 0], [0, 1, 0, 3]]))
    normal = generator_normal(f)
    assert not normal.is_zero
    assert normal.grade == 2


def test_closed_forms():
    assert q_of(1, 2, 5) == 2
    assert q_of(2, 3, 8) == 2
    assert rho_bound(1, 2, 4) == 3
    assert rho_bound(1, 2, 5) == 6
    assert rho_bound(2, 2, 5) == 4
    # classical plane-curve genus values
    for d in range(1, 31):
        assert rho_bound(1, 2, d) == (d - 1) * (d - 2) // 2
    # vanishing threshold
    for r in range(1, 5):
        for n in range(2, 5):
            for d in range(1, 20):
                assert (rho_bound(r, n, d) == 0) == (d <= r * (n - 1) + 1)


def test_bounds_reject_d_below_1():
    for bound in (rho_bound, h_cutoff, lambda r, n, d: degree_bound(r, n, d, 0)):
        for d in (0, -3):
            with pytest.raises(ValueError, match="d >= 1"):
                bound(2, 2, d)


def test_degree_bound_values():
    assert degree_bound(2, 2, 5, 0) == 2
    assert degree_bound(2, 2, 5, 1) == 2
    assert degree_bound(2, 2, 5, 2) == 0


def test_h_cutoff_is_smallest_vanishing_degree():
    for r in range(1, 5):
        for n in range(2, 5):
            for d in range(1, 25):
                h = h_cutoff(r, n, d)
                assert degree_bound(r, n, d, h) == 0
                if h > 0:
                    assert degree_bound(r, n, d, h - 1) > 0


def test_web_json_round_trip():
    rng = make_rng(7)
    web = random_pg_web(rng, 2, 2, 4)
    again = ConstantWeb.from_json(web.to_json())
    assert again == web
