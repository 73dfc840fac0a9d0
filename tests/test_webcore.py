import itertools

import pytest

import oracle
from abelweb import exactalg, webcore
from abelweb import (
    ConstantFoliation,
    ConstantWeb,
    DegenerateWebError,
    ExteriorForm,
    Matrix,
    check_pg,
    degree_bound,
    generator_normal,
    h_cutoff,
    q_of,
    rho_bound,
    wedge,
)
from helpers import make_rng, random_invertible, random_pg_web, small_entry_web


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
    p0 = 1073741789  # the largest prime below 2**30

    def web(n, *rows):
        return ConstantWeb(1, n, [ConstantFoliation(1, n, Matrix([row])) for row in rows])

    # type (1,2) is decided by the pairing, in integers: foliations 1 and
    # 2 are parallel modulo p0 only, and their pairing is p0
    assert check_pg(web(2, [1, 0], [1, p0], [0, 1])) == (True, None)
    assert check_pg(web(2, [1, 0], [2, 0])) == (False, (1, 2))
    assert Matrix([[1, 0], [1, p0]]).rank() == 2  # ranked in integers too
    # n = 3 is decided by projection and the pairing, in integers too: the
    # three rows are dependent modulo p0 only
    assert check_pg(web(3, [1, 0, 0], [0, 1, 0], [0, 0, p0])) == (True, None)
    assert check_pg(web(3, [1, 0, 0], [0, 1, 0], [1, 1, 0])) == (False, (1, 2, 3))


def _without_echelons(monkeypatch):
    """Make every echelon and kernel of ``exactalg`` raise."""
    def unused(*args):
        raise AssertionError("check_pg builds no echelon and no kernel")

    monkeypatch.setattr(exactalg, "_sparse_echelon", unused)
    monkeypatch.setattr(exactalg, "certified_kernel", unused)


def test_check_pg_of_type_r_2_is_the_pairing_of_each_pair(monkeypatch):
    # for n = 2 every pair is one 2r x 2r determinant read off the cached
    # normals, so no echelon and no kernel is built
    rng = make_rng(65)
    cases = []
    for k in range(36):
        r, d = (1, 2, 3)[k % 3], rng.randint(2, 6)
        foliations = list(small_entry_web(rng, r, 2, d).foliations)
        if k % 2:  # a planted dependent pair, not always the first
            i, j = sorted(rng.sample(range(d), 2))
            foliations[j] = _combined(rng, [foliations[i]])
        web = ConstantWeb(r, 2, foliations)
        lcm = web.cleared_kappas()[1]
        dets = [lcm ** (2 * r) * oracle.det(Matrix([*foliations[i].matrix.entries,
                                                    *foliations[j].matrix.entries]))
                for i, j in itertools.combinations(range(d), 2)]
        cases.append((web, dets, oracle.check_pg(web)))
    _without_echelons(monkeypatch)
    verdicts = set()
    for web, dets, expected in cases:
        pairs = list(webcore._pairings(web.r, web.cleared_normals()))
        assert [pair for pair, _ in pairs] == list(itertools.combinations(range(web.d), 2))
        assert [value for _, value in pairs] == dets, web.to_json()
        verdict = check_pg(web)
        assert verdict == expected, web.to_json()
        verdicts.add((web.r, verdict[1] if verdict[1] in (None, (1, 2)) else "later"))
    # every r has a PG web, a failing first pair and a later failing pair
    assert verdicts == {(r, v) for r in (1, 2, 3) for v in (None, (1, 2), "later")}


def test_check_pg_of_every_n_builds_no_echelon_and_no_kernel(monkeypatch):
    # n = 3, 4, 5 and d < n, with a dependent subset planted at every size
    # up to the top one: the first at the front half the time, so that the
    # top-size walk meets it as a prefix of n - 2 foliations or fewer
    rng = make_rng(66)
    types = [(1, 3, 5), (2, 3, 6), (1, 4, 6), (2, 4, 5), (1, 5, 7), (1, 5, 6),
             (1, 4, 3), (2, 4, 3), (1, 5, 4), (2, 5, 3)]
    cases = []
    for k in range(100):
        r, n, d = types[k % len(types)]
        top = min(d, n)
        foliations = list(small_entry_web(rng, r, n, d).foliations)
        size = k // len(types) % top + 1  # 1: nothing planted
        if size > 1:
            subset = range(size) if k % 2 else sorted(rng.sample(range(d), size))
            *rest, last = subset
            foliations[last] = _combined(rng, [foliations[i] for i in rest])
        web = ConstantWeb(r, n, foliations)
        cases.append((web, oracle.check_pg(web)))
    real, failed_prefixes = webcore._project, []

    def project(rows, j, later):
        result = real(rows, j, later)
        if result is None and later:  # a prefix with later foliations fails
            failed_prefixes.append(j)
        return result

    _without_echelons(monkeypatch)
    monkeypatch.setattr(webcore, "_project", project)
    kinds = set()
    for web, expected in cases:
        verdict = check_pg(web)
        assert verdict == expected, web.to_json()
        top = min(web.d, web.n)
        kinds.add(verdict[1] and (len(verdict[1]), len(verdict[1]) == top))
    assert {kind[0] for kind in kinds if kind} == {2, 3, 4, 5}
    assert {kind[1] for kind in kinds if kind} == {False, True} and None in kinds
    assert failed_prefixes


def _record_subsets(monkeypatch) -> list[tuple[tuple[int, ...], bool]]:
    """The foliation subsets (0-based) that ``check_pg`` tests, in order,
    each with whether it passed: every prefix it eliminates (a wrapper
    of ``webcore._project``), and every subset that a pairing decides (a
    wrapper of ``webcore._pairings``, after the prefix projected last)."""
    project, pairings = webcore._project, webcore._pairings
    paths, kept, tested = {}, [], []

    def recorded_project(rows, j, later):
        result = project(rows, j, later)
        path = paths.get(id(rows), ()) + (j,)
        paths[id(result)] = path
        kept.append(result)  # alive, so no later projection reuses its id
        tested.append((path, result is not None))
        return result

    def recorded_pairings(r, normals):
        prefix = tested[-1][0] if tested else ()
        offset = prefix[-1] + 1 if prefix else 0
        for (i, j), value in pairings(r, normals):
            tested.append((prefix + (offset + i, offset + j), value != 0))
            yield (i, j), value

    monkeypatch.setattr(webcore, "_project", recorded_project)
    monkeypatch.setattr(webcore, "_pairings", recorded_pairings)
    return tested


def _first_dependent(web, size) -> tuple[int, ...] | None:
    """The first subset of ``size`` foliations in lex order whose stacked
    rows are dependent, by the oracle's Bareiss rank."""
    for subset in itertools.combinations(range(web.d), size):
        stacked = Matrix([row for j in subset for row in web.foliations[j].matrix.entries])
        if oracle.rank(stacked) < size * web.r:
            return subset
    return None


def _combined(rng, foliations):
    """A foliation whose rows are sum_i A_i kappa_i over ``foliations``,
    each A_i random and invertible: rank r when they are independent."""
    r, n = foliations[0].r, foliations[0].n
    terms = [random_invertible(rng, r) * f.matrix for f in foliations]
    return ConstantFoliation(r, n, Matrix(
        [[sum(column) for column in zip(*rows)] for rows in zip(*(m.entries for m in terms))]))


def test_check_pg_reports_a_smaller_failure_after_the_top_size():
    # kappa_top is a combination of kappa_1 .. kappa_(top-1), so the first
    # top-size subset fails, and kappa_d = M kappa_(d-1) makes a pair fail
    # outside it: the pair, not the top-size subset, must be reported
    rng = make_rng(61)
    for r, n, d in [(1, 3, 5), (2, 3, 5), (1, 4, 6), (2, 3, 6), (1, 5, 7)] * 2:
        top = min(d, n)
        foliations = list(random_pg_web(rng, r, n, d).foliations)
        foliations[top - 1] = _combined(rng, foliations[: top - 1])
        foliations[d - 1] = _combined(rng, foliations[d - 2 : d - 1])
        web = ConstantWeb(r, n, foliations)
        expected = oracle.check_pg(web)
        assert _first_dependent(web, top) == tuple(range(top)), web.to_json()
        assert not expected[0] and len(expected[1]) < top, web.to_json()
        assert not set(expected[1]) <= set(range(1, top + 1)), web.to_json()
        assert check_pg(web) == expected, web.to_json()


def test_check_pg_with_fewer_foliations_than_n():
    # d < n, so the top size is d; in two webs of three one foliation
    # is a combination of one or of all the others
    rng = make_rng(62)
    sizes = set()
    for k in range(90):
        r, n, d = [(1, 4, 3), (2, 4, 3), (1, 5, 4), (1, 6, 5), (3, 3, 2), (1, 3, 1)][k % 6]
        foliations = list(small_entry_web(rng, r, n, d).foliations)
        if d > 1 and k // 6 % 3 == 1:  # a pair fails
            i, j = sorted(rng.sample(range(d), 2))
            foliations[j] = _combined(rng, [foliations[i]])
        elif d > 1 and k // 6 % 3 == 2:  # all d fail, and most likely no fewer
            foliations[-1] = _combined(rng, foliations[:-1])
        web = ConstantWeb(r, n, foliations)
        verdict = check_pg(web)
        assert verdict == oracle.check_pg(web), web.to_json()
        if not verdict[0]:
            sizes.add((len(verdict[1]), len(verdict[1]) == d))
    # failures of sizes 2, 3 and 4 or more, of all d foliations and of fewer
    assert {min(size, 4) for size, _ in sizes} == {2, 3, 4}
    assert {whole for _, whole in sizes} == {False, True}
    # one foliation of type (r, 2): the walk of size 1, no pairing
    rng = make_rng(67)
    for r in (1, 2, 3) * 2:
        web = small_entry_web(rng, r, 2, 1)
        assert check_pg(web) == oracle.check_pg(web) == (True, None), web.to_json()


def test_check_pg_on_a_pg_web_tests_the_top_size_only(monkeypatch):
    # every prefix projected is one of a top-size subset, each one once:
    # with d >= n those of n - 2 foliations or fewer, and a pairing then
    # decides every top-size subset once; with d < n all of them
    rng = make_rng(63)
    for r, n, d in [(1, 3, 5), (2, 3, 6), (1, 4, 6), (2, 4, 5), (1, 5, 4)]:
        web = random_pg_web(rng, r, n, d)
        top = min(d, n)
        tested = _record_subsets(monkeypatch)
        assert check_pg(web) == (True, None)
        combos = set(itertools.combinations(range(d), top))
        projected = top - 2 if top == n else top
        expected = {s[:k] for s in combos for k in range(1, projected + 1)}
        if top == n:
            expected |= combos
        assert len(tested) == len(expected), web.to_json()
        assert {s for s, passed in tested if passed} == expected, web.to_json()
        monkeypatch.undo()


def test_check_pg_on_a_failing_web_tests_no_top_size_subset_twice(monkeypatch):
    rng = make_rng(64)
    sizes = [0, 0]  # failures at the top size, below it
    for k in range(60):
        r, n, d = [(1, 3, 5), (2, 3, 5), (1, 4, 6)][k % 3]
        top = min(d, n)
        foliations = list(small_entry_web(rng, r, n, d).foliations)
        if k % 2:  # a pair or a triple fails, most likely below the top size
            j = rng.randrange(2, d)
            foliations[j] = _combined(rng, rng.sample(foliations[:j], rng.randint(1, 2)))
        web = ConstantWeb(r, n, foliations)
        first = _first_dependent(web, top)
        if first is None:
            continue
        tested = _record_subsets(monkeypatch)
        verdict = check_pg(web)
        assert verdict == oracle.check_pg(web), web.to_json()
        # the top-size walk tests the subsets before the first failing one
        # in order, stops at a failure that decides it (the subset itself,
        # or a prefix of it) and is not repeated
        end = next(i for i, (_, passed) in enumerate(tested) if not passed)
        walk = [s for s, _ in tested[: end + 1]]
        combos = list(itertools.combinations(range(d), top))
        decided = combos[: combos.index(first)]
        assert walk[-1] == first[: len(walk[-1])], web.to_json()
        if len(walk[-1]) == top:
            decided.append(first)
        assert [s for s in walk if len(s) == top] == decided, web.to_json()
        assert all(len(s) < top for s, _ in tested[end + 1 :]), web.to_json()
        sizes[len(verdict[1]) < top] += 1
        monkeypatch.undo()
    assert min(sizes) >= 8


def test_check_pg_skips_smaller_subsets_inside_a_passed_top_size_subset(monkeypatch):
    # (1,3,7): foliations 6 and 7 are parallel, so the first failing
    # triple T is (1,6,7), and the pair (6,7) is reported; a pair whose
    # lex-first completion to a triple precedes T lies in a triple that
    # passed, and is not tested again
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3], [1, 3, 9], [2, 6, 18]]
    web = ConstantWeb(1, 3, [ConstantFoliation(1, 3, Matrix([row])) for row in rows])
    first = _first_dependent(web, 3)
    assert first == (0, 5, 6)
    tested = _record_subsets(monkeypatch)
    assert check_pg(web) == oracle.check_pg(web) == (False, (6, 7))
    # the pair search runs after the triple walk, which ends at T
    walk = next(i for i, (_, passed) in enumerate(tested) if not passed) + 1
    assert tested[walk - 1][0] == first
    assert all(len(s) < 3 for s, _ in tested[walk:])
    for pair in (s for s, _ in tested[walk:] if len(s) == 2):
        rest = [j for j in range(7) if j not in pair][:1]
        assert tuple(sorted(pair + tuple(rest))) >= first, pair
    # the triple walk is 16 tests, and a walk of every pair 27 more
    assert walk == 16 and len(tested) < 43


def test_pg_holds_for_seeded_webs():
    rng = make_rng(6)
    for (r, n) in [(1, 2), (2, 2), (2, 3)]:
        web = random_pg_web(rng, r, n, 5)
        assert web.is_pg()
        assert len(web.foliation_set()) == 5


def test_generator_normal_matches_wedge():
    f = ConstantFoliation(2, 2, Matrix([[1, 0, 2, 0], [0, 1, 0, 3]]))
    normal = generator_normal(f)
    rows = [ExteriorForm(4, 1, {(i,): c for i, c in enumerate(row)}) for row in f.matrix.entries]
    assert normal == wedge(*rows)
    assert normal.coeffs == {(0, 1): 1, (1, 2): -2, (0, 3): 3, (2, 3): 6}


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
