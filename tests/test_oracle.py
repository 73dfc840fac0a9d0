"""The elimination kernel, the stacked-rank PG check, the relation matrix,
the certified (mod-p, lifted, exactly checked) relation spaces built by
prolongation, normal-form recovery and canonical data against the oracle.

``oracle`` holds the earlier Fraction Gauss-Jordan ``rref``, Fraction
Gaussian ``det``, Bareiss ``rank``, wedge-product ``check_pg``,
determinant-per-minor ``wedge_rows``, per-monomial ``relation_matrix``,
normals-based recovery and greedy-completion ``canonical_data``.  Inputs
are seeded (``ABELWEB_SEED``) and cover the shapes where elimination
bookkeeping goes wrong: tall, wide, rank-deficient, zero columns, webs
that fail general position at every subset size, high-n moment webs,
webs whose first failure needs three foliations, relation matrices of
webs with rational entries, and moment webs under random gauges.  The
certified kernel is also driven past an unlucky prime and into a second
prime.
"""

import math
from fractions import Fraction

import oracle
from abelweb import (
    ConstantFoliation,
    ConstantWeb,
    Matrix,
    MomentWebSpec,
    canonical_data,
    check_pg,
    h_cutoff,
    moment_web,
    recover_normal_form,
    relation_matrix,
    relation_space,
    relation_space_dim,
)
from abelweb.exactalg import _primes, certified_kernel
from abelweb.multilinear import wedge_rows
from helpers import make_rng, random_invertible, random_pg_web


def _random_rational_matrix(rng) -> Matrix:
    rows, cols = rng.randint(0, 8), rng.randint(0, 8)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3, 5)))

    kind = rng.randrange(3)
    if kind == 1 and min(rows, cols) > 1:
        # a product through a thinner middle dimension is rank deficient
        k = rng.randint(1, min(rows, cols) - 1)
        a = [[entry() for _ in range(k)] for _ in range(rows)]
        b = [[entry() for _ in range(cols)] for _ in range(k)]
        data = [
            [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
        ]
    else:
        data = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == 2 and cols:
        for j in rng.sample(range(cols), rng.randint(1, cols)):
            for row in data:
                row[j] = Fraction(0)
    return Matrix(data) if rows else Matrix([])


def test_kernel_matches_oracle():
    rng = make_rng(40)
    squares = 0
    for _ in range(4000):
        m = _random_rational_matrix(rng)
        assert m.rank() == oracle.rank(m), m
        assert m.rref() == oracle.rref(m), m
        if m.rows == m.cols:
            squares += 1
            assert m.det() == oracle.det(m), m
    assert squares > 300


def test_wedge_rows_matches_oracle():
    rng = make_rng(47)
    deficient = zero_columns = 0
    for _ in range(600):
        k = rng.randint(0, 4)
        rows = [list(row) for row in _random_rational_matrix(rng).entries][:k]
        ncols = len(rows[0]) if rows else 0
        if len(rows) < k or ncols < k:
            continue
        form = wedge_rows(rows)
        expected = oracle.wedge_rows(rows)
        assert form == expected, rows
        assert list(form.coeffs) == list(expected.coeffs), rows  # colex order
        deficient += form.is_zero
        zero_columns += any(not any(col) for col in zip(*rows))
    assert deficient > 30 and zero_columns > 30


def _random_web(rng, r, n, d, entry) -> ConstantWeb:
    foliations = []
    while len(foliations) < d:
        matrix = Matrix([[entry() for _ in range(r * n)] for _ in range(r)])
        if matrix.rank() == r:
            foliations.append(ConstantFoliation(r, n, matrix))
    return ConstantWeb(r, n, foliations)


def test_check_pg_matches_oracle():
    rng = make_rng(41)
    types = [(1, 2, 4), (1, 3, 4), (2, 2, 4), (2, 3, 4), (3, 2, 3)]
    failing = 0
    for k in range(300):
        web = _random_web(rng, *types[k % len(types)], lambda: rng.randint(-2, 2))
        verdict = check_pg(web)
        assert verdict == oracle.check_pg(web), web.to_json()
        failing += not verdict[0]
    assert 60 <= failing <= 180  # about a third

    rng = make_rng(46)
    for r, n, d in [(1, 5, 8), (2, 4, 9), (1, 6, 9)]:
        taus = list(dict.fromkeys(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                  for _ in range(4 * d)))[:d]
        web = moment_web(MomentWebSpec(r, n, taus, random_invertible(rng, r * n)))
        assert check_pg(web) == oracle.check_pg(web) == (True, None), web.to_json()
    # foliation k replaced by A kappa_i + B kappa_j (i < j < k, A and B
    # invertible) on a PG web: kappa_k has rank r and the three fail; two
    # foliations fail only by chance
    late = 0
    for r, n, d in [(1, 3, 5), (1, 4, 6), (2, 3, 5), (2, 4, 5), (3, 3, 4)] * 6:
        web = random_pg_web(rng, r, n, d)
        i, j, k = sorted(rng.sample(range(d), 3))
        a = random_invertible(rng, r) * web.foliations[i].matrix
        b = random_invertible(rng, r) * web.foliations[j].matrix
        foliations = list(web.foliations)
        foliations[k] = ConstantFoliation(r, n, Matrix(
            [[x + y for x, y in zip(*rows)] for rows in zip(a.entries, b.entries)]))
        web = ConstantWeb(r, n, foliations)
        verdict = check_pg(web)
        assert verdict == oracle.check_pg(web), web.to_json()
        assert not verdict[0]
        late += len(verdict[1]) >= 3
    assert late >= 20


def _relation_webs(rng, types):
    """Per (r, n, d): three random webs with rational entries and one
    moment web with rational taus under a random gauge."""
    def entry():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

    webs = [_random_web(rng, r, n, d, entry) for r, n, d in types for _ in range(3)]
    for r, n, d in types:
        taus = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4 * d)]
        spec = MomentWebSpec(r, n, list(dict.fromkeys(taus))[:d], random_invertible(rng, r * n))
        webs.append(moment_web(spec))
    return webs


def test_relation_matrix_and_tall_elimination_match_oracle():
    rng = make_rng(42)
    # a few degrees per (r, n), in no particular order
    degrees = {(1, 2): (3, 0, 5, 1, 4), (1, 3): (2, 0, 3, 1), (2, 2): (2, 0, 3, 1),
               (2, 3): (2, 0, 1), (3, 2): (1, 0)}
    webs = _relation_webs(rng, [(1, 2, 6), (1, 3, 5), (2, 2, 5), (2, 3, 4), (3, 2, 4)])
    tall = 0
    for web in webs:
        for h in degrees[web.r, web.n]:
            matrix = relation_matrix(web, h)
            assert matrix == oracle.relation_matrix(web, h), (web.to_json(), h)
            assert matrix.rank() == oracle.rank(matrix), (web.to_json(), h)
            assert matrix.rref() == oracle.rref(matrix), (web.to_json(), h)
            tall += matrix.rows > matrix.cols
    assert tall > 50


def _oracle_kernel(matrix: Matrix) -> list[tuple[Fraction, ...]]:
    """The canonical kernel basis read off ``oracle.rref``."""
    reduced, pivots = oracle.rref(matrix)
    basis = []
    for f in (j for j in range(matrix.cols) if j not in pivots):
        vec = [Fraction(0)] * matrix.cols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -reduced[i, f]
        basis.append(tuple(vec))
    return basis


def test_certified_kernel_matches_oracle():
    """R(h) by prolongation from R(h-1) against the kernel of the relation
    matrix, at every degree up to the cutoff, PG webs and webs failing PG."""
    rng = make_rng(44)
    types = [(1, 2, 7), (1, 3, 6), (2, 2, 7), (2, 3, 8), (3, 2, 6)]
    webs = _relation_webs(rng, types)
    for r, n, d in types:
        # entries in -2..2 fail PG often; a repeated foliation always does
        webs.append(_random_web(rng, r, n, d, lambda: rng.randint(-2, 2)))
        web = _random_web(rng, r, n, d - 1, lambda: rng.randint(-2, 2))
        mix = random_invertible(rng, r)
        webs.append(ConstantWeb(r, n, list(web.foliations) + [
            ConstantFoliation(r, n, mix * web.foliations[0].matrix)]))
    nonzero = not_pg = 0
    for web in webs:
        not_pg += not web.is_pg()
        degrees = list(range(h_cutoff(web.r, web.n, web.d) + 1))
        rng.shuffle(degrees)  # later queries extend the chain earlier ones built
        for h in degrees:
            matrix = oracle.relation_matrix(web, h)
            rank = oracle.rank(matrix)
            # full column rank: the slow oracle RREF has no free column to show
            expected = _oracle_kernel(matrix) if rank < matrix.cols else []
            dim = relation_space_dim(web, h, allow_degenerate=True)
            assert dim == matrix.cols - rank, (web.to_json(), h)
            basis = relation_space(web, h, allow_degenerate=True)
            assert [b.vector() for b in basis] == expected, (web.to_json(), h)
            nonzero += h > 1 and dim > 0
    assert nonzero > 15
    assert not_pg >= len(types)


def test_certified_kernel_moves_past_an_unlucky_prime():
    p0 = next(_primes())
    # singular modulo p0 only: the kernel vector (-1, 1) found there fails
    # the exact check, and the next prime shows rank 2
    assert certified_kernel([{0: 1, 1: 1}, {0: 1, 1: 1 + p0}], 2) == []
    assert certified_kernel([{0: 1, 1: 1}, {0: 1, 1: 1 + p0}, {0: 2, 1: 2}], 2) == []
    # both kernel vectors modulo p0 fail, by p0 and -p0: the one check run
    # for all vectors together must not let the two errors cancel
    assert certified_kernel([{0: 1, 1: 1 + p0, 2: 1 - p0}], 3) == [
        (Fraction(-1 - p0), Fraction(1), Fraction(0)),
        (Fraction(p0 - 1), Fraction(0), Fraction(1)),
    ]


def test_certified_kernel_combines_primes():
    rng = make_rng(45)
    for _ in range(20):
        a, b = rng.randint(2**39, 2**40), rng.randint(-2**40, 2**40)
        while math.gcd(a, b) != 1:
            b += 1
        # -b/a needs about 81 bits, more than one 61-bit prime reconstructs
        assert certified_kernel([{0: a, 1: b}], 2) == [(Fraction(-b, a), Fraction(1))]
        assert certified_kernel([{0: a, 2: b}, {1: 1}], 3) == [
            (Fraction(-b, a), Fraction(0), Fraction(1))]


def test_recovery_and_canonical_data_match_oracle():
    rng = make_rng(43)
    # recovery on d foliations, above the critical order (r+1)(n-1)+2 so
    # some points lie outside the default subweb; canonical data on the
    # first d_can parameters (R(2), R(3) non-zero at (2,2,7))
    for r, n, d, d_can in [(2, 2, 7, 7), (2, 3, 9, 8), (3, 2, 7, 6)]:
        taus = []
        while len(taus) < d:
            tau = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if tau not in taus:
                taus.append(tau)
        gauge = random_invertible(rng, r * n)
        web = moment_web(MomentWebSpec(r, n, taus, gauge))
        d0 = (r + 1) * (n - 1) + 2
        # an admissible subweb other than the default 1..d0
        rest = sorted(rng.sample(range(n + 2, d + 1), d0 - n - 1))
        if rest == list(range(n + 2, d0 + 1)):
            rest[-1] = d
        for indices in (None, list(range(1, n + 2)) + rest):
            expected = oracle.recover_normal_form(web, indices).to_json()
            assert recover_normal_form(web, indices).to_json() == expected, (taus, indices)
        spec = MomentWebSpec(r, n, taus[:d_can], gauge)
        assert canonical_data(spec).to_json() == oracle.canonical_data(spec).to_json(), taus
