"""The elimination kernel, the stacked-rank PG check, the relation matrix,
the certified (mod-p, lifted, exactly checked) relation spaces built by
prolongation, the integer pullback, relation verification and point
reader, normal-form recovery and canonical data against the oracle.

``oracle`` holds the earlier Fraction Gauss-Jordan ``rref`` with the
``kernel_basis`` read off it, Fraction Gaussian ``det``, Bareiss
``rank``, wedge-product ``check_pg``,
determinant-per-minor ``wedge_rows`` (against ``_minors`` and
``generator_normal``), polynomial-wedge ``omega_expansion`` (on
rational, integer and singular bases), per-monomial ``relation_matrix``,
Fraction ``substitute``, ``_verify_relation`` and
``_point_from_block_matrix``, normals-based recovery and
greedy-completion ``canonical_data``.  Inputs
are seeded (``ABELWEB_SEED``) and cover the shapes where elimination
bookkeeping goes wrong: tall, wide, rank-deficient, zero columns, webs
that fail general position at every subset size (also with rows over
different denominators), high-n moment webs,
webs whose first failure needs three foliations, relation matrices of
webs with rational entries, and moment webs under random gauges.  The
certified kernel is also driven past an unlucky prime and into a second
prime, and ``Matrix`` (rank, RREF, kernel, det, inverse and
invertibility) into several primes by entries of about 80 bits.
Verification runs on moment webs under rational gauges, whose
foliations have different denominators, and on perturbed relations that
both verifiers must reject.
"""

import math
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
    canonical_data,
    check_pg,
    degree_bound,
    generator_normal,
    h_cutoff,
    moment_web,
    recover_normal_form,
    relation_matrix,
    relation_space,
    relation_space_dim,
    substitute,
    subweb,
)
from abelweb.abelian import _verify_relation
from abelweb.errors import InternalContradictionError
from abelweb import exactalg
from abelweb.exactalg import _clear_denominators, _minors, _primes, certified_kernel
from abelweb.grassmann import (
    ProjectivePoint, _point_from_block_matrix, foliation_from_point, omega_expansion,
)
from abelweb.multilinear import index_subsets, monomial_exponents, poly_space_dim
from helpers import dense_kernel, make_rng, random_invertible, random_pg_web


def _small_rational(rng) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3, 5)))


def _random_rational_matrix(rng, size=8, entry=_small_rational) -> Matrix:
    rows, cols = rng.randint(0, size), rng.randint(0, size)

    kind = rng.randrange(3)
    if kind == 1 and min(rows, cols) > 1:
        # a product through a thinner middle dimension is rank deficient
        k = rng.randint(1, min(rows, cols) - 1)
        a = [[entry(rng) for _ in range(k)] for _ in range(rows)]
        b = [[entry(rng) for _ in range(cols)] for _ in range(k)]
        data = [
            [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
        ]
    else:
        data = [[entry(rng) for _ in range(cols)] for _ in range(rows)]
    if kind == 2 and cols:
        for j in rng.sample(range(cols), rng.randint(1, cols)):
            for row in data:
                row[j] = Fraction(0)
    return Matrix(data) if rows else Matrix([])


def _check_eliminations(m: Matrix) -> None:
    """Every elimination ``Matrix`` offers, on ``m``, against the oracle.
    The inverse is checked by what defines it: m m^-1 = 1."""
    reduced, pivots = oracle.rref(m)
    assert m.rank() == oracle.rank(m) == len(pivots), m
    assert m.rref() == (reduced, pivots), m
    assert m.kernel_basis() == oracle.kernel_basis(m), m
    square = m.rows == m.cols
    invertible = square and oracle.det(m) != 0
    assert m.is_invertible() == invertible, m
    if square:
        assert m.det() == oracle.det(m), m
    if invertible:
        assert m * m.inverse() == Matrix.identity(m.rows), m


def test_kernel_matches_oracle():
    rng = make_rng(40)
    squares = invertible = 0
    for _ in range(4000):
        m = _random_rational_matrix(rng)
        _check_eliminations(m)
        squares += m.rows == m.cols
        invertible += m.rows == m.cols > 0 and oracle.det(m) != 0
    assert squares > 300 and invertible > 100


def test_kernel_matches_oracle_with_80_bit_entries(monkeypatch):
    """Entries of about 80 bits make RREF entries that no one 61-bit prime
    reconstructs, so ``Matrix`` goes through the multi-prime (Chinese
    remainder) branch of ``certified_kernel``."""
    moduli = []
    lift = exactalg._lift

    def recording(rows, ncols, pivots, free, residues, modulus):
        moduli.append(modulus)
        return lift(rows, ncols, pivots, free, residues, modulus)

    monkeypatch.setattr(exactalg, "_lift", recording)

    def entry(rng):
        return Fraction(rng.randint(-2**80, 2**80), rng.choice((1, 1, 3, 2**40 + 1)))

    rng = make_rng(48)
    for _ in range(60):
        m = _random_rational_matrix(rng, size=5, entry=entry)
        _check_eliminations(m)
    assert sum(modulus > 2**122 for modulus in moduli) > 30  # three primes or more


def test_minors_match_oracle():
    """``_minors`` of the rows cleared by one lcm, divided by den^k, are the
    oracle's one-determinant-per-minor wedge, every subset listed in colex
    order; ``generator_normal`` is the same table whenever the rows are a
    foliation."""
    rng = make_rng(47)
    deficient = zero_columns = normals = 0
    for _ in range(600):
        k = rng.randint(0, 4)
        rows = [list(row) for row in _random_rational_matrix(rng).entries][:k]
        ncols = len(rows[0]) if rows else 0
        if len(rows) < k or ncols < k:
            continue
        ints, den = _clear_denominators(rows)
        minors = _minors(ints, ncols)
        assert list(minors) == list(index_subsets(ncols, k)), rows
        form = {s: Fraction(v, den**k) for s, v in minors.items() if v}
        expected = oracle.wedge_rows(rows).coeffs
        assert form == expected, rows
        assert list(form) == list(expected), rows  # colex order
        if k and form and ncols % k == 0:
            normal = generator_normal(ConstantFoliation(k, ncols // k, Matrix(rows)))
            assert normal.coeffs == expected and list(normal.coeffs) == list(expected), rows
            normals += 1
        deficient += not form
        zero_columns += any(not any(col) for col in zip(*rows))
    assert deficient > 30 and zero_columns > 30 and normals > 30


@pytest.mark.parametrize("r, n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_omega_expansion_matches_oracle(r, n):
    """The minor sweep per choice of alpha's against the polynomial wedge,
    on rational, integer and singular bases (a dependent row, a zero row)."""
    rng = make_rng(50 + 10 * r + n)
    rn = r * n
    for kind in ("rational", "integer", "dependent", "zero row"):
        for _ in range(4):
            if kind == "integer":
                rows = [[rng.randint(-5, 5) for _ in range(rn)] for _ in range(rn)]
            else:
                rows = [[_small_rational(rng) for _ in range(rn)] for _ in range(rn)]
            if kind == "dependent":
                i = rng.randrange(rn)
                weights = [_small_rational(rng) for _ in range(rn)]
                rows[i] = [
                    sum(w * row[c] for l, (w, row) in enumerate(zip(weights, rows)) if l != i)
                    for c in range(rn)
                ]
            elif kind == "zero row":
                rows[rng.randrange(rn)] = [0] * rn
            basis = Matrix(rows)
            if kind in ("dependent", "zero row"):
                assert basis.rank() < rn
            ks = omega_expansion(basis, r, n)
            assert ks == oracle.omega_expansion(basis, r, n), rows
            assert [k.grade for k in ks] == [r] * (r * (n - 1) + 1)


def _random_web(rng, r, n, d, entry) -> ConstantWeb:
    foliations = []
    while len(foliations) < d:
        matrix = Matrix([[entry() for _ in range(r * n)] for _ in range(r)])
        if matrix.rank() == r:
            foliations.append(ConstantFoliation(r, n, matrix))
    return ConstantWeb(r, n, foliations)


def _over(rng, row):
    """A row times a random rational, so each row has its own denominator."""
    scale = Fraction(rng.choice((1, -2, 3)), rng.choice((2, 3, 5, 7)))
    return [x * scale for x in row]


def test_check_pg_matches_oracle():
    rng = make_rng(41)
    types = [(1, 2, 4), (1, 3, 4), (2, 2, 4), (2, 3, 4), (3, 2, 3)]
    failing = 0
    for k in range(300):
        web = _random_web(rng, *types[k % len(types)], lambda: rng.randint(-2, 2))
        verdict = check_pg(web)
        assert verdict == oracle.check_pg(web), web.to_json()
        failing += not verdict[0]
        # each row over its own denominator: a web with the same verdict
        scaled = ConstantWeb(web.r, web.n, [
            ConstantFoliation(web.r, web.n, Matrix([_over(rng, row) for row in f.matrix.entries]))
            for f in web.foliations
        ])
        assert check_pg(scaled) == oracle.check_pg(scaled) == verdict, scaled.to_json()
    assert 60 <= failing <= 180  # about a third
    failing = 0
    for k in range(150):
        web = _random_web(rng, *types[k % len(types)],
                          lambda: Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))))
        verdict = check_pg(web)
        assert verdict == oracle.check_pg(web), web.to_json()
        failing += not verdict[0]
    assert failing >= 5  # about one in eight

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
            expected = oracle.kernel_basis(matrix) if rank < matrix.cols else []
            dim = relation_space_dim(web, h, allow_degenerate=True)
            assert dim == matrix.cols - rank, (web.to_json(), h)
            basis = relation_space(web, h, allow_degenerate=True)
            assert [b.vector() for b in basis] == expected, (web.to_json(), h)
            nonzero += h > 1 and dim > 0
    assert nonzero > 15
    assert not_pg >= len(types)


def _dense_certified_kernel(rows, ncols):
    """``certified_kernel`` densified to the tuples ``Matrix.kernel_basis`` gives."""
    return dense_kernel(certified_kernel(rows, ncols), ncols)


def test_certified_kernel_moves_past_an_unlucky_prime():
    p0 = next(_primes())
    # singular modulo p0 only: the kernel vector (-1, 1) found there fails
    # the exact check, and the next prime shows rank 2
    assert _dense_certified_kernel([{0: 1, 1: 1}, {0: 1, 1: 1 + p0}], 2) == []
    assert _dense_certified_kernel([{0: 1, 1: 1}, {0: 1, 1: 1 + p0}, {0: 2, 1: 2}], 2) == []
    # both kernel vectors modulo p0 fail, by p0 and -p0: the one check run
    # for all vectors together must not let the two errors cancel
    assert _dense_certified_kernel([{0: 1, 1: 1 + p0, 2: 1 - p0}], 3) == [
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
        assert _dense_certified_kernel([{0: a, 1: b}], 2) == [(Fraction(-b, a), Fraction(1))]
        assert certified_kernel([{0: a, 1: b}], 2) == [(a, {0: -b, 1: a})]
        assert _dense_certified_kernel([{0: a, 2: b}, {1: 1}], 3) == [
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
        # the web as given, and reordered so that an admissible critical
        # subweb other than foliations 1..d0 comes first
        rest = sorted(rng.sample(range(n + 2, d + 1), d0 - n - 1))
        if rest == list(range(n + 2, d0 + 1)):
            rest[-1] = d
        front = list(range(1, n + 2)) + rest
        order = front + [j for j in range(1, d + 1) if j not in front]
        for ordered in (web, subweb(web, order)):
            expected = oracle.recover_normal_form(ordered).to_json()
            assert recover_normal_form(ordered).to_json() == expected, (taus, order)
        spec = MomentWebSpec(r, n, taus[:d_can], gauge)
        assert canonical_data(spec).to_json() == oracle.canonical_data(spec).to_json(), taus


@pytest.mark.parametrize("r, n, d, dense", [
    (2, 2, 8, False), (4, 2, 11, False), (3, 2, 10, True), (2, 3, 12, True), (1, 4, 12, True),
])
def test_moment_relation_bases_match_the_closed_form(r, n, d, dense):
    """Every R(h) below the cutoff, as ``relation_space`` returns it, is the
    RREF of the closed-form relations w_j tau_j^rho y^m, as many as the
    degree bound, on rational taus and under a base change with no zero
    entry."""
    rng = make_rng(70 + d)
    taus = []
    while len(taus) < d:
        tau = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        if tau not in taus:
            taus.append(tau)
    base = None
    while dense and base is None:
        candidate = Matrix([[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r * n)]
                            for _ in range(r * n)])
        base = candidate if candidate.is_invertible() else None
    spec = MomentWebSpec(r, n, taus, base)
    web = moment_web(spec)
    for h in range(h_cutoff(r, n, d)):
        expected = oracle.moment_relation_basis(spec, h)
        assert len(expected) == degree_bound(r, n, d, h)
        assert [e.vector() for e in relation_space(web, h)] == expected, h


def _rational_invertible(rng, m: int) -> Matrix:
    while True:
        candidate = Matrix([[Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 5)))
                             for _ in range(m)] for _ in range(m)])
        if candidate.is_invertible():
            return candidate


def test_foliation_from_point_matches_oracle():
    """F(p) built row by row over the non-zero coordinates against the
    full-length vector additions: the same entries, on rational and
    identity bases and on points with zero coordinates."""
    rng = make_rng(53)
    zeros = 0
    for r, n in [(1, 2), (2, 2), (2, 3), (3, 2), (2, 4)]:
        for basis in (_rational_invertible(rng, r * n), Matrix.identity(r * n)):
            for _ in range(6):
                coords = [Fraction(rng.choice((0, 0, rng.randint(-4, 4))), rng.randint(1, 3))
                          for _ in range(n)]
                if not any(coords):
                    continue
                zeros += 0 in coords
                p = ProjectivePoint(coords)
                assert (foliation_from_point(basis, p).matrix.entries
                        == oracle.foliation_from_point(basis, p).matrix.entries)
    assert zeros > 10


def test_substitute_matches_oracle():
    rng = make_rng(48)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3, 5)))

    cancelled = 0
    for _ in range(300):
        nvars, target, degree = rng.randint(1, 3), rng.randint(1, 5), rng.randint(0, 4)
        poly = oracle.from_vector(
            nvars, degree, [entry() for _ in range(poly_space_dim(nvars, degree))])
        forms = [[entry() for _ in range(target)] for _ in range(nvars)]
        if nvars > 1 and rng.random() < 0.3:
            forms[1] = [-x for x in forms[0]]  # dependent forms make terms cancel
            cancelled += 1
        assert substitute(poly, forms) == oracle.substitute(poly, forms), (poly, forms)
    assert cancelled > 30


def test_verify_relation_matches_oracle():
    """Both verifiers accept every canonical basis element of gauged moment
    webs with mixed denominators, h = 0..2, and reject three perturbations
    of it: one coefficient + 1, one component times its own foliation's
    denominator lcm, one component zeroed."""
    rng = make_rng(49)
    verifiers = (_verify_relation, oracle._verify_relation)
    checked = 0
    for r, n, d in [(2, 2, 6), (2, 3, 8), (3, 2, 8)]:
        taus = list(dict.fromkeys(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                  for _ in range(4 * d)))[:d]
        web = moment_web(MomentWebSpec(r, n, taus, _rational_invertible(rng, r * n)))
        lcms = [math.lcm(*(x.denominator for row in f.matrix.entries for x in row))
                for f in web.foliations]
        assert len(set(lcms)) > 1, lcms
        for h in range(3):
            for element in relation_space(web, h):
                good = list(element.components)
                for verify in verifiers:
                    verify(web, good)
                live = [j for j, c in enumerate(good) if not c.is_zero]
                j = rng.choice(live)
                expo = rng.choice(monomial_exponents(r, h))
                bumped_j = HomogeneousPoly(r, h, {**good[j].coeffs, expo: good[j].coefficient(expo) + 1})
                bumped = good[:j] + [bumped_j] + good[j + 1 :]
                j = rng.choice([j for j in live if lcms[j] > 1])
                rescaled_j = HomogeneousPoly(r, h, {e: lcms[j] * c for e, c in good[j].coeffs.items()})
                rescaled = good[:j] + [rescaled_j] + good[j + 1 :]
                j = rng.choice(live)
                dropped = good[:j] + [HomogeneousPoly(r, h)] + good[j + 1 :]
                for bad in (bumped, rescaled, dropped):
                    for verify in verifiers:
                        with pytest.raises(InternalContradictionError):
                            verify(web, bad)
                checked += 1
    assert checked == 40  # the degree bounds, which moment webs attain


def test_point_reader_matches_oracle():
    """The integer point reader against the Fraction one: the same point
    on F(p) and on F(p) with its rows mixed, for any scale of each block
    of n columns of the inverse, and the same error on foliations not of
    that form."""
    rng = make_rng(50)
    not_fp = 0
    for r, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        basis = _rational_invertible(rng, r * n)
        inverse = basis.inverse()
        scales = [rng.choice((1, -2, 3)) for _ in range(r)]
        columns = [[scales[c // n] * x for x in col]
                   for c, col in enumerate(_clear_denominators(zip(*inverse.entries))[0])]
        for k in range(1, 9):
            coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
            if not any(coords):
                continue
            p = ProjectivePoint(coords)
            f = foliation_from_point(basis, p)
            mixed = ConstantFoliation(r, n, _rational_invertible(rng, r) * f.matrix)
            for foliation in (f, mixed):
                point = _point_from_block_matrix(columns, _kappa(foliation), r, n, k)
                assert point == oracle._point_from_block_matrix(inverse, foliation, r, n, k) == p
            # rows of F(p) and F(p'), or random rows: rank r, not F(p)
            other = foliation_from_point(basis, ProjectivePoint(
                [rng.randint(1, 3) for _ in range(n)]))
            rows = [f.matrix.row(0)] + list(other.matrix.entries[1:])
            if rng.random() < 0.5:
                rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(r * n)]
                        for _ in range(r)]
            matrix = Matrix(rows)
            if matrix.rank() < r:
                continue
            foliation = ConstantFoliation(r, n, matrix)
            got = _outcome(lambda: _point_from_block_matrix(columns, _kappa(foliation), r, n, k))
            assert got == _outcome(
                lambda: oracle._point_from_block_matrix(inverse, foliation, r, n, k))
            not_fp += isinstance(got, str)
    assert not_fp > 20


def _kappa(foliation):
    """The foliation's rows as the point reader gets them: cleared to integers."""
    (kappa,), _ = ConstantWeb(foliation.r, foliation.n, [foliation]).cleared_kappas()
    return kappa


def _outcome(read):
    """What ``read()`` returns, or the message of the DegenerateWebError it raises."""
    try:
        return read()
    except DegenerateWebError as error:
        return str(error)
