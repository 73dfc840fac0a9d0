"""Seeded Hypothesis properties of general position, generator normals
and relation spaces.

On small webs with entries in -2..2: ``check_pg`` agrees with the
wedge-product oracle, the PG verdict does not depend on the basis chosen
for each foliation or on the order of the foliations, and a change of
basis g of one foliation scales its generator normal by det(g).  On
small PG webs with rational entries, the per-degree dimensions do not
depend on the scale of each defining row or on the order of the
foliations, and every relation of degree <= 1 passes its verification;
under a rational gauge g of V, kappa_j -> kappa_j g, the relation bases
and the rank report do not change at all (the normal of kappa_j g is
the pullback of Omega_j by g, so each relation pulls back to zero),
nor under kappa_j -> A_j kappa_j with a rational A_j in GL(r) per
foliation (Omega_j scales by det A_j and c_j is composed with A_j), which
holds for moment webs of types (2,2,7) and (3,2,8) too;
each foliation so mixed, and the web of them, equals the original and
hashes alike, and so does each ``Matrix`` rebuilt from its rows written
over other denominators.
On moment webs with rational taus, a rational base change and each
foliation's rows mixed by a rational A_j, so that the kappas' lcm L and
the denominators of R(1) are not 1, the integer recovery returns the
Fraction oracle's structure; and on rational points on a rational
normal curve, and with one point moved, the Castelnuovo test agrees
with the rank of their Fraction Veronese images.
On moment webs with rational taus, a base change and each foliation's
rows mixed, a basis of R(h) with one entry of one vector raised by 1
fails the packed verification, and the basis without that vector passes.
Appending a copy of foliation 1 with its rows mixed, to a moment web
under a base change or to a small web with entries in -2..2, adds
exactly C(r-1+h, h) to dim R(h) at every degree up to two past the
cutoff, under ``allow_degenerate``.
On random PG (n+1)-webs with rational entries, r <= 3 and n <= 4,
``akivis_structure`` returns an invertible basis whose blocks span the
first n foliations and whose block sums span the last.  On d <= 9
distinct rational taus, 0 and negatives among them, the Vandermonde
weights are the oracle's product formula, ``solution_polynomial`` inverts
``check_general_solution``, and the Lagrange identity holds at degree
d - 1 and fails at degree d.
On sparse integer matrices, tall and wide, rank-deficient, with
repeated rows, empty columns and entries up to 2**70, the certified
kernel is the RREF kernel basis whatever the row order, and each vector
comes as ``(den, vec)``: keys ascending, ``den`` > 0 the least common
denominator, held at the last key, the free column.  The same holds
for vectors whose entries' reduced denominators, primes near 2**16,
have an lcm past 2**32, and for matrices singular modulo 2**61 - 1
only.
A ``ProjectivePoint`` of ints, ``Fraction``s and "p/q" strings (negative
and non-reduced denominators, leading zeros) has the coordinates, JSON,
equality, hash and error messages of the former two-step normalization,
and is held in its canonical form: integers over the least positive
denominator, the lead equal to it, keyed by ``(den, ints)``.
On points of a rational normal curve of P^1, P^2 or P^3 under a rational
projective map, each rescaled by a signed rational, and on such sets
with points added at parameter infinity (so that the fit needs c >= 2),
with a point after the frame moved or repeated, or with a frame point
in the span of fewer than n others, ``fit_rnc`` returns the JSON, or
raises the error type and message, of the ``Fraction`` oracle.
A ``Matrix`` built from ints, ``Fraction``s or "p/q" strings (negative
and non-reduced denominators, zero rows, the 0 x 0 matrix) is one
matrix: equal, hashed alike, printed as ``str(Fraction)`` and parsed
back; its product, transpose, action, inverse and RREF match the
``Fraction`` oracle, and ``from_json`` names a bad entry or a ragged
row as before.
Every JSON document the CLI reads (a web, a moment-web spec with a base
change, a plane arrangement, an adapted structure recovered from a
gauged moment web as given or reordered so that a drawn critical subweb
comes first) survives a round trip through ``json.dumps`` and
``from_json`` unchanged.  On drawn web, moment-spec, points and
arrangement documents, most well formed and the rest with a part
replaced, deleted or repeated, the CLI exits 0, 1 or 2 and raises
nothing.
The examples are drawn from ``DEFAULT_SEED`` (``ABELWEB_SEED``), so a
run is reproducible, and no example database is written.
"""

import contextlib
import io
import itertools
import json
import math
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import oracle
from abelweb import (
    AdaptedStructure,
    ConstantFoliation,
    ConstantWeb,
    DegenerateWebError,
    InternalContradictionError,
    Matrix,
    MomentWebSpec,
    PlaneArrangement,
    ProjectivePoint,
    akivis_structure,
    castelnuovo_rnc_test,
    check_general_solution,
    check_pg,
    fit_rnc,
    foliation_from_point,
    generator_normal,
    h_cutoff,
    intersect_with_base_plane,
    lagrange_identity,
    moment_point,
    moment_web,
    poly_space_dim,
    rational,
    recover_normal_form,
    relation_space,
    relation_space_dim,
    solution_polynomial,
    subweb,
    total_rank,
    vandermonde_weights,
)
from abelweb.abelian import _relation_kernel, _verify_relation
from abelweb.cli import main
from abelweb.exactalg import certified_kernel
from abelweb.grassmann import _foliation_on_invertible
from helpers import DEFAULT_SEED, check_reduced, dense_kernel

SETTINGS = settings(max_examples=150, deadline=None, database=None)


@st.composite
def webs(draw) -> ConstantWeb:
    r, n = draw(st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3)]))
    d = draw(st.integers(2, 5))
    entries = st.lists(st.integers(-2, 2), min_size=r * n, max_size=r * n)
    foliations = []
    for _ in range(d):
        matrix = Matrix(draw(st.lists(entries, min_size=r, max_size=r)))
        assume(matrix.rank() == r)
        foliations.append(ConstantFoliation(r, n, matrix))
    return ConstantWeb(r, n, foliations)


@st.composite
def rational_pg_webs(draw) -> ConstantWeb:
    r, n, d = draw(st.sampled_from([(1, 2, 3), (1, 2, 5), (1, 2, 6), (1, 3, 5), (1, 3, 6),
                                    (2, 2, 6), (2, 2, 7)]))
    entry = st.sampled_from(sorted({Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)}))
    foliations = []
    for _ in range(d):
        matrix = Matrix(draw(st.lists(st.lists(entry, min_size=r * n, max_size=r * n),
                                      min_size=r, max_size=r)))
        assume(matrix.rank() == r)
        foliations.append(ConstantFoliation(r, n, matrix))
    web = ConstantWeb(r, n, foliations)
    assume(web.is_pg())
    return web


@st.composite
def sparse_int_matrices(draw) -> list[list[int]]:
    ncols = draw(st.integers(1, 9))
    empty = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    entry = st.one_of(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), st.integers(-2**70, 2**70))
    rows = [[0 if j in empty else draw(entry) for j in range(ncols)]
            for _ in range(draw(st.integers(1, 9)))]
    for _ in range(draw(st.integers(0, 4))):
        # a repeated row (c = 0) or a combination of two rows
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(st.integers(-2, 2))
        rows.append([x + c * y for x, y in zip(a, b)])
    return rows


@st.composite
def invertible(draw, r: int) -> Matrix:
    """L U with L unit lower triangular and U upper triangular, det U != 0."""
    small = st.integers(-2, 2)
    lower = [[draw(small) if j < i else int(i == j) for j in range(r)] for i in range(r)]
    upper = [
        [draw(st.sampled_from([-2, -1, 1, 2])) if j == i else draw(small) if j > i else 0
         for j in range(r)]
        for i in range(r)
    ]
    return Matrix(lower) * Matrix(upper)


@seed(DEFAULT_SEED)
@SETTINGS
@given(webs())
def test_check_pg_matches_oracle_on_drawn_webs(web):
    assert check_pg(web) == oracle.check_pg(web)


@seed(DEFAULT_SEED)
@SETTINGS
@given(st.data())
def test_pg_invariant_under_row_mixing_and_permutation(data):
    web = data.draw(webs())
    mixes = [data.draw(invertible(web.r)) for _ in range(web.d)]
    order = data.draw(st.permutations(range(web.d)))
    mixed = ConstantWeb(web.r, web.n, [
        ConstantFoliation(web.r, web.n, g * f.matrix) for g, f in zip(mixes, web.foliations)
    ])
    permuted = ConstantWeb(web.r, web.n, [web.foliations[j] for j in order])
    assert check_pg(mixed)[0] == check_pg(permuted)[0] == check_pg(web)[0]


@seed(DEFAULT_SEED)
@SETTINGS
@given(st.data())
def test_generator_normal_scales_by_det(data):
    web = data.draw(webs())
    foliation = web.foliations[0]
    g = data.draw(invertible(web.r))
    moved = ConstantFoliation(web.r, web.n, g * foliation.matrix)
    det = g.det()
    scaled = {s: det * c for s, c in generator_normal(foliation).coeffs.items()}
    assert generator_normal(moved).coeffs == scaled


ROW_SCALES = [Fraction(s * a, b) for s in (1, -1) for a, b in ((1, 3), (1, 2), (2, 1), (3, 1))]


@seed(DEFAULT_SEED)
@SETTINGS
@given(st.data())
def test_dims_invariant_under_row_scaling_and_permutation(data):
    web = data.draw(rational_pg_webs())
    scaled = ConstantWeb(web.r, web.n, [
        ConstantFoliation(web.r, web.n, Matrix(
            [[x * scale for x in row] for row, scale in zip(
                f.matrix.entries, data.draw(st.lists(st.sampled_from(ROW_SCALES),
                                                     min_size=web.r, max_size=web.r)))]))
        for f in web.foliations
    ])
    order = data.draw(st.permutations(range(web.d)))
    permuted = ConstantWeb(web.r, web.n, [web.foliations[j] for j in order])
    cutoff = h_cutoff(web.r, web.n, web.d)
    dims = [relation_space_dim(web, h) for h in range(cutoff)]
    for other in (scaled, permuted):
        assert [relation_space_dim(other, h) for h in range(cutoff)] == dims
        for h in range(min(2, cutoff)):
            assert len(relation_space(other, h)) == dims[h]  # each one verified


@seed(DEFAULT_SEED)
@SETTINGS
@given(st.data())
def test_relation_bases_invariant_under_gauge(data):
    web = data.draw(rational_pg_webs())
    rn = web.r * web.n
    g = data.draw(invertible(rn))
    column_scales = data.draw(st.lists(st.sampled_from(ROW_SCALES), min_size=rn, max_size=rn))
    g = Matrix([[x * s for x, s in zip(row, column_scales)] for row in g.entries])
    gauged = ConstantWeb(web.r, web.n, [
        ConstantFoliation(web.r, web.n, f.matrix * g) for f in web.foliations
    ])
    for h in range(h_cutoff(web.r, web.n, web.d)):
        assert ([e.vector() for e in relation_space(gauged, h)]
                == [e.vector() for e in relation_space(web, h)])
    assert total_rank(gauged).to_json() == total_rank(web).to_json()


@seed(DEFAULT_SEED)
@SETTINGS
@given(st.data())
def test_certified_kernel_matches_rref_kernel_in_any_row_order(data):
    rows = data.draw(sparse_int_matrices())
    ncols = len(rows[0])
    sparse = [{j: a for j, a in enumerate(row) if a} for row in rows]
    expected = oracle.kernel_basis(Matrix(rows))
    reduced, basis = certified_kernel(sparse, ncols)
    assert dense_kernel(basis, ncols) == expected
    _check_reduced_against_rref(reduced, basis, Matrix(rows))
    for den, vec in basis:
        # support ascending up to the free column, which holds den; den is
        # the least common denominator, so the integers are coprime
        keys = list(vec)
        assert keys == sorted(keys) and den > 0 and vec[keys[-1]] == den
        assert 0 not in vec.values() and math.gcd(*vec.values()) == 1
    # in another row order each reduced row may change its sign only
    again, permuted = certified_kernel(data.draw(st.permutations(sparse)), ncols)
    assert permuted == basis and again.keys() == reduced.keys()
    assert all(again[q] in (row, {c: -x for c, x in row.items()}) for q, row in reduced.items())


def _check_reduced_against_rref(reduced, basis, matrix: Matrix) -> None:
    """``certified_kernel``'s reduced rows are what it promises, and row q
    over its entry at q is the oracle's RREF row of pivot q."""
    check_reduced(reduced, basis, matrix.cols)
    rref, pivots = oracle.rref(matrix)
    assert sorted(reduced) == list(pivots)
    for i, q in enumerate(pivots):
        row = reduced[q]
        assert tuple(Fraction(row.get(c, 0), row[q]) for c in range(matrix.cols)) == rref.row(i)


# primes just above 2**16: two distinct ones multiply to more than 2**32
_DENOMINATORS = [q for q in range(2**16 + 1, 2**16 + 2000, 2)
                 if all(q % p for p in range(3, math.isqrt(q) + 1, 2))]


@st.composite
def kernel_inputs(draw) -> tuple[str, list[dict[int, int]], int]:
    """A kind and sparse integer rows with their number of columns.

    "sparse": the matrices above, entries up to 2**70 among them.
    "denominators": rows a_j e_j + (small entries at the free columns)
    with distinct primes a_j near 2**16, so that a kernel vector's entries
    have different reduced denominators whose lcm exceeds 2**32; maybe a
    row a_0 a_1 e_k, whose entries have a reduced denominator above 2**32,
    and maybe a first row e_0 + c e_free with 2**30 <= |c| <= 2**31.
    "unlucky": matrices singular modulo p0 = 2**61 - 1 only, or with
    kernel vectors off by +-p0 there.
    """
    kind = draw(st.sampled_from(["sparse", "denominators", "unlucky"]))
    if kind == "sparse":
        rows = draw(sparse_int_matrices())
        return kind, [{j: a for j, a in enumerate(row) if a} for row in rows], len(rows[0])
    if kind == "unlucky":
        p0 = 2**61 - 1
        return kind, *draw(st.sampled_from([
            ([{0: 1, 1: 1}, {0: 1, 1: 1 + p0}], 2),
            ([{0: 1, 1: 1}, {0: 1, 1: 1 + p0}, {0: 2, 1: 2}], 2),
            ([{0: 1, 1: 1 + p0, 2: 1 - p0}], 3),
        ]))
    free = draw(st.integers(1, 3))
    dens = draw(st.lists(st.sampled_from(_DENOMINATORS), min_size=2, max_size=5, unique=True))
    if draw(st.booleans()):
        dens.append(dens[0] * dens[1])
    large = draw(st.booleans())
    if large:
        dens.insert(0, 1)
    k, small = len(dens), st.integers(-9, 9).filter(bool)
    rows = [{j: a} | {k + i: draw(small) for i in range(free)} for j, a in enumerate(dens)]
    if large:
        rows[0][k] = draw(st.integers(2**30, 2**31)) * draw(st.sampled_from([1, -1]))
    return kind, draw(st.permutations(rows)), k + free


@seed(DEFAULT_SEED)
@SETTINGS
@given(kernel_inputs())
def test_certified_kernel_matches_the_two_pass_per_entry_oracle(drawn):
    # the RREF kernel basis, each vector over its least common denominator
    # with its keys ascending to the free column
    kind, rows, ncols = drawn
    reduced, basis = certified_kernel([dict(row) for row in rows], ncols)
    matrix = Matrix([[row.get(c, 0) for c in range(ncols)] for row in rows])
    assert dense_kernel(basis, ncols) == oracle.kernel_basis(matrix)
    _check_reduced_against_rref(reduced, basis, matrix)
    for den, vec in basis:
        keys = list(vec)
        assert keys == sorted(keys) and den > 0 and vec[keys[-1]] == den
        assert 0 not in vec.values() and math.gcd(*vec.values()) == 1
    if kind == "denominators":
        assert max(den for den, _ in basis) > 2**32


@seed(DEFAULT_SEED)
@SETTINGS
@given(st.data())
def test_rank_invariant_under_row_mixing(data):
    web = data.draw(rational_pg_webs())
    mixed = []
    for f in web.foliations:
        a = data.draw(invertible(web.r))
        scales = data.draw(st.lists(st.sampled_from(ROW_SCALES), min_size=web.r, max_size=web.r))
        a = Matrix([[x * s for x in row] for row, s in zip(a.entries, scales)])
        mixed.append(ConstantFoliation(web.r, web.n, a * f.matrix))
    mixed = ConstantWeb(web.r, web.n, mixed)
    assert total_rank(mixed).to_json() == total_rank(web).to_json()


@seed(DEFAULT_SEED)
@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_rank_of_moment_webs_invariant_under_row_mixing(data):
    # a moment web has relations in every degree below its cutoff, so
    # mixed rows fill the kernel's rows in every degree, not only in R(0)
    r, n, d = data.draw(st.sampled_from([(2, 2, 7), (3, 2, 8)]))
    taus = data.draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d, unique=True))
    web = moment_web(MomentWebSpec(r, n, taus))
    mixed = ConstantWeb(r, n, [ConstantFoliation(r, n, data.draw(invertible(r)) * f.matrix)
                               for f in web.foliations])
    assert total_rank(mixed).to_json() == total_rank(web).to_json()


@seed(DEFAULT_SEED)
@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_values_equal_under_row_mixing_and_other_denominators(data):
    web = data.draw(webs())
    mixed = []
    for f in web.foliations:
        a = data.draw(invertible(web.r))
        scales = data.draw(st.lists(st.sampled_from(ROW_SCALES), min_size=web.r, max_size=web.r))
        a = Matrix([[x * s for x in row] for row, s in zip(a.entries, scales)])
        foliation = ConstantFoliation(web.r, web.n, a * f.matrix)
        assert foliation == f and hash(foliation) == hash(f)
        mixed.append(foliation)
    mixed = ConstantWeb(web.r, web.n, mixed)
    assert mixed == web and hash(mixed) == hash(web)
    for m in (f.matrix for f in mixed.foliations):
        # row i written over den * k_i, signs and common factors included
        ks = data.draw(st.lists(st.sampled_from([1, 2, 3, 6, -1, -4]),
                                min_size=m.rows, max_size=m.rows))
        other = Matrix([[f"{a * k}/{m.den * k}" for a in row] for row, k in zip(m.ints, ks)])
        assert other == m and hash(other) == hash(m)


TAUS = sorted({Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3)})


@seed(DEFAULT_SEED)
@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_recovery_matches_oracle_on_mixed_rational_moment_webs(data):
    r, n = data.draw(st.sampled_from([(2, 2), (3, 2), (2, 3)]))
    d = (r + 1) * (n - 1) + 2 + data.draw(st.integers(0, 1))
    taus = data.draw(st.lists(st.sampled_from(TAUS), min_size=d, max_size=d, unique=True))
    base = data.draw(invertible(r * n))
    scales = data.draw(st.lists(st.sampled_from(ROW_SCALES), min_size=r * n, max_size=r * n))
    base = Matrix([[x * s for x, s in zip(row, scales)] for row in base.entries])
    web = moment_web(MomentWebSpec(r, n, taus, base))
    mixed = []
    for f in web.foliations:
        a = data.draw(invertible(r))
        scales = data.draw(st.lists(st.sampled_from(ROW_SCALES), min_size=r, max_size=r))
        a = Matrix([[x * s for x in row] for row, s in zip(a.entries, scales)])
        mixed.append(ConstantFoliation(r, n, a * f.matrix))
    mixed = ConstantWeb(r, n, mixed)
    # recovery scales its integer rows by L and by each R(1) denominator
    critical = subweb(mixed, range(1, (r + 1) * (n - 1) + 3))
    assume(critical.cleared_kappas()[1] != 1)
    assume(all(den != 1 for den, _ in _relation_kernel(critical, 1, False)))
    assert recover_normal_form(mixed).to_json() == oracle.recover_normal_form(mixed).to_json()


@seed(DEFAULT_SEED)
@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_packed_verification_rejects_one_perturbed_vector(data):
    r, n, d = data.draw(st.sampled_from([(1, 2, 6), (2, 2, 6), (2, 2, 7), (2, 3, 8), (3, 2, 8)]))
    taus = data.draw(st.lists(st.sampled_from(TAUS), min_size=d, max_size=d, unique=True))
    web = moment_web(MomentWebSpec(r, n, taus, data.draw(invertible(r * n))))
    web = ConstantWeb(r, n, [ConstantFoliation(r, n, data.draw(invertible(r)) * f.matrix)
                             for f in web.foliations])
    h = data.draw(st.integers(0, h_cutoff(r, n, d) - 1))
    basis = _relation_kernel(web, h, False)
    assume(basis)
    k = data.draw(st.integers(0, len(basis) - 1))
    column = data.draw(st.integers(0, d * poly_space_dim(r, h) - 1))
    # vec + e_column is no relation: a single monomial of one foliation
    # pulls back to a non-zero form times a non-zero normal
    den, vec = basis[k]
    bumped = {**vec, column: vec.get(column, 0) + 1}
    with pytest.raises(InternalContradictionError):
        _verify_relation(web, h, basis[:k] + [(den, bumped)] + basis[k + 1 :])
    _verify_relation(web, h, basis[:k] + basis[k + 1 :])


@seed(DEFAULT_SEED)
@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_a_repeated_foliation_adds_the_forms_of_each_degree(data):
    # with kappa_(d+1) = A kappa_1, e -> (e o A, 0, ..., 0, -e / det A) maps
    # the degree-h forms in r variables one to one into the relations, and
    # subtracting the image of -det A * c_(d+1) leaves a relation of the
    # first d foliations: dim R(h) grows by C(r-1+h, h) at every degree,
    # past the cutoff too, and the web so extended fails PG
    if data.draw(st.booleans()):
        r, n, d = data.draw(st.sampled_from([(1, 2, 5), (2, 2, 6), (1, 3, 7), (2, 3, 8),
                                             (3, 2, 8)]))
        taus = data.draw(st.lists(st.sampled_from(TAUS), min_size=d, max_size=d, unique=True))
        web = moment_web(MomentWebSpec(r, n, taus, data.draw(invertible(r * n))))
    else:
        web = data.draw(webs())
    r, n, d = web.r, web.n, web.d
    copy = ConstantFoliation(r, n, data.draw(invertible(r)) * web.foliations[0].matrix)
    repeated = ConstantWeb(r, n, [*web.foliations, copy])
    assert not repeated.is_pg()
    for h in range(h_cutoff(r, n, d + 1) + 2):
        assert (relation_space_dim(repeated, h, allow_degenerate=True)
                == relation_space_dim(web, h, allow_degenerate=True) + poly_space_dim(r, h))


@seed(DEFAULT_SEED)
@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_akivis_structure_adapts_random_rational_pg_webs(data):
    # the basis is invertible, its block alpha spans foliation alpha and
    # its block sums span foliation n+1
    r, n = data.draw(st.sampled_from([(r, n) for r in (1, 2, 3) for n in (2, 3, 4)]))
    entry = st.sampled_from(sorted({Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)}))
    foliations = []
    for _ in range(n + 1):
        matrix = Matrix(data.draw(st.lists(st.lists(entry, min_size=r * n, max_size=r * n),
                                           min_size=r, max_size=r)))
        assume(matrix.rank() == r)
        foliations.append(ConstantFoliation(r, n, matrix))
    assume(ConstantWeb(r, n, foliations).is_pg())
    basis = akivis_structure(foliations)
    assert basis.is_invertible()
    for alpha in range(n):
        block = Matrix([basis.row(a * n + alpha) for a in range(r)])
        assert block.row_space_rref() == foliations[alpha].row_span()
    sums = Matrix([[sum(column) for column in zip(*(basis.row(a * n + alpha)
                                                    for alpha in range(n)))]
                   for a in range(r)])
    assert sums.row_space_rref() == foliations[n].row_span()


@seed(DEFAULT_SEED)
@SETTINGS
@given(st.data())
def test_lagrange_kernel_matches_the_product_formula(data):
    # the weights are the oracle's product formula; the solution polynomial
    # inverts the general solution; the Lagrange identity is sharp at d - 1
    d = data.draw(st.integers(3, 9))
    pool = [t for t in TAUS if t]
    taus = data.draw(st.lists(st.sampled_from(pool), min_size=d, max_size=d, unique=True))
    if data.draw(st.booleans()):
        taus[data.draw(st.integers(0, d - 1))] = Fraction(0)
    assert vandermonde_weights(taus) == tuple(oracle.vandermonde_weights(taus))
    r, n = data.draw(st.sampled_from([(r, n) for r in (1, 2, 3) for n in (2, 3, 4)
                                      if r * (n - 1) + 2 <= d]))
    coefficient = st.sampled_from(TAUS)
    f = data.draw(st.lists(coefficient, max_size=d - r * (n - 1) - 1))
    while f and f[-1] == 0:
        f.pop()
    assert solution_polynomial(r, n, taus, check_general_solution(r, n, taus, f)) == tuple(f)
    top = data.draw(st.sampled_from(pool))
    below = data.draw(st.lists(coefficient, min_size=d - 1, max_size=d - 1))
    assert lagrange_identity(taus, below + [top])
    assert not lagrange_identity(taus, below + [data.draw(coefficient), top])


def _veronese_rank(points, r: int) -> int:
    """Rank of the degree-r monomials of the points, in Fractions, by the oracle."""
    return oracle.rank(Matrix([
        [math.prod(monomial, start=Fraction(1))
         for monomial in itertools.combinations_with_replacement(p.coords, r)]
        for p in points
    ]))


@seed(DEFAULT_SEED)
@SETTINGS
@given(st.data())
def test_castelnuovo_matches_fraction_veronese_rank(data):
    # rational points on a rational normal curve, then one of them moved
    r, n = data.draw(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]))
    d = (2 * n + 1 if r == 2 else r * (n - 1) + 1) + data.draw(st.integers(0, 2))
    taus = data.draw(st.lists(st.sampled_from(TAUS), min_size=d, max_size=d, unique=True))
    g = data.draw(invertible(n))
    scales = data.draw(st.lists(st.sampled_from(ROW_SCALES), min_size=n, max_size=n))
    g = Matrix([[x * s for x, s in zip(row, scales)] for row in g.entries])
    on = [ProjectivePoint(g.apply(moment_point(n, tau).coords)) for tau in taus]
    assert castelnuovo_rnc_test(on, r)
    assert _veronese_rank(on, r) == r * (n - 1) + 1
    k = data.draw(st.integers(0, d - 1))
    moved = [c + data.draw(st.sampled_from(ROW_SCALES)) for c in on[k].coords]
    assume(any(moved))
    off = on[:k] + [ProjectivePoint(moved)] + on[k + 1 :]
    assert castelnuovo_rnc_test(off, r) == (_veronese_rank(off, r) == r * (n - 1) + 1)


def _fit_outcome(fit, points):
    """``to_json()`` of the fit, or the type and message of its error."""
    try:
        return fit(points).to_json()
    except (ValueError, DegenerateWebError) as error:
        return type(error).__name__, str(error)


def _at_infinity(fit: dict) -> list[Fraction]:
    """The point whose Cremona image under ``fit`` is line_b - line_a: its
    parameter there is infinity, so a refit needs a larger c."""
    z = [rational(b) - rational(a) for a, b in zip(fit["line_a"], fit["line_b"])]
    assume(all(z))
    return list(Matrix.from_json(fit["transform"]).inverse().apply([1 / c for c in z]))


@seed(DEFAULT_SEED)
@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_fit_rnc_matches_the_fraction_oracle(data):
    # points of a rational normal curve under a rational projective map,
    # each rescaled; then a fit that needs c >= 2, a point moved or
    # repeated, or a degenerate frame
    kind = data.draw(st.sampled_from(["on", "c >= 2", "off", "frame"]))
    # every set of distinct points of P^1 lies on the line, the curve of n = 2
    n = data.draw(st.integers(3 if kind == "off" else 2, 4))
    d = n + 3 + data.draw(st.integers(0, 2))
    taus = data.draw(st.lists(st.sampled_from(TAUS), min_size=d, max_size=d, unique=True))
    g = data.draw(invertible(n))
    scales = data.draw(st.lists(st.sampled_from(ROW_SCALES), min_size=n, max_size=n))
    g = Matrix([[x * s for x, s in zip(row, scales)] for row in g.entries])
    coords = [list(g.apply(moment_point(n, tau).coords)) for tau in taus]
    if kind == "c >= 2":
        for _ in range(data.draw(st.integers(1, 2))):
            before = oracle.fit_rnc([ProjectivePoint(p) for p in coords]).to_json()
            at = data.draw(st.integers(n + 3, len(coords)))
            coords.insert(at, _at_infinity(before))
            after = oracle.fit_rnc([ProjectivePoint(p) for p in coords]).to_json()
            assert after["line_b"] != before["line_b"]
    elif kind == "off":
        # a point after the frame moved, or made a copy of another point
        k = data.draw(st.integers(n + 1, d - 1))
        if data.draw(st.booleans()):
            coords[k] = [c + data.draw(st.sampled_from(ROW_SCALES)) for c in coords[k]]
            assume(any(coords[k]))
        else:
            coords[k] = list(coords[data.draw(st.integers(n + 1, d - 1))])
    elif kind == "frame":
        # point i of the frame in the span of fewer than n of the others
        i = data.draw(st.integers(0, n))
        span = data.draw(st.lists(st.integers(0, n - 1).filter(lambda j: j != i),
                                  min_size=1, max_size=n - 1, unique=True))
        weights = data.draw(st.lists(st.sampled_from(ROW_SCALES), min_size=len(span),
                                     max_size=len(span)))
        coords[i] = [sum(w * coords[j][c] for w, j in zip(weights, span)) for c in range(n)]
        assume(any(coords[i]))
    rescale = data.draw(st.lists(st.sampled_from(ROW_SCALES), min_size=len(coords),
                                 max_size=len(coords)))
    points = [ProjectivePoint([s * c for c in p]) for p, s in zip(coords, rescale)]
    assert _fit_outcome(fit_rnc, points) == _fit_outcome(oracle.fit_rnc, points)


@st.composite
def entry_pairs(draw, rows: int, cols: int) -> list[list[tuple[int, int]]]:
    """Rows of (p, q), the entry p / q: q may be negative and p / q not in
    lowest terms; some rows are zero, and all entries are integers in about
    half the examples."""
    integral = draw(st.booleans())
    pairs = []
    for _ in range(rows):
        zero = draw(st.integers(0, 3)) == 0
        row = []
        for _ in range(cols):
            q = draw(st.sampled_from([1, -1, 2, -3, 4, 6]))
            p = 0 if zero else draw(st.integers(-6, 6)) * (q if integral else 1)
            k = draw(st.integers(1, 3))
            row.append((p * k, q * k))
        pairs.append(row)
    return pairs


@seed(DEFAULT_SEED)
@SETTINGS
@given(st.data())
def test_matrix_from_ints_fractions_and_strings_matches_fraction_arithmetic(data):
    rows = data.draw(st.integers(0, 4))
    cols = data.draw(st.integers(0, 4)) if rows else 0
    pairs = data.draw(entry_pairs(rows, cols))
    strings = [[f"{p}/{q}" for p, q in row] for row in pairs]
    fractions = [[Fraction(p, q) for p, q in row] for row in pairs]
    m = Matrix(fractions)
    # integral entries as ints, the others as "p/q" strings
    for other in (Matrix(strings), Matrix([[p // q if p % q == 0 else f"{p}/{q}"
                                             for p, q in row] for row in pairs])):
        assert other == m and hash(other) == hash(m)
    assert m.to_json() == [[str(x) for x in row] for row in fractions]
    assert Matrix.from_json(m.to_json()) == m
    assert Matrix.from_json(json.loads(json.dumps(strings))) == m
    assert (m.rows, m.cols) == (rows, cols)

    assert [list(row) for row in m.transpose().entries] == oracle.transpose(m)
    right = Matrix([[Fraction(p, q) for p, q in row]
                    for row in data.draw(entry_pairs(cols, data.draw(st.integers(0, 3))))])
    assert [list(row) for row in (m * right).entries] == oracle.mul(m, right)
    vector = [Fraction(p, q) for p, q in data.draw(entry_pairs(1, cols))[0]] if rows else []
    assert m.apply(vector) == oracle.apply(m, vector)
    assert m.rref() == oracle.rref(m)
    if rows == cols and oracle.rank(m) == rows:
        assert [list(row) for row in m.inverse().entries] == oracle.inverse(m)

    # bad input is named as before: the first bad entry, then ragged rows
    if rows and cols:
        i, k = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
        bad, text = data.draw(st.sampled_from([(True, "true"), (1.5, "1.5"),
                                               ("1/0", '"1/0"')]))
        document = [list(row) for row in strings]
        document[i][k] = bad
        with pytest.raises(ValueError) as error:
            Matrix.from_json(document, "plane 2")
        assert str(error.value) == (f"plane 2 row {i + 1} entry {k + 1} must be an integer "
                                    f'or a "p/q" string with q != 0, got {text}')
    if rows > 1 and cols:
        i = data.draw(st.integers(1, rows - 1))
        document = [list(row) for row in strings]
        del document[i][-1]
        with pytest.raises(ValueError) as error:
            Matrix.from_json(document, "plane 2")
        assert str(error.value) == (f"ragged rows in plane 2: row {i + 1} has {cols - 1} "
                                    f"entries, row 1 has {cols}")


@seed(DEFAULT_SEED)
@SETTINGS
@given(st.data())
def test_projective_point_matches_two_step_normalization(data):
    n = data.draw(st.integers(1, 5))
    pairs = data.draw(entry_pairs(1, n))[0]
    zeros = data.draw(st.integers(0, n))
    pairs = [(0, q) for _, q in pairs[:zeros]] + pairs[zeros:]
    coords = []
    for p, q in pairs:
        forms = [Fraction(p, q), f"{p}/{q}"] + ([p // q] if p % q == 0 else [])
        coords.append(data.draw(st.sampled_from(forms)))
    try:
        expected = oracle.projective_coords(coords)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            ProjectivePoint(coords)
        assert str(raised.value) == str(error)
        return
    point = ProjectivePoint(coords)
    assert point.coords == expected and all(type(c) is Fraction for c in point.coords)
    # the canonical form: integers over the least positive denominator,
    # the lead equal to it, and the key (den, ints)
    lead = next(k for k, c in enumerate(expected) if c)
    assert type(point.den) is int and all(type(a) is int for a in point.ints)
    assert point.den > 0 and point.ints[lead] == point.den
    assert math.gcd(point.den, *point.ints) == 1
    assert point.den == math.lcm(*(c.denominator for c in expected))
    assert point._key() == (point.den, point.ints)
    assert point.to_json() == [str(c) for c in expected] and repr(point) == (
        "[" + " : ".join(map(str, expected)) + "]")
    scale = Fraction(data.draw(st.integers(1, 9)), data.draw(st.sampled_from([-5, -1, 2, 7])))
    scaled = ProjectivePoint([scale * c for c in expected])
    assert scaled == point and hash(scaled) == hash(point)
    # a bad coordinate raises what the former normalization raised
    k = data.draw(st.integers(0, n - 1))
    bad = list(coords)
    bad[k] = data.draw(st.sampled_from([True, 1.5, "1/0", "x", None]))
    with pytest.raises((TypeError, ValueError)) as error:
        oracle.projective_coords(bad)
    with pytest.raises(error.type) as raised:
        ProjectivePoint(bad)
    assert str(raised.value) == str(error.value)


@seed(DEFAULT_SEED)
@SETTINGS
@given(st.data())
def test_intersection_matches_the_kernel_of_each_xi_block(data):
    # each xi-block is an (n-1) x k times a k x n product: mostly k = n - 1,
    # a transverse plane, else a rank k < n - 1 that the eta-block can
    # make up to n - 1 (k = 0: the plane contains the base plane)
    r, n = data.draw(st.sampled_from([(r, n) for r in (1, 2, 3) for n in (2, 3, 4)]))
    entry = st.sampled_from(TAUS)
    planes = []
    for _ in range(data.draw(st.integers(1, 4))):
        eta = [[data.draw(entry) for _ in range(r)] for _ in range(n - 1)]
        k = data.draw(st.sampled_from([n - 1, n - 1, *range(max(0, n - 1 - r), n - 1)]))
        left = [[data.draw(entry) for _ in range(k)] for _ in range(n - 1)]
        right = [[data.draw(entry) for _ in range(n)] for _ in range(k)]
        xi = [[sum((a * b[c] for a, b in zip(row, right)), Fraction(0)) for c in range(n)]
              for row in left]
        plane = Matrix([e + x for e, x in zip(eta, xi)])
        assume(plane.rank() == n - 1)
        planes.append(plane)
    arr = PlaneArrangement(r, n, planes)
    try:
        expected = oracle.intersect_with_base_plane(arr)
    except DegenerateWebError as error:
        with pytest.raises(DegenerateWebError) as raised:
            intersect_with_base_plane(arr)
        assert str(raised.value) == str(error)
        return
    assert intersect_with_base_plane(arr) == expected


@seed(DEFAULT_SEED)
@SETTINGS
@given(st.data())
def test_foliation_on_an_invertible_basis_matches_the_ranked_one(data):
    r, n = data.draw(st.sampled_from([(1, 2), (1, 4), (2, 2), (2, 3), (3, 2), (2, 4)]))
    basis = data.draw(invertible(r * n))
    scales = data.draw(st.lists(st.sampled_from(ROW_SCALES), min_size=r * n, max_size=r * n))
    basis = Matrix([[x * s for x in row] for row, s in zip(basis.entries, scales)])
    coords = data.draw(st.lists(st.sampled_from([0, 0, *TAUS]), min_size=n, max_size=n))
    assume(any(coords))
    p = ProjectivePoint(coords)
    proven, ranked = _foliation_on_invertible(basis, p), foliation_from_point(basis, p)
    assert (proven.r, proven.n) == (ranked.r, ranked.n) == (r, n)
    assert proven.matrix == ranked.matrix and proven.row_span() == ranked.row_span()
    assert proven == ranked and hash(proven) == hash(ranked)


def _round_trip(obj, cls) -> None:
    data = obj.to_json()
    assert cls.from_json(json.loads(json.dumps(data))).to_json() == data


@seed(DEFAULT_SEED)
@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_json_round_trips(data):
    _round_trip(data.draw(rational_pg_webs()), ConstantWeb)

    r, n = data.draw(st.sampled_from([(2, 2), (3, 2), (2, 3)]))
    d = (r + 1) * (n - 1) + 2 + data.draw(st.integers(0, 1))
    taus = data.draw(st.lists(st.sampled_from(sorted(set(ROW_SCALES) | {Fraction(0)})),
                              min_size=d, max_size=d, unique=True))
    base = data.draw(invertible(r * n))
    scales = data.draw(st.lists(st.sampled_from(ROW_SCALES), min_size=r * n, max_size=r * n))
    base = Matrix([[x * s for x in row] for row, s in zip(base.entries, scales)])
    spec = MomentWebSpec(r, n, taus, base)
    _round_trip(spec, MomentWebSpec)

    # recovered from the default critical subweb, or from a drawn one
    # (foliations 1..n+1 and enough others, in a drawn order) moved to
    # the front of the web
    rest = data.draw(st.permutations(range(n + 2, d + 1)))[: (r + 1) * (n - 1) + 1 - n]
    front = data.draw(st.just([]) | st.permutations(list(range(1, n + 2)) + rest))
    order = front + [j for j in range(1, d + 1) if j not in front]
    _round_trip(recover_normal_form(subweb(moment_web(spec), order)), AdaptedStructure)

    entry = st.sampled_from(ROW_SCALES + [Fraction(0)])
    planes = []
    for _ in range(data.draw(st.integers(1, 4))):
        plane = Matrix(data.draw(st.lists(st.lists(entry, min_size=r + n, max_size=r + n),
                                          min_size=n - 1, max_size=n - 1)))
        assume(plane.rank() == n - 1)
        planes.append(plane)
    _round_trip(PlaneArrangement(r, n, planes), PlaneArrangement)


# values a corrupted document may hold in place of any of its parts
JUNK = st.sampled_from([None, True, 1.5, -1, 0, 7, "x", "1/0", "2/3", [], {}, [[]], ["1"]])
SMALL = st.sampled_from(["0", "1", "-1", "2", "1/2", "-2/3", 1, 0, 3])


def _paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def corrupted(draw, document):
    """``document`` with up to two parts replaced by junk, deleted or
    repeated; most draws leave it well formed."""
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        document = json.loads(json.dumps(document))
        path = draw(st.sampled_from(list(_paths(document))))
        junk = draw(JUNK)
        if not path:
            return junk
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        operation = draw(st.sampled_from(["replace", "delete", "repeat"]))
        if operation == "delete":
            del parent[path[-1]]
        elif operation == "repeat" and isinstance(parent, list):
            parent.insert(path[-1], parent[path[-1]])
        else:
            parent[path[-1]] = junk
    return document


@st.composite
def cli_inputs(draw) -> tuple[list[str], object]:
    """A command, its options and the document it reads: a moment web or a
    random web, a moment-web spec, points or a plane arrangement."""
    r, n = draw(st.sampled_from([(1, 2), (2, 2), (1, 3), (2, 3)]))
    kind = draw(st.sampled_from(["moment web", "web", "spec", "points", "arrangement"]))
    # about the critical order (r+1)(n-1)+2 that recover and canonical need
    critical = (r + 1) * (n - 1) + 2
    taus = draw(st.lists(st.sampled_from(["0", "1", "-1", "2", "1/2", "3", "-3/2", "5", "-2",
                                          "1/3", "4", "7/2"]),
                         min_size=critical - 1, max_size=critical + 2, unique=True))
    web_command = draw(st.sampled_from([["rank"], ["rank", "--allow-degenerate", "--paranoid"],
                                        ["pg"], ["recover"] if r > 1 else ["rank"], ["akivis"]]))
    if kind == "moment web":
        command = web_command + ["--web"]
        document = moment_web(MomentWebSpec(r, n, taus)).to_json()
    elif kind == "web":
        rows = st.lists(st.lists(SMALL, min_size=r * n, max_size=r * n), min_size=r, max_size=r)
        command = web_command + ["--web"]
        document = {"r": r, "n": n, "foliations": draw(st.lists(rows, min_size=1, max_size=6))}
    elif kind == "spec":
        command, document = ["canonical", "--moment"], {"r": r, "n": n, "taus": taus}
        if draw(st.booleans()):
            document["base_change"] = draw(invertible(r * n)).to_json()
    elif kind == "points":
        point = st.lists(SMALL, min_size=n, max_size=n)
        command = ["fit-rnc", "--points"]
        document = draw(st.one_of(
            st.lists(point, min_size=n + 2, max_size=2 * n + 4),
            st.just([[str(t**k) for k in range(n)] for t in map(Fraction, taus)])))
    else:
        plane = st.lists(st.lists(SMALL, min_size=r + n, max_size=r + n),
                         min_size=n - 1, max_size=n - 1)
        command = ["incidence", "--arrangement"]
        document = {"r": r, "n": n, "planes": draw(st.lists(plane, min_size=1, max_size=6))}
    return command, draw(corrupted(document))


def test_cli_exits_0_1_or_2_on_fuzzed_documents():
    """Nothing raises out of ``cli.main``: on every drawn document it exits
    0, or 1 or 2 with an empty stdout and a message.  Exits 0 and 1 each
    take more than a quarter of the draws, and exit 2 is reached too."""
    codes = []

    @seed(DEFAULT_SEED)
    @settings(max_examples=150, deadline=None, database=None)
    @given(cli_inputs())
    def check(command_and_document):
        command, document = command_and_document
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "in.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(command + [path])
        assert code in (0, 1, 2)
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith(("error: ", "degenerate: "))
        codes.append(code)

    check()
    assert codes.count(0) > len(codes) // 4 and codes.count(1) > len(codes) // 4
    assert codes.count(2) > len(codes) // 30
