"""Mutants of the library that the tests must kill, kept as a table.

Each row names a module of ``abelweb``, a snippet of its source that
must occur exactly once, the snippet's replacement, and the check that
kills the mutant.  The mutated source is compiled into a fresh module
object named like the original and placed in the ``abelweb`` package, so
its relative imports bind the real modules; nothing in ``sys.modules``
is replaced, and the mutant's functions call each other.

A check compares the outcome of a library call with the oracle: the
value it returns, or the error it raises, or the exit code of a CLI
command.  A mutant is killed when the check fails on it,
either by an oracle mismatch (``AssertionError``) or by the library's
own ``InternalContradictionError``; every check ends in bounded time.
Each check also passes on the unmutated library.
"""

import contextlib
import importlib
import io
import json
import math
import os
import tempfile
import types
from fractions import Fraction
from unittest import mock

import pytest

import oracle
from abelweb import ConstantFoliation, ConstantWeb, Matrix, MomentWebSpec, h_cutoff, moment_web
from abelweb import abelian, cli
from abelweb.errors import InternalContradictionError


def _outcome(call):
    """``("value", result)`` or ``("raised", error)`` of ``call()``; an
    ``InternalContradictionError`` propagates, as it kills on its own."""
    try:
        return "value", call()
    except InternalContradictionError:
        raise
    except Exception as exc:
        return "raised", f"{type(exc).__name__}: {exc}"


def _weights(canonical):
    # every Q_j vanishes at the other taus, so a wrong pairing divides by 0
    for taus in ([0, 1, 2], [Fraction(-1, 2), 0, 3, Fraction(5, 3)]):
        taus = [Fraction(t) for t in taus]
        expected = tuple(oracle.vandermonde_weights(taus))
        assert _outcome(lambda: canonical.vandermonde_weights(taus)) == ("value", expected)


def _general_solution(canonical):
    r, n, taus, f = 2, 2, [Fraction(t) for t in range(-2, 5)], [3, Fraction(-1, 2), 0, 2]
    weights = oracle.vandermonde_weights(taus)
    z = tuple(w * sum(c * t**e for e, c in enumerate(f)) for w, t in zip(weights, taus))
    assert _outcome(lambda: canonical.check_general_solution(r, n, taus, f)) == ("value", z)
    assert _outcome(lambda: canonical.solution_polynomial(r, n, taus, z)) == ("value", tuple(f))


# taus whose reversal is no affine map of them: some c_j tau_(d+1-j)^rho
# is c_j f(tau_j) for no f of degree <= q, so it is not a relation
_SKEWED_SPEC = MomentWebSpec(2, 2, [0, 1, 3, Fraction(-1, 2), 4, 7])


def _canonical_data(canonical):
    for spec in (MomentWebSpec(2, 2, range(6)), _SKEWED_SPEC):
        expected = oracle.canonical_data(spec).to_json()
        assert _outcome(lambda: canonical.canonical_data(spec).to_json()) == ("value", expected)


def _recovery(grassmann):
    web = moment_web(MomentWebSpec(2, 2, range(6)))
    expected = oracle.recover_normal_form(web).to_json()
    assert _outcome(lambda: grassmann.recover_normal_form(web).to_json()) == ("value", expected)


def _rational_recovery(grassmann):
    # the first foliation's rows mixed: the kappas' lcm L is 18, and the
    # R(1) denominators den_a are 32 and 64
    spec = MomentWebSpec(2, 2, [Fraction(t, 2) for t in range(-2, 4)], Matrix(
        [[1, "1/2", 0, 2], [0, 1, 1, 0], [2, 0, "1/3", 1], [0, 3, 0, 1]]))
    first, *rest = moment_web(spec).foliations
    mixed = ConstantFoliation(2, 2, Matrix([[1, "2/3"], [-1, 2]]) * first.matrix)
    web = ConstantWeb(2, 2, [mixed, *rest])
    expected = oracle.recover_normal_form(web).to_json()
    assert _outcome(lambda: grassmann.recover_normal_form(web).to_json()) == ("value", expected)


def _akivis(grassmann):
    web = moment_web(MomentWebSpec(2, 2, range(6), Matrix(
        [[1, 1, 0, 2], [0, 1, 1, 0], [2, 0, 1, 1], [0, 3, 0, 1]])))
    r, n, foliations = web.r, web.n, web.foliations[: web.n + 1]
    basis = grassmann.akivis_structure(foliations)
    blocks = [oracle.rref(Matrix([basis.row(a * n + alpha) for a in range(r)]))
              for alpha in range(n)]
    sums = oracle.rref(Matrix([[sum(c) for c in zip(*(basis.row(a * n + alpha)
                                                      for alpha in range(n)))]
                               for a in range(r)]))
    assert blocks + [sums] == [oracle.rref(f.matrix) for f in foliations]


def _rank_report(abelian):
    web = moment_web(MomentWebSpec(1, 2, range(5)))
    dims = []
    for h in range(h_cutoff(web.r, web.n, web.d)):
        matrix = oracle.relation_matrix(web, h)
        dims.append(matrix.cols - oracle.rank(matrix))
    report = abelian.total_rank(web)
    assert [report.dim(h) for h in range(-1, len(dims) + 1)] == [0] + dims + [0]
    assert report.semi_extremal is True


def _oracle_kernel(rows, ncols):
    """``oracle.kernel_basis`` of sparse integer rows, as ``(den, vec)`` pairs."""
    basis = []
    for vector in oracle.kernel_basis(Matrix([[row.get(c, 0) for c in range(ncols)]
                                              for row in rows])):
        den = math.lcm(*(x.denominator for x in vector))
        basis.append((den, {c: int(x * den) for c, x in enumerate(vector) if x}))
    return basis


def _kernel(exactalg):
    # the pivot-0 row meets pivot 1 only; reducing it there by the
    # pivot-1 row, not yet reduced, fills in at pivot 2
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 3: 1, 4: 1}, {0: 2, 3: -1, 4: 5}]
    assert _outcome(lambda: exactalg.certified_kernel(rows, 5)[1]) == (
        "value", _oracle_kernel(rows, 5))


def _reduction(exactalg):
    # the first row's pivot entry is 2, so the second row is scaled by 2
    # before 3 times the first is taken off; the third row's kernel vector
    # (-2, 1, 0) has the denominator 2 / gcd(-4, 2) = 1
    for rows, ncols in (([{0: 2, 1: 1, 2: 1}, {0: 3, 1: 1, 2: 2}], 3),
                        ([{0: 2, 1: 4, 2: 1}], 3)):
        assert _outcome(lambda: exactalg.certified_kernel(rows, ncols)[1]) == (
            "value", _oracle_kernel(rows, ncols))


def _faulty_back_pass(exactalg):
    # with the back pass skipped, the read-out misses the entries at later
    # pivots: the (2,2,6) moment web would report dim R(1) = 2, not 4, so
    # only the packed check keeps ``rank`` from exit 0
    web = moment_web(MomentWebSpec(2, 2, range(6)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "web.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(web.to_json(), handle)
        with mock.patch.object(exactalg, "_back_substitute", lambda echelon: None), \
                mock.patch.object(abelian, "certified_kernel", exactalg.certified_kernel), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["rank", "--web", path])
    assert code == 3


def _packed_batches(exactalg):
    # dx, dy, d(x - y) in the plane: every cleared normal entry is at most 1,
    # so at h = 0 the bound is the largest |w_k|_1, here 8, and bits = 4;
    # neither batch is a relation, and each cancels to zero if its second
    # vector is packed at bits 3 or at the first one's offset
    web = ConstantWeb(1, 2, [ConstantFoliation(1, 2, Matrix([row]))
                             for row in ([1, 0], [0, 1], [1, -1])])
    for batch in ([(1, {0: 8}), (1, {0: -1})], [(1, {0: 1}), (1, {0: -1})]):
        with mock.patch.object(abelian, "_packed", exactalg._packed):
            try:
                abelian._verify_relation(web, 0, batch)
            except InternalContradictionError:
                continue
        raise AssertionError(f"{batch} passed as relations")
    abelian._verify_relation(web, 0, [(1, {0: 1, 1: -1, 2: -1})])


def _inverse(exactalg):
    # the columns of the inverse, (1/2, 0) and (-1/6, 1/3), have two
    # denominators; the second matrix is held as integers over den = 2
    for rows in ([[2, 1], [0, 3]], [[1, "1/2"], [0, 3]]):
        expected = oracle.inverse(Matrix(rows))
        assert [list(row) for row in exactalg.Matrix(rows).inverse().entries] == expected


def _det(exactalg):
    # the first two find their first pivot below the first row: one swap,
    # so the sign of D flips once; the last is singular
    for rows in ([[0, 1], [1, 0]], [[0, 2, 1], [1, 1, 0], [3, 0, "1/2"]], [[0, 1], [0, 2]]):
        expected = oracle.det(Matrix(rows))
        assert _outcome(lambda: exactalg.Matrix(rows).det()) == ("value", expected)


def _rref(exactalg):
    # the second step of the first matrix divides by the first pivot 2,
    # and its free column keeps both rows non-zero there
    for rows in ([[2, 1, 1], [1, 3, 0]], [[3, "1/2", 1, 2], [1, 2, 0, "-1/3"], [4, 1, 1, 1]]):
        expected = oracle.rref(Matrix(rows))
        assert _outcome(lambda: exactalg.Matrix(rows).rref()) == ("value", expected)


def _value_equality(exactalg):
    # a value never equals an object of another type, and raises nothing
    assert _outcome(lambda: exactalg.Matrix([[1]]) == object()) == ("value", False)


def _matrix_key(exactalg):
    # equal matrices hold equal (den, ints): the product 6/2 is stored as 3/1
    product = exactalg.Matrix([[1, "1/2"]]) * exactalg.Matrix([[2], [2]])
    assert product == exactalg.Matrix([[3]]) and (product.den, product.ints) == (1, ((3,),))


def _matrix_json(exactalg):
    row = [Fraction(1, 2), Fraction(1, 4), Fraction(1), Fraction(-6, 4)]
    assert exactalg.Matrix([row]).to_json() == [[str(x) for x in row]]


def _web_type(webcore):
    error = ("raised", "ValueError: web type requires r >= 1, n >= 2, d >= 1, "
             "got r = 2, n = 2, d = 0")
    assert _outcome(lambda: webcore.ConstantWeb(2, 2, [])) == error
    assert _outcome(lambda: webcore.rho_bound(2, 2, 0)) == error


def _foliation_key(webcore):
    # one foliation: the second matrix is the first with its rows mixed
    first = webcore.ConstantFoliation(2, 2, Matrix([[1, 0, 2, 0], [0, 1, 0, 3]]))
    mixed = webcore.ConstantFoliation(2, 2, Matrix([[1, 1, 2, 3], [2, 1, 4, 3]]))
    assert (first == mixed, hash(first) == hash(mixed)) == (True, True)


def _poly_key(multilinear):
    assert multilinear.HomogeneousPoly(2, 1) != multilinear.HomogeneousPoly(2, 2)


def _fit(grassmann):
    # conics of P^2: point 4 is [1 : 1/2 : 1/4], so L_(n+1) = 4, and the
    # fit needs no rescaling (c = 1); the last point moved off the curve;
    # t = 0..4 on P^1 puts point 3 at parameter infinity, so c = 2
    conic = [grassmann.moment_point(3, t) for t in (0, 1, 2, Fraction(1, 2), 3, -1)]
    moved = conic[:5] + [grassmann.ProjectivePoint([1, 1, 7])]
    line = [grassmann.ProjectivePoint([1, t]) for t in range(5)]
    for points in (conic, moved, line):
        expected = _outcome(lambda: oracle.fit_rnc(points).to_json())
        assert _outcome(lambda: grassmann.fit_rnc(points).to_json()) == expected


def _point_sign(grassmann):
    # the lead -2 is negative; the canonical form has den = 1 > 0
    expected = [str(c) for c in oracle.projective_coords([-2, 4])]
    point = grassmann.ProjectivePoint([-2, 4])
    assert (point.to_json(), point.den) == (expected, 1)
    assert point == grassmann.ProjectivePoint([1, -2])


def _plane_rank(incidence):
    # plane 1's xi-block has rank 1 but its forms are independent; plane 2
    # of the second arrangement has dependent forms
    low = Matrix([[1, 1, 2, 3], [0, 2, 4, 6]])
    transverse = Matrix([[0, 1, 0, -1], [1, 0, 1, 0]])
    dependent = Matrix([[1, 1, 2, 3], [2, 2, 4, 6]])
    outcomes = [
        _outcome(lambda: incidence.tangent_incidence_web(incidence.PlaneArrangement(1, 3, planes)))
        for planes in ([low, transverse], [transverse, dependent])
    ]
    assert outcomes == [
        ("raised", "DegenerateWebError: arrangement not in general position w.r.t. base "
                   "plane: plane 1 meets it in a 2-dimensional set"),
        ("raised", "ValueError: plane 2 forms are not independent"),
    ]


def _pairing(webcore):
    # (1,2,4): foliations 2 and 4 are parallel, so pair (2,4) fails after
    # (1,2), (1,3), (1,4), (2,3) pass, and a pair read at another offset is
    # reported wrong; (2,2,3) and (3,2,3) are PG
    webs = [
        ConstantWeb(1, 2, [ConstantFoliation(1, 2, Matrix([row]))
                           for row in ([1, 2], [3, -1], [0, 1], [6, -2])]),
        ConstantWeb(2, 2, [ConstantFoliation(2, 2, Matrix(rows)) for rows in (
            [[1, 0, 2, -1], [0, "1/2", 1, 3]], [[2, 1, 0, 1], [1, 1, 1, 0]],
            [[0, 3, 1, 1], [1, 0, -1, 2]])]),
        moment_web(MomentWebSpec(3, 2, range(3))),
    ]
    for web in webs:
        r, lcm = web.r, web.cleared_kappas()[1]
        expected = [lcm ** (2 * r) * oracle.det(Matrix([*web.foliations[i].matrix.entries,
                                                         *web.foliations[j].matrix.entries]))
                    for i in range(web.d) for j in range(i + 1, web.d)]
        assert _outcome(lambda: [value for _, value in webcore._pairings(
            r, web.cleared_normals())]) == (
            "value", expected)
        assert _outcome(lambda: webcore.check_pg(web)) == ("value", oracle.check_pg(web))


def _projection(webcore):
    # (1,3,5): f4 = f2 + 2 f3, so the triple (2,3,4) fails and no triple
    # with foliation 1 does; (1,4,6): f6 = f2 - f3 + f5, so the quadruple
    # (2,3,5,6) fails, after its prefix (2,3) was projected along; and a
    # PG (2,3,4) web
    webs = [
        ConstantWeb(1, 3, [ConstantFoliation(1, 3, Matrix([row])) for row in (
            [1, 2, 3], [2, -1, 1], [1, 1, -2], [4, 1, -3], [1, -3, 2])]),
        ConstantWeb(1, 4, [ConstantFoliation(1, 4, Matrix([row])) for row in (
            [1, 2, 3, 1], [2, -1, 1, 3], [1, 1, -2, 2], [3, 1, 4, -1], [1, -3, 2, 2],
            [2, -5, 5, 3])]),
        ConstantWeb(2, 3, [ConstantFoliation(2, 3, Matrix(rows)) for rows in (
            [[1, 2, 0, 1, 3, -1], [0, 1, 1, 2, -1, 1]], [[2, 0, 1, 1, 0, 3], [1, -1, 2, 0, 1, 1]],
            [[0, 1, 3, -1, 2, 1], [1, 1, 0, 2, 2, 0]],
            [[3, 1, 1, 0, -2, 1], [2, 2, 1, 1, 0, -1]])]),
    ]
    for web in webs:
        assert _outcome(lambda: webcore.check_pg(web)) == ("value", oracle.check_pg(web))


def _minors_sweep(exactalg):
    for rows, n in (([[1, 0, 2], [0, 1, 3]], 3), ([[2, -1, 0, 3], [1, 1, 4, 0], [0, 5, 1, 1]], 4)):
        expected = oracle.wedge_rows(rows).coeffs
        assert _outcome(lambda: {s: v for s, v in exactalg._minors(rows, n).items() if v}) == (
            "value", expected)


def _bound_guard(abelian):
    # a kernel with one vector too many on the saturated (1,2,5) moment
    # web: dim R(0) = 4 > 3 must be refused as a contradiction
    web = moment_web(MomentWebSpec(1, 2, range(5)))
    real = abelian.certified_kernel

    def one_too_many(rows, ncols):
        reduced, basis = real(rows, ncols)
        return reduced, basis + [(1, {0: 1})]

    with mock.patch.object(abelian, "certified_kernel", one_too_many):
        try:
            outcome = _outcome(lambda: abelian.total_rank(web).to_json())
        except InternalContradictionError as exc:
            outcome = ("contradiction", str(exc))
    assert outcome == ("contradiction", "dim R(0) = 4 exceeds the proven bound 3 for a "
                                        "general-position web of type (1,2), d=5")


def _prolongation(abelian):
    # the (2,2,6) moment web under a base change with foliation 1's rows
    # mixed, which is PG, and the same web with that mixed foliation
    # appended as a seventh, which fails PG.  Wrong prolonged rows let
    # too many vectors through: on the PG web R(1) exceeds its bound, and
    # the other web, which has no bound, gets dims above the oracle's
    # whose vectors fail their verification
    web = moment_web(MomentWebSpec(2, 2, range(6), Matrix(
        [[1, 1, 0, 2], [0, 1, 1, 0], [2, 0, 1, 1], [0, 3, 0, 1]])))
    first, *rest = web.foliations
    mixed = ConstantFoliation(2, 2, Matrix([[1, 2], [-1, 1]]) * first.matrix)
    for web, degenerate in ((ConstantWeb(2, 2, [mixed, *rest]), False),
                            (ConstantWeb(2, 2, [first, *rest, mixed]), True)):
        dims = []
        for h in range(h_cutoff(web.r, web.n, web.d)):
            matrix = oracle.relation_matrix(web, h)
            dims.append(matrix.cols - oracle.rank(matrix))
        assert _outcome(lambda: [len(abelian.relation_space(web, h, degenerate))
                                 for h in range(len(dims))]) == ("value", dims)


MUTANTS = {
    "weights-pair-the-next-tau": (
        "canonical",
        "zip(_cofactors(taus), taus))",
        "zip(_cofactors(taus), taus[1:] + taus[:1]))",
        _weights,
    ),
    "general-solution-pairs-the-next-tau": (
        "canonical",
        "z = tuple(c * _poly_eval(f, t) for c, t in zip(weights, taus))",
        "z = tuple(c * _poly_eval(f, t) for c, t in zip(weights, taus[1:] + taus[:1]))",
        _general_solution,
    ),
    "interpolation-drops-the-values": (
        "canonical",
        "total[e] += v * c",
        "total[e] += c",
        _canonical_data,
    ),
    "designated-powers-pair-the-reversed-taus": (
        "canonical",
        "for c, t in zip(weights, spec.taus)]",
        "for c, t in zip(weights, spec.taus[::-1])]",
        _canonical_data,
    ),
    "recovery-reads-inverse-rows": (
        "grassmann",
        "list(zip(*inverse.ints))",
        "list(inverse.ints)",
        _recovery,
    ),
    "akivis-drops-a-block-column": (
        "grassmann",
        "row[alpha * r : (alpha + 1) * r]",
        "row[alpha * r : (alpha + 1) * r - 1]",
        _akivis,
    ),
    "rank-report-dim-off-by-one": (
        "abelian",
        "return self.dims[h] if",
        "return self.dims[h - 1] if",
        _rank_report,
    ),
    "back-phase-from-the-first-pivot": (
        "exactalg",
        "for q in sorted(echelon, reverse=True):",
        "for q in sorted(echelon):",
        _kernel,
    ),
    "reduction-without-the-a/g-scaling": (
        "exactalg",
        "    if a != 1:\n        for c in row:\n            row[c] *= a\n",
        "",
        _reduction,
    ),
    "read-out-den-without-the-gcd": (
        "exactalg",
        "abs(a) // math.gcd(b, a)",
        "abs(a)",
        _reduction,
    ),
    "packed-check-disabled": (
        "exactalg",
        "if any(sum(a * packed[j] for j, a in row.items()) for row in rows):",
        "if False:",
        _faulty_back_pass,
    ),
    "packed-bits-one-too-small": (
        "exactalg",
        "    bits = bound.bit_length()\n",
        "    bits = bound.bit_length() - 1\n",
        _packed_batches,
    ),
    "two-vectors-packed-at-one-offset": (
        "exactalg",
        "packed[j] += w << (k * bits)",
        "packed[j] += w << (max(k - 1, 0) * bits)",
        _packed_batches,
    ),
    "store-without-the-gcd": (
        "exactalg",
        "g = math.gcd(den, *itertools.chain.from_iterable(ints))",
        "g = 1",
        _matrix_key,
    ),
    "format-not-in-lowest-terms": (
        "exactalg",
        "g = math.gcd(a, den)",
        "g = 1",
        _matrix_json,
    ),
    "inverse-without-the-lcm-factor": (
        "exactalg",
        "*(self.den * (i == j) for j in range(n))",
        "*(int(i == j) for j in range(n))",
        _inverse,
    ),
    "echelon-swap-without-the-sign-flip": (
        "exactalg",
        "            sign = -sign\n",
        "",
        _det,
    ),
    "echelon-divides-by-the-new-pivot": (
        "exactalg",
        "// previous for x, y in zip(row, pivot)",
        "// a for x, y in zip(row, pivot)",
        _rref,
    ),
    "value-equality-without-the-type-test": (
        "exactalg",
        "return isinstance(other, type(self)) and self._key() == other._key()",
        "return self._key() == other._key()",
        _value_equality,
    ),
    "web-type-accepts-no-foliations": (
        "webcore",
        "if r < 1 or n < 2 or d < 1:",
        "if r < 1 or n < 2 or d < 0:",
        _web_type,
    ),
    "foliation-key-without-the-row-span": (
        "webcore",
        "return self.r, self.n, self.row_span()",
        "return self.r, self.n, self.matrix",
        _foliation_key,
    ),
    "poly-key-without-the-degree": (
        "multilinear",
        "return self.nvars, self.degree, frozenset(self.coeffs.items())",
        "return self.nvars, frozenset(self.coeffs.items())",
        _poly_key,
    ),
    "recovery-rows-without-L": (
        "grassmann",
        "scales.append(den * lcm)",
        "scales.append(den)",
        _rational_recovery,
    ),
    "recovery-rows-without-den_a": (
        "grassmann",
        "scales.append(den * lcm)",
        "scales.append(lcm)",
        _rational_recovery,
    ),
    "recovery-basis-off-the-last-foliations": (
        "grassmann",
        "take_subweb(web, range(1, d0 + 1))",
        "take_subweb(web, range(d - d0 + 1, d + 1))",
        _recovery,
    ),
    "fit-cramer-check-on-rows-i-and-j-only": (
        "grassmann",
        "for a, b, c in zip(za, zb, z)",
        "for a, b, c in ((za[i], zb[i], z[i]), (za[j], zb[j], z[j]))",
        _fit,
    ),
    "fit-transform-without-L": (
        "grassmann",
        "[[den * (lcm // u_i) * x for x in row]",
        "[[(lcm // u_i) * x for x in row]",
        _fit,
    ),
    "fit-c-search-from-2": (
        "grassmann",
        "c = 1\n    while any(c * x + y == 0",
        "c = 2\n    while any(c * x + y == 0",
        _fit,
    ),
    "point-without-the-lead-sign-fix": (
        "grassmann",
        "        if lead < 0:\n            g = -g\n",
        "",
        _point_sign,
    ),
    "arrangement-rejects-without-the-rank-fallback": (
        "incidence",
        "if not any(kernels[-1]) and plane.rank() != n - 1:",
        "if not any(kernels[-1]):",
        _plane_rank,
    ),
    "arrangement-accepts-without-the-rank-fallback": (
        "incidence",
        "if not any(kernels[-1]) and plane.rank() != n - 1:",
        "if False:",
        _plane_rank,
    ),
    "pairing-sign-flipped-once": (
        "webcore",
        "(-1) ** (sum(t) + r * (r + 1) // 2)",
        "(-1) ** (sum(t) + r * (r + 1) // 2 + (t == tuple(range(r))))",
        _pairing,
    ),
    "pairing-reads-N_i-at-T": (
        "webcore",
        "reversed(values)",
        "values",
        _pairing,
    ),
    "empty-prefix-pair-offset-by-one": (
        "webcore",
        "start = prefix[-1] + 1 if prefix else 0",
        "start = prefix[-1] + 1 if prefix else 1",
        _pairing,
    ),
    "kernel-vector-with-one-sign-flipped": (
        "webcore",
        "vector = [-row[f] for row in rows] + [D]",
        "vector = [-row[f] for row in rows] + [-D]",
        _projection,
    ),
    "projection-along-the-first-later-foliation": (
        "webcore",
        "kernel = _kernel(rows[j])",
        "kernel = _kernel(rows[min(rows)])",
        _projection,
    ),
    "minors-table-without-its-sign": (
        "exactalg",
        "((-1) ** (k - 1 + t), c, position[s[:t] + s[t + 1 :]])",
        "(1, c, position[s[:t] + s[t + 1 :]])",
        _minors_sweep,
    ),
    "derivative-factor-m_i-not-m_i-plus-1": (
        "abelian",
        "]], m[i] + 1)",
        "]], m[i])",
        _prolongation,
    ),
    "prolonged-weights-drop-the-pivot-entry": (
        "abelian",
        "for _, weight in sorted(lower.items()):",
        "for q, weight in sorted(lower.items()):\n"
        "        weight = {t: w for t, w in weight.items() if t != q}",
        _prolongation,
    ),
    "relation-kernel-without-the-bound-guard": (
        "abelian",
        "if web.is_pg() and len(chain[h].basis) > bound:",
        "if False:",
        _bound_guard,
    ),
}


def _mutant(module: str, snippet: str, replacement: str) -> types.ModuleType:
    real = importlib.import_module(f"abelweb.{module}")
    with open(real.__file__, encoding="utf-8") as handle:
        source = handle.read()
    assert source.count(snippet) == 1, f"{module}: snippet occurs {source.count(snippet)} times"
    mutant = types.ModuleType(real.__name__)
    mutant.__package__ = "abelweb"
    exec(compile(source.replace(snippet, replacement), real.__file__, "exec"), mutant.__dict__)
    return mutant


@pytest.mark.parametrize("name", MUTANTS)
def test_check_passes_on_the_library(name):
    module, _, _, check = MUTANTS[name]
    check(importlib.import_module(f"abelweb.{module}"))


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name):
    module, snippet, replacement, check = MUTANTS[name]
    mutant = _mutant(module, snippet, replacement)
    with pytest.raises((AssertionError, InternalContradictionError)):
        check(mutant)


def test_designated_powers_off_R0_exit_3_at_the_degree_0_span_check():
    """A degree-0 block outside R(0) is refused by the rank check against
    the verified basis of R(0), before any point is read off it."""
    mutant = _mutant(*MUTANTS["designated-powers-pair-the-reversed-taus"][:3])
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_SKEWED_SPEC.to_json(), handle)
        with mock.patch.object(cli, "canonical_data", mutant.canonical_data), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["canonical", "--moment", path])
    assert (code, out.getvalue()) == (3, "")
    assert err.getvalue() == ("internal contradiction: degree-0 kernel basis fails to "
                              "complete the designated relations\n")
