"""Mutants of the library that the tests must kill, kept as a table.

Each row names a module of ``abelweb``, a snippet of its source that
must occur exactly once, the snippet's replacement, and the check that
kills the mutant.  The mutated source is compiled into a fresh module
object named like the original and placed in the ``abelweb`` package, so
its relative imports bind the real modules; nothing in ``sys.modules``
is replaced, and the mutant's functions call each other.

A check compares the outcome of a library call with the oracle: the
value it returns, or the error it raises.  A mutant is killed when the
check fails on it, either by an oracle mismatch (``AssertionError``) or
by the library's own ``InternalContradictionError``; every check ends
in bounded time.  Each check also passes on the unmutated library.
"""

import importlib
import types
from fractions import Fraction

import pytest

import oracle
from abelweb import Matrix, MomentWebSpec, h_cutoff, moment_web
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


def _canonical_data(canonical):
    spec = MomentWebSpec(2, 2, range(6))
    expected = oracle.canonical_data(spec).to_json()
    assert _outcome(lambda: canonical.canonical_data(spec).to_json()) == ("value", expected)


def _recovery(grassmann):
    web = moment_web(MomentWebSpec(2, 2, range(6)))
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


def _kernel(exactalg):
    # the pivot-0 row meets pivot 1 only; reducing it there by the
    # pivot-1 row, not yet reduced, fills in at pivot 2
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 3: 1, 4: 1}, {0: 2, 3: -1, 4: 5}]
    matrix = Matrix([[row.get(c, 0) for c in range(5)] for row in rows])
    expected = [(1, {c: int(x) for c, x in enumerate(vec) if x})
                for vec in oracle.kernel_basis(matrix)]
    assert _outcome(lambda: exactalg.certified_kernel(rows, 5)) == ("value", expected)


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
