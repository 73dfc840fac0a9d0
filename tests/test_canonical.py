from fractions import Fraction

import pytest

import oracle
from abelweb import (
    Matrix,
    MomentWebSpec,
    canonical_data,
    check_general_solution,
    dimension_formula,
    h_cutoff,
    lagrange_identity,
    q_of,
    rho_bound,
    solution_polynomial,
    vandermonde_weights,
)
from abelweb import abelian, canonical
from helpers import count_calls, draw, make_rng


def brute_force_weights(taus):
    """Direct linear solve of the moment system, as an independent oracle."""
    d = len(taus)
    system = Matrix([[Fraction(t) ** rho for t in taus] for rho in range(d)])
    rhs = [0] * (d - 1) + [1]
    return system.inverse().apply(rhs)


def _distinct(values):
    return len(set(values)) == len(values)


def test_weights_small_cases():
    assert vandermonde_weights([0, 1]) == (Fraction(-1), Fraction(1))
    assert vandermonde_weights([0, 1, 2]) == (
        Fraction(1, 2),
        Fraction(-1),
        Fraction(1, 2),
    )


def test_weights_match_linear_solve():
    rng = make_rng(18)
    for d in range(2, 11):
        taus = list(range(d))
        assert vandermonde_weights(taus) == brute_force_weights(taus)
        fancy = draw(lambda: [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d)],
                     _distinct, "distinct")
        assert vandermonde_weights(fancy) == brute_force_weights(fancy)
    with pytest.raises(ValueError):
        vandermonde_weights([1, 1])


def test_general_solution():
    z = check_general_solution(1, 2, [0, 1, 2], [1])
    assert z == (Fraction(1, 2), Fraction(-1), Fraction(1, 2))
    assert check_general_solution(1, 2, [0, 1, 2], [0]) == (0, 0, 0)
    rng = make_rng(19)
    r, n, d = 2, 2, 7
    taus = list(range(d))
    q = q_of(r, n, d)
    f = [rng.randint(-5, 5) for _ in range(q + 1)]
    z = check_general_solution(r, n, taus, f)
    # converse: interpolating the solution recovers the same polynomial
    stripped = list(map(Fraction, f))
    while stripped and stripped[-1] == 0:
        stripped.pop()
    assert list(solution_polynomial(r, n, taus, z)) == stripped
    with pytest.raises(ValueError):
        check_general_solution(1, 2, [0, 1, 2], [0, 0, 1])


def test_solution_polynomial_round_trip():
    r, n, d = 2, 2, 7
    taus = [Fraction(k, 2) for k in range(d)]
    f = [3, Fraction(-1, 2), 0, 2]
    z = check_general_solution(r, n, taus, f)
    recovered = solution_polynomial(r, n, taus, z)
    assert list(recovered) == [Fraction(c) for c in f]
    with pytest.raises(ValueError, match="moment system"):
        solution_polynomial(r, n, taus, [1] + [0] * (d - 1))


def test_solution_polynomial_needs_one_value_per_parameter():
    with pytest.raises(ValueError, match="^one value per parameter is required$"):
        solution_polynomial(1, 2, [0, 1, 2, 3], [1, 2, 3])


def test_lagrange_identity_constant():
    assert lagrange_identity([0, 1, 2], [1])


def test_lagrange_identity_sharpness():
    rng = make_rng(20)
    for d in range(3, 9):
        taus = draw(lambda: [Fraction(rng.randint(-15, 15)) for _ in range(d)],
                    _distinct, "distinct")
        for e in range(d):
            assert lagrange_identity(taus, [0] * e + [1])
        assert not lagrange_identity(taus, [0] * d + [1])


def test_dimension_formula_examples():
    assert dimension_formula(2, 3, 3) == 8
    assert rho_bound(2, 3, 9) == 8
    for r in range(1, 5):
        for n in range(2, 5):
            assert dimension_formula(r, n, n - 1) == r + n
    with pytest.raises(ValueError):
        dimension_formula(2, 3, 1)


def test_dimension_formula_identity_full_grid():
    for r in range(1, 6):
        for n in range(2, 6):
            for q in range(n - 1, 13):
                d = q + r * (n - 1) + 2
                assert dimension_formula(r, n, q) == rho_bound(r, n, d)


def test_canonical_data_moment_web():
    spec = MomentWebSpec(2, 3, list(range(8)))
    data = canonical_data(spec)
    assert data.q == 2
    assert data.N == rho_bound(2, 3, 8) - 1
    # displayed coordinate form of the points
    for tau, point in zip(spec.taus, data.points):
        lead = tuple(Fraction(tau) ** rho for rho in range(data.q + 1))
        assert point.coords[: data.q + 1] == lead
        assert all(c == 0 for c in point.coords[data.q + 1 :])
    # curve coefficients span a q-plane
    assert Matrix(data.curve_coeffs).rank() == data.q + 1
    # interpolation plus a fresh point off the configuration
    for tau, point in zip(spec.taus, data.points):
        assert data.point_at(tau) == point
    fresh = data.point_at(max(spec.taus) + 1)
    assert fresh not in data.points


def test_canonical_data_small_cases():
    for (r, n, d) in [(1, 2, 5), (2, 2, 7)]:
        spec = MomentWebSpec(r, n, list(range(d)))
        data = canonical_data(spec)
        assert data.q == q_of(r, n, d)
        assert data.N + 1 == rho_bound(r, n, d)
        assert len(set(data.points)) == d
        assert all(c != 0 for c in data.weights)


def test_canonical_data_respects_base_change():
    rng = make_rng(21)
    from helpers import random_invertible

    g = random_invertible(rng, 4)
    plain = canonical_data(MomentWebSpec(2, 2, list(range(6))))
    gauged = canonical_data(MomentWebSpec(2, 2, list(range(6)), g))
    assert plain.to_json() == gauged.to_json()


def test_canonical_data_json():
    data = canonical_data(MomentWebSpec(2, 2, list(range(6))))
    blob = data.to_json()
    assert blob["N"] == data.N
    assert blob["q"] == data.q
    assert len(blob["points"]) == 6
    assert len(blob["curve"]) == data.q + 1


def test_canonical_data_reads_the_chain_and_builds_no_relation_element(monkeypatch):
    """Each degree below the cutoff is verified once, on the chain's integer
    kernel vectors: with ``relation_space`` and the relation constructors
    made to raise, canonical data are the same, on (2,2,8) and on the
    (3,2,10) spec under a dense base change."""
    base = Matrix([[2, 1, -1, 3, 1, 1], [1, -1, 2, 1, 1, 3], [3, 2, 1, 1, -2, 1],
                   [3, 1, 1, -1, 2, 2], [1, 2, -3, 2, 1, 1], [2, 2, 1, 1, 3, -1]])
    specs = [MomentWebSpec(2, 2, range(8)), MomentWebSpec(3, 2, range(10), base)]
    expected = [canonical_data(spec).to_json() for spec in specs]
    assert expected[0] == oracle.canonical_data(specs[0]).to_json()

    def unused(*args):
        raise AssertionError("canonical_data builds no relation element")

    for module in (abelian, canonical):
        monkeypatch.setattr(module, "relation_space", unused, raising=False)
    for name in ("__init__", "_of_verified"):
        monkeypatch.setattr(abelian.RelationBasisElement, name, unused)
    calls = count_calls(monkeypatch, abelian._verify_relation)
    for spec, data in zip(specs, expected):
        calls.clear()
        assert canonical_data(spec).to_json() == data
        cutoff = h_cutoff(spec.r, spec.n, len(spec.taus))
        assert [h for _, h, _ in calls] == list(range(cutoff))
