"""Homogeneous polynomials and the exterior algebra of a dual space.

Two fixed orders are used in every serialized basis so that artifacts
compare bit-exactly across runs:

* monomials of a fixed degree are listed in graded lexicographic order,
  i.e. exponent tuples sorted lexicographically with the first variable
  dominant ((h,0,...,0) first);
* basis k-forms are indexed by strictly increasing index subsets listed
  in colexicographic order (compare largest elements first).

Indices are 0-based throughout the in-memory API.

Polynomial multiplication (:func:`_multiply`, in integers) is naive
convolution; every degree in scope is tiny, so exactness and simplicity
win over clever algorithms.

:class:`ExteriorForm` holds a k-form by index subset.  The package
computes every form it returns as maximal minors (``exactalg._minors``),
so :func:`wedge` has no caller here: it is the product of the test
oracle and one of the names the benchmark tracer wraps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .exactalg import _clear_denominators, binomial, index_subsets, rational


@lru_cache(maxsize=None)
def monomial_exponents(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, in graded-lex order."""
    if nvars == 0:
        return ((),) if degree == 0 else ()
    if nvars == 1:
        return ((degree,),)
    result = []
    for first in range(degree, -1, -1):
        for rest in monomial_exponents(nvars - 1, degree - first):
            result.append((first,) + rest)
    return tuple(result)


@lru_cache(maxsize=None)
def monomial_position(nvars: int, degree: int) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(monomial_exponents(nvars, degree))}


class HomogeneousPoly:
    """A homogeneous polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars: int, degree: int, coeffs: Mapping | None = None):
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for expo, c in (coeffs or {}).items():
            expo = tuple(expo)
            c = rational(c)
            if len(expo) != nvars or sum(expo) != degree or min(expo, default=0) < 0:
                raise ValueError(f"bad exponent {expo} for degree {degree}")
            if c != 0:
                cleaned[expo] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("HomogeneousPoly is immutable")

    @classmethod
    def constant(cls, nvars: int, value) -> "HomogeneousPoly":
        return cls(nvars, 0, {(0,) * nvars: rational(value)})

    def coefficient(self, expo: Sequence[int]) -> Fraction:
        return self.coeffs.get(tuple(expo), Fraction(0))

    def vector(self) -> tuple[Fraction, ...]:
        """Coefficients in the fixed graded-lex monomial order."""
        return tuple(
            self.coeffs.get(e, Fraction(0))
            for e in monomial_exponents(self.nvars, self.degree)
        )

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogeneousPoly)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.degree, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*x^{e}" for e, c in sorted(self.coeffs.items()))
        return f"HomogeneousPoly({terms or '0'})"


def poly_space_dim(nvars: int, degree: int) -> int:
    return binomial(nvars - 1 + degree, nvars - 1)


def _multiply(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    """Product of two integer polynomials keyed by monomial code (see :func:`_expand`)."""
    out: dict[int, int] = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return out


def _expand(
    coeffs: Mapping[tuple[int, ...], int], forms: Sequence[Sequence[int]], degree: int
) -> dict[int, int]:
    """sum_e coeffs[e] * prod_i forms[i]^e_i, over the integers.

    ``coeffs`` maps exponent tuples of total degree ``degree``, one
    exponent per form, to integers; the forms are integer covectors on
    one space.  A monomial x^m of the result is keyed by its code
    sum_v m_v * (degree + 1)^v, so multiplying monomials adds codes.
    Each power of a form is expanded once per call.  Entries that cancel
    to 0 are kept.
    """
    step = degree + 1
    powers = [[{0: 1}, {step**v: a for v, a in enumerate(form) if a}] for form in forms]
    total: dict[int, int] = {}
    for expo, c in coeffs.items():
        term = {0: c}
        for i, e in enumerate(expo):
            if e:
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(_multiply(cache[-1], cache[1]))
                term = _multiply(term, cache[e])
        for code, v in term.items():
            total[code] = total.get(code, 0) + v
    return total


def substitute(poly: HomogeneousPoly, forms: Sequence[Sequence]) -> HomogeneousPoly:
    """Pull a polynomial back along linear forms.

    Substitutes ``forms[i]`` (a covector on the target space) for the
    i-th variable of ``poly``; the result is homogeneous of the same
    degree in ``len(forms[0])`` variables.  The forms are cleared by the
    lcm L of their denominators and the coefficients by theirs, D; the
    integer expansion (:func:`_expand`) is divided once by L^degree * D.
    """
    if len(forms) != poly.nvars:
        raise ValueError("one linear form per variable is required")
    ints, den = _clear_denominators(forms)
    nvars = len(ints[0]) if ints else 0
    if any(len(f) != nvars for f in ints):
        raise ValueError("forms live on different spaces")
    (values,), scale = _clear_denominators([poly.coeffs.values()])
    scale *= den**poly.degree
    step = poly.degree + 1
    coeffs = {}
    for code, v in _expand(dict(zip(poly.coeffs, values)), ints, poly.degree).items():
        if v:
            expo = []
            for _ in range(nvars):
                code, e = divmod(code, step)
                expo.append(e)
            coeffs[tuple(expo)] = Fraction(v, scale)
    return HomogeneousPoly(nvars, poly.degree, coeffs)


@lru_cache(maxsize=None)
def subset_position(ambient_dim: int, grade: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(index_subsets(ambient_dim, grade))}


def _merge_sign(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Sign of the permutation sorting the concatenation a + b."""
    inversions = sum(1 for x in a for y in b if x > y)
    return -1 if inversions % 2 else 1


class ExteriorForm:
    """An element of Lambda^k of an N-dimensional dual space."""

    __slots__ = ("ambient_dim", "grade", "coeffs")

    def __init__(self, ambient_dim: int, grade: int, coeffs: Mapping | None = None):
        if grade < 0 or grade > ambient_dim:
            raise ValueError("grade exceeds ambient dimension")
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for subset, c in (coeffs or {}).items():
            subset = tuple(subset)
            c = rational(c)
            if len(subset) != grade or list(subset) != sorted(set(subset)):
                raise ValueError(f"bad index subset {subset}")
            if subset and (subset[0] < 0 or subset[-1] >= ambient_dim):
                raise ValueError(f"index out of range in {subset}")
            if c != 0:
                cleaned[subset] = c
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("ExteriorForm is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, subset: Sequence[int]) -> Fraction:
        return self.coeffs.get(tuple(subset), Fraction(0))

    def vector(self) -> tuple[Fraction, ...]:
        """Coefficients in the fixed colex subset order."""
        return tuple(
            self.coeffs.get(s, Fraction(0))
            for s in index_subsets(self.ambient_dim, self.grade)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExteriorForm)
            and self.ambient_dim == other.ambient_dim
            and self.grade == other.grade
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.grade, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*e{list(s)}" for s, c in sorted(self.coeffs.items()))
        return f"ExteriorForm({terms or '0'})"


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    """Wedge product; sign given by the subset-merge permutation parity."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("mixed exterior algebras")
    grade = a.grade + b.grade
    if grade > a.ambient_dim:
        raise ValueError("grade exceeds ambient dimension")
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for s, cs in a.coeffs.items():
        set_s = set(s)
        for t, ct in b.coeffs.items():
            if set_s.intersection(t):
                continue
            merged = tuple(sorted(s + t))
            value = _merge_sign(s, t) * cs * ct
            coeffs[merged] = coeffs.get(merged, Fraction(0)) + value
    return ExteriorForm(a.ambient_dim, grade, coeffs)
