"""The benchmark's workloads: seeded inputs, CLI jobs and output checks.

A workload turns a seed into JSON input files and a list of jobs.  A job
is one ``abelweb`` command line; the library sees only the files.  Every
job carries a check that runs after the timed phase and returns an error
message, or None when the output is right.  A job may read an input that
is derived from an earlier job's output (``fit-rnc`` on the points that
``recover`` found); the benchmark writes that file between the two jobs.

Input generation calls the library (``is_pg``, ``rank``), so it belongs
to set-up and is never timed as a job.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable


class Job:
    """One CLI call, its output check, and an optional derived input."""

    __slots__ = ("argv", "check", "derive")

    def __init__(self, argv: list[str], check: Callable, derive=None):
        self.argv = argv
        self.check = check
        # (index of an earlier job, path, function of that job's output)
        self.derive = derive


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _random_invertible(lib, rng: random.Random, m: int):
    while True:
        candidate = lib.Matrix([[rng.randint(-5, 5) for _ in range(m)] for _ in range(m)])
        if candidate.is_invertible():
            return candidate


def _random_pg_web(lib, rng: random.Random, r: int, n: int, d: int):
    while True:
        foliations = []
        while len(foliations) < d:
            matrix = lib.Matrix(
                [[rng.randint(-5, 5) for _ in range(r * n)] for _ in range(r)]
            )
            if matrix.rank() == r:
                foliations.append(lib.ConstantFoliation(r, n, matrix))
        web = lib.ConstantWeb(r, n, foliations)
        if web.is_pg():
            return web


def _arrangement_through(lib, rng: random.Random, r: int, n: int, taus):
    """Planes meeting the base plane {eta = 0} transversally at moment points."""
    eta = [[1 if j == a else 0 for j in range(r + n)] for a in range(r)]
    planes = []
    for tau in taus:
        point = [Fraction(0)] * r + [Fraction(tau) ** k for k in range(n)]
        while True:
            rows = []
            for _ in range(n - 1):
                row = [Fraction(rng.randint(-3, 3)) for _ in range(r + n)]
                row[r] -= sum(a * b for a, b in zip(row, point)) / point[r]
                rows.append(row)
            matrix = lib.Matrix(rows)
            if matrix.rank() == n - 1 and lib.Matrix(rows + eta).rank() == r + n - 1:
                planes.append(matrix)
                break
    return lib.PlaneArrangement(r, n, planes)


# -- checks -------------------------------------------------------------

def _check_moment_rank(r, n, d):
    def check(lib, text):
        dims = [item["dim"] for item in json.loads(text)["per_degree"]]
        expected = [lib.degree_bound(r, n, d, h) for h in range(lib.h_cutoff(r, n, d))]
        if dims != expected:
            return f"dims {dims} differ from the bounds {expected}"
        return None
    return check


def _check_random_rank(r, n, d):
    def check(lib, text):
        report = json.loads(text)
        if report["rho"] != lib.rho_bound(r, n, d):
            return f"rho {report['rho']} differs from rho_bound"
        if report["total_rank"] > report["rho"]:
            return f"total rank {report['total_rank']} exceeds rho {report['rho']}"
        return None
    return check


def _check_recover(web_json):
    def check(lib, text):
        structure = lib.AdaptedStructure.from_json(json.loads(text))
        web = lib.ConstantWeb.from_json(web_json)
        if structure.rebuild().foliation_set() != web.foliation_set():
            return "rebuilt foliations differ from the input web"
        return None
    return check


def _check_fit(points_path: Path, n):
    """The fitted curve passes through every non-frame point."""
    def check(lib, text):
        data = json.loads(text)
        fit = lib.RncFit(
            lib.Matrix.from_json(data["transform"]),
            [lib.rational(c) for c in data["line_a"]],
            [lib.rational(c) for c in data["line_b"]],
            [lib.rational(s) for s in data["parameters"]],
        )
        points = json.loads(points_path.read_text(encoding="utf-8"))
        for i, s in enumerate(fit.parameters):
            if fit.point_at(s) != lib.ProjectivePoint(points[n + i]):
                return f"fitted curve misses point {n + i + 1}"
        return None
    return check


def _check_canonical(taus):
    def check(lib, text):
        data = json.loads(text)
        q, size = data["q"], data["N"] + 1
        for tau, coords in zip(taus, data["points"]):
            expected = [Fraction(tau) ** k for k in range(q + 1)]
            expected += [Fraction(0)] * (size - q - 1)
            if [lib.rational(c) for c in coords] != expected:
                return f"point at tau={tau} is not [1:tau:...:tau^q:0...]"
        if len(data["points"]) != len(taus):
            return "wrong number of canonical points"
        return None
    return check


def _check_incidence(r, n, taus):
    def check(lib, text):
        web = lib.ConstantWeb.from_json(json.loads(text))
        reference = lib.moment_web(lib.MomentWebSpec(r, n, list(taus)))
        if web.foliation_set() != reference.foliation_set():
            return "tangent web differs from the moment web"
        return None
    return check


# -- workloads ----------------------------------------------------------

class MomentRank:
    """``rank`` on moment webs, identity basis, taus 0..d-1; seed-independent."""

    def __init__(self, cases=((2, 2, 11), (2, 3, 13), (3, 2, 8))):
        self.cases = cases

    def build(self, lib, rng, workdir: Path) -> list[Job]:
        jobs = []
        for r, n, d in self.cases:
            web = lib.moment_web(lib.MomentWebSpec(r, n, list(range(d))))
            path = _write(workdir / f"moment-{r}-{n}-{d}.json", web.to_json())
            jobs.append(Job(["rank", "--web", path], _check_moment_rank(r, n, d)))
        return jobs


# the criterion-4 types (r, n) with r(n-1)+2 <= d, capped so one pass stays short
RANDOM_CELLS = (
    [(1, 2, d) for d in range(3, 11)]
    + [(2, 2, d) for d in range(4, 8)]
    + [(2, 3, d) for d in range(6, 9)]
)


class RandomCorpus:
    """``rank`` on seeded random PG webs, an equal count per (r, n, d) cell."""

    def __init__(self, cells=RANDOM_CELLS, per_cell=7):
        self.cells = cells
        self.per_cell = per_cell

    def build(self, lib, rng, workdir: Path) -> list[Job]:
        jobs = []
        for r, n, d in self.cells:
            for k in range(self.per_cell):
                web = _random_pg_web(lib, rng, r, n, d)
                path = _write(workdir / f"random-{r}-{n}-{d}-{k}.json", web.to_json())
                jobs.append(Job(["rank", "--web", path], _check_random_rank(r, n, d)))
        return jobs


class StructureMix:
    """``recover`` then ``fit-rnc``, ``canonical`` and ``incidence`` jobs."""

    def __init__(
        self,
        recover=(((2, 2, 6), 20), ((2, 2, 8), 12), ((2, 3, 8), 2), ((3, 2, 10), 2)),
        canonical=((2, 2, 8), (2, 3, 8)),
        incidence=(((2, 2, 6), 10), ((2, 3, 8), 10), ((3, 2, 8), 10)),
    ):
        self.recover = recover
        self.canonical = canonical
        self.incidence = incidence

    def build(self, lib, rng, workdir: Path) -> list[Job]:
        jobs = []
        for (r, n, d), count in self.recover:
            for k in range(count):
                gauge = _random_invertible(lib, rng, r * n)
                web = lib.moment_web(lib.MomentWebSpec(r, n, list(range(d)), gauge))
                web_json = web.to_json()
                stem = f"recover-{r}-{n}-{d}-{k}"
                path = _write(workdir / f"{stem}.json", web_json)
                jobs.append(Job(["recover", "--web", path], _check_recover(web_json)))
                source = len(jobs) - 1
                points_path = workdir / f"{stem}-points.json"
                jobs.append(Job(
                    ["fit-rnc", "--points", str(points_path)],
                    _check_fit(points_path, n),
                    derive=(source, points_path, lambda text: json.loads(text)["points"]),
                ))
        for r, n, d in self.canonical:
            spec = lib.MomentWebSpec(r, n, list(range(d)))
            path = _write(workdir / f"canonical-{r}-{n}-{d}.json", spec.to_json())
            jobs.append(Job(["canonical", "--moment", path], _check_canonical(range(d))))
        for (r, n, d), count in self.incidence:
            for k in range(count):
                arrangement = _arrangement_through(lib, rng, r, n, range(d))
                path = _write(
                    workdir / f"incidence-{r}-{n}-{d}-{k}.json", arrangement.to_json()
                )
                jobs.append(Job(
                    ["incidence", "--arrangement", path], _check_incidence(r, n, range(d))
                ))
        return jobs


WORKLOADS = {
    "moment-rank": MomentRank,
    "random-corpus": RandomCorpus,
    "structure-mix": StructureMix,
}
