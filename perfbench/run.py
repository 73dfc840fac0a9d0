"""Benchmark abelweb end to end, and layer by layer with --trace 1.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload moment-rank --seed 1 --seconds 30 --trace 0

Set-up imports the library from ``src/``, generates the workload's inputs
from the seed and writes them as JSON under ``.perfbench/``; it is
repeated and its median is ``setup_s``.  The timed phase then runs every
job of the workload in sequence (one pass), through ``abelweb.cli.main``
in this process, again and again until ``--seconds`` have passed.

Times are reported in nominal seconds.  On a shared 2-vCPU virtual
machine the CPU speed was seen to change by up to 1.8x for minutes at a
time, on one CPU or both, so every measured time is scaled by
REF_SECONDS over the time of a fixed exact-arithmetic kernel
(``reference()``, no abelweb code) run on the same CPU right before and
after it; a nominal second is a second on a host where that kernel takes
REF_SECONDS.  The measured times are printed too.  Passes rotate over the
CPUs the process may use.

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (median
pass), ``job_p50_s`` and ``job_p90_s`` (quantiles over the jobs of each
job's median time across passes), ``setup_s`` and ``peak_rss_mb``.  With
``--trace 1`` half the time runs untraced and half traced (see
``tracer.py``), and it reports per-layer self times of the median traced
pass and exact work counts instead.  Either way every
job's output is checked after the timed phase; a job fails on a non-zero
exit or a failed check.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, Tracer, closed_form_shape
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
# the reference kernel's time on the nominal host; see reference()
REF_SECONDS = 0.1

# per-layer metrics in BENCHMARK.json: busy time of the layers every
# workload enters, and every exact count; the other layers' times are printed
TIMED_LAYERS = [
    "exactalg.rank", "exactalg.det", "abelian.relation_matrix",
    "multilinear.substitute", "webcore.check_pg", "multilinear.wedge",
    "webcore.generator_normal", "webcore.from_json",
    "cli.parser", "cli.load", "cli.emit",
]
COUNT_METRICS = [
    "exactalg.rank_calls", "exactalg.rank_cells",
    "exactalg.rref_calls", "exactalg.rref_cells", "exactalg.det_calls",
    "abelian.relation_matrix_calls", "abelian.matrix_cells", "abelian.matrix_nnz",
    "multilinear.substitute_calls", "abelian.verify_calls",
    "webcore.check_pg_calls", "multilinear.wedge_calls",
    "webcore.generator_normal_calls",
]


class Pass:
    """One run of every job: times, exit codes, outputs, and the trace."""

    def __init__(self, wall, job_times, codes, outputs, errors, tracer):
        self.wall = wall
        self.job_times = job_times
        self.codes = codes
        self.outputs = outputs
        self.errors = errors
        self.tracer = tracer
        self.digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
        self.scale = 1.0  # REF_SECONDS over the reference time around the pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference() -> float:
    """Seconds taken by a fixed exact-arithmetic kernel that abelweb never runs.

    Bareiss elimination of a fixed 40x40 integer matrix, then a loop of
    Fraction arithmetic: the kinds of work the library does, so a slow
    spell of the host slows the kernel and the jobs alike.
    """
    rng = random.Random(20260825)
    m = [[rng.randint(-50, 50) for _ in range(40)] for _ in range(40)]
    start = perf_counter()
    prev = 1
    for k in range(len(m) - 1):
        pivot = m[k][k] or 1
        for i in range(k + 1, len(m)):
            f = m[i][k]
            m[i] = [(pivot * a - f * b) // prev for a, b in zip(m[i], m[k])]
        prev = pivot
    acc = Fraction(0)
    for i in range(1, 6001):
        acc = Fraction(i % 97, 1 + i % 89) * Fraction(3, 1 + i % 7) + acc / (1 + acc)
        if acc.denominator > 1 << 64:
            acc = Fraction(1, 1 + i % 13)
    return perf_counter() - start


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def import_library():
    """Import abelweb from src/, dropping any earlier import first."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "abelweb" or n.startswith("abelweb.")]:
        del sys.modules[name]
    import abelweb
    import abelweb.cli
    return abelweb, abelweb.cli


def set_up(workload, seed: int, workdir: Path):
    """Import, generate and write the inputs, repeatedly; same seed each time.

    Repeats at least SETUP_REPEATS times and, while set-up is cheap, until
    SETUP_SECONDS have passed, so that the median of a short set-up rests
    on more samples.  Returns the times and their scale to nominal seconds.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    try:
        before = reference()
        times = []
        while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS and len(times) < 25):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            start = perf_counter()
            lib, cli = import_library()
            jobs = workload.build(lib, random.Random(seed), workdir)
            times.append(perf_counter() - start)
        scale = 2 * REF_SECONDS / (before + reference())
    finally:
        os.sched_setaffinity(0, cpus)
    return lib, cli, jobs, times, scale


def run_pass(main, jobs, tracer: Tracer | None = None) -> Pass:
    job_times, codes, outputs, errors = [], [], [], []
    start = perf_counter()
    for index, job in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        try:
            if job.derive is not None:
                source, path, extract = job.derive
                if codes[source] != 0:
                    raise RuntimeError(f"input job {source} failed")
                path.write_text(json.dumps(extract(outputs[source])), encoding="utf-8")
            with redirect_stdout(out), redirect_stderr(err):
                span = tracer.begin_job(index) if tracer else None
                t0 = perf_counter()
                try:
                    code = main(job.argv)
                finally:
                    t1 = perf_counter()
                    if tracer:
                        tracer.end_job(span)
        except Exception:  # a crashing job is a failed job; keep benchmarking
            code, t1, t0 = None, 0.0, 0.0
            err.write(traceback.format_exc())
        job_times.append(t1 - t0)
        codes.append(code)
        outputs.append(out.getvalue())
        errors.append(err.getvalue())
    return Pass(perf_counter() - start, job_times, codes, outputs, errors, tracer)


def run_passes(main, jobs, seconds: float, traced: bool) -> list[Pass]:
    """Whole passes while the next one is expected to end within ``seconds``.

    At least one pass runs; the shortest round so far predicts the next.
    Successive passes run on successive CPUs of this process's affinity
    set, each between two runs of the reference kernel on the same CPU,
    which give the pass its scale to nominal seconds.
    """
    cpus = sorted(os.sched_getaffinity(0))
    passes, rounds = [], []
    start = perf_counter()
    try:
        while not passes or perf_counter() - start + min(rounds) <= seconds:
            round_start = perf_counter()
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            before = reference()
            tracer = Tracer() if traced else None
            if tracer:
                tracer.install()
            try:
                result = run_pass(main, jobs, tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            result.scale = 2 * REF_SECONDS / (before + reference())
            passes.append(result)
            rounds.append(perf_counter() - round_start)
    finally:
        os.sched_setaffinity(0, cpus)
    return passes


def check_outputs(lib, jobs, passes) -> tuple[int, list[str]]:
    """Failed jobs over all passes, and messages for the report."""
    reference = passes[0]
    messages = []
    ok = []
    for index, job in enumerate(jobs):
        code = reference.codes[index]
        if code != 0:
            problem = f"exit {code}: {reference.errors[index].strip()[-300:]}"
        else:
            try:
                problem = job.check(lib, reference.outputs[index])
            except Exception as exc:  # a malformed output fails its check
                problem = f"check raised {exc!r}"
        if problem:
            messages.append(f"job {index} {' '.join(job.argv[:1])}: {problem}")
        ok.append(problem is None)
    failed = 0
    for p in passes:
        for index in range(len(jobs)):
            same = p.codes[index] == reference.codes[index] and \
                p.outputs[index] == reference.outputs[index]
            if not (ok[index] and same):
                failed += 1
        if p.digest != reference.digest:
            messages.append("outputs differ between passes")
    return failed, messages


def quantile(values, fraction):
    """The inclusive quantile at ``fraction`` (0.5 is the median)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def nominal_wall(passes) -> float:
    """Median pass wall time, in nominal seconds."""
    return statistics.median(p.wall * p.scale for p in passes)


def trace_report(untraced, traced, lines):
    """Per-layer metrics of the median traced pass; exact counts must repeat."""
    problems = []
    counts = [p.tracer.counts() for p in traced]
    if any(c != counts[0] for c in counts):
        problems.append("work counts differ between traced passes")
    ordered = sorted(traced, key=lambda p: p.wall * p.scale)
    median_pass = ordered[(len(ordered) - 1) // 2]
    for row in median_pass.tracer.degrees:
        shape = closed_form_shape(row["r"], row["n"], row["d"], row["h"])
        if (row["rows"], row["cols"]) != shape:
            problems.append(f"relation matrix {row} differs from closed form {shape}")

    scale = median_pass.scale
    summary = median_pass.tracer.layer_summary()
    unused = {"self_s": 0.0, "calls": 0}
    traced_wall = median_pass.wall
    counting = summary.get("trace.count", unused)["self_s"]
    covered = sum(summary.get(layer, unused)["self_s"] for layer in LAYERS)
    lines.append(f"# traced passes {len(traced)}, untraced passes {len(untraced)}; "
                 f"median pass in nominal s: traced {nominal_wall(traced):.6f}, "
                 f"untraced {nominal_wall(untraced):.6f}")
    lines.append(f"# layers of the median traced pass ({traced_wall:.6f} s measured, "
                 f"scale {scale:.4f}), in nominal s")
    lines.append("# layer                          self_s   share    calls")
    for layer in LAYERS + ["job", "trace.count"]:
        entry = summary.get(layer, unused)
        lines.append(f"{layer + '_s':32s} {entry['self_s'] * scale:9.6f} "
                     f"{entry['self_s'] / traced_wall:6.1%} {entry['calls']:8d}")
    lines.append(
        f"# listed layers cover {covered / (traced_wall - counting):.1%} of traced wall_s "
        f"(excluding {counting * scale:.4f} s of the tracer's own counting)"
    )
    for key in ("exactalg.rank_cells", "exactalg.rref_cells",
                "abelian.matrix_cells", "abelian.matrix_nnz"):
        lines.append(f"{key:32s} {counts[0][key]:d} count")
    if median_pass.tracer.degrees:
        lines.append("# job  r n  d  h    rows  cols      nnz   build_s    rank_s  (measured)")
        for row in median_pass.tracer.degrees:
            rank_s = row["rank_s"] if row["rank_s"] is not None else float("nan")
            lines.append(
                f"# {row['job']:3d}  {row['r']} {row['n']} {row['d']:2d} {row['h']:2d} "
                f"{row['rows']:7d} {row['cols']:5d} {row['nnz']:8d} "
                f"{row['build_s']:9.5f} {rank_s:9.5f}"
            )
    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_s"] = {
            "value": summary.get(layer, unused)["self_s"] * scale, "unit": "s"}
    for key in COUNT_METRICS:
        metrics[key] = {"value": counts[0][key], "unit": "count"}
    metrics["trace.overhead_ratio"] = {
        "value": nominal_wall(traced) / nominal_wall(untraced), "unit": "ratio"}
    return metrics, problems


def end_to_end_report(untraced, setup_times, setup_scale, lines):
    """Median nominal times: of the passes, of set-up, and of each job."""
    per_job = zip(*([t * p.scale for t in p.job_times] for p in untraced))
    jobs = sorted(statistics.median(times) for times in per_job)
    p90 = quantile(jobs, 0.9)
    metrics = {
        "setup_s": {"value": statistics.median(setup_times) * setup_scale, "unit": "s"},
        "wall_s": {"value": nominal_wall(untraced), "unit": "s"},
        "job_p50_s": {"value": statistics.median(jobs), "unit": "s"},
        "job_p90_s": {"value": p90, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    lines.append(f"# passes {len(untraced)}; measured pass wall_s "
                 + " ".join(f"{p.wall:.4f}" for p in untraced))
    lines.append("# pass scales " + " ".join(f"{p.scale:.4f}" for p in untraced)
                 + f"; set-up scale {setup_scale:.4f}")
    lines.append(f"# measured: median pass {statistics.median(p.wall for p in untraced):.6f} s, "
                 f"median set-up {statistics.median(setup_times):.6f} s")
    for name, metric in metrics.items():
        note = ""
        if name == "job_p90_s":
            beyond = sum(1 for t in jobs if t > p90)
            note = f"  (jobs={len(jobs)}, beyond p90={beyond})"
        lines.append(f"{name:16s} {metric['value']:.6f} {metric['unit']}{note}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "abelweb" / "cli.py").is_file():
        print(f"error: no abelweb sources under {SRC}", file=sys.stderr)
        return 2
    reference_s = reference()
    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    lines = [
        f"# abelweb benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        f"# host: commit={_commit()} src_sha256={_source_digest()[:16]} "
        f"python={platform.python_version()} nproc={os.cpu_count()} "
        f"reference_s={reference_s:.4f}",
    ]
    try:
        lib, cli, jobs, setup_times, setup_scale = set_up(workload, args.seed, workdir)
        lines.append(f"# jobs per pass {len(jobs)}; setup_s samples "
                     + " ".join(f"{t:.4f}" for t in setup_times))
        if args.trace:
            untraced = run_passes(cli.main, jobs, args.seconds / 2, traced=False)
            traced = run_passes(cli.main, jobs, args.seconds / 2, traced=True)
        else:
            untraced = run_passes(cli.main, jobs, args.seconds, traced=False)
            traced = []
        failed, messages = check_outputs(lib, jobs, untraced)
        attempted = len(jobs) * len(untraced)
        if traced:
            if any(p.digest != untraced[0].digest for p in traced):
                messages.append("traced outputs differ from untraced outputs")
            metrics, problems = trace_report(untraced, traced, lines)
            messages.extend(problems)
        else:
            metrics = end_to_end_report(untraced, setup_times, setup_scale, lines)
        lines.append(f"{'fail_ratio':16s} {failed / attempted:.6f} ratio ({failed}/{attempted})")
        lines.append(f"# output sha256 {untraced[0].digest}")
        lines.extend(f"# FAIL {m}" for m in messages)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print("\n".join(lines))
    result = {
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
