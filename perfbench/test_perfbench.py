"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import MomentRank, RandomCorpus, StructureMix

TINY = {
    "moment-rank": MomentRank(cases=((2, 2, 5), (1, 3, 6))),
    "random-corpus": RandomCorpus(cells=((1, 2, 4), (2, 2, 5)), per_cell=2),
    "structure-mix": StructureMix(
        recover=(((2, 2, 6), 1),), canonical=((1, 2, 5),), incidence=(((2, 2, 6), 1),)
    ),
}


def _traced_pass(workload, workdir):
    lib, cli, jobs, _, _ = run.set_up(workload, 7, workdir)
    traced = run.run_passes(cli.main, jobs, 0, traced=True)[0]
    untraced = run.run_passes(cli.main, jobs, 0, traced=False)[0]
    return lib, jobs, traced, untraced


@pytest.mark.parametrize("name", sorted(TINY))
def test_counts_repeat_and_outputs_check(name, tmp_path):
    lib, jobs, first, untraced = _traced_pass(TINY[name], tmp_path / "a")
    _, _, second, _ = _traced_pass(TINY[name], tmp_path / "b")
    assert first.tracer.counts() == second.tracer.counts()
    assert first.digest == second.digest == untraced.digest
    assert run.check_outputs(lib, jobs, [untraced, first]) == (0, [])
    counts = first.tracer.counts()
    assert counts["exactalg.rank_calls"] > 0
    assert counts["cli.load_calls"] == len(jobs)
    for row in first.tracer.degrees:
        shape = run.closed_form_shape(row["r"], row["n"], row["d"], row["h"])
        assert (row["rows"], row["cols"]) == shape


def test_wrong_output_fails_its_check(tmp_path):
    lib, jobs, traced, untraced = _traced_pass(TINY["moment-rank"], tmp_path)
    untraced.outputs[0] = "{}"
    failed, messages = run.check_outputs(lib, jobs, [untraced])
    assert failed == 1 and messages


def test_tracer_restores_the_library(tmp_path):
    lib, _, _, _ = _traced_pass(TINY["moment-rank"], tmp_path)
    assert not hasattr(lib.Matrix.rank, "__wrapped__")
    assert not hasattr(lib.abelian.substitute, "__wrapped__")
    assert not hasattr(lib.cli._load_json, "__wrapped__")


def test_refuses_to_run_without_sources(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "moment-rank",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    lines = result.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{")
    with pytest.raises(json.JSONDecodeError):
        json.loads(result.stdout or "x")
