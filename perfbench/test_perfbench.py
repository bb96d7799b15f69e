"""Tests of the benchmark itself: generators, gate, runner and span arithmetic."""

from __future__ import annotations

import json
import random
import sys

import pytest

import run
from runner import process_failure, run_job, run_process
from spans import layer_metrics, library_time, self_times
from workloads import WORKLOADS, Job, code_pool, pass_jobs, random_gauss_code

from skewbrace import parse_gauss_code, parse_link_file


def test_same_seed_gives_same_jobs():
    for workload in WORKLOADS:
        for p in range(3):
            assert pass_jobs(workload, 7, p) == pass_jobs(workload, 7, p)
        first = [pass_jobs(workload, seed, 0) for seed in (7, 8)]
        assert [j.key for j in first[0]] == [j.key for j in first[1]]
        assert first[0] != first[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_generated_code_parses(workload):
    for seed in range(3):
        for p in range(5):
            for job in pass_jobs(workload, seed, p):
                if job.command == "batch":
                    assert len(parse_link_file(job.link)) == job.evals
                else:
                    parse_gauss_code(job.link)


def test_random_codes_have_the_requested_shape():
    rng = random.Random(1)
    for crossings, components in [(1, 1), (1, 2), (7, 1), (9, 2), (30, 3)]:
        d = parse_gauss_code(random_gauss_code(rng, crossings, components))
        assert d.crossing_count == crossings
        assert d.component_count == components
    assert len({code for _, code in code_pool()}) == len(code_pool())


def test_self_time_subtracts_the_union_of_children():
    spans = [
        [0, -1, "job", 0.0, 10.0, False, 0],
        [1, 0, "a", 1.0, 4.0, True, 0],
        [2, 0, "b", 3.0, 6.0, False, 0],  # overlaps a
        [3, 1, "c", 2.0, 3.0, False, 0],
        [4, 0, "d", 9.0, 12.0, False, 0],  # runs past its parent
    ]
    assert self_times(spans) == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})


def test_library_time_adds_back_the_plan_compile():
    spans = [
        [0, -1, "job", 0.0, 10.0, False, 0],
        [1, 0, "tables.load", 0.0, 1.0, True, 0],
        [2, 0, "diagram", 1.0, 9.0, False, 0],
        [3, 2, "coloring.count_cold", 1.0, 3.0, False, 0],
        [4, 2, "coloring.count_warm", 3.0, 3.5, False, 0],
        [5, 2, "invariants.both", 3.5, 6.0, True, 0],
    ]
    assert library_time(spans) == pytest.approx(1.0 + 2.5 + 1.5)
    spans[3][5] = True  # a count job: the cold count is the CLI's own call
    assert library_time(spans) == pytest.approx(1.0 + 2.5 + 2.0)


def test_a_traceback_fails_the_job(tmp_path):
    assert process_failure(0, "Traceback (most recent call last):\n", False) == "traceback"
    # a seeded 50-crossing knot: at the time of writing the coloring search
    # refuses its seed space with an uncaught ValueError
    code = random_gauss_code(random.Random(50), 50, 1)
    job = Job(key="oversize", command="invariant", brace="nab6", link=code, inv_type="count")
    r = run_job(job, run.ROOT, tmp_path, run.JOB_TIMEOUT_S)
    if "Traceback" in r.stderr:
        assert r.failure == "traceback"
    else:
        assert r.failed == (r.returncode != 0)


def test_peak_rss_is_the_jobs_own(tmp_path):
    # Linux counts the forking process's memory in a child's ru_maxrss, so
    # a job forked from a large benchmark process would report that size
    ballast = bytearray(200 * 2**20)
    ballast[::4096] = b"\x01" * (len(ballast) // 4096)  # touch every page
    rss = run_process([sys.executable, "-c", "pass"], run.ROOT, tmp_path, run.JOB_TIMEOUT_S)[4]
    assert rss < 100


def benchmark_json() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
def test_reported_metrics_match_benchmark_json(trace, capsys, monkeypatch):
    # two jobs of the first pass keep the run short
    monkeypatch.setattr(run, "pass_jobs", lambda w, s, p: pass_jobs(w, s, p)[:2])
    assert run.main(["--workload", "padded", "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in benchmark_json()["workloads"]] == list(WORKLOADS)


def test_layer_metrics_cover_every_declared_name():
    report = {"spans": [[0, -1, "job", 0.0, 1.0, True, 0]], "counts": {"diagrams": 1}}
    names = {m["name"] for m in benchmark_json()["per_layer"]}
    assert set(layer_metrics([(1.5, 2.0, report)])) == names
