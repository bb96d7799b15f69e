"""End-to-end and per-layer benchmark of the skewbrace CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {padded,random_virtual,move_walk}
        --seed N --seconds S --trace {0,1}

Each workload is a closed loop with one client: jobs, each one
`python -m skewbrace.cli ...` process, run one after another. A run makes
the number of passes that take about S seconds of job time on the machine
the workloads were sized on (`workloads.PASS_SECONDS`), so every run of a
workload does the same jobs, whatever the machine's speed. Every output is
checked after its job has been timed (`gate.py`); a failed check fails the
job.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 each job also runs once more as a traced replay of its library
calls (`traced_job.py`) and the per-layer metrics are reported instead.
Earlier lines report each metric by name and unit for people.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

from runner import close_launcher, run_job, run_traced
from spans import layer_metrics
from workloads import WORKLOADS, pass_count, pass_jobs, validate_job, workload_braces

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
# the gate's oracles import the checkout's own package
sys.path.insert(0, str(ROOT / "src"))

# a run, checks included, ends within 180 s: no job starts after RUN_LIMIT_S
# and none outlives it
RUN_LIMIT_S = 170.0
JOB_TIMEOUT_S = 60.0

# a traced run costs about this many times the untraced one, since each job
# runs again as a traced replay with extra calls
TRACE_COST = 3.0

# cold validate processes per run, spread over it: the machine's speed
# drifts over tens of seconds, so a burst of samples at the start is not steady
SETUP_SAMPLES = 12

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "diagrams_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_frac", "_ratio")) else "count"


def tail(walls: list[float]) -> tuple[float, float]:
    """(time, percentile) of the highest percentile with ten jobs beyond it;
    the slowest job, as percentile 100, when there are ten jobs or fewer."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Clock:
    """The run's deadline, shared by every job it starts."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def timeout(self) -> float:
        return max(1.0, min(JOB_TIMEOUT_S, self.deadline - time.monotonic()))


def planned_jobs(workload: str, seed: int, seconds: float) -> list:
    return [job for p in range(pass_count(workload, seconds)) for job in pass_jobs(workload, seed, p)]


def end_to_end(workload: str, seed: int, seconds: float, clock: Clock, gate, report) -> tuple[list, dict]:
    """Run the workload without tracing. Cold validate processes are spread
    evenly over the run, so that setup_s samples all of it."""
    braces = workload_braces(workload)
    plan = planned_jobs(workload, seed, seconds)
    setup, jobs = [], []

    def checked(job):
        r = run_job(job, ROOT, WORKDIR, clock.timeout())
        r.failure = gate.check(r)
        return r

    def add_setup():
        setup.append(checked(validate_job(braces[len(setup) % len(braces)])))

    for i, job in enumerate(plan):
        if clock.expired():
            break
        while len(setup) * len(plan) <= i * SETUP_SAMPLES:
            add_setup()
        jobs.append(checked(job))
    while len(setup) < SETUP_SAMPLES and not clock.expired():
        add_setup()

    walls = [r.wall_s for r in jobs]
    tail_s, tail_pct = tail(walls)
    done = [r for r in jobs if not r.failed]
    metrics = {
        "setup_s": statistics.median(r.wall_s for r in setup),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_s,
        "diagrams_per_s": sum(r.job.evals for r in done) / sum(walls),
        "peak_rss_mb": max(r.peak_rss_mb for r in jobs),
    }
    for name, value in metrics.items():
        report(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    report(f"  setup_s: median of {len(setup)} cold validate processes")
    report(f"  job_p50_s, job_tail_s: {len(jobs)} jobs; job_tail_s is p{tail_pct:.1f}")
    report(f"  diagrams_per_s: {sum(r.job.evals for r in done)} diagram evaluations in {sum(walls):.3f} s")
    results = setup + jobs
    failed = sum(r.failed for r in results)
    report(f"failed_frac = {failed / len(results):.6g} ratio ({failed} of {len(results)} jobs)")
    return results, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def per_layer(workload: str, seed: int, seconds: float, clock: Clock, gate, report) -> tuple[list, dict]:
    """Run each job untraced, then as a traced replay; the passes are cut by
    TRACE_COST so that the run takes about as long as an untraced one."""
    results, traced = [], []
    for job in planned_jobs(workload, seed, seconds / TRACE_COST):
        if clock.expired():
            break
        r = run_job(job, ROOT, WORKDIR, clock.timeout())
        r.failure = gate.check(r)
        t_wall, rep, t_fail = run_traced(job, ROOT, WORKDIR, len(results), clock.timeout())
        r.failure = r.failure or t_fail
        if rep is not None:
            traced.append((r.wall_s, t_wall, rep))
        results.append(r)
    metrics = {}
    if traced:
        for name, value in layer_metrics(traced).items():
            metrics[name] = {"value": value, "unit": per_layer_unit(name)}
            report(f"{name} = {value:.6g} {metrics[name]['unit']}")
    report(f"  per-layer times are self seconds per job over {len(traced)} traced jobs")
    failed = sum(r.failed for r in results)
    report(f"failed_frac = {failed / len(results):.6g} ratio ({failed} of {len(results)} jobs)")
    return results, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skewbrace" / "cli.py").is_file():
        print(f"error: no skewbrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from gate import Gate, load_expected

    gate = Gate(load_expected())

    def report(line: str) -> None:
        print(f"{args.workload}: {line}", flush=True)

    WORKDIR.mkdir(exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        results, metrics = measure(args.workload, args.seed, args.seconds, Clock(), gate, report)
    finally:
        close_launcher()
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for r in results:
        if r.failed:
            report(f"FAILED {r.job.key}: {r.failure}")
    failed = sum(r.failed for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
