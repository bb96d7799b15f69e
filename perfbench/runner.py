"""Run one job as a child process and time it from start to exit.

Children run with this interpreter and the checkout's `src` on the import
path, because the `skewbrace` script cannot be assumed installed. The
program's own tuning variables are removed from the child environment, so
every job runs with the library defaults. Jobs are started, timed and
reaped by one small `launcher.py` process, so that the peak memory
`os.wait4` reports for a job is the job's own (see `launcher.py`).
"""

from __future__ import annotations

import atexit
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from workloads import Job

_UNSET = ("SKEWBRACE_JOBS", "SKEWBRACE_BACKEND")


@dataclass
class JobResult:
    job: Job
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float
    failure: str = ""  # empty when the job passed every check

    @property
    def failed(self) -> bool:
        return bool(self.failure)


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _UNSET}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_argv(job: Job, root: Path, workdir: Path) -> list[str]:
    brace = str(root / "src" / "skewbrace" / "data" / "braces" / f"{job.brace}.txt")
    if job.command == "validate":
        return ["validate", brace]
    if job.command == "batch":
        linkfile = workdir / "batch.txt"
        linkfile.write_text(job.link, encoding="utf-8")
        return ["batch", brace, str(linkfile)]
    argv = [job.command, brace, job.link]
    if job.command == "invariant":
        argv += ["--type", job.inv_type] + (["--json"] if job.json_out else [])
    elif job.command == "check-moves":
        argv += ["--trials", str(job.trials), "--seed", str(job.walk_seed)]
    return argv


class Launcher:
    """The `launcher.py` process that starts, times and reaps every job."""

    def __init__(self) -> None:
        script = str(Path(__file__).resolve().parent / "launcher.py")
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", script],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"job launcher exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


_launcher: Launcher | None = None


def close_launcher() -> None:
    """Stop the launcher, if one was started, and wait for it to end."""
    global _launcher
    if _launcher is not None:
        _launcher.close()
        _launcher = None


atexit.register(close_launcher)


def run_process(argv: list[str], root: Path, workdir: Path, timeout: float):
    """Run argv to completion through the launcher; returns (wall_s,
    returncode, stdout, stderr, peak_rss_mb, timed_out). Output goes
    through files, so a large output cannot block the child."""
    global _launcher
    if _launcher is None:
        _launcher = Launcher()
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    r = _launcher.run({
        "argv": argv, "cwd": str(root), "env": child_env(root),
        "out": str(out_path), "err": str(err_path), "timeout": timeout,
    })
    return (
        r["wall_s"],
        r["returncode"],
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        r["maxrss_kb"] / 1024.0,
        r["timed_out"],
    )


def process_failure(returncode: int, stderr: str, timed_out: bool) -> str:
    if timed_out:
        return "timeout"
    if "Traceback (most recent call last)" in stderr:
        return "traceback"
    if returncode != 0:
        return f"exit code {returncode}"
    return ""


def run_job(job: Job, root: Path, workdir: Path, timeout: float) -> JobResult:
    argv = [sys.executable, "-m", "skewbrace.cli", *cli_argv(job, root, workdir)]
    wall, code, out, err, rss, timed_out = run_process(argv, root, workdir, timeout)
    return JobResult(job, wall, code, out, err, rss, process_failure(code, err, timed_out))


def run_traced(
    job: Job, root: Path, workdir: Path, job_id: int, timeout: float
) -> tuple[float, dict | None, str]:
    """Replay the job's library calls under tracing in a child process.

    Returns (wall_s, report, failure); report holds the spans and checks
    that `traced_job.py` prints as its last stdout line."""
    argv = cli_argv(job, root, workdir)
    spec = {
        "command": job.command, "brace": argv[1], "link": argv[2], "inv_type": job.inv_type,
        "trials": job.trials, "walk_seed": job.walk_seed, "job": job_id,
    }
    script = str(Path(__file__).resolve().parent / "traced_job.py")
    wall, code, out, err, _, timed_out = run_process(
        [sys.executable, script, json.dumps(spec)], root, workdir, timeout
    )
    failure = process_failure(code, err, timed_out)
    if failure:
        return wall, None, f"traced: {failure}"
    report = json.loads(out.strip().splitlines()[-1])
    return wall, report, "" if report["ok"] else f"traced: {report['error']}"
