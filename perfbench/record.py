"""Record the expected output of every job kind into `expected.json`.

Usage, from the root of a checkout: python3 perfbench/record.py

Run only when the program's outputs are meant to change; the gate compares
every benchmark job against this file. Each job kind runs once, with its
components in canonical order; color jobs are stored as the digest of
their colorings, batch jobs one line per code.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import JOB_TIMEOUT_S, ROOT, WORKDIR
from gate import EXPECTED_PATH, colorings_array, digest
from runner import close_launcher, run_job
from workloads import all_job_kinds


def main() -> int:
    expected: dict[str, str] = {}
    WORKDIR.mkdir(exist_ok=True)
    try:
        for job in all_job_kinds():
            r = run_job(job, ROOT, WORKDIR, JOB_TIMEOUT_S)
            if r.failed:
                print(f"{job.key}: {r.failure}\n{r.stderr}", file=sys.stderr)
                return 1
            if job.command == "color":
                semiarcs = len(r.stdout.partition("\n")[0].split()) - 2
                expected[job.key] = digest(colorings_array(r.stdout, semiarcs))
            elif job.command == "batch":
                codes = dict(line.split(" := ") for line in job.link.splitlines())
                for line in r.stdout.splitlines():
                    name, value = line.split(": ", 1)
                    expected[f"random_virtual/{job.brace}/{codes[name]}"] = value
            else:
                expected[job.key] = r.stdout
            print(f"{job.key}: {r.wall_s:.3f} s", flush=True)
    finally:
        close_launcher()
        shutil.rmtree(WORKDIR, ignore_errors=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
