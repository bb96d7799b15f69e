"""Start, time and reap job processes on behalf of the benchmark.

Usage: python3 -I -S perfbench/launcher.py, with one JSON request a line on
stdin: {"argv", "cwd", "env", "out", "err", "timeout"}. For each it runs
argv with stdout and stderr to the named files, kills its process group
after `timeout` seconds, and answers on stdout with one JSON line:
{"wall_s", "returncode", "maxrss_kb", "timed_out"}. It exits at the end of
its input.

Jobs are started from this small process, not from the benchmark, because
Linux counts the memory of the process that forks a child in the child's
`ru_maxrss`: started from the benchmark, which holds numpy and the outputs
it checks, a job reported the benchmark's memory instead of its own.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], cwd=req["cwd"], env=req["env"], stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        expired = threading.Event()

        def kill() -> None:
            expired.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(req["timeout"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "returncode": proc.returncode,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": expired.is_set(),
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
