"""Every job kind of the benchmark replays its recorded output.

`perfbench/expected.json` holds the output of every job kind the
benchmark can run. This test runs each kind through `cli.main` in
process and checks it with the benchmark's own gate, so a change to any
output fails here and not only when the benchmark runs. The benchmark
modules are loaded from their files and only read; batch files go under
`tmp_path`.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from skewbrace import cli

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name: str):
    """The module `perfbench/<name>.py`, under the top-level name its
    siblings import it by."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_every_job_kind_replays_its_recorded_output(tmp_path, capsys):
    workloads, runner, gate = map(_perfbench, ("workloads", "runner", "gate"))
    check = gate.Gate(gate.load_expected()).check
    failures = []
    for job in workloads.all_job_kinds():
        code = cli.main(runner.cli_argv(job, ROOT, tmp_path))
        out, err = capsys.readouterr()
        reason = check(runner.JobResult(job, 0.0, code, out, err, 0.0))
        if code != 0 or err or reason:
            failures.append((job.key, code, err, reason))
    assert not failures
