"""Every job kind of the benchmark replays its recorded output.

`perfbench/expected.json` holds the output of every job kind the
benchmark can run. This test runs each kind through `cli.main` in
process and checks it with the benchmark's own gate, so a change to any
output fails here and not only when the benchmark runs. The benchmark
modules are loaded from their files and only read; batch files go under
`tmp_path`.

Every kind runs in canonical layout, where a padded code's `-`
components come last. The padded `color` jobs also run in the seeded
layouts of one benchmark run, with pads before and between the link's
components.
"""

from __future__ import annotations

from skewbrace import cli

from conftest import ROOT, perfbench_module

# the benchmark seed whose padded layouts are replayed
SEED = 2801


def replay(jobs, tmp_path, capsys):
    """The jobs whose in-process run exits non-zero, writes to stderr or
    fails the benchmark's gate, with the reasons."""
    runner, gate = perfbench_module("runner"), perfbench_module("gate")
    check = gate.Gate(gate.load_expected()).check
    failures = []
    for job in jobs:
        code = cli.main(runner.cli_argv(job, ROOT, tmp_path))
        out, err = capsys.readouterr()
        reason = check(runner.JobResult(job, 0.0, code, out, err, 0.0))
        if code != 0 or err or reason:
            failures.append((job.key, job.link, code, err, reason))
    return failures


def test_every_job_kind_replays_its_recorded_output(tmp_path, capsys):
    assert not replay(perfbench_module("workloads").all_job_kinds(), tmp_path, capsys)


def test_shuffled_padded_colorings_replay_their_recorded_output(tmp_path, capsys):
    """Five padded passes run `color` on every brace and link once, each
    code with its pads shuffled in."""
    workloads = perfbench_module("workloads")
    jobs = [
        job
        for p in range(5)
        for job in workloads.pass_jobs("padded", SEED, p)
        if job.command == "color"
    ]
    assert len({(job.brace, job.base) for job in jobs}) == 30
    assert any(not job.link.endswith("-") for job in jobs)
    assert not replay(jobs, tmp_path, capsys)
