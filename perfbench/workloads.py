"""Seeded job generators for the three benchmark workloads.

A job is one `skewbrace` CLI process. Each workload is a sequence of
passes; pass `p` of a run with seed `s` is a pure function of `(s, p)`, so
the same seed gives the same jobs. No job kind (brace, link, command)
depends on the seed. The seed decides the text the program receives: the
component order of padded diagrams, the order of the batch files and of
the codes in each, and which pooled walk seed each `check-moves` job
uses. Every job's output can therefore be compared with an output recorded
once per job kind (see `record.py`).

Why each workload, and its generator ranges, are in `WORKLOADS.md`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BRACES = ("klein_z4", "z4_klein", "nab6", "cyc6", "dih8", "inv8")
BRACE_SIZE = {"klein_z4": 4, "z4_klein": 4, "nab6": 6, "cyc6": 6, "dih8": 8, "inv8": 8}
LINKS = {
    "unknot": "-",
    "unlink2": "- / -",
    "vhopf": "O1+ / U1+",
    "trefoil": "O1+ U2+ O3+ U1+ O2+ U3+",
    "fig8": "O1+ U2- O4- U1+ O3+ U4- O2- U3+",
}
LINK_NAMES = tuple(LINKS)

# padded: the fewest zero-crossing components k >= 1 that give the link at
# least PAD_COLORINGS colorings, from its count Phi^Z on each brace
PAD_COLORINGS = 10_000
PHI_Z = {
    "klein_z4": {"unknot": 4, "unlink2": 16, "vhopf": 12, "trefoil": 4, "fig8": 4},
    "z4_klein": {"unknot": 4, "unlink2": 16, "vhopf": 12, "trefoil": 4, "fig8": 4},
    "nab6": {"unknot": 6, "unlink2": 36, "vhopf": 24, "trefoil": 12, "fig8": 6},
    "cyc6": {"unknot": 6, "unlink2": 36, "vhopf": 24, "trefoil": 12, "fig8": 6},
    "dih8": {"unknot": 8, "unlink2": 64, "vhopf": 48, "trefoil": 8, "fig8": 8},
    "inv8": {"unknot": 8, "unlink2": 64, "vhopf": 26, "trefoil": 8, "fig8": 8},
}
# (subcommand, invariant type)
PADDED_COMMANDS = (("invariant", "count"), ("invariant", "sb"), ("invariant", "ideal"), ("color", ""))

# random_virtual: a fixed pool of codes, each evaluated on both braces. A
# few codes do most work, so batch files' times cluster; 7 files a brace, an
# odd number, keep job_p50_s inside one file's jobs instead of halfway
# between two clusters (WORKLOADS.md)
POOL_SEED = 20210712
POOL_SIZE = 28
POOL_CROSSINGS = (7, 9)
POOL_COMPONENTS = (1, 2)
RV_BRACES = ("nab6", "cyc6")
RV_BATCH = 4

# move_walk: trials per check-moves job, and the (brace, link) pairs walked:
# every link on the 4-element braces, the links of at most one crossing on
# nab6 and cyc6. At the time of writing a walk from trefoil or fig8 on those
# reaches 10**5-10**7 seeds in about 1 trial in 100, and on dih8 and inv8
# 10**7-10**8 seeds, minutes per call, in about 1 trial in 1000; such walks
# made run time and job_tail_s swing from run to run.
# The pairs run in this order: the four slowest (unlink2 and vhopf on nab6
# and cyc6) come every fourth job, so they sample the whole run, as the
# machine's speed swings by up to 1.7x within a few seconds.
# A trial on nab6 or cyc6 costs about twice one on a 4-element brace, so
# their jobs make half the trials: every job then takes 0.3-0.6 s, and
# job_tail_s is an upper percentile of 80 like jobs. With 100 trials
# everywhere it was the third slowest of the 8 vhopf jobs on nab6 and cyc6,
# and it spread twice as widely as job_p50_s from run to run.
WALK_TRIALS = {"klein_z4": 100, "z4_klein": 100, "nab6": 50, "cyc6": 50}
WALK_POOL = 5
MW_PAIRS = (
    ("nab6", "unlink2"), ("klein_z4", "unknot"), ("z4_klein", "unknot"), ("klein_z4", "unlink2"),
    ("cyc6", "vhopf"), ("z4_klein", "unlink2"), ("klein_z4", "vhopf"), ("nab6", "unknot"),
    ("cyc6", "unlink2"), ("z4_klein", "vhopf"), ("klein_z4", "trefoil"), ("z4_klein", "trefoil"),
    ("nab6", "vhopf"), ("klein_z4", "fig8"), ("z4_klein", "fig8"), ("cyc6", "unknot"),
)
MW_BRACES = ("klein_z4", "z4_klein", "nab6", "cyc6")

WORKLOADS = ("padded", "random_virtual", "move_walk")

# nominal job seconds of one pass: a run of S seconds makes
# round(S / PASS_SECONDS) passes, so it runs the same jobs however fast the
# machine or the program is. At S = 20 that is 2, 4 and 5 passes, about 26,
# 38 and 35 s of jobs on 2 cores with no numba.
PASS_SECONDS = {"padded": 11.0, "random_virtual": 5.0, "move_walk": 4.0}


@dataclass(frozen=True)
class Job:
    """One CLI process and what its output must be checked against."""

    key: str  # expected-output key; equal for jobs whose output must match
    command: str  # skewbrace subcommand
    brace: str  # bundled brace name
    link: str = ""  # inline Gauss code, or the text of a link file for batch
    inv_type: str = ""  # invariant --type
    json_out: bool = False
    trials: int = 0
    walk_seed: int = 0
    evals: int = 0  # diagram evaluations the job completes
    base: str = ""  # bundled link the diagram was built from
    pads: int = 0
    layout: tuple[int, ...] = ()  # canonical index of each component, in code order


def random_gauss_code(rng: random.Random, crossings: int, components: int) -> str:
    """A random signed Gauss code: every crossing once over and once under
    with one random sign, shuffled and cut into nonempty components.

    Every such code is a virtual link diagram (Kauffman 1999)."""
    tokens = []
    for cid in range(1, crossings + 1):
        sign = rng.choice("+-")
        tokens += [f"O{cid}{sign}", f"U{cid}{sign}"]
    rng.shuffle(tokens)
    cuts = sorted(rng.sample(range(1, len(tokens)), components - 1))
    bounds = [0, *cuts, len(tokens)]
    return " / ".join(" ".join(tokens[a:b]) for a, b in zip(bounds, bounds[1:]))


def code_pool() -> list[tuple[str, str]]:
    """The random_virtual pool as (name, code) pairs, fixed by POOL_SEED."""
    rng = random.Random(POOL_SEED)
    return [
        (f"rv{i:02d}", random_gauss_code(rng, rng.randint(*POOL_CROSSINGS), rng.randint(*POOL_COMPONENTS)))
        for i in range(POOL_SIZE)
    ]


def walk_pool() -> list[list[int]]:
    """WALK_POOL walk seeds for each pair of MW_PAIRS, fixed by POOL_SEED."""
    rng = random.Random(f"{POOL_SEED}:walks")
    return [[rng.randrange(2**31) for _ in range(WALK_POOL)] for _ in MW_PAIRS]


def pad_count(brace: str, link: str) -> int:
    n = BRACE_SIZE[brace]
    k = 1
    while PHI_Z[brace][link] * n**k < PAD_COLORINGS:
        k += 1
    return k


def padded_code(link: str, k: int, rng: random.Random | None) -> tuple[str, tuple[int, ...]]:
    """The link's components plus k `-` components, in seeded order.

    Returns the code and, for each of its components, the component's index
    in the canonical order (link components first, then the pads)."""
    comps = LINKS[link].split(" / ") + ["-"] * k
    layout = list(range(len(comps)))
    if rng is not None:
        rng.shuffle(layout)
    return " / ".join(comps[i] for i in layout), tuple(layout)


def _rng(seed: int, workload: str, *parts: int) -> random.Random:
    return random.Random(":".join(map(str, (seed, workload, *parts))))


def padded_job(brace: str, link: str, command: tuple[str, str], rng: random.Random | None) -> Job:
    k = pad_count(brace, link)
    code, layout = padded_code(link, k, rng)
    subcommand, inv_type = command
    return Job(
        key=f"padded/{brace}/{link}/k{k}/{inv_type or subcommand}",
        command=subcommand,
        brace=brace,
        link=code,
        inv_type=inv_type,
        json_out=inv_type == "ideal",
        evals=1,
        base=link,
        pads=k,
        layout=layout,
    )


def move_walk_job(brace: str, link: str, walk_seed: int) -> Job:
    trials = WALK_TRIALS[brace]
    return Job(
        key=f"move_walk/{brace}/{link}/t{trials}",
        command="check-moves",
        brace=brace,
        link=LINKS[link],
        trials=trials,
        walk_seed=walk_seed,
        evals=trials + 1,
        base=link,
    )


def batch_job(brace: str, entries: list[tuple[str, str]]) -> Job:
    return Job(
        key="random_virtual",
        command="batch",
        brace=brace,
        link="".join(f"{name} := {code}\n" for name, code in entries),
        evals=len(entries),
    )


def pass_jobs(workload: str, seed: int, p: int) -> list[Job]:
    """The jobs of pass p, in the order they run."""
    if workload == "padded":
        # every (brace, command) pair once; 5 passes cover every link
        return [
            padded_job(brace, LINK_NAMES[(p + b + c) % len(LINK_NAMES)], command, _rng(seed, workload, p, b, c))
            for b, brace in enumerate(BRACES)
            for c, command in enumerate(PADDED_COMMANDS)
        ]
    if workload == "move_walk":
        # pair i walks seed walk_pool()[i][(p + r) % WALK_POOL], where the
        # workload seed draws the rotation r, so a run of WALK_POOL passes
        # walks every pooled seed once. Seeded walks made peak_rss_mb swing
        # from 42 to 53 MB from run to run, as about 1 job in 400 builds a
        # large diagram.
        pool = walk_pool()
        return [
            move_walk_job(brace, link, pool[i][(p + _rng(seed, workload, i).randrange(WALK_POOL)) % WALK_POOL])
            for i, (brace, link) in enumerate(MW_PAIRS)
        ]
    if workload == "random_virtual":
        # the whole pool on each brace in fixed groups of RV_BATCH codes; the
        # seed orders the files and the codes in each. Seeded grouping moved
        # job_p50_s by 17% from run to run, as a few codes do most work.
        rng = _rng(seed, workload, p)
        pool = code_pool()
        jobs = []
        for brace in RV_BRACES:
            for i in range(0, len(pool), RV_BATCH):
                group = pool[i : i + RV_BATCH]
                rng.shuffle(group)
                jobs.append(batch_job(brace, group))
        rng.shuffle(jobs)
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def workload_braces(workload: str) -> tuple[str, ...]:
    return {"padded": BRACES, "random_virtual": RV_BRACES, "move_walk": MW_BRACES}[workload]


def validate_job(brace: str) -> Job:
    return Job(key=f"validate/{brace}", command="validate", brace=brace)


def all_job_kinds() -> list[Job]:
    """One job of every kind any run can produce, in canonical layout;
    `record.py` runs these to record the expected outputs."""
    jobs = [validate_job(b) for b in BRACES]
    for brace in BRACES:
        for link in LINK_NAMES:
            jobs += [padded_job(brace, link, cmd, None) for cmd in PADDED_COMMANDS]
            if (brace, link) in MW_PAIRS:
                jobs.append(move_walk_job(brace, link, 0))
    jobs += [batch_job(brace, code_pool()) for brace in RV_BRACES]
    return jobs
