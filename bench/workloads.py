"""The benchmark's workloads: which CLI jobs each one runs, and in what order.

Every job is the argv of one ``python -m beltmatch.cli`` process.  The
workload seed fixes the job order of each pass and match-expand's extra
roots; it never reaches the program except through that argv.
"""

from __future__ import annotations

import random

# Rungs of the ladder.  Each (family, rank) is one process per job.
BELT_RUNGS = (("A", 12), ("C", 6), ("B", 7), ("G2", 2))
EXPAND_RUNGS = (("A", 20), ("B", 12), ("C", 10), ("D", 12))
VERIFY_RUNGS = (("B", 6), ("D", 7), ("C", 4), ("D", 5), ("G2", 2))

# The highest root of each expand rung: the largest tile graph of the family.
# A20 is the full strip, C10 the folded strip, B12 and D12 double-hexagon
# graphs.  record.py checks that each is the unique root of greatest height.
HEAVIEST_ROOTS = {
    ("A", 20): (1,) * 20,
    ("B", 12): (2,) * 11 + (1,),
    ("C", 10): (1,) + (2,) * 9,
    ("D", 12): (1, 1) + (2,) * 9 + (1,),
}

# The seeded draw takes this many extra roots per expand rung, from the roots
# whose height lies between a quarter and a half of the rung's greatest
# height.  Those cost a few milliseconds of matching each, so a pass costs
# nearly the same whatever the seed draws, while the inputs still differ from
# seed to seed.
EXTRA_ROOTS_PER_RUNG = 2

# The no-op call timed as setup_s: interpreter start, package import and
# argument parsing, which every job pays.
NOOP = ("roots", "--type", "G2", "--rank", "2")

WORKLOADS = ("belt-variables", "match-expand", "verify-all")


def root_text(root: tuple[int, ...]) -> str:
    return ",".join(str(c) for c in root)


def parse_root(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.split(","))


def variables_job(family: str, rank: int) -> tuple[str, ...]:
    return ("variables", "--type", family, "--rank", str(rank))


def expand_job(family: str, rank: int, root: tuple[int, ...], fmt: str = "json") -> tuple[str, ...]:
    return ("expand", "--type", family, "--rank", str(rank), "--root", root_text(root), "--format", fmt)


def verify_job(family: str, rank: int) -> tuple[str, ...]:
    return ("verify", "--type", family, "--rank", str(rank), "--checks", "all", "--jobs", "2")


def fixed_jobs(workload: str) -> list[tuple[str, ...]]:
    """The jobs a workload runs whatever the seed."""
    if workload == "belt-variables":
        return [variables_job(f, r) for f, r in BELT_RUNGS]
    if workload == "match-expand":
        jobs = [expand_job(f, r, HEAVIEST_ROOTS[(f, r)]) for f, r in EXPAND_RUNGS]
        jobs.append(expand_job("B", 12, HEAVIEST_ROOTS[("B", 12)], "dot"))
        return jobs
    if workload == "verify-all":
        return [verify_job(f, r) for f, r in VERIFY_RUNGS]
    raise ValueError(f"unknown workload {workload!r}")


def extra_jobs(workload: str, pools: dict[str, list[str]], rng: random.Random) -> list[tuple[str, ...]]:
    """match-expand's seeded extra roots, drawn from each rung's recorded pool."""
    if workload != "match-expand":
        return []
    jobs = []
    for family, rank in EXPAND_RUNGS:
        pool = sorted(parse_root(r) for r in pools[f"{family}{rank}"])
        for root in rng.sample(pool, EXTRA_ROOTS_PER_RUNG):
            jobs.append(expand_job(family, rank, root))
    return jobs


def jobs_for(workload: str, seed: int, pools: dict[str, list[str]]) -> tuple[list[tuple[str, ...]], random.Random]:
    """The workload's jobs for this seed, and the generator that orders each pass."""
    rng = random.Random(f"{workload}:{seed}")
    return fixed_jobs(workload) + extra_jobs(workload, pools, rng), rng


def in_pool(family: str, rank: int, root: tuple[int, ...]) -> bool:
    top = sum(HEAVIEST_ROOTS[(family, rank)])
    return top // 4 < sum(root) <= top // 2
