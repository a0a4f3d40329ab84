"""The beltmatch benchmark: CLI jobs end to end, and a traced per-layer run.

    python3 bench/run.py --workload belt-variables --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36      # every workload

Run from the repository root.  Each job is one fresh ``python -m
beltmatch.cli`` process with the checked-out ``src/`` first on PYTHONPATH:
a closed loop with one client and one job at a time.  Passes over the
workload's jobs repeat until ``--seconds`` is spent; the seed fixes the job
order of each pass and match-expand's extra roots.  Every job's exit code and
stdout SHA-256 must equal the digests in ``bench/digests.json`` (see
record.py); any other outcome, or overrunning the per-job cap, is a failure.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians over
passes (set-up time over repeated no-op calls).  ``--trace 1`` alternates
untraced passes with traced ones, which run each job under trace_job.py, and
reports the per-layer metrics from the traced passes plus ``trace.overhead``.
The last line of stdout is the JSON result; the lines above it give every
metric with its unit, quartiles and sample count, and the tree measured.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
from env import nproc, python_version, revision, src_sha256
from jobs import JobResult, child_env, cli_command, job_key, run_job, run_process
from spans import job_totals, layer_value

BENCH = Path(__file__).resolve().parent
# A job that runs longer than this is killed and counted as failed.
JOB_CAP_S = 60.0
# No job starts after DEADLINE_S, and none runs past END_S, so a run always
# exits within 180 s.
DEADLINE_S = 150.0
END_S = 170.0
# No-op samples taken before the first pass; one more follows every pass.
SETUP_SAMPLES = 8


@dataclass
class Pass:
    wall_s: float
    results: list[JobResult]
    totals: dict[str, float] = field(default_factory=dict)  # span totals, traced passes only


class Bench:
    """One benchmark run against the tree checked out at ``root``."""

    def __init__(self, root: Path, digests: dict) -> None:
        self.root = root
        self.src = root / "src"
        self.env = child_env(self.src)
        self.records = digests["jobs"]
        self.pools = digests["pools"]
        self.trace_dir = root / ".bench_build" / "trace"
        self.start = time.perf_counter()
        self.results: list[JobResult] = []
        self.traced_jobs = 0

    def late(self) -> bool:
        return time.perf_counter() - self.start > DEADLINE_S

    def job(self, argv: tuple[str, ...], command: list[str] | None = None) -> JobResult:
        cap = min(JOB_CAP_S, END_S - (time.perf_counter() - self.start))
        result = run_job(argv, command or cli_command(argv), self.env, self.root, cap, self.records.get(job_key(argv)))
        self.results.append(result)
        return result

    def skipped(self, argv: tuple[str, ...]) -> None:
        self.results.append(JobResult(argv, 0.0, 0.0, 0.0, 0, "not started before the deadline"))

    def traced_job(self, argv: tuple[str, ...]) -> tuple[JobResult, Path]:
        self.traced_jobs += 1
        job_id = f"job-{self.traced_jobs}"
        spans = self.trace_dir / f"{job_id}.json"
        command = [sys.executable, str(BENCH / "trace_job.py"), str(spans), str(self.src), job_id, "--", *argv]
        return self.job(argv, command), spans

    def run_pass(self, jobs: list[tuple[str, ...]], traced: bool = False) -> Pass | None:
        """One pass over ``jobs``; None when the deadline stopped it part-way.

        A traced pass reads its span files only after its wall time is taken.
        """
        results = []
        span_files = []
        begin = time.perf_counter()
        for index, argv in enumerate(jobs):
            if self.late():
                for rest in jobs[index:]:
                    self.skipped(rest)
                return None
            if traced:
                result, spans = self.traced_job(argv)
                span_files.append(spans)
            else:
                result = self.job(argv)
            results.append(result)
        wall = time.perf_counter() - begin
        totals: dict[str, float] = {}
        for result, spans in zip(results, span_files):
            job = job_totals(spans) if spans.is_file() else {}
            spans.unlink(missing_ok=True)
            if result.argv[-2:] == ("--format", "dot"):
                job["matchenum.cluster_expansion.dot_calls"] = job.get("matchenum.cluster_expansion.calls", 0.0)
            job["cli.stdout_bytes"] = result.stdout_bytes
            for key, value in job.items():
                totals[key] = totals.get(key, 0.0) + value
        return Pass(wall, results, totals)

    def setup_sample(self) -> float | None:
        if self.late():
            return None
        return self.job(wl.NOOP).wall_s


def stats(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def measure(bench: Bench, workload: str, seed: int, seconds: float) -> dict[str, list[float]]:
    """Untraced passes: samples of every end-to-end metric, one per pass
    (setup_s: one per no-op call, spread over the run)."""
    jobs, rng = wl.jobs_for(workload, seed, bench.pools)
    first = len(bench.results)
    setups = [s for s in (bench.setup_sample() for _ in range(SETUP_SAMPLES)) if s is not None]
    passes: list[Pass] = []
    begin = time.perf_counter()
    while True:
        order = list(jobs)
        rng.shuffle(order)
        done = bench.run_pass(order)
        if done is None:
            break
        passes.append(done)
        sample = bench.setup_sample()
        if sample is not None:
            setups.append(sample)
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - begin + typical > seconds:
            break
    ran = bench.results[first:]
    return {
        "setup_s": setups,
        "run_s": [p.wall_s for p in passes],
        "slowest_job_s": [max(r.wall_s for r in p.results) for p in passes],
        "cpu_s": [sum(r.cpu_s for r in p.results) for p in passes],
        "peak_rss_mb": [max(r.rss_mb for r in p.results) for p in passes],
        "ok_frac": [1.0 - sum(1 for r in ran if r.failure) / len(ran)],
    }


def trace(bench: Bench, workload: str, seed: int, seconds: float, metrics: list[str]) -> dict[str, list[float]]:
    """Untraced and traced passes in turn: samples of every per-layer metric,
    one per traced pass."""
    jobs, rng = wl.jobs_for(workload, seed, bench.pools)
    bench.trace_dir.mkdir(parents=True, exist_ok=True)
    plain: list[Pass] = []
    traced: list[Pass] = []
    begin = time.perf_counter()
    try:
        while True:
            order = list(jobs)
            rng.shuffle(order)
            first = bench.run_pass(order)
            second = bench.run_pass(order, traced=True) if first is not None else None
            if second is None:
                break
            plain.append(first)
            traced.append(second)
            typical = statistics.median(a.wall_s + b.wall_s for a, b in zip(plain, traced))
            if time.perf_counter() - begin + typical > seconds:
                break
    finally:
        shutil.rmtree(bench.trace_dir, ignore_errors=True)
        try:
            bench.trace_dir.parent.rmdir()
        except OSError:
            pass
    samples = {m: [layer_value(m, p.totals) for p in traced] for m in metrics if m != "trace.overhead"}
    samples["trace.overhead"] = [b.wall_s / a.wall_s for a, b in zip(plain, traced)]
    return samples


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"run.py: cannot read {path}: {exc}")


def check_tree(bench: Bench) -> None:
    """The jobs must import beltmatch from the checked-out src/, nowhere else."""
    if not (bench.src / "beltmatch" / "cli.py").is_file():
        raise SystemExit(f"run.py: no beltmatch sources under {bench.src}; run from the repository root")
    probe = [sys.executable, "-c", "import beltmatch; print(beltmatch.__file__)"]
    done = run_process(probe, bench.env, bench.root, JOB_CAP_S)
    origin = Path(done.stdout.decode().strip()).resolve().parent
    if done.exit_code != 0 or origin != (bench.src / "beltmatch").resolve():
        raise SystemExit(f"run.py: jobs import beltmatch from {origin}, not from {bench.src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = load_json(root / "BENCHMARK.json")
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    bench = Bench(root, load_json(BENCH / "digests.json"))
    check_tree(bench)
    bench.job(wl.NOOP)  # compiles the bytecode, which a user pays only once

    print(
        f"# tree revision={revision(root)} src_sha256={src_sha256(bench.src)[:16]} "
        f"python={python_version()!r} nproc={nproc()} seed={args.seed} seconds={args.seconds:g}"
    )
    chosen = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    complete = True
    for workload in chosen:
        bench.start = time.perf_counter()  # the deadlines hold per workload
        if args.trace:
            samples = trace(bench, workload, args.seed, args.seconds, list(units))
        else:
            samples = measure(bench, workload, args.seed, args.seconds)
        for name, unit in units.items():
            values = samples.get(name)
            if not values:
                complete = False
                print(f"{workload:15s} {name:40s} missing")
                continue
            median, q1, q3 = stats(values)
            print(f"{workload:15s} {name:40s} median {median:14.6f} {unit:6s} q1 {q1:.6f} q3 {q3:.6f} n={len(values)}")
            key = name if len(chosen) == 1 else f"{workload}/{name}"
            metrics[key] = {"value": median, "unit": unit}
    failures = [r for r in bench.results if r.failure]
    for result in failures[:10]:
        print(f"run.py: FAILED {job_key(result.argv)}: {result.failure}", file=sys.stderr)
    attempted = len(bench.results)
    print(f"# jobs attempted={attempted} failed={len(failures)} fail_frac={len(failures) / attempted:.6f}")
    result = {
        "correct": complete and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
