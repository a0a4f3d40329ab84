"""Record the exit code and stdout digest of every benchmark job, cross-checked.

    python3 bench/record.py        # from the repository root; rewrites bench/digests.json

Every job the benchmark can run (the fixed jobs of each workload, every root
in match-expand's extra-root pools, and the no-op setup call) is run once as
a CLI process.  Before anything is written, each output is checked once by a
route other than the one that produced it, where one is in reach:

* ``variables`` (belt route): every root's variable equals the matching
  route's ``cluster_expansion``, and the roots are exactly the positive roots.
* ``expand`` of A and C roots (strips): the transfer recurrence
  ``strip_transfer_polynomial`` along the strip's tiles.
* ``expand`` of the small B and D pool roots: exhaustive enumeration of the
  perfect matchings, ``matching_polynomial_by_enumeration``.
* ``expand`` of the B12 and D12 heaviest roots and the B12 DOT export: no
  second route is in reach.  The belt route at B12/D12 is far beyond its
  measured wall, and these double-hexagon graphs have too many perfect
  matchings to list; their digests rest on the memoized elimination alone.
* ``verify``: the report itself is the cross-check; it must say passed.
* the no-op ``roots`` call: the closed-form root count.

The digests record the tree they were taken from; the benchmark then
requires byte-identical output from every later tree.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import workloads as wl
from env import python_version, revision, src_sha256
from jobs import child_env, cli_command, job_key, run_process

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "digests.json"
# Enumerate perfect matchings only when there are at most this many.
ENUMERATION_LIMIT = 20000


class CrossCheckError(Exception):
    pass


def require(condition: bool, why: object) -> None:
    if not condition:
        raise CrossCheckError(why)


def _beltmatch():
    sys.path.insert(0, str(SRC))
    from beltmatch import cli, matchenum, mutation, rootsys, tilegraphs

    return cli, matchenum, mutation, rootsys, tilegraphs


def build_pools(cli) -> dict[str, list[str]]:
    pools = {}
    for family, rank in wl.EXPAND_RUNGS:
        roots = cli._roots(family, rank)
        heaviest = max(roots, key=sum)
        if heaviest != wl.HEAVIEST_ROOTS[(family, rank)]:
            raise SystemExit(f"{family}{rank}: the heaviest root is {heaviest}")
        if [sum(r) for r in roots].count(sum(heaviest)) != 1:
            raise SystemExit(f"{family}{rank}: the root of greatest height is not unique")
        pools[f"{family}{rank}"] = [wl.root_text(r) for r in roots if wl.in_pool(family, rank, r)]
    return pools


def strip_order(family: str, root: tuple[int, ...]) -> list[int]:
    """Tile indices along the strip of an A or C root, west to east."""
    support = [i + 1 for i, c in enumerate(root) if c]
    if family == "C" and 2 in root:
        i = 1 + sum(1 for c in root if c == 2)
        return list(range(i, 1, -1)) + [1] + list(range(2, support[-1] + 1))
    return list(range(support[0], support[-1] + 1))


def cross_check(argv: tuple[str, ...], stdout: bytes, code: int, lib) -> str:
    """Check one recorded output by another route; returns what was checked."""
    cli, matchenum, mutation, rootsys, tilegraphs = lib
    L = matchenum.LaurentPolynomial
    require(code == 0, f"exit code {code}")
    args = cli.build_parser().parse_args(list(argv))
    family, rank = args.type, args.rank
    names = mutation.variable_names(family, rank)
    if args.command == "roots":
        count = len(json.loads(stdout))
        require(count == rootsys.expected_root_count(family, rank), count)
        return f"closed-form root count {count}"
    if args.command == "verify":
        require(json.loads(stdout)["passed"] is True, "the report did not pass")
        return "the verify report itself; it passed"
    if args.command == "variables":
        records = json.loads(stdout)
        roots = {tuple(r["root"]) for r in records}
        require(roots == set(cli._roots(family, rank)), "roots differ from the positive roots")
        for record in records:
            other = matchenum.cluster_expansion(family, rank, tuple(record["root"]))
            require(other.split().to_text(names) == record["variable"], record["root"])
        return f"matching route (cluster_expansion) on all {len(records)} roots"
    root = tuple(int(c) for c in args.root.split(","))
    if args.format == "dot":
        return "none in reach: the DOT export has no second route"
    payload = json.loads(stdout)
    shift = L.monomial(1, tuple(-c for c in root))
    if family in ("A", "C"):
        tiles = tilegraphs.tile_set(family, rank)
        one = L.one(rank)
        pairs = []
        for index in strip_order(family, root):
            north, south = tiles[index].weight("N"), tiles[index].weight("S")
            pairs.append(
                tuple(one if w is None else L.variable(w, rank) for w in (north, south))
            )
        value = matchenum.strip_transfer_polynomial(pairs, rank) * shift
        how = f"strip transfer recurrence over {len(pairs)} tiles"
    else:
        matchings = sum(L.parse(payload["numerator"], rank, names).coefficients())
        if matchings > ENUMERATION_LIMIT:
            return (
                f"none in reach: {matchings} perfect matchings are too many to list, "
                f"and the belt route at {family}{rank} is beyond its measured wall"
            )
        graph = tilegraphs.realize(tilegraphs.graph_for_root(family, rank, root))
        value = matchenum.matching_polynomial_by_enumeration(graph) * shift
        how = f"exhaustive enumeration of {matchings} perfect matchings"
    split = value.split()
    require(payload["numerator"] == split.numerator.to_text(names), root)
    require(payload["denominator"] == list(split.denominator), root)
    require(payload["text"] == split.to_text(names), root)
    return how


def main() -> int:
    if not (SRC / "beltmatch" / "cli.py").is_file():
        print("record.py: run from the repository root", file=sys.stderr)
        return 2
    lib = _beltmatch()
    pools = build_pools(lib[0])
    jobs = [wl.NOOP]
    for workload in wl.WORKLOADS:
        jobs += wl.fixed_jobs(workload)
    for family, rank in wl.EXPAND_RUNGS:
        jobs += [wl.expand_job(family, rank, wl.parse_root(r)) for r in pools[f"{family}{rank}"]]
    env = child_env(SRC)
    records = {}
    for argv in jobs:
        done = run_process(cli_command(argv), env, ROOT, 600)
        try:
            checked = cross_check(argv, done.stdout, done.exit_code, lib)
        except CrossCheckError as exc:
            print(f"record.py: {job_key(argv)}: cross-check failed: {exc}", file=sys.stderr)
            return 1
        records[job_key(argv)] = {
            "exit_code": done.exit_code,
            "stdout_sha256": hashlib.sha256(done.stdout).hexdigest(),
            "stdout_bytes": len(done.stdout),
            "cross_check": checked,
        }
        print(f"{done.wall_s:7.3f} s  {job_key(argv)}: {checked}", flush=True)
    payload = {
        "recorded_from": {
            "revision": revision(ROOT),
            "src_sha256": src_sha256(SRC),
            "python": python_version(),
        },
        "pools": pools,
        "jobs": records,
    }
    lines = [f"  {json.dumps(key)}: {json.dumps(records[key], sort_keys=True)}" for key in sorted(records)]
    head = json.dumps({k: v for k, v in payload.items() if k != "jobs"}, indent=1, sort_keys=True)[:-2]
    OUT.write_text(head + ',\n "jobs": {\n' + ",\n".join(lines) + "\n }\n}\n")
    print(f"wrote {len(records)} job records to {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
