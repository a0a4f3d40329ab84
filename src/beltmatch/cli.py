"""Command-line interface.

Subcommands: roots, belt, variables, graphs, expand, verify.  JSON is the
primary output format; the text format renders the same data.  All output
is deterministic (terms and records sorted canonically).  ``verify --jobs N``
is accepted for compatibility only: checks always run one at a time, so N
changes nothing.  Exit codes: 0 success / all checks pass, 1 a
verification check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import BijectionError, IterationLimitError, UnsupportedTypeError
from .laurent import LaurentPolynomial
from .matchenum import cluster_expansion
from .mutation import (
    belt,
    check_supported,
    column_labels,
    noninitial_variables,
    roots,
    variable_names,
)
from .tilegraphs import enumerate_family, graph_for_root, realize, tilegraph_to_json, to_dot
from .verify import run_checks

USAGE_ERROR = 2


def _parse_root(text: str, rank: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"root {text!r} is not a comma-separated integer list")
    if len(coords) != rank:
        raise argparse.ArgumentTypeError(f"root {text!r} has {len(coords)} coordinates, expected {rank}")
    return coords


def _root_filename(family: str, rank: int, root: tuple[int, ...]) -> str:
    return f"{family}{rank}_" + "-".join(str(c) for c in root) + ".dot"


def cmd_roots(args: argparse.Namespace) -> tuple[int, str]:
    found = roots(args.type, args.rank)
    if args.format == "json":
        return 0, json.dumps([list(r) for r in found])
    return 0, "\n".join(",".join(str(c) for c in r) for r in found)


def _pretty(poly: LaurentPolynomial, names: tuple[str, ...]) -> str:
    split = poly.split()
    if any(d < 0 for d in split.denominator):
        return poly.to_text(names)  # an initial variable; no denominator display
    return split.to_text(names)


def cmd_belt(args: argparse.Namespace) -> tuple[int, str]:
    lattice = belt(args.type, args.rank, args.max_rows)
    if args.format == "json":
        return 0, lattice.to_json()
    names = variable_names(args.type, args.rank)
    labels = column_labels(args.type, args.rank)
    lines = []
    for row in lattice.rows():
        lines.append(
            "   ".join(
                f"x{labels[c.slot]}^({c.superscript})={_pretty(c.value, names)}" for c in row
            )
        )
    return 0, "\n".join(lines)


def cmd_variables(args: argparse.Namespace) -> tuple[int, str]:
    names = variable_names(args.type, args.rank)
    variables = noninitial_variables(args.type, args.rank)
    records = [
        {"root": list(root), "variable": poly.split().to_text(names)}
        for root, poly in sorted(variables.items())
    ]
    if args.format == "json":
        return 0, json.dumps(records, indent=2, sort_keys=True)
    return 0, "\n".join(f"{','.join(str(c) for c in r['root'])}: {r['variable']}" for r in records)


def cmd_graphs(args: argparse.Namespace) -> tuple[int, str]:
    graphs = enumerate_family(args.type, args.rank)
    if args.dot_dir is not None:
        directory = Path(args.dot_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for graph in graphs:
            path = directory / _root_filename(args.type, args.rank, graph.mu)
            path.write_text(to_dot(realize(graph)))
    if args.format == "json":
        return 0, "[\n" + ",\n".join(tilegraph_to_json(g) for g in graphs) + "\n]"
    return 0, "\n".join(
        f"{','.join(str(c) for c in g.mu)}: {type(g.layout).__name__}" for g in graphs
    )


def cmd_expand(args: argparse.Namespace) -> tuple[int, str]:
    root = _parse_root(args.root, args.rank)
    if args.format == "dot":
        return 0, to_dot(realize(graph_for_root(args.type, args.rank, root)))
    names = variable_names(args.type, args.rank)
    split = cluster_expansion(args.type, args.rank, root).split()
    if args.format == "json":
        payload = {
            "root": list(root),
            "numerator": split.numerator.to_text(names),
            "denominator": [int(d) for d in split.denominator],
            "text": split.to_text(names),
        }
        return 0, json.dumps(payload, indent=2, sort_keys=True)
    return 0, split.to_text(names)


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    checks = [part.strip() for part in args.checks.split(",") if part.strip()]
    report = run_checks(args.type, args.rank, checks)
    if args.format == "json":
        return (0 if report.passed else 1), report.to_json()
    lines = []
    for result in report.merged():
        status = "PASS" if result.passed else "FAIL"
        note = ""
        if "roots_checked" in result.details:
            note = f" ({result.details['roots_checked']} roots checked)"
        elif "counterexample" in result.details:
            note = " " + json.dumps(result.details["counterexample"], sort_keys=True)
        lines.append(f"{status} {result.name}{note}")
    lines.append(("all checks passed" if report.passed else "some checks FAILED"))
    return (0 if report.passed else 1), "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beltmatch",
        description="Cluster variables of classical type by belt mutation and by "
        "weighted perfect matchings, with cross-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...] = ("json", "text")) -> None:
        p.add_argument("--type", required=True, choices=("A", "B", "C", "D", "G2"))
        p.add_argument("--rank", required=True, type=int)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")

    common(sub.add_parser("roots", help="positive roots in simple-root coordinates"))
    p_belt = sub.add_parser("belt", help="belt lattice rows")
    common(p_belt)
    p_belt.add_argument("--max-rows", type=int, default=None)
    common(sub.add_parser("variables", help="all non-initial cluster variables keyed by root"))
    p_graphs = sub.add_parser("graphs", help="the family of tile graphs")
    common(p_graphs)
    p_graphs.add_argument("--dot-dir", default=None, help="write one DOT file per graph here")
    p_expand = sub.add_parser("expand", help="matching expansion of a single root")
    common(p_expand, formats=("text", "json", "dot"))
    p_expand.add_argument("--root", required=True, help="comma-separated root coordinates")
    p_verify = sub.add_parser("verify", help="run verification checks")
    common(p_verify)
    p_verify.add_argument(
        "--checks",
        default="all",
        help="comma-separated: theorem,diamonds,condensation,centerone,excision,folding or all",
    )
    p_verify.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility; checks always run one at a time",
    )
    return parser


COMMANDS = {
    "roots": cmd_roots,
    "belt": cmd_belt,
    "variables": cmd_variables,
    "graphs": cmd_graphs,
    "expand": cmd_expand,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        check_supported(args.type, args.rank)
        code, output = COMMANDS[args.command](args)
    except (
        UnsupportedTypeError,
        BijectionError,
        IterationLimitError,
        argparse.ArgumentTypeError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.out is not None:
        Path(args.out).write_text(output + "\n")
    else:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
