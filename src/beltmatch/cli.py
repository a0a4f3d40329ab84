"""Command-line interface.

Subcommands: roots, belt, variables, graphs, expand, verify.  JSON is the
primary output format; the text format renders the same data.  All output is
deterministic (terms and records sorted canonically).  ``verify --jobs N``
(N >= 1) is accepted for compatibility only: checks always run one at a time,
so N changes nothing, and ``verify`` prints the report's own rendering.  Exit
codes: 0 success / all checks pass, 1 a verification check failed or raised,
2 usage error (a ``belt --max-rows`` cap below the period included) or an
unwritable output (an ``--out`` or ``--dot-dir`` path, or a closed or full
stdout), 3 a crash: any other exception a command raises, a BijectionError or
a failed root closure included, whose traceback goes to stderr while stdout
stays empty.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from operator import add
from pathlib import Path

from .errors import CheckSelectionError, IterationLimitError, UnsupportedTypeError
from .laurent import MonomialFactorization
from .matchenum import root_matching_polynomial
from .mutation import (
    FAMILIES,
    belt,
    check_supported,
    noninitial_variables,
    roots,
    variable_names,
)
from .tilegraphs import enumerate_family, graph_for_root, realize, tilegraph_to_json, to_dot
from .verify import CHECK_NAMES, run_checks

USAGE_ERROR = 2
CRASH = 3


def _parse_root(text: str, family: str, rank: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"root {text!r} is not a comma-separated integer list")
    if len(coords) != rank:
        raise argparse.ArgumentTypeError(f"root {text!r} has {len(coords)} coordinates, expected {rank}")
    if coords not in roots(family, rank):
        raise argparse.ArgumentTypeError(f"{coords} is not a positive root of {family}_{rank}")
    return coords


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is below 1")
    return value


def _root_filename(family: str, rank: int, root: tuple[int, ...]) -> str:
    return f"{family}{rank}_" + "-".join(str(c) for c in root) + ".dot"


def cmd_roots(args: argparse.Namespace) -> tuple[int, str]:
    found = roots(args.type, args.rank)
    if args.format == "json":
        return 0, json.dumps([list(r) for r in found])
    return 0, "\n".join(",".join(str(c) for c in r) for r in found)


def cmd_belt(args: argparse.Namespace) -> tuple[int, str]:
    roots(args.type, args.rank)  # a failed root closure is a crash, so raise it outside the gate
    try:
        lattice = belt(args.type, args.rank, args.max_rows)
    except IterationLimitError as exc:  # a --max-rows cap below the period
        raise argparse.ArgumentTypeError(str(exc)) from None
    if args.format == "json":
        return 0, lattice.to_json()
    names = variable_names(args.type, args.rank)
    # Superscript 0 marks an initial variable, printed without a denominator.
    lines = (
        "   ".join(
            f"{names[c.slot]}^({c.superscript})="
            + (c.value.split() if c.superscript else c.value).to_text(names)
            for c in row
        )
        for row in lattice.rows
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


def _expansion(args: argparse.Namespace, root: tuple[int, ...]) -> MonomialFactorization:
    # The expansion is P / x^root: P's own numerator over x^(root - min exponents of P).
    numerator, shift = root_matching_polynomial(args.type, args.rank, root).split()
    return MonomialFactorization(numerator, tuple(map(add, root, shift)))


def _expansion_fields(args: argparse.Namespace, root: tuple[int, ...], names: tuple[str, ...]) -> dict:
    """The JSON fields of an expansion, rendered, so no polynomial outlives this call."""
    split = _expansion(args, root)
    numerator = split.numerator.to_text(names)
    return {
        "root": list(root),
        "numerator": numerator,
        "denominator": [int(d) for d in split.denominator],
        "text": split.over_denominator(numerator, names),
    }


def cmd_expand(args: argparse.Namespace) -> tuple[int, str]:
    root = _parse_root(args.root, args.type, args.rank)
    if args.format == "dot":
        return 0, to_dot(realize(graph_for_root(args.type, args.rank, root)))
    names = variable_names(args.type, args.rank)
    if args.format == "json":
        return 0, json.dumps(_expansion_fields(args, root, names), indent=2, sort_keys=True)
    return 0, _expansion(args, root).to_text(names)


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    report = run_checks(args.type, args.rank, args.checks.split(","))
    output = report.to_json() if args.format == "json" else report.to_text()
    return (0 if report.passed else 1), output


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beltmatch",
        description="Cluster variables of classical type by belt mutation and by "
        "weighted perfect matchings, with cross-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...] = ("json", "text")) -> None:
        p.add_argument("--type", required=True, choices=FAMILIES)
        p.add_argument("--rank", required=True, type=int)
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")

    common(sub.add_parser("roots", help="positive roots in simple-root coordinates"))
    p_belt = sub.add_parser("belt", help="belt lattice rows")
    common(p_belt)
    p_belt.add_argument(
        "--max-rows",
        type=_positive_int,
        default=None,
        help="cap on the mutation sweeps after the two initial rows (not on the printed "
        "rows); fails if the sweeps have not covered every positive root by then",
    )
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
        help=f"comma-separated: {', '.join(CHECK_NAMES)} or all",
    )
    p_verify.add_argument(
        "--jobs",
        type=_positive_int,
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
        if args.out is not None:
            Path(args.out).write_text(output + "\n")
        else:
            try:
                print(output, flush=True)
            except OSError:  # a closed or full stdout: leave nothing for the flush at exit
                if sys.stdout is sys.__stdout__:  # a real stream, not a capture
                    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                raise
    except (
        UnsupportedTypeError,
        CheckSelectionError,
        argparse.ArgumentTypeError,
        OSError,  # an unwritable --out or --dot-dir path, or a closed or full stdout
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:
        import traceback  # only a crash pays for the import
        traceback.print_exc()
        return CRASH
    return code


if __name__ == "__main__":
    sys.exit(main())
