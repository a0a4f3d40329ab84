"""Run one beltmatch CLI job with a span recorded around every call into a layer.

    python3 bench/trace_job.py SPANS_OUT EXPECTED_SRC JOB_ID -- CLI_ARGV...

The wrappers live here, not in the package: each public function listed in
TARGETS is replaced, in every ``beltmatch`` module that holds a reference to
it, by a wrapper that records (name, start, end, parent, work) on a
per-thread stack, so checks run by ``verify --jobs 2`` on pool threads get
their own parent chains.  Spans stay in memory and are written to SPANS_OUT
as JSON once ``cli.main`` has returned and stdout is flushed, so the job's
stdout is byte-identical to an untraced run.  The exit code is ``main``'s.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path

# Exit code when the imported beltmatch is not the tree under test.
WRONG_TREE = 97


def _term_pairs(args, result) -> int:
    return len(args[0]) * len(args[1])


def _result_terms(args, result) -> int:
    return len(result)


def _edges(args, result) -> int:
    return len(result.edges)


# (span name, module, attribute path, work count read from args and result)
TARGETS = (
    ("cli.main", "beltmatch.cli", "main", None),
    ("laurent.mul", "beltmatch.laurent", "LaurentPolynomial.__mul__", _term_pairs),
    ("laurent.pow", "beltmatch.laurent", "LaurentPolynomial.__pow__", None),
    ("laurent.div_exact", "beltmatch.laurent", "LaurentPolynomial.div_exact", _result_terms),
    ("laurent.add", "beltmatch.laurent", "LaurentPolynomial.__add__", None),
    ("laurent.substitute", "beltmatch.laurent", "LaurentPolynomial.substitute", None),
    ("laurent.text", "beltmatch.laurent", "LaurentPolynomial.to_text", None),
    ("laurent.text", "beltmatch.laurent", "LaurentPolynomial.split", None),
    ("laurent.text", "beltmatch.laurent", "MonomialFactorization.to_text", None),
    ("rootsys.positive_roots", "beltmatch.rootsys", "positive_roots", None),
    ("tilegraphs.enumerate_family", "beltmatch.tilegraphs", "enumerate_family", None),
    ("tilegraphs.graph_for_root", "beltmatch.tilegraphs", "graph_for_root", None),
    ("tilegraphs.realize", "beltmatch.tilegraphs", "realize", _edges),
    ("tilegraphs.to_dot", "beltmatch.tilegraphs", "to_dot", None),
    ("matchenum.cluster_expansion", "beltmatch.matchenum", "cluster_expansion", None),
    ("matchenum.matching_polynomial", "beltmatch.matchenum", "matching_polynomial", _result_terms),
    ("mutation.belt", "beltmatch.mutation", "belt", None),
    ("mutation.mutate", "beltmatch.mutation", "Seed.mutate", None),
    ("mutation.noninitial_variables", "beltmatch.mutation", "noninitial_variables", None),
    ("verify.theorem", "beltmatch.verify", "verify_theorem", None),
    ("verify.diamonds", "beltmatch.verify", "check_belt_diamonds", None),
    ("verify.condensation", "beltmatch.verify", "check_condensation", None),
    ("verify.centerone", "beltmatch.verify", "check_center_one", None),
    ("verify.excision", "beltmatch.verify", "check_excision", None),
    ("verify.folding", "beltmatch.verify", "check_folding", None),
    ("verify.run_checks", "beltmatch.verify", "run_checks", None),
)


class Tracer:
    """Spans per thread: [name code, start ns, end ns, parent index, work]."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.threads: list[tuple[int, list[list[int]]]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _thread_spans(self) -> tuple[list[list[int]], list[int]]:
        spans: list[list[int]] = []
        stack: list[int] = []
        self._local.spans, self._local.stack = spans, stack
        with self._lock:
            self.threads.append((threading.get_ident(), spans))
        return spans, stack

    def wrap(self, name: str, fn, work):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        local = self._local
        clock = time.perf_counter_ns
        thread_spans = self._thread_spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                spans, stack = local.spans, local.stack
            except AttributeError:
                spans, stack = thread_spans()
            record = [code, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if work is not None:
                record[4] = work(args, result)
            return result

        return traced

    def dump(self, path: Path, job_id: str) -> None:
        payload = {"job": job_id, "names": self.names, "threads": self.threads}
        path.write_text(json.dumps(payload, separators=(",", ":")))


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the targets this tree does not have."""
    missing = []
    modules = [m for n, m in sorted(sys.modules.items()) if n == "beltmatch" or n.startswith("beltmatch.")]
    for name, module_name, path, work in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{path}")
            continue
        traced = tracer.wrap(name, original, work)
        if outer:
            setattr(owner, attr, traced)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    return missing


def main() -> int:
    spans_out, expected_src, job_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: trace_job.py SPANS_OUT EXPECTED_SRC JOB_ID -- CLI_ARGV...", file=sys.stderr)
        return 2
    import beltmatch
    import beltmatch.cli

    origin = Path(beltmatch.__file__).resolve().parent
    if origin != Path(expected_src).resolve() / "beltmatch":
        print(f"trace_job: imported beltmatch from {origin}, not from {expected_src}", file=sys.stderr)
        return WRONG_TREE
    tracer = Tracer()
    for target in install(tracer):
        print(f"trace_job: {target} not found; its spans are absent", file=sys.stderr)
    code = beltmatch.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(Path(spans_out), job_id)
    return code


if __name__ == "__main__":
    sys.exit(main())
