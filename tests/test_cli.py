"""The command-line surface: formats, exit codes, determinism, file export."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from beltmatch import matchenum, mutation
from beltmatch.cli import main
from beltmatch.errors import BijectionError, DimensionMismatchError, StructureError
from beltmatch.laurent import LaurentPolynomial
from beltmatch.verify import CHECK_NAMES

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_expand_text(capsys):
    code, out = run(capsys, "expand", "--type", "A", "--rank", "2", "--root", "1,0")
    assert code == 0
    assert out.strip() == "(x2 + 1) / x1"


def test_expand_json(capsys):
    code, out = run(capsys, "expand", "--type", "C", "--rank", "2", "--root", "1,0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["numerator"] == "x2^2 + 1"
    assert payload["denominator"] == [1, 0]


def test_roots_g2_json(capsys):
    code, out = run(capsys, "roots", "--type", "G2", "--rank", "2", "--format", "json")
    assert code == 0
    roots = json.loads(out)
    assert len(roots) == 6 and all(len(r) == 2 for r in roots)


def test_verify_a3_all_passes(capsys):
    code, out = run(capsys, "verify", "--type", "A", "--rank", "3", "--checks", "all", "--format", "text")
    assert code == 0
    assert "6 roots checked" in out
    assert "all checks passed" in out


def test_verify_json_exit_zero(capsys):
    code, out = run(capsys, "verify", "--type", "B", "--rank", "2", "--checks", "theorem,diamonds", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_usage_errors_exit_two(capsys):
    assert main(["roots", "--type", "E", "--rank", "6"]) == 2
    assert main(["roots", "--type", "D", "--rank", "3"]) == 2
    assert main(["expand", "--type", "A", "--rank", "2", "--root", "zzz"]) == 2
    assert main(["expand", "--type", "A", "--rank", "2", "--root", "1,0,0"]) == 2
    assert main(["nonsense"]) == 2


def test_expand_rejects_non_root(capsys):
    for fmt in ("text", "json", "dot"):
        code = main(["expand", "--type", "A", "--rank", "2", "--root", "2,0", "--format", fmt])
        assert code == 2
        assert capsys.readouterr().err == "error: (2, 0) is not a positive root of A_2\n"


def test_repeated_runs_are_byte_identical(capsys):
    args = ["variables", "--type", "B", "--rank", "3", "--format", "json"]
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    verify_args = ["verify", "--type", "C", "--rank", "2", "--format", "json"]
    _, first = run(capsys, *verify_args)
    _, second = run(capsys, *(verify_args + ["--jobs", "3"]))
    assert first == second


def test_belt_json(capsys):
    code, out = run(capsys, "belt", "--type", "A", "--rank", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "A" and payload["rank"] == 2
    assert payload["rows"][0][0]["poly"] == "x1"


@pytest.mark.parametrize("value", ["0", "-1", "4", str(10**9)])
def test_belt_rejects_max_rows_as_an_unknown_argument(capsys, value):
    # The belt takes no cap: every --max-rows value is an unknown argument.
    code = main(["belt", "--type", "A", "--rank", "3", "--max-rows", value, "--format", "text"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--max-rows" in captured.err


@pytest.mark.parametrize("command", ["roots", "belt", "variables"])
def test_a_failed_root_closure_is_a_crash(command):
    # The closure cap is internal: hitting it is a fault, not the user's mistake.
    probe = (
        "import sys\n"
        "from beltmatch import cli, mutation, rootsys\n"
        "rootsys._closure_round_cap = lambda n: 0\n"
        "mutation.roots.cache_clear()\n"
        f"sys.exit(cli.main([{command!r}, '--type', 'A', '--rank', '3']))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("Traceback (most recent call last):\n")
    assert done.stderr.endswith("IterationLimitError: reflection closure failed to stabilise\n")


BELT_LADDER = (
    [("A", r) for r in range(1, 12)]
    + [("B", r) for r in range(2, 8)]
    + [("C", r) for r in range(2, 8)]
    + [("D", r) for r in range(4, 9)]
    + [("G2", 2)]
)


@pytest.mark.parametrize("family,rank", BELT_LADDER)
def test_belt_text_prints_one_line_per_nonempty_sweep(capsys, family, rank):
    # The two initial rows, then one per sweep of the period (h = 4 at A_3,
    # six lines); A_1's even row is empty and its even sweep writes none.
    code, out = run(capsys, "belt", "--type", family, "--rank", str(rank), "--format", "text")
    assert code == 0
    odd, even = mutation.parity_groups(family, rank)
    h = 2 * len(mutation.roots(family, rank)) // rank
    sweeps = [t for t in range(1, h + 1) if (odd if t % 2 else even)]
    lines = out.splitlines()
    assert len(lines) == 2 + len(sweeps)
    if family == "A" and rank == 3:
        assert len(lines) == 6
    for t, line in zip(sweeps, lines[2:]):
        cells = line.split("   ")
        assert len(cells) == len(odd if t % 2 else even)
        assert all(f"^({t})=" in cell for cell in cells)


def test_expand_json_text_matches_text_format(capsys):
    argv = ("expand", "--type", "B", "--rank", "4", "--root", "2,2,1,1")
    code, text = run(capsys, *argv, "--format", "text")
    assert code == 0
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["text"] == text.rstrip("\n")
    assert payload["text"].startswith(f"({payload['numerator']}) / ")


def test_expand_json_holds_no_polynomial_while_encoding(capsys, monkeypatch):
    # The A20 heaviest root has a 17,711-term numerator.  By the time its JSON
    # is encoded only the rendered strings may be alive: the numerator text
    # and the text field, not the polynomial behind them.
    argv = ("expand", "--type", "A", "--rank", "20", "--root", ",".join(["1"] * 20), "--format", "json")
    run(capsys, *argv)  # warm the per-(family, rank) caches outside the trace
    seen = {}
    dumps = json.dumps

    def spy(payload, *args, **kwargs):
        seen["held"] = tracemalloc.get_traced_memory()[0]
        seen["numerator"] = len(payload["numerator"])
        return dumps(payload, *args, **kwargs)

    monkeypatch.setattr("beltmatch.cli.json.dumps", spy)
    tracemalloc.start()
    try:
        code, _ = run(capsys, *argv)
    finally:
        tracemalloc.stop()
    assert code == 0
    assert seen["held"] < 3 * seen["numerator"]


def test_variables_text(capsys):
    code, out = run(capsys, "variables", "--type", "A", "--rank", "2", "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "0,1: (x1 + 1) / x2",
        "1,0: (x2 + 1) / x1",
        "1,1: (x1 + x2 + 1) / x1*x2",
    ]


def test_graphs_dot_directory(tmp_path, capsys):
    code, _ = run(
        capsys,
        "graphs", "--type", "A", "--rank", "3", "--dot-dir", str(tmp_path), "--format", "text",
    )
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "A3_0-0-1.dot",
        "A3_0-1-0.dot",
        "A3_0-1-1.dot",
        "A3_1-0-0.dot",
        "A3_1-1-0.dot",
        "A3_1-1-1.dot",
    ]
    grid = (tmp_path / "A3_1-1-1.dot").read_text()
    assert grid.count(" -- ") == 10


def test_expand_dot_format(capsys):
    code, out = run(capsys, "expand", "--type", "G2", "--rank", "2", "--root", "3,2", "--format", "dot")
    assert code == 0
    assert out.startswith("graph G {")
    assert '"h1.6" -- "h2.4"' in out


@pytest.mark.parametrize("fmt,calls", [("json", 1), ("text", 1), ("dot", 0)])
def test_expand_goes_through_cluster_expansion(capsys, monkeypatch, fmt, calls):
    # The matching route has one entry: each expansion format asks it once,
    # and the DOT export, which prints only the graph, never does.
    seen = []
    expansion = matchenum.cluster_expansion

    def counted(*args):
        seen.append(args)
        return expansion(*args)

    monkeypatch.setattr("beltmatch.cli.cluster_expansion", counted)
    code, out = run(capsys, "expand", "--type", "B", "--rank", "3", "--root", "2,2,1", "--format", fmt)
    assert code == 0 and out
    assert seen == [("B", 3, (2, 2, 1))] * calls


def test_out_file(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code = main(["roots", "--type", "A", "--rank", "2", "--format", "json", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text()) == [[0, 1], [1, 0], [1, 1]]


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "roots.json"
    code = main(["roots", "--type", "A", "--rank", "2", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _cli_process(argv: list[str], stdout) -> subprocess.CompletedProcess:
    # The caller's environment, PYTHONUNBUFFERED included, so a test can run
    # the process in either buffering mode.
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-m", "beltmatch.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


@pytest.fixture(params=["buffered", "unbuffered"])
def buffering(request, monkeypatch):
    # A failed write surfaces at the flush when stdout is buffered, and at the
    # write itself when it is not; argparse's own help writer hides the latter.
    if request.param == "unbuffered":
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)


ROOTS_A2 = ["roots", "--type", "A", "--rank", "2"]
OUTPUTS = {"roots": ROOTS_A2, "help": ["--help"], "verify-help": ["verify", "--help"]}


@pytest.mark.parametrize("argv", OUTPUTS.values(), ids=OUTPUTS.keys())
def test_closed_stdout_is_an_unwritable_output(argv, buffering):
    # `beltmatch ... | head -c 10`: the reader is gone before the output is
    # written, which is the user's pipeline, not a failed check or a crash.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _cli_process(argv, write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == "error: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, target",
    [(argv, "stdout") for argv in OUTPUTS.values()] + [(ROOTS_A2, "--out")],
    ids=[f"{name}-stdout" for name in OUTPUTS] + ["roots-out"],
)
def test_full_output_is_an_unwritable_output(argv, target, buffering):
    if target == "stdout":
        with open("/dev/full", "w") as full:
            done = _cli_process(argv, full)
    else:
        done = _cli_process(argv + ["--out", "/dev/full"], subprocess.PIPE)
        assert done.stdout == ""
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        # 648,298 bytes, ten pipe buffers, all written before the hard exit.
        ["expand", "--type", "A", "--rank", "20", "--root", ",".join(["1"] * 20), "--format", "text"],
        ["verify", "--type", "B", "--rank", "4", "--checks", "all", "--format", "json"],
        ["roots", "--type", "A", "--rank", "0"],
        ["verify", "--help"],
    ],
    ids=["expand-A20", "verify-B4", "roots-A0", "verify-help"],
)
def test_the_entry_point_writes_what_main_returns(argv, capsys, monkeypatch):
    # The process ends in os._exit, past any flush the interpreter would do at
    # exit: every byte main writes must already be out.
    monkeypatch.setenv("COLUMNS", "80")  # the help wraps alike in both
    code = main(argv)
    captured = capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-m", "beltmatch.cli", *argv], env=env, capture_output=True
    )
    assert done.returncode == code
    assert done.stdout == captured.out.encode()
    assert done.stderr.decode() == captured.err


def _entry_probe(setup: str, argv: list[str]) -> str:
    """A ``-c`` program that runs ``python -m beltmatch.cli ARGV`` after SETUP."""
    return (
        f"import runpy, sys\n{setup}\n"
        f"sys.argv = ['beltmatch', *{argv!r}]\n"
        "runpy.run_module('beltmatch.cli', run_name='__main__')\n"
    )


def test_the_entry_point_skips_interpreter_finalization():
    # No atexit hook runs: the process ends in os._exit once main's output is out.
    setup = "import atexit\natexit.register(lambda: print('finalized', file=sys.stderr))"
    probe = _entry_probe(setup, ROOTS_A2)
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout == "[[0, 1], [1, 0], [1, 1]]\n"
    assert done.stderr == ""


def test_a_profiled_entry_point_exits_normally():
    # With a profiler attached the process finalizes, so cProfile prints its table.
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "beltmatch.cli", *ROOTS_A2],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert done.stdout.startswith("[[0, 1], [1, 0], [1, 1]]\n")
    assert "function calls" in done.stdout
    assert "Ordered by" in done.stdout


def test_dot_dir_on_an_existing_file_is_a_usage_error(tmp_path, capsys):
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    code = main(["graphs", "--type", "A", "--rank", "2", "--dot-dir", str(blocker)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("jobs", ["0", "-4", "two"])
def test_verify_jobs_below_one_is_a_usage_error(capsys, jobs):
    code, out = run(capsys, "verify", "--type", "A", "--rank", "3", "--jobs", jobs, "--format", "text")
    assert code == 2
    assert out == ""


def test_verify_unknown_check_is_a_usage_error(capsys):
    code = main(["verify", "--type", "A", "--rank", "3", "--checks", "theorem,bogus", "--format", "text"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: unknown checks: ['bogus']\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("checks", [",", " ", "folding", " , folding ,"])
def test_verify_selection_of_no_check_is_a_usage_error(capsys, fmt, checks):
    # A3 has no folding, and blank names select nothing: a run of no check
    # must not report that all checks passed.
    code = main(["verify", "--type", "A", "--rank", "3", "--checks", checks, "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: no check selected by {checks!r} for A_3\n"


def test_core_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # DimensionMismatchError is a ValueError raised by the arithmetic core: a
    # crash, which must pass neither for a failed check (exit 1) nor for a
    # usage error (exit 2).  It exits 3 with its traceback on stderr and
    # nothing on stdout.
    def broken(*args):
        raise DimensionMismatchError("operands have 2 and 3 variables")

    monkeypatch.setattr("beltmatch.cli.cluster_expansion", broken)
    assert main(["expand", "--type", "A", "--rank", "2", "--root", "1,0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith("DimensionMismatchError: operands have 2 and 3 variables\n")


def _assert_crash(capsys, argv: list[str], message: str) -> None:
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith(f"BijectionError: {message}\n")


def test_a_belt_that_misses_the_roots_is_a_crash(capsys, monkeypatch):
    # A BijectionError raised inside a command is the program's fault: the
    # input was validated before the command ran.  Every cell of a frieze
    # sweep repeats the sweep's first, so the period walk misses two roots.
    frieze = mutation._frieze

    def repeat_first_cell(*args):
        return [tuple((k, sweep[0][1]) for k, _ in sweep) for sweep in frieze(*args)]

    mutation._period.cache_clear()  # build the period under the patch
    monkeypatch.setattr(mutation, "_frieze", repeat_first_cell)
    try:
        _assert_crash(
            capsys,
            ["variables", "--type", "A", "--rank", "3"],
            "denominator vectors [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)] "
            "do not match the positive roots",
        )
    finally:
        mutation._period.cache_clear()


def test_a_graph_with_no_perfect_matching_is_a_crash(capsys, monkeypatch):
    monkeypatch.setattr(matchenum, "matching_polynomial", lambda graph: LaurentPolynomial.zero(graph.nvars))
    _assert_crash(
        capsys,
        ["expand", "--type", "A", "--rank", "2", "--root", "1,0"],
        "graph for root (1, 0) has no perfect matching",
    )


def test_a_crash_exits_three_from_the_entry_point():
    # The console script and ``python -m beltmatch.cli`` both end in run(),
    # which exits with main's code: an exception raised deep in a command must
    # reach the shell as status 3, not as Python's default status 1.
    setup = (
        "from beltmatch import mutation\n"
        "def broken(*args):\n"
        "    raise OverflowError('deep in the core')\n"
        "mutation.belt = broken"
    )
    probe = _entry_probe(setup, ["belt", "--type", "A", "--rank", "3"])
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("Traceback (most recent call last):\n")
    assert done.stderr.endswith("OverflowError: deep in the core\n")


@pytest.mark.parametrize("error", [StructureError, BijectionError])
def test_check_that_raises_is_a_fail_record(capsys, monkeypatch, error):
    def broken(*args):
        raise error("malformed gluing")

    monkeypatch.setattr("beltmatch.verify.cluster_expansion", broken)
    message = f"{error.__name__}: malformed gluing"
    code, out = run(capsys, "verify", "--type", "A", "--rank", "3", "--checks", "theorem", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["checks"] == [
        {"name": "theorem[A3]", "passed": False, "details": {"error": message}}
    ]
    code, out = run(capsys, "verify", "--type", "A", "--rank", "3", "--checks", "theorem", "--format", "text")
    assert code == 1
    assert out.splitlines() == [f"FAIL theorem[A3] {message}", "some checks FAILED"]


def test_verify_help_names_every_check(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # the list on one line
    assert main(["verify", "--help"]) == 0
    listed = capsys.readouterr().out.split("comma-separated: ")[1].split(" or all")[0]
    assert listed.split(", ") == list(CHECK_NAMES)


def test_verify_help_wraps_between_check_names(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["verify", "--help"]) == 0
    words = set(capsys.readouterr().out.replace(",", " ").split())
    assert set(CHECK_NAMES) <= words


def test_cli_import_leaves_dataclasses_and_fractions_unloaded():
    # Every CLI job pays the package import; the records are NamedTuples and
    # the symmetrizer computes in integers, so neither machinery is loaded.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def loaded(statement: str) -> set[str]:
        probe = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        return set(done.stdout.split())

    added = loaded("import beltmatch.cli") - loaded("pass")
    assert "beltmatch.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "fractions", "decimal"})
