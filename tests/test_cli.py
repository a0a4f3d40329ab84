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


def test_belt_max_rows_below_one_is_a_usage_error(capsys):
    for value in ("0", "-1"):
        code = main(["belt", "--type", "A", "--rank", "3", "--max-rows", value, "--format", "text"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--max-rows" in captured.err


def test_belt_max_rows_below_the_period_is_a_usage_error(capsys):
    code = main(["belt", "--type", "A", "--rank", "3", "--max-rows", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: belt for A_3 did not cover all positive roots in 2 sweeps\n"


def test_a_failed_root_closure_is_a_crash():
    # The closure cap is internal: hitting it is a fault, not the user's mistake.
    probe = (
        "import sys\n"
        "from beltmatch import cli, mutation, rootsys\n"
        "rootsys._closure_round_cap = lambda n: 0\n"
        "mutation.roots.cache_clear()\n"
        "sys.exit(cli.main(['roots', '--type', 'A', '--rank', '3']))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("Traceback (most recent call last):\n")
    assert done.stderr.endswith("IterationLimitError: reflection closure failed to stabilise\n")


def test_belt_max_rows_counts_sweeps_not_printed_rows(capsys):
    # Four sweeps after the two initial rows: six printed lines.
    code, out = run(capsys, "belt", "--type", "A", "--rank", "3", "--max-rows", "4", "--format", "text")
    assert code == 0
    assert len(out.splitlines()) == 6


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
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-m", "beltmatch.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


def test_closed_stdout_is_an_unwritable_output():
    # `beltmatch ... | head -c 10`: the reader is gone before the output is
    # written, which is the user's pipeline, not a failed check or a crash.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _cli_process(["roots", "--type", "A", "--rank", "2"], write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == "error: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("target", ["stdout", "--out"])
def test_full_output_is_an_unwritable_output(target):
    argv = ["roots", "--type", "A", "--rank", "2"]
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


def test_dot_dir_on_an_existing_file_is_a_usage_error(tmp_path, capsys):
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    code = main(["graphs", "--type", "A", "--rank", "2", "--dot-dir", str(blocker)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("jobs", ["0", "-4"])
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

    monkeypatch.setattr("beltmatch.cli.root_matching_polynomial", broken)
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
    # input was validated before the command ran.
    sweeps = mutation._sweeps

    def repeat_first_cell(family, rank, groups):
        for sweep in sweeps(family, rank, groups):
            yield tuple((k, sweep[0][1]) for k, _ in sweep)

    mutation._period.cache_clear()  # build the period under the patch
    monkeypatch.setattr(mutation, "_sweeps", repeat_first_cell)
    try:
        _assert_crash(
            capsys,
            ["variables", "--type", "A", "--rank", "3"],
            "denominator vectors [(0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)] "
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
    # The console script and ``python -m beltmatch.cli`` both end in
    # sys.exit(main()); an exception raised deep in a command must reach
    # the shell as status 3, not as Python's default status 1.
    probe = (
        "import sys\n"
        "from beltmatch import cli\n"
        "def broken(*args):\n"
        "    raise OverflowError('deep in the core')\n"
        "cli.belt = broken\n"
        "sys.exit(cli.main(['belt', '--type', 'A', '--rank', '3']))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
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
