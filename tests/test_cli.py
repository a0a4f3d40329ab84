"""The command-line surface: formats, exit codes, determinism, file export."""

from __future__ import annotations

import json

from beltmatch.cli import main


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
    code = main(["expand", "--type", "A", "--rank", "2", "--root", "2,0"])
    assert code == 2
    code = main(["expand", "--type", "A", "--rank", "2", "--root", "2,0", "--format", "dot"])
    assert code == 2


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
