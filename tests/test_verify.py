"""The theorem-checking suite and the extended-lattice machinery."""

from __future__ import annotations

import json

import pytest

from beltmatch import verify
from beltmatch.cli import main
from beltmatch.errors import CheckSelectionError, PoleError
from beltmatch.laurent import LaurentPolynomial as LP
from beltmatch.matchenum import matching_polynomial, strip_transfer_polynomial
from beltmatch.mutation import noninitial_variables, variable_names
from beltmatch.tilegraphs import strip_graph
from beltmatch.verify import (
    CENTERONE_GRID,
    CONDENSATION_GRID,
    EXCISION_A_GRID,
    EXCISION_B_GRID,
    ExtendedLatticeConfig,
    check_belt_diamonds,
    check_center_one,
    check_condensation,
    check_excision,
    check_folding,
    folding_assignment_a_to_c,
    folding_assignment_d_to_b,
    plan_checks,
    run_checks,
    strip_limit,
    tile_strip,
    verify_theorem,
)


def test_verify_theorem_examples():
    for family, rank, expected in [("A", 3, 6), ("G2", 2, 6), ("B", 2, 4)]:
        result = verify_theorem(family, rank)
        assert result.passed, result.details
        assert result.details["roots_checked"] == expected


def test_belt_diamonds_all_supported_pairs():
    for family, rank in [("A", 3), ("B", 2), ("B", 4), ("C", 3), ("D", 4), ("G2", 2)]:
        result = check_belt_diamonds(family, rank)
        assert result.passed, result.details
        assert result.details["diamonds_checked"] > 0


def test_condensation_symbolic_and_smoke():
    for i in (-1, 0, 4):
        for j in (2, 3, 4, 5):
            result = check_condensation(i, j)
            assert result.passed, result.details
    assert check_condensation(0, 2).details["unit_instance"] == "5 = 5"


def test_center_one_base_cases():
    result = check_center_one(0, "even")
    assert result.passed
    assert result.details["base_case"] == "y0*y2"
    # The four-tile case reduces to y3 after division and the y0 -> 0 limit.
    config = ExtendedLatticeConfig(max_index=4)
    assert strip_limit(config, -1, 2) == LP.variable(3, config.nvars)


def test_center_one_grid():
    for j in range(5):
        for parity in ("even", "odd"):
            result = check_center_one(j, parity)
            assert result.passed, result.details


def test_excision_window_example():
    # Tiles T~1 u T~2 carry matching weights 1, y0*y2, y3; after division by
    # y2 and the y0 -> 0 limit this equals the lone tile T~2 over y2.
    config = ExtendedLatticeConfig(max_index=4)
    raw = matching_polynomial(tile_strip(config, 1, 2))
    assert raw == LP.parse("y0*y2 + y3 + 1", config.nvars, config.names)
    assert strip_limit(config, 1, 2) == strip_limit(config, 2, 2)
    assert check_excision(("A", 1, 1)).passed


def test_excision_windows_up_to_seven_tiles():
    for j in range(1, 4):
        for k in range(1, 9):
            if 2 * j + k - 1 <= 7:
                result = check_excision(("A", j, k))
                assert result.passed, result.details


def test_excision_b_reflections_and_the_recorded_discrepancy():
    # The excision machinery reflects b to 2n+1-b.  The printed formula
    # (2n+2-b) only agrees at its fixed point b = n+1; elsewhere the check
    # records that it does not hold, deciding the open question empirically.
    expected = {
        ("B", 3, 3, 4): ([3, 3], True),
        ("B", 3, 3, 5): ([3, 2], False),
        ("B", 4, 3, 5): ([3, 4], True),
        ("B", 4, 3, 6): ([3, 3], False),
        ("B", 4, 3, 7): ([3, 2], False),
        ("B", 4, 4, 5): ([4, 4], True),
        ("B", 4, 4, 6): ([4, 3], False),
    }
    assert tuple(expected) == EXCISION_B_GRID
    for scenario, (reflection, printed) in expected.items():
        result = check_excision(scenario)
        assert result.passed, result.details
        assert result.details["reflection"] == reflection
        assert result.details["printed_formula_matches"] is printed


def test_b_extended_tower_reduces_to_plain_tower():
    # Read from the other end (x_m = y_{n+2-m}), T_3 u T_4 u T_5 at rank 4 is
    # tiles 1..3 and excises to T_3 u T_4, tiles 2..3; at rank 3 it is tiles
    # 0..2, centred on the excision tile, and collapses to the Laurent
    # polynomial 1.
    config4 = ExtendedLatticeConfig(max_index=4)
    assert strip_limit(config4, 1, 3) == strip_limit(config4, 2, 3)
    config3 = ExtendedLatticeConfig(max_index=3)
    assert strip_limit(config3, 0, 2) == LP.one(config3.nvars)


def test_folding_checks():
    cases = [("A->C", 2), ("A->C", 3), ("A->C", 5), ("D->B", 4), ("D->B", 5), ("D->B", 6)]
    for direction, n in cases:
        result = check_folding(direction, n)
        assert result.passed, result.details


def test_folding_worked_example():
    # The A_3 long-root variable folds onto C_2's x_1^(3): the numerator
    # factorization (x2^2+x1+1)^2 + x1^2 x2^2 = (x2^2+1)(x2^2+(x1+1)^2) is
    # what makes the denominators collapse.
    a3 = noninitial_variables("A", 3)[(1, 1, 1)]
    folded = a3.substitute(folding_assignment_a_to_c(2))
    c2 = noninitial_variables("C", 2)[(1, 2)]
    assert folded == c2


def test_folding_d4_hexagon_example():
    names = variable_names("D", 4)
    hexagon = LP.parse("x1*x1b*x3 + 1", 4, names)
    folded = hexagon.substitute(folding_assignment_d_to_b(4))
    assert folded == LP.parse("x1^2*x3 + 1", 3, variable_names("B", 3))


def test_run_checks_all_and_report_json():
    report = run_checks("C", 2, ["all"])
    assert report.passed
    assert report.checks == tuple(sorted(report.checks, key=lambda c: c.name))
    payload = json.loads(report.to_json())
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)
    assert any(n.startswith("theorem") for n in names)
    assert any(n.startswith("folding") for n in names)
    assert all("seconds" not in c for c in payload["checks"])


def test_plan_table_looks_each_check_up_when_it_plans(monkeypatch):
    # A wrapper swapped in for a check's module global (a tracer's span) must be the one run.
    calls = []

    def spy(label):
        def check(*args):
            calls.append((label, args))
            return verify.CheckResult(f"{label}{args}", True, {}, 0.0)

        return check

    monkeypatch.setattr(verify, "verify_theorem", spy("theorem"))
    monkeypatch.setattr(verify, "check_folding", spy("folding"))
    report = run_checks("C", 3, ["all"])
    assert calls == [("theorem", ("C", 3)), ("folding", ("A->C", 3))]
    assert report.passed and len(report.checks) == len(plan_checks("C", 3, ["all"]))


def test_run_checks_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_checks("A", 2, ["theorems"])


@pytest.mark.parametrize("selection", [["all", "theorems"], [], ["", " "], ["folding"]])
def test_plan_checks_rejects_a_selection_that_plans_nothing_or_names_an_unknown_check(selection):
    with pytest.raises(CheckSelectionError):
        plan_checks("A", 3, selection)


# -- the strip memo -------------------------------------------------------------------

LATTICE_CHECKS = ["condensation", "centerone", "excision"]


@pytest.fixture
def cold_strip_memo():
    memo = verify._strip_polynomial
    memo.cache_clear()
    yield
    memo.cache_clear()


def test_strip_memo_does_not_mask_a_faulty_matching(monkeypatch, cold_strip_memo):
    real = verify.matching_polynomial

    def off_by_one(graph):
        return real(graph) + LP.one(graph.nvars)

    monkeypatch.setattr(verify, "matching_polynomial", off_by_one)
    report = run_checks("A", 2, LATTICE_CHECKS)
    planned = len(CONDENSATION_GRID) + len(CENTERONE_GRID) + len(EXCISION_A_GRID + EXCISION_B_GRID)
    assert len(report.checks) == planned
    assert not report.passed
    failed = {c.name.split("[")[0] for c in report.checks if not c.passed}
    assert failed == set(LATTICE_CHECKS)


def test_memoized_grid_strips_match_uncached_routes(monkeypatch, cold_strip_memo):
    memo = verify._strip_polynomial
    seen: set = set()

    def recording(pairs, nvars, monomial=None):
        seen.add((pairs, nvars))
        return memo(pairs, nvars, monomial)

    monkeypatch.setattr(verify, "_strip_polynomial", recording)
    assert run_checks("A", 2, LATTICE_CHECKS).passed
    # Centres -1, 0 and 4 of condensation build the same strips in the same ring.
    info = memo.cache_info()
    assert info.hits > 0
    for pairs, nvars in seen:
        names = tuple(f"z{i}" for i in range(nvars))
        expected = memo(pairs, nvars)
        assert expected == matching_polynomial(strip_graph(pairs, nvars, names))
        assert expected == strip_transfer_polynomial(list(pairs), nvars)
    # Every window of centerone and excision against the uncached tile strip.
    windows = [
        (ExtendedLatticeConfig(j + 3), -j, j + (2 if parity == "odd" else 1))
        for j, parity in CENTERONE_GRID
    ]
    for scenario in EXCISION_A_GRID + EXCISION_B_GRID:
        if scenario[0] == "A":
            _, j, k = scenario
            low, high = 2 - j, j + k
        else:
            _, n, a, b = scenario
            low, high = n + 2 - b, n + 2 - a
        config = ExtendedLatticeConfig(high + 1)
        windows += [(config, low, high), (config, 3 - low, high), (config, 2 - low, high)]
    for config, low, high in windows:
        if low > high:
            continue
        raw = matching_polynomial(tile_strip(config, low, high))
        pairs = tuple((config.weight(i + 1), config.weight(i - 1)) for i in range(low, high + 1))
        assert memo(pairs, config.nvars) == raw
        monomial = LP.one(config.nvars)
        for i in range(low, high + 1):
            monomial = monomial * config.weight(i)
        try:
            limit = strip_limit(config, low, high)
        except PoleError:
            with pytest.raises(PoleError):
                raw.div_exact(monomial).substitute({0: LP.zero(config.nvars)})
            continue
        assert limit == raw.div_exact(monomial).substitute({0: LP.zero(config.nvars)})


def test_run_checks_json_is_the_same_with_the_memo_cold_and_warm(cold_strip_memo):
    cold = run_checks("B", 3, ["all"]).to_json()
    warm = run_checks("B", 3, ["all"]).to_json()
    assert verify._strip_polynomial.cache_info().hits > 0
    assert cold == warm


# -- failure paths ------------------------------------------------------------------------


def _duplicate_a_graph(real):
    return lambda family, rank: real(family, rank) + real(family, rank)[:1]


def _drop_a_graph(real):
    return lambda family, rank: real(family, rank)[:-1]


def _negate_a_variable(real):
    def variables(family, rank):
        found = real(family, rank)
        root = min(found)
        found[root] = -found[root]
        return found

    return variables


def _double_each_numerator(real):
    def expansion(family, rank, root):
        split = real(family, rank, root)
        return split._replace(numerator=split.numerator + split.numerator)

    return expansion


def _add_the_left_end(real):
    # Off by the window's left end, so no two windows of a check agree.
    return lambda config, lo, hi: real(config, lo, hi) + LP.constant(lo, config.nvars)


def _fold_onto_x1(real):
    return lambda n: {s: LP.variable(0, n) for s in range(2 * n - 1)}


# (module global, its breaker, check, family, rank, counterexample keys)
FAILURES = [
    pytest.param("enumerate_family", _duplicate_a_graph, "theorem", "A", 3, {"why"}, id="repeated-mu"),
    pytest.param(
        "enumerate_family",
        _drop_a_graph,
        "theorem",
        "A",
        3,
        {"why", "family_only", "roots_only"},
        id="missing-root",
    ),
    pytest.param(
        "noninitial_variables",
        _negate_a_variable,
        "theorem",
        "B",
        3,
        {"root", "why", "belt"},
        id="nonpositive-coefficient",
    ),
    pytest.param(
        "cluster_expansion",
        _double_each_numerator,
        "theorem",
        "G2",
        2,
        {"root", "belt", "matching", "difference"},
        id="matching-differs",
    ),
    pytest.param("strip_limit", _add_the_left_end, "centerone", "A", 2, {"got", "expected"}, id="centerone"),
    pytest.param("strip_limit", _add_the_left_end, "excision", "A", 2, {"whole", "excised"}, id="excision"),
    pytest.param(
        "folding_assignment_a_to_c", _fold_onto_x1, "folding", "C", 3, {"extra", "missing"}, id="folding"
    ),
]


@pytest.mark.parametrize("target,breaker,check,family,rank,keys", FAILURES)
def test_a_broken_identity_is_a_failed_check_with_its_counterexample(
    monkeypatch, capsys, target, breaker, check, family, rank, keys
):
    monkeypatch.setattr(verify, target, breaker(getattr(verify, target)))
    argv = ["verify", "--type", family, "--rank", str(rank), "--checks", check]
    assert main(argv + ["--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert failed and all(set(c["details"]["counterexample"]) == keys for c in failed)
    assert main(argv + ["--format", "text"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "some checks FAILED"
    for c in failed:
        details = c["details"]
        if "roots_checked" in details:  # theorem's note is its root count
            note = f"({details['roots_checked']} roots checked)"
        else:
            note = json.dumps(details["counterexample"], sort_keys=True)
        assert f"FAIL {c['name']} {note}" in lines
