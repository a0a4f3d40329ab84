"""The theorem-checking suite and the extended-lattice machinery."""

from __future__ import annotations

import json

import pytest

from beltmatch.laurent import LaurentPolynomial as LP
from beltmatch.matchenum import matching_polynomial
from beltmatch.mutation import noninitial_variables, variable_names
from beltmatch.verify import (
    BExtendedConfig,
    ExtendedLatticeConfig,
    check_belt_diamonds,
    check_center_one,
    check_condensation,
    check_excision,
    check_folding,
    folding_assignment_a_to_c,
    folding_assignment_d_to_b,
    run_checks,
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
    assert config.laurent_of_strip(-1, 2) == LP.variable(3, config.nvars)


def test_center_one_grid():
    for j in range(5):
        for parity in ("even", "odd"):
            result = check_center_one(j, parity)
            assert result.passed, result.details


def test_excision_window_example():
    # Tiles T~1 u T~2 carry matching weights 1, y0*y2, y3; after division by
    # y2 and the y0 -> 0 limit this equals the lone tile T~2 over y2.
    config = ExtendedLatticeConfig(max_index=4)
    raw = matching_polynomial(config.tile_strip(1, 2))
    assert raw == LP.parse("y0*y2 + y3 + 1", config.nvars, config.names)
    assert config.laurent_of_strip(1, 2) == config.laurent_of_strip(2, 2)
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
    fixed = check_excision(("B", 3, 3, 4))
    assert fixed.passed and fixed.details["printed_formula_matches"] is True
    moved = check_excision(("B", 3, 3, 5))
    assert moved.passed and moved.details["printed_formula_matches"] is False
    for n in (3, 4):
        for a in (3, 4):
            if a > n:
                continue
            for b in range(n + 1, 2 * n - (a - 2) + 1):
                result = check_excision(("B", n, a, b))
                assert result.passed, result.details


def test_b_extended_tower_reduces_to_plain_tower():
    # T_3 u T_4 u T_5 at rank 4 excises to T_3 u T_4; at rank 3 it is centred
    # on the excision tile and collapses to the Laurent polynomial 1.
    config4 = BExtendedConfig(4)
    assert config4.tower_laurent(3, 5) == config4.tower_laurent(3, 4)
    config3 = BExtendedConfig(3)
    assert config3.tower_laurent(3, 5) == LP.one(config3.nvars)


def test_folding_checks():
    for direction, n in [("A->C", 2), ("A->C", 3), ("D->B", 4), ("D->B", 5)]:
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
    payload = json.loads(report.to_json())
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)
    assert any(n.startswith("theorem") for n in names)
    assert any(n.startswith("folding") for n in names)
    assert all("seconds" not in c for c in payload["checks"])


def test_run_checks_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_checks("A", 2, ["theorems"])
