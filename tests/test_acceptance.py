"""Acceptance criteria, one test per criterion, exact comparison throughout.

Every check here is an identity between exact integer Laurent polynomials,
so each criterion either holds bit-exactly or fails; there are no
tolerances.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
pass/fail line per criterion.
"""

from __future__ import annotations

import json
import time

from beltmatch.cli import main as cli_main
from beltmatch.laurent import LaurentPolynomial as LP
from beltmatch.matchenum import (
    cluster_expansion,
    matching_polynomial,
    matching_polynomial_by_enumeration,
)
from beltmatch.mutation import noninitial_variables, roots, variable_names
from beltmatch.rootsys import expected_root_count
from beltmatch.tilegraphs import enumerate_family, graph_for_root, realize
from beltmatch.verify import (
    check_belt_diamonds,
    check_center_one,
    check_condensation,
    check_excision,
    check_folding,
    verify_theorem,
)

PAIRS = (
    [("A", n) for n in range(2, 9)]
    + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(2, 6)]
    + [("D", n) for n in range(4, 7)]
    + [("G2", 2)]
)

EXPECTED_COUNTS = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
                   "C": lambda n: n * n, "D": lambda n: n * (n - 1), "G2": lambda n: 6}


def _report(criterion: str, passed: bool, note: str = "") -> None:
    print(f"{criterion}: {'PASS' if passed else 'FAIL'}{' (' + note + ')' if note else ''}")
    assert passed, f"{criterion} failed: {note}"


def test_ac1_theorem_equivalence_within_budget():
    started = time.perf_counter()
    total = 0
    for family, rank in PAIRS:
        oracle = noninitial_variables(family, rank)
        assert len(oracle) == EXPECTED_COUNTS[family](rank)
        for root, expected in sorted(oracle.items()):
            assert cluster_expansion(family, rank, root).recombine() == expected, (family, rank, root)
        total += len(oracle)
    elapsed = time.perf_counter() - started
    _report("AC-1 (Theorem 1 equivalence)", elapsed < 60.0,
            f"{total} roots across {len(PAIRS)} pairs in {elapsed:.1f}s")


def test_expansion_is_a_numerator_over_x_to_the_root():
    # The paper's statement as the matching route returns it: the weighted
    # matchings of G_root over x^root, the numerator free of any monomial
    # factor, and equal to the belt variable's own split.
    total = 0
    for family, rank in PAIRS:
        for root, expected in sorted(noninitial_variables(family, rank).items()):
            split = cluster_expansion(family, rank, root)
            assert split.denominator == root, (family, rank, root)
            assert not any(split.numerator.min_exponents()), (family, rank, root)
            assert split == expected.split(), (family, rank, root)
            total += 1
    _report("numerator over x^root", True, f"{total} roots across {len(PAIRS)} pairs")


def test_ac2_family_bijection():
    for family, rank in PAIRS:
        found = roots(family, rank)
        assert len(found) == expected_root_count(family, rank)
        graphs = enumerate_family(family, rank)
        mus = [g.mu for g in graphs]
        assert len(graphs) == len(found)
        assert len(set(mus)) == len(mus)
        assert set(mus) == set(found)
    _report("AC-2 (bijection)", True, f"{len(PAIRS)} families")


def test_ac3_positivity():
    for family, rank in PAIRS:
        for root, variable in noninitial_variables(family, rank).items():
            numerator = variable.split().numerator
            assert all(c > 0 for c in numerator.coefficients()), (family, rank, root)
    _report("AC-3 (positivity)", True)


def test_ac4_diamond_conditions():
    checked = 0
    for family, rank in PAIRS:
        result = check_belt_diamonds(family, rank)
        assert result.passed, (family, rank, result.details)
        checked += result.details["diamonds_checked"]
    _report("AC-4 (diamond conditions)", True, f"{checked} diamonds")


def test_ac5_condensation():
    for center in (-1, 0, 4):
        for halfwidth in (2, 3, 4, 5):
            result = check_condensation(center, halfwidth)
            assert result.passed, result.details
    smoke = check_condensation(0, 2)
    assert smoke.details["unit_instance"] == "5 = 5"
    _report("AC-5 (condensation)", True, "symbolic, 3 centers x j=2..5; 5*1 = 2*2+1")


def test_ac6_extended_lattice_lemmas():
    base = check_center_one(0, "even")
    assert base.passed and base.details["base_case"] == "y0*y2"
    for j in range(5):
        for parity in ("even", "odd"):
            assert check_center_one(j, parity).passed, (j, parity)
    windows = 0
    for j in range(1, 4):
        for k in range(1, 9):
            if 2 * j + k - 1 <= 7:
                assert check_excision(("A", j, k)).passed, (j, k)
                windows += 1
    reflections = 0
    for n in (3, 4):
        for a in (3, 4):
            if a > n:
                continue
            for b in range(n + 1, 2 * n - (a - 2) + 1):
                assert check_excision(("B", n, a, b)).passed, (n, a, b)
                reflections += 1
    _report("AC-6 (extended-lattice identities)", True,
            f"center-one 0..4 both parities, {windows} windows, {reflections} reflections")


def test_ac7_folding():
    for n in (2, 3, 4):
        assert check_folding("A->C", n).passed, n
    for n in (4, 5):
        assert check_folding("D->B", n).passed, n
    # The worked factorization example: the A_3 long-root variable folds onto
    # the C_2 variable with denominator x1*x2^2.
    from beltmatch.verify import folding_assignment_a_to_c

    a3 = noninitial_variables("A", 3)[(1, 1, 1)]
    assert a3.substitute(folding_assignment_a_to_c(2)) == noninitial_variables("C", 2)[(1, 2)]
    _report("AC-7 (folding)", True, "A->C n=2,3,4; D->B n=4,5")


def test_ac8_specific_values():
    names3 = variable_names("A", 3)
    a3 = cluster_expansion("A", 3, (1, 1, 1))
    assert a3.recombine() == noninitial_variables("A", 3)[(1, 1, 1)]
    assert a3.numerator == LP.parse("x2^2 + 2*x2 + x1*x3 + 1", 3, names3)
    assert a3.denominator == (1, 1, 1)
    c2 = cluster_expansion("C", 2, (1, 0))
    assert c2.recombine() == noninitial_variables("C", 2)[(1, 0)]
    assert c2.numerator == LP.parse("x2^2 + 1", 2, variable_names("C", 2))
    for rank in (3, 4, 5):
        hexagon = matching_polynomial(realize(graph_for_root("B", rank, _e2(rank))))
        assert hexagon == LP.parse("x1^2*x3 + 1", rank, variable_names("B", rank))
    _report("AC-8 (specific values)", True)


def _e2(rank: int) -> tuple[int, ...]:
    root = [0] * rank
    root[1] = 1
    return tuple(root)


def test_ac9_determinism(tmp_path, capsys):
    outputs = []
    for _ in range(2):
        code = cli_main(["variables", "--type", "D", "--rank", "4", "--format", "json"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    verify_outputs = []
    for jobs in ("1", "4"):
        code = cli_main(["verify", "--type", "B", "--rank", "3", "--checks",
                         "theorem,diamonds", "--jobs", jobs, "--format", "json"])
        assert code == 0
        verify_outputs.append(capsys.readouterr().out)
    assert verify_outputs[0] == verify_outputs[1]
    assert json.loads(verify_outputs[0])["passed"] is True
    for family, rank in [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("G2", 2)]:
        for graph in enumerate_family(family, rank):
            realized = realize(graph)
            assert matching_polynomial(realized) == matching_polynomial_by_enumeration(realized)
    _report("AC-9 (determinism)", True, "byte-identical CLI, both algorithms agree")
