"""Exchange matrices, seed mutation, and the bipartite belt."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltmatch import mutation
from beltmatch.errors import BijectionError, IterationLimitError, UnsupportedTypeError
from beltmatch.laurent import LaurentPolynomial as LP
from beltmatch.mutation import (
    BeltCell,
    Seed,
    _period,
    belt,
    exchange_matrix,
    initial_seed,
    mutate_matrix,
    noninitial_variables,
    parity_groups,
    roots,
    variable_names,
)
from beltmatch.verify import check_belt_diamonds


def poly(text: str, nvars: int, family: str = "A", rank: int | None = None) -> LP:
    names = variable_names(family, rank if rank is not None else nvars)
    return LP.parse(text, nvars, names)


# -- matrices -------------------------------------------------------------------


def test_initial_matrices_match_the_displayed_ones():
    assert exchange_matrix("A", 2) == ((0, 1), (-1, 0))
    assert exchange_matrix("G2", 2) == ((0, 1), (-3, 0))
    assert exchange_matrix("B", 3) == ((0, 1, 0), (-2, 0, -1), (0, 1, 0))
    assert exchange_matrix("C", 3) == ((0, 2, 0), (-1, 0, -1), (0, 1, 0))
    assert exchange_matrix("D", 4) == (
        (0, 0, 1, 0),
        (0, 0, 1, 0),
        (-1, -1, 0, -1),
        (0, 0, 1, 0),
    )
    assert exchange_matrix("A", 4) == (
        (0, 1, 0, 0),
        (-1, 0, -1, 0),
        (0, 1, 0, 1),
        (0, 0, -1, 0),
    )
    assert exchange_matrix("A", 1) == ((0,),)
    assert exchange_matrix("B", 2) == ((0, 1), (-2, 0))
    assert exchange_matrix("C", 2) == ((0, 2), (-1, 0))
    assert exchange_matrix("D", 5) == (
        (0, 0, 1, 0, 0),
        (0, 0, 1, 0, 0),
        (-1, -1, 0, -1, 0),
        (0, 0, 1, 0, 1),
        (0, 0, 0, -1, 0),
    )
    assert exchange_matrix("D", 6) == (
        (0, 0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (-1, -1, 0, -1, 0, 0),
        (0, 0, 1, 0, 1, 0),
        (0, 0, 0, -1, 0, -1),
        (0, 0, 0, 0, 1, 0),
    )


def test_matrices_are_bipartite_and_skew_symmetrizable():
    ladder = [("A", r) for r in range(1, 11)] + [("B", r) for r in range(2, 11)]
    ladder += [("C", r) for r in range(2, 11)] + [("D", r) for r in range(4, 11)]
    for family, rank in ladder + [("G2", 2)]:
        rows = exchange_matrix(family, rank)
        assert all(all(v >= 0 for v in row) or all(v <= 0 for v in row) for row in rows)
        d = _fraction_symmetrizer(rows)
        assert d is not None and all(x > 0 for x in d)
    assert _fraction_symmetrizer(exchange_matrix("G2", 2)) == (3, 1)
    assert _fraction_symmetrizer(exchange_matrix("B", 3)) == (2, 1, 1)


def _fraction_symmetrizer(rows):
    """Positive integers d with d_i b_ij = -d_j b_ji, or None: each connected
    component walked from its first node with d = 1 over exact fractions,
    then all cleared by one common denominator."""
    n = len(rows)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                bij, bji = rows[i][j], rows[j][i]
                if bij == 0 and bji == 0:
                    continue
                if bij == 0 or bji == 0 or bij * bji > 0:
                    return None
                scaled = d[i] * Fraction(-bij, bji)
                if d[j] is None:
                    d[j] = scaled
                    stack.append(j)
                elif d[j] != scaled:
                    return None
    lcm_den = math.lcm(*(value.denominator for value in d))
    return tuple(int(value * lcm_den) for value in d)


def test_mutate_matrix_rank_two():
    assert mutate_matrix(((0, 1), (-1, 0)), 0) == ((0, -1), (1, 0))


def test_mutate_matrix_a3_direction_two_negates():
    b = exchange_matrix("A", 3)
    assert mutate_matrix(b, 1) == tuple(tuple(-x for x in row) for row in b)


def test_mutate_matrix_out_of_range():
    with pytest.raises(IndexError):
        mutate_matrix(((0, 1), (-1, 0)), 2)


small_skew = st.integers(min_value=-3, max_value=3)


@st.composite
def skew_symmetric_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    upper = [[draw(small_skew) for _ in range(n)] for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = upper[i][j]
            rows[j][i] = -upper[i][j]
    return tuple(tuple(r) for r in rows)


@given(skew_symmetric_matrices(), st.integers(min_value=0, max_value=3))
@settings(max_examples=80)
def test_mutation_is_involutive_and_preserves_symmetrizer(rows, k):
    k = k % len(rows)
    assert mutate_matrix(mutate_matrix(rows, k), k) == rows
    mutated = mutate_matrix(rows, k)
    n = len(rows)
    for i in range(n):
        for j in range(n):
            assert mutated[i][j] == -mutated[j][i]


def test_family_matrix_mutation_keeps_the_symmetrizer():
    for family, rank in [("B", 3), ("C", 3), ("G2", 2), ("D", 4)]:
        rows = exchange_matrix(family, rank)
        d = _fraction_symmetrizer(rows)
        for k in range(len(rows)):
            mutated = mutate_matrix(rows, k)
            for i in range(len(rows)):
                for j in range(len(rows)):
                    assert d[i] * mutated[i][j] == -d[j] * mutated[j][i]


# -- seeds -----------------------------------------------------------------------


def test_initial_seed_g2():
    seed = initial_seed("G2", 2)
    assert seed.matrix == ((0, 1), (-3, 0))
    assert seed.cluster == (LP.variable(0, 2), LP.variable(1, 2))


def test_initial_seed_unsupported_pairs():
    for family, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("G2", 3), ("E", 6)]:
        with pytest.raises(UnsupportedTypeError):
            initial_seed(family, rank)


@pytest.mark.parametrize("k", [-1, 2, 3])
def test_mutate_seed_rejects_a_direction_out_of_range(k):
    with pytest.raises(IndexError, match=f"mutation direction {k} out of range"):
        initial_seed("A", 2).mutate(k)


def test_mutate_seed_first_exchange():
    seed = initial_seed("A", 2).mutate(0)
    assert seed.cluster[0] == poly("x2 + 1", 2).div_exact(poly("x1", 2))


def test_mutate_seed_b2_squared_binomial():
    seed = initial_seed("B", 2).mutate(1)
    assert seed.cluster[1] == poly("x1^2 + 1", 2).div_exact(poly("x2", 2))


def test_mutate_seed_is_involutive():
    seed = initial_seed("C", 3)
    assert seed.mutate(1).mutate(1).cluster == seed.cluster
    assert seed.mutate(1).mutate(1).matrix == seed.matrix


def test_sweep_order_within_a_group_does_not_matter():
    for family, rank in [("A", 5), ("D", 5)]:
        odd, _ = parity_groups(family, rank)
        seed = initial_seed(family, rank)
        forward = seed
        for k in odd:
            forward = forward.mutate(k)
        backward = seed
        for k in reversed(odd):
            backward = backward.mutate(k)
        assert forward.cluster == backward.cluster
        assert forward.matrix == backward.matrix


def test_full_odd_sweep_negates_the_matrix():
    for family, rank in [("A", 4), ("B", 3), ("G2", 2), ("D", 4), ("D", 6)]:
        seed = initial_seed(family, rank)
        odd, even = parity_groups(family, rank)
        for k in odd:
            seed = seed.mutate(k)
        negated = tuple(tuple(-x for x in row) for row in initial_seed(family, rank).matrix)
        assert seed.matrix == negated
        for k in even:
            seed = seed.mutate(k)
        assert seed.matrix == initial_seed(family, rank).matrix


# -- the belt -----------------------------------------------------------------------


def test_belt_a2_row_by_row():
    lattice = belt("A", 2)
    x1, x2 = poly("x1", 2), poly("x2", 2)
    assert lattice.values[0, 1] == poly("x2 + 1", 2).div_exact(x1)
    assert lattice.values[1, 2] == poly("x1 + x2 + 1", 2).div_exact(x1 * x2)
    assert lattice.values[0, 3] == poly("x1 + 1", 2).div_exact(x2)


def test_belt_a2_initial_variables_reappear():
    # Drive one more sweep than the belt needs: x_2^(4) is x_1 again.
    seed = initial_seed("A", 2)
    for sweep in range(1, 5):
        k = 0 if sweep % 2 == 1 else 1
        seed = seed.mutate(k)
    assert seed.cluster[1] == poly("x1", 2)


def test_belt_a3_last_rows_reverse_the_initial_cluster():
    # Rows n+2 and n+3 of the A_n lattice repeat the initial variables in
    # reverse order: at n = 3 sweep 5 writes x3, x1 into columns 1, 3 and
    # sweep 6 writes x2 into column 2.
    seed = initial_seed("A", 3)
    clusters = {}
    for sweep in range(1, 7):
        group = (0, 2) if sweep % 2 == 1 else (1,)
        for k in group:
            seed = seed.mutate(k)
        clusters[sweep] = seed.cluster
    assert clusters[5][0] == poly("x3", 3)
    assert clusters[5][2] == poly("x1", 3)
    assert clusters[6][1] == poly("x2", 3)


def test_belt_a3_contains_the_long_root_variable():
    lattice = belt("A", 3)
    expected = poly("x2^2 + 2*x2 + x1*x3 + 1", 3).div_exact(poly("x1", 3) * poly("x2", 3) * poly("x3", 3))
    assert lattice.values[1, 2] == expected


def test_belt_b2_contains_the_doubled_root_variable():
    lattice = belt("B", 2)
    expected = poly("x2^2 + 2*x2 + x1^2 + 1", 2).div_exact(poly("x1^2*x2", 2))
    assert lattice.values[1, 2] == expected


def test_belt_json_shape():
    import json

    payload = json.loads(belt("A", 2).to_json())
    assert payload["type"] == "A" and payload["rank"] == 2
    assert payload["rows"][0] == [{"col": "1", "sup": 0, "poly": "x1"}]


@cache
def _forward_belt(family: str, rank: int) -> tuple[tuple[BeltCell, ...], ...]:
    """Reference: the belt stepped forward by ``Seed.mutate`` alone, odd slots
    first, until the denominator vectors cover every positive root."""
    wanted = set(roots(family, rank))
    cap = 2 * (2 * len(wanted) // rank + 2)
    odd, even = parity_groups(family, rank)
    seed = initial_seed(family, rank)
    rows = [tuple(BeltCell(k, 0, seed.cluster[k]) for k in group) for group in (odd, even)]
    covered = set()
    sweep = 0
    while covered != wanted:
        sweep += 1
        if sweep > cap:
            raise IterationLimitError(
                f"belt for {family}_{rank} did not cover all positive roots in {cap} sweeps"
            )
        group = odd if sweep % 2 == 1 else even
        for k in group:
            seed = seed.mutate(k)
        rows.append(tuple(BeltCell(k, sweep, seed.cluster[k]) for k in group))
        for cell in rows[-1]:
            denominator = tuple(-m for m in cell.value.min_exponents())
            if all(d >= 0 for d in denominator) and any(denominator):
                covered.add(denominator)
    return tuple(rows)


REFERENCE_LADDER = (
    [("A", r) for r in range(1, 12)]
    + [("B", r) for r in range(2, 8)]
    + [("C", r) for r in range(2, 8)]
    + [("D", r) for r in range(4, 9)]
    + [("G2", 2)]
)


def _assert_same_rows(got, expected):
    assert len(got) == len(expected)
    for row, reference in zip(got, expected):
        assert [(c.slot, c.superscript) for c in row] == [(c.slot, c.superscript) for c in reference]
        for cell, ref in zip(row, reference):
            assert cell.value == ref.value, (cell.slot, cell.superscript)


@pytest.mark.parametrize("family,rank", REFERENCE_LADDER)
def test_belt_matches_the_seed_mutation_reference(family, rank):
    _assert_same_rows(belt(family, rank).rows, _forward_belt(family, rank))


def dynkin_involution(family: str, rank: int) -> tuple[int, ...]:
    """The slot permutation epsilon by which the belt returns after h+2 sweeps.

    It reverses the slots of A_n, swaps x1 and x1b in D_n for odd n, and
    fixes every slot otherwise (Fomin-Zelevinsky, "Y-systems and generalized
    associahedra", Ann. Math. 158, 2003).
    """
    if family == "A":
        return tuple(reversed(range(rank)))
    if family == "D" and rank % 2:
        return (1, 0) + tuple(range(2, rank))
    return tuple(range(rank))


@pytest.mark.parametrize("family,rank", [c for c in REFERENCE_LADDER if c[1] <= 6])
def test_the_belt_returns_permuted_by_the_dynkin_involution(family, rank):
    # The period the friezes read their first rows by: after h+2 sweeps the
    # cluster is the initial one, slot k holding x_epsilon(k).
    odd, even = parity_groups(family, rank)
    seed = initial_seed(family, rank)
    for sweep in range(1, _coxeter_number(family, rank) + 3):
        for k in odd if sweep % 2 else even:
            seed = seed.mutate(k)
    epsilon = dynkin_involution(family, rank)
    assert seed.cluster == tuple(LP.variable(epsilon[k], rank) for k in range(rank))


@pytest.fixture
def cold_period():
    """An empty period cache, emptied again afterwards so that no lattice
    built under a monkeypatch outlives the test."""
    _period.cache_clear()
    yield
    _period.cache_clear()


def _coxeter_number(family: str, rank: int) -> int:
    return 2 * len(roots(family, rank)) // rank


@pytest.mark.parametrize("family,rank", REFERENCE_LADDER)
def test_belt_returns_the_shared_lattice(family, rank):
    assert belt(family, rank) is belt(family, rank)


@pytest.mark.parametrize("family,rank", REFERENCE_LADDER)
def test_one_period_reads_each_positive_root_once(family, rank):
    # The h sweeps after the initial rows alternate the parity groups, write
    # every non-empty one, and hold one variable per positive root, its
    # denominator vector; ``values`` keys exactly the printed cells.
    lattice = belt(family, rank)
    odd, even = parity_groups(family, rank)
    h = _coxeter_number(family, rank)
    groups = [(t, odd if t % 2 else even) for t in range(1, h + 1)]
    expected = [[(k, 0) for k in odd], [(k, 0) for k in even]]
    expected += [[(k, t) for k in group] for t, group in groups if group]
    assert [[(c.slot, c.superscript) for c in row] for row in lattice.rows] == expected
    denominators = [
        tuple(-m for m in cell.value.min_exponents()) for row in lattice.rows[2:] for cell in row
    ]
    assert sorted(denominators) == sorted(roots(family, rank))
    cells = {(c.slot, c.superscript): c.value for row in lattice.rows for c in row}
    assert dict(lattice.values) == cells


def _counting_divisions(monkeypatch) -> list[int]:
    """Patch ``div_exact`` to count the divisions; return the counter."""
    divisions = [0]
    div_exact = LP.div_exact

    def counted_division(self, divisor):
        divisions[0] += 1
        return div_exact(self, divisor)

    monkeypatch.setattr(LP, "div_exact", counted_division)
    return divisions


@pytest.mark.parametrize(
    "family,rank", [("A", r) for r in range(1, 13)] + [c for c in REFERENCE_LADDER if c[0] != "A"]
)
def test_the_period_divides_once_per_first_row_entry_and_fork_cell(family, rank, monkeypatch, cold_period):
    # Frieze cells are products and subtractions.  Only the entries Q(i) of
    # the first row divide (by a monomial): n+1 at A_n, 2n at C_n (A_{2n-1}),
    # and all but y_1 of the n entries of D_n's (n+1 at B_n, 4 at G_2).  So
    # do the fork cells, once per odd sweep: x_1 and x_1b at D_n, and x_1
    # alone at B_n and G_2.
    divisions = _counting_divisions(monkeypatch)
    belt(family, rank)
    monkeypatch.undo()
    h = _coxeter_number(family, rank)
    first_row = {"A": rank + 1, "C": 2 * rank, "B": rank, "D": rank - 1, "G2": 3}[family]
    fork_cells = {"D": h, "B": h // 2, "G2": h // 2}.get(family, 0)
    assert divisions == [first_row + fork_cells]


def test_a1_belt_rows_are_one_empty_one():
    # A_1's initial even row is empty, and of its h = 2 sweeps only the odd one writes a row.
    assert [len(row) for row in belt("A", 1).rows] == [1, 0, 1]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 5), ("G2", 2)])
def test_a_duplicated_value_fails_the_period_walk(family, rank, monkeypatch, cold_period):
    # The frieze's second sweep repeats a value of its first in place of its
    # own first value, so one positive root is left without a variable.
    frieze = mutation._frieze

    def duplicating_frieze(*args):
        first, ((slot, _), *rest), *later = frieze(*args)
        return [first, ((slot, first[0][1]), *rest), *later]

    monkeypatch.setattr(mutation, "_frieze", duplicating_frieze)
    with pytest.raises(BijectionError):
        belt(family, rank)
    with pytest.raises(BijectionError):
        noninitial_variables(family, rank)


# -- the friezes --------------------------------------------------------------------


def _faulty_first_row(monkeypatch, fault):
    """Patch ``_first_row`` to return ``fault`` applied to the true first row."""
    first_row = mutation._first_row
    monkeypatch.setattr(mutation, "_first_row", lambda *args: fault(first_row(*args)))


def _plus_one(k: int):
    """A first-row fault: entry k off by 1."""
    return lambda row: row[:k] + [row[k] + LP.one(row[k].nvars)] + row[k + 1 :]


def _first_row_length(family: str, rank: int) -> int:
    """The period of the first row: n+3 at A_n, 2n+2 at C_n (A_{2n-1}), n at
    D_n, n+1 at B_n (D_{n+1}) and 4 at G_2 (D_4)."""
    return {"A": rank + 3, "C": 2 * rank + 2, "D": rank, "B": rank + 1, "G2": 4}[family]


def _breaks(family: str, rank: int) -> str:
    return rf"^the {family}_{rank} frieze breaks at row \d+, sweep -?\d+$"


# D_n and B_n (D_{n+1}) at both parities of the fork, C_n (A_{2n-1}) at both
# parities of n, where row 1 is an odd and an even node, and G_2 (D_4).
FORKED_AND_FOLDED = [("B", 4), ("B", 5), ("C", 4), ("C", 5), ("D", 6), ("D", 7), ("G2", 2)]


@pytest.mark.parametrize("family,rank", REFERENCE_LADDER + [("A", r) for r in (12, 13, 14)])
def test_the_frieze_matches_the_division_belt_cell_for_cell(family, rank):
    # ``_forward_belt`` steps by ``Seed.mutate``, which divides every cell;
    # each family's frieze, forked or folded, must give the same sweeps.
    reference = [tuple((c.slot, c.value) for c in row) for row in _forward_belt(family, rank)[2:]]
    assert [sweep for sweep in mutation._family_frieze(family, rank) if sweep] == reference


def _assert_each_first_row_entry_breaks(family: str, rank: int, monkeypatch) -> None:
    # Each entry of the first row reaches a cell, so a +1 in any one of them
    # changes a cell and must fail the frieze's own certificate.
    for k in range(_first_row_length(family, rank)):
        _faulty_first_row(monkeypatch, _plus_one(k))
        _period.cache_clear()
        with pytest.raises(BijectionError, match=_breaks(family, rank)):
            belt(family, rank)
        monkeypatch.undo()


@pytest.mark.parametrize("rank", [6, 7])
def test_a_wrong_first_row_entry_breaks_the_frieze(rank, monkeypatch, cold_period):
    _assert_each_first_row_entry_breaks("A", rank, monkeypatch)


@pytest.mark.parametrize("family,rank", FORKED_AND_FOLDED)
def test_a_wrong_first_row_entry_breaks_the_forked_and_folded_friezes(family, rank, monkeypatch, cold_period):
    _assert_each_first_row_entry_breaks(family, rank, monkeypatch)


@pytest.mark.parametrize("rank", list(range(1, 13)))
def test_a_glide_offset_by_one_pair_breaks_the_frieze(rank, monkeypatch, cold_period):
    # Rotating the first row by one entry moves every diagonal by one, so
    # each cell lands one pair of sweeps (t -> t-2) away from its place.
    _faulty_first_row(monkeypatch, lambda row: row[1:] + row[:1])
    with pytest.raises(BijectionError):
        belt("A", rank)
    result = check_belt_diamonds("A", rank)
    assert not result.passed
    assert result.details["error"].startswith(f"BijectionError: the A_{rank} frieze breaks at ")


@pytest.mark.parametrize("family,rank", [c for c in REFERENCE_LADDER if c[0] != "A"])
def test_a_glide_offset_by_one_pair_breaks_the_forked_and_folded_friezes(family, rank, monkeypatch, cold_period):
    _faulty_first_row(monkeypatch, lambda row: row[1:] + row[:1])
    with pytest.raises(BijectionError, match=_breaks(family, rank)):
        belt(family, rank)


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_diamonds_record_a_wrong_first_row_entry(rank, monkeypatch, cold_period):
    # One Q of the first row off by 1.
    _faulty_first_row(monkeypatch, lambda row: [row[0], row[1] + LP.one(rank), *row[2:]])
    result = check_belt_diamonds("A", rank)
    assert not result.passed
    assert result.details["error"].startswith(f"BijectionError: the A_{rank} frieze breaks at ")


@pytest.mark.parametrize("family,rank", FORKED_AND_FOLDED)
def test_diamonds_record_each_wrong_first_row_entry(family, rank, monkeypatch, cold_period):
    # The fault of each entry that breaks ``belt`` is recorded by the diamond
    # check, error and message alike.
    for k in range(_first_row_length(family, rank)):
        _faulty_first_row(monkeypatch, _plus_one(k))
        _period.cache_clear()
        with pytest.raises(BijectionError) as broken:
            belt(family, rank)
        _period.cache_clear()
        result = check_belt_diamonds(family, rank)
        monkeypatch.undo()
        assert not result.passed
        assert result.details["error"] == f"BijectionError: {broken.value}"


def _fork_row(family: str, rank: int) -> int:
    """The top row T of a fork frieze, the fork product: n-1 at D_n, n at
    B_n (D_{n+1}), 3 at G_2 (D_4)."""
    return {"D": rank - 1, "B": rank, "G2": 3}[family]


def _one_more(x2: LP) -> LP:
    return x2 + LP.one(x2.nvars)


WRONG_FORK_RULES = {
    "unchanged": lambda x2, x1: x1,
    "plus-two": lambda x2, x1: (_one_more(x2) + LP.one(x2.nvars)).div_exact(x1),
    "inexact": lambda x2, x1: _one_more(x2).div_exact(_one_more(x1)),
}


@pytest.mark.parametrize("rule", list(WRONG_FORK_RULES))
@pytest.mark.parametrize("family,rank", [("B", 4), ("B", 5), ("D", 6), ("D", 7), ("G2", 2)])
def test_a_wrong_fork_rule_fails_the_fork_check(family, rank, rule, monkeypatch, cold_period):
    # A fork cell that is not (x_2(t-1) + 1) / x_1(t-2), or that does not
    # divide, breaks the fork product at the top row in the first sweep.
    monkeypatch.setattr(mutation, "_fork_step", WRONG_FORK_RULES[rule])
    top = _fork_row(family, rank)
    with pytest.raises(BijectionError, match=rf"^the {family}_{rank} frieze breaks at row {top}, sweep 1$"):
        belt(family, rank)


@pytest.mark.parametrize("family,rank", [("B", 4), ("B", 5), ("D", 6), ("D", 7), ("G2", 2)])
def test_a_sign_flipped_fork_is_left_to_the_diamonds(family, rank, monkeypatch, cold_period):
    # The fork check certifies the product of the fork cells, not how it
    # splits: -x_1(t) (and -x_1b(t)) keep it.  The fork step is the fork
    # nodes' own exchange, an exact division, so ``_frieze`` takes the split
    # as built; G_2 still catches the flip, where row 1 writes x_1 too, and
    # the diamond check catches it everywhere, at the first fork exchange.
    monkeypatch.setattr(mutation, "_fork_step", lambda x2, x1: -_one_more(x2).div_exact(x1))
    if family == "G2":
        with pytest.raises(BijectionError, match=r"^the G2_2 frieze breaks at row 1, sweep 1$"):
            belt(family, rank)
        return
    belt(family, rank)
    result = check_belt_diamonds(family, rank)
    assert not result.passed
    assert result.details["counterexample"]["column"] == 0
    assert result.details["counterexample"]["superscripts"] == [0, 1]


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_c_mirrored_rows_are_checked_against_each_other(rank):
    # C_n's A_{2n-1} frieze writes rows r and 2n-r to one slot.  Started with
    # its last row at x_1 in place of x_n, it is still a frieze that closes on
    # a row of 1s, so only that shared slot can catch the fault.
    fold = mutation._unfolded("C", rank)[2]
    path = [LP.variable(k, rank) for k in fold[:-1]] + [LP.variable(0, rank), LP.one(rank)]
    with pytest.raises(BijectionError, match=_breaks("C", rank)):
        mutation._frieze(f"C_{rank}", path, fold, 1 - rank % 2, ())


def _fold_faults(family: str, rank: int):
    """``_unfolded`` with one entry of its slot map folded to a wrong slot,
    for every entry and every wrong slot."""
    source, m, fold = mutation._unfolded(family, rank)
    for k, right in enumerate(fold):
        for wrong in range(rank):
            if wrong != right:
                yield source, m, fold[:k] + (wrong,) + fold[k + 1 :]


@pytest.mark.parametrize(
    "family,rank", [("C", r) for r in range(2, 7)] + [("B", r) for r in (3, 4, 5)] + [("G2", 2)]
)
def test_a_wrong_fold_entry_breaks_the_belt_and_the_diamonds(family, rank, monkeypatch, cold_period):
    # A source slot folded to a wrong slot starts its row at the wrong
    # variable and writes it to the wrong slot.  The fold must not certify
    # a belt: ``belt`` raises, and the diamond check records the same error.
    for fault in _fold_faults(family, rank):
        monkeypatch.setattr(mutation, "_unfolded", lambda *args: fault)
        _period.cache_clear()
        with pytest.raises(BijectionError) as broken:
            belt(family, rank)
        _period.cache_clear()
        result = check_belt_diamonds(family, rank)
        monkeypatch.undo()
        assert not result.passed, fault
        assert result.details["error"] == f"BijectionError: {broken.value}"


# -- noninitial_variables --------------------------------------------------------------


def test_noninitial_variables_a2():
    variables = noninitial_variables("A", 2)
    x1, x2 = poly("x1", 2), poly("x2", 2)
    assert variables == {
        (1, 0): poly("x2 + 1", 2).div_exact(x1),
        (0, 1): poly("x1 + 1", 2).div_exact(x2),
        (1, 1): poly("x1 + x2 + 1", 2).div_exact(x1 * x2),
    }


def test_noninitial_variables_g2_count():
    assert len(noninitial_variables("G2", 2)) == 6


def test_noninitial_variables_c2_doubled_root():
    variables = noninitial_variables("C", 2)
    expected = poly("x2^2 + x1^2 + 2*x1 + 1", 2).div_exact(poly("x1*x2^2", 2))
    assert variables[(1, 2)] == expected


def test_noninitial_variables_d4_highest_root():
    variables = noninitial_variables("D", 4)
    names = variable_names("D", 4)
    top = variables[(1, 1, 2, 1)]
    numerator, denominator = top.split().numerator, top.split().denominator
    assert denominator == (1, 1, 2, 1)
    w = LP.parse("x1*x1b*x3", 4, names)
    v = LP.parse("x2 + 1", 4, names)
    assert numerator == w * w + w * LP.parse("3*x2 + 2", 4, names) + v * v * v


def test_cached_results_cannot_be_corrupted_by_callers():
    first = noninitial_variables("B", 3)
    first.clear()
    first[(9, 9, 9)] = LP.one(3)
    assert noninitial_variables("B", 3) == _period.__wrapped__("B", 3)[1]
    with pytest.raises(TypeError):
        belt("B", 3).values[(0, 0)] = LP.one(3)
