"""Exchange matrices, seed mutation, and the bipartite belt."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beltmatch import mutation
from beltmatch.errors import BijectionError, IterationLimitError, UnsupportedTypeError
from beltmatch.laurent import LaurentPolynomial as LP
from beltmatch.mutation import (
    BeltCell,
    ExchangeMatrix,
    Seed,
    _noninitial_denominator,
    _period,
    belt,
    dynkin_involution,
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
        matrix = ExchangeMatrix(exchange_matrix(family, rank))
        assert matrix.is_bipartite()
        d = matrix.skew_symmetrizer()
        assert d is not None and all(x > 0 for x in d)
    assert ExchangeMatrix(exchange_matrix("G2", 2)).skew_symmetrizer() == (3, 1)
    assert ExchangeMatrix(exchange_matrix("B", 3)).skew_symmetrizer() == (2, 1, 1)


def _fraction_symmetrizer(rows):
    """Reference: the same walk over exact fractions, then one common denominator."""
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


entries = st.sampled_from((0, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6))


@st.composite
def symmetrizer_inputs(draw):
    """1-6 nodes: any entries (rarely symmetrizable), or d_i b_ij = -d_j b_ji
    by construction for drawn d, with sparse bonds (often disconnected)."""
    n = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        rows = [[0 if i == j else draw(entries) for j in range(n)] for i in range(n)]
    else:
        d = [draw(st.sampled_from((1, 2, 3))) for _ in range(n)]
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                k = draw(st.sampled_from((0, 0, 1, -1, 2, -2)))
                g = math.gcd(d[i], d[j])
                rows[i][j], rows[j][i] = k * d[j] // g, -k * d[i] // g
    return tuple(tuple(row) for row in rows)


@given(symmetrizer_inputs())
@example(((0, 2, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 3), (0, 0, -2, 0)))  # two components
@example(((0, 1, 0), (-3, 0, 2), (0, -1, 0)))  # a scale-up mid-walk
@example(((0, 1, 0), (-1, 0, 1), (0, 2, 0)))  # a sign clash
@example(((0, 1, 2), (-1, 0, 1), (-1, -1, 0)))  # a cycle of inconsistent ratios
@example(((0,),))
@settings(max_examples=300, deadline=None)
def test_skew_symmetrizer_matches_a_fraction_reference(rows):
    expected = _fraction_symmetrizer(rows)
    if expected is None:
        with pytest.raises(ValueError, match="not skew-symmetrizable"):
            ExchangeMatrix(rows)
    else:
        assert ExchangeMatrix(rows).skew_symmetrizer() == expected


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
        d = ExchangeMatrix(rows).skew_symmetrizer()
        for k in range(len(rows)):
            mutated = mutate_matrix(rows, k)
            for i in range(len(rows)):
                for j in range(len(rows)):
                    assert d[i] * mutated[i][j] == -d[j] * mutated[j][i]


# -- seeds -----------------------------------------------------------------------


def test_initial_seed_g2():
    seed = initial_seed("G2", 2)
    assert seed.matrix.rows == ((0, 1), (-3, 0))
    assert seed.cluster == (LP.variable(0, 2), LP.variable(1, 2))


def test_initial_seed_unsupported_pairs():
    for family, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("G2", 3), ("E", 6)]:
        with pytest.raises(UnsupportedTypeError):
            initial_seed(family, rank)


def test_mutate_seed_first_exchange():
    seed = initial_seed("A", 2).mutate(0)
    assert seed.cluster[0] == poly("x2 + 1", 2).div_exact(poly("x1", 2))


def test_mutate_seed_b2_squared_binomial():
    seed = initial_seed("B", 2).mutate(1)
    assert seed.cluster[1] == poly("x1^2 + 1", 2).div_exact(poly("x2", 2))


def test_mutate_seed_is_involutive():
    seed = initial_seed("C", 3)
    assert seed.mutate(1).mutate(1).cluster == seed.cluster
    assert seed.mutate(1).mutate(1).matrix.rows == seed.matrix.rows


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
        assert forward.matrix.rows == backward.matrix.rows


def test_full_odd_sweep_negates_the_matrix():
    for family, rank in [("A", 4), ("B", 3), ("G2", 2), ("D", 4), ("D", 6)]:
        seed = initial_seed(family, rank)
        odd, even = parity_groups(family, rank)
        for k in odd:
            seed = seed.mutate(k)
        negated = tuple(tuple(-x for x in row) for row in initial_seed(family, rank).matrix.rows)
        assert seed.matrix.rows == negated
        for k in even:
            seed = seed.mutate(k)
        assert seed.matrix.rows == initial_seed(family, rank).matrix.rows


# -- the belt -----------------------------------------------------------------------


def test_belt_a2_row_by_row():
    lattice = belt("A", 2)
    x1, x2 = poly("x1", 2), poly("x2", 2)
    assert lattice.value(0, 1) == poly("x2 + 1", 2).div_exact(x1)
    assert lattice.value(1, 2) == poly("x1 + x2 + 1", 2).div_exact(x1 * x2)
    assert lattice.value(0, 3) == poly("x1 + 1", 2).div_exact(x2)


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
    assert lattice.value(1, 2) == expected


def test_belt_b2_contains_the_doubled_root_variable():
    lattice = belt("B", 2)
    expected = poly("x2^2 + 2*x2 + x1^2 + 1", 2).div_exact(poly("x1^2*x2", 2))
    assert lattice.value(1, 2) == expected


def test_belt_json_shape():
    import json

    payload = json.loads(belt("A", 2).to_json())
    assert payload["type"] == "A" and payload["rank"] == 2
    assert payload["rows"][0] == [{"col": "1", "sup": 0, "poly": "x1"}]


def test_belt_row_cap_is_an_error():
    with pytest.raises(IterationLimitError):
        belt("A", 5, max_rows=2)


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
            denominator = _noninitial_denominator(cell.value)
            if denominator is not None:
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
def test_two_ended_belt_matches_the_forward_reference(family, rank):
    _assert_same_rows(belt(family, rank).rows, _forward_belt(family, rank))


@pytest.mark.parametrize("family,rank", REFERENCE_LADDER)
def test_two_ended_belt_keeps_the_row_cap(family, rank):
    expected = _forward_belt(family, rank)
    covering = len(expected) - 2
    _assert_same_rows(belt(family, rank, max_rows=covering).rows, expected)
    with pytest.raises(IterationLimitError) as capped:
        belt(family, rank, max_rows=covering - 1)
    assert str(capped.value) == (
        f"belt for {family}_{rank} did not cover all positive roots in {covering - 1} sweeps"
    )


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
def test_a_cap_below_the_period_fails_before_any_sweep(family, rank, monkeypatch, cold_period):
    covering = len(_forward_belt(family, rank)) - 2

    def no_sweeps(*args):
        raise AssertionError("a sweep was built")

    monkeypatch.setattr(mutation, "_sweeps", no_sweeps)
    for cap in range(1, covering):
        with pytest.raises(IterationLimitError) as capped:
            belt(family, rank, max_rows=cap)
        assert str(capped.value) == (
            f"belt for {family}_{rank} did not cover all positive roots in {cap} sweeps"
        )


@pytest.mark.parametrize("family,rank", REFERENCE_LADDER)
def test_a_cap_at_or_above_the_period_returns_the_shared_lattice(family, rank):
    covering = len(_forward_belt(family, rank)) - 2
    lattice = belt(family, rank)
    for cap in (covering, covering + 1, 2 * (_coxeter_number(family, rank) + 2), 10**9):
        assert belt(family, rank, max_rows=cap) is lattice
    assert belt(family, rank, None) is lattice


def _epsilon_orbits(family: str, rank: int) -> int:
    """The number of epsilon-orbits of non-initial cluster variables, with
    epsilon applied by ``substitute``."""
    epsilon = dynkin_involution(family, rank)
    image = {i: LP.variable(epsilon[i], rank) for i in range(rank)}
    values = noninitial_variables(family, rank).values()
    return len({frozenset((value, value.substitute(image))) for value in values})


@pytest.mark.parametrize("family,rank", REFERENCE_LADDER + [("A", 12)])
def test_the_period_takes_half_its_sweeps_from_each_end(family, rank, monkeypatch, cold_period):
    # Where epsilon swaps the parity groups (A_n, n even), the backward half
    # is the image of the forward half and no backward sweep is pulled;
    # every other rung pulls ceil(h/2) sweeps forward and floor(h/2) back.
    # Either way the belt divides once per epsilon-orbit of non-initial cells.
    odd, even = parity_groups(family, rank)
    pulled = {(odd, even): 0, (even, odd): 0}
    sweeps = mutation._sweeps
    div_exact = LP.div_exact
    divisions = 0

    def counted(family, rank, groups):
        for sweep in sweeps(family, rank, groups):
            pulled[groups] += 1
            yield sweep

    def counted_division(self, divisor):
        nonlocal divisions
        divisions += 1
        return div_exact(self, divisor)

    monkeypatch.setattr(mutation, "_sweeps", counted)
    monkeypatch.setattr(LP, "div_exact", counted_division)
    belt(family, rank)
    monkeypatch.undo()
    h = _coxeter_number(family, rank)
    backward = 0 if family == "A" and rank % 2 == 0 else h // 2
    assert pulled == {(odd, even): (h + 1) // 2, (even, odd): backward}
    assert divisions == _epsilon_orbits(family, rank)
    if (family, rank) == ("A", 12):
        assert (len(roots(family, rank)), divisions) == (78, 42)


def test_a1_cap_of_one_sweep_succeeds():
    lattice = belt("A", 1, max_rows=1)
    assert lattice is belt("A", 1)
    assert [len(row) for row in lattice.rows] == [1, 0, 1]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 5), ("G2", 2)])
def test_a_duplicated_value_fails_the_period_walk(family, rank, monkeypatch, cold_period):
    # The second forward sweep repeats a value of the first in place of its
    # own first value, so one positive root is left without a variable.
    sweeps = mutation._sweeps
    odd, even = parity_groups(family, rank)

    def duplicating(family, rank, groups):
        generated = sweeps(family, rank, groups)
        if groups != (odd, even):
            yield from generated
            return
        first = next(generated)
        yield first
        (slot, _), *rest = next(generated)
        yield ((slot, first[0][1]), *rest)
        yield from generated

    monkeypatch.setattr(mutation, "_sweeps", duplicating)
    with pytest.raises(BijectionError):
        belt(family, rank)
    with pytest.raises(BijectionError):
        noninitial_variables(family, rank)


def test_diamonds_catch_backward_values_placed_without_the_involution(monkeypatch):
    # The labels of the backward values rest on periodicity; the diamond
    # check is their certificate, so a wrong epsilon must fail it.
    def clear():
        _period.cache_clear()

    clear()
    monkeypatch.setattr(mutation, "dynkin_involution", lambda family, rank: tuple(range(rank)))
    try:
        for family, rank in [("A", 3), ("D", 5)]:
            result = check_belt_diamonds(family, rank)
            assert not result.passed, (family, rank)
            assert "counterexample" in result.details
    finally:
        clear()


@pytest.mark.parametrize(
    "family,rank,error",
    [("A", 3, "BijectionError"), ("A", 4, "BijectionError"),
     ("A", 5, "InexactDivisionError"), ("D", 5, "InexactDivisionError")],
)
def test_diamonds_catch_mirrored_values_left_unrenamed(family, rank, error, monkeypatch, cold_period):
    # Mirrored cells rest on the symmetry of epsilon, not on a division of
    # their own; a renaming that does nothing must fail the diamond check:
    # the period walk or a later exchange raises, and the check records it.
    monkeypatch.setattr(LP, "rename", lambda self, perm: self)
    result = check_belt_diamonds(family, rank)
    assert not result.passed
    assert result.details["error"].startswith(f"{error}: ")


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
