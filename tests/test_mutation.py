"""Exchange matrices, seed mutation, and the bipartite belt."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltmatch.errors import UnsupportedTypeError
from beltmatch.laurent import LaurentPolynomial as LP
from beltmatch.mutation import (
    ExchangeMatrix,
    Seed,
    _variables,
    belt,
    exchange_matrix,
    initial_seed,
    mutate_matrix,
    noninitial_variables,
    parity_groups,
    variable_names,
)


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


def test_matrices_are_bipartite_and_skew_symmetrizable():
    for family, rank in [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("G2", 2)]:
        matrix = ExchangeMatrix(exchange_matrix(family, rank))
        assert matrix.is_bipartite()
        d = matrix.skew_symmetrizer()
        assert d is not None and all(x > 0 for x in d)
    assert ExchangeMatrix(exchange_matrix("G2", 2)).skew_symmetrizer() == (3, 1)
    assert ExchangeMatrix(exchange_matrix("B", 3)).skew_symmetrizer() == (2, 1, 1)


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
    for family, rank in [("A", 4), ("B", 3), ("G2", 2), ("D", 4)]:
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
    from beltmatch.errors import IterationLimitError

    with pytest.raises(IterationLimitError):
        belt("A", 5, max_rows=2)


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
    assert noninitial_variables("B", 3) == _variables.__wrapped__("B", 3)
    with pytest.raises(TypeError):
        belt("B", 3).values[(0, 0)] = LP.one(3)
