"""Matching enumeration: frozen hand-enumerated oracles and cross-checks."""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from beltmatch.laurent import LaurentPolynomial as LP
from beltmatch.matchenum import (
    cluster_expansion,
    matching_polynomial,
    matching_polynomial_by_enumeration,
    perfect_matchings,
    strip_transfer_polynomial,
)
from beltmatch.mutation import exchange_matrix, variable_names
from beltmatch.rootsys import CartanSpec, positive_roots
from beltmatch.tilegraphs import (
    MatchingEdge,
    MatchingGraph,
    enumerate_family,
    graph_for_root,
    realize,
    strip_graph,
)


def poly(text: str, family: str, rank: int) -> LP:
    return LP.parse(text, rank, variable_names(family, rank))


def test_interior_tile_has_two_matchings():
    g = realize(graph_for_root("A", 5, (0, 0, 1, 0, 0)))
    assert len(perfect_matchings(g)) == 2
    assert matching_polynomial(g) == poly("x2*x4 + 1", "A", 5)


def test_a3_grid_matchings_frozen_by_hand():
    # The 2x4 grid for T_1 u T_2 u T_3.  The five perfect matchings, found by
    # hand: all verticals; horizontals of one tile plus the verticals that
    # remain (three ways); horizontals of tiles 1 and 3 together.  Weights:
    # 1, x2, x1*x3, x2, x2^2.
    g = realize(graph_for_root("A", 3, (1, 1, 1)))
    matchings = perfect_matchings(g)
    assert len(matchings) == 5
    weights = []
    for matching in matchings:
        w = LP.one(3)
        for edge in matching:
            w = w * edge.weight
        weights.append(w.to_text(g.names))
    assert sorted(weights) == ["1", "x1*x3", "x2", "x2", "x2^2"]
    assert matching_polynomial(g) == poly("x2^2 + 2*x2 + x1*x3 + 1", "A", 3)


def test_odd_vertex_graph_has_no_matching():
    one = LP.one(1)
    g = MatchingGraph(1, ("x1",), ("a", "b", "c"), ())
    assert matching_polynomial(g).is_zero
    triangle = strip_graph([(one, one)], 1, ("x1",))
    chopped = MatchingGraph(1, ("x1",), triangle.vertices[:3], tuple(
        e for e in triangle.edges if e.u in triangle.vertices[:3] and e.v in triangle.vertices[:3]
    ))
    assert len(chopped.vertices) == 3
    assert matching_polynomial(chopped).is_zero


def test_cluster_expansion_examples():
    x = cluster_expansion("A", 3, (1, 1, 0))
    assert x == poly("x1*x3 + x2 + 1", "A", 3).div_exact(poly("x1*x2", "A", 3))
    assert cluster_expansion("A", 2, (1, 0)) == poly("x2 + 1", "A", 2).div_exact(poly("x1", "A", 2))
    assert cluster_expansion("C", 2, (1, 0)) == poly("x2^2 + 1", "C", 2).div_exact(poly("x1", "C", 2))


def test_b_hexagon_matchings():
    g = realize(graph_for_root("B", 3, (0, 1, 0)))
    assert len(perfect_matchings(g)) == 2
    assert matching_polynomial(g) == poly("x1^2*x3 + 1", "B", 3)


def test_condensation_unit_smoke():
    # 2x4 grid times the empty graph against two single tiles: 5*1 = 2*2 + 1.
    one = LP.one(1)
    strip = lambda k: strip_graph([(one, one)] * k, 1, ("y",))
    count = lambda k: matching_polynomial(strip(k)).coefficient((0,))
    assert count(3) * 1 == count(1) * count(1) + 1
    assert count(3) == 5 and count(1) == 2


def test_unit_strip_counts_are_fibonacci():
    # Transfer recurrence oracle: F(1) = F(2) = 1, F(k) = F(k-1) + F(k-2);
    # an interval of k tiles has F(k+2) matchings at unit weights.
    fib = [1, 1]
    for _ in range(12):
        fib.append(fib[-1] + fib[-2])
    one = LP.one(1)
    for k in range(1, 9):
        g = strip_graph([(one, one)] * k, 1, ("y",))
        assert len(perfect_matchings(g)) == fib[k + 1]


def test_transfer_recurrence_matches_on_strips():
    for family, rank, root in [
        ("A", 5, (0, 1, 1, 1, 0)),
        ("A", 8, (1, 1, 1, 1, 1, 1, 1, 1)),
        ("C", 3, (1, 2, 2)),
    ]:
        g = graph_for_root(family, rank, root)
        tiles = g.layout.indices
        from beltmatch.tilegraphs import tile_set

        catalogue = tile_set(family, rank)
        one = LP.one(rank)
        pairs = []
        for index in tiles:
            tile = catalogue[index]
            north, south = tile.weight("N"), tile.weight("S")
            pairs.append(
                (
                    one if north is None else LP.variable(north, rank),
                    one if south is None else LP.variable(south, rank),
                )
            )
        assert strip_transfer_polynomial(pairs, rank) == matching_polynomial(realize(g))


@pytest.mark.parametrize(
    "family,rank",
    [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("G2", 2)],
)
def test_both_algorithms_agree_on_every_family_graph(family, rank):
    for graph in enumerate_family(family, rank):
        realized = realize(graph)
        assert matching_polynomial(realized) == matching_polynomial_by_enumeration(realized)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 6), ("B", 5), ("C", 5), ("D", 6), ("G2", 2)],
)
def test_family_matching_polynomials_are_nonnegative(family, rank):
    for graph in enumerate_family(family, rank):
        polynomial = matching_polynomial(realize(graph))
        assert not polynomial.is_zero
        assert all(c > 0 for c in polynomial.coefficients())


def test_every_root_has_at_least_one_matching():
    roots = positive_roots(CartanSpec.from_exchange("D", 4, exchange_matrix("D", 4)))
    for root in roots:
        assert len(perfect_matchings(realize(graph_for_root("D", 4, root)))) >= 1


def test_sixty_tile_unit_strip_is_fibonacci():
    # F(62) perfect matchings.  Eliminating along the strip keeps two
    # vertices on the frontier; an order that jumps between tiles (sorted
    # names put u10..u19 between u1 and u2) blows the memo up exponentially.
    one = LP.one(1)
    g = strip_graph([(one, one)] * 60, 1, ("y",))
    assert matching_polynomial(g) == LP.constant(4_052_739_537_881, 1)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 6), ("B", 5), ("C", 5), ("D", 6), ("G2", 2)],
)
def test_vertex_and_edge_order_do_not_change_the_result(family, rank):
    rng = random.Random(2007)
    for graph in enumerate_family(family, rank):
        g = realize(graph)
        shuffled = MatchingGraph(
            g.nvars,
            g.names,
            tuple(rng.sample(g.vertices, len(g.vertices))),
            tuple(rng.sample(g.edges, len(g.edges))),
        )
        assert matching_polynomial(shuffled) == matching_polynomial(g)
        assert len(perfect_matchings(shuffled)) == len(perfect_matchings(g))


def _renamed(graph: MatchingGraph, prefix: str) -> MatchingGraph:
    return MatchingGraph(
        graph.nvars,
        graph.names,
        tuple(prefix + v for v in graph.vertices),
        tuple(MatchingEdge(prefix + e.u, prefix + e.v, e.weight) for e in graph.edges),
    )


def test_disconnected_strips_multiply():
    names = ("x1", "x2")
    left = strip_graph([(0, None), (None, 1)], 2, names)
    right = _renamed(strip_graph([(1, 0), (0, None), (None, None)], 2, names), "r")
    union = MatchingGraph(2, names, left.vertices + right.vertices, left.edges + right.edges)
    assert matching_polynomial(union) == matching_polynomial(left) * matching_polynomial(right)
    assert len(perfect_matchings(union)) == len(perfect_matchings(left)) * len(perfect_matchings(right))


def test_isolated_vertex_leaves_no_perfect_matching():
    one = LP.one(1)
    g = strip_graph([(one, one)] * 2, 1, ("y",))
    lonely = MatchingGraph(1, ("y",), ("z",) + g.vertices + ("w",), g.edges)
    assert matching_polynomial(lonely).is_zero
    assert perfect_matchings(lonely) == ()
    edgeless = MatchingGraph(1, ("y",), ("a", "b"), ())
    assert matching_polynomial(edgeless).is_zero
    assert matching_polynomial(MatchingGraph(1, ("y",), (), ())) == one


def test_long_unit_strip_needs_no_recursion():
    # 2,402 vertices: one elimination step per vertex must not nest calls.
    a, b = 1, 1
    for _ in range(1200):
        a, b = b, a + b
    one = LP.one(1)
    g = strip_graph([(one, one)] * 1200, 1, ("y",))
    assert len(g.vertices) == 2402
    assert matching_polynomial(g) == LP.constant(b, 1)  # F(1202)


def test_matching_polynomial_keeps_nothing_after_it_returns():
    # With the cycle collector off, whatever the call leaves reachable only
    # through reference cycles (a self-referencing closure and its memo, say)
    # stays allocated; the forward pass leaves nothing behind.
    g = realize(graph_for_root("B", 12, (2,) * 11 + (1,)))
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        polynomial = matching_polynomial(g)
        assert len(polynomial) == 16_211
        del polynomial
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left < 1_000_000
