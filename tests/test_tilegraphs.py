"""Tile catalogues, family enumeration, root bijection, and realization."""

from __future__ import annotations

import hashlib
import json

import pytest

from beltmatch.errors import BijectionError
from beltmatch import mutation
from beltmatch.tilegraphs import (
    DoubleHexLayout,
    HexBaseLayout,
    LoneTrapezoidLayout,
    MatchingGraph,
    StripLayout,
    Tile,
    TowerLayout,
    enumerate_family,
    graph_for_root,
    realize,
    tile_set,
    tilegraph_to_json,
    to_dot,
)


# -- tiles ------------------------------------------------------------------------


def test_a5_tiles():
    tiles = tile_set("A", 5)
    assert tiles[1].shape == "square"
    assert tiles[1].weight("N") == 1  # slot of x2
    assert tiles[1].weight("S") is None and tiles[1].weight("E") is None
    assert tiles[5].weight("N") is None and tiles[5].weight("S") == 3
    assert tiles[3].weight("N") == 3 and tiles[3].weight("S") == 1


def test_a1_tile_has_no_weights():
    assert tile_set("A", 1) == {1: Tile(1, "square", (("N", None), ("E", None), ("S", None), ("W", None)))}


@pytest.mark.parametrize("rank", [2, 3])
def test_c_first_tile_has_opposite_weights(rank):
    tiles = tile_set("C", rank)
    assert tiles[1].weight("N") == 1 and tiles[1].weight("S") == 1
    assert tiles[2].weight("S") == 0


def test_b4_hexagon_weights_clockwise_from_top():
    hexagon = tile_set("B", 4)[2]
    assert hexagon.shape == "hexagon"
    assert [hexagon.weight(f"P{m}") for m in range(1, 7)] == [None, 0, None, 0, None, 2]


def test_b2_hexagon_drops_the_missing_third_variable():
    hexagon = tile_set("B", 2)[2]
    assert [hexagon.weight(f"P{m}") for m in range(1, 7)] == [None, 0, None, 0, None, None]


def test_b_rotated_squares_and_boundary_tile():
    tiles = tile_set("B", 5)
    assert tiles[3].weight("W") == 3 and tiles[3].weight("E") == 1
    assert tiles[5].weight("W") is None and tiles[5].weight("E") == 3


@pytest.mark.parametrize("rank", [4, 5])
def test_d_tiles_have_the_twin_trapezoid(rank):
    tiles = tile_set("D", rank)
    assert list(tiles) == [1, -1, *range(2, rank)]  # D_n tiles stop at T_(n-1)
    assert tiles[1].shape == "trapezoid" and tiles[-1].shape == "trapezoid"
    assert tiles[1].weight("N") == tiles[-1].weight("N") == 2
    hexagon = tiles[2]
    assert [hexagon.weight(f"P{m}") for m in range(1, 7)] == [None, 0, None, 1, None, 3]


def test_tile_set_is_shared_and_read_only():
    tiles = tile_set("B", 3)
    assert tile_set("B", 3) is tiles
    with pytest.raises(TypeError):
        tiles[1] = tiles[2]


def test_g2_hexagon_has_three_weighted_edges():
    hexagon = tile_set("G2", 2)[2]
    assert [hexagon.weight(f"P{m}") for m in range(1, 7)] == [None, 0, None, 0, None, 0]


# -- families -------------------------------------------------------------------------


def test_family_sizes():
    assert len(enumerate_family("A", 5)) == 15
    assert len(enumerate_family("C", 3)) == 9
    assert len(enumerate_family("G2", 2)) == 6


@pytest.mark.parametrize(
    "family,rank",
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(2, 6)]
    + [("D", n) for n in range(4, 7)]
    + [("G2", 2)],
)
def test_family_bijects_with_positive_roots(family, rank):
    graphs = enumerate_family(family, rank)
    roots = mutation.roots(family, rank)
    mus = [g.mu for g in graphs]
    assert len(set(mus)) == len(mus)
    assert sorted(mus) == sorted(roots)


def test_c3_multiset_counts():
    graphs = enumerate_family("C", 3)
    strips = [g for g in graphs if isinstance(g.layout, StripLayout)]
    multisets = [g for g in strips if len(set(g.layout.indices)) < len(g.layout.indices)]
    assert len(strips) == 9 and len(multisets) == 3


def test_b_rule2_lift_heights_are_odd_and_ordered():
    # Doubled-trapezoid graphs: recover the boundary-less tower tops from the
    # projected heights; they are odd with the taller strictly on the west.
    for rank in (3, 4, 5):
        centre = rank + 1
        for g in enumerate_family("B", rank):
            if not isinstance(g.layout, DoubleHexLayout):
                continue
            tops = []
            for tower in (g.layout.left_tower, g.layout.right_tower):
                t = tower[-1] if tower else 2
                tops.append(t if t % 2 == 1 else 2 * centre - 1 - t)
            assert tops[0] > tops[1]
            assert tops[0] % 2 == 1 and tops[1] % 2 == 1


def test_d_rule3_lift_heights():
    for rank in (4, 5, 6):
        centre = rank
        for g in enumerate_family("D", rank):
            if not isinstance(g.layout, DoubleHexLayout):
                continue
            tops = []
            for tower in (g.layout.left_tower, g.layout.right_tower):
                t = tower[-1] if tower else 2
                tops.append(t if t % 2 == 1 else 2 * centre - 1 - t)
            assert tops[0] >= tops[1]
            assert tops[0] % 2 == 1 and tops[1] % 2 == 1


# -- graph_for_root ---------------------------------------------------------------------


def test_graph_for_root_interval():
    g = graph_for_root("A", 5, (0, 1, 1, 1, 0))
    assert isinstance(g.layout, StripLayout) and g.layout.indices == (2, 3, 4)


def test_graph_for_root_single_tile():
    g = graph_for_root("A", 3, (1, 0, 0))
    assert isinstance(g.layout, StripLayout) and g.layout.indices == (1,)


def test_graph_for_root_c3_multiset():
    g = graph_for_root("C", 3, (1, 2, 1))
    assert isinstance(g.layout, StripLayout) and g.layout.indices == (2, 1, 2, 3)


def test_graph_for_root_b3_shapes():
    assert isinstance(graph_for_root("B", 3, (1, 0, 0)).layout, LoneTrapezoidLayout)
    assert isinstance(graph_for_root("B", 3, (0, 0, 1)).layout, TowerLayout)
    base = graph_for_root("B", 3, (2, 1, 1)).layout
    assert isinstance(base, HexBaseLayout) and len(base.traps) == 2 and base.tower == (3,)
    double = graph_for_root("B", 3, (2, 2, 1)).layout
    assert isinstance(double, DoubleHexLayout)
    assert double.left_tower == () and double.right_tower == (3,)


def test_graph_for_root_cached_lookup_is_not_aliased():
    reference = {g.mu: g for g in enumerate_family.__wrapped__("B", 3)}
    with pytest.raises(AttributeError):
        graph_for_root("B", 3, (2, 2, 1)).mu = (0, 0, 1)
    assert graph_for_root("B", 3, (2, 2, 1)).mu == (2, 2, 1)
    assert {root: graph_for_root("B", 3, root) for root in reference} == reference


def test_graph_for_root_rejects_non_roots():
    with pytest.raises(BijectionError):
        graph_for_root("A", 3, (2, 0, 0))
    with pytest.raises(BijectionError):
        graph_for_root("B", 3, (1, 2, 1))


# -- realize ----------------------------------------------------------------------------


def test_realize_interior_tile_is_a_square():
    g = realize(graph_for_root("A", 5, (0, 0, 1, 0, 0)))
    assert len(g.vertices) == 4 and len(g.edges) == 4
    weights = sorted(e.weight.to_text(g.names) for e in g.edges)
    assert weights == ["1", "1", "x2", "x4"]


def test_realize_b_hexagon_is_a_six_cycle():
    g = realize(graph_for_root("B", 3, (0, 1, 0)))
    assert len(g.vertices) == 6 and len(g.edges) == 6
    assert all(sum(1 for e in g.edges if v in (e.u, e.v)) == 2 for v in g.vertices)


def test_realize_a3_full_strip_is_the_2x4_grid():
    g = realize(graph_for_root("A", 3, (1, 1, 1)))
    assert len(g.vertices) == 8 and len(g.edges) == 10


def test_realized_weights_are_units_or_single_variables():
    for family, rank in [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("G2", 2)]:
        for graph in enumerate_family(family, rank):
            realized = realize(graph)
            for edge in realized.edges:
                terms = edge.weight.terms()
                assert len(terms) == 1
                exps, coeff = terms[0]
                assert coeff == 1
                assert sum(exps) in (0, 1) and all(e >= 0 for e in exps)


def test_realize_double_hex_has_the_extra_arc():
    g = realize(graph_for_root("B", 3, (2, 2, 1)))
    arcs = [e for e in g.edges if e.key() == ("h1.6", "h2.4")]
    assert len(arcs) == 1
    assert arcs[0].key() == ("h1.6", "h2.4")
    assert arcs[0].weight.to_text(g.names) == "1"


@pytest.mark.parametrize(
    "family,rank", [("B", 3), ("B", 4), ("B", 5), ("D", 4), ("D", 5), ("D", 6), ("G2", 2)]
)
def test_arc_exactly_on_two_hexagon_graphs(family, rank):
    for graph in enumerate_family(family, rank):
        two_hexagons = isinstance(graph.layout, DoubleHexLayout)
        keys = {e.key() for e in realize(graph).edges}
        assert (("h1.6", "h2.4") in keys) == two_hexagons
        arcs = json.loads(tilegraph_to_json(graph))["arcs"]
        assert arcs == ([["h1.6", "h2.4"]] if two_hexagons else [])


# -- serialization ------------------------------------------------------------------------


def test_to_dot_single_square():
    text = to_dot(realize(graph_for_root("A", 3, (1, 0, 0))))
    assert text.startswith("graph G {")
    assert text.count(" -- ") == 4
    assert text.count('";') == 4


def test_to_dot_empty_graph():
    assert to_dot(MatchingGraph(0, (), (), ())) == "graph G {\n}\n"


def test_to_dot_grid_mentions_x2_twice():
    text = to_dot(realize(graph_for_root("A", 3, (1, 1, 1))))
    assert text.count('[label="x2"]') == 2
    assert text.count(" -- ") == 10 and text.count('";') == 8


def test_tilegraph_json_fields():
    payload = json.loads(tilegraph_to_json(graph_for_root("B", 3, (2, 2, 1))))
    assert set(payload) == {"tiles", "gluings", "arcs", "mu"}
    assert payload["mu"] == [2, 2, 1]
    assert payload["arcs"] == [["h1.6", "h2.4"]]
    assert sum(1 for t in payload["tiles"] if t["shape"] == "hexagon") == 2


# -- the catalogue digest -------------------------------------------------------------------

# Recorded once from the code before the tile weights came to be read off the
# exchange matrix by one rule and G_2's catalogue came to run the B_n path;
# never re-recorded to make a change pass.  It pins every tile (items and key
# order), and the JSON and DOT of every family graph, in catalogue order.
CATALOGUE_RUNGS = (
    [("A", n) for n in range(1, 13)]
    + [("B", n) for n in range(2, 11)]
    + [("C", n) for n in range(2, 11)]
    + [("D", n) for n in range(4, 11)]
    + [("G2", 2)]
)
CATALOGUE_DIGEST = "dc05dcbbc8d57a65062ca7728005de80bc19881f50534521c09f58d89470b200"


def test_tiles_and_family_graphs_match_the_golden_digest():
    digest = hashlib.sha256()
    for family, rank in CATALOGUE_RUNGS:
        digest.update(repr(list(tile_set(family, rank).items())).encode() + b"\0")
        for graph in enumerate_family(family, rank):
            digest.update(tilegraph_to_json(graph).encode() + b"\0")
            digest.update(to_dot(realize(graph)).encode() + b"\0")
    assert digest.hexdigest() == CATALOGUE_DIGEST
