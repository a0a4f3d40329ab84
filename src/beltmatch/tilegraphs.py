"""Tiles, gluing layouts, per-family graph catalogues, and graph realization.

Tile graphs are stored structurally (which tiles, glued how); ``realize`` is
the single place where that structure becomes a concrete vertex/edge graph,
whose edges carry only their weights.  Strips go through ``strip_graph``, and
every hexagon -- the one of a single-hexagon graph and each of the two of a
two-hexagon graph -- through one helper that adds its trapezoids and tower.
The vertex-level drawing of the two-hexagon graphs (the bridging trapezoid
and the extra arc ``_ARC``) is pinned behaviourally: the matching polynomial
of every realized family graph must reproduce the belt oracle, and the
shapes below were calibrated against it for B_3..B_5, D_4..D_6 and G_2
before being frozen.

Tile T_i belongs to Dynkin node i (T_1bar is index -1).  Its ambient slot,
its label, and the top tile index all come from ``mutation.nodes`` and
``mutation.node_label``, as does each graph's multiplicity vector mu.  Its
weights are x_i's neighbours in the exchange relation: T_i carries |b_ij|
edges of x_j, read off ``mutation.exchange_matrix`` by one rule
(``tile_set``), so a family states only its shapes and gluings.

Families and their graphs:

* A_n: squares glued in a row; graphs are the intervals T_i..T_j.
* C_n: the same squares, T_1 weighing x_2 on two opposite edges (|b_12| =
  2); graphs are the intervals plus the multisets T_i..T_2 T_1 T_2..T_j.
* B_n: a trapezoid T_1, a hexagon T_2, and counter-clockwise-rotated squares
  T_3..T_n that stack into towers above the hexagon; up to |b_21| = 2
  trapezoids attach to the hexagon, and doubling the hexagon yields
  two-tower graphs joined by a bridging trapezoid.
* D_n: the B_(n-1) shapes with a twin trapezoid T_1bar.
* G_2: the B_2 shapes, up to |b_21| = 3 trapezoids attaching, and one
  double-hexagon shape mirroring B_3.
"""

from __future__ import annotations

import json
from functools import cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence, Union

from .errors import BijectionError, StructureError
from .laurent import LaurentPolynomial
from .mutation import check_supported, exchange_matrix, node_label, nodes, roots, variable_names
from .rootsys import RootVector

Weight = Union[int, None]  # ambient variable slot, None for a unit edge

# The unit edge of every two-hexagon graph that joins the west hexagon's
# vertex 6 to the east hexagon's vertex 4 around the outside.
_ARC = ("h1.6", "h2.4")


class Tile(NamedTuple):
    """A weighted cycle graph in a fixed orientation (no rotations, no reflections)."""

    index: int  # 1..n, or -1 for the D-type twin trapezoid T_1bar
    shape: str  # "square" | "hexagon" | "trapezoid"
    edges: tuple[tuple[str, Weight], ...]

    def weight(self, label: str) -> Weight:
        for name, w in self.edges:
            if name == label:
                return w
        raise KeyError(label)


@cache
def tile_set(family: str, rank: int) -> Mapping[int, Tile]:
    """The tile catalogue keyed by tile index, in slot order (cached, read-only).

    T_i carries |b_ij| edges of x_j, one per copy, read off row i of the
    exchange matrix in slot order (a weight is the slot of node j).  Only
    the shape depends on the family: every tile of A_n and C_n is a square,
    and B_n, D_n and G_2 have trapezoids T_1 (and T_1bar), the hexagon T_2
    and squares T_3.. turned a quarter counter-clockwise.  A square puts a
    neighbour above i on its upper edge (N, or W turned) and one below on
    its lower edge (S, or E), a copy whose edge is taken filling the other
    (C_n's T_1 weighs x_2 twice); the hexagon fills P2, P4, P6 and a
    trapezoid N, in slot order.
    """
    order = nodes(family, rank)
    tiles: dict[int, Tile] = {}
    for i, row in zip(order, exchange_matrix(family, rank)):
        if family in ("A", "C"):
            shape, weighted = "square", ("N", "S")
        elif abs(i) == 1:
            shape, weighted = "trapezoid", ("N",)
        elif i == 2:
            shape, weighted = "hexagon", ("P2", "P4", "P6")
        else:
            shape, weighted = "square", ("W", "E")
        edges = ("P1", "P2", "P3", "P4", "P5", "P6") if shape == "hexagon" else ("N", "E", "S", "W")
        weights: dict[str, Weight] = dict.fromkeys(edges)
        free = list(weighted)  # a square takes a neighbour below from the lower end
        for j, b in enumerate(row):
            for _ in range(abs(b)):
                weights[free.pop(-1 if shape == "square" and order[j] < i else 0)] = j
        tiles[i] = Tile(i, shape, tuple(weights.items()))
    return MappingProxyType(tiles)


# -- layouts ------------------------------------------------------------------


class StripLayout(NamedTuple):
    """Squares glued in a row, west to east (A_n intervals, C_n multisets)."""

    indices: tuple[int, ...]


class TowerLayout(NamedTuple):
    """Rotated squares stacked bottom to top with no base hexagon."""

    indices: tuple[int, ...]


class LoneTrapezoidLayout(NamedTuple):
    """A single unattached trapezoid."""

    index: int


class HexBaseLayout(NamedTuple):
    """One hexagon with trapezoids at unit positions and an optional tower."""

    traps: tuple[tuple[str, int], ...]  # (hexagon position, trapezoid index)
    tower: tuple[int, ...]  # tile indices bottom to top, may be empty


class DoubleHexLayout(NamedTuple):
    """Two hexagons joined by a bridging trapezoid, with a tower on each.

    The bridge is always the trapezoid T_1; it spans the west hexagon's P3
    edge and the east hexagon's P5 edge, and the unit arc ``_ARC`` joins the
    two hexagons around the outside.  ``left_tower``/``right_tower`` sit on
    the west/east hexagon; for G_2 the east hexagon carries a trapezoid at P1
    instead of a tower.
    """

    west_traps: tuple[tuple[str, int], ...]
    left_tower: tuple[int, ...]
    right_tower: tuple[int, ...]
    east_traps: tuple[tuple[str, int], ...] = ()


Layout = Union[StripLayout, TowerLayout, LoneTrapezoidLayout, HexBaseLayout, DoubleHexLayout]


class TileGraph(NamedTuple):
    family: str
    rank: int
    mu: RootVector
    layout: Layout


def _layout_tiles(layout: Layout) -> list[int]:
    """Tile indices with multiplicity, in layout order."""
    if isinstance(layout, (StripLayout, TowerLayout)):
        return list(layout.indices)
    if isinstance(layout, LoneTrapezoidLayout):
        return [layout.index]
    if isinstance(layout, HexBaseLayout):
        return [i for _, i in layout.traps] + [2] + list(layout.tower)
    return (
        [i for _, i in layout.west_traps]
        + [2]
        + list(layout.left_tower)
        + [1]  # the bridge
        + [2]
        + list(layout.right_tower)
        + [i for _, i in layout.east_traps]
    )


def _make_graph(family: str, rank: int, layout: Layout) -> TileGraph:
    """The tile graph of ``layout``; mu counts its tiles by the slot of their node."""
    slot = nodes(family, rank).index
    mu = [0] * rank
    for index in _layout_tiles(layout):
        mu[slot(index)] += 1
    return TileGraph(family, rank, tuple(mu), layout)


# -- family catalogues ---------------------------------------------------------


@cache
def enumerate_family(family: str, rank: int) -> tuple[TileGraph, ...]:
    """All family graphs, sorted by tile-multiplicity vector (cached, immutable)."""
    check_supported(family, rank)
    graphs: list[TileGraph] = []
    if family in ("A", "C"):
        for i in range(1, rank + 1):
            for j in range(i, rank + 1):
                graphs.append(_make_graph(family, rank, StripLayout(tuple(range(i, j + 1)))))
        if family == "C":
            for i in range(2, rank + 1):
                for j in range(i, rank + 1):
                    indices = tuple(range(i, 1, -1)) + (1,) + tuple(range(2, j + 1))
                    graphs.append(_make_graph(family, rank, StripLayout(indices)))
    else:
        order = nodes(family, rank)
        top = max(order)
        for index in order:
            if abs(index) == 1:
                graphs.append(_make_graph(family, rank, LoneTrapezoidLayout(index)))
        for a in range(3, top + 1):
            for b in range(a, top + 1):
                graphs.append(_make_graph(family, rank, TowerLayout(tuple(range(a, b + 1)))))
        if family == "D":
            trap_choices: tuple[tuple[tuple[str, int], ...], ...] = (
                (),
                (("P3", 1),),
                (("P5", -1),),
                (("P3", 1), ("P5", -1)),
            )
        else:  # the first k of P5, P3, P1, for k up to |b_21| (T_2's edges of x_1)
            bond = abs(exchange_matrix(family, rank)[order.index(2)][order.index(1)])
            spots = ("P5", "P3", "P1")
            trap_choices = tuple(tuple((s, 1) for s in spots[:k]) for k in range(bond + 1))
        for traps in trap_choices:
            for b in range(2, top + 1):
                tower = tuple(range(3, b + 1))
                graphs.append(_make_graph(family, rank, HexBaseLayout(traps, tower)))
        for p in range(2, top + 1):
            for b in range(p + 1, top + 1):
                graphs.append(_double_hex_graph(family, rank, top, p, b))
        if family == "G2":
            graphs.append(
                _make_graph(family, rank, DoubleHexLayout((("P5", 1),), (), (), (("P1", 1),)))
            )
    graphs.sort(key=lambda g: g.mu)
    return tuple(graphs)


def _double_hex_graph(family: str, rank: int, top: int, p: int, b: int) -> TileGraph:
    """The two-hexagon graph whose multiplicity vector is e_p + e_b.

    Lifted to the boundary-less family, the two towers end at odd tiles
    m_1 < m_2 (m_1 <= m_2 for D); the projection into rank n reflects any
    tower crossing the excision centre.  Exactly one of t and its mirror
    image is odd, so the lift heights are recovered from (p, b) and the
    taller lift goes on the west hexagon; ``top`` is the highest tile index.
    """
    centre = top + 1
    lifts = {t: (t if t % 2 == 1 else 2 * centre - 1 - t) for t in (p, b)}
    t_left, t_right = (p, b) if lifts[p] > lifts[b] else (b, p)
    left_tower = tuple(range(3, t_left + 1))
    right_tower = tuple(range(3, t_right + 1))
    west = (("P5", 1 if family == "B" else -1),)
    return _make_graph(family, rank, DoubleHexLayout(west, left_tower, right_tower))


@cache
def _family_by_mu(family: str, rank: int) -> dict[RootVector, TileGraph]:
    return {g.mu: g for g in enumerate_family(family, rank)}


def graph_for_root(family: str, rank: int, root: RootVector) -> TileGraph:
    """The unique family member whose multiplicity vector equals ``root``."""
    if tuple(root) not in roots(family, rank):
        raise BijectionError(f"{root} is not a positive root of {family}_{rank}")
    try:
        return _family_by_mu(family, rank)[tuple(root)]
    except KeyError:
        raise BijectionError(f"no family graph has multiplicity vector {root}") from None


# -- realization ----------------------------------------------------------------


class MatchingEdge(NamedTuple):
    u: str
    v: str
    weight: LaurentPolynomial

    def key(self) -> tuple[str, str]:
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


class MatchingGraph(NamedTuple):
    nvars: int
    names: tuple[str, ...]
    vertices: tuple[str, ...]
    edges: tuple[MatchingEdge, ...]


class _GraphBuilder:
    def __init__(self, nvars: int, names: Sequence[str]):
        self.nvars = nvars
        self.names = tuple(names)
        self.vertices: dict[str, None] = {}  # an ordered set: first-seen order
        self.edges: list[MatchingEdge] = []
        self._seen: set[tuple[str, str]] = set()

    def edge(self, u: str, v: str, weight: LaurentPolynomial | Weight) -> None:
        if isinstance(weight, LaurentPolynomial):
            poly = weight
        elif weight is None:
            poly = LaurentPolynomial.one(self.nvars)
        else:
            poly = LaurentPolynomial.variable(weight, self.nvars)
        key = (u, v) if u <= v else (v, u)
        if key in self._seen:
            raise StructureError(f"duplicate edge {key}")
        self._seen.add(key)
        self.vertices.setdefault(u)
        self.vertices.setdefault(v)
        self.edges.append(MatchingEdge(u, v, poly))

    def build(self) -> MatchingGraph:
        return MatchingGraph(self.nvars, self.names, tuple(self.vertices), tuple(self.edges))


def strip_graph(
    pairs: Sequence[tuple[LaurentPolynomial | Weight, LaurentPolynomial | Weight]],
    nvars: int,
    names: Sequence[str],
) -> MatchingGraph:
    """A 2 x (k+1) grid: tile m contributes north/south weights pairs[m].

    A weight is a variable slot, None for a unit edge, or a polynomial (the
    signed extended-lattice strips carry explicit signs).  Shared vertical
    edges have unit weight.
    """
    builder = _GraphBuilder(nvars, names)
    for m in range(len(pairs) + 1):
        builder.edge(f"u{m}", f"v{m}", None)
    for m, (north, south) in enumerate(pairs):
        builder.edge(f"u{m}", f"u{m + 1}", north)
        builder.edge(f"v{m}", f"v{m + 1}", south)
    return builder.build()


def _hexagon(
    builder: _GraphBuilder,
    prefix: str,
    tiles: Mapping[int, Tile],
    traps: Sequence[tuple[str, int]],
    tower: Sequence[int],
) -> list[str]:
    """The hexagon T_2 as the cycle ``{prefix}.1``..``{prefix}.6``, with a
    trapezoid at each (position, index) of ``traps`` and ``tower`` stacked
    on its P1 edge; returns the six cycle vertices."""
    verts = [f"{prefix}.{m}" for m in range(1, 7)]
    for m in range(6):
        builder.edge(verts[m], verts[(m + 1) % 6], tiles[2].weight(f"P{m + 1}"))
    for pos, index in traps:
        _attach_trapezoid(builder, verts, prefix, pos, tiles[index])
    _attach_tower(builder, (verts[0], verts[1]), f"{prefix}.", tiles, tower)
    return verts


def _attach_trapezoid(
    builder: _GraphBuilder, hex_verts: list[str], prefix: str, pos: str, tile: Tile
) -> None:
    # The trapezoid shares the hexagon edge at ``pos``; its weighted northern
    # edge is the one adjacent to the shared edge at the upper endpoint.
    upper, lower = {
        "P1": (0, 1),
        "P3": (2, 3),
        "P5": (5, 4),
    }[pos]
    a = f"{prefix}.{pos}a"
    b = f"{prefix}.{pos}b"
    builder.edge(hex_verts[upper], a, tile.weight("N"))
    builder.edge(a, b, None)
    builder.edge(b, hex_verts[lower], None)


def _attach_tower(
    builder: _GraphBuilder,
    base: tuple[str, str],
    prefix: str,
    tiles: Mapping[int, Tile],
    indices: Sequence[int],
) -> None:
    """Stack rotated squares on the ``base`` rung (left, right).

    Rung k is named ``{prefix}t{k}l`` / ``{prefix}t{k}r``.
    """
    left, right = base
    for level, index in enumerate(indices, start=1):
        tile = tiles[index]
        if tile.shape != "square":
            raise StructureError(f"tower tile T{node_label(index)} is not a square")
        new_left = f"{prefix}t{level}l"
        new_right = f"{prefix}t{level}r"
        builder.edge(left, new_left, tile.weight("W"))
        builder.edge(new_left, new_right, None)
        builder.edge(new_right, right, tile.weight("E"))
        left, right = new_left, new_right


def realize(tg: TileGraph) -> MatchingGraph:
    """Concrete weighted vertex/edge graph for a tile graph."""
    tiles = tile_set(tg.family, tg.rank)
    names = variable_names(tg.family, tg.rank)
    layout = tg.layout

    if isinstance(layout, StripLayout):
        pairs = [(tiles[i].weight("N"), tiles[i].weight("S")) for i in layout.indices]
        return strip_graph(pairs, tg.rank, names)

    builder = _GraphBuilder(tg.rank, names)
    if isinstance(layout, LoneTrapezoidLayout):
        label = f"T{node_label(layout.index)}"
        builder.edge(f"{label}.1", f"{label}.2", tiles[layout.index].weight("N"))
        builder.edge(f"{label}.2", f"{label}.3", None)
        builder.edge(f"{label}.3", f"{label}.4", None)
        builder.edge(f"{label}.4", f"{label}.1", None)
    elif isinstance(layout, TowerLayout):
        builder.edge("t0l", "t0r", None)
        _attach_tower(builder, ("t0l", "t0r"), "", tiles, layout.indices)
    elif isinstance(layout, HexBaseLayout):
        _hexagon(builder, "h1", tiles, layout.traps, layout.tower)
    elif isinstance(layout, DoubleHexLayout):
        west = _hexagon(builder, "h1", tiles, layout.west_traps, layout.left_tower)
        east = _hexagon(builder, "h2", tiles, layout.east_traps, layout.right_tower)
        # Bridge trapezoid T_1: glued across the west hexagon's P3 edge and
        # the east hexagon's P5 edge.  The east hexagon is drawn turned, so
        # the bridge edges cross -- upper-west to lower-east and vice versa --
        # with the weighted edge of the trapezoid on the h1.3--h2.5 side.
        # Bridge and arc were calibrated against the belt oracle (B_3..B_5,
        # D_4..D_6, G_2) and are independent of the tower heights.
        builder.edge(west[2], east[4], tiles[1].weight("N"))
        builder.edge(west[3], east[5], None)
        builder.edge(*_ARC, None)
    else:
        raise StructureError(f"unknown layout {layout!r}")
    return builder.build()


# -- serialization ---------------------------------------------------------------


def _layout_gluings(layout: Layout) -> list[str]:
    """Edge identifications as 'tile.edge~tile.edge' strings."""

    def tower_gluings(base: str, indices: Sequence[int], prefix: str) -> list[str]:
        out = []
        below = base
        for level, index in enumerate(indices, start=1):
            label = f"{prefix}{level}(T{index})"
            out.append(f"{label}.S~{below}")
            below = f"{label}.N"
        return out

    if isinstance(layout, (StripLayout, TowerLayout)):
        near, far = ("E", "W") if isinstance(layout, StripLayout) else ("N", "S")
        ids = layout.indices
        return [
            f"t{m}(T{ids[m]}).{near}~t{m + 1}(T{ids[m + 1]}).{far}"
            for m in range(len(ids) - 1)
        ]
    if isinstance(layout, LoneTrapezoidLayout):
        return []
    if isinstance(layout, HexBaseLayout):
        out = [f"T{node_label(i)}@{pos}~hex.{pos}" for pos, i in layout.traps]
        out += tower_gluings("hex.P1", layout.tower, "tw")
        return sorted(out)
    if isinstance(layout, DoubleHexLayout):
        out = [f"T{node_label(i)}@{pos}~hex1.{pos}" for pos, i in layout.west_traps]
        out += [f"T{node_label(i)}@{pos}~hex2.{pos}" for pos, i in layout.east_traps]
        out += ["bridge(T1).W~hex1.P3", "bridge(T1).E~hex2.P5"]
        out += tower_gluings("hex1.P1", layout.left_tower, "twl")
        out += tower_gluings("hex2.P1", layout.right_tower, "twr")
        return sorted(out)
    raise StructureError(f"unknown layout {layout!r}")


def tilegraph_to_json(tg: TileGraph) -> str:
    tileset = tile_set(tg.family, tg.rank)
    tiles = [{"index": node_label(i), "shape": tileset[i].shape} for i in _layout_tiles(tg.layout)]
    payload = {
        "tiles": tiles,
        "gluings": _layout_gluings(tg.layout),
        "arcs": [list(_ARC)] if isinstance(tg.layout, DoubleHexLayout) else [],
        "mu": list(tg.mu),
    }
    return json.dumps(payload, sort_keys=True)


def to_dot(mg: MatchingGraph) -> str:
    """DOT text with deterministic vertex order and weight labels."""
    lines = ["graph G {"]
    for v in sorted(mg.vertices):
        lines.append(f'  "{v}";')
    for edge in sorted(mg.edges, key=lambda e: e.key()):
        u, v = edge.key()
        label = edge.weight.to_text(mg.names)
        lines.append(f'  "{u}" -- "{v}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
