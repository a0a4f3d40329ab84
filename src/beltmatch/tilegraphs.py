"""Tiles, gluing layouts, per-family graph catalogues, and graph realization.

Tile graphs are stored structurally (which tiles, glued how); ``realize`` is
the single place where that structure becomes a concrete vertex/edge graph.
The vertex-level drawing of the doubled-trapezoid graphs (including the
extra arc joining the two tower tops) is pinned behaviourally: the matching
polynomial of every realized family graph must reproduce the belt oracle,
and the shapes below were calibrated against it for B_3..B_5, D_4..D_6 and
G_2 before being frozen.

Families and their graphs:

* A_n: squares glued in a row; graphs are the intervals T_i..T_j.
* C_n: same squares, but T_1 carries x_2 on two opposite edges; graphs are
  the intervals plus the multisets T_i..T_2 T_1 T_2..T_j.
* B_n: a trapezoid T_1, a hexagon T_2, and counter-clockwise-rotated squares
  T_3..T_n that stack into towers above the hexagon; the trapezoid may be
  doubled, and doubling the hexagon yields two-tower graphs joined by a
  bridging trapezoid.
* D_n: the B_(n-1) shapes with a twin trapezoid T_1bar and a hexagon whose
  southern weight is x_1bar.
* G_2: the trapezoid and a hexagon with three x_1 edges; up to three
  trapezoids attach, and the double-hexagon shape mirrors B_3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence, Union

from .errors import BijectionError, StructureError
from .laurent import LaurentPolynomial
from .mutation import check_supported, roots, variable_names
from .rootsys import RootVector

Weight = Union[int, None]  # ambient variable slot, None for a unit edge


@dataclass(frozen=True)
class Tile:
    """A weighted cycle graph in a fixed orientation (no rotations, no reflections)."""

    index: int  # 1..n, or -1 for the D-type twin trapezoid T_1bar
    shape: str  # "square" | "hexagon" | "trapezoid"
    edges: tuple[tuple[str, Weight], ...]

    def weight(self, label: str) -> Weight:
        for name, w in self.edges:
            if name == label:
                return w
        raise KeyError(label)


def index_label(index: int) -> str:
    return "1b" if index == -1 else str(index)


def _slot(family: str, index: int) -> int:
    """Ambient variable slot of x_index (D_n keeps x_1bar in slot 1)."""
    if family == "D":
        if index == 1:
            return 0
        if index == -1:
            return 1
        return index
    return index - 1


def tile_set(family: str, rank: int) -> dict[int, Tile]:
    """The tile catalogue keyed by tile index."""
    check_supported(family, rank)
    tiles: dict[int, Tile] = {}

    def slot(index: int) -> int:
        return _slot(family, index)

    if family in ("A", "C"):
        for i in range(1, rank + 1):
            north = slot(i + 1) if i + 1 <= rank else None
            south = slot(i - 1) if i - 1 >= 1 else None
            if family == "C" and i == 1:
                north = south = slot(2) if rank >= 2 else None
            tiles[i] = Tile(i, "square", (("N", north), ("E", None), ("S", south), ("W", None)))
        return tiles

    if family == "G2":
        tiles[1] = Tile(1, "trapezoid", (("N", slot(2)), ("E", None), ("S", None), ("W", None)))
        tiles[2] = Tile(
            2,
            "hexagon",
            (
                ("P1", None),
                ("P2", slot(1)),
                ("P3", None),
                ("P4", slot(1)),
                ("P5", None),
                ("P6", slot(1)),
            ),
        )
        return tiles

    top = rank if family == "B" else rank - 1  # D_n tiles run up to n-1
    trapezoid = Tile(1, "trapezoid", (("N", slot(2)), ("E", None), ("S", None), ("W", None)))
    tiles[1] = trapezoid
    if family == "D":
        tiles[-1] = Tile(-1, "trapezoid", trapezoid.edges)
    south_slot = slot(1) if family == "B" else slot(-1)
    tiles[2] = Tile(
        2,
        "hexagon",
        (
            ("P1", None),
            ("P2", slot(1)),
            ("P3", None),
            ("P4", south_slot),
            ("P5", None),
            ("P6", slot(3) if top >= 3 else None),
        ),
    )
    for i in range(3, top + 1):
        west = slot(i + 1) if i + 1 <= top else None
        east = slot(i - 1)
        tiles[i] = Tile(i, "square", (("N", None), ("E", east), ("S", None), ("W", west)))
    return tiles


# -- layouts ------------------------------------------------------------------


@dataclass(frozen=True)
class StripLayout:
    """Squares glued in a row, west to east (A_n intervals, C_n multisets)."""

    indices: tuple[int, ...]


@dataclass(frozen=True)
class TowerLayout:
    """Rotated squares stacked bottom to top with no base hexagon."""

    indices: tuple[int, ...]


@dataclass(frozen=True)
class LoneTrapezoidLayout:
    """A single unattached trapezoid."""

    index: int


@dataclass(frozen=True)
class HexBaseLayout:
    """One hexagon with trapezoids at unit positions and an optional tower."""

    traps: tuple[tuple[str, int], ...]  # (hexagon position, trapezoid index)
    tower: tuple[int, ...]  # tile indices bottom to top, may be empty


@dataclass(frozen=True)
class DoubleHexLayout:
    """Two hexagons joined by a bridging trapezoid, with a tower on each.

    The bridge spans the west hexagon's P3 edge and the east hexagon's P5
    edge.  ``left_tower``/``right_tower`` sit on the west/east hexagon; for
    G_2 the east hexagon carries a trapezoid at P1 instead of a tower.
    """

    west_traps: tuple[tuple[str, int], ...]
    bridge_index: int
    left_tower: tuple[int, ...]
    right_tower: tuple[int, ...]
    east_traps: tuple[tuple[str, int], ...] = ()


Layout = Union[StripLayout, TowerLayout, LoneTrapezoidLayout, HexBaseLayout, DoubleHexLayout]


@dataclass(frozen=True)
class TileGraph:
    family: str
    rank: int
    mu: RootVector
    layout: Layout

    def tile_multiset(self) -> list[int]:
        """Tile indices with multiplicity, in layout order."""
        layout = self.layout
        if isinstance(layout, StripLayout):
            return list(layout.indices)
        if isinstance(layout, TowerLayout):
            return list(layout.indices)
        if isinstance(layout, LoneTrapezoidLayout):
            return [layout.index]
        if isinstance(layout, HexBaseLayout):
            return [i for _, i in layout.traps] + [2] + list(layout.tower)
        return (
            [i for _, i in layout.west_traps]
            + [2]
            + list(layout.left_tower)
            + [layout.bridge_index]
            + [2]
            + list(layout.right_tower)
            + [i for _, i in layout.east_traps]
        )


def _mu_from_tiles(family: str, rank: int, indices: Iterable[int]) -> RootVector:
    mu = [0] * rank
    for index in indices:
        mu[_slot(family, index)] += 1
    return tuple(mu)


def _make_graph(family: str, rank: int, layout: Layout) -> TileGraph:
    tg = TileGraph(family, rank, (), layout)
    mu = _mu_from_tiles(family, rank, tg.tile_multiset())
    return TileGraph(family, rank, mu, layout)


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
    elif family == "G2":
        spots = ("P5", "P3", "P1")
        graphs.append(_make_graph(family, rank, LoneTrapezoidLayout(1)))
        for k in range(4):
            traps = tuple((spot, 1) for spot in spots[:k])
            graphs.append(_make_graph(family, rank, HexBaseLayout(traps, ())))
        graphs.append(
            _make_graph(
                family,
                rank,
                DoubleHexLayout((("P5", 1),), 1, (), (), (("P1", 1),)),
            )
        )
    else:
        top = rank if family == "B" else rank - 1
        lone = (1,) if family == "B" else (1, -1)
        for index in lone:
            graphs.append(_make_graph(family, rank, LoneTrapezoidLayout(index)))
        for a in range(3, top + 1):
            for b in range(a, top + 1):
                graphs.append(_make_graph(family, rank, TowerLayout(tuple(range(a, b + 1)))))
        if family == "B":
            trap_choices: tuple[tuple[tuple[str, int], ...], ...] = (
                (),
                (("P5", 1),),
                (("P5", 1), ("P3", 1)),
            )
        else:
            trap_choices = (
                (),
                (("P3", 1),),
                (("P5", -1),),
                (("P3", 1), ("P5", -1)),
            )
        for traps in trap_choices:
            for b in range(2, top + 1):
                tower = tuple(range(3, b + 1))
                graphs.append(_make_graph(family, rank, HexBaseLayout(traps, tower)))
        for p in range(2, top + 1):
            for b in range(p + 1, top + 1):
                graphs.append(_double_hex_graph(family, rank, p, b))
    graphs.sort(key=lambda g: g.mu)
    return tuple(graphs)


def _double_hex_graph(family: str, rank: int, p: int, b: int) -> TileGraph:
    """The two-hexagon graph whose multiplicity vector is e_p + e_b.

    Lifted to the boundary-less family, the two towers end at odd tiles
    m_1 < m_2 (m_1 <= m_2 for D); the projection into rank n reflects any
    tower crossing the excision centre.  Exactly one of t and its mirror
    image is odd, so the lift heights are recovered from (p, b) and the
    taller lift goes on the west hexagon.
    """
    top = rank if family == "B" else rank - 1
    centre = top + 1
    lifts = {t: (t if t % 2 == 1 else 2 * centre - 1 - t) for t in (p, b)}
    t_left, t_right = (p, b) if lifts[p] > lifts[b] else (b, p)
    left_tower = tuple(range(3, t_left + 1))
    right_tower = tuple(range(3, t_right + 1))
    if family == "B":
        west: tuple[tuple[str, int], ...] = (("P5", 1),)
        bridge = 1
    else:
        west = (("P5", -1),)
        bridge = 1
    return _make_graph(family, rank, DoubleHexLayout(west, bridge, left_tower, right_tower))


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


@dataclass(frozen=True)
class MatchingEdge:
    u: str
    v: str
    weight: LaurentPolynomial
    tile: str  # provenance note mapping the edge back to a tile edge

    def key(self) -> tuple[str, str]:
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)


@dataclass(frozen=True)
class MatchingGraph:
    nvars: int
    names: tuple[str, ...]
    vertices: tuple[str, ...]
    edges: tuple[MatchingEdge, ...]


class _GraphBuilder:
    def __init__(self, nvars: int, names: Sequence[str]):
        self.nvars = nvars
        self.names = tuple(names)
        self.vertices: list[str] = []
        self.edges: list[MatchingEdge] = []
        self._seen: set[tuple[str, str]] = set()

    def vertex(self, name: str) -> str:
        if name not in self.vertices:
            self.vertices.append(name)
        return name

    def edge(self, u: str, v: str, weight: LaurentPolynomial | Weight, tile: str) -> None:
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
        self.vertex(u)
        self.vertex(v)
        self.edges.append(MatchingEdge(u, v, poly, tile))

    def build(self) -> MatchingGraph:
        return MatchingGraph(self.nvars, self.names, tuple(self.vertices), tuple(self.edges))


def strip_graph(
    pairs: Sequence[tuple[LaurentPolynomial, LaurentPolynomial]],
    nvars: int,
    names: Sequence[str],
    notes: Sequence[str] | None = None,
) -> MatchingGraph:
    """A 2 x (k+1) grid: tile m contributes north/south weights pairs[m].

    Shared vertical edges have unit weight.  Also used for the signed
    extended-lattice strips, whose weights carry explicit signs.
    """
    builder = _GraphBuilder(nvars, names)
    k = len(pairs)
    notes = tuple(notes) if notes is not None else tuple(f"tile{m + 1}" for m in range(k))
    for m in range(k + 1):
        builder.edge(f"u{m}", f"v{m}", None, "vertical" if 0 < m < k else notes[min(m, k - 1)])
    for m, (north, south) in enumerate(pairs):
        builder.edge(f"u{m}", f"u{m + 1}", north, f"{notes[m]}.N")
        builder.edge(f"v{m}", f"v{m + 1}", south, f"{notes[m]}.S")
    return builder.build()


def _hex_cycle(builder: _GraphBuilder, prefix: str, tile: Tile) -> list[str]:
    verts = [f"{prefix}.{m}" for m in range(1, 7)]
    for m in range(6):
        label = f"P{m + 1}"
        builder.edge(verts[m], verts[(m + 1) % 6], tile.weight(label), f"T2.{label}")
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
    label = f"T{index_label(tile.index)}@{pos}"
    builder.edge(hex_verts[upper], a, tile.weight("N"), f"{label}.N")
    builder.edge(a, b, None, f"{label}.W")
    builder.edge(b, hex_verts[lower], None, f"{label}.S")


def _attach_tower(
    builder: _GraphBuilder,
    base: tuple[str, str],
    prefix: str,
    tiles: dict[int, Tile],
    indices: Sequence[int],
) -> tuple[str, str]:
    """Stack rotated squares on the ``base`` rung (left, right); returns the top rung.

    Rung k is named ``{prefix}t{k}l`` / ``{prefix}t{k}r``.
    """
    left, right = base
    for level, index in enumerate(indices, start=1):
        tile = tiles[index]
        if tile.shape != "square":
            raise StructureError(f"tower tile T{index_label(index)} is not a square")
        new_left = f"{prefix}t{level}l"
        new_right = f"{prefix}t{level}r"
        builder.edge(left, new_left, tile.weight("W"), f"T{index}.W")
        builder.edge(new_left, new_right, None, f"T{index}.N")
        builder.edge(new_right, right, tile.weight("E"), f"T{index}.E")
        left, right = new_left, new_right
    return left, right


def realize(tg: TileGraph) -> MatchingGraph:
    """Concrete weighted vertex/edge graph for a tile graph."""
    family, rank = tg.family, tg.rank
    tiles = tile_set(family, rank)
    nvars = rank
    names = variable_names(family, rank)
    layout = tg.layout

    if isinstance(layout, StripLayout):
        pairs = []
        notes = []
        for index in layout.indices:
            tile = tiles[index]
            north = tile.weight("N")
            south = tile.weight("S")
            one = LaurentPolynomial.one(nvars)
            pairs.append(
                (
                    one if north is None else LaurentPolynomial.variable(north, nvars),
                    one if south is None else LaurentPolynomial.variable(south, nvars),
                )
            )
            notes.append(f"T{index}")
        return strip_graph(pairs, nvars, names, notes)

    builder = _GraphBuilder(nvars, names)

    if isinstance(layout, LoneTrapezoidLayout):
        tile = tiles[layout.index]
        label = f"T{index_label(layout.index)}"
        builder.edge(f"{label}.1", f"{label}.2", tile.weight("N"), f"{label}.N")
        builder.edge(f"{label}.2", f"{label}.3", None, f"{label}.E")
        builder.edge(f"{label}.3", f"{label}.4", None, f"{label}.S")
        builder.edge(f"{label}.4", f"{label}.1", None, f"{label}.W")
        return builder.build()

    if isinstance(layout, TowerLayout):
        builder.edge("t0l", "t0r", None, "tower.base")
        _attach_tower(builder, ("t0l", "t0r"), "", tiles, layout.indices)
        return builder.build()

    if isinstance(layout, HexBaseLayout):
        hex_verts = _hex_cycle(builder, "h1", tiles[2])
        for pos, index in layout.traps:
            _attach_trapezoid(builder, hex_verts, "h1", pos, tiles[index])
        _attach_tower(builder, (hex_verts[0], hex_verts[1]), "h1.", tiles, layout.tower)
        return builder.build()

    if isinstance(layout, DoubleHexLayout):
        return _realize_double_hex(builder, tg, tiles)

    raise StructureError(f"unknown layout {layout!r}")


def _realize_double_hex(
    builder: _GraphBuilder, tg: TileGraph, tiles: dict[int, Tile]
) -> MatchingGraph:
    layout = tg.layout
    assert isinstance(layout, DoubleHexLayout)
    hex1 = _hex_cycle(builder, "h1", tiles[2])
    hex2 = _hex_cycle(builder, "h2", tiles[2])
    for pos, index in layout.west_traps:
        _attach_trapezoid(builder, hex1, "h1", pos, tiles[index])
    for pos, index in layout.east_traps:
        _attach_trapezoid(builder, hex2, "h2", pos, tiles[index])
    bridge = tiles[layout.bridge_index]
    # Bridge trapezoid: glued across the west hexagon's P3 edge and the east
    # hexagon's P5 edge.  The east hexagon is drawn turned, so the bridge
    # edges cross -- upper-west to lower-east and vice versa -- with the
    # weighted edge of the trapezoid on the h1.3--h2.5 side.  The additional
    # arc is a unit edge joining h1.6 to h2.4 around the outside.  Both were
    # calibrated against the belt oracle (B_3..B_5, D_4..D_6, G_2) and are
    # independent of the tower heights.
    builder.edge(hex1[2], hex2[4], bridge.weight("N"), "bridge.N")
    builder.edge(hex1[3], hex2[5], None, "bridge.S")
    _attach_tower(builder, (hex1[0], hex1[1]), "h1.", tiles, layout.left_tower)
    _attach_tower(builder, (hex2[0], hex2[1]), "h2.", tiles, layout.right_tower)
    builder.edge(hex1[5], hex2[3], None, "arc")
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
        out = [f"T{index_label(i)}@{pos}~hex.{pos}" for pos, i in layout.traps]
        out += tower_gluings("hex.P1", layout.tower, "tw")
        return sorted(out)
    if isinstance(layout, DoubleHexLayout):
        out = [f"T{index_label(i)}@{pos}~hex1.{pos}" for pos, i in layout.west_traps]
        out += [f"T{index_label(i)}@{pos}~hex2.{pos}" for pos, i in layout.east_traps]
        bridge = f"bridge(T{index_label(layout.bridge_index)})"
        out += [f"{bridge}.W~hex1.P3", f"{bridge}.E~hex2.P5"]
        out += tower_gluings("hex1.P1", layout.left_tower, "twl")
        out += tower_gluings("hex2.P1", layout.right_tower, "twr")
        return sorted(out)
    raise StructureError(f"unknown layout {layout!r}")


def tilegraph_to_json(tg: TileGraph) -> str:
    mg = realize(tg)
    tiles = [
        {"index": index_label(i), "shape": tile_set(tg.family, tg.rank)[i].shape}
        for i in tg.tile_multiset()
    ]
    arcs = sorted([e.key() for e in mg.edges if e.tile == "arc"])
    payload = {
        "tiles": tiles,
        "gluings": _layout_gluings(tg.layout),
        "arcs": [list(a) for a in arcs],
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
