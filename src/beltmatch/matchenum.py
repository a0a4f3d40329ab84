"""Perfect-matching enumeration and the matching-expansion route.

Two independent algorithms compute the weighted matching polynomial: a
forward vertex elimination that keeps only the live frontier (the workhorse)
and a plain exhaustive enumeration of all perfect matchings (also used to
list matchings).  They must agree bit-exactly on every family graph.  Strips
additionally admit a transfer recurrence along the tiles, used as a third
cross-check.

Both number the vertices by a breadth-first walk of the graph itself, so
elimination runs along the chain of tiles: on a strip the frontier of
uncovered vertices stays at two, so the forward pass holds a few states at
a time however long the strip is.
"""

from __future__ import annotations

from collections import deque

from .errors import BijectionError
from .laurent import LaurentPolynomial
from .rootsys import RootVector
from .tilegraphs import MatchingEdge, MatchingGraph, graph_for_root, realize


def _elimination_order(graph: MatchingGraph) -> dict[str, int]:
    """Number the vertices breadth-first along the graph's own edges.

    The walk starts at the first edge's ``u`` and follows ``graph.edges`` in
    their given order; every vertex it leaves unvisited (another component,
    an isolated vertex) starts a fresh walk, in ``graph.vertices`` order.
    """
    neighbours: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for edge in graph.edges:
        neighbours[edge.u].append(edge.v)
        neighbours[edge.v].append(edge.u)
    starts = [graph.edges[0].u] if graph.edges else []
    order: dict[str, int] = {}
    for start in starts + list(graph.vertices):
        if start in order:
            continue
        order[start] = len(order)
        queue = deque([start])
        while queue:
            for w in neighbours[queue.popleft()]:
                if w not in order:
                    order[w] = len(order)
                    queue.append(w)
    return order


def _incidence(graph: MatchingGraph) -> list[list[tuple[int, MatchingEdge]]]:
    """Per vertex in elimination order: (neighbour index, edge) pairs."""
    order = _elimination_order(graph)
    incident: list[list[tuple[int, MatchingEdge]]] = [[] for _ in order]
    for edge in graph.edges:
        iu, iv = order[edge.u], order[edge.v]
        incident[iu].append((iv, edge))
        incident[iv].append((iu, edge))
    return incident


def matching_polynomial(graph: MatchingGraph) -> LaurentPolynomial:
    """Sum over perfect matchings of the product of edge weights.

    One forward pass over the vertices in breadth-first order.  ``states``
    maps each set of uncovered vertices (a bitmask) to the weight sum of the
    partial matchings that leave exactly it; before step ``v`` every vertex
    below ``v`` is covered.  At step ``v`` a state that already covers ``v``
    carries over, and any other matches ``v`` to each later uncovered
    neighbour.  Only the current step's states are kept, and the answer is
    the weight of the empty set; graphs with no perfect matching (in
    particular any odd-vertex graph) yield the zero polynomial.
    """
    incident = _incidence(graph)
    states = {(1 << len(incident)) - 1: LaurentPolynomial.one(graph.nvars)}
    for v, edges in enumerate(incident):
        bit = 1 << v
        later = [(1 << w, edge.weight) for w, edge in edges if w > v]
        step: dict[int, LaurentPolynomial] = {}
        for uncovered, weight in states.items():
            if not uncovered & bit:
                moves = [(uncovered, weight)]
            else:
                rest = uncovered ^ bit
                moves = [(rest ^ w_bit, w_weight * weight) for w_bit, w_weight in later if rest & w_bit]
            for key, term in moves:
                old = step.get(key)
                step[key] = term if old is None else old + term
        states = step
    return states.get(0, LaurentPolynomial.zero(graph.nvars))


def perfect_matchings(graph: MatchingGraph) -> tuple[tuple[MatchingEdge, ...], ...]:
    """Every perfect matching, as a tuple of edges; deterministic for a given graph."""
    incident = _incidence(graph)
    out: list[tuple[MatchingEdge, ...]] = []
    chosen: list[MatchingEdge] = []

    def extend(uncovered: int) -> None:
        if uncovered == 0:
            out.append(tuple(chosen))
            return
        v = (uncovered & -uncovered).bit_length() - 1
        rest = uncovered & ~(1 << v)
        for w, edge in incident[v]:
            if rest & (1 << w):
                chosen.append(edge)
                extend(rest & ~(1 << w))
                chosen.pop()

    extend((1 << len(incident)) - 1)
    return tuple(out)


def matching_polynomial_by_enumeration(graph: MatchingGraph) -> LaurentPolynomial:
    """Independent route: list all perfect matchings and sum their weights."""
    total = LaurentPolynomial.zero(graph.nvars)
    for matching in perfect_matchings(graph):
        weight = LaurentPolynomial.one(graph.nvars)
        for edge in matching:
            weight = weight * edge.weight
        total = total + weight
    return total


def strip_transfer_polynomial(
    pairs: list[tuple[LaurentPolynomial, LaurentPolynomial]], nvars: int
) -> LaurentPolynomial:
    """Transfer recurrence along a strip: p_k = p_{k-1} + N_k*S_k*p_{k-2}."""
    prev2 = LaurentPolynomial.one(nvars)
    prev1 = LaurentPolynomial.one(nvars)
    for north, south in pairs:
        prev2, prev1 = prev1, prev1 + north * south * prev2
    return prev1


def root_matching_polynomial(family: str, rank: int, root: RootVector) -> LaurentPolynomial:
    """P(G_root), the matching polynomial of the family graph of ``root``.

    Raises BijectionError when ``root`` has no family graph or that graph
    has no perfect matching.
    """
    polynomial = matching_polynomial(realize(graph_for_root(family, rank, root)))
    if polynomial.is_zero:
        raise BijectionError(f"graph for root {root} has no perfect matching")
    return polynomial


def cluster_expansion(family: str, rank: int, root: RootVector) -> LaurentPolynomial:
    """P(G_root) divided exactly by the monomial x^root (the matching route)."""
    shift = LaurentPolynomial.monomial(1, tuple(-e for e in root))
    return root_matching_polynomial(family, rank, root) * shift
