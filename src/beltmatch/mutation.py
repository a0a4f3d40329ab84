"""Seed mutation and the bipartite belt.

This is the oracle side of the package: exchange-matrix mutation, binomial
seed exchange, and row-by-row generation of cluster variables by mutating
all odd-labelled directions, then all even-labelled ones, in turn.

The belt itself runs no seed mutation.  A bipartite sweep only negates the
exchange matrix, so every step is the sign-free exchange
x_k' = (prod_j x_j^|b_kj| + 1) / x_k read off the initial matrix.  The belt
is periodic up to the Dynkin involution (``dynkin_involution``), and its h
sweeps (h the Coxeter number) hold each non-initial variable once.  So one
period is built per (family, rank), from both ends: ceil(h/2) sweeps
forward from the initial cluster (odd slots first) and floor(h/2) backward
from it (even slots first), where the late, shrinking variables are small.
Epsilon fixes the initial seed too, so the belt divides once per epsilon-
orbit of cells and fills the other cell by renaming x_i -> x_epsilon(i)
(``_sweeps``, ``_period``).  The backward labels and the mirrored values
rest on that symmetry; the denominator walk, ``verify --checks theorem``
and ``diamonds`` (every exchange, the seam included) certify every cell.

Every per-node convention is read off one Dynkin diagram per (family,
rank): ``nodes`` gives the node each slot of the ambient ring holds (for
D_n the order (1, 1bar, 2, 3, ..., n-1), with 1bar written -1), and
``_bonds`` gives each edge with its two multiplicities.  The labels, the
variable names, the odd/even sweeps and the bipartite initial exchange
matrix all derive from these two, as do the tile slots in ``tilegraphs``.
"""

from __future__ import annotations

import json
import math
from functools import cache
from itertools import chain, cycle, islice
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import BijectionError, IterationLimitError, UnsupportedTypeError
from .laurent import LaurentPolynomial
from .rootsys import CartanSpec, RootVector, positive_roots

FAMILIES = ("A", "B", "C", "D", "G2")

# Minimum supported rank per family (G2 has rank exactly 2).
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "G2": 2}


def check_supported(family: str, rank: int) -> None:
    if family not in FAMILIES:
        raise UnsupportedTypeError(f"unknown family {family!r}")
    if family == "G2":
        if rank != 2:
            raise UnsupportedTypeError("G2 has rank exactly 2")
    elif rank < _MIN_RANK[family]:
        raise UnsupportedTypeError(f"{family}_{rank} is below the minimum supported rank")


def nodes(family: str, rank: int) -> tuple[int, ...]:
    """The Dynkin node held by each slot: (1, -1, 2, ..., n-1) for D_n, where
    -1 is 1bar, and (1, ..., n) for the other families."""
    check_supported(family, rank)
    if family == "D":
        return (1, -1) + tuple(range(2, rank))
    return tuple(range(1, rank + 1))


def node_label(node: int) -> str:
    return "1b" if node == -1 else str(node)


def column_labels(family: str, rank: int) -> tuple[str, ...]:
    """Column labels of the belt lattice, in slot order."""
    return tuple(node_label(node) for node in nodes(family, rank))


def variable_names(family: str, rank: int) -> tuple[str, ...]:
    """Canonical print names; D_n uses x1, x1b, x2, ..., x{n-1}."""
    return tuple("x" + label for label in column_labels(family, rank))


# |b_12| and |b_21| of the multiple bond between nodes 1 and 2.
_MULTIPLE_BOND = {"B": (1, 2), "C": (2, 1), "G2": (1, 3)}


def _bonds(family: str, rank: int) -> list[tuple[int, int, int, int]]:
    """Each Dynkin edge as (i, j, |b_ij|, |b_ji|): the path 1 - 2 - ... up to
    the top node, and for D_n the fork 1bar - 2."""
    bonds = [(i, i + 1, 1, 1) for i in range(1, max(nodes(family, rank)))]
    if family in _MULTIPLE_BOND:
        bonds[0] = (1, 2, *_MULTIPLE_BOND[family])
    if family == "D":
        bonds.append((-1, 2, 1, 1))
    return bonds


def exchange_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """The bipartite initial exchange matrix: rows of odd nodes are
    nonnegative, rows of even nodes nonpositive."""
    slot = nodes(family, rank).index
    rows = [[0] * rank for _ in range(rank)]
    for i, j, bij, bji in _bonds(family, rank):
        rows[slot(i)][slot(j)] = bij if i % 2 else -bij
        rows[slot(j)][slot(i)] = bji if j % 2 else -bji
    return tuple(tuple(row) for row in rows)


@cache
def roots(family: str, rank: int) -> tuple[RootVector, ...]:
    """The positive roots of the Cartan matrix derived from ``exchange_matrix``."""
    return positive_roots(CartanSpec.from_exchange(family, rank, exchange_matrix(family, rank)))


def parity_groups(family: str, rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Slots mutated in the odd sweep and in the even sweep.

    A slot is odd when its node is; -1 % 2 == 1, so D_n's 1bar is odd.
    """
    order = nodes(family, rank)
    odd = tuple(slot for slot, node in enumerate(order) if node % 2)
    even = tuple(slot for slot, node in enumerate(order) if not node % 2)
    return odd, even


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


def mutate_matrix(rows: tuple[tuple[int, ...], ...], k: int) -> tuple[tuple[int, ...], ...]:
    """Matrix mutation in direction k (0-based slot); involutive."""
    n = len(rows)
    if not 0 <= k < n:
        raise IndexError(f"mutation direction {k} out of range")
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == k or j == k:
                row.append(-rows[i][j])
            else:
                row.append(
                    rows[i][j]
                    + max(-rows[i][k], 0) * rows[k][j]
                    + rows[i][k] * max(rows[k][j], 0)
                )
        out.append(tuple(row))
    return tuple(out)


class _ExchangeRows(NamedTuple):
    rows: tuple[tuple[int, ...], ...]


class ExchangeMatrix(_ExchangeRows):
    """An exchange matrix; constructing one that is not skew-symmetrizable raises."""

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, ...], ...]) -> ExchangeMatrix:
        matrix = super().__new__(cls, rows)
        if matrix.skew_symmetrizer() is None:
            raise ValueError("exchange matrix is not skew-symmetrizable")
        return matrix

    @classmethod
    def _make(cls, iterable) -> ExchangeMatrix:
        # ``_replace`` builds through ``_make``, so it is checked too.
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.rows)

    def mutate(self, k: int) -> ExchangeMatrix:
        return ExchangeMatrix(mutate_matrix(self.rows, k))

    def is_bipartite(self) -> bool:
        return all(
            all(v >= 0 for v in row) or all(v <= 0 for v in row) for row in self.rows
        )

    def skew_symmetrizer(self) -> tuple[int, ...] | None:
        """Positive integers d with d_i b_ij = -d_j b_ji, or None.

        Each connected component is walked from its first node with d = 1 and
        scaled up by the least factor that keeps it integral whenever a ratio
        |b_ij| / |b_ji| would leave the integers, so its entries stay coprime.
        Every component is then scaled so that all first nodes read the lcm
        of their values: the least integer vector in which each first node
        has the same value.
        """
        rows = self.rows
        n = len(rows)
        d = [0] * n  # 0 marks a node not reached yet
        components: list[tuple[list[int], int]] = []
        for start in range(n):
            if d[start]:
                continue
            d[start] = 1
            component = [start]
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(n):
                    bij, bji = rows[i][j], rows[j][i]
                    if bij == 0 and bji == 0:
                        continue
                    if bij == 0 or bji == 0 or bij * bji > 0:
                        return None
                    if d[j]:
                        if d[j] * abs(bji) != d[i] * abs(bij):
                            return None
                        continue
                    numerator = d[i] * abs(bij)
                    scale = abs(bji) // math.gcd(numerator, abs(bji))
                    if scale > 1:
                        for m in component:
                            d[m] *= scale
                        numerator *= scale
                    d[j] = numerator // abs(bji)
                    component.append(j)
                    stack.append(j)
            components.append((component, d[start]))
        lcm = math.lcm(*(first for _, first in components))
        for component, first in components:
            for m in component:
                d[m] *= lcm // first
        return tuple(d)


class Seed(NamedTuple):
    """A cluster of Laurent polynomials together with an exchange matrix."""

    cluster: tuple[LaurentPolynomial, ...]
    matrix: ExchangeMatrix

    def mutate(self, k: int) -> Seed:
        """Binomial exchange in direction k (row convention), matrix mutated alongside."""
        n = self.matrix.n
        if not 0 <= k < n:
            raise IndexError(f"mutation direction {k} out of range")
        nvars = self.cluster[0].nvars
        pos = LaurentPolynomial.one(nvars)
        neg = LaurentPolynomial.one(nvars)
        for j, b in enumerate(self.matrix.rows[k]):
            if b > 0:
                pos = pos * self.cluster[j] ** b
            elif b < 0:
                neg = neg * self.cluster[j] ** (-b)
        new_entry = (pos + neg).div_exact(self.cluster[k])
        cluster = self.cluster[:k] + (new_entry,) + self.cluster[k + 1 :]
        return Seed(cluster, self.matrix.mutate(k))


def initial_seed(family: str, rank: int) -> Seed:
    matrix = ExchangeMatrix(exchange_matrix(family, rank))
    if not matrix.is_bipartite():
        raise ValueError("initial exchange matrix must have rows of like sign")
    cluster = tuple(LaurentPolynomial.variable(i, rank) for i in range(rank))
    return Seed(cluster, matrix)


class BeltCell(NamedTuple):
    slot: int
    superscript: int
    value: LaurentPolynomial


class BeltLattice(NamedTuple):
    """Rows of x_i^(j) values generated along the bipartite belt.

    The first two rows are the odd and the even slots of the initial
    cluster; each later row is one sweep, in slot order.  ``values`` holds
    every cell value keyed by (slot, superscript), read-only, as belts are
    shared.
    """

    family: str
    rank: int
    rows: tuple[tuple[BeltCell, ...], ...]
    values: Mapping[tuple[int, int], LaurentPolynomial]

    def value(self, slot: int, superscript: int) -> LaurentPolynomial | None:
        return self.values.get((slot, superscript))

    def to_json(self) -> str:
        names = variable_names(self.family, self.rank)
        labels = column_labels(self.family, self.rank)
        payload = {
            "type": self.family,
            "rank": self.rank,
            "rows": [
                [
                    {
                        "col": labels[cell.slot],
                        "sup": cell.superscript,
                        "poly": cell.value.to_text(names),
                    }
                    for cell in row
                ]
                for row in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _noninitial_denominator(value: LaurentPolynomial) -> RootVector | None:
    """The denominator vector of a non-initial variable; None for an initial one.

    The denominator vector is the negated minimum exponent vector.  Initial
    variables have a -1 entry; non-initial ones a nonzero nonnegative vector.
    """
    denominator = tuple(-m for m in value.min_exponents())
    if all(d >= 0 for d in denominator) and any(denominator):
        return denominator
    return None


def _sweeps(family: str, rank: int, groups: tuple[tuple[int, ...], ...]):
    """Yield the new (slot, value) pairs of each sweep from the initial
    cluster, mutating ``groups`` in turn, without end.

    The slots of a group are pairwise non-adjacent and a full sweep negates
    the exchange matrix, so row k keeps its initial magnitudes and one side
    of every exchange binomial is 1.  Epsilon fixes the initial seed, so a
    slot k with epsilon(k) < k in its group (A_n and D_n, n odd) takes the
    image of slot epsilon(k) and divides nothing.
    """
    neighbours = [
        [(j, abs(b)) for j, b in enumerate(row) if b] for row in exchange_matrix(family, rank)
    ]
    epsilon = dynkin_involution(family, rank)
    one = LaurentPolynomial.one(rank)
    cluster = [LaurentPolynomial.variable(i, rank) for i in range(rank)]
    for group in cycle(groups):
        for k in group:
            if epsilon[k] < k and epsilon[k] in group:
                cluster[k] = cluster[epsilon[k]].rename(epsilon)
                continue
            monomial = one
            for j, b in neighbours[k]:
                monomial = monomial * cluster[j] ** b
            cluster[k] = (monomial + one).div_exact(cluster[k])
        yield tuple((k, cluster[k]) for k in group)


def _nonempty_sweeps(family: str, rank: int) -> int:
    """Sweeps of one period that write a row: h, less A_1's empty even sweep."""
    h = 2 * len(roots(family, rank)) // rank
    return sum(1 for group in islice(cycle(parity_groups(family, rank)), h) if group)


@cache
def _period(family: str, rank: int) -> tuple[BeltLattice, dict[RootVector, LaurentPolynomial]]:
    """The belt lattice of one period and its variables keyed by denominator vector.

    Sweeps 1..ceil(h/2) run forward from the initial cluster; sweep h+1-s is
    backward sweep s (even slots first) with each slot k moved to epsilon(k).
    Where epsilon swaps the parity groups (A_n, n even), sweep h+1-s is the
    epsilon-image of forward sweep s, slot for slot, and no backward sweep
    is built; the middle sweep, its own image, is still divided out.
    One walk computes each denominator once; variables that do not match the
    positive roots one to one raise BijectionError.
    """
    wanted = roots(family, rank)
    h = 2 * len(wanted) // rank
    odd, even = parity_groups(family, rank)
    epsilon = dynkin_involution(family, rank)
    forward = list(islice(_sweeps(family, rank, (odd, even)), (h + 1) // 2))
    if sorted(epsilon[k] for k in odd) == list(even):
        backward = [[(k, value.rename(epsilon)) for k, value in sweep] for sweep in forward[: h // 2]]
    else:
        backward = [
            sorted(((epsilon[k], value) for k, value in sweep), key=itemgetter(0))
            for sweep in islice(_sweeps(family, rank, (even, odd)), h // 2)
        ]
    glued = chain(forward, reversed(backward))
    rows = [
        tuple(BeltCell(k, 0, LaurentPolynomial.variable(k, rank)) for k in group)
        for group in (odd, even)
    ]
    variables: dict[RootVector, LaurentPolynomial] = {}
    for sweep, cells in enumerate(glued, 1):
        if not cells:
            continue  # A_1's even sweep
        rows.append(tuple(BeltCell(k, sweep, value) for k, value in cells))
        for _, value in cells:
            denominator = _noninitial_denominator(value)
            if denominator is None:
                continue  # an initial variable, which a sound period does not hold
            seen = variables.get(denominator)
            if seen is not None and seen != value:
                raise BijectionError(f"two distinct variables share denominator {denominator}")
            variables[denominator] = value
    if set(variables) != set(wanted):
        raise BijectionError(
            f"denominator vectors {sorted(variables)} do not match the positive roots"
        )
    if len(set(variables.values())) != len(variables):
        raise BijectionError("cluster variables are not pairwise distinct")
    values = {(cell.slot, cell.superscript): cell.value for row in rows for cell in row}
    return BeltLattice(family, rank, tuple(rows), MappingProxyType(values)), variables


def belt(family: str, rank: int, max_rows: int | None = None) -> BeltLattice:
    """The belt lattice: the two initial rows, then one row per sweep of a period.

    The period's h sweeps (h = 2|roots|/n, the Coxeter number) are built once
    per (family, rank) and shared (``_period``).  They cover every positive
    root, so ``max_rows`` is only a gate: a cap below the period's non-empty
    sweeps (h, or 1 at A_1) raises IterationLimitError before any is built.
    """
    if max_rows is not None and max_rows < _nonempty_sweeps(family, rank):
        raise IterationLimitError(
            f"belt for {family}_{rank} did not cover all positive roots in {max_rows} sweeps"
        )
    return _period(family, rank)[0]


def noninitial_variables(family: str, rank: int) -> dict[RootVector, LaurentPolynomial]:
    """All non-initial cluster variables keyed by denominator vector.

    Exactly one entry per positive root, with pairwise distinct values;
    anything else raises BijectionError.  Each call returns a fresh dict.
    """
    belt(family, rank)  # build the period inside ``belt``, so a span around it holds the sweeps
    return dict(_period(family, rank)[1])
