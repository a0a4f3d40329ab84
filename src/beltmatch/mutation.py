"""Seed mutation and the bipartite belt.

The belt runs no seed mutation.  A bipartite sweep only negates the
exchange matrix, so every step is the sign-free exchange x_k' = (prod_j
x_j^|b_kj| + 1) / x_k read off the initial matrix, and the h sweeps of one
period (h the Coxeter number) hold each non-initial variable once.  So one
period is built per (family, rank), as a frieze that certifies itself
(``_frieze``): along each diagonal a cell is one product and one
subtraction.  It has two shapes: A_n's path x_1..x_n, and D_n's path x_{n-1},
..., x_2, x_1 x_1b that ends in its fork, where past the first row only the
fork cells x_1 and x_1b divide, each by its own previous cell.  B_n, C_n
and G_2 run the frieze of D_{n+1}, A_{2n-1} and D_4 in their own rings,
each slot folded by one table (``_unfolded``); cells that fold onto one
slot must agree.  The period walk (``_period``), ``verify --checks
theorem`` and ``diamonds`` check every cell again.  ``Seed.mutate`` keeps
the binomial exchange with matrix mutation as a reference the belt does not
call.

Every per-node convention is read off one Dynkin diagram per (family,
rank): ``nodes`` gives the node each slot of the ambient ring holds (for
D_n the order (1, 1bar, 2, 3, ..., n-1), with 1bar written -1), and
``_bonds`` gives each edge with its two multiplicities.  The labels, the
variable names, the odd/even sweeps and the bipartite initial exchange
matrix all derive from these two, as do the tile weights in ``tilegraphs``.
"""

from __future__ import annotations

import json
import math
from functools import cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .errors import BijectionError, InexactDivisionError, UnsupportedTypeError
from .laurent import LaurentPolynomial
from .rootsys import RootVector, positive_roots

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
    """The positive roots of the Cartan matrix a_ii = 2, a_ij = -|b_ij| of ``exchange_matrix``."""
    b = exchange_matrix(family, rank)
    return positive_roots([[2 if i == j else -abs(b[i][j]) for j in range(rank)] for i in range(rank)])


def parity_groups(family: str, rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Slots mutated in the odd sweep and in the even sweep.

    A slot is odd when its node is; -1 % 2 == 1, so D_n's 1bar is odd.
    """
    order = nodes(family, rank)
    odd = tuple(slot for slot, node in enumerate(order) if node % 2)
    even = tuple(slot for slot, node in enumerate(order) if not node % 2)
    return odd, even


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


class Seed(NamedTuple):
    """A cluster of Laurent polynomials together with the integer rows of its
    exchange matrix."""

    cluster: tuple[LaurentPolynomial, ...]
    matrix: tuple[tuple[int, ...], ...]

    def mutate(self, k: int) -> Seed:
        """Binomial exchange in direction k (row convention), matrix mutated alongside."""
        if not 0 <= k < len(self.matrix):
            raise IndexError(f"mutation direction {k} out of range")
        nvars = self.cluster[0].nvars
        pos = LaurentPolynomial.one(nvars)
        neg = LaurentPolynomial.one(nvars)
        for j, b in enumerate(self.matrix[k]):
            if b > 0:
                pos = pos * self.cluster[j] ** b
            elif b < 0:
                neg = neg * self.cluster[j] ** (-b)
        new_entry = (pos + neg).div_exact(self.cluster[k])
        cluster = self.cluster[:k] + (new_entry,) + self.cluster[k + 1 :]
        return Seed(cluster, mutate_matrix(self.matrix, k))


def initial_seed(family: str, rank: int) -> Seed:
    cluster = tuple(LaurentPolynomial.variable(i, rank) for i in range(rank))
    return Seed(cluster, exchange_matrix(family, rank))


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


def _unfolded(family: str, rank: int) -> tuple[str, int, tuple[int, ...]]:
    """The simply-laced belt that folds onto the belt of (family, rank): its
    family, its rank, and the slot each of its slots folds to.  C_n unfolds
    to A_{2n-1} (x_r, x_{2n-r} to x_{|n-r|+1}), B_n to D_{n+1} (x_1b to x_1)
    and G_2 to D_4 (x_1b, x_3 to x_1); A_n and D_n are their own."""
    if family == "C":
        return "A", 2 * rank - 1, tuple(abs(rank - 1 - k) for k in range(2 * rank - 1))
    if family == "B":
        return "D", rank + 1, tuple(max(k - 1, 0) for k in range(rank + 1))
    if family == "G2":
        return "D", 4, (0, 0, 1, 0)
    return family, rank, tuple(range(rank))


def _first_row(path: list[LaurentPolynomial], fork: bool, s: int) -> list[LaurentPolynomial]:
    """The first row of the frieze whose rows 1..m start at ``path`` = y_1..y_m,
    where row m is its top row.

    Q(i) = (y_{i-1} y_{i+1} + y_i y_{i+2} + 1) / (y_i y_{i+1}) reads y_0 = 1
    and y_{-1} = 0, has at most 3 terms (4 at a fork's Q(m-1)), and divides
    by the monomial y_i y_{i+1}.  A path (A_{m-1}, y_m = 1) reads y_{m+1} =
    0; its row is y_1, Q(even i in 0..m-1) ascending, y_{m-1}, Q(odd i in
    m-1..1) descending.  A fork (D_{m+1}, y_m the fork product) reads y_{m+1}
    = y_{m-1} + 2, the row past the fork, so Q(m-1) = (y_{m-2} y_m + (y_{m-1}
    + 1)^2) / (y_{m-1} y_m); its row is y_1, Q(even i in 0..m-1) ascending,
    Q(odd i in m-1..1) descending.  Either row runs backward after y_1 when
    row 1 is an even node (s = 1).
    """
    nvars = path[0].nvars
    one, zero = LaurentPolynomial.one(nvars), LaurentPolynomial.zero(nvars)
    y = [zero, one, *path, path[-2] + one + one if fork else zero]

    def q(i: int) -> LaurentPolynomial:  # y[i + 1] is y_i
        return (y[i] * y[i + 2] + y[i + 1] * y[i + 3] + one).div_exact(y[i + 1] * y[i + 2])

    m = len(path) - 1  # the last i
    evens, odds = map(q, range(0, m + 1, 2)), map(q, range(m - 1 + m % 2, 0, -2))
    rest = [*evens, *([] if fork else path[-2:-1]), *odds]
    return [path[0], *(reversed(rest) if s else rest)]


def _fork_step(x2: LaurentPolynomial, x1: LaurentPolynomial) -> LaurentPolynomial:
    """The exchange of a fork node: x_1(t) = (x_2(t-1) + 1) / x_1(t-2)."""
    return (x2 + LaurentPolynomial.one(x2.nvars)).div_exact(x1)


def _frieze(
    name: str,
    path: list[LaurentPolynomial],
    slots: Sequence[int],
    s: int,
    fork: tuple[int, ...],
) -> list[tuple[tuple[int, LaurentPolynomial], ...]]:
    """The h sweeps of a belt as a frieze that certifies itself: (slot, value)
    pairs in slot order.  Row r starts at ``path[r-1]``; each row below the
    top row T = len(path) is written to ``slots[r-1]``, and row T is the
    product of the fork cells, one per entry of ``fork``.  s is 1 when row 1
    is an even node, else 0.

    Diagonal i starts m_{i,i} = 0, m_{i,i+1} = 1 and steps m_{i,j} =
    a_{j-1} m_{i,j-1} - m_{i,j-2} over the first row a (``_first_row``, read
    cyclically); m_{i,j} is row r = j-i-1 at sweep t = 2i+r+s.  As a
    continuant, m_{i,j} m_{i+1,j+1} - m_{i,j+1} m_{i+1,j} = 1 in any
    commutative ring: the exchange of each row r below T, read with row 0 =
    1 (by construction) and row T.  There are two shapes:

    * A path (A_{T-1}, no ``fork``): row T is the empty product, a row of
      1s; h = T.
    * A fork (D_{T+1}): row T is x_1 x_1b; h = 2T.  The fork cells start at
      their variables and step by ``_fork_step``, the fork nodes' own
      exchange, as an exact division.

    Every row-T cell reached is checked, and so is every cell of rows 1..T-1
    at t = -1 (odd node) and t = 0 (even node) against ``path``.  Then each
    exchange fixes the next cell of its row, so every cell is the belt's
    whatever a holds.  A slot written twice in one sweep must get the same
    value both times.  Anything else raises BijectionError.

    Run in a folded ring (``_family_frieze``), two cells that fold onto one
    slot are checked against each other: B_n's two fork cells, G_2's row 1
    and fork cell, and C_n's rows r and 2n-r.  So B_n's row T-1 steps by x_2
    x_2' = x_1^2 x_3 + 1, G_2's row 2 by x_2 x_2' = x_1^3 + 1 and C_n's row
    n by x_1 x_1' = x_2^2 + 1, each family's own exchange.
    """
    a = _first_row(path, bool(fork), s)
    nvars = path[0].nvars
    one = LaurentPolynomial.one(nvars)
    top = len(path)
    h = 2 * top if fork else top
    cells = {k: LaurentPolynomial.variable(k, nvars) for k in fork}
    sweeps: list[dict[int, LaurentPolynomial]] = [{} for _ in range(h)]

    def check(sound: bool, r: int, t: int) -> None:
        if not sound:
            raise BijectionError(f"the {name} frieze breaks at row {r}, sweep {t}")

    def write(r: int, t: int, slot: int, value: LaurentPolynomial) -> None:
        check(sweeps[t - 1].setdefault(slot, value) == value, r, t)

    for i in range(-((top + s + 1) // 2), (h - 1 - s) // 2 + 1):
        previous, cell = LaurentPolynomial.zero(nvars), one
        for r in range(1, min(top, h - 2 * i - s) + 1):  # to row T or sweep h
            t = 2 * i + r + s
            previous, cell = cell, a[(i + r) % len(a)] * cell - previous
            if r < top and t in (-1, 0):
                check(cell == path[r - 1], r, t)
            elif r < top and t > 0:
                write(r, t, slots[r - 1], cell)
            elif r == top:
                if t > 0:
                    try:
                        cells = {k: _fork_step(previous, value) for k, value in cells.items()}
                    except InexactDivisionError:
                        check(False, r, t)
                    for k, value in cells.items():
                        write(r, t, k, value)
                check(cell == math.prod((cells[k] for k in fork), start=one), r, t)
    return [tuple(sorted(sweep.items())) for sweep in sweeps]


def _family_frieze(family: str, rank: int) -> list[tuple[tuple[int, LaurentPolynomial], ...]]:
    """The h sweeps of one period of the belt: the frieze of the family's
    simply-laced source (``_unfolded``), run in the family's own ring
    (``_frieze``).

    The source is the path x_1..x_m of A_m or the fork x_{m-1}, ..., x_2,
    x_1 x_1b of D_m (Baur and Marsh, "Frieze patterns for punctured discs",
    J. Algebraic Combin. 30, 2009).  Each of its slots starts at the
    variable of the slot it folds to and is written there.
    """
    source, m, fold = _unfolded(family, rank)
    arm, fork = (range(m), ()) if source == "A" else (range(m - 1, 1, -1), (0, 1))
    x = [LaurentPolynomial.variable(k, rank) for k in fold]
    path = [*(x[k] for k in arm), math.prod((x[k] for k in fork), start=LaurentPolynomial.one(rank))]
    slots = [fold[k] for k in arm]
    even = 1 - nodes(family, rank)[slots[0]] % 2  # row 1 is an even node
    return _frieze(f"{family}_{rank}", path, slots, even, tuple(fold[k] for k in fork))


@cache
def _period(family: str, rank: int) -> tuple[BeltLattice, dict[RootVector, LaurentPolynomial]]:
    """The belt lattice of one period and its variables keyed by denominator vector.

    The sweeps come from ``_family_frieze``.  One walk keys each cell by its
    denominator vector, the negated minimum exponents.  Two values on one
    key, or keys that are not the positive roots (an initial variable's has
    a -1 entry), raise BijectionError.
    """
    wanted = roots(family, rank)
    odd, even = parity_groups(family, rank)
    rows = [
        tuple(BeltCell(k, 0, LaurentPolynomial.variable(k, rank)) for k in group)
        for group in (odd, even)
    ]
    variables: dict[RootVector, LaurentPolynomial] = {}
    for sweep, cells in enumerate(_family_frieze(family, rank), 1):
        if not cells:
            continue  # A_1's even sweep
        rows.append(tuple(BeltCell(k, sweep, value) for k, value in cells))
        for _, value in cells:
            denominator = tuple(-m for m in value.min_exponents())
            if variables.setdefault(denominator, value) != value:
                raise BijectionError(f"two distinct variables share denominator {denominator}")
    if set(variables) != set(wanted):
        raise BijectionError(
            f"denominator vectors {sorted(variables)} do not match the positive roots"
        )
    values = {(cell.slot, cell.superscript): cell.value for row in rows for cell in row}
    return BeltLattice(family, rank, tuple(rows), MappingProxyType(values)), variables


def belt(family: str, rank: int) -> BeltLattice:
    """The belt lattice: the two initial rows, then the h sweeps of one period,
    built once per (family, rank) and shared (``_period``)."""
    return _period(family, rank)[0]


def noninitial_variables(family: str, rank: int) -> dict[RootVector, LaurentPolynomial]:
    """All non-initial cluster variables keyed by denominator vector.

    Exactly one entry per positive root, with pairwise distinct values;
    anything else raises BijectionError.  Each call returns a fresh dict.
    """
    belt(family, rank)  # build the period inside ``belt``, so a span around it holds the sweeps
    return dict(_period(family, rank)[1])
