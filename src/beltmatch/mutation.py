"""Seed mutation and the bipartite belt.

This is the oracle side of the package: exchange-matrix mutation, binomial
seed exchange, and row-by-row generation of cluster variables by mutating
all odd-labelled directions, then all even-labelled ones, repeatedly.  The
initial exchange matrices are the bipartite ones for A_n, B_n, C_n, D_n and
G_2; for D_n the rows and columns are ordered (1, 1bar, 2, 3, ..., n-1),
with 1bar stored in slot 1 of the ambient ring.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from types import MappingProxyType
from typing import Mapping

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


def variable_names(family: str, rank: int) -> tuple[str, ...]:
    """Canonical print names; D_n uses x1, x1b, x2, ..., x{n-1}."""
    check_supported(family, rank)
    if family == "D":
        return ("x1", "x1b") + tuple(f"x{k}" for k in range(2, rank))
    return tuple(f"x{i}" for i in range(1, rank + 1))


def column_labels(family: str, rank: int) -> tuple[str, ...]:
    """Column labels of the belt lattice, in slot order."""
    check_supported(family, rank)
    if family == "D":
        return ("1", "1b") + tuple(str(k) for k in range(2, rank))
    return tuple(str(i) for i in range(1, rank + 1))


def coxeter_number(family: str, rank: int) -> int:
    check_supported(family, rank)
    if family == "A":
        return rank + 1
    if family in ("B", "C"):
        return 2 * rank
    if family == "D":
        return 2 * rank - 2
    return 6


def exchange_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """The bipartite initial exchange matrix (rows of like sign)."""
    check_supported(family, rank)
    n = rank
    rows = [[0] * n for _ in range(n)]
    if family == "G2":
        return ((0, 1), (-3, 0))
    if family == "D":
        # Slots: 0 <-> node 1, 1 <-> node 1bar, k <-> node k for k >= 2.
        # Node k >= 2 has row sign (-1)^(k+1); nodes 1 and 1bar are odd.
        rows[0][2] = 1
        rows[1][2] = 1
        rows[2][0] = rows[2][1] = -1
        rows[2][3] = -1
        for k in range(3, n):
            sign = 1 if k % 2 == 1 else -1
            rows[k][k - 1] = sign
            if k + 1 < n:
                rows[k][k + 1] = sign
        return tuple(tuple(r) for r in rows)
    for i in range(1, n + 1):
        sign = 1 if i % 2 == 1 else -1
        if i > 1:
            rows[i - 1][i - 2] = sign
        if i < n:
            rows[i - 1][i] = sign
    if family == "B":
        rows[1][0] = -2
    elif family == "C":
        rows[0][1] = 2
    return tuple(tuple(r) for r in rows)


@cache
def roots(family: str, rank: int) -> tuple[RootVector, ...]:
    """The positive roots of the Cartan matrix derived from ``exchange_matrix``."""
    return positive_roots(CartanSpec.from_exchange(family, rank, exchange_matrix(family, rank)))


def parity_groups(family: str, rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Slots mutated in the odd sweep and in the even sweep.

    D_n mutates (1, 1bar, 3, 5, ...) then (2, 4, ...); the other families
    mutate odd labels then even labels.
    """
    check_supported(family, rank)
    if family == "D":
        odd = (0, 1) + tuple(k for k in range(3, rank) if k % 2 == 1)
        even = tuple(k for k in range(2, rank) if k % 2 == 0)
        return odd, even
    odd = tuple(i for i in range(rank) if i % 2 == 0)
    even = tuple(i for i in range(rank) if i % 2 == 1)
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


@dataclass(frozen=True)
class ExchangeMatrix:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.skew_symmetrizer() is None:
            raise ValueError("exchange matrix is not skew-symmetrizable")

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
        """Positive integers d with d_i b_ij = -d_j b_ji, or None."""
        n = len(self.rows)
        d: list[Fraction | None] = [None] * n
        for start in range(n):
            if d[start] is not None:
                continue
            d[start] = Fraction(1)
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(n):
                    bij, bji = self.rows[i][j], self.rows[j][i]
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


@dataclass(frozen=True)
class Seed:
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
    check_supported(family, rank)
    cluster = tuple(LaurentPolynomial.variable(i, rank) for i in range(rank))
    matrix = ExchangeMatrix(exchange_matrix(family, rank))
    if not matrix.is_bipartite():
        raise ValueError("initial exchange matrix must have rows of like sign")
    return Seed(cluster, matrix)


@dataclass(frozen=True)
class BeltCell:
    slot: int
    superscript: int
    value: LaurentPolynomial


@dataclass(frozen=True)
class BeltLattice:
    """Rows of x_i^(j) values generated along the bipartite belt."""

    family: str
    rank: int
    cells: tuple[BeltCell, ...]
    sweeps: int

    @cached_property
    def values(self) -> Mapping[tuple[int, int], LaurentPolynomial]:
        """Every cell value keyed by (slot, superscript); read-only, as belts are shared."""
        return MappingProxyType({(cell.slot, cell.superscript): cell.value for cell in self.cells})

    def value(self, slot: int, superscript: int) -> LaurentPolynomial | None:
        return self.values.get((slot, superscript))

    def rows(self) -> list[list[BeltCell]]:
        by_sup: dict[int, list[BeltCell]] = {}
        for cell in self.cells:
            by_sup.setdefault(cell.superscript, []).append(cell)
        out: list[list[BeltCell]] = []
        odd, even = parity_groups(self.family, self.rank)
        initial = by_sup.pop(0, [])
        out.append(sorted((c for c in initial if c.slot in odd), key=lambda c: c.slot))
        out.append(sorted((c for c in initial if c.slot in even), key=lambda c: c.slot))
        for sup in sorted(by_sup):
            out.append(sorted(by_sup[sup], key=lambda c: c.slot))
        return out

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
                for row in self.rows()
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _noninitial_denominator(value: LaurentPolynomial) -> RootVector | None:
    """The denominator vector of a non-initial variable; None for an initial one.

    Initial variables (and their reappearance at the end of the period) split
    with a -1 entry; non-initial ones with a nonzero nonnegative vector.
    """
    denominator = value.split().denominator
    if all(d >= 0 for d in denominator) and any(denominator):
        return denominator
    return None


@cache
def belt(family: str, rank: int, max_rows: int | None = None) -> BeltLattice:
    """Generate belt rows until the denominator vectors cover all positive roots.

    Exceeding the row cap (default 2*(h+2) sweeps, h the Coxeter number)
    without covering every positive root raises IterationLimitError.  The
    lattice is immutable and cached per (family, rank, max_rows).
    """
    check_supported(family, rank)
    wanted = set(roots(family, rank))
    cap = max_rows if max_rows is not None else 2 * (coxeter_number(family, rank) + 2)
    odd, even = parity_groups(family, rank)
    seed = initial_seed(family, rank)
    cells = [BeltCell(slot, 0, seed.cluster[slot]) for slot in range(seed.matrix.n)]
    covered: set[RootVector] = set()
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
        for k in group:
            value = seed.cluster[k]
            cells.append(BeltCell(k, sweep, value))
            denominator = _noninitial_denominator(value)
            if denominator is not None:
                covered.add(denominator)
    return BeltLattice(family, rank, tuple(cells), sweep)


@cache
def _variables(family: str, rank: int) -> dict[RootVector, LaurentPolynomial]:
    out: dict[RootVector, LaurentPolynomial] = {}
    for cell in belt(family, rank).cells:
        denominator = _noninitial_denominator(cell.value)
        if denominator is None:
            continue  # an initial variable, in row 0 or at the end of the period
        seen = out.get(denominator)
        if seen is not None and seen != cell.value:
            raise BijectionError(f"two distinct variables share denominator {denominator}")
        out[denominator] = cell.value
    if set(out) != set(roots(family, rank)):
        raise BijectionError(
            f"denominator vectors {sorted(out)} do not match the positive roots"
        )
    if len(set(out.values())) != len(out):
        raise BijectionError("cluster variables are not pairwise distinct")
    return out


def noninitial_variables(family: str, rank: int) -> dict[RootVector, LaurentPolynomial]:
    """All non-initial cluster variables keyed by denominator vector.

    Exactly one entry per positive root, with pairwise distinct values;
    anything else raises BijectionError.  Each call returns a fresh dict.
    """
    return dict(_variables(family, rank))
