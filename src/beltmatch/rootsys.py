"""Positive roots of A_n, B_n, C_n, D_n and G_2 in simple-root coordinates.

The Cartan matrix is derived from the same exchange matrix that seeds the
mutation belt (a_ii = 2, a_ij = -|b_ij|), so the labelling conventions --
which node carries the double bond, the (1, 1bar, 2, ..., n-1) order for
D_n -- automatically agree with the rest of the package.  Roots are computed
by reflection closure starting from the simple roots.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import IterationLimitError

RootVector = tuple[int, ...]


def _closure_round_cap(rank: int) -> int:
    # The closure stabilises within the height of the highest root, which is
    # below 2*rank for every supported family; the slack keeps this a pure
    # safety net against a wrong Cartan matrix.
    return 4 * rank + 16


class CartanSpec(NamedTuple):
    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]

    @classmethod
    def from_exchange(
        cls, family: str, rank: int, exchange_rows: tuple[tuple[int, ...], ...]
    ) -> CartanSpec:
        n = len(exchange_rows)
        cartan = tuple(
            tuple(2 if i == j else -abs(exchange_rows[i][j]) for j in range(n))
            for i in range(n)
        )
        for i in range(n):
            for j in range(n):
                if i != j and (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise ValueError(f"Cartan zero pattern is not symmetric at ({i}, {j})")
        return cls(family, rank, cartan)


def reflect(spec: CartanSpec, alpha: RootVector, j: int) -> RootVector:
    """Simple reflection s_j acting in simple-root coordinates."""
    a = spec.cartan
    pairing = sum(alpha[i] * a[i][j] for i in range(len(alpha)))
    out = list(alpha)
    out[j] -= pairing
    return tuple(out)


def positive_roots(spec: CartanSpec) -> tuple[RootVector, ...]:
    """All positive roots, sorted lexicographically.

    Reflection closure: start from the simple roots and apply simple
    reflections, keeping the vectors with nonnegative coordinates, until no
    new roots appear.
    """
    n = len(spec.cartan)
    simple = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    roots: set[RootVector] = set(simple)
    frontier = set(simple)
    rounds = 0
    cap = _closure_round_cap(n)
    while frontier:
        rounds += 1
        if rounds > cap:
            raise IterationLimitError("reflection closure failed to stabilise")
        fresh: set[RootVector] = set()
        for alpha in frontier:
            for j in range(n):
                beta = reflect(spec, alpha, j)
                if beta not in roots and all(c >= 0 for c in beta) and any(beta):
                    fresh.add(beta)
        roots |= fresh
        frontier = fresh
    return tuple(sorted(roots))


def expected_root_count(family: str, rank: int) -> int:
    """Closed-form |Phi_+| used as an independent cross-check in tests."""
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    if family == "G2":
        return 6
    raise ValueError(f"unknown family {family!r}")
