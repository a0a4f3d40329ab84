"""Positive roots of A_n, B_n, C_n, D_n and G_2 in simple-root coordinates.

``positive_roots`` takes Cartan rows; ``mutation.roots`` reads them off the
initial exchange matrix (a_ii = 2, a_ij = -|b_ij|), so the labelling
conventions -- which node carries the double bond, the (1, 1bar, 2, ...,
n-1) order for D_n -- agree with the rest of the package.  Roots are computed
by upward reflection closure from the simple roots: each round applies to the
newest roots only the simple reflections that raise them.
"""

from __future__ import annotations

from typing import Sequence

from .errors import IterationLimitError

RootVector = tuple[int, ...]


def _closure_round_cap(rank: int) -> int:
    # Each round raises the height, so the closure stabilises within the height
    # of the highest root, at most 2*rank + 1 for every supported family; the
    # slack keeps this a pure safety net against a wrong Cartan matrix.
    return 4 * rank + 16


def positive_roots(cartan: Sequence[Sequence[int]]) -> tuple[RootVector, ...]:
    """All positive roots of the Cartan rows ``cartan``, sorted lexicographically.

    Raises ValueError unless a_ij and a_ji are zero together.

    Every non-simple positive root is s_j of a lower one, alpha, whose pairing
    p_j = sum_i alpha_i * a_ij is negative (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 10.2).  So each round applies to the
    newest roots only those s_j; s_j alpha = alpha - p_j * e_j is then
    nonnegative and nonzero by construction.  Each pairing sums over the
    support of alpha and the nonzero entries of the Cartan rows.
    """
    n = len(cartan)
    for i, row in enumerate(cartan):
        for j, a in enumerate(row):
            if i != j and (a == 0) != (cartan[j][i] == 0):
                raise ValueError(f"Cartan zero pattern is not symmetric at ({i}, {j})")
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in cartan]
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
            pairing = [0] * n
            for i, c in enumerate(alpha):
                if c:
                    for j, a in rows[i]:
                        pairing[j] += c * a
            for j, p in enumerate(pairing):
                if p < 0:
                    fresh.add(alpha[:j] + (alpha[j] - p,) + alpha[j + 1 :])
        fresh -= roots
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
