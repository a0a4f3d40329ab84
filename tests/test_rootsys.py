"""Positive-root enumeration against hand-checked sets and closed-form counts."""

from __future__ import annotations

import pytest

from beltmatch import mutation
from beltmatch.errors import IterationLimitError
from beltmatch.rootsys import expected_root_count, positive_roots


def test_a2_roots():
    assert set(mutation.roots("A", 2)) == {(1, 0), (0, 1), (1, 1)}


def test_b2_roots_match_belt_denominators():
    # x_2^(2) of the B_2 belt has denominator x_1^2 x_2, hence (2, 1) here.
    assert set(mutation.roots("B", 2)) == {(1, 0), (0, 1), (1, 1), (2, 1)}


def test_c2_roots():
    assert set(mutation.roots("C", 2)) == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_g2_has_six_roots():
    roots = mutation.roots("G2", 2)
    assert len(roots) == 6
    assert set(roots) == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


def test_d4_roots_in_paper_index_order():
    roots = set(mutation.roots("D", 4))
    assert len(roots) == 12
    # Simple roots, the two-hexagon highest root, and the full-support roots.
    assert {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)} <= roots
    assert (1, 1, 2, 1) in roots
    assert (1, 1, 1, 1) in roots
    assert (2, 0, 1, 0) not in roots


RUNGS = (
    [("A", n) for n in range(1, 31)]
    + [("B", n) for n in range(2, 21)]
    + [("C", n) for n in range(2, 21)]
    + [("D", n) for n in range(4, 21)]
    + [("G2", 2)]
)


def full_reflection_closure(cartan):
    """Reference closure: every simple reflection on every new root, keeping
    the nonnegative nonzero images, until no new root appears."""
    n = len(cartan)
    simple = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    roots = set(simple)
    frontier = set(simple)
    while frontier:
        fresh = set()
        for alpha in frontier:
            for j in range(n):
                pairing = sum(alpha[i] * cartan[i][j] for i in range(n))
                beta = list(alpha)
                beta[j] -= pairing
                beta = tuple(beta)
                if beta not in roots and all(c >= 0 for c in beta) and any(beta):
                    fresh.add(beta)
        roots |= fresh
        frontier = fresh
    return tuple(sorted(roots))


@pytest.mark.parametrize("family,rank", RUNGS)
def test_cardinality_matches_closed_form(family, rank):
    assert len(mutation.roots(family, rank)) == expected_root_count(family, rank)


@pytest.mark.parametrize("family,rank", RUNGS)
def test_upward_closure_matches_full_reflection_closure(family, rank):
    b = mutation.exchange_matrix(family, rank)
    cartan = [[2 if i == j else -abs(b[i][j]) for j in range(rank)] for i in range(rank)]
    assert mutation.roots(family, rank) == full_reflection_closure(cartan)


def test_roots_are_sorted_and_nonnegative():
    roots = mutation.roots("B", 4)
    assert list(roots) == sorted(roots)
    assert all(all(c >= 0 for c in r) and any(r) for r in roots)


def test_infinite_type_hits_the_iteration_cap():
    # The affine 2x2 Cartan matrix has infinitely many positive roots.
    with pytest.raises(IterationLimitError):
        positive_roots(((2, -2), (-2, 2)))


def test_asymmetric_zero_pattern_is_rejected():
    # a_12 = -1 but a_21 = 0: no Cartan matrix of a root system.
    with pytest.raises(ValueError, match=r"zero pattern is not symmetric at \(0, 1\)"):
        positive_roots(((2, -1), (0, 2)))
