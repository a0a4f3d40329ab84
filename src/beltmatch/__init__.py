"""Exact cluster variables of classical type, two ways.

Non-initial cluster variables of the coefficient-free cluster algebras of
types A_n, B_n, C_n, D_n and G_2 are computed by binomial seed mutation
along the bipartite belt and, independently, by weighted perfect-matching
enumeration over glued tile graphs; the two routes agree exactly, and the
verify module checks that agreement together with the supporting identities
(graphical condensation, excision, folding, diamond conditions).

Everything is exact integer arithmetic; there are no floats anywhere.
"""

from .errors import (
    BijectionError,
    CheckSelectionError,
    DimensionMismatchError,
    ExponentOverflowError,
    InexactDivisionError,
    IterationLimitError,
    PoleError,
    StructureError,
    UnsupportedTypeError,
)
from .laurent import LaurentPolynomial, MonomialFactorization
from .matchenum import (
    cluster_expansion,
    matching_polynomial,
    matching_polynomial_by_enumeration,
    perfect_matchings,
    strip_transfer_polynomial,
)
from .mutation import (
    BeltLattice,
    ExchangeMatrix,
    Seed,
    belt,
    exchange_matrix,
    initial_seed,
    mutate_matrix,
    noninitial_variables,
    variable_names,
)
from .rootsys import CartanSpec, positive_roots
from .tilegraphs import (
    MatchingGraph,
    Tile,
    TileGraph,
    enumerate_family,
    graph_for_root,
    realize,
    tile_set,
    to_dot,
)
from .verify import (
    VerificationReport,
    check_belt_diamonds,
    check_center_one,
    check_condensation,
    check_excision,
    check_folding,
    run_checks,
    verify_theorem,
)

__all__ = [
    "BeltLattice",
    "BijectionError",
    "CheckSelectionError",
    "CartanSpec",
    "DimensionMismatchError",
    "ExchangeMatrix",
    "ExponentOverflowError",
    "InexactDivisionError",
    "IterationLimitError",
    "LaurentPolynomial",
    "MatchingGraph",
    "MonomialFactorization",
    "PoleError",
    "Seed",
    "StructureError",
    "Tile",
    "TileGraph",
    "UnsupportedTypeError",
    "VerificationReport",
    "belt",
    "check_belt_diamonds",
    "check_center_one",
    "check_condensation",
    "check_excision",
    "check_folding",
    "cluster_expansion",
    "enumerate_family",
    "exchange_matrix",
    "graph_for_root",
    "initial_seed",
    "matching_polynomial",
    "matching_polynomial_by_enumeration",
    "mutate_matrix",
    "noninitial_variables",
    "perfect_matchings",
    "positive_roots",
    "realize",
    "run_checks",
    "strip_transfer_polynomial",
    "tile_set",
    "to_dot",
    "variable_names",
    "verify_theorem",
]

__version__ = "0.1.0"
