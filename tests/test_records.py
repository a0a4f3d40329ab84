"""The public record types: immutable NamedTuples, equal to the plain tuple of their fields."""

from __future__ import annotations

import pytest

from beltmatch import laurent, mutation, rootsys, tilegraphs, verify
from beltmatch.laurent import LaurentPolynomial, MonomialFactorization
from beltmatch.mutation import ExchangeMatrix, belt, exchange_matrix, initial_seed
from beltmatch.rootsys import CartanSpec
from beltmatch.tilegraphs import (
    DoubleHexLayout,
    HexBaseLayout,
    LoneTrapezoidLayout,
    StripLayout,
    TowerLayout,
    graph_for_root,
    realize,
    tile_set,
)
from beltmatch.verify import CheckResult, ExtendedLatticeConfig, VerificationReport

RECORDS = {
    "MonomialFactorization": lambda: MonomialFactorization(LaurentPolynomial.one(2), (1, 0)),
    "CartanSpec": lambda: CartanSpec.from_exchange("A", 2, exchange_matrix("A", 2)),
    "ExchangeMatrix": lambda: ExchangeMatrix(exchange_matrix("G2", 2)),
    "Seed": lambda: initial_seed("B", 3),
    "BeltCell": lambda: belt("B", 3).rows[2][0],
    "BeltLattice": lambda: belt("B", 3),
    "Tile": lambda: tile_set("B", 3)[2],
    "StripLayout": lambda: StripLayout((2, 1, 2)),
    "TowerLayout": lambda: TowerLayout((3, 4)),
    "LoneTrapezoidLayout": lambda: LoneTrapezoidLayout(-1),
    "HexBaseLayout": lambda: HexBaseLayout((("P5", 1),), (3,)),
    "DoubleHexLayout": lambda: DoubleHexLayout((("P5", 1),), (), (3,)),
    "TileGraph": lambda: graph_for_root("B", 3, (2, 2, 1)),
    "MatchingEdge": lambda: realize(graph_for_root("B", 3, (2, 2, 1))).edges[0],
    "MatchingGraph": lambda: realize(graph_for_root("B", 3, (2, 2, 1))),
    "CheckResult": lambda: CheckResult("theorem[A2]", True, {"roots_checked": 3}, 0.5),
    "ExtendedLatticeConfig": lambda: ExtendedLatticeConfig(max_index=3),
    "VerificationReport": lambda: VerificationReport((CheckResult("theorem[A2]", True, {}, 0.0),)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in type(record)._fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) is before
    assert record == tuple(getattr(record, field) for field in type(record)._fields)


def test_every_public_record_type_is_listed():
    found = {
        name
        for module in (laurent, rootsys, mutation, tilegraphs, verify)
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and issubclass(obj, tuple)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }
    assert found == set(RECORDS)


def test_exchange_matrix_replace_is_checked():
    matrix = ExchangeMatrix(exchange_matrix("B", 3))
    assert matrix._replace(rows=exchange_matrix("C", 3)).skew_symmetrizer() == (1, 2, 2)
    with pytest.raises(ValueError, match="not skew-symmetrizable"):
        matrix._replace(rows=((0, 1), (1, 0)))

