"""Identity checks tying the two routes together.

Each check evaluates an exact polynomial identity and returns a CheckResult;
a VerificationReport aggregates them.  Checks never raise on a failed
identity -- they report a minimal counterexample instead (the root or
parameters involved, both polynomials, and their difference), so a
convention bug is diagnosable in one run.

The extended-lattice checks work over signed variables y_i with y_1 = 1,
y_{-1} = -1, the sign rule y_{-i} = -y_i, and a symbolic y_0.  Limits
y_0 -> 0 are taken by exact division first and substitution second, never
numerically, since setting y_0 = 0 too early produces 0/0.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .errors import PoleError
from .laurent import LaurentPolynomial
from .matchenum import cluster_expansion, matching_polynomial
from .mutation import belt, check_supported, exchange_matrix, noninitial_variables, variable_names
from .tilegraphs import enumerate_family, strip_graph


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict
    seconds: float

    def payload(self) -> dict:
        # Timings stay off the wire so repeated runs are byte-identical.
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, result: CheckResult) -> None:
        self.checks.append(result)

    def merged(self) -> list[CheckResult]:
        return sorted(self.checks, key=lambda c: c.name)

    def to_json(self) -> str:
        return json.dumps(
            {"passed": self.passed, "checks": [c.payload() for c in self.merged()]},
            indent=2,
            sort_keys=True,
        )


def _timed(name: str, run: Callable[[], tuple[bool, dict]]) -> CheckResult:
    start = time.perf_counter()
    passed, details = run()
    return CheckResult(name, passed, details, time.perf_counter() - start)


# -- the main equivalence check ---------------------------------------------------


def verify_theorem(family: str, rank: int) -> CheckResult:
    """Belt oracle vs matching expansion for every positive root.

    Also checks the family cardinality, the injectivity of the multiplicity
    vector, and the positivity of every numerator coefficient.
    """

    def run() -> tuple[bool, dict]:
        check_supported(family, rank)
        names = variable_names(family, rank)
        oracle = noninitial_variables(family, rank)
        graphs = enumerate_family(family, rank)
        details: dict = {"roots_checked": len(oracle)}
        mus = [g.mu for g in graphs]
        if len(set(mus)) != len(mus):
            details["counterexample"] = {"why": "multiplicity vectors are not distinct"}
            return False, details
        if sorted(mus) != sorted(oracle):
            details["counterexample"] = {
                "why": "family multiplicity vectors differ from the positive roots",
                "family_only": [list(m) for m in sorted(set(mus) - set(oracle))],
                "roots_only": [list(r) for r in sorted(set(oracle) - set(mus))],
            }
            return False, details
        for root, expected in sorted(oracle.items()):
            numerator = expected.split().numerator
            if any(c <= 0 for c in numerator.coefficients()):
                details["counterexample"] = {
                    "root": list(root),
                    "why": "nonpositive numerator coefficient",
                    "belt": expected.to_text(names),
                }
                return False, details
            got = cluster_expansion(family, rank, root)
            if got != expected:
                details["counterexample"] = {
                    "root": list(root),
                    "belt": expected.to_text(names),
                    "matching": got.to_text(names),
                    "difference": (expected - got).to_text(names),
                }
                return False, details
        return True, details

    return _timed(f"theorem[{family}{rank}]", run)


# -- extended-lattice configuration ------------------------------------------------


@dataclass(frozen=True)
class ExtendedLatticeConfig:
    """Signed boundary-less lattice: y_1 = 1, y_{-1} = -1, y_{-i} = -y_i, y_0 symbolic.

    Ambient slots are 0..max_index with slot i holding y_i (slot 1 is unused
    because y_1 is the constant 1).
    """

    max_index: int

    @property
    def nvars(self) -> int:
        return self.max_index + 1

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"y{i}" for i in range(self.max_index + 1))

    def weight(self, m: int) -> LaurentPolynomial:
        n = self.nvars
        if m == 1:
            return LaurentPolynomial.one(n)
        if m == -1:
            return LaurentPolynomial.constant(-1, n)
        slot = abs(m)
        if slot > self.max_index:
            raise ValueError(f"index {m} outside the configured window")
        value = LaurentPolynomial.variable(slot, n)
        return value if m >= 0 else -value

    def tile_strip(self, lo: int, hi: int):
        """The grid graph of tiles lo..hi (north y_{i+1}, south y_{i-1})."""
        return _tile_strip(self, lo, hi)

    def laurent_of_strip(self, lo: int, hi: int) -> LaurentPolynomial:
        """P(strip)/tile monomial with the limit y_0 -> 0 taken exactly."""
        return _strip_limit(self, lo, hi, vanishing_slot=0)


def _tile_strip(config, lo: int, hi: int):
    """Tiles lo..hi of a config with ``weight``/``nvars``/``names``: tile i has
    north weight(i+1) and south weight(i-1)."""
    pairs = [(config.weight(i + 1), config.weight(i - 1)) for i in range(lo, hi + 1)]
    notes = [f"T~{i}" for i in range(lo, hi + 1)]
    return strip_graph(pairs, config.nvars, config.names, notes)


def _strip_limit(config, lo: int, hi: int, vanishing_slot: int) -> LaurentPolynomial:
    """P(tiles lo..hi) divided exactly by the tile monomial, then the
    vanishing slot sent to 0; the empty strip is 1."""
    one = LaurentPolynomial.one(config.nvars)
    if lo > hi:
        return one
    monomial = one
    for i in range(lo, hi + 1):
        monomial = monomial * config.weight(i)
    quotient = matching_polynomial(_tile_strip(config, lo, hi)).div_exact(monomial)
    return quotient.substitute({vanishing_slot: LaurentPolynomial.zero(config.nvars)})


# -- condensation -------------------------------------------------------------------


def check_condensation(center: int, halfwidth: int) -> CheckResult:
    """Graphical condensation on interval graphs, fully symbolically.

    P(G_0) P(G_2) = P(G_1 west) P(G_1 east) + excess.  The excess is the
    weight of the one indecomposable pair of matchings: horizontal edges on
    every second tile of G_0 and of G_2.  For halfwidth >= 3 that expands to
    the product taking the four extreme variables once and every interior
    variable squared; at halfwidth 2 the G_2 factor is an empty product,
    which is exactly where the expanded form would overcount.
    """

    def run() -> tuple[bool, dict]:
        i, j = center, halfwidth
        lo, hi = i - j + 1, i + j - 1
        shift = 1 - (lo - 1)  # keep every index positive: slot = index + shift - 1
        nvars = (hi + 1) + shift
        names = tuple(f"y{m - shift}" for m in range(1, nvars + 1))

        def y(m: int) -> LaurentPolynomial:
            return LaurentPolynomial.variable(m + shift - 1, nvars)

        def strip(a: int, b: int) -> LaurentPolynomial:
            if a > b:
                return LaurentPolynomial.one(nvars)
            pairs = [(y(t + 1), y(t - 1)) for t in range(a, b + 1)]
            return matching_polynomial(strip_graph(pairs, nvars, names))

        excess = LaurentPolynomial.one(nvars)
        for t in range(lo + 1, hi, 2):  # horizontal tiles of the G_0 matching
            excess = excess * y(t - 1) * y(t + 1)
        for t in range(lo + 2, hi - 1, 2):  # horizontal tiles of the G_2 matching
            excess = excess * y(t - 1) * y(t + 1)
        lhs = strip(lo, hi) * strip(lo + 2, hi - 2)
        rhs = strip(lo, hi - 2) * strip(lo + 2, hi) + excess
        details: dict = {"center": i, "halfwidth": j}
        if j == 2:
            ones = {slot: LaurentPolynomial.one(1) for slot in range(nvars)}
            lhs_units = lhs.substitute(ones, nvars=1).coefficient((0,))
            rhs_units = rhs.substitute(ones, nvars=1).coefficient((0,))
            details["unit_instance"] = f"{lhs_units} = {rhs_units}"
        if lhs != rhs:
            details["counterexample"] = {
                "lhs": lhs.to_text(names),
                "rhs": rhs.to_text(names),
                "difference": (lhs - rhs).to_text(names),
            }
            return False, details
        return True, details

    return _timed(f"condensation[i={center},j={halfwidth}]", run)


# -- centre identities -------------------------------------------------------------


def check_center_one(j: int, parity: str) -> CheckResult:
    """Even case: tiles -j..j+1 biject to y_{j+2}.  Odd case: tiles -j..j+2 biject to 1."""

    def run() -> tuple[bool, dict]:
        if parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
        hi = j + 2 if parity == "odd" else j + 1
        config = ExtendedLatticeConfig(max_index=j + 3)
        got = config.laurent_of_strip(-j, hi)
        expected = (
            LaurentPolynomial.one(config.nvars)
            if parity == "odd"
            else LaurentPolynomial.variable(j + 2, config.nvars)
        )
        details: dict = {"j": j, "parity": parity, "tiles": hi + j + 1}
        if j == 0 and parity == "even":
            raw = matching_polynomial(config.tile_strip(0, 1))
            details["base_case"] = raw.to_text(config.names)
        if got != expected:
            details["counterexample"] = {
                "got": got.to_text(config.names),
                "expected": expected.to_text(config.names),
            }
            return False, details
        return True, details

    return _timed(f"centerone[j={j},{parity}]", run)


# -- excision -----------------------------------------------------------------------


@dataclass(frozen=True)
class BExtendedConfig:
    """B-boundary substitution for towers: x_{n+1} = 1, x_{n+2} symbolic and
    sent to 0, and the mirror rule x_{n+2+k} = -x_{n+2-k} beyond.

    Ambient slots 0..n-1 hold x_1..x_n; slot n holds the vanishing variable.
    """

    n: int

    @property
    def nvars(self) -> int:
        return self.n + 1

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(1, self.n + 1)) + ("x0",)

    def weight(self, m: int) -> LaurentPolynomial:
        if m <= 0:
            raise ValueError(f"tower variable index {m} out of range")
        if m <= self.n:
            return LaurentPolynomial.variable(m - 1, self.nvars)
        if m == self.n + 1:
            return LaurentPolynomial.one(self.nvars)
        if m == self.n + 2:
            return LaurentPolynomial.variable(self.n, self.nvars)
        return -self.weight(2 * (self.n + 2) - m)

    def tower_laurent(self, a: int, b: int) -> LaurentPolynomial:
        """Laurent polynomial of tower T_a..T_b with the boundary limit applied."""
        return _strip_limit(self, a, b, vanishing_slot=self.n)


def check_excision(scenario: tuple) -> CheckResult:
    """Excision invariance.

    ``("A", j, k)``: the strip of tiles 2-j..j+k (which contains tile 1 in
    the middle of an odd block) bijects to the same Laurent polynomial as
    tiles j+1..j+k.

    ``("B", n, a, b)``: the rank-n boundary reflection of towers.  The
    check uses the reflection b -> 2n+1-b, which is what the machinery
    (centred excision at T_{n+1}) actually produces; whether the written
    reflection b -> 2n+2-b also holds is recorded in the details, so the
    discrepancy between the two readings is decided empirically.
    """

    def run() -> tuple[bool, dict]:
        kind = scenario[0]
        if kind == "A":
            _, j, k = scenario
            config = ExtendedLatticeConfig(max_index=j + k + 1)
            whole = config.laurent_of_strip(2 - j, j + k)
            excised = config.laurent_of_strip(j + 1, j + k)
            details: dict = {"scenario": ["A", j, k], "tiles": 2 * j + k - 1}
            if whole != excised:
                details["counterexample"] = {
                    "whole": whole.to_text(config.names),
                    "excised": excised.to_text(config.names),
                }
                return False, details
            return True, details
        if kind == "B":
            _, n, a, b = scenario
            config = BExtendedConfig(n)
            lhs = config.tower_laurent(a, b)
            reflected = config.tower_laurent(a, 2 * n + 1 - b)
            details = {"scenario": ["B", n, a, b], "reflection": [a, 2 * n + 1 - b]}
            try:
                printed = config.tower_laurent(a, 2 * n + 2 - b)
                details["printed_formula_matches"] = bool(lhs == printed)
            except PoleError:
                details["printed_formula_matches"] = False
            if lhs != reflected:
                details["counterexample"] = {
                    "tower": lhs.to_text(config.names),
                    "reflected": reflected.to_text(config.names),
                }
                return False, details
            return True, details
        raise ValueError(f"unknown excision scenario {scenario!r}")

    tag = ",".join(str(x) for x in scenario)
    return _timed(f"excision[{tag}]", run)


# -- folding ------------------------------------------------------------------------


def folding_assignment_a_to_c(n: int) -> dict[int, LaurentPolynomial]:
    """Variable identification folding A_{2n-1} onto C_n (slots are 0-based)."""
    target = n

    def var(slot: int) -> LaurentPolynomial:
        return LaurentPolynomial.variable(slot, target)

    assignment: dict[int, LaurentPolynomial] = {}
    for k in range(1, 2 * n):
        if k < n:
            assignment[k - 1] = var(n - k)
        elif k == n:
            assignment[k - 1] = var(0)
        else:
            assignment[k - 1] = var(k - n)
    return assignment


def folding_assignment_d_to_b(n: int) -> dict[int, LaurentPolynomial]:
    """Identify x_1bar with x_1, folding D_n onto B_{n-1}."""
    target = n - 1
    assignment: dict[int, LaurentPolynomial] = {
        0: LaurentPolynomial.variable(0, target),
        1: LaurentPolynomial.variable(0, target),
    }
    for k in range(2, n):
        assignment[k] = LaurentPolynomial.variable(k - 1, target)
    return assignment


def check_folding(direction: str, n: int) -> CheckResult:
    """Fold the simply-laced variables and compare with the folded family."""

    def run() -> tuple[bool, dict]:
        if direction == "A->C":
            source = noninitial_variables("A", 2 * n - 1)
            assignment = folding_assignment_a_to_c(n)
            target = set(noninitial_variables("C", n).values())
            target_names = variable_names("C", n)
        elif direction == "D->B":
            source = noninitial_variables("D", n)
            assignment = folding_assignment_d_to_b(n)
            target = set(noninitial_variables("B", n - 1).values())
            target_names = variable_names("B", n - 1)
        else:
            raise ValueError(f"unknown folding direction {direction!r}")
        folded = {value.substitute(assignment) for value in source.values()}
        details: dict = {
            "direction": direction,
            "n": n,
            "source_count": len(source),
            "folded_count": len(folded),
        }
        if folded != target:
            extra = sorted(p.to_text(target_names) for p in folded - target)
            missing = sorted(p.to_text(target_names) for p in target - folded)
            details["counterexample"] = {"extra": extra[:3], "missing": missing[:3]}
            return False, details
        return True, details

    return _timed(f"folding[{direction},n={n}]", run)


# -- diamond conditions ---------------------------------------------------------------


def check_belt_diamonds(family: str, rank: int) -> CheckResult:
    """Walk the belt lattice and check a d = (neighbour monomial) + 1 everywhere.

    The neighbour monomial takes column k' of the in-between row to the
    power |b_{kk'}| of the initial matrix, which covers the interior
    condition, the truncated western conditions of B_n, and the D_n
    boundary relations in one rule.
    """

    def run() -> tuple[bool, dict]:
        values = belt(family, rank).values
        rows = exchange_matrix(family, rank)
        names = variable_names(family, rank)
        by_slot: dict[int, list[int]] = {}
        for slot, sup in values:
            by_slot.setdefault(slot, []).append(sup)
        one = LaurentPolynomial.one(len(names))
        checked = 0
        for slot, sups in sorted(by_slot.items()):
            sups.sort()
            for prev, nxt in zip(sups, sups[1:]):
                a = values[(slot, prev)]
                d = values[(slot, nxt)]
                monomial = one
                usable = True
                for other, b in enumerate(rows[slot]):
                    if other == slot or b == 0:
                        continue
                    neighbour = values.get((other, nxt - 1))
                    if neighbour is None:
                        usable = False
                        break
                    monomial = monomial * neighbour ** abs(b)
                if not usable:
                    continue
                checked += 1
                if a * d - monomial != one:
                    return False, {
                        "diamonds_checked": checked,
                        "counterexample": {
                            "column": slot,
                            "superscripts": [prev, nxt],
                            "a*d": (a * d).to_text(names),
                            "monomial": monomial.to_text(names),
                        },
                    }
        return True, {"diamonds_checked": checked}

    return _timed(f"diamonds[{family}{rank}]", run)


# -- check registry -------------------------------------------------------------------

CHECK_NAMES = ("theorem", "diamonds", "condensation", "centerone", "excision", "folding")

# Desk-scale parameter grids for the lattice checks.
CONDENSATION_GRID = tuple((i, j) for i in (-1, 0, 4) for j in (2, 3, 4, 5))
CENTERONE_GRID = tuple((j, parity) for j in range(5) for parity in ("even", "odd"))
EXCISION_A_GRID = tuple(
    ("A", j, k) for j in range(1, 4) for k in range(1, 9) if 2 * j + k - 1 <= 7
)
EXCISION_B_GRID = tuple(
    ("B", n, a, b)
    for n in (3, 4)
    for a in (3, 4)
    for b in range(n + 1, 2 * n - (a - 2) + 1)
    if a <= n
)


def applicable_foldings(family: str, rank: int) -> tuple[tuple[str, int], ...]:
    if family == "C" and 2 <= rank <= 4:
        return (("A->C", rank),)
    if family == "D" and 4 <= rank <= 5:
        return (("D->B", rank),)
    if family == "B" and 3 <= rank <= 4:
        return (("D->B", rank + 1),)
    return ()


def plan_checks(
    family: str, rank: int, selection: Sequence[str]
) -> list[tuple[Callable[..., CheckResult], tuple[Any, ...]]]:
    """The selected checks as (check function, args) pairs; 'all' selects everything applicable."""
    wanted = set(selection)
    if "all" in wanted:
        wanted = set(CHECK_NAMES)
    unknown = wanted - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    plan: list[tuple[Callable[..., CheckResult], tuple[Any, ...]]] = []
    if "theorem" in wanted:
        plan.append((verify_theorem, (family, rank)))
    if "diamonds" in wanted:
        plan.append((check_belt_diamonds, (family, rank)))
    if "condensation" in wanted:
        plan += [(check_condensation, args) for args in CONDENSATION_GRID]
    if "centerone" in wanted:
        plan += [(check_center_one, args) for args in CENTERONE_GRID]
    if "excision" in wanted:
        plan += [(check_excision, (scenario,)) for scenario in EXCISION_A_GRID + EXCISION_B_GRID]
    if "folding" in wanted:
        plan += [(check_folding, args) for args in applicable_foldings(family, rank)]
    return plan


def run_checks(family: str, rank: int, selection: Sequence[str]) -> VerificationReport:
    """Run the selected checks one at a time; results are merged by name.

    The checks are CPU-bound exact arithmetic and share the cached belt and
    family of (family, rank), so they run sequentially in this process.
    """
    report = VerificationReport()
    for check, args in plan_checks(family, rank, selection):
        report.add(check(*args))
    return report
