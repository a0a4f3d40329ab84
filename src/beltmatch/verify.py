"""Identity checks tying the two routes together.

Each check is an exact polynomial identity returning (passed, details),
declared once with ``@_check``, which times it and names its CheckResult;
``CHECK_PLANS`` maps each check name to the steps it runs for a (family,
rank), and a VerificationReport holds the results sorted by name.  Checks
never raise on a failed identity -- they report a minimal counterexample
instead (the root or parameters involved, both polynomials, and their
difference), so a convention bug is diagnosable in one run.  A check that
raises is a failed check whose details carry the exception.

The extended-lattice checks work over signed variables y_i with y_1 = 1,
y_{-1} = -1, the sign rule y_{-i} = -y_i, and a symbolic y_0.  Limits
y_0 -> 0 are taken by exact division first and substitution second, never
numerically, since setting y_0 = 0 too early produces 0/0.  The B_n tower
reflection is checked on the same lattice, read from the other end
(x_m = y_{n+2-m}).
"""

from __future__ import annotations

import json
import time
from functools import cache, wraps
from typing import Any, Callable, NamedTuple, Sequence

from .errors import CheckSelectionError, PoleError
from .laurent import LaurentPolynomial, default_names
from .matchenum import cluster_expansion, matching_polynomial
from .mutation import belt, check_supported, exchange_matrix, noninitial_variables, variable_names
from .tilegraphs import MatchingGraph, enumerate_family, strip_graph


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: dict
    seconds: float


class VerificationReport(NamedTuple):
    """The results of a verification run, sorted by check name."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        # Timings stay off the wire so repeated runs are byte-identical.
        checks = [{"name": c.name, "passed": c.passed, "details": c.details} for c in self.checks]
        return json.dumps({"passed": self.passed, "checks": checks}, indent=2, sort_keys=True)

    def to_text(self) -> str:
        """One PASS/FAIL line per check with its error, root count or counterexample."""
        lines = []
        for c in self.checks:
            note = ""
            if "error" in c.details:
                note = " " + c.details["error"]
            elif "roots_checked" in c.details:
                note = f" ({c.details['roots_checked']} roots checked)"
            elif "counterexample" in c.details:
                note = " " + json.dumps(c.details["counterexample"], sort_keys=True)
            lines.append(f"{'PASS' if c.passed else 'FAIL'} {c.name}{note}")
        return "\n".join(lines + ["all checks passed" if self.passed else "some checks FAILED"])


def _check(name: Callable[..., str]):
    """Make an identity returning (passed, details) a timed check whose CheckResult is
    named ``name(*args)``; an exception it raises is a failed result carrying it."""

    def decorate(identity: Callable[..., tuple[bool, dict]]) -> Callable[..., CheckResult]:
        @wraps(identity)
        def check(*args: Any) -> CheckResult:
            start = time.perf_counter()
            try:
                passed, details = identity(*args)
            except Exception as exc:
                passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
            return CheckResult(name(*args), passed, details, time.perf_counter() - start)

        return check

    return decorate


# -- the main equivalence check ---------------------------------------------------


@_check(lambda family, rank: f"theorem[{family}{rank}]")
def verify_theorem(family: str, rank: int) -> tuple[bool, dict]:
    """Belt oracle vs matching expansion for every positive root.

    Also checks the family cardinality, the injectivity of the multiplicity
    vector, and the positivity of every numerator coefficient.
    """
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
        # A monomial shift leaves coefficients alone: these are the numerator's.
        if any(c <= 0 for c in expected.coefficients()):
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


# -- extended-lattice configuration ------------------------------------------------


class ExtendedLatticeConfig(NamedTuple):
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


def tile_strip(config: ExtendedLatticeConfig, lo: int, hi: int) -> MatchingGraph:
    """The grid graph of tiles lo..hi: tile i has north weight(i+1) and south weight(i-1)."""
    pairs = [(config.weight(i + 1), config.weight(i - 1)) for i in range(lo, hi + 1)]
    return strip_graph(pairs, config.nvars, config.names)


@cache
def _strip_polynomial(
    pairs: tuple, nvars: int, monomial: LaurentPolynomial | None = None
) -> LaurentPolynomial:
    """P(strip_graph(pairs)), or the y_0 -> 0 limit of P / ``monomial``.  The lattice
    grid does not depend on the requested (family, rank), so this is memoized by content
    (names do not change P) for the process; each check still evaluates its identity."""
    if monomial is None:
        return matching_polynomial(strip_graph(pairs, nvars, default_names(nvars)))
    quotient = _strip_polynomial(pairs, nvars) * monomial.monomial_inverse()
    return quotient.substitute({0: LaurentPolynomial.zero(nvars)})


def strip_limit(config: ExtendedLatticeConfig, lo: int, hi: int) -> LaurentPolynomial:
    """P(tiles lo..hi) divided exactly by the tile monomial, then y_0 sent
    to 0 (the exact limit); the empty strip is 1.

    Every tile weight is 1, -1 or +-y_i, so the tile monomial is +-y^e and
    dividing by it is multiplying by its inverse."""
    one = LaurentPolynomial.one(config.nvars)
    if lo > hi:
        return one
    monomial = one
    for i in range(lo, hi + 1):
        monomial = monomial * config.weight(i)
    pairs = tuple((config.weight(i + 1), config.weight(i - 1)) for i in range(lo, hi + 1))
    return _strip_polynomial(pairs, config.nvars, monomial)


# -- condensation -------------------------------------------------------------------


@_check(lambda center, halfwidth: f"condensation[i={center},j={halfwidth}]")
def check_condensation(center: int, halfwidth: int) -> tuple[bool, dict]:
    """Graphical condensation on interval graphs, fully symbolically.

    P(G_0) P(G_2) = P(G_1 west) P(G_1 east) + excess.  The excess is the
    weight of the one indecomposable pair of matchings: horizontal edges on
    every second tile of G_0 and of G_2.  For halfwidth >= 3 that expands to
    the product taking the four extreme variables once and every interior
    variable squared; at halfwidth 2 the G_2 factor is an empty product,
    which is exactly where the expanded form would overcount.
    """
    i, j = center, halfwidth
    lo, hi = i - j + 1, i + j - 1
    shift = 1 - (lo - 1)  # keep every index positive: slot = index + shift - 1
    nvars = (hi + 1) + shift
    names = tuple(f"y{m - shift}" for m in range(1, nvars + 1))

    def y(m: int) -> LaurentPolynomial:
        return LaurentPolynomial.variable(m + shift - 1, nvars)

    def strip(a: int, b: int) -> LaurentPolynomial:  # the empty strip (a > b) is 1
        return _strip_polynomial(tuple((y(t + 1), y(t - 1)) for t in range(a, b + 1)), nvars)

    excess = LaurentPolynomial.one(nvars)
    for t in range(lo + 1, hi, 2):  # horizontal tiles of the G_0 matching
        excess = excess * y(t - 1) * y(t + 1)
    for t in range(lo + 2, hi - 1, 2):  # horizontal tiles of the G_2 matching
        excess = excess * y(t - 1) * y(t + 1)
    lhs = strip(lo, hi) * strip(lo + 2, hi - 2)
    rhs = strip(lo, hi - 2) * strip(lo + 2, hi) + excess
    details: dict = {"center": i, "halfwidth": j}
    if j == 2:  # every weight 1: each side is its sum of coefficients
        details["unit_instance"] = f"{sum(lhs.coefficients())} = {sum(rhs.coefficients())}"
    if lhs != rhs:
        details["counterexample"] = {
            "lhs": lhs.to_text(names),
            "rhs": rhs.to_text(names),
            "difference": (lhs - rhs).to_text(names),
        }
        return False, details
    return True, details


# -- centre identities -------------------------------------------------------------


@_check(lambda j, parity: f"centerone[j={j},{parity}]")
def check_center_one(j: int, parity: str) -> tuple[bool, dict]:
    """Even case: tiles -j..j+1 biject to y_{j+2}.  Odd case: tiles -j..j+2 biject to 1."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    hi = j + 2 if parity == "odd" else j + 1
    config = ExtendedLatticeConfig(max_index=j + 3)
    got = strip_limit(config, -j, hi)
    expected = (
        LaurentPolynomial.one(config.nvars)
        if parity == "odd"
        else LaurentPolynomial.variable(j + 2, config.nvars)
    )
    details: dict = {"j": j, "parity": parity, "tiles": hi + j + 1}
    if j == 0 and parity == "even":
        raw = matching_polynomial(tile_strip(config, 0, 1))
        details["base_case"] = raw.to_text(config.names)
    if got != expected:
        details["counterexample"] = {
            "got": got.to_text(config.names),
            "expected": expected.to_text(config.names),
        }
        return False, details
    return True, details


# -- excision -----------------------------------------------------------------------


@_check(lambda scenario: f"excision[{','.join(str(x) for x in scenario)}]")
def check_excision(scenario: tuple) -> tuple[bool, dict]:
    """Excision invariance: tiles L..H and tiles 3-L..H of the extended
    lattice give the same Laurent polynomial, the block L..2-L centred on
    tile 1 being excised.

    ``("A", j, k)``: L = 2-j, H = j+k, so tiles 2-j..j+k (tile 1 in the
    middle of an odd block) against tiles j+1..j+k.

    ``("B", n, a, b)``: the rank-n boundary reflection of the tower T_a..T_b.
    Its variables are the lattice read from the other end, x_m = y_{n+2-m}:
    x_{n+1} = y_1 = 1, x_{n+2} = y_0 is sent to 0, and the mirror rule
    x_{n+2+k} = -x_{n+2-k} is y_{-k} = -y_k.  The tower is the window
    L = n+2-b, H = n+2-a, and the reflection b -> 2n+1-b that the machinery
    (centred excision at T_{n+1}) produces is the window 3-L..H.  Whether
    the printed reflection b -> 2n+2-b, the window 2-L..H, also holds is
    recorded in the details, so the discrepancy is decided empirically.
    """
    kind = scenario[0]
    if kind == "A":
        _, j, k = scenario
        low, high = 2 - j, j + k
        details: dict = {"scenario": ["A", j, k], "tiles": 2 * j + k - 1}
    elif kind == "B":
        _, n, a, b = scenario
        low, high = n + 2 - b, n + 2 - a
        details = {"scenario": ["B", n, a, b], "reflection": [a, 2 * n + 1 - b]}
    else:
        raise ValueError(f"unknown excision scenario {scenario!r}")
    config = ExtendedLatticeConfig(max_index=high + 1)
    whole = strip_limit(config, low, high)
    excised = strip_limit(config, 3 - low, high)
    if kind == "B":
        try:
            details["printed_formula_matches"] = whole == strip_limit(config, 2 - low, high)
        except PoleError:
            details["printed_formula_matches"] = False
    if whole != excised:
        details["counterexample"] = {
            "whole": whole.to_text(config.names),
            "excised": excised.to_text(config.names),
        }
        return False, details
    return True, details


# -- folding ------------------------------------------------------------------------


def folding_assignment_a_to_c(n: int) -> dict[int, LaurentPolynomial]:
    """Fold A_{2n-1} onto C_n: x_k and x_{2n-k} both become x_{|n-k|+1} of C_n."""
    return {s: LaurentPolynomial.variable(abs(n - 1 - s), n) for s in range(2 * n - 1)}


def folding_assignment_d_to_b(n: int) -> dict[int, LaurentPolynomial]:
    """Identify x_1bar with x_1, folding D_n onto B_{n-1}."""
    return {s: LaurentPolynomial.variable(max(s - 1, 0), n - 1) for s in range(n)}


@_check(lambda direction, n: f"folding[{direction},n={n}]")
def check_folding(direction: str, n: int) -> tuple[bool, dict]:
    """Fold the simply-laced variables and compare with the folded family."""
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


# -- diamond conditions ---------------------------------------------------------------


@_check(lambda family, rank: f"diamonds[{family}{rank}]")
def check_belt_diamonds(family: str, rank: int) -> tuple[bool, dict]:
    """Walk the belt lattice and check a d = (neighbour monomial) + 1 everywhere.

    The neighbour monomial takes column k' of the in-between row to the
    power |b_{kk'}| of the initial matrix, which covers the interior
    condition, the truncated western conditions of B_n, and the D_n
    boundary relations in one rule.
    """
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
            if a * d != monomial + one:
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


# -- check registry -------------------------------------------------------------------

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


# Each check name with the (check, args) steps it plans for a (family, rank),
# in plan order.  The lambdas read each check's module global when a plan is
# made, so a wrapper swapped in for it (a tracer's span, a test's spy) runs.
CHECK_PLANS: dict[str, Callable[[str, int], list]] = {
    "theorem": lambda family, rank: [(verify_theorem, (family, rank))],
    "diamonds": lambda family, rank: [(check_belt_diamonds, (family, rank))],
    "condensation": lambda family, rank: [(check_condensation, a) for a in CONDENSATION_GRID],
    "centerone": lambda family, rank: [(check_center_one, a) for a in CENTERONE_GRID],
    "excision": lambda family, rank: [
        (check_excision, (s,)) for s in EXCISION_A_GRID + EXCISION_B_GRID
    ],
    "folding": lambda family, rank: [(check_folding, a) for a in applicable_foldings(family, rank)],
}
CHECK_NAMES = tuple(CHECK_PLANS)


def plan_checks(
    family: str, rank: int, selection: Sequence[str]
) -> list[tuple[Callable[..., CheckResult], tuple[Any, ...]]]:
    """The selected checks as (check function, args) pairs; 'all' selects everything applicable.

    Blank names are skipped; an unknown name or an empty plan raises CheckSelectionError.
    """
    wanted = {name.strip() for name in selection} - {""}
    unknown = wanted - set(CHECK_NAMES) - {"all"}
    if unknown:
        raise CheckSelectionError(f"unknown checks: {sorted(unknown)}")
    plan = [
        step
        for name, steps in CHECK_PLANS.items()
        if name in wanted or "all" in wanted
        for step in steps(family, rank)
    ]
    if not plan:
        text = ",".join(selection)
        raise CheckSelectionError(f"no check selected by {text!r} for {family}_{rank}")
    return plan


def run_checks(family: str, rank: int, selection: Sequence[str]) -> VerificationReport:
    """Run the planned checks one at a time and report them sorted by name.

    The checks are CPU-bound exact arithmetic and share the cached belt and
    family of (family, rank), so they run sequentially in this process.
    """
    results = [check(*args) for check, args in plan_checks(family, rank, selection)]
    return VerificationReport(tuple(sorted(results, key=lambda c: c.name)))
