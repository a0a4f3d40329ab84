"""Exact Laurent arithmetic: spec'd examples plus algebraic property tests."""

from __future__ import annotations

import re

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beltmatch.errors import (
    DimensionMismatchError,
    ExponentOverflowError,
    InexactDivisionError,
    PoleError,
)
from beltmatch.laurent import MAX_EXPONENT, MIN_EXPONENT, _unpacker, default_names
from beltmatch.laurent import LaurentPolynomial as LP


def parse2(text: str) -> LP:
    return LP.parse(text, 2)


def parse3(text: str) -> LP:
    return LP.parse(text, 3)


# -- add / mul ---------------------------------------------------------------


def test_add_identity_and_inverse():
    p = parse2("x2 + 1")
    assert p + LP.zero(2) == p
    q = parse3("x1*x3")
    assert q + (-q) == LP.zero(3)
    assert (q + (-q)).is_zero


def test_add_merges_coefficients():
    assert parse3("x2 + 1") + parse3("x1*x3 + x2") == parse3("x1*x3 + 2*x2 + 1")


def test_mul_identity_and_cancellation():
    p = parse2("x2 + 1")
    one = LP.one(2)
    assert p * one == p
    # A product by exactly 1 shares the other operand; -1 and every other
    # monomial still build a fresh, range-checked product.
    assert p * one is p
    assert one * p is p
    assert p * LP.constant(-1, 2) == -p
    with pytest.raises(DimensionMismatchError):
        LP.one(3) * parse2("x1")
    q = parse2("x1 - 1")
    text = p.to_text()
    assert (p * one) + q == parse2("x2 + x1")
    assert p.to_text() == text
    assert LP.parse("x1^-1", 2) * LP.parse("x1", 2) == LP.one(2)


def test_mul_square():
    assert parse2("x2 + 1") * parse2("x2 + 1") == parse2("x2^2 + 2*x2 + 1")


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        parse2("x1") + parse3("x1")
    with pytest.raises(DimensionMismatchError):
        parse2("x1") * parse3("x1")


# -- div_exact ----------------------------------------------------------------


def test_div_exact_first_exchange_binomial():
    assert parse2("x2 + 1").div_exact(parse2("x1")) == LP.parse("x1^-1*x2 + x1^-1", 2)


def test_div_exact_unit_divisor():
    p = parse3("x1*x3 + 2*x2 + 1")
    assert p.div_exact(LP.one(3)) == p


def test_div_exact_belt_quotient():
    # (x2+1)^2 + x1^2*(1+x2) = (x2+1)*((x2+1) + x1^2), from the B_2 belt.
    numerator = parse2("x2^2 + 2*x2 + 1") + parse2("x1^2") * parse2("x2 + 1")
    assert numerator.div_exact(parse2("x2 + 1")) == parse2("x1^2 + x2 + 1")


def test_div_exact_rejects_remainder():
    with pytest.raises(InexactDivisionError):
        parse2("x2 + 1").div_exact(parse2("x2 + 2"))
    with pytest.raises(InexactDivisionError):
        parse2("2*x2 + 1").div_exact(parse2("2"))
    with pytest.raises(ZeroDivisionError):
        parse2("x2").div_exact(LP.zero(2))


# -- substitute -----------------------------------------------------------------


def test_substitute_folding_map():
    # A_3 -> C_2 identification with n = 2: x1 -> x2, x2 -> x1, x3 -> x2.
    x1, x2 = LP.variable(0, 2), LP.variable(1, 2)
    image = parse3("x1*x3 + x2").substitute({0: x2, 1: x1, 2: x2})
    assert image == parse2("x2^2 + x1")


def test_substitute_empty_assignment():
    p = parse3("x1*x3 + 2*x2 + 1")
    assert p.substitute({}) == p


def test_substitute_identification_collapse():
    # Two variables identified: x1bar + x1 -> 2 x1 in a smaller ring.
    p = LP.variable(0, 2) + LP.variable(1, 2)
    folded = p.substitute({0: LP.variable(0, 1), 1: LP.variable(0, 1)})
    assert folded == LP.parse("2*x1", 1)


def test_substitute_zero_into_negative_power_is_a_pole():
    p = LP.parse("x1^-1", 2)
    with pytest.raises(PoleError):
        p.substitute({0: LP.zero(2)})
    with pytest.raises(ValueError, match="slot 0 is assigned 2 terms"):
        p.substitute({0: parse2("x2 + 1")})


def test_substitute_zero_into_positive_power():
    p = parse2("x1*x2 + x2 + 1")
    assert p.substitute({0: LP.zero(2)}) == parse2("x2 + 1")


# -- split -----------------------------------------------------------------------


def test_split_exchange_quotient():
    p = parse2("x2 + 1").div_exact(parse2("x1"))
    split = p.split()
    assert split.numerator == parse2("x2 + 1")
    assert split.denominator == (1, 0)
    assert split.recombine() == p


def test_split_initial_variable_has_negative_entry():
    split = parse2("x1").split()
    assert split.numerator == LP.one(2)
    assert split.denominator == (-1, 0)
    assert split.recombine() == parse2("x1")


def test_split_belt_variable():
    p = parse3("x2^2 + 2*x2 + x1*x3 + 1") * LP.parse("x1^-1*x2^-1*x3^-1", 3)
    split = p.split()
    assert split.numerator == parse3("x2^2 + 2*x2 + x1*x3 + 1")
    assert split.denominator == (1, 1, 1)


def test_split_zero_rejected():
    with pytest.raises(ValueError):
        LP.zero(2).split()


# -- text form ----------------------------------------------------------------------


def test_canonical_text_example():
    assert parse3("x1*x3 + 2*x2 + 1").to_text() == "x1*x3 + 2*x2 + 1"


def test_text_negative_coefficients_and_exponents():
    p = LP.parse("-y2 + 1", 3, names=("y0", "y1", "y2"))
    assert p.to_text(("y0", "y1", "y2")) == "-y2 + 1"
    q = LP.parse("x1^-1*x2 + x1^-1", 2)
    assert q.to_text() == "x1^-1*x2 + x1^-1"


def test_zero_text_roundtrip():
    assert LP.zero(2).to_text() == "0"
    assert LP.parse("0", 2) == LP.zero(2)


def test_factorization_text():
    p = parse3("x2^2 + 2*x2 + x1*x3 + 1") * LP.parse("x1^-1*x2^-1*x3^-1", 3)
    # Canonical order is descending lexicographic on exponent vectors, so the
    # x1-bearing term sorts first.
    assert p.split().to_text() == "(x1*x3 + x2^2 + 2*x2 + 1) / x1*x2*x3"
    assert parse2("x2 + 1").split().to_text() == "x2 + 1"


# -- property tests ----------------------------------------------------------------

coeffs = st.integers(min_value=-5, max_value=5)
exponents = st.tuples(*(st.integers(min_value=-3, max_value=3),) * 3)


@st.composite
def polys(draw) -> LP:
    terms = draw(st.dictionaries(exponents, coeffs, max_size=5))
    return LP(terms, 3)


@given(polys(), polys())
def test_commutativity(p, q):
    assert p + q == q + p
    assert p * q == q * p


@given(polys(), polys(), polys())
@settings(max_examples=60)
def test_associativity_and_distributivity(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys())
def test_split_recombines(p):
    if p.is_zero:
        return
    assert p.split().recombine() == p


@given(polys(), exponents)
def test_monomial_division_inverts_multiplication(p, exps):
    q = LP.monomial(1, exps)
    assert (p * q).div_exact(q) == p


@given(polys(), polys())
@settings(max_examples=60)
def test_general_division_inverts_multiplication(p, q):
    if q.is_zero:
        return
    assert (p * q).div_exact(q) == p


@given(polys(), polys())
@settings(max_examples=60)
def test_substitute_is_a_ring_homomorphism(p, q):
    x2, x3 = LP.variable(1, 3), LP.variable(2, 3)
    assignment = {0: x2 * x3, 1: x3}
    assert (p * q).substitute(assignment) == p.substitute(assignment) * q.substitute(assignment)
    assert (p + q).substitute(assignment) == p.substitute(assignment) + q.substitute(assignment)


@given(polys())
def test_text_roundtrip(p):
    assert LP.parse(p.to_text(), 3) == p


@given(polys(), polys())
@example(LP.zero(3), LP.zero(3))
@example(parse3("x1^-2 + x3"), parse3("x2 - x1^-2"))  # the cancelled key held the minimum
def test_min_exponents_memo_matches_a_fresh_scan(p, r):
    # Constructors, sums, products, quotients and split numerators carry
    # their minimum exponents over from the operands instead of scanning;
    # both must agree.
    q = LP.parse("x1^-1*x2 + x3^2", 3)
    p.min_exponents()
    q.min_exponents()
    r.min_exponents()
    zero = LP.zero(3)
    zero.min_exponents()  # the all-zero convention must not pass as a minimum
    candidates = [
        p,
        p * q,
        (p * q).div_exact(q),
        p * LP.monomial(-1, (2, -3, 1)),
        p + r,
        r + p,
        p + q,
        p + (-p) + q,
        zero + p,
        p + zero,
        zero + r,
        p - r,
        LP.one(3),
        LP.constant(-4, 3),
        LP.variable(1, 3),
        LP.monomial(3, (2, -3, 1)),
        LP.monomial(1, [-1, 0, 2]) + LP.variable(2, 3),
        LP.constant(0, 3),
        LP.monomial(0, (3, -1, 2)),
        LP.monomial(0, (3, -1, 2)) + LP.variable(0, 3),
    ]
    for poly in candidates:
        if poly.is_zero:
            assert poly.min_exponents() == (0, 0, 0)
            continue
        scanned = tuple(map(min, zip(*(e for e, _ in poly.terms()))))
        assert poly.min_exponents() == scanned
        assert poly.split().numerator.min_exponents() == (0, 0, 0)


# -- shared constructors --------------------------------------------------------------


def test_cached_constructors_return_one_shared_object():
    assert LP.zero(3) is LP.zero(3)
    assert LP.one(3) is LP.one(3)
    assert LP.variable(1, 3) is LP.variable(1, 3)
    assert LP.one(3) == LP({(0, 0, 0): 1}, 3)
    assert LP.zero(3) == LP({}, 3)
    assert LP.variable(1, 3) == LP({(0, 1, 0): 1}, 3)
    assert LP.one(2) != LP.one(3)
    assert LP.constant(1, 3) is not LP.constant(1, 3)


def test_operations_leave_the_shared_objects_unchanged():
    zero, one, x2 = LP.zero(3), LP.one(3), LP.variable(1, 3)
    before = [(q.nvars, q.terms()) for q in (zero, one, x2)]
    p = parse3("x1^-1*x2 + 2*x3")
    results = [
        one + one, one + zero, zero + one, zero + zero, x2 + x2, one - one, -one, -x2,
        one * p, p * one, one * x2, x2 * one, x2 * x2, zero * p, x2 * p,
        one**0, one**3, x2**1, x2**-2, x2**5, zero**2,
        (one * x2) + p, (x2**1) * p, (p * one).div_exact(one), x2.monomial_inverse(),
        p.substitute({1: x2 * x2}), zero.div_exact(x2),
    ]
    hash(zero), hash(one), hash(x2)
    zero.min_exponents(), one.min_exponents(), x2.min_exponents()
    for q in results:
        q.min_exponents()
        hash(q)
    assert [(q.nvars, q.terms()) for q in (zero, one, x2)] == before
    assert one.min_exponents() == (0, 0, 0)
    assert x2.min_exponents() == (0, 1, 0)
    assert zero.min_exponents() == (0, 0, 0)
    assert hash(one) == hash(LP({(0, 0, 0): 1}, 3))


def test_out_of_range_variable_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(DimensionMismatchError):
            LP.variable(3, 3)
        with pytest.raises(DimensionMismatchError):
            LP.variable(-1, 3)
    assert LP.variable(2, 3) == parse3("x3")


# -- sums -------------------------------------------------------------------------


@st.composite
def disjoint_pairs(draw) -> tuple[LP, LP]:
    """Two polynomials in 1 to 4 variables with no key in common."""
    nvars = draw(st.integers(min_value=1, max_value=4))
    exps = st.tuples(*(st.integers(min_value=-3, max_value=3),) * nvars)
    terms = draw(st.dictionaries(exps, coeffs.filter(bool), max_size=8))
    left = draw(st.sets(st.sampled_from(sorted(terms)))) if terms else set()
    return (
        LP({e: c for e, c in terms.items() if e in left}, nvars),
        LP({e: c for e, c in terms.items() if e not in left}, nvars),
    )


@given(disjoint_pairs())
@example((LP.zero(2), parse2("x1 - x2^-1")))
def test_disjoint_sum_is_the_loop_sum_with_the_same_minimums(pq):
    p, q = pq
    p.min_exponents()
    q.min_exponents()
    big, small = (p, q) if len(p) >= len(q) else (q, p)
    loop = dict(big._terms)
    for key, coeff in small._terms.items():
        loop[key] = loop.get(key, 0) + coeff
    total = p + q
    assert list(total._terms.items()) == list(loop.items())
    if p and q:
        assert total._mins == tuple(map(min, p.min_exponents(), q.min_exponents()))
    else:
        assert total._mins == big._mins


def test_cancelling_sum_carries_no_minimums():
    p, q = parse3("x1^-2 + x3"), parse3("x2 - x1^-2")
    p.min_exponents()
    q.min_exponents()
    total = p + q
    assert total == parse3("x3 + x2")
    # The cancelled key held x1's minimum, so it must be scanned afresh.
    assert total._mins is None
    assert total.min_exponents() == (0, 0, 0)
    r = parse3("x1^-2 - x2^-1")
    r.min_exponents()
    overlapping = p + r
    assert overlapping == parse3("2*x1^-2 + x3 - x2^-1")
    assert overlapping._mins == (-2, -1, 0)


# -- powers -------------------------------------------------------------------------


@pytest.mark.parametrize("power, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3)])
def test_pow_makes_no_wasted_products(monkeypatch, power, products):
    calls = []
    mul = LP.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    p = parse2("x1*x2^-1 + x2 + 1")
    expected = LP.one(2)
    for _ in range(power):
        expected = expected * p
    monkeypatch.setattr(LP, "__mul__", counting_mul)
    assert p**power == expected
    assert len(calls) == products


@pytest.mark.parametrize(
    "text, nvars, power, exps",
    [
        ("x1 + 1", 1, MAX_EXPONENT + 1, (MAX_EXPONENT + 1,)),
        ("x1^-1 + x2", 2, 1 - MIN_EXPONENT, (MIN_EXPONENT - 1, 0)),
        ("x1*x2^-1 + x2^2", 2, 1 << 29, (1 << 29, 1 << 30)),
    ],
)
def test_pow_out_of_range_fails_before_any_product(monkeypatch, text, nvars, power, exps):
    def no_products(self, other):
        pytest.fail("a power left the exponent range only after forming products")

    base = LP.parse(text, nvars)
    monkeypatch.setattr(LP, "__mul__", no_products)
    message = re.escape(f"exponent vector {exps} is outside [{MIN_EXPONENT}, {MAX_EXPONENT}]")
    with pytest.raises(ExponentOverflowError, match=message):
        base**power


# -- differential tests against sympy --------------------------------------------------


SYMBOLS = sympy.symbols("x1:5")


@st.composite
def ring_terms(draw, count: int = 1) -> tuple[int, list[dict[tuple[int, ...], int]]]:
    """A ring of 1 to 4 variables and ``count`` term maps in it."""
    nvars = draw(st.integers(min_value=1, max_value=4))
    exps = st.tuples(*(st.integers(min_value=-3, max_value=3),) * nvars)
    return nvars, [draw(st.dictionaries(exps, coeffs, max_size=5)) for _ in range(count)]


def ring_polys(count: int = 1) -> st.SearchStrategy[tuple[LP, ...]]:
    return ring_terms(count).map(lambda ring: tuple(LP(t, ring[0]) for t in ring[1]))


def to_sympy(p: LP) -> sympy.Expr:
    gens = SYMBOLS[: p.nvars]
    return sympy.Add(*(c * sympy.Mul(*(g**e for g, e in zip(gens, exps))) for exps, c in p.terms()))


def same(p: LP, expr: sympy.Expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


def sympy_quotient(a: LP, b: LP) -> sympy.Expr | None:
    """a / b in Z[x^-1, x] computed by sympy, or None if it leaves a remainder.

    Both sides are shifted to ordinary polynomials with no monomial factor,
    divided in Z[x] (sympy's ring division, no passage to Q), and shifted back."""
    gens = SYMBOLS[: a.nvars]

    def shifted(p: LP) -> tuple[sympy.Poly, tuple[int, ...]]:
        mins = tuple(map(min, zip(*(e for e, _ in p.terms()))))
        terms = {tuple(x - m for x, m in zip(e, mins)): c for e, c in p.terms()}
        return sympy.Poly.from_dict(terms, *gens, domain=sympy.ZZ), mins

    pa, ma = shifted(a)
    pb, mb = shifted(b)
    q, r = pa.div(pb, auto=False)
    if not r.is_zero:
        return None
    assert q * pb == pa
    return q.as_expr() * sympy.Mul(*(g ** (x - y) for g, x, y in zip(gens, ma, mb)))


@given(ring_polys(2))
@settings(max_examples=80, deadline=None)
def test_ring_operations_match_sympy(pq):
    p, q = pq
    assert same(p + q, to_sympy(p) + to_sympy(q))
    assert same(p - q, to_sympy(p) - to_sympy(q))
    assert same(p * q, to_sympy(p) * to_sympy(q))


@given(ring_polys(3), st.booleans())
@example((parse2("1"), parse2("2*x2 + 1"), parse2("x2")), True)
@example((parse2("x1 + 3"), parse2("2*x2 + 1"), LP.zero(2)), False)
@example((parse2("x1 + 3"), parse2("2*x2 + x1^-1"), parse2("x1^-1*x2")), True)
# One-term divisors: unit and non-unit coefficients, negative exponents,
# exact and inexact.
@example((parse2("x1^2 + x2 - 3"), parse2("x1^-1*x2^2"), LP.zero(2)), False)
@example((parse2("x1 + 3"), parse2("-x2^-2"), parse2("x1^-1")), True)
@example((parse2("x1^-1 + 5*x2"), parse2("3*x1^-2"), LP.zero(2)), False)
@example((parse2("x1^-1 + 5*x2"), parse2("-3*x1^-2"), parse2("x2^-1")), True)
@example((LP.parse("x1^3 - 2", 1), LP.parse("-2*x1^-1", 1), LP.parse("x1", 1)), True)
@settings(max_examples=80, deadline=None)
def test_div_exact_matches_sympy(pqr, perturb):
    p, q, r = pqr
    if q.is_zero:
        return
    # Half the dividends are multiples of q; the rest are usually not.
    a = p * q + r if perturb else p * q
    if a.is_zero:
        assert a.div_exact(q).is_zero
        return
    expected = sympy_quotient(a, q)
    if expected is None:
        with pytest.raises(InexactDivisionError):
            a.div_exact(q)
    else:
        quotient = a.div_exact(q)
        assert same(quotient, expected)
        assert quotient * q == a


@st.composite
def substitutions(draw) -> tuple[LP, dict[int, LP]]:
    (p,) = draw(ring_polys())
    nvars = p.nvars
    exps = st.tuples(*(st.integers(min_value=-2, max_value=2),) * nvars)
    assignment = {}
    for slot in draw(st.sets(st.integers(min_value=0, max_value=nvars - 1))):
        if draw(st.booleans()):
            # A unit monomial, which every power (negative too) accepts.
            assignment[slot] = LP.monomial(draw(st.sampled_from((1, -1))), draw(exps))
        else:
            assignment[slot] = LP(draw(st.dictionaries(exps, coeffs, max_size=3)), nvars)
    return p, assignment


@given(substitutions())
@settings(max_examples=80, deadline=None)
def test_substitute_matches_sympy(case):
    p, assignment = case
    gens = SYMBOLS[: p.nvars]
    # Values must be monomials or zero; the first wider one is named.
    wide = [slot for slot, value in assignment.items() if len(value) > 1]
    if wide:
        with pytest.raises(ValueError, match=f"slot {wide[0]} is assigned"):
            p.substitute(assignment)
        return
    # A negative power needs a unit monomial: zero is a pole (PoleError) and
    # any other coefficient leaves Z (InexactDivisionError, e.g. 2^-1).
    blocked = {
        slot
        for exps, _ in p.terms()
        for slot, e in enumerate(exps)
        if e < 0 and slot in assignment and assignment[slot].coefficients() not in ([1], [-1])
    }
    if blocked:
        with pytest.raises((PoleError, InexactDivisionError)):
            p.substitute(assignment)
        return
    image = to_sympy(p).subs({gens[s]: to_sympy(v) for s, v in assignment.items()}, simultaneous=True)
    assert same(p.substitute(assignment), image)


def substitute_by_products(p: LP, assignment: dict[int, LP]) -> LP:
    """Reference substitution: one polynomial product per term and slot.

    It walks the terms in the same (internal) order as ``substitute``, so the
    first term that raises is the same one on both routes.  A value of two or
    more terms is refused before any term, as ``substitute`` refuses it."""
    target = next(iter(assignment.values())).nvars if assignment else p.nvars
    for slot, value in assignment.items():
        if len(value) > 1:
            raise ValueError(f"slot {slot} is assigned {len(value)} terms, not a monomial")
    result = LP.zero(target)
    for key, coeff in p._terms.items():
        acc = LP.constant(coeff, target)
        for slot, power in enumerate(_unpacker(p.nvars)(key)):
            if power == 0:
                continue
            value = assignment.get(slot)
            if value is None:
                if slot >= target:
                    raise DimensionMismatchError(
                        f"unassigned slot {slot} does not exist in a {target}-variable ring"
                    )
                value = LP.variable(slot, target)
            elif power < 0 and value.is_zero:
                raise PoleError(
                    f"negative power of slot {slot} needs a nonzero monomial value; "
                    "clear denominators first"
                )
            acc = acc * value**power
        result = result + acc
    return result


@st.composite
def substitution_values(draw, nvars: int) -> LP:
    """Zero, +-1, non-unit constants, +-variables, monomials and multi-term values."""
    exps = st.tuples(*(st.integers(min_value=-2, max_value=2),) * nvars)
    kind = draw(st.sampled_from(("zero", "unit", "constant", "variable", "monomial", "sum")))
    if kind == "zero":
        return LP.zero(nvars)
    if kind == "unit":
        return LP.constant(draw(st.sampled_from((1, -1))), nvars)
    if kind == "constant":
        return LP.constant(draw(st.sampled_from((2, -2, 3, -5))), nvars)
    if kind == "variable":
        x = LP.variable(draw(st.integers(min_value=0, max_value=nvars - 1)), nvars)
        return x if draw(st.booleans()) else -x
    if kind == "monomial":
        return LP.monomial(draw(st.sampled_from((1, -1, 2, -3))), draw(exps))
    return LP(draw(st.dictionaries(exps, coeffs, min_size=2, max_size=3)), nvars)


@st.composite
def ring_changing_substitutions(draw) -> tuple[LP, dict[int, LP]]:
    """A polynomial with negative powers and an assignment into a ring that may
    be larger or smaller; unassigned slots may lie at or beyond the target."""
    (p,) = draw(ring_polys())
    target = draw(st.integers(min_value=1, max_value=5))
    slots = draw(st.sets(st.integers(min_value=0, max_value=p.nvars - 1)))
    return p, {slot: draw(substitution_values(target)) for slot in sorted(slots)}


def outcome(run):
    try:
        return run()
    except (ExponentOverflowError, InexactDivisionError, PoleError, ValueError) as exc:
        return type(exc), str(exc)


@given(ring_changing_substitutions())
# Large exponents: a power that leaves the range while squaring, at the
# product, at a monomial inverse, and a zero value that drops the term first.
@example((parse2("x1^3"), {0: LP.monomial(1, (MAX_EXPONENT // 3 + 1, 0))}))
@example((parse2("x1^2*x2"), {0: LP.monomial(1, (MAX_EXPONENT // 2, 0))}))
@example((parse2("x1^2*x2^3"), {0: LP.zero(2), 1: LP.monomial(1, (0, MAX_EXPONENT // 2))}))
@example((parse2("x1^-1"), {0: LP.monomial(-1, (MIN_EXPONENT, 0))}))
@example((parse2("x1*x2^-1"), {0: LP.zero(2), 1: LP.monomial(1, (MIN_EXPONENT, 0))}))
@example((parse2("x1^2*x2^-1"), {0: LP.monomial(1, (MAX_EXPONENT // 2, 1)), 1: LP.variable(1, 2)}))
@example((parse2("x1*x2 + 2*x1^-1"), {0: parse2("x2 + 1")}))
@example((parse2("x1*x2^-1 + 3"), {0: LP.zero(1), 1: LP.constant(2, 1)}))
@example((parse3("x3*x1 + x2"), {0: LP.variable(0, 1)}))
@settings(max_examples=300, deadline=None)
def test_substitute_matches_the_product_route(case):
    p, assignment = case
    assert outcome(lambda: p.substitute(assignment)) == outcome(
        lambda: substitute_by_products(p, assignment)
    )


@given(ring_terms())
@settings(max_examples=80, deadline=None)
def test_text_and_term_order_match_sympy(ring):
    nvars, (terms,) = ring
    p = LP(terms, nvars)
    nonzero = {e: c for e, c in terms.items() if c}
    assert p.terms() == [(e, nonzero[e]) for e in sorted(nonzero, reverse=True)]
    text = p.to_text()
    assert LP.parse(text, nvars) == p
    parsed = sympy.sympify(text.replace("^", "**"), locals={str(g): g for g in SYMBOLS})
    assert same(p, parsed)


# -- exponent range -----------------------------------------------------------------------


def x1(e: int) -> LP:
    return LP.monomial(1, (e, 0))


def test_construction_range_boundaries():
    assert x1(MAX_EXPONENT).terms() == [((MAX_EXPONENT, 0), 1)]
    assert x1(MIN_EXPONENT).terms() == [((MIN_EXPONENT, 0), 1)]
    assert LP.parse(f"x1^{MAX_EXPONENT}*x2^{MIN_EXPONENT}", 2).coefficient(
        (MAX_EXPONENT, MIN_EXPONENT)
    ) == 1
    with pytest.raises(ExponentOverflowError):
        x1(MAX_EXPONENT + 1)
    with pytest.raises(ExponentOverflowError):
        x1(MIN_EXPONENT - 1)
    with pytest.raises(ExponentOverflowError):
        LP.parse(f"x2^{MAX_EXPONENT + 1} + 1", 2)
    assert x1(0).coefficient((MAX_EXPONENT + 1, 0)) == 0


def test_mul_range_boundaries():
    binomial = parse2("x1 + x2")
    assert x1(MAX_EXPONENT - 1) * parse2("x1") == x1(MAX_EXPONENT)
    assert x1(MIN_EXPONENT + 1) * LP.parse("x1^-1", 2) == x1(MIN_EXPONENT)
    assert len(x1(MAX_EXPONENT - 1) * binomial) == 2
    with pytest.raises(ExponentOverflowError):
        x1(MAX_EXPONENT) * parse2("x1")
    with pytest.raises(ExponentOverflowError):
        x1(MIN_EXPONENT) * LP.parse("x1^-1", 2)
    with pytest.raises(ExponentOverflowError):
        x1(MAX_EXPONENT) * binomial
    # The overflowing digit is the last one: it must not carry into x1.
    with pytest.raises(ExponentOverflowError):
        LP.monomial(1, (0, MAX_EXPONENT)) * parse2("x2 + 1")


@pytest.mark.parametrize("slot", [0, 2])
@pytest.mark.parametrize("bound, step", [(MAX_EXPONENT, 1), (MIN_EXPONENT, -1)])
def test_one_digit_out_of_range_is_named(slot, bound, step):
    # Every other key of each product is in range, so the message must name
    # the one key past the bound, at the first and at the last digit.
    def at(e: int) -> tuple[int, int, int]:
        exps = [0, 0, 0]
        exps[slot] = e
        return tuple(exps)

    edge, other = LP.monomial(1, at(bound)), LP.variable(1, 3)
    message = re.escape(f"exponent vector {at(bound + step)} is outside [{MIN_EXPONENT}, {MAX_EXPONENT}]")
    shift = LP.monomial(1, at(step))
    for product in (
        lambda: edge * shift,
        lambda: (edge + other) * shift,
        lambda: (edge + LP.one(3)) * (shift + other),
    ):
        with pytest.raises(ExponentOverflowError, match=message):
            product()


def test_pow_range_boundaries():
    step = MAX_EXPONENT // 3
    assert x1(step) ** 3 == x1(3 * step)
    assert x1(-step) ** -3 == x1(3 * step)
    with pytest.raises(ExponentOverflowError):
        x1(step + 1) ** 3
    with pytest.raises(ExponentOverflowError):
        (x1(step + 1) + LP.one(2)) ** 3
    with pytest.raises(ExponentOverflowError):
        x1(-step - 1) ** -3


def test_monomial_inverse_range_boundaries():
    assert x1(MIN_EXPONENT + 1).monomial_inverse() == x1(MAX_EXPONENT)
    assert x1(MAX_EXPONENT).monomial_inverse() == x1(MIN_EXPONENT + 1)
    with pytest.raises(ExponentOverflowError):
        x1(MIN_EXPONENT).monomial_inverse()


def test_div_exact_range_boundaries():
    inverse_x1 = LP.parse("x1^-1", 2)
    assert x1(MAX_EXPONENT - 1).div_exact(inverse_x1) == x1(MAX_EXPONENT)
    with pytest.raises(ExponentOverflowError):
        x1(MAX_EXPONENT).div_exact(inverse_x1)
    # General divisor: x1^e * (1 + x2) / (x1^-1 * (1 + x2)) = x1^(e + 1).
    divisor = LP.parse("x1^-1*x2 + x1^-1", 2)
    assert (x1(MAX_EXPONENT - 1) * parse2("x2 + 1")).div_exact(divisor) == x1(MAX_EXPONENT)
    with pytest.raises(ExponentOverflowError):
        (x1(MAX_EXPONENT) * parse2("x2 + 1")).div_exact(divisor)
    # An inexact division whose remainder climbs past the range is inexact:
    # the first step leaves -x1*x2^(MAX+1) + 1.
    dividend = LP.monomial(1, (2, MAX_EXPONENT - 1)) + LP.one(2)
    with pytest.raises(InexactDivisionError):
        dividend.div_exact(parse2("x1 + x2^2"))


def test_split_range_boundaries():
    inside = x1(MAX_EXPONENT) + LP.one(2)
    assert inside.split().numerator == inside
    with pytest.raises(ExponentOverflowError):
        (x1(MAX_EXPONENT) + LP.parse("x1^-1", 2)).split()


# -- text rendering ------------------------------------------------------------------


def reference_text(p: LP, names: tuple[str, ...]) -> str:
    """The canonical text form, rendered plainly from ``terms()``."""
    if p.is_zero:
        return "0"
    rendered = []
    for exps, coeff in p.terms():
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e != 0]
        magnitude = abs(coeff)
        body = "*".join(factors)
        if not factors:
            body = str(magnitude)
        elif magnitude != 1:
            body = f"{magnitude}*{body}"
        rendered.append(("-" if coeff < 0 else "+", body))
    sign, body = rendered[0]
    return (body if sign == "+" else "-" + body) + "".join(f" {s} {b}" for s, b in rendered[1:])


@given(ring_polys(1))
@example((parse2("-x1^-2*x2 + 3*x2^-1 - 1"),))
@example((parse2("-7"),))
@example((parse2("x1 - 1"),))
@example((parse2("-x1^3*x2^-3 - 2*x1*x2^-1 + 12"),))
@example((LP.constant(-1, 0),))
def test_to_text_matches_a_plain_terms_renderer(ps):
    (p,) = ps
    assert p.to_text() == reference_text(p, tuple(f"x{i + 1}" for i in range(p.nvars)))
    names = tuple(f"y{i}" for i in range(p.nvars))
    assert p.to_text(names) == reference_text(p, names)


@st.composite
def wide_rings(draw) -> tuple[LP, tuple[str, ...]]:
    """A polynomial in 0 to 25 variables, with exponents at the range bounds,
    coefficients up to 10^30 and custom variable names."""
    nvars = draw(st.integers(min_value=0, max_value=25))
    exponent = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.sampled_from([MIN_EXPONENT, MIN_EXPONENT + 1, MAX_EXPONENT - 1, MAX_EXPONENT]),
    )
    coeff = st.one_of(coeffs, st.integers(min_value=-(10**30), max_value=10**30))
    terms = draw(st.dictionaries(st.tuples(*(exponent,) * nvars), coeff, max_size=8))
    # A letter prefix and the slot number: distinct names of varied lengths.
    prefix = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=4).filter(lambda t: t[0] != "_")
    return LP(terms, nvars), tuple(f"{draw(prefix)}{i}" for i in range(nvars))


@given(wide_rings())
@example((LP.zero(0), ()))
@example((LP.constant(-(10**30), 0), ()))
@example((LP.monomial(7, (MIN_EXPONENT,)), ("t",)))
@example((LP.parse(f"x1^{MAX_EXPONENT} - x2 + 1", 2), ("a", "b")))
@example((LP.parse(f"x2^{MIN_EXPONENT}*x3 + 3*x1", 3), ("p", "q", "r")))
@example((LP.monomial(-1, (1,) * 25) + LP.monomial(1, (MAX_EXPONENT,) + (0,) * 23 + (MIN_EXPONENT,)), default_names(25)))
def test_to_text_matches_a_plain_renderer_at_every_split(ring):
    # The high half of a key holds nvars // 2 variables and the low half the
    # rest: both empty, one empty, equal and odd splits are all drawn.
    p, names = ring
    assert p.to_text(names) == reference_text(p, names)
    assert p.to_text() == reference_text(p, default_names(p.nvars))
    assert LP.parse(p.to_text(names), p.nvars, names) == p


def test_to_text_rejects_too_few_names():
    with pytest.raises(DimensionMismatchError):
        parse3("x1 + x3").to_text(("a", "b"))
