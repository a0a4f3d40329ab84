"""Exact sparse Laurent-polynomial arithmetic over the integers.

A Laurent polynomial in ``nvars`` variables maps exponent vectors to nonzero
integer coefficients; the zero polynomial has no terms.  Coefficients are
Python ints, so they never overflow, and there is no floating point anywhere.

Monomial keys.  Each exponent vector is stored as one Python int: exponent
``e`` of variable ``i`` becomes the digit ``e + EXPONENT_BIAS``, ``DIGIT_BITS``
bits wide, with the first variable in the most significant digit.  So

* the product of two monomials is one int addition, ``ka + kb - zero``, where
  ``zero`` is the key of the all-zero exponent vector;
* the numeric order of keys is the lexicographic order of exponent vectors,
  which is the canonical term order below.

Exponents are kept in ``[MIN_EXPONENT, MAX_EXPONENT]``, half of what a digit
holds, so the sum or difference of two exponents in range still fits in its
digit and never carries into the next one.  An operation whose result would
hold an exponent outside that range raises ``ExponentOverflowError``; a key
never wraps.  Exponent vectors cross the public API as tuples of ints.

Canonical text form: terms sorted by descending lexicographic order of their
exponent vectors, e.g. ``x1*x3 + 2*x2 + 1``.  ``to_text`` and ``parse``
round-trip bit-exactly.  ``to_text`` renders, and ``rename`` permutes, the
high and the low half of each key's digits apart, each distinct half once
per call.  Polynomials are
immutable, so ``zero``, ``one`` and ``variable`` return one shared object per
(slot, nvars).
"""

from __future__ import annotations

import re
import struct
from functools import cache, partial
from heapq import heapify, heappop, heappush
from operator import add, index, sub
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import DimensionMismatchError, ExponentOverflowError, InexactDivisionError, PoleError

ExponentVector = tuple[int, ...]

DIGIT_BITS = 32
EXPONENT_BIAS = 1 << (DIGIT_BITS - 1)
MIN_EXPONENT = -(1 << (DIGIT_BITS - 2))
MAX_EXPONENT = (1 << (DIGIT_BITS - 2)) - 1
# struct code of a signed DIGIT_BITS-bit int, used by _unpacker.
_DIGIT_CODE = {16: "h", 32: "i", 64: "q"}[DIGIT_BITS]


def default_names(nvars: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(nvars))


# -- packed monomial keys ------------------------------------------------------


@cache
def _zero_key(nvars: int) -> int:
    """Key of the all-zero exponent vector: every digit holds EXPONENT_BIAS.

    It is also the mask of every digit's top bit."""
    return sum(EXPONENT_BIAS << (DIGIT_BITS * i) for i in range(nvars))


@cache
def _unpacker(nvars: int) -> Callable[[int], ExponentVector]:
    """Key -> exponent vector, for any key whose digits did not carry.

    XOR with the zero key flips each digit's top bit, which turns the biased
    digit ``e + EXPONENT_BIAS`` into ``e`` read as a signed digit."""
    zero = _zero_key(nvars)
    width = nvars * DIGIT_BITS // 8
    unpack = struct.Struct(f">{nvars}{_DIGIT_CODE}").unpack

    def exponents(key: int) -> ExponentVector:
        return unpack((key ^ zero).to_bytes(width, "big"))

    return exponents


def _pack(exps: Sequence[int], nvars: int) -> int:
    """Key of an exponent vector from outside the class, checked."""
    if len(exps) != nvars:
        raise DimensionMismatchError(
            f"exponent vector {tuple(exps)} has length {len(exps)}, expected {nvars}"
        )
    key = 0
    for e in exps:
        e = index(e)
        if not MIN_EXPONENT <= e <= MAX_EXPONENT:
            raise ExponentOverflowError(
                f"exponent {e} is outside [{MIN_EXPONENT}, {MAX_EXPONENT}]"
            )
        key = (key << DIGIT_BITS) | (e + EXPONENT_BIAS)
    return key


def _check_range(keys: Iterable[int], nvars: int) -> None:
    """Raise ExponentOverflowError unless every digit of every key is in range.

    The keys must not have carried between digits, which holds for a sum or
    difference of two keys in range.  A digit ``e + EXPONENT_BIAS`` is in
    range exactly when adding ``EXPONENT_BIAS // 2`` to it sets its top bit,
    so one addition and one mask test every digit of a key."""
    zero = _zero_key(nvars)
    half = zero >> 1
    for key in keys:
        if (key + half) & zero != zero:
            raise ExponentOverflowError(
                f"exponent vector {_unpacker(nvars)(key)} is outside "
                f"[{MIN_EXPONENT}, {MAX_EXPONENT}]"
            )


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("_terms", "nvars", "_hash", "_mins")

    def __init__(self, terms: Mapping[ExponentVector, int], nvars: int):
        clean: dict[int, int] = {}
        for exps, coeff in terms.items():
            key = _pack(exps, nvars)
            if coeff:
                clean[key] = coeff
        self._terms = clean
        self.nvars = nvars
        self._hash: int | None = None
        self._mins: ExponentVector | None = None

    @classmethod
    def _adopt(
        cls, terms: dict[int, int], nvars: int, mins: ExponentVector | None = None
    ) -> LaurentPolynomial:
        """Wrap packed, in-range keys with nonzero coefficients; no checks.

        ``mins``, when given, must be the exact componentwise minimum."""
        poly = cls.__new__(cls)
        poly._terms = terms
        poly.nvars = nvars
        poly._hash = None
        poly._mins = mins
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    @cache
    def zero(cls, nvars: int) -> LaurentPolynomial:
        return cls({}, nvars)

    @classmethod
    def constant(cls, value: int, nvars: int) -> LaurentPolynomial:
        return cls.monomial(value, (0,) * nvars)

    @classmethod
    @cache
    def one(cls, nvars: int) -> LaurentPolynomial:
        return cls.constant(1, nvars)

    @classmethod
    @cache
    def variable(cls, slot: int, nvars: int) -> LaurentPolynomial:
        if not 0 <= slot < nvars:
            raise DimensionMismatchError(f"variable slot {slot} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[slot] = 1
        return cls.monomial(1, exps)

    @classmethod
    def monomial(cls, coeff: int, exps: Sequence[int]) -> LaurentPolynomial:
        exps = tuple(exps)
        poly = cls({exps: coeff}, len(exps))
        if coeff:
            poly._mins = tuple(map(index, exps))
        return poly

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def terms(self) -> list[tuple[ExponentVector, int]]:
        """Terms in canonical (descending lexicographic) order."""
        unpack = _unpacker(self.nvars)
        return [(unpack(k), self._terms[k]) for k in sorted(self._terms, reverse=True)]

    def coefficient(self, exps: Sequence[int]) -> int:
        try:
            key = _pack(exps, self.nvars)
        except (DimensionMismatchError, ExponentOverflowError):
            return 0
        return self._terms.get(key, 0)

    def coefficients(self) -> list[int]:
        return [c for _, c in self.terms()]

    def min_exponents(self) -> ExponentVector:
        """Componentwise minimum exponent over all terms (zero polynomial -> all 0)."""
        if self._mins is None:
            if self._terms:
                self._mins = tuple(map(min, zip(*map(_unpacker(self.nvars), self._terms))))
            else:
                self._mins = (0,) * self.nvars
        return self._mins

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self._terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.to_text()!r}, nvars={self.nvars})"

    # -- ring operations ----------------------------------------------------

    def _check_same_ring(self, other: LaurentPolynomial) -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"operands have {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: LaurentPolynomial) -> LaurentPolynomial:
        self._check_same_ring(other)
        big, small = self, other
        if len(big._terms) < len(small._terms):
            big, small = small, big
        cancelled = False
        if big._terms.keys().isdisjoint(small._terms):
            out = {**big._terms, **small._terms}
        else:
            out = dict(big._terms)
            get = out.get
            for key, coeff in small._terms.items():
                new = get(key, 0) + coeff
                if new:
                    out[key] = new
                else:
                    del out[key]
                    cancelled = True
        # Unless a key cancelled, the sum's keys are the union of the
        # operands' keys, so its minimum exponents are the componentwise
        # minimum.  An operand with no terms contributes none: the all-zero
        # min_exponents() of the zero polynomial is a convention, not a minimum.
        mins = None
        if not small._terms:
            mins = big._mins
        elif not cancelled and big._mins is not None and small._mins is not None:
            mins = tuple(map(min, big._mins, small._mins))
        return LaurentPolynomial._adopt(out, self.nvars, mins)

    def __neg__(self) -> LaurentPolynomial:
        return LaurentPolynomial._adopt(
            {k: -c for k, c in self._terms.items()}, self.nvars, self._mins
        )

    def __sub__(self, other: LaurentPolynomial) -> LaurentPolynomial:
        return self + (-other)

    def __mul__(self, other: LaurentPolynomial) -> LaurentPolynomial:
        self._check_same_ring(other)
        nvars = self.nvars
        zero = _zero_key(nvars)
        # A product by the constant 1 is the other operand: polynomials are immutable.
        one = {zero: 1}
        if self._terms == one:
            return other
        if other._terms == one:
            return self
        small, big = self._terms, other._terms
        if len(small) > len(big):
            small, big = big, small
        if not small:
            return LaurentPolynomial._adopt({}, nvars)
        if len(small) == 1:
            (ka, ca), = small.items()
            shift = ka - zero
            out = {kb + shift: ca * cb for kb, cb in big.items()}
        else:
            acc: dict[int, int] = {}
            get = acc.get
            for ka, ca in small.items():
                shift = ka - zero
                for kb, cb in big.items():
                    key = kb + shift
                    acc[key] = get(key, 0) + ca * cb
            out = {k: c for k, c in acc.items() if c}
        _check_range(out, nvars)
        # Z[x^±1] is a domain, so the lowest x_i-face of a product is the
        # product of the lowest faces: minimum exponents add exactly.
        mins = None
        if self._mins is not None and other._mins is not None:
            mins = tuple(map(add, self._mins, other._mins))
        return LaurentPolynomial._adopt(out, nvars, mins)

    def __pow__(self, power: int) -> LaurentPolynomial:
        if power < 0:
            return self.monomial_inverse() ** (-power)
        if power == 0:
            return LaurentPolynomial.one(self.nvars)
        if power > 1 and len(self._terms) > 1:
            # Z[x^±1] is a domain, so each extreme exponent of the power is
            # power times the base's: check them before any product.
            columns = tuple(zip(*map(_unpacker(self.nvars), self._terms)))
            for extreme in (min, max):
                exps = tuple(power * extreme(column) for column in columns)
                if not all(MIN_EXPONENT <= e <= MAX_EXPONENT for e in exps):
                    raise ExponentOverflowError(
                        f"exponent vector {exps} is outside [{MIN_EXPONENT}, {MAX_EXPONENT}]"
                    )
        # Right-to-left binary powering: the result starts as the power of the
        # lowest set bit, and the base is squared only while bits remain, so
        # power 1 costs no product and power 3 costs two.
        base = self
        result = None
        while True:
            if power & 1:
                result = base if result is None else result * base
            power >>= 1
            if not power:
                return result
            base = base * base

    def monomial_inverse(self) -> LaurentPolynomial:
        """Inverse of a one-term polynomial with unit coefficient."""
        if len(self._terms) != 1:
            raise InexactDivisionError("only monomials are invertible")
        (key, coeff), = self._terms.items()
        if coeff not in (1, -1):
            raise InexactDivisionError(f"monomial coefficient {coeff} is not a unit")
        inverse = 2 * _zero_key(self.nvars) - key
        _check_range((inverse,), self.nvars)
        return LaurentPolynomial._adopt({inverse: coeff}, self.nvars)

    def div_exact(self, divisor: LaurentPolynomial) -> LaurentPolynomial:
        """Exact quotient self / divisor; raises InexactDivisionError otherwise.

        A quotient term outside the exponent range raises ExponentOverflowError
        as soon as it is reached, before exactness is settled."""
        self._check_same_ring(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPolynomial.zero(self.nvars)
        # Divide by the lexicographic leading term of the divisor, taking the
        # remainder's leading term from a max-heap of keys (Monagan & Pearce,
        # J. Symb. Comp. 2011).  Heap entries whose key left the remainder
        # are skipped when popped.  Guards that prove exactness and an end:
        #  * every quotient term t satisfies t >= min(self) - min(divisor)
        #    componentwise: shifting both operands to ordinary polynomials,
        #    the leading-term quotient must have nonnegative exponents;
        #  * an exact division keeps every remainder term inside the
        #    exponent box of self, so a remainder key out of range is inexact.
        # Remainder keys then stay >= min(self) and in range, a finite set
        # that the strictly falling leading key walks down.
        nvars = self.nvars
        zero = _zero_key(nvars)
        low = zero >> 1
        mins_a, mins_b = self.min_exponents(), divisor.min_exponents()
        # Digit i of t - floor is (lead_r - mins_a)_i - (lead_b - mins_b)_i
        # plus the bias; both brackets lie in [0, 2^(DIGIT_BITS-1)), so nothing
        # carries, and every top bit is set iff t >= mins_a - mins_b.
        floor = _pack(mins_a, nvars) - _pack(mins_b, nvars)
        divisor_terms = divisor._terms
        lead_b = max(divisor_terms)
        coeff_b = divisor_terms[lead_b]
        tail = [(kb - lead_b, cb) for kb, cb in divisor_terms.items() if kb != lead_b]
        rem = dict(self._terms)
        heap = [-k for k in rem]
        heapify(heap)
        quotient: dict[int, int] = {}
        while rem:
            lead_r = -heappop(heap)
            coeff_r = rem.pop(lead_r, 0)
            if not coeff_r:
                continue
            if (lead_r ^ (lead_r >> 1)) & low != low:
                raise InexactDivisionError("division left a nonzero remainder")
            t = lead_r - lead_b + zero
            if (t - floor) & zero != zero or coeff_r % coeff_b:
                raise InexactDivisionError("division left a nonzero remainder")
            if (t ^ (t >> 1)) & low != low:
                _check_range((t,), nvars)  # raises, naming the exponent vector
            c = coeff_r // coeff_b
            quotient[t] = c
            for offset, cb in tail:
                key = lead_r + offset
                old = rem.get(key)
                if old is None:
                    rem[key] = -c * cb
                    heappush(heap, -key)
                else:
                    new = old - c * cb
                    if new:
                        rem[key] = new
                    else:
                        del rem[key]
        return LaurentPolynomial._adopt(quotient, nvars, tuple(map(sub, mins_a, mins_b)))

    # -- substitution --------------------------------------------------------

    def substitute(self, assignment: Mapping[int, LaurentPolynomial]) -> LaurentPolynomial:
        """Simultaneous substitution of polynomials for variable slots.

        The target ring is the assigned values' ring (self's ring when nothing
        is assigned); unassigned slots map to the same slot of it.  A negative
        power of an assigned value raises PoleError unless the value is a
        nonzero monomial, and InexactDivisionError unless its coefficient is a
        unit.

        Each value**power is computed once.  While its factors have at most
        one term, a term only moves its packed key and scales its coefficient
        (zero drops it; its slots are still all checked).
        """
        if assignment:
            sizes = {v.nvars for v in assignment.values()}
            if len(sizes) != 1:
                raise DimensionMismatchError(f"assigned values live in different rings: {sizes}")
            target = sizes.pop()
        else:
            target = self.nvars

        unpack = _unpacker(self.nvars)
        zero = _zero_key(target)
        low = zero >> 1
        powers: dict[tuple[int, int], LaurentPolynomial] = {}  # (slot, power) -> value**power
        out: dict[int, int] = {}
        for key, coeff in self._terms.items():
            shifted, acc = zero, None
            for slot, power in enumerate(unpack(key)):
                if power == 0:
                    continue
                factor = powers.get((slot, power))
                if factor is None:
                    value = assignment.get(slot)
                    if value is None:
                        if slot >= target:
                            raise DimensionMismatchError(
                                f"unassigned slot {slot} does not exist in a {target}-variable ring"
                            )
                        value = LaurentPolynomial.variable(slot, target)
                    elif power < 0 and not value.is_monomial:
                        raise PoleError(
                            f"negative power of slot {slot} needs a nonzero monomial value; "
                            "clear denominators first"
                        )
                    factor = powers[slot, power] = value**power
                if acc is None and len(factor._terms) <= 1:
                    # A zero factor drops the term; in-range keys add without a carry.
                    (k, c), = factor._terms.items() or ((zero, 0),)
                    shifted, coeff = shifted + k - zero, coeff * c
                    if coeff and (shifted ^ (shifted >> 1)) & low != low:
                        _check_range((shifted,), target)
                    continue
                if acc is None:
                    acc = LaurentPolynomial._adopt({shifted: coeff} if coeff else {}, target)
                acc = acc * factor
            for k, c in acc._terms.items() if acc is not None else ((shifted, coeff),):
                out[k] = out.get(k, 0) + c
        return LaurentPolynomial._adopt({k: c for k, c in out.items() if c}, target)

    def rename(self, perm: Sequence[int]) -> LaurentPolynomial:
        """The image under x_i -> x_perm[i], for a permutation ``perm`` of the
        slots.  As in ``to_text``, each key is cut into its high and low
        digits, and each distinct half is moved once per call; the minimum
        exponents move along."""
        nvars = self.nvars
        if sorted(perm) != list(range(nvars)):
            raise ValueError(f"{tuple(perm)} is not a permutation of {nvars} slots")
        cut = nvars // 2
        shift = DIGIT_BITS * (nvars - cut)
        mask = (1 << shift) - 1

        def mover(slots: range) -> Callable[[ExponentVector], int]:
            places = [DIGIT_BITS * (nvars - 1 - perm[i]) for i in slots]
            return lambda exps: sum((e + EXPONENT_BIAS) << p for e, p in zip(exps, places))

        high = _Halves(cut, mover(range(cut)))
        low = _Halves(nvars - cut, mover(range(cut, nvars)))
        terms = {high[k >> shift] + low[k & mask]: c for k, c in self._terms.items()}
        mins = self.min_exponents()
        return LaurentPolynomial._adopt(terms, nvars, tuple(mins[perm.index(j)] for j in range(nvars)))

    # -- numerator/denominator splitting -------------------------------------

    def split(self) -> MonomialFactorization:
        """Split into a monomial-free numerator and a denominator exponent vector.

        ``denominator[i]`` is the negated minimum exponent of variable ``i``;
        initial variables therefore split with a ``-1`` entry.  A polynomial
        whose minimum exponents are all zero is its own numerator.
        """
        if self.is_zero:
            raise ValueError("cannot split the zero polynomial")
        nvars = self.nvars
        mins = self.min_exponents()
        if not any(mins):
            return MonomialFactorization(self, mins)
        shift = _pack(mins, nvars) - _zero_key(nvars)
        out = {k - shift: c for k, c in self._terms.items()}
        _check_range(out, nvars)
        numerator = LaurentPolynomial._adopt(out, nvars, (0,) * nvars)
        return MonomialFactorization(numerator, tuple(-m for m in mins))

    # -- text form -------------------------------------------------------------

    def to_text(self, names: Sequence[str] | None = None) -> str:
        """The canonical text form.  Each key is cut into its high ``nvars // 2``
        digits and the rest, each a key of a smaller ring and each rendered the
        first time it is met, so a term costs two dict lookups and one join."""
        terms = self._terms
        if not terms:
            return "0"
        nvars = self.nvars
        names = tuple(names) if names is not None else default_names(nvars)
        if len(names) < nvars:
            raise DimensionMismatchError(f"{len(names)} names for {nvars} variables")
        cut = nvars // 2
        shift = DIGIT_BITS * (nvars - cut)
        mask = (1 << shift) - 1
        high = _Halves(cut, partial(_monomial_text, names[:cut]))
        low = _Halves(nvars - cut, partial(_monomial_text, names[cut:nvars]))
        pieces: list[str] = []
        for key in sorted(terms, reverse=True):
            coeff = terms[key]
            magnitude = abs(coeff)
            h, l = high[key >> shift], low[key & mask]
            body = f"{h}*{l}" if h and l else h or l
            if not body:
                body = str(magnitude)
            elif magnitude != 1:
                body = f"{magnitude}*{body}"
            pieces.append((" - " if coeff < 0 else " + ") + body)
        # The first term keeps only its sign, and only a minus.
        head = pieces[0]
        pieces[0] = head[3:] if head[1] == "+" else "-" + head[3:]
        return "".join(pieces)

    @classmethod
    def parse(
        cls,
        text: str,
        nvars: int,
        names: Sequence[str] | None = None,
    ) -> LaurentPolynomial:
        """Parse the canonical text form back into a polynomial."""
        names = tuple(names) if names is not None else default_names(nvars)
        slot_of = {name: i for i, name in enumerate(names)}
        stripped = text.strip()
        if stripped in ("", "0"):
            return cls.zero(nvars)
        terms: dict[ExponentVector, int] = {}
        for sign, chunk in _split_terms(stripped):
            coeff = sign
            exps = [0] * nvars
            for factor in chunk.split("*"):
                factor = factor.strip()
                if re.fullmatch(r"\d+", factor):
                    coeff *= int(factor)
                    continue
                m = re.fullmatch(r"([A-Za-z]\w*)(?:\^(-?\d+))?", factor)
                if m is None or m.group(1) not in slot_of:
                    raise ValueError(f"cannot parse factor {factor!r}")
                exps[slot_of[m.group(1)]] += int(m.group(2) or 1)
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
        return cls(terms, nvars)


class _Halves(dict):
    """Key of a ``width``-variable ring -> ``make`` of its exponent vector,
    each made the first time it is asked for."""

    __slots__ = ("make", "unpack")

    def __init__(self, width: int, make: Callable[[ExponentVector], object]):
        super().__init__()
        self.make = make
        self.unpack = _unpacker(width)

    def __missing__(self, key: int):
        value = self[key] = self.make(self.unpack(key))
        return value


def _monomial_text(names: Sequence[str], exps: Iterable[int]) -> str:
    """The ``*``-joined factors of a monomial; ``""`` for the constant one."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e)


def _split_terms(text: str) -> Iterable[tuple[int, str]]:
    # A +/- separates terms unless it directly follows '^' (an exponent sign).
    chunks: list[tuple[int, str]] = []
    sign = 1
    current: list[str] = []
    prev = ""
    for ch in text:
        if ch in "+-" and prev != "^":
            if current and "".join(current).strip():
                chunks.append((sign, "".join(current).strip()))
            sign = 1 if ch == "+" else -1
            current = []
        else:
            current.append(ch)
        if not ch.isspace():
            prev = ch
    if current and "".join(current).strip():
        chunks.append((sign, "".join(current).strip()))
    return chunks


class MonomialFactorization(NamedTuple):
    """A polynomial written as numerator / (product of variable powers); immutable."""

    numerator: LaurentPolynomial
    denominator: ExponentVector

    def recombine(self) -> LaurentPolynomial:
        shift = LaurentPolynomial.monomial(1, tuple(-d for d in self.denominator))
        return self.numerator * shift

    def to_text(self, names: Sequence[str] | None = None) -> str:
        names = tuple(names) if names is not None else default_names(self.numerator.nvars)
        return self.over_denominator(self.numerator.to_text(names), names)

    def over_denominator(self, numerator: str, names: Sequence[str]) -> str:
        """``to_text`` given the numerator already rendered with ``names``."""
        denominator = _monomial_text(names, self.denominator)
        if not denominator:
            return numerator
        if len(self.numerator) > 1:
            numerator = f"({numerator})"
        return f"{numerator} / {denominator}"
