"""Exact primitives on finite words: periods, exponents, primitivity, conjugacy.

Words are plain ``str`` values, one character per letter.  Exponents are
exact rationals (``fractions.Fraction``); nothing in this module goes through
floating point, so identities like E(w) = 15/7 can be checked with ``==``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from string import ascii_lowercase, ascii_uppercase, digits
from typing import Iterable, Iterator, NamedTuple

# Pool used when synthetic alphabets are needed (fresh letters, generated
# families).  Uppercase first so generated domain letters do not collide with
# the lowercase codomains used throughout.
LETTER_POOL = ascii_uppercase + ascii_lowercase + digits

# The most letters a built word (a witness or family image, a generator
# prefix) may have.  Sizes follow from the inputs, so anything longer is
# refused before it is built.
MAX_BUILD_LETTERS = 10_000_000


class WordError(ValueError):
    """An operation's precondition was violated."""


class ParseError(WordError):
    """A text literal (word, morphism, code set, rational) failed to parse."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (position {position})")
        self.position = position


class Alphabet:
    """An ordered set of single-character letters."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[str]):
        letters = tuple(letters)
        seen = set()
        for ch in letters:
            if not isinstance(ch, str) or len(ch) != 1:
                raise WordError(f"alphabet letters must be single characters, got {ch!r}")
            if ch in seen:
                raise WordError(f"duplicate letter {ch!r} in alphabet")
            seen.add(ch)
        self.letters = letters

    def __contains__(self, letter: object) -> bool:
        return letter in self.letters

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.letters)!r})"


def fresh_letters(count: int, avoid: Iterable[str] = (), pool: str = LETTER_POOL) -> list[str]:
    """First `count` pool characters not in `avoid`."""
    taken = set(avoid)
    out = [ch for ch in pool if ch not in taken]
    if len(out) < count:
        raise WordError(f"letter pool exhausted: needed {count} fresh letters")
    return out[:count]


def parse_rational(literal: str) -> Fraction:
    """Parse "p/q" (or "p") into an exact rational."""
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {literal!r}: {exc}") from None


class FractionalPower(NamedTuple):
    """A word written as base^exponent with the base primitive."""

    base: str
    exponent: Fraction


def border_array(text: str) -> list[int]:
    """Failure function: border[i] = length of the longest proper border of
    text[:i].  border[0] is 0 by convention."""
    n = len(text)
    border = [0] * (n + 1)
    k = 0
    for i in range(1, n):
        c = text[i]
        while k and text[k] != c:
            k = border[k]
        if text[k] == c:
            k += 1
        border[i + 1] = k
    return border


def smallest_period(w: str) -> int:
    """Least p >= 1 with w[i] == w[i+p] for all valid i."""
    if not w:
        raise WordError("empty input")
    return len(w) - border_array(w)[len(w)]


def repeat_to_length(base: str, length: int) -> str:
    """Prefix of base^omega of the given length."""
    if not base:
        raise WordError("empty base word")
    if length < 0:
        raise WordError("negative length")
    return (base * -(-length // len(base)))[:length]


def fractional_power(base: str, exponent: Fraction | int) -> str:
    """The word base^exponent; exponent * |base| must be an integer."""
    if not base:
        raise WordError("empty base word")
    total = Fraction(exponent) * len(base)
    if total.denominator != 1 or total < 0:
        raise WordError(f"{exponent} * |{base}| is not a valid word length")
    return repeat_to_length(base, int(total))


def fractional_exponent(w: str) -> FractionalPower:
    """E(w): the pair (x, r) with w = x^r, x primitive and r maximal.

    r = |w| / smallest_period(w) and x is the prefix of that length; the
    prefix of a word cut at its smallest period is always primitive.
    """
    p = smallest_period(w)
    return FractionalPower(w[:p], Fraction(len(w), p))


def integer_exponent(w: str) -> tuple[int, str]:
    """IE(w): maximal n with w = root^n, root primitive."""
    p = smallest_period(w)
    if len(w) % p == 0:
        return len(w) // p, w[:p]
    return 1, w


def primitive_root(w: str) -> str:
    return integer_exponent(w)[1]


def is_primitive(w: str) -> bool:
    """True iff w is not a proper integer power; equivalently w occurs in ww
    only at positions 0 and |w|."""
    if not w:
        raise WordError("empty input")
    return (w + w).find(w, 1) == len(w)


def is_conjugate(u: str, v: str) -> bool:
    """True iff u and v are rotations of one another."""
    if not u or not v:
        raise WordError("empty input")
    return len(u) == len(v) and v in (u + u)


def prefix_comparable(u: str, v: str) -> bool:
    """True iff one of u, v is a prefix of the other (equivalently, u is a
    prefix of vs for some word s)."""
    return u.startswith(v) or v.startswith(u)


def suffix_comparable(u: str, v: str) -> bool:
    """True iff one of u, v is a suffix of the other (equivalently, u is a
    suffix of pv for some word p)."""
    return u.endswith(v) or v.endswith(u)


def fine_wilf_root(u: str, v: str) -> str | None:
    """Common primitive root of u and v when their infinite powers share a
    prefix of length |u| + |v| - gcd(|u|, |v|); None otherwise."""
    if not u or not v:
        raise WordError("empty input")
    bound = len(u) + len(v) - gcd(len(u), len(v))
    if repeat_to_length(u, bound) != repeat_to_length(v, bound):
        return None
    return primitive_root(u)


def minimal_period_profile(w: str) -> tuple[list[int], list[int]]:
    """Per factor length L in 1..|w|: the minimum smallest-period over all
    length-L factors, and the leftmost start position achieving it.

    Returns (minper, start), both indexed by L with index 0 unused.

    Bit-parallel (shift-and): bit i of the agreement mask at shift p is set
    iff w[i] == w[i + p], and a run of L - p agreements from bit i is a
    length-L factor at i with period p.  Shifts are visited in ascending
    order, so a length is settled at the first shift whose longest run is
    long enough, at the lowest start of such a run.  Lengths no shift
    settles keep minper[L] = L and start 0.  Each shift costs O(sigma +
    log n) operations on n-bit ints, and the skip rule settles each length
    once: O((sigma + log n) * n^2 / w) word operations in all.
    """
    if not w:
        raise WordError("empty input")
    n = len(w)
    minper = list(range(n + 1))  # a length-L factor trivially has period L
    start = [0] * (n + 1)
    letters = set(w)
    rev = w[::-1]  # bit i of a plane is position i
    zeros = {ord(ch): "0" for ch in letters}
    planes = [int(rev.translate({**zeros, ord(ch): "1"}), 2) for ch in letters]
    # minper is non-decreasing in L (a factor's prefix keeps its period), so
    # the lengths still unsettled at any shift are exactly those >= unsettled.
    unsettled = 2
    for p in range(1, n):
        # A length L <= p settles at no shift from here on (periods < L).
        unsettled = max(unsettled, p + 1)
        if unsettled > n:
            break
        agree = 0
        for plane in planes:
            agree |= plane & (plane >> p)
        if not agree:
            continue
        # powers[j]: starts of runs of at least 2**j agreements.
        powers = [agree]
        while powers[-1]:
            powers.append(powers[-1] & (powers[-1] >> (1 << (len(powers) - 1))))
        # powers[-1] == 0: no run reaches 2**(len(powers) - 1) agreements,
        # so a shift that needs that many settles nothing.
        if (unsettled - p) >> (len(powers) - 1):
            continue
        # Longest run, by descending through the powers.
        longest, runs = 1 << (len(powers) - 2), powers[-2]
        for j in range(len(powers) - 3, -1, -1):
            longer = runs & (powers[j] >> longest)
            if longer:
                longest, runs = longest + (1 << j), longer
        if p + longest < unsettled:
            continue
        # Runs of the first unsettled length's k = L - p agreements, composed
        # from the powers; each next length needs one more agreement.
        k = unsettled - p
        runs, have = -1, 0
        for j in range(k.bit_length()):
            if k >> j & 1:
                runs &= powers[j] >> have
                have += 1 << j
        for length in range(unsettled, p + longest + 1):
            minper[length] = p
            start[length] = (runs & -runs).bit_length() - 1
            runs &= agree >> (length - p)
        unsettled = p + longest + 1
    return minper, start


def _select_max_exponent(minper: list[int], start: list[int], lo: int, hi: int) -> tuple[int, int, int]:
    """Pick (length, period, start) maximizing length/period over lengths in
    lo..hi; ties broken by shorter length, then leftmost start."""
    best_len, best_per, best_start = lo, minper[lo], start[lo]
    for length in range(lo + 1, hi + 1):
        p = minper[length]
        if length * best_per > best_len * p:
            best_len, best_per, best_start = length, p, start[length]
    return best_len, best_per, best_start


def max_exponent_factor(w: str, min_len: int = 1) -> tuple[str, Fraction]:
    """Among factors of length >= min_len, one with maximal fractional
    exponent (ties: shortest factor, then leftmost occurrence)."""
    if not w:
        raise WordError("empty input")
    if not 1 <= min_len <= len(w):
        raise WordError(f"min_len {min_len} out of range 1..{len(w)}")
    minper, start = minimal_period_profile(w)
    length, period, pos = _select_max_exponent(minper, start, min_len, len(w))
    return w[pos:pos + length], Fraction(length, period)
