"""Exact primitives on finite words: periods, exponents, primitivity, conjugacy.

Words are immutable sequences of single-character letters over an explicit
alphabet.  Exponents are exact rationals (``fractions.Fraction``); nothing in
this module goes through floating point, so identities like E(w) = 15/7 can be
checked with ``==``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from string import ascii_lowercase, ascii_uppercase, digits
from typing import Iterable, Iterator, NamedTuple, Union

Rational = Fraction

WordLike = Union["Word", str]

# Pool used when synthetic alphabets are needed (fresh letters, generated
# families).  Uppercase first so generated domain letters do not collide with
# the lowercase codomains used throughout.
LETTER_POOL = ascii_uppercase + ascii_lowercase + digits


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

    def index(self, letter: str) -> int:
        return self.letters.index(letter)

    def issubset(self, other: "Alphabet") -> bool:
        return set(self.letters) <= set(other.letters)

    def union(self, other: "Alphabet") -> "Alphabet":
        extra = tuple(ch for ch in other.letters if ch not in self.letters)
        if not extra:
            return self
        return Alphabet(self.letters + extra)


def fresh_letters(count: int, avoid: Iterable[str] = (), pool: str = LETTER_POOL) -> list[str]:
    """First `count` pool characters not in `avoid`."""
    taken = set(avoid)
    out = [ch for ch in pool if ch not in taken]
    if len(out) < count:
        raise WordError(f"letter pool exhausted: needed {count} fresh letters")
    return out[:count]


class Word:
    """A finite word, one ASCII character per letter.

    Words compare equal by their text (the alphabet is carrier metadata used
    for validation and display).  Slicing and concatenation return words;
    concatenation of words over different alphabets takes the alphabet union.
    """

    __slots__ = ("text", "alphabet")

    def __init__(self, text: str = "", alphabet: Alphabet | None = None):
        if alphabet is None:
            alphabet = Alphabet(sorted(set(text)))
        else:
            for ch in text:
                if ch not in alphabet:
                    raise WordError(f"letter {ch!r} not in alphabet {alphabet!r}")
        self.text = text
        self.alphabet = alphabet

    @classmethod
    def _make(cls, text: str, alphabet: Alphabet) -> "Word":
        # Trusted constructor: skips the per-letter validation.
        w = cls.__new__(cls)
        w.text = text
        w.alphabet = alphabet
        return w

    def __len__(self) -> int:
        return len(self.text)

    def __bool__(self) -> bool:
        return bool(self.text)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Word({self.text!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Word):
            return self.text == other.text
        if isinstance(other, str):
            return self.text == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.text)

    def __iter__(self) -> Iterator[str]:
        return iter(self.text)

    def __getitem__(self, item: int | slice) -> Union[str, "Word"]:
        if isinstance(item, slice):
            if item.step not in (None, 1):
                raise WordError("words do not support strided slicing")
            return Word._make(self.text[item], self.alphabet)
        return self.text[item]

    def __add__(self, other: WordLike) -> "Word":
        if isinstance(other, Word):
            return Word._make(self.text + other.text, self.alphabet.union(other.alphabet))
        return Word(self.text + other, None if any(ch not in self.alphabet for ch in other) else self.alphabet)

    def __mul__(self, times: int) -> "Word":
        return Word._make(self.text * times, self.alphabet)

    def __contains__(self, factor: WordLike) -> bool:
        return _text(factor) in self.text

    def startswith(self, prefix: WordLike) -> bool:
        return self.text.startswith(_text(prefix))

    def endswith(self, suffix: WordLike) -> bool:
        return self.text.endswith(_text(suffix))

    def find(self, factor: WordLike, start: int = 0) -> int:
        return self.text.find(_text(factor), start)

    def count(self, factor: WordLike) -> int:
        return self.text.count(_text(factor))

    def letters(self) -> set[str]:
        """Letters that actually occur (alph(w), not the declared alphabet)."""
        return set(self.text)


def _text(w: WordLike) -> str:
    return w.text if isinstance(w, Word) else w


def as_word(w: WordLike, alphabet: Alphabet | None = None) -> Word:
    if isinstance(w, Word):
        return w
    return Word(w, alphabet)


def parse_rational(literal: str) -> Fraction:
    """Parse "p/q" (or "p") into an exact rational."""
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {literal!r}: {exc}") from None


class FractionalPower(NamedTuple):
    """A word written as base^exponent with the base primitive."""

    base: Word
    exponent: Fraction

    def word(self) -> Word:
        return fractional_power(self.base, self.exponent)


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


def smallest_period(w: WordLike) -> int:
    """Least p >= 1 with w[i] == w[i+p] for all valid i."""
    text = _text(w)
    if not text:
        raise WordError("empty input")
    return len(text) - border_array(text)[len(text)]


def repeat_to_length(base: WordLike, length: int) -> Word:
    """Prefix of base^omega of the given length."""
    b = as_word(base)
    if not b:
        raise WordError("empty base word")
    if length < 0:
        raise WordError("negative length")
    reps = -(-length // len(b))
    return Word._make(b.text * reps, b.alphabet)[0:length]


def fractional_power(base: WordLike, exponent: Fraction | int) -> Word:
    """The word base^exponent; exponent * |base| must be an integer."""
    b = as_word(base)
    if not b:
        raise WordError("empty base word")
    total = Fraction(exponent) * len(b)
    if total.denominator != 1 or total < 0:
        raise WordError(f"{exponent} * |{b}| is not a valid word length")
    return repeat_to_length(b, int(total))


def fractional_exponent(w: WordLike) -> FractionalPower:
    """E(w): the pair (x, r) with w = x^r, x primitive and r maximal.

    r = |w| / smallest_period(w) and x is the prefix of that length; the
    prefix of a word cut at its smallest period is always primitive.
    """
    word = as_word(w)
    if not word:
        raise WordError("empty input")
    p = smallest_period(word)
    return FractionalPower(word[0:p], Fraction(len(word), p))


def integer_exponent(w: WordLike) -> tuple[int, Word]:
    """IE(w): maximal n with w = root^n, root primitive."""
    word = as_word(w)
    if not word:
        raise WordError("empty input")
    p = smallest_period(word)
    if len(word) % p == 0:
        return len(word) // p, word[0:p]
    return 1, word


def primitive_root(w: WordLike) -> Word:
    return integer_exponent(w)[1]


def is_primitive(w: WordLike) -> bool:
    """True iff w is not a proper integer power; equivalently w occurs in ww
    only at positions 0 and |w|."""
    text = _text(w)
    if not text:
        raise WordError("empty input")
    return (text + text).find(text, 1) == len(text)


def is_conjugate(u: WordLike, v: WordLike) -> bool:
    """True iff u and v are rotations of one another."""
    ut, vt = _text(u), _text(v)
    if not ut or not vt:
        raise WordError("empty input")
    return len(ut) == len(vt) and vt in (ut + ut)


def prefix_comparable(u: WordLike, v: WordLike) -> bool:
    """True iff one of u, v is a prefix of the other (equivalently, u is a
    prefix of vs for some word s)."""
    ut, vt = _text(u), _text(v)
    return ut.startswith(vt) or vt.startswith(ut)


def suffix_comparable(u: WordLike, v: WordLike) -> bool:
    """True iff one of u, v is a suffix of the other (equivalently, u is a
    suffix of pv for some word p)."""
    ut, vt = _text(u), _text(v)
    return ut.endswith(vt) or vt.endswith(ut)


def fine_wilf_root(u: WordLike, v: WordLike) -> Word | None:
    """Common primitive root of u and v when their infinite powers share a
    prefix of length |u| + |v| - gcd(|u|, |v|); None otherwise."""
    uw, vw = as_word(u), as_word(v)
    if not uw or not vw:
        raise WordError("empty input")
    bound = len(uw) + len(vw) - gcd(len(uw), len(vw))
    if repeat_to_length(uw, bound) != repeat_to_length(vw, bound):
        return None
    return primitive_root(uw)


def minimal_period_profile(w: WordLike) -> tuple[list[int], list[int]]:
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
    text = _text(w)
    if not text:
        raise WordError("empty input")
    n = len(text)
    minper = list(range(n + 1))  # a length-L factor trivially has period L
    start = [0] * (n + 1)
    letters = set(text)
    rev = text[::-1]  # bit i of a plane is position i
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


def max_exponent_factor(w: WordLike, min_len: int = 1) -> tuple[Word, Fraction]:
    """Among factors of length >= min_len, one with maximal fractional
    exponent (ties: shortest factor, then leftmost occurrence)."""
    word = as_word(w)
    if not word:
        raise WordError("empty input")
    if not 1 <= min_len <= len(word):
        raise WordError(f"min_len {min_len} out of range 1..{len(word)}")
    minper, start = minimal_period_profile(word)
    length, period, pos = _select_max_exponent(minper, start, min_len, len(word))
    return word[pos:pos + length], Fraction(length, period)
