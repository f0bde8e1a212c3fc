"""Exact primitives on finite words: periods, exponents, comparability.

Words are plain ``str`` values, one character per letter, and so are
alphabets: a str of distinct letters, in order.  Exponents are
exact rationals (``fractions.Fraction``); nothing in this module goes through
floating point, so identities like E(w) = 15/7 can be checked with ``==``.
"""

from __future__ import annotations

from fractions import Fraction
from string import ascii_lowercase, ascii_uppercase, digits
from typing import Iterable, NamedTuple, Sequence

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
        self.message, self.position = message, position


def letter_set(letters: Iterable[str]) -> str:
    """An alphabet: the letters joined into one str, in order.  Raises
    WordError for a letter that is not a single character or that repeats."""
    seen: dict[str, None] = {}
    for ch in letters:
        if not isinstance(ch, str) or len(ch) != 1:
            raise WordError(f"alphabet letters must be single characters, got {ch!r}")
        if ch in seen:
            raise WordError(f"duplicate letter {ch!r} in alphabet")
        seen[ch] = None
    return "".join(seen)


def _check_build_size(what: str, letters: int, limit: int) -> None:
    if letters > limit:
        raise WordError(f"{what} would have {letters} letters, more than the limit of {limit}")


def fresh_letters(count: int, avoid: Iterable[str] = ()) -> str:
    """First `count` characters of LETTER_POOL not in `avoid`; items of
    avoid other than single letters avoid nothing.

    One bytes translate deletes avoid's letters from the ASCII pool, which
    no non-ASCII letter can be in: a str translate leaves its fast path at
    the first deletion and took longer than a loop over the pool."""
    if not isinstance(avoid, str):
        # Through a set, so that an unhashable item raises TypeError.
        avoid = "".join([ch for ch in set(avoid) if isinstance(ch, str) and len(ch) == 1])
    out = LETTER_POOL.encode().translate(None, avoid.encode("ascii", "ignore")).decode()
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
    """Least p >= 1 with w[i] == w[i+p] for all valid i: the period kernel
    `_period_at_most` with no bound below |w|."""
    return _period_at_most(w, len(w))


# Candidate periods are the places where the first _NEEDLE letters of the
# word occur again (or more letters, when the bound asks for them).
_NEEDLE = 16


def _common_prefix(w: str, p: int, known: int) -> int:
    """The length of the longest common prefix of w and w[p:], whose first
    `known` letters are known to agree: `startswith` on slices that double
    in length until one differs, then a binary search inside it."""
    top = len(w) - p
    lo, step = known, max(known, 1)
    while True:
        hi = min(lo + step, top)
        if hi == lo:
            return lo
        if not w.startswith(w[p + lo:p + hi], lo):
            break
        lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if w.startswith(w[p + lo:p + mid], lo):
            lo = mid
        else:
            hi = mid
    return lo


def _period_at_most(w: str, bound: int) -> int | None:
    """smallest_period(w) when it is at most `bound`, else None: the one
    period kernel, in a few C-speed string calls per word.  Its one caller
    with a bound below |w| is the scorer of `mapped_exponent_lower_bound`.

    A period p leaves a border w[p:] = w[:n - p], so with a needle of m =
    max(n - bound, min(n - 1, 16)) letters, a period p <= n - m puts w[:m]
    again at p: `str.find` (two-way matching, in C) lists these candidates
    in ascending order, and `_common_prefix` extends each to its extent L =
    p + lcp(w, w[p:]); p is a period iff L = n.  A failed p skips every
    shift q <= L - p (Fine and Wilf): w[:L] has period p, so a period q of
    w would make gcd(p, q) a period of w[:L] and force w[L] = w[L - q] =
    w[L - p], which L denies; the argument uses only that w[:L] has period
    p, so it holds after earlier skips as well.  The periods above n - m,
    whose borders are shorter than the needle, are checked at the
    occurrences of w[:max(n - bound, 1)] past the last skip.

    The linear-time border array (Knuth, Morris and Pratt) takes over once
    the failed candidates have compared more than 8n letters, or once they
    outnumber 8 + n / 256: a word like Thue-Morse, whose prefix recurs every
    few dozen letters with short extents, would otherwise pay a few Python
    calls per candidate, more than the border array's loop costs.
    """
    if not w:
        raise WordError("empty input")
    n = len(w)
    m = max(n - bound, min(n - 1, _NEEDLE))
    needle = w[:m]
    compared, failed = 0, 0
    start = 1
    while (p := w.find(needle, start)) != -1:
        lcp = _common_prefix(w, p, m)
        if lcp == n - p:
            return p
        compared += lcp
        failed += 1
        if compared > 8 * n or failed > 8 + n // 256:
            period = n - border_array(w)[n]
            return period if period <= bound else None
        start = max(p + 1, lcp + 1)
    short = w[:max(n - bound, 1)]
    p = w.find(short, max(start, n - m + 1))
    while p != -1:
        if w.startswith(w[p:]):
            return p
        p = w.find(short, p + 1)
    return n if bound >= n else None


def fractional_exponent(w: str) -> FractionalPower:
    """E(w): the pair (x, r) with w = x^r, x primitive and r maximal.

    r = |w| / smallest_period(w) and x is the prefix of that length; the
    prefix of a word cut at its smallest period is always primitive.
    """
    p = smallest_period(w)
    return FractionalPower(w[:p], Fraction(len(w), p))


def _integer_power(w: str, power: FractionalPower) -> tuple[int, str]:
    """IE(w), the maximal n with w = root^n and root primitive, read off
    E(w) = power: w is a proper power of its primitive base exactly when the
    exponent is an integer, and primitive otherwise."""
    if power.exponent.denominator == 1:
        return power.exponent.numerator, power.base
    return 1, w


def prefix_comparable(u: str, v: str) -> bool:
    """True iff one of u, v is a prefix of the other (equivalently, u is a
    prefix of vs for some word s)."""
    return u.startswith(v) or v.startswith(u)


def suffix_comparable(u: str, v: str) -> bool:
    """True iff one of u, v is a suffix of the other (equivalently, u is a
    suffix of pv for some word p)."""
    return u.endswith(v) or v.endswith(u)


def _letter_planes(w: str) -> list[int]:
    """One int per letter of w whose bit i is set iff w[i] is that letter."""
    letters = set(w)
    rev = w[::-1]  # bit i of a plane is position i
    zeros = {ord(ch): "0" for ch in letters}
    return [int(rev.translate({**zeros, ord(ch): "1"}), 2) for ch in letters]


def _agreements(planes: list[int], p: int) -> int:
    """The agreement mask at shift p: bit i is set iff w[i] == w[i + p]."""
    agree = 0
    for plane in planes:
        agree |= plane & (plane >> p)
    return agree


def _runs_of(agree: int, k: int) -> int:
    """Starts of runs of at least k >= 1 agreements, by doubling: runs of h
    agreements at i and at i + step, step <= h, make a run of h + step."""
    runs, have = agree, 1
    while runs and 2 * have <= k:
        runs &= runs >> have
        have *= 2
    if have < k:
        runs &= runs >> (k - have)
    return runs


def minimal_period_profile(w: str) -> tuple[list[int], list[int]]:
    """Per factor length L in 1..|w|: the minimum smallest-period over all
    length-L factors, and the leftmost start position achieving it.

    Returns (minper, start), both indexed by L with index 0 unused.

    Bit-parallel (shift-and): bit i of the agreement mask at shift p is set
    iff w[i] == w[i + p], and a run of L - p agreements from bit i is a
    length-L factor at i with period p.  Shifts are visited in ascending
    order, so a length is settled at the first shift with a run long
    enough, at the lowest start of such a run.  Each shift tests the first
    unsettled length by the one run test, then settles the lengths after it
    one agreement at a time until no run is long enough.  Lengths no shift
    settles keep minper[L] = L and start 0.  Each shift costs O(sigma +
    log n) operations on n-bit ints, and each length is settled once:
    O((sigma + log n) * n^2 / w) word operations in all.
    """
    if not w:
        raise WordError("empty input")
    n = len(w)
    minper = list(range(n + 1))  # a length-L factor trivially has period L
    start = [0] * (n + 1)
    planes = _letter_planes(w)
    # minper is non-decreasing in L (a factor's prefix keeps its period), so
    # the lengths still unsettled at any shift are exactly those >= unsettled.
    unsettled = 2
    for p in range(1, n):
        # A length L <= p settles at no shift from here on (periods < L).
        unsettled = max(unsettled, p + 1)
        if unsettled > n:
            break
        agree = _agreements(planes, p)
        runs = _runs_of(agree, unsettled - p)
        while runs:
            minper[unsettled] = p
            start[unsettled] = (runs & -runs).bit_length() - 1
            runs &= agree >> (unsettled - p)
            unsettled += 1
    return minper, start


def _recurring_shifts(w: str, lo: int, hi: int, b: int, sigma: int) -> Sequence[int]:
    """The shifts s in [lo, hi), ascending, at which some aligned block
    w[j:j + b], j a multiple of b, occurs again at j + s; or the whole range
    where finding them would cost more than testing every shift.

    `str.find` lists each block's recurrences in its window.  A find reads at
    least its block, so the finds of a range take a call per block and read
    at least the n - lo letters the blocks cover, while testing the range
    takes a call per shift on sigma planes of about n - lo bits, a word
    step per 64 letters.  So the search runs only with fewer blocks than
    shifts and with shifts * sigma >= 64.  Blocks that recur too often, as
    in long runs of one letter, cost a find per recurrence, so once the
    finds of a range have spanned 4n letters (each from where it starts to
    the end of its match or window), the range is returned whole."""
    n = len(w)
    shifts = range(lo, hi)
    blocks = range(0, n - lo - b + 1, b)
    if len(blocks) >= len(shifts) or len(shifts) * sigma < 64:
        return shifts
    found: set[int] = set()
    budget = 4 * n
    for j in blocks:
        block, start, end = w[j:j + b], j + lo, j + hi - 1 + b
        while budget >= 0 and (q := w.find(block, start, end)) != -1:
            found.add(q - j)
            budget -= q + b - start
            start = q + 1
        budget -= end - start
        if budget < 0:
            return shifts
    return sorted(found)


def _max_exponent(w: str, min_len: int) -> tuple[int, int, int]:
    """(length, period, start) of a factor of maximal exponent length/period
    among factors of length >= min_len; ties go to the shortest length, at
    its leftmost start.

    Shifts p = 1, 2, ... are visited in order, from the exponent-1 answer
    (min_len, min_len, 0).  The best factor with period p has length p +
    longest(p), the longest run of agreements at shift p, so p can win only
    with a run of at least k agreements, k the least run that reaches
    length min_len and beats the best exponent so far strictly (ties keep
    the smaller p, that is the shorter factor).  The one run test rejects
    most shifts after a few doubling steps.  A shift that passes finds its
    longest run on the same mask: runs of k at i and at i + s, s <= k, make
    a run of k + s at i, so k doubles while some run is twice as long, then
    grows by halving steps.  A run has at most n - p agreements, so once k
    exceeds that, no later shift can win either (the exponent at shift p is
    at most n/p) and the search stops.

    Most shifts are never tested.  The shifts go in dyadic ranges [lo, hi),
    and k_min, the k of the best so far at lo with min_len - (hi - 1) in
    place of min_len - p, is at most the k of every shift in the range: the
    first term grows with p and with the best exponent, which only rises,
    and min_len - p is least at hi - 1.  A run of k_min agreements at shift
    s holds an aligned block of b = ceil(k_min / 2) letters, which occurs
    again s letters later, so only the shifts where an aligned block recurs
    (`_recurring_shifts`) can win, and they are tested in order with their
    own k, which keeps every tie-break.  Where the blocks recur too often,
    as in long runs of one letter, the finds stop after spanning 4n letters
    and every shift of the range is tested: a range then costs its masks
    plus O(n) letters of `str.find`, so the search is still quadratic at
    worst, like the profile (a random word whose min_len falls in a range
    has k_min = 1 there).  On aperiodic words b grows with lo, each range
    costs O(n) letters of finds and a few masks, and at 100,000 letters a
    Thue-Morse prefix at min_len 8 takes 532 masks where it took 49,999.
    """
    n = len(w)
    planes = _letter_planes(w)
    best_len, best_per, best_start = min_len, min_len, 0
    lo = 1
    while lo < n:
        hi = min(2 * lo, n)
        k_min = max((best_len - best_per) * lo // best_per + 1, min_len - (hi - 1), 1)
        if k_min > n - lo:
            break
        for p in _recurring_shifts(w, lo, hi, (k_min + 1) // 2, len(planes)):
            k = max((best_len - best_per) * p // best_per + 1, min_len - p, 1)
            if k > n - p:
                break
            runs = _runs_of(_agreements(planes, p), k)
            if not runs:
                continue
            while longer := runs & (runs >> k):
                runs, k = longer, 2 * k
            # Now k <= longest < 2k; steps below k add the rest, largest first.
            step = 1 << k.bit_length()
            while step > 1:
                step >>= 1
                if longer := runs & (runs >> step):
                    runs, k = longer, k + step
            best_len, best_per, best_start = p + k, p, (runs & -runs).bit_length() - 1
        lo = hi
    return best_len, best_per, best_start
