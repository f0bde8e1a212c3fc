"""Can injective morphisms push a finite word to unboundedly high exponents?

A word w can be mapped to arbitrarily high fractional exponent iff it has the
shape head (letter gap)^k letter tail for some letter that is absent from
head, gap and tail, together with an injective morphism making the head/gap
images suffix-comparable and the gap/tail images prefix-comparable.  Over a
binary alphabet the comparability part is automatic, so the shape alone
decides.  Over larger alphabets only a bounded search is possible, hence the
three-valued verdict.

Witnesses are constructive: `pump_witness` builds an injective morphism whose
image is a verified power of any requested exponent, by inserting a fresh
letter that occurs exactly once per period and then pumping around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import ceil
from operator import and_, mul
from string import digits

from . import morphisms
from .morphisms import Morphism, _canonical_images, _image_groups, _over_budget, is_code, spreading_morphism
from .words import (
    MAX_BUILD_LETTERS,
    WordError,
    _check_build_size,
    _period_at_most,
    fresh_letters,
    prefix_comparable,
    smallest_period,
    suffix_comparable,
)

INFINITE = "infinite"
FINITE = "finite"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class GapFactorization:
    """w = head (letter gap)^gap_count letter tail, the letter absent from
    head, gap and tail.  Exists iff all gaps between consecutive occurrences
    of the letter are equal; gap is empty by convention when the letter
    occurs once."""

    letter: str
    head: str
    gap: str
    tail: str
    gap_count: int

    def rebuild(self) -> str:
        return self.head + (self.letter + self.gap) * self.gap_count + self.letter + self.tail


@dataclass(frozen=True)
class MappedExponentVerdict:
    """Outcome of a classification.

    infinite: witness holds an injective morphism and its verified exponent.
    finite:   no letter admits a gap factorization (exact, no witness).
    unknown:  gap factorization exists but no comparability certificate was
              found within image length search_bound.
    """

    tag: str
    witness: tuple[Morphism, Fraction] | None = None
    search_bound: int | None = None


def gap_factorization(w: str, letter: str) -> GapFactorization | None:
    """The unique gap factorization of w at the given letter, or None when
    the letter is absent or its occurrence gaps differ."""
    if not w:
        raise WordError("empty input")
    positions = [i for i, ch in enumerate(w) if ch == letter]
    if not positions:
        return None
    gaps = {w[a + 1:b] for a, b in zip(positions, positions[1:])}
    if len(gaps) > 1:
        return None
    return GapFactorization(
        letter=letter,
        head=w[:positions[0]],
        gap=gaps.pop() if gaps else "",
        tail=w[positions[-1] + 1:],
        gap_count=len(positions) - 1,
    )


def pump_witness(
    w: str,
    fact: GapFactorization,
    base: Morphism,
    target: Fraction | int,
) -> tuple[Morphism, Fraction]:
    """Injective morphism h with E(h(w)) >= target, plus the exact achieved
    exponent.

    Construction: with head/gap images suffix-comparable and gap/tail images
    prefix-comparable under `base`, mapping the factored letter to s c p (c a
    fresh letter) turns the image into a power of a period containing exactly
    one c; pumping c to c (V U c)^(pump-1) then multiplies the exponent.  The
    returned exponent is recomputed from the final image, not trusted from
    the construction.
    """
    target = Fraction(target)
    if target < 1:
        raise WordError("target exponent must be >= 1")
    if fact.rebuild() != w:
        raise WordError("factorization does not rebuild the input word")
    pumped = fact.letter
    letters = "".join(sorted(set(w)))
    others = [ch for ch in letters if ch != pumped]
    missing = [ch for ch in others if ch not in base.images]
    if missing:
        raise WordError(f"base morphism lacks an image for {missing[0]!r}")
    if others and not is_code([base.images[ch] for ch in others]):
        raise WordError("base morphism is not injective beside the pumped letter")

    head, gap, tail = (base.apply(part) for part in (fact.head, fact.gap, fact.tail))
    if not suffix_comparable(head, gap):
        raise WordError("head and gap images are not suffix-comparable")
    if not prefix_comparable(gap, tail):
        raise WordError("gap and tail images are not prefix-comparable")
    # p, t with p + gap == t + head; s with tail a prefix of gap + s.
    if gap.endswith(head):
        p, t = "", gap[:len(gap) - len(head)]
    else:
        p, t = head[:len(head) - len(gap)], ""
    s = "" if gap.startswith(tail) else tail[len(gap):]

    ahead, behind = head + s, t
    pump = max(1, ceil(target))
    # The pumped letter occurs gap_count + 1 times in w.
    pumped_len = len(s) + 1 + (len(behind) + len(ahead) + 1) * (pump - 1) + len(p)
    size = len(head) + fact.gap_count * len(gap) + len(tail) + (fact.gap_count + 1) * pumped_len
    _check_build_size("the witness image", size, MAX_BUILD_LETTERS)
    c = fresh_letters(1, avoid=base.codomain)
    pumped_image = s + c + (behind + ahead + c) * (pump - 1) + p
    witness = Morphism({ch: pumped_image if ch == pumped else base.images[ch] for ch in letters})
    image = witness.apply(w)
    achieved = Fraction(len(image), smallest_period(image))
    if achieved < target:
        raise WordError(f"pump fell short: reached {achieved}, wanted {target}")
    return witness, achieved


def classify_general(
    w: str,
    max_image_len: int = 3,
    target: Fraction | int | None = None,
) -> MappedExponentVerdict:
    """Three-valued classification over any alphabet.

    finite is exact (no letter admits a gap factorization).  infinite is
    certified by a pumped witness, searching the identity morphism first and
    then every injective morphism with images of length <= max_image_len into
    01; an injective binary coding keeps any certificate injective and
    comparable, so a larger codomain decides nothing more.  Everything else
    is unknown.  Over at most two letters the identity step alone decides,
    so the verdict is never unknown there: the letters beside the factored
    one form a unary or empty alphabet, which makes every comparability
    condition hold.  A target below 1 is refused for every verdict.

    Factorizations are tried in letter order, and the witness comes from the
    first tuple, in search order, that certifies the earliest factorization
    with any.  Each factorization leaves |alphabet(w)| - 1 letters beside its
    own, so the search reads that one space once for all of them, and the
    search's step count covers that one read.  An image has 1 to L =
    max_image_len letters, so h(head) and h(gap) are compared on the last
    min(|head|, L|gap|) and min(|gap|, L|head|) letters of head and gap, and
    h(gap) and h(tail) on the first min(|gap|, L|tail|) and min(|tail|,
    L|gap|) of gap and tail (on the whole gap, read once, where its two
    windows cover it).  Each test of a tuple against a factorization is
    charged the letters of these windows against morphisms.MAX_SEARCH_STEPS;
    past it WordError is raised.
    """
    if not w:
        raise WordError("empty input")
    if max_image_len < 1:
        raise WordError("max_image_len must be >= 1")
    if target is not None and target < 1:
        raise WordError("target exponent must be >= 1")
    letters = "".join(sorted(set(w)))
    facts = [(ch, fact) for ch in letters if (fact := gap_factorization(w, ch)) is not None]
    if not facts:
        return MappedExponentVerdict(FINITE)
    goal = Fraction(2 * len(w) if target is None else target)

    for letter, fact in facts:
        if suffix_comparable(fact.head, fact.gap) and prefix_comparable(fact.gap, fact.tail):
            identity = Morphism({ch: ch for ch in letters if ch != letter})
            return MappedExponentVerdict(INFINITE, witness=pump_witness(w, fact, identity, goal))

    # head, gap and tail hold only the letters beside the factored one:
    # coded as indices into them, each image tuple is their translate table.
    # A start window of None means the end window is the whole gap.
    coded = []
    for letter, fact in facts:
        code = {ord(ch): i for i, ch in enumerate(letters.replace(letter, ""))}
        head, gap, tail = (part.translate(code) for part in (fact.head, fact.gap, fact.tail))
        a, b = min(len(head), max_image_len * len(gap)), min(len(gap), max_image_len * len(head))
        c, d = min(len(gap), max_image_len * len(tail)), min(len(tail), max_image_len * len(gap))
        head, tail = head[len(head) - a:], tail[:d]
        if b + c >= len(gap):
            coded.append((head, gap, None, tail, a + len(gap) + d))
        else:
            coded.append((head, gap[len(gap) - b:], gap[:c], tail, a + b + c + d))
    # Only the factorizations before the earliest one certified so far can
    # still change the verdict.
    earliest, found = len(coded), None
    scored = 0
    for images in _canonical_images(len(letters) - 1, digits[:2], max_image_len):
        for i in range(earliest):
            head, end, start, tail, letter_count = coded[i]
            scored += letter_count
            if scored > morphisms.MAX_SEARCH_STEPS:
                raise _over_budget()
            mapped = end.translate(images)
            if suffix_comparable(head.translate(images), mapped) and prefix_comparable(
                mapped if start is None else start.translate(images), tail.translate(images)
            ):
                earliest, found = i, images
                break
        if earliest == 0:
            break
    if found is None:
        return MappedExponentVerdict(UNKNOWN, search_bound=max_image_len)
    letter, fact = facts[earliest]
    h = Morphism(dict(zip(letters.replace(letter, ""), found)))
    return MappedExponentVerdict(INFINITE, witness=pump_witness(w, fact, h, goal))


# A length group is scored bit-sliced only while the slot pairs its windows
# can read are at most this many per letter of its images; past it, one
# tuple at a time.
_PAIRS_PER_LETTER = 1
# The slot pairs p apart on which a bit-sliced period p is tried.
_WINDOW = 32


def mapped_exponent_lower_bound(
    w: str,
    max_image_len: int,
    codomain_size: int = 2,
) -> tuple[Fraction, Morphism]:
    """Exact maximum of E(h(w)) over every injective h with image lengths
    <= max_image_len into a codomain of codomain_size letters; the argmax is
    the first maximizer in search order, a Morphism over the letters its
    images use.

    The search space is read in groups of tuples with equal image lengths
    (`morphisms._image_groups`): the images of a group all have n letters,
    and each is the group's slot sequence of w under its own letters.
    Before a group is scored, each of its m tuples is charged n letters
    against morphisms.MAX_SEARCH_STEPS; past it WordError is raised.  With
    best exponent b/q so far, only a period p <= B = n q // b can beat or
    tie it, and a tie goes to the earlier tuple in search order.

    A group is scored bit-sliced, all its tuples at once, when the slot
    pairs its windows can read, B min(_WINDOW, n), are at most
    _PAIRS_PER_LETTER times the m n letters of its images.  For p = 1, ...,
    B, the slot-equality masks of the first _WINDOW slot pairs p apart are
    ANDed; the first p that leaves a bit is the least period any tuple of
    the group can have, and its lowest bit the first tuple that can have
    it.  That tuple's image is built: if it has period p, it is the group's
    first maximizer.  If not, w has a run longer than the window with period
    p under some tuples, and the group is scored one tuple at a time, as is
    a group past the rule: each image is one translate of w, coded once as
    letter indices, its first n - B letters must occur again at some
    position from 1 to B (one `str.find`), and only an image that passes has
    its period sought, by `_period_at_most(image, B)`."""
    if not w:
        raise WordError("empty input")
    if max_image_len < 1 or codomain_size < 1:
        raise WordError("bounds must be >= 1")
    if codomain_size > len(digits):
        raise WordError(f"codomain size must be <= {len(digits)}")
    domain = "".join(sorted(set(w)))
    counts = list(map(w.count, domain))
    # E(h(w)) = |h(w)| / smallest period, compared as integer pairs.
    best_len, best_period, best_index = 0, 1, 0
    best_images: tuple[str, ...] | None = None
    scored = 0
    coded = w.translate({ord(ch): i for i, ch in enumerate(domain)})
    for lengths, slot_table, indices, tuples, masks in _image_groups(
            len(domain), digits[:codomain_size], max_image_len):
        n = sum(map(mul, counts, lengths))
        scored += len(tuples) * n
        if scored > morphisms.MAX_SEARCH_STEPS:
            raise _over_budget()
        # The first group has no best to beat.
        bound = n * best_period // best_len if best_len else n
        if bound < 1:
            continue
        by_tuple = bound * min(_WINDOW, n) > _PAIRS_PER_LETTER * len(tuples) * n
        if not by_tuple:
            # Each letter has at least one slot, so the windows lie in the
            # slots of the first bound + _WINDOW letters.
            slots = coded[:bound + _WINDOW].translate(slot_table)
            equal = masks.__getitem__
            for p in range(1, bound + 1):
                window = slots[p:p + _WINDOW]
                if 0 in accumulate(map(equal, zip(slots, window)), and_, initial=masks.full):
                    continue
                # The first tuple that passes the window wins if its image
                # has period p.
                mask = reduce(and_, map(equal, zip(slots, window)), masks.full)
                i = (mask & -mask).bit_length() - 1
                image = coded.translate(tuples[i])
                if not image.startswith(image[p:]):
                    by_tuple = True
                elif p * best_len < n * best_period or indices[i] < best_index:
                    best_len, best_period, best_index, best_images = n, p, indices[i], tuples[i]
                break
        if by_tuple:
            for index, images in zip(indices, tuples):
                # A period p <= bound beats the best, or ties it from an
                # earlier tuple.
                bound = (n * best_period - (index > best_index)) // best_len if best_len else n
                if bound < 1:
                    continue
                image = coded.translate(images)
                if image.find(image[:n - bound], 1, n) == -1:
                    continue
                period = _period_at_most(image, bound)
                if period is not None:
                    best_len, best_period, best_index, best_images = n, period, index, images
    if best_images is None:
        raise WordError("no injective morphism exists within the given bounds")
    best = Fraction(best_len, best_period)
    return best, Morphism(dict(zip(domain, best_images)))


def lowpower_morphism(n: int, k: int) -> tuple[str, Morphism, Fraction]:
    """The family (ab)^n ba with its witness morphism a -> (cd)^k c, b -> dc
    and the exact exponent 1 + (4k+4)/((2k+3)(n-1)+2) the image reaches."""
    if n < 2:
        raise WordError("n must be >= 2")
    if k < 0:
        raise WordError("k must be >= 0")
    # |h(a)| = 2k + 1 and |h(b)| = 2, with n + 1 copies of each letter.
    _check_build_size("the family image", (n + 1) * (2 * k + 3), MAX_BUILD_LETTERS)
    word = "ab" * n + "ba"
    h = Morphism({"a": "cd" * k + "c", "b": "dc"})
    expected = 1 + Fraction(4 * k + 4, (2 * k + 3) * (n - 1) + 2)
    return word, h, expected


def highpower_word(n: int) -> tuple[str, Morphism, Fraction]:
    """A 2n-letter word of length 6n with exponent 1 whose image under the
    letter-spreading morphism x_i -> c^(i-1) x c^(n-i) has exponent
    n - n/(6n+1)."""
    if n < 2:
        raise WordError("n must be >= 2")
    letters = fresh_letters(2 * n, avoid="abc")
    word = "".join(a + a + b + a + b + b for a, b in zip(letters[0::2], letters[1::2]))
    return word, spreading_morphism(letters), n - Fraction(n, 6 * n + 1)
