"""Morphisms between free monoids: application, injectivity, search.

A morphism is given by its letter images.  Injectivity on the whole free
monoid is decided exactly: the images must be pairwise distinct and form a
uniquely decodable code (Sardinas-Patterson).
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Iterable, Iterator, Mapping, Sequence

from .words import ParseError, WordError, letter_set


def is_code(images: Sequence[str]) -> bool:
    """True iff the nonempty words `images` are pairwise distinct and form a
    uniquely decodable code (Sardinas-Patterson).

    Searches the dangling suffixes breadth first: a set is not a code iff
    some dangling suffix is itself one of the words.
    """
    for img in images:
        if not img:
            raise WordError("erasing morphism")
    if len(set(images)) < len(images):
        return False
    # A dangling suffix d: some sequences of words, differing in their first
    # word, concatenate to x and x + d.
    queue: deque[str] = deque()
    seen: set[str] = set()
    for a in images:
        for b in images:
            if a != b and b.startswith(a):
                d = b[len(a):]
                if d not in seen:
                    seen.add(d)
                    queue.append(d)
    while queue:
        d = queue.popleft()
        for u in images:
            if u.startswith(d):
                nd = u[len(d):]
            elif d.startswith(u):
                nd = d[len(u):]
            else:
                continue
            if not nd:
                return False
            if nd not in seen:
                seen.add(nd)
                queue.append(nd)
    return True


class Morphism:
    """A letter-to-word map extended to words by concatenation: its domain
    is the key order of `images`, its codomain the sorted letters of the
    images.

    Immutable after construction.
    """

    __slots__ = ("domain", "codomain", "images")

    def __init__(self, images: Mapping[str, str]):
        for letter, img in images.items():
            if not isinstance(img, str):
                raise WordError(f"image of {letter!r} must be a str, got {type(img).__name__}")
        self.domain = letter_set(images)
        self.codomain = "".join(sorted(set("".join(images.values()))))
        self.images = dict(images)

    def apply(self, w: str) -> str:
        images = self.images
        try:
            return "".join([images[ch] for ch in w])
        except KeyError as exc:
            raise WordError(f"letter {exc.args[0]!r} outside morphism domain") from None

    def to_text(self) -> str:
        return ",".join(f"{letter}={self.images[letter]}" for letter in self.domain)

    def __repr__(self) -> str:
        return f"Morphism({self.to_text()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        return self.domain == other.domain and self.images == other.images

    def __hash__(self) -> int:
        return hash((self.domain, tuple(self.images.items())))


def parse_morphism(literal: str) -> Morphism:
    """Parse the text format `a=cdc,b=dc` (printed back bit-exactly)."""
    images: dict[str, str] = {}
    pos = 0
    for chunk in literal.split(","):
        if "=" not in chunk:
            raise ParseError(f"expected letter=image, got {chunk!r}", pos)
        letter, img = chunk.split("=", 1)
        if len(letter) != 1:
            raise ParseError(f"morphism domain letter must be a single character, got {letter!r}", pos)
        if letter in images:
            raise ParseError(f"duplicate image for letter {letter!r}", pos)
        images[letter] = img
        pos += len(chunk) + 1
    if not images:
        raise ParseError("empty morphism literal", 0)
    return Morphism(images)


def spreading_morphism(letters: str) -> Morphism:
    """The letter-spreading morphism over n letter pairs: the i-th pair,
    letters[2i] and letters[2i+1], maps to c^i a c^(n-1-i) and c^i b c^(n-1-i)."""
    n = len(letters) // 2
    images = {ch: "c" * (j // 2) + "ab"[j % 2] + "c" * (n - 1 - j // 2) for j, ch in enumerate(letters)}
    return Morphism(images)


def words_up_to(alphabet: Iterable[str], max_len: int) -> list[str]:
    """All nonempty words of length <= max_len in shortlex order."""
    alphabet = letter_set(alphabet)
    out: list[str] = []
    layer = [""]
    for _ in range(max_len if alphabet else 0):
        layer = [w + ch for w in layer for ch in alphabet]
        out.extend(layer)
    return out


# The most candidate images, over all lengths, that a search builds.  Every
# branch of the search tries each of them, so the limit bounds its work.
MAX_SEARCH_CANDIDATES = 32_768
# The most steps a search takes: one per candidate image that a branch tries,
# plus the most steps each code test it runs can take.  Scoring the tuples of
# a lower bound is charged against the same limit.
MAX_SEARCH_STEPS = 18_000_000
# The most image tuples the search memo holds, over all its spaces.
MAX_CACHED_TUPLES = 100_000


def _over_budget() -> WordError:
    return WordError(f"the search took more than the limit of {MAX_SEARCH_STEPS} steps")


def _injective_images(size: int, codomain: str, max_image_len: int) -> Iterator[tuple[str, ...]]:
    """The injective image tuples of length `size` over codomain, with image
    lengths in 1..max_image_len, one per renaming of the codomain letters:
    the one whose images, read in order, introduce new letters in codomain
    order.  They come in lexicographic order (images in shortlex order),
    found depth first.

    The tuple kept is the lexicographic minimum of its renaming orbit, and
    renaming keeps image lengths, injectivity and every exponent and
    comparability of the images, so a search that stops at its first hit
    (or keeps its first maximizer) finds the tuple it would find among all
    the injective tuples.

    Images are assigned one domain letter at a time, and a branch is dropped
    as soon as its partial tuple repeats an image or is not a code: every
    subset of a code is a code.  The code test runs only once a partial
    tuple is neither prefix-free nor suffix-free, since a set that is either
    is a code.  By McMillan's inequality the images x of a code over k
    letters have weights k^(L - |x|), each at least 1, summing to at most
    k^L, so a candidate is skipped when the weight it leaves is less than the
    number of letters still to assign.  A search over more than
    MAX_SEARCH_CANDIDATES candidate images raises WordError before it builds
    any; an empty codomain gives no tuple for a nonempty domain.  A search
    raises WordError once its steps pass MAX_SEARCH_STEPS.
    """
    if size == 0:
        yield ()
        return
    if not codomain:
        return
    # Count the candidates before building them.
    count, layer = 0, 1
    for _ in range(max_image_len):
        layer *= len(codomain)
        count += layer
        if count > MAX_SEARCH_CANDIDATES:
            raise WordError(f"the search would build more than the limit of {MAX_SEARCH_CANDIDATES} candidate images")
    candidates = words_up_to(codomain, max_image_len)
    # choices[m]: the images open to a tuple whose images so far use the
    # first m codomain letters, each with the letter count after it and its
    # weight.  The search starts at row 0; the last row holds every
    # candidate.
    rank = {ch: i for i, ch in enumerate(codomain)}
    choices = []
    for m in range(len(codomain) + 1):
        row = []
        for x in candidates:
            used = m
            for ch in x:
                if rank[ch] == used:
                    used += 1
                elif rank[ch] > used:
                    break
            else:
                row.append((x, used, len(codomain) ** (max_image_len - len(x))))
        choices.append(row)
    last = size - 1
    # Per depth: the images so far, the sets of their nonempty prefixes and
    # suffixes, whether they are prefix-free and suffix-free, the weight left
    # unused and the candidates left for the next image.  A candidate is
    # prefix-comparable with an image iff it is one of these prefixes or
    # starts with the image; a repeated image is comparable both ways.  A
    # branch is charged its whole row of candidates when it opens: it tries
    # each of them unless the reader stops first.
    row = choices[0]
    work = len(row)
    if work > MAX_SEARCH_STEPS:
        raise _over_budget()
    stack = [((), frozenset(), frozenset(), True, True, len(codomain) ** max_image_len, iter(row))]
    while stack:
        images, heads, tails, prefix_free, suffix_free, room, rest = stack[-1]
        spare = room - (last - len(images))
        for x, used, weight in rest:
            if weight > spare:
                continue
            pfree = prefix_free and not (x in heads or x.startswith(images))
            sfree = suffix_free and not (x in tails or x.endswith(images))
            if not (pfree or sfree):
                if x in images:
                    continue
                # The most steps the test can take: |images| for each image
                # and for each dangling suffix, which are fewer than the
                # letters of the images.
                tested = len(images) + 1
                work += tested * (tested + len(x) + sum(map(len, images)))
                if work > MAX_SEARCH_STEPS:
                    raise _over_budget()
                if not is_code(images + (x,)):
                    continue
            if len(images) == last:
                yield (*images, x)
                continue
            row = choices[used]
            work += len(row)
            if work > MAX_SEARCH_STEPS:
                raise _over_budget()
            cuts = range(1, len(x) + 1)
            stack.append((images + (x,), heads.union([x[:k] for k in cuts]),
                          tails.union([x[-k:] for k in cuts]), pfree, sfree, room - weight, iter(row)))
            break
        else:
            stack.pop()


class _SlotMasks(dict):
    """The slot-equality masks of one length group, keyed by pairs of slot
    letters and built from the group's bit planes on first use: bit i of
    the mask of (s, t) is set iff the group's i-th tuple puts the same
    codomain letter at slots s and t.  `full` has a bit for every tuple."""

    def __init__(self, planes: list[list[int]], full: int):
        super().__init__()
        self.planes = planes
        self.full = full

    def __missing__(self, pair: tuple[str, str]) -> int:
        differ = 0
        for x, y in zip(self.planes[ord(pair[0])], self.planes[ord(pair[1])]):
            differ |= x ^ y
        mask = self[pair] = self.full ^ differ
        return mask


def _length_groups(space: Sequence[tuple[str, ...]], start: int, codomain: str) -> list[tuple]:
    """The tuples of `space`, the part of a search space from index `start`
    on, grouped by image lengths, the groups in order of their first tuple.

    A group is (lengths, slots, indices, tuples, masks): its vector of image
    lengths, its tuples in search order with their indices in the space,
    and their `_SlotMasks`.  A slot is a position (letter, offset) inside an
    image; `slots` maps each domain index to the letters of its slots,
    numbered from chr(0) in domain order, so that a word coded as domain
    indices translates to its slot sequence.  Per slot, a group keeps one
    bit plane per bit of a codomain letter's index (none over one letter):
    bit i of plane b is bit b of the letter the group's i-th tuple puts
    there."""
    by_lengths: dict[tuple[int, ...], tuple[array[int], list[tuple[str, ...]]]] = {}
    for index, images in enumerate(space, start):
        lengths = tuple(map(len, images))
        found = by_lengths.get(lengths)
        if found is None:
            # Indices as machine words, not int objects.
            found = by_lengths[lengths] = (array("q"), [])
        found[0].append(index)
        found[1].append(images)
    bit_tables = [str.maketrans(codomain, "".join("01"[i >> b & 1] for i in range(len(codomain))))
                  for b in range((len(codomain) - 1).bit_length())]
    groups = []
    for lengths, (indices, tuples) in by_lengths.items():
        slots, planes = [], []
        for letter, length in enumerate(lengths):
            slots.append("".join(map(chr, range(len(planes), len(planes) + length))))
            # The images of one letter, read a column at a time; the first
            # tuple's letter becomes the lowest bit.
            joined = "".join([images[letter] for images in tuples])
            for offset in range(length):
                column = joined[offset::length][::-1]
                planes.append([int(column.translate(table), 2) for table in bit_tables])
        masks = _SlotMasks(planes, (1 << len(tuples)) - 1)
        groups.append((lengths, tuple(slots), indices, tuples, masks))
    return groups


class _Space(list):
    """The tuples of one search space read to the end, in search order, and
    their length groups once a search has asked for them."""

    groups: list[tuple] | None = None


# The search spaces read to the end in this process, keyed by (domain size,
# codomain letters, max image length).
_spaces: dict[tuple[int, str, int], _Space] = {}


def _canonical_images(size: int, codomain: str, max_image_len: int) -> Iterator[tuple[str, ...]]:
    """The tuples of _injective_images(size, codomain, max_image_len), in the
    same order, replayed from the memo when a search has read the whole
    space before.

    A space is stored once a search reaches its end, and only if it fits
    beside the spaces already held within MAX_CACHED_TUPLES tuples.  A search
    that stops early, at a first hit or by an exception, stores nothing.
    MAX_SEARCH_STEPS is a constant, so a stored space was read within it.
    Each CLI search command reads at most one space once, so replays serve
    later commands in the same process, not the same command.
    """
    key = (size, codomain, max_image_len)
    found = _spaces.get(key)
    if found is not None:
        yield from found
        return
    found = _Space()
    for images in _injective_images(size, codomain, max_image_len):
        # One tuple past the cap is enough to rule the space out.
        if len(found) <= MAX_CACHED_TUPLES:
            found.append(images)
        yield images
    if len(found) + sum(map(len, _spaces.values())) <= MAX_CACHED_TUPLES:
        _spaces[key] = found


def _image_groups(size: int, codomain: str, max_image_len: int) -> Iterator[tuple]:
    """The tuples of _canonical_images(size, codomain, max_image_len) in
    length groups, each group's indices counted over the whole space.

    A space in the memo is grouped once and keeps its groups beside its
    tuples.  Any other space is grouped as it streams, in chunks of
    MAX_CACHED_TUPLES + 1 tuples, the fewest that rule it out of the memo,
    and the groups of each chunk come in order of their first tuple."""
    key = (size, codomain, max_image_len)
    space = _spaces.get(key)
    if space is None:
        chunk: list[tuple[str, ...]] = []
        start = 0
        for images in _canonical_images(size, codomain, max_image_len):
            chunk.append(images)
            if len(chunk) > MAX_CACHED_TUPLES:
                yield from _length_groups(chunk, start, codomain)
                start += len(chunk)
                chunk = []
        space = _spaces.get(key)
        if space is None:
            yield from _length_groups(chunk, start, codomain)
            return
    if space.groups is None:
        space.groups = _length_groups(space, 0, codomain)
    yield from space.groups
