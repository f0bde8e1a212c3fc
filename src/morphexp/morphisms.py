"""Morphisms between free monoids: application, injectivity, enumeration.

A morphism is given by its letter images.  Injectivity on the whole free
monoid is decided exactly: the images must be pairwise distinct and form a
uniquely decodable code (Sardinas-Patterson); on failure a shortest pair of
distinct words with equal images is produced.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Mapping, Sequence

from .words import ParseError, WordError, letter_set


def sardinas_patterson(images: Sequence[str]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Decide unique decodability of a list of nonempty code words.

    Returns None when the images form a code.  Otherwise returns two distinct
    index sequences with equal concatenations, shortest first in BFS order.
    """
    for img in images:
        if not img:
            raise WordError("erasing morphism")
    # State: a dangling suffix d with witness sequences (ahead, behind) such
    # that images(ahead) == images(behind) + d and the sequences differ in
    # their first element.
    queue: deque[tuple[str, tuple[int, ...], tuple[int, ...]]] = deque()
    seen: set[str] = set()
    for i, a in enumerate(images):
        for j, b in enumerate(images):
            if i == j:
                continue
            if a == b:
                return (i,), (j,)
            if b.startswith(a):
                d = b[len(a):]
                if d not in seen:
                    seen.add(d)
                    queue.append((d, (j,), (i,)))
    while queue:
        d, ahead, behind = queue.popleft()
        for k, u in enumerate(images):
            if u == d:
                return ahead, behind + (k,)
            if d.startswith(u):
                nd = d[len(u):]
                if nd not in seen:
                    seen.add(nd)
                    queue.append((nd, ahead, behind + (k,)))
            elif u.startswith(d):
                nd = u[len(d):]
                if nd not in seen:
                    seen.add(nd)
                    queue.append((nd, behind + (k,), ahead))
    return None


class Morphism:
    """A letter-to-word map extended to words by concatenation.

    Immutable after construction; the injectivity verdict is computed once on
    demand and cached.
    """

    __slots__ = ("domain", "codomain", "images", "_verdict")

    def __init__(
        self,
        images: Mapping[str, str],
        domain: Iterable[str] | None = None,
        codomain: Iterable[str] | None = None,
    ):
        for letter, img in images.items():
            if not isinstance(img, str):
                raise WordError(f"image of {letter!r} must be a str, got {type(img).__name__}")
        domain = letter_set(images if domain is None else domain)
        if set(images) != set(domain):
            raise WordError("images must cover exactly the domain alphabet")
        if codomain is None:
            codomain = "".join(sorted(set("".join(images.values()))))
        else:
            codomain = letter_set(codomain)
            allowed = set(codomain)
            for letter, img in images.items():
                if not allowed.issuperset(img):
                    ch = next(ch for ch in img if ch not in allowed)
                    raise WordError(f"image of {letter!r} uses letter {ch!r} outside codomain")
        self.domain = domain
        self.codomain = codomain
        self.images = {letter: images[letter] for letter in domain}
        self._verdict: tuple[bool, tuple[str, str] | None] | None = None

    @classmethod
    def identity(cls, letters: str) -> "Morphism":
        return cls({ch: ch for ch in letters}, domain=letters, codomain=letters)

    def apply(self, w: str) -> str:
        images = self.images
        try:
            return "".join([images[ch] for ch in w])
        except KeyError as exc:
            raise WordError(f"letter {exc.args[0]!r} outside morphism domain") from None

    def _decide_injectivity(self) -> tuple[bool, tuple[str, str] | None]:
        if self._verdict is None:
            letters = self.domain
            witness = sardinas_patterson([self.images[ch] for ch in letters])
            if witness is None:
                self._verdict = (True, None)
            else:
                first, second = witness
                pair = ("".join(letters[i] for i in first), "".join(letters[i] for i in second))
                self._verdict = (False, pair)
        return self._verdict

    def is_injective(self) -> bool:
        return self._decide_injectivity()[0]

    def injectivity_counterexample(self) -> tuple[str, str] | None:
        """A shortest pair of distinct words with equal images, or None."""
        return self._decide_injectivity()[1]

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
    return Morphism(images, domain=letters, codomain="abc")


def words_up_to(alphabet: Iterable[str], max_len: int) -> list[str]:
    """All nonempty words of length <= max_len in shortlex order."""
    alphabet = letter_set(alphabet)
    out: list[str] = []
    layer = [""]
    for _ in range(max_len if alphabet else 0):
        layer = [w + ch for w in layer for ch in alphabet]
        out.extend(layer)
    return out


def enumerate_injective(
    domain: Iterable[str], codomain: Iterable[str], max_image_len: int
) -> Iterator[tuple[str, ...]]:
    """The image tuples, in domain-letter order, of every injective morphism
    with image lengths in 1..max_image_len, each exactly once, ordered
    lexicographically (individual images in shortlex order).  A tuple becomes
    a morphism with Morphism(dict(zip(domain, images)), domain, codomain)."""
    if max_image_len < 1:
        raise WordError("max_image_len must be >= 1")
    yield from _injective_images(len(letter_set(domain)), letter_set(codomain), max_image_len)


# The most candidate images, over all lengths, that a search builds.  Every
# branch of the search tries each of them, so the limit bounds its work.
MAX_SEARCH_CANDIDATES = 32_768
# The most steps a search takes: one per candidate image that a branch tries,
# plus the most steps each Sardinas-Patterson test it runs can take.
MAX_SEARCH_STEPS = 18_000_000
# The most image tuples the search memo holds, over all its spaces.
MAX_CACHED_TUPLES = 100_000


def _over_budget() -> WordError:
    return WordError(f"the search took more than the limit of {MAX_SEARCH_STEPS} steps")


def _injective_images(
    size: int, codomain: str, max_image_len: int, canonical: bool = False
) -> Iterator[tuple[str, ...]]:
    """The injective image tuples of length `size` over codomain, in the
    order of `enumerate_injective`, found depth first.

    Images are assigned one domain letter at a time, and a branch is dropped
    as soon as its partial tuple repeats an image or is not a code: every
    subset of a code is a code.  Sardinas-Patterson runs only once a partial
    tuple is neither prefix-free nor suffix-free, since a set that is either
    is a code.  By McMillan's inequality the images x of a code over k
    letters have weights k^(L - |x|), each at least 1, summing to at most
    k^L, so a candidate is skipped when the weight it leaves is less than the
    number of letters still to assign.  A search over more than
    MAX_SEARCH_CANDIDATES candidate images raises WordError before it builds
    any; an empty codomain gives no tuple for a nonempty domain.  A search
    raises WordError once its steps pass MAX_SEARCH_STEPS, and returns the
    steps it took when it reaches its end.

    canonical=True keeps one tuple per renaming of the codomain letters: the
    one whose images, read in order, introduce new letters in codomain order.
    It is the lexicographic minimum of its renaming orbit, and renaming keeps
    image lengths, injectivity and every exponent and comparability of the
    images, so a search that stops at its first hit (or keeps its first
    maximizer) finds the same tuple either way.
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
    # weight.  The last row holds every candidate and stays there, so the
    # full enumeration walks it and the canonical one starts at row 0.
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
    row = choices[0 if canonical else len(codomain)]
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
                if sardinas_patterson(images + (x,)) is not None:
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
    return work


# The canonical search spaces read to the end in this process, keyed by
# (domain size, codomain letters, max image length), each with the steps its
# search took.
_spaces: dict[tuple[int, str, int], tuple[int, list[tuple[str, ...]]]] = {}


def _canonical_images(size: int, codomain: str, max_image_len: int) -> Iterator[tuple[str, ...]]:
    """The tuples of _injective_images(size, codomain, max_image_len,
    canonical=True), in the same order, replayed from the memo when a search
    has read the whole space before.

    A space is stored once a search reaches its end, and only if it fits
    beside the spaces already held within MAX_CACHED_TUPLES tuples.  A search
    that stops early, at a first hit or by an exception, stores nothing.  A
    space is replayed only if the steps its search took are within
    MAX_SEARCH_STEPS, so a replay raises exactly where the search would.
    """
    key = (size, codomain, max_image_len)
    steps, found = _spaces.get(key, (0, None))
    if found is not None and steps <= MAX_SEARCH_STEPS:
        yield from found
        return
    found = []
    search = _injective_images(size, codomain, max_image_len, canonical=True)
    while True:
        try:
            images = next(search)
        except StopIteration as end:
            steps = end.value
            break
        # One tuple past the cap is enough to rule the space out.
        if len(found) <= MAX_CACHED_TUPLES:
            found.append(images)
        yield images
    if len(found) + sum(len(held) for _, held in _spaces.values()) <= MAX_CACHED_TUPLES:
        _spaces[key] = steps, found
