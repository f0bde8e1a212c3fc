"""Morphisms between free monoids: application, injectivity, enumeration.

A morphism is given by its letter images.  Injectivity on the whole free
monoid is decided exactly: the images must be pairwise distinct and form a
uniquely decodable code (Sardinas-Patterson); on failure a shortest pair of
distinct words with equal images is produced.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Iterator, Mapping, Sequence

from .words import Alphabet, ParseError, WordError


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


def parse_counts(text: str, pieces: Sequence[str]) -> list[int]:
    """ways[i]: the number of factorizations of text[:i] into pieces (each
    usable any number of times)."""
    n = len(text)
    ways = [1] + [0] * n
    for end in range(1, n + 1):
        total = 0
        for x in pieces:
            start = end - len(x)
            if start >= 0 and ways[start] and text.startswith(x, start):
                total += ways[start]
        ways[end] = total
    return ways


class Morphism:
    """A letter-to-word map extended to words by concatenation.

    Immutable after construction; the injectivity verdict is computed once on
    demand and cached.
    """

    __slots__ = ("domain", "codomain", "images", "_verdict")

    def __init__(
        self,
        images: Mapping[str, str],
        domain: Alphabet | None = None,
        codomain: Alphabet | None = None,
    ):
        for letter, img in images.items():
            if not isinstance(img, str):
                raise WordError(f"image of {letter!r} must be a str, got {type(img).__name__}")
        if domain is None:
            domain = Alphabet(images.keys())
        if set(images) != set(domain.letters):
            raise WordError("images must cover exactly the domain alphabet")
        if codomain is None:
            codomain = Alphabet(sorted(set("".join(images.values()))))
        else:
            allowed = set(codomain.letters)
            for letter, img in images.items():
                if not allowed.issuperset(img):
                    ch = next(ch for ch in img if ch not in allowed)
                    raise WordError(f"image of {letter!r} uses letter {ch!r} outside codomain")
        self.domain = domain
        self.codomain = codomain
        self.images = {letter: images[letter] for letter in domain.letters}
        self._verdict: tuple[bool, tuple[str, str] | None] | None = None

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Morphism":
        return cls({ch: ch for ch in alphabet}, domain=alphabet, codomain=alphabet)

    def image(self, letter: str) -> str:
        return self.images[letter]

    def apply(self, w: str) -> str:
        images = self.images
        try:
            return "".join([images[ch] for ch in w])
        except KeyError as exc:
            raise WordError(f"letter {exc.args[0]!r} outside morphism domain") from None

    __call__ = apply

    def is_erasing(self) -> bool:
        return any(not img for img in self.images.values())

    def _decide_injectivity(self) -> tuple[bool, tuple[str, str] | None]:
        if self._verdict is None:
            letters = self.domain.letters
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

    def decode(self, w: str) -> str | None:
        """Preimage of w under an injective morphism, or None when w is not
        in the image submonoid."""
        if not self.is_injective():
            raise WordError("decode requires an injective morphism")
        ways = parse_counts(w, list(self.images.values()))
        pos = len(w)
        if not ways[pos]:
            return None
        # The parse is unique, so walking back from the end along parseable
        # prefixes retraces it.
        out = []
        while pos:
            for letter, img in self.images.items():
                if w.endswith(img, 0, pos) and ways[pos - len(img)]:
                    out.append(letter)
                    pos -= len(img)
                    break
        return "".join(reversed(out))

    def to_text(self) -> str:
        return ",".join(f"{letter}={self.images[letter]}" for letter in self.domain.letters)

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


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """(outer o inner)(a) = outer(inner(a)); defined on inner's domain."""
    for ch in inner.codomain:
        if ch not in outer.domain and any(ch in img for img in inner.images.values()):
            raise WordError(f"alphabet mismatch: letter {ch!r} not in outer domain")
    images = {letter: outer.apply(inner.image(letter)) for letter in inner.domain.letters}
    return Morphism(images, domain=inner.domain, codomain=outer.codomain)


def binary_embedding(source: Alphabet) -> Morphism:
    """The injective embedding of an n-letter alphabet into {0,1}: the i-th
    letter maps to 0^(n+1-i) 1^i.  Applying it never decreases exponents."""
    n = len(source)
    if n < 1:
        raise WordError("source alphabet must be nonempty")
    codomain = Alphabet("01")
    images = {
        letter: "0" * (n + 1 - i) + "1" * i
        for i, letter in enumerate(source.letters, start=1)
    }
    return Morphism(images, domain=source, codomain=codomain)


def words_up_to(alphabet: Alphabet, max_len: int) -> list[str]:
    """All nonempty words of length <= max_len in shortlex order."""
    out: list[str] = []
    layer = [""]
    for _ in range(max_len):
        layer = [w + ch for w in layer for ch in alphabet.letters]
        out.extend(layer)
    return out


def enumerate_injective(
    domain: Alphabet, codomain: Alphabet, max_image_len: int
) -> Iterator[tuple[str, ...]]:
    """The image tuples, in domain-letter order, of every injective morphism
    with image lengths in 1..max_image_len, each exactly once, ordered
    lexicographically (individual images in shortlex order).  A tuple becomes
    a morphism with Morphism(dict(zip(domain, images)), domain, codomain)."""
    if max_image_len < 1:
        raise WordError("max_image_len must be >= 1")
    candidates = words_up_to(codomain, max_image_len)
    for images in product(candidates, repeat=len(domain)):
        if len(set(images)) == len(images) and sardinas_patterson(images) is None:
            yield images
