"""Prefix generators for infinite-word constructions, plus an exact
repetition estimator over those prefixes.

Generators produce stable prefixes: prefix(n) is a prefix of prefix(m) for
n <= m.  The estimator reports, for every factor length in a tail window, the
exact maximal fractional exponent among factors of that length; the tail
maximum is a lower bound for the asymptotic behaviour of the infinite word,
never a claimed limit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import factorial, gcd
from typing import Iterable, Iterator, Sequence

from .morphisms import Morphism, parse_morphism
from .words import (
    MAX_BUILD_LETTERS,
    ParseError,
    WordError,
    _check_build_size,
    _max_exponent,
    fresh_letters,
    letter_set,
    minimal_period_profile,
)

MAX_PROFILE_LETTERS = 100_000

# The image length `_long_power` grows a morphic fixed point's images to.
# Translate costs about the same per input letter whatever the image length,
# so up to here a uniform morphism expands faster by columns.
LONG_IMAGE = 64

# The most letters of a chunk u_i or v_i the optimal-binary stream reads and
# renames at once, so the stream ends at most this far past what a prefix needs.
CHUNK_SLICE = 1 << 14


class WordGenerator:
    """Base for on-demand prefix producers of an infinite word: its `size`
    letters, append-only parts with end offsets, added by `_add`, read by `_slice`.

    Every letter a generator produces lies in its `alphabet`, so a question
    about the letters of any prefix is answered from the alphabet alone."""

    def __init__(self, alphabet: str):
        self.alphabet = alphabet
        self.size = 0
        self._parts: list[str] = []
        self._ends: list[int] = []

    def prefix(self, n: int) -> str:
        if n < 0:
            raise WordError("prefix length must be >= 0")
        _check_build_size("the prefix", n, MAX_BUILD_LETTERS)
        return self._slice(0, n)

    def _add(self, text: str) -> None:
        self.size += len(text)
        self._parts.append(text)
        self._ends.append(self.size)

    def _slice(self, lo: int, hi: int) -> str:
        """Letters lo..hi-1, grown if needed; derived generators read their
        base, and a fixed point itself, through it.  A read never rewrites
        the parts: inside one part it is a slice of that part, across parts
        the join of the slices it spans."""
        while self.size < hi:
            before = self.size
            self._grow(hi)
            if self.size <= before:
                raise WordError("generator failed to produce more letters")
        if hi <= lo:
            return ""
        first, last = bisect_right(self._ends, lo), bisect_left(self._ends, hi)
        start = self._ends[first - 1] if first else 0
        if first == last:
            return self._parts[first][lo - start:hi - start]
        parts = self._parts[first:last + 1]
        parts[0], parts[-1] = parts[0][lo - start:], parts[-1][:hi - self._ends[last - 1]]
        return "".join(parts)

    def _grow(self, n: int) -> None:
        """Add letters towards n, possibly past n; a call that adds no
        letter ends growth with a WordError."""
        raise NotImplementedError


class StreamGenerator(WordGenerator):
    """Wraps any iterator of blocks (letters are one-letter blocks); single
    consumer."""

    def __init__(self, blocks: Iterable[str], alphabet: Iterable[str]):
        super().__init__(letter_set(alphabet))
        self._blocks: Iterator[str] = iter(blocks)

    def _grow(self, n: int) -> None:
        # One part per growth, as a part per one-letter block costs ~60 bytes.
        blocks, size = [], self.size
        for block in self._blocks:
            blocks.append(block)
            size += len(block)
            if size >= n:
                break
        if size == self.size:
            raise WordError("letter stream exhausted")
        self._add("".join(blocks))


class PeriodicGenerator(WordGenerator):
    """The word v v v ..."""

    def __init__(self, period_word: str):
        if not period_word:
            raise WordError("empty period word")
        super().__init__("".join(sorted(set(period_word))))
        self.period_word = period_word

    def _grow(self, n: int) -> None:
        reps = -(-(n - self.size) // len(self.period_word)) + 1
        self._add(self.period_word * reps)


class ImageGenerator(WordGenerator):
    """The image h(x) of a base word x under a morphism h; with no base, x is
    the generator's own word (see MorphicGenerator).

    Its letters always equal g(x[:cursor]), where g is h over a base and the
    long-image power of h (see `_long_power`) without one.  A missing stretch
    of the prefix is filled by expanding the next ceil(missing / longest
    image of g) letters of x, read through `_slice` (without a base, only as
    far as the generator holds them), so a prefix costs O(n) and the letters
    end less than one image of g past the requested length.  Blocks are
    scanned for letters outside the domain only when the alphabet of x (the
    generator's own, without a base) does not lie inside it; such a letter
    raises only once the cursor reaches it while the requested prefix is
    still longer than the letters held.

    When every image of g has the same length m < LONG_IMAGE and every
    letter is ASCII, a block is expanded by columns: letter j of each image
    is one bytes translate of the block, written to every m-th byte from j.
    Any other g expands by str.translate.
    """

    def __init__(self, h: Morphism, base: WordGenerator | None):
        if base is not None and not min(map(len, h.images.values()), default=0):
            raise WordError("erasing morphism: the image of a base word may stop growing")
        super().__init__(h.codomain)
        self.morphism = h
        self.base = base
        self._cursor = 0
        self._expand_with(h.images)

    def _expand_with(self, images: dict[str, str]) -> None:
        sizes = set(map(len, images.values()))
        self._longest = max(max(sizes, default=0), 1)
        self._domain = "".join(images)
        source = self if self.base is None else self.base
        self._scan = not set(source.alphabet) <= images.keys()
        self._table = str.maketrans(images)
        self._columns = None
        letters = "".join([self._domain, *images.values()])
        if len(sizes) == 1 and 0 < self._longest < LONG_IMAGE and letters.isascii():
            domain = self._domain.encode()
            self._columns = [
                bytes.maketrans(domain, "".join([image[j] for image in images.values()]).encode())
                for j in range(self._longest)
            ]

    def _image(self, block: str) -> str:
        if self._columns is None:
            return block.translate(self._table)
        letters = block.encode()
        m = len(self._columns)
        out = bytearray(m * len(letters))
        for j, column in enumerate(self._columns):
            out[j::m] = letters.translate(column)
        return out.decode()

    def _grow(self, n: int) -> None:
        source = self if self.base is None else self.base
        while self.size < n:
            hi = self._cursor - (-(n - self.size) // self._longest)
            block = source._slice(self._cursor, hi if source is not self else min(hi, self.size))
            if not block:
                break
            known = len(block)
            if self._scan:
                known -= len(block.lstrip(self._domain))
            self._add(self._image(block[:known]))
            self._cursor += known
            if known < len(block) and self.size < n:
                raise WordError(f"letter {block[known]!r} outside morphism domain")


def _long_power(images: dict[str, str], seed: str) -> dict[str, str]:
    """The images of h^j on the letters of the fixed point grown from seed
    (those reachable from it under h), for the least j whose longest image
    among them has at least LONG_IMAGE letters, stopping once none of their
    image lengths changes and at j = 64.  A fixed point of h is one of h^j,
    and translate costs about the same per input letter whatever the image
    length, so long images make growth cheap.  j = 1, with every image of h,
    when some reachable letter has no image (h^2 undefined on the word)."""
    reachable, todo = set(seed), list(seed)
    while todo:
        for ch in images.get(todo.pop(), ""):
            if ch not in reachable:
                reachable.add(ch)
                todo.append(ch)
    if not reachable <= images.keys():
        return images
    images = {letter: image for letter, image in images.items() if letter in reachable}
    power = images
    sizes = list(map(len, power.values()))
    for _ in range(63):
        if max(sizes, default=0) >= LONG_IMAGE:
            break
        # h^(j+1)(a) = h^j(h(a)), joined from the images of h^j.
        longer = {letter: "".join([power[ch] for ch in image]) for letter, image in images.items()}
        longer_sizes = list(map(len, longer.values()))
        if longer_sizes == sizes:
            break
        power, sizes = longer, longer_sizes
    return power


class MorphicGenerator(ImageGenerator):
    """Fixed point x = lim h^k(seed) of a morphism h prolongable on its seed:
    h(seed) is seed followed by at least one letter.  The word is its own
    image, grown from h^j(seed) with the long-image power h^j of h."""

    def __init__(self, rules: Morphism, seed: str):
        start = rules.apply(seed)
        if len(start) <= len(seed) or not start.startswith(seed):
            raise WordError(f"morphism is not prolongable on seed {seed!r}")
        super().__init__(rules, None)
        self._expand_with(_long_power(rules.images, seed))
        self.seed = seed
        self._add(seed.translate(self._table))
        self._cursor = len(seed)


def thue_morse() -> MorphicGenerator:
    return MorphicGenerator(Morphism({"0": "01", "1": "10"}), "0")


def _binary_base(base: WordGenerator | None) -> WordGenerator:
    """A derived generator's base: binary, and Thue-Morse when none is given."""
    base = thue_morse() if base is None else base
    if len(base.alphabet) != 2:
        raise WordError("base generator must be over a binary alphabet")
    return base


class InterleavedCopiesGenerator(WordGenerator):
    """Interleaves n renamed copies of a binary base word in rounds of
    growing chunks: round j contributes the j-th length-j chunk of every
    copy, in copy order.

    Under `spreading_morphism(self.alphabet)`, which spreads copy i over
    position i of a c-block, the image of round j is an exact fractional
    power of (image of the first copy's chunk) + 'c' with exponent
    jn^2/(jn+1) = n - n/(jn+1).
    """

    def __init__(self, copies: int, base: WordGenerator | None = None):
        if copies < 1:
            raise WordError("copies must be >= 1")
        base = _binary_base(base)
        pool = fresh_letters(2 * copies, avoid="abc")
        super().__init__(pool)
        self.copies = copies
        self.base = base
        self._renamings = [str.maketrans(base.alphabet, a + b) for a, b in zip(pool[0::2], pool[1::2])]
        self._rounds_done = 0

    def _grow(self, n: int) -> None:
        # Consecutive rounds' chunks are consecutive in the base: one read,
        # renamed once per copy, serves them all, as calls per round cost more.
        done = self._rounds_done
        last = done
        size = self.size
        while size < n:
            last += 1
            size += self.copies * last
        text = self.base._slice(done * (done + 1) // 2, last * (last + 1) // 2)
        copies = [text.translate(table) for table in self._renamings]
        pieces = []
        start = 0
        for j in range(done + 1, last + 1):
            pieces.extend([copy[start:start + j] for copy in copies])
            start += j
        self._add("".join(pieces))
        self._rounds_done = last


def _chunk_sizes(k: int, i: int) -> tuple[int, int]:
    """(|u_i|, |v_i|): |u_i| = (k+1)^i ((i-1)!)^2 solves |u_1| = k+1 and
    |u_(i+1)| = i^2 (k+1) |u_i|, and |v_i| + 1 = k (|u_i| + 1)."""
    u = (k + 1) ** i * factorial(i - 1) ** 2
    return u, k * (u + 1) - 1


def _renamed_slices(source: WordGenerator, start: int, size: int, table: dict[int, int], built: list[str]) -> Iterator[str]:
    """source[start:start + size] renamed by table, in slices of at most
    CHUNK_SLICE letters, each read only when the stream reaches it and
    appended to built, so that repeats of the chunk reuse it."""
    for lo in range(start, start + size, CHUNK_SLICE):
        piece = source._slice(lo, min(lo + CHUNK_SLICE, start + size)).translate(table)
        built.append(piece)
        yield piece


def _intermediate_pieces(source: WordGenerator, n: int, k: int, letters: str) -> Iterator[str]:
    """The intermediate word of OptimalBinaryGenerator as pieces: per block i,
    u_i SEP v_i SEP, n times, then u_i SEP END, where u_i and v_i are the
    i-th of the consecutive chunks of source with their lengths (see
    `_chunk_sizes`), renamed.  A chunk is read from the source a slice at a
    time, only when the stream reaches it.  A module function, so that the
    stream holds no reference to its generator."""
    u1, u2, v1, v2, sep, end = letters
    u_table, v_table = str.maketrans(source.alphabet, u1 + u2), str.maketrans(source.alphabet, v1 + v2)
    u_start = v_start = 0
    for i in count(1):
        u_size, v_size = _chunk_sizes(k, i)
        u: list[str] = []
        v: list[str] = []
        yield from _renamed_slices(source, u_start, u_size, u_table, u)
        yield sep
        yield from _renamed_slices(source, v_start, v_size, v_table, v)
        yield sep
        # One repeat at a time: n may be far larger than the prefix needs.
        for _ in range(n - 1):
            yield from u
            yield sep
            yield from v
            yield sep
        yield from u
        yield from (sep, end)
        u_start += u_size
        v_start += v_size


class OptimalBinaryGenerator(ImageGenerator):
    """Binary word whose plain repetitions stay near n + 1/(k+1) while a
    suitable injective morphism pushes them near n + 1.

    A six-letter intermediate word is built from a binary source word u split
    into chunks u_i (schedule: |u_1| = k+1, |u_(i+1)| = i^2 (k+1) |u_i|) and
    a renamed copy split into chunks v_i with |v_i| + 1 = k (|u_i| + 1):

        product over i of  (u_i SEP v_i SEP)^n u_i SEP END

    The emitted word is its image under a fixed-length (m-letter) Cassaigne
    encoding of the six letters, so a prefix of n letters reads only the
    first ceil(n/m) intermediate letters.
    """

    def __init__(self, n: int, k: int, m: int, base: WordGenerator | None = None):
        if n < 1:
            raise WordError("constraint violated: n must be >= 1")
        if k < 2:
            raise WordError("constraint violated: k must be >= 2")
        if m <= 2 * k + 2:
            raise WordError(f"constraint violated: m must exceed 2k+2 = {2 * k + 2}")
        source = _binary_base(base)
        h = cassaigne_morphism((m - 1, m - 2, 2, 1, 3, 4), m)
        letters = h.domain
        super().__init__(h, StreamGenerator(_intermediate_pieces(source, n, k, letters), letters))
        self.n, self.k, self.m = n, k, m

def cassaigne_morphism(weights: Sequence[int], m: int) -> Morphism:
    """Fixed-length binary images a^(m-f(i)) b^(f(i)) for an injective weight
    map f; preserves asymptotic repetition behaviour."""
    d = len(weights)
    if d < 1:
        raise WordError("need at least one weight")
    if len(set(weights)) != d:
        raise WordError("weight map must be injective")
    if any(f < 0 for f in weights):
        raise WordError("weights must be >= 0")
    if m < max(weights) + 1:
        raise WordError(f"m too small: need m >= max(f)+1 = {max(weights) + 1}")
    _check_build_size("the images", d * m, MAX_BUILD_LETTERS)
    letters = fresh_letters(d, avoid="ab")
    images = {letters[i]: "a" * (m - weights[i]) + "b" * weights[i] for i in range(d)}
    return Morphism(images, domain=letters, codomain="ab")


@dataclass(frozen=True)
class AceEstimate:
    """Per-length maximal exponents over a prefix, and their tail maximum.

    `estimate` is max over factor lengths >= tail of the exact maximal
    exponent at that length: a lower bound for the infinite word's asymptotic
    critical exponent, monotone in prefix_length and non-increasing in tail.
    It and its witness come from a direct search; only `rows()` builds the
    prefix's period profile, from `word`, on each call.
    """

    prefix_length: int
    tail: int
    word: str = field(repr=False)
    estimate: Fraction
    witness_offset: int
    witness_length: int

    def rows(self) -> list[tuple[int, int, int, int]]:
        """(length, exponent numerator, exponent denominator, offset) per
        factor length in tail..prefix_length: the maximal exponent among
        factors of that length, in lowest terms, and the leftmost start of
        a factor reaching it."""
        minper, start = minimal_period_profile(self.word)
        rows = []
        for length in range(self.tail, self.prefix_length + 1):
            period = minper[length]
            g = gcd(length, period)
            rows.append((length, length // g, period // g, start[length]))
        return rows

    def to_csv(self) -> str:
        lines = ["factor_length,max_exponent_num,max_exponent_den,witness_offset"]
        lines.extend(",".join(map(str, row)) for row in self.rows())
        return "\n".join(lines)


def ace_estimate(gen: WordGenerator, prefix_len: int, tail: int) -> AceEstimate:
    """Exact per-length maximal exponents over the length-prefix_len prefix,
    for factor lengths tail..prefix_len.  The search for the estimate and
    the profile behind the per-length rows are both quadratic at worst, so
    the prefix may have at most MAX_PROFILE_LETTERS letters."""
    if not 1 <= tail <= prefix_len:
        raise WordError(f"tail {tail} out of range 1..{prefix_len}")
    _check_build_size("the prefix", prefix_len, MAX_PROFILE_LETTERS)
    word = gen.prefix(prefix_len)
    best_len, best_per, best_start = _max_exponent(word, tail)
    return AceEstimate(
        prefix_length=prefix_len,
        tail=tail,
        word=word,
        estimate=Fraction(best_len, best_per),
        witness_offset=best_start,
        witness_length=best_len,
    )


def _parse_params(literal: str | None) -> dict[str, str]:
    params: dict[str, str] = {}
    pos = 0
    for chunk in literal.split(";") if literal else ():
        key, eq, value = chunk.partition("=")
        if not eq:
            raise ParseError(f"expected key=value in params, got {chunk!r}", pos)
        if key in params:
            raise ParseError(f"repeated parameter {key!r}", pos)
        params[key] = value
        pos += len(chunk) + 1
    return params


# Each generator's constructor and the parameters it reads, in argument
# order; any other key is refused, and only `base` may be left out.
_GENERATORS = {"periodic": (PeriodicGenerator, ("v",)), "thue-morse": (thue_morse, ()),
               "morphic": (MorphicGenerator, ("rules", "seed")),
               "interleaved": (InterleavedCopiesGenerator, ("n", "base")),
               "optimal-binary": (OptimalBinaryGenerator, ("n", "k", "m", "base"))}


def generator_from_spec(name: str, params: dict[str, str]) -> WordGenerator:
    """Build a generator from a CLI name and key=value parameters.  A base
    spec NAME[:FIELD...] gives the parameters of a generator that reads no
    base as fields in order, split from the right; it is built first."""
    if name not in _GENERATORS:
        raise ParseError(f"unknown generator {name!r}")
    make, keys = _GENERATORS[name]
    for key in params:
        if key not in keys:
            raise ParseError(f"generator {name!r} reads no parameter {key!r}")
    base = []
    if "base" in params:
        base_name, colon, fields = params["base"].partition(":")
        base_keys = _GENERATORS[base_name][1] if base_name in _GENERATORS else ()
        values = fields.rsplit(":", len(base_keys) - 1) if colon else []
        if "base" in base_keys or len(values) > len(base_keys):
            raise ParseError(f"base {params['base']!r} is not NAME[:FIELD...] of a generator that reads no base")
        base.append(generator_from_spec(base_name, dict(zip(base_keys, values))))
    args = []
    for key in filter("base".__ne__, keys):
        if key not in params:
            raise ParseError(f"generator {name!r} needs parameter {key!r}")
        value = params[key]
        if key in ("n", "k", "m"):
            try:
                value = int(value)
            except ValueError:
                raise ParseError(f"generator {name!r} parameter {key!r} is not an integer: {value!r}") from None
        args.append(parse_morphism(value) if key == "rules" else value)
    return make(*args, *base)
