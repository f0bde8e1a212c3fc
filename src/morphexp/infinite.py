"""Prefix generators for infinite-word constructions, plus an exact
repetition estimator over those prefixes.

Generators produce stable prefixes: prefix(n) is a prefix of prefix(m) for
n <= m.  The estimator gives the exact maximal fractional exponent among the
factors of a prefix no shorter than a tail length; it is a lower bound for
the asymptotic behaviour of the infinite word, never a claimed limit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import factorial
from types import MappingProxyType
from typing import Iterable, Iterator

from .morphisms import Morphism, parse_morphism
from .words import (
    MAX_BUILD_LETTERS,
    ParseError,
    WordError,
    _check_build_size,
    _max_exponent,
    fresh_letters,
    letter_set,
)

MAX_PROFILE_LETTERS = 100_000

# The image length below which a uniform morphism expands faster by columns
# than by str.translate (see `_Expansion`).
LONG_IMAGE = 64

# The image length `_long_power` grows a morphic fixed point's images to:
# translate costs about the same per input letter whatever the image length.
POWER_IMAGE = 1 << 10

# The most letters the images of a power past h itself may hold together.
POWER_BUDGET = 1 << 16

# The most letters of a chunk u_i or v_i the optimal-binary stream reads and
# renames at once, so the stream ends at most this far past what a prefix needs.
CHUNK_SLICE = 1 << 14

# The most letters the memo of expansion set-ups holds, each translate table
# counted as 256 (see `_expansion_setup`).
MAX_CACHED_LETTERS = 1 << 20


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


class _Expansion(WordGenerator):
    """The image g(x) of a word x under a morphism g built from a morphism h,
    `.morphism`: h itself, or for a fixed point grown from a seed the power
    of h that `_long_power` picks.  A subclass reads x through `_read`.

    Its letters always equal g(x[:cursor]).  A missing stretch of the prefix
    is filled by expanding the next ceil(missing / longest image of g)
    letters of x, so a prefix costs O(n) and the letters end less than one
    image of g past the requested length.  Blocks are scanned for letters
    outside the domain only when the alphabet of x does not lie inside it;
    such a letter raises only once the cursor reaches it while the requested
    prefix is still longer than the letters held.

    When every image of g has the same length m < LONG_IMAGE and every
    letter is ASCII, a block is expanded by columns: letter j of each image
    is one bytes translate of the block, written to every m-th byte from j.
    Any other g expands by str.translate.  Both sets of tables come from
    the per-process memo of `_expansion_setup`, so building the same
    generator again derives nothing from h.
    """

    def __init__(self, h: Morphism, seed: str | None, x_alphabet: str):
        super().__init__(h.codomain)
        self.morphism = h
        self._cursor = 0
        self._table, self._columns, self._longest, self._domain, _ = _expansion_setup(h.images, seed)
        self._scan = bool(x_alphabet.lstrip(self._domain))

    def _read(self, hi: int) -> str:
        """Letters cursor..hi-1 of x, or fewer where x holds fewer."""
        raise NotImplementedError

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
        while self.size < n:
            block = self._read(self._cursor - (-(n - self.size) // self._longest))
            if not block:
                break
            known = len(block)
            if self._scan:
                known -= len(block.lstrip(self._domain))
            self._add(self._image(block[:known]))
            self._cursor += known
            if known < len(block) and self.size < n:
                raise WordError(f"letter {block[known]!r} outside morphism domain")


class ImageGenerator(_Expansion):
    """The image h(x) of a base word x under a nonerasing morphism h, which
    reads only the base letters its prefixes need (see `_Expansion`)."""

    def __init__(self, h: Morphism, base: WordGenerator):
        if base is None:
            raise WordError("an image needs a base word")
        if not min(map(len, h.images.values()), default=0):
            raise WordError("erasing morphism: the image of a base word may stop growing")
        super().__init__(h, None, base.alphabet)
        self.base = base

    def _read(self, hi: int) -> str:
        return self.base._slice(self._cursor, hi)


def _long_power(images: dict[str, str], seed: str) -> dict[str, str]:
    """The images of h^j on the letters of the fixed point grown from seed
    (those reachable from it under h), for the least j whose longest image
    among them has at least POWER_IMAGE letters, stopping once none of their
    image lengths changes, at j = 64, and before a step whose images would
    hold more than POWER_BUDGET letters together.  Each step is one
    translate: h^(j+1)(a) is h(a) under the table of h^j.  A fixed point of
    h is one of h^j, and translate costs about the same per input letter
    whatever the image length, so long images make growth cheap.  j = 1,
    with every image of h, when some reachable letter has no image (h^2
    undefined on the word).  Thue-Morse takes 10 steps, most of the cost of
    building its generator, so generators read the power through the memo
    of `_expansion_setup`, which runs this once per morphism and seed."""
    reachable, todo = set(seed), list(seed)
    while todo:
        for ch in images.get(todo.pop(), ""):
            if ch not in reachable:
                reachable.add(ch)
                todo.append(ch)
    if not reachable <= images.keys():
        return images
    images = {letter: image for letter, image in images.items() if letter in reachable}
    # h^(j+1) holds |h^j(b)| letters for each occurrence of b in an image of h.
    occurrences = Counter("".join(images.values()))
    power, sizes = images, {letter: len(image) for letter, image in images.items()}
    for _ in range(63):
        if max(sizes.values()) >= POWER_IMAGE:
            break
        if sum([sizes[ch] * k for ch, k in occurrences.items()]) > POWER_BUDGET:
            break
        table = str.maketrans(power)
        longer = {letter: image.translate(table) for letter, image in images.items()}
        longer_sizes = {letter: len(image) for letter, image in longer.items()}
        if longer_sizes == sizes:
            break
        power, sizes = longer, longer_sizes
    return power


class _SetupMemo(dict):
    """The expansion set-ups built in this process, keyed by a morphism's
    images and the seed of its fixed point, or None for an image of a base
    word; `letters` is the sum of their sizes."""

    letters = 0

    def clear(self) -> None:
        super().clear()
        self.letters = 0


_setups = _SetupMemo()


def _expansion_setup(images: dict[str, str], seed: str | None) -> tuple:
    """(table, columns, longest, domain, size) of the morphism g that
    `_Expansion` expands by: h's `images` for seed None, else the power
    `_long_power(images, seed)`.  The table is a read-only `str.maketrans`
    of g, the columns a tuple of bytes tables or None, longest g's longest
    image (at least 1), domain the letters g maps, and size the letters of
    h's images and of g's plus 256 per translate table.

    The memo holds these immutable values and no generator.  It is filled
    on first use, stores an entry only if it fits beside those held within
    MAX_CACHED_LETTERS, and evicts nothing.  A one-shot CLI command builds
    each generator once, so only callers that build the same generator
    again in one process gain."""
    key = (tuple(images.items()), seed)
    found = _setups.get(key)
    if found is not None:
        return found
    power = images if seed is None else _long_power(images, seed)
    sizes = set(map(len, power.values()))
    longest = max(max(sizes, default=0), 1)
    domain = "".join(power)
    columns = None
    letters = "".join([domain, *power.values()])
    if len(sizes) == 1 and 0 < longest < LONG_IMAGE and letters.isascii():
        ascii_domain = domain.encode()
        columns = tuple(
            bytes.maketrans(ascii_domain, "".join([image[j] for image in power.values()]).encode())
            for j in range(longest)
        )
    size = sum(map(len, images.values())) + len(letters) + 256 * (1 + len(columns or ()))
    found = (MappingProxyType(str.maketrans(power)), columns, longest, domain, size)
    if _setups.letters + size <= MAX_CACHED_LETTERS:
        _setups[key] = found
        _setups.letters += size
    return found


class MorphicGenerator(_Expansion):
    """Fixed point x = lim h^k(seed) of a morphism h prolongable on its seed:
    h(seed) is seed followed by at least one letter.  The word is the image
    of itself under g, the long-image power h^j of h (see `_long_power`),
    grown from g(seed) by reading its own unexpanded letters as far as it
    holds them."""

    def __init__(self, rules: Morphism, seed: str):
        start = rules.apply(seed)
        if len(start) <= len(seed) or not start.startswith(seed):
            raise WordError(f"morphism is not prolongable on seed {seed!r}")
        super().__init__(rules, seed, rules.codomain)
        self.seed = seed
        self._add(seed.translate(self._table))
        self._cursor = len(seed)

    def _read(self, hi: int) -> str:
        return self._slice(self._cursor, min(hi, self.size))


_THUE_MORSE = Morphism({"0": "01", "1": "10"})


def thue_morse() -> MorphicGenerator:
    return MorphicGenerator(_THUE_MORSE, "0")


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
        h = cassaigne_morphism(m)
        super().__init__(h, StreamGenerator(_intermediate_pieces(source, n, k, h.domain), h.domain))
        self.n, self.k, self.m = n, k, m


def cassaigne_morphism(m: int) -> Morphism:
    """The Cassaigne encoding of six fresh letters: fixed-length binary
    images a^(m-f(i)) b^(f(i)) for the injective weight map f = (m-1, m-2,
    2, 1, 3, 4), which needs m >= 7; preserves asymptotic repetition
    behaviour."""
    if m < 7:
        raise WordError(f"m too small: need m >= 7, got {m}")
    _check_build_size("the images", 6 * m, MAX_BUILD_LETTERS)
    weights = (m - 1, m - 2, 2, 1, 3, 4)
    return Morphism({ch: "a" * (m - f) + "b" * f for ch, f in zip(fresh_letters(6, avoid="ab"), weights)})


@dataclass(frozen=True)
class AceEstimate:
    """The tail maximum of the per-length maximal exponents over a prefix.

    `estimate` is max over factor lengths >= tail of the exact maximal
    exponent at that length: a lower bound for the infinite word's asymptotic
    critical exponent, monotone in the prefix length and non-increasing in
    tail.  The witness is the shortest factor reaching it, at its leftmost
    start.
    """

    estimate: Fraction
    witness_offset: int
    witness_length: int


def _ace_prefix(gen: WordGenerator, prefix_len: int, tail: int) -> str:
    """The length-prefix_len prefix of gen, for factor lengths
    tail..prefix_len.  Its period profile is quadratic, so it may have at
    most MAX_PROFILE_LETTERS letters."""
    if not 1 <= tail <= prefix_len:
        raise WordError(f"tail {tail} out of range 1..{prefix_len}")
    _check_build_size("the prefix", prefix_len, MAX_PROFILE_LETTERS)
    return gen.prefix(prefix_len)


def ace_estimate(gen: WordGenerator, prefix_len: int, tail: int) -> AceEstimate:
    """The exact maximal exponent among factors of length tail..prefix_len
    of the length-prefix_len prefix, with its witness.  It comes from
    `_max_exponent`, which tests only the shifts where an aligned block
    recurs: on the aperiodic generators at 100,000 letters, about 520
    shifts where testing every shift up to its stop took 27,640 to 49,999.
    It is still quadratic at worst, so the prefix obeys the profile's
    MAX_PROFILE_LETTERS limit."""
    best_len, best_per, best_start = _max_exponent(_ace_prefix(gen, prefix_len, tail), tail)
    return AceEstimate(Fraction(best_len, best_per), best_start, best_len)


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
    base as fields in order, split from the right; it is built first.  A
    position in a parse error counts from the start of the parameters
    written as `--params` takes them, key=value joined by `;`."""
    offsets, at = {}, 0
    for key, value in params.items():
        offsets[key] = at + len(key) + 1
        at += len(key) + len(value) + 2
    return _from_spec(name, params, offsets)


def _from_spec(name: str, params: dict[str, str], offsets: dict[str, int]) -> WordGenerator:
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
        at = offsets["base"] + len(base_name) + 1
        base_offsets = {}
        for key, value in zip(base_keys, values):
            base_offsets[key] = at
            at += len(value) + 1
        base.append(_from_spec(base_name, dict(zip(base_keys, values)), base_offsets))
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
        elif key == "rules":
            try:
                value = parse_morphism(value)
            except ParseError as exc:
                raise ParseError(exc.message, offsets[key] + exc.position) from None
        args.append(value)
    return make(*args, *base)
