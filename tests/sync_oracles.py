"""Reference parsing engines over a set of words, for the tests.

`_split_probed` is the literal reading of the probed definition that
`morphexp.codes.is_synchronizing` computes from covers: it enumerates every
product of code words up to the probe length and intersects the splits that
each occurrence of the text allows.  Its cost grows exponentially with the
probe length, so it runs only on small inputs.  `_split_by_minimum` reads the
same covers split by split: for each split t it takes the cheapest cover that
ends before t, starts after t, jumps over t with one code word, or is a code
word holding the text, and `_killing_steps` names which of those kinds fit
the probe.  It costs |w| times the number of entries, exits and nearby code
words, so it runs on short texts.  `_parse_boundaries` gives the
parse boundaries of one product from the forward parse count `parse_counts`;
the backward count is the forward count run on the reversed text and pieces.
`decode` reads the preimage under an injective morphism off the same count.

`x_interpretations` lists the interpretations of a word over a set X straight
from their definition: the first piece is a suffix of an X-word, the interior
pieces are X-words and the last piece is a prefix of an X-word.  It shares no
code with `morphexp.codes.x_degree`, whose disjoint families the degree tests
check against it.
"""

from collections import deque
from dataclasses import dataclass
from math import inf

from morphexp.codes import CodeSet, _default_probe, _flanks, _steps
from morphexp.morphisms import Morphism, is_code
from morphexp.words import WordError


def parse_counts(text, pieces):
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


def decode(h: Morphism, w: str) -> str | None:
    """Preimage of w under an injective morphism, or None when w is not in
    the image submonoid."""
    if not is_code(list(h.images.values())):
        raise WordError("decode requires an injective morphism")
    ways = parse_counts(w, list(h.images.values()))
    pos = len(w)
    if not ways[pos]:
        return None
    # The parse is unique, so walking back from the end along parseable
    # prefixes retraces it.
    out = []
    while pos:
        for letter, img in h.images.items():
            if w.endswith(img, 0, pos) and ways[pos - len(img)]:
                out.append(letter)
                pos -= len(img)
                break
    return "".join(reversed(out))


def _parse_boundaries(text: str, code: CodeSet) -> set[int]:
    """Positions m with text[:m] and text[m:] both concatenations of code
    words.  For a code these are exactly the boundaries of the unique parse."""
    n = len(text)
    forward = parse_counts(text, code.words)
    backward = parse_counts(text[::-1], [x[::-1] for x in code.words])
    return {m for m in range(n + 1) if forward[m] and backward[n - m]}


def _split_probed(text: str, code: CodeSet, probe_len: int) -> int | None:
    """Literal probe: intersect the allowed splits over every product of code
    words up to probe_len that contains the text."""
    candidates = set(range(len(text) + 1))
    queue: deque[str] = deque([""])
    while queue and candidates:
        v = queue.popleft()
        for x in code.words:
            u = v + x
            if len(u) > probe_len:
                continue
            queue.append(u)
            start = u.find(text)
            if start < 0:
                continue
            boundaries = _parse_boundaries(u, code)
            while start >= 0 and candidates:
                candidates &= {m - start for m in boundaries if 0 <= m - start <= len(text)}
                start = u.find(text, start + 1)
    return min(candidates) if candidates else None


def _killing_steps(text: str, code: CodeSet, probe_len: int | None = None) -> list[set[str]]:
    """For each split t of the text, the kinds of cover of at most probe_len
    letters that avoid t: `exit` (ends before t), `entry` (starts after t),
    `word` (a code word jumps over t) and `holding` (a code word holds the
    text strictly inside it)."""
    if not is_code(code.words):
        raise WordError("the word set is not a code")
    n = len(text)
    if probe_len is None:
        probe_len = _default_probe(text, code)
    budget = probe_len - n
    enter, leave = _flanks(text, code)
    steps = _steps(text, code)
    reach = [enter.get(c, inf) for c in range(n + 1)]
    for c in range(n + 1):
        for d in steps[c]:
            reach[d] = min(reach[d], reach[c])
    onward = [leave.get(c, inf) for c in range(n + 1)]
    for c in range(n, -1, -1):
        onward[c] = min([onward[c]] + [onward[d] for d in steps[c]])
    holding = min((len(x) - n for x in code.words if text in x[1:-1]), default=inf)
    kills = []
    for t in range(n + 1):
        # Cuts increase along a path, so a cover avoiding t ends before t,
        # starts after it, or jumps over it with one code word, which starts
        # at most max_len cuts before t.
        shortest = {
            "exit": min((reach[e] + cost for e, cost in leave.items() if e < t), default=inf),
            "entry": min((cost + onward[c] for c, cost in enter.items() if c > t), default=inf),
            "word": min(
                (reach[u] + onward[d] for u in range(max(t - code.max_len, 0), t) for d in steps[u] if d > t),
                default=inf,
            ),
            "holding": holding,
        }
        kills.append({kind for kind, cost in shortest.items() if cost <= budget})
    return kills


def _split_by_minimum(text: str, code: CodeSet, probe_len: int | None = None) -> int | None:
    """The first split that no cover of at most probe_len letters avoids."""
    return next((t for t, kinds in enumerate(_killing_steps(text, code, probe_len)) if not kinds), None)


@dataclass(frozen=True)
class Interpretation:
    """Pieces of one parse, plus the cut offsets separating them (a cut at 0
    or at |w| marks an empty flanking piece)."""

    pieces: tuple[str, ...]
    cuts: tuple[int, ...]

    def to_text(self) -> str:
        pieces = "|".join(p or "''" for p in self.pieces)
        return f"{pieces} @ [{','.join(map(str, self.cuts))}]"


def _pieces(text, cuts):
    bounds = (0,) + cuts + (len(text),)
    return tuple(text[a:b] for a, b in zip(bounds, bounds[1:]))


def x_interpretations(w, code):
    """The interpretations of w over the code set, ordered by cut tuple (the
    cut-free one first when it exists).  An empty word is refused."""
    if not w:
        raise WordError("empty input")
    return _interpretations(w, set(code.words))


def _interpretations(w, words):
    suffixes = {x[i:] for x in words for i in range(len(x) + 1)}
    prefixes = {x[:i] for x in words for i in range(len(x) + 1)}
    if w in suffixes and w in prefixes:
        yield Interpretation((w,), ())
    for first in range(len(w) + 1):
        if w[:first] in suffixes:
            yield from _continuations(w, words, prefixes, (first,))


def _continuations(w, words, prefixes, cuts):
    """Every interpretation whose cuts start with `cuts`, in tuple order: the
    one that ends there first, then those that go on by one more X-word."""
    last = cuts[-1]
    if w[last:] in prefixes:
        yield Interpretation(_pieces(w, cuts), cuts)
    for end in range(last + 1, len(w) + 1):
        if w[last:end] in words:
            yield from _continuations(w, words, prefixes, cuts + (end,))
