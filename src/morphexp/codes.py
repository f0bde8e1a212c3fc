"""Parsing finite words over a finite set of words: interpretations, degree,
factorization counts, synchronization.

An interpretation of w over a set X is a factorization whose first piece is a
suffix of an X-word, last piece is a prefix of an X-word, and interior pieces
are X-words (the flanking pieces may be empty).  An interpretation is fully
determined by its cut positions; two interpretations are disjoint when their
cut sets do not meet.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .morphisms import parse_counts, sardinas_patterson
from .words import ParseError, WordError


class CodeSet:
    """A finite set of nonempty, pairwise distinct words."""

    __slots__ = ("words",)

    def __init__(self, words: Iterable[str]):
        ws = tuple(words)
        if not ws:
            raise WordError("empty code set")
        seen = set()
        for w in ws:
            if not w:
                raise WordError("code sets may not contain the empty word")
            if w in seen:
                raise WordError(f"duplicate code word {w!r}")
            seen.add(w)
        self.words = ws

    @property
    def max_len(self) -> int:
        return max(len(w) for w in self.words)

    def is_code(self) -> bool:
        """True iff every concatenation of elements decodes uniquely."""
        return sardinas_patterson(self.words) is None

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, w: object) -> bool:
        return w in self.words

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CodeSet) and set(self.words) == set(other.words)

    def __hash__(self) -> int:
        return hash(frozenset(self.words))

    def __repr__(self) -> str:
        return f"CodeSet({self.to_text()!r})"

    def to_text(self) -> str:
        return ",".join(self.words)


def parse_code_set(literal: str) -> CodeSet:
    """Parse `ab,ba` (an optional leading `X=` is accepted and ignored)."""
    body = literal[2:] if literal.startswith("X=") else literal
    offset = len(literal) - len(body)
    pos = offset
    words = []
    for chunk in body.split(","):
        if not chunk:
            raise ParseError("empty code word in code set literal", pos)
        if chunk in words:
            raise ParseError(f"duplicate code word {chunk!r}", pos)
        words.append(chunk)
        pos += len(chunk) + 1
    return CodeSet(words)


@dataclass(frozen=True)
class Interpretation:
    """Pieces of one parse, plus the cut offsets separating them (a cut at 0
    or at |w| marks an empty flanking piece)."""

    pieces: tuple[str, ...]
    cuts: tuple[int, ...]

    def to_text(self) -> str:
        pieces = "|".join(p or "''" for p in self.pieces)
        return f"{pieces} @ [{','.join(map(str, self.cuts))}]"


def _pieces(text: str, cuts: tuple[int, ...]) -> tuple[str, ...]:
    bounds = (0,) + cuts + (len(text),)
    return tuple(text[a:b] for a, b in zip(bounds, bounds[1:]))


def _affixes(code: CodeSet) -> tuple[set[str], set[str]]:
    """Every suffix and every prefix of a code word, the empty word included:
    the allowed first and last pieces of an interpretation."""
    suffixes = {x[i:] for x in code.words for i in range(len(x) + 1)}
    prefixes = {x[:i] for x in code.words for i in range(len(x) + 1)}
    return suffixes, prefixes


def x_interpretations(w: str, code: CodeSet) -> list[Interpretation]:
    """All interpretations of w over the code set, ordered by cut tuple
    (the cut-free interpretation first when it exists)."""
    if not w:
        raise WordError("empty input")
    n = len(w)
    suffixes, prefixes = _affixes(code)
    elements = sorted(code.words, key=len)

    found: list[tuple[int, ...]] = []
    if w in suffixes and w in prefixes:
        found.append(())

    def extend(pos: int, cuts: tuple[int, ...]) -> None:
        if w[pos:] in prefixes:
            found.append(cuts)
        for x in elements:
            end = pos + len(x)
            if end <= n and w.startswith(x, pos):
                extend(end, cuts + (end,))

    for first_cut in range(n + 1):
        if w[:first_cut] in suffixes:
            extend(first_cut, (first_cut,))

    return [Interpretation(_pieces(w, cuts), cuts) for cuts in found]


def _max_vertex_disjoint_paths(positions: int, starts: set[int], ends: set[int],
                               edges: list[tuple[int, int]]) -> int:
    """Maximum number of S->T paths sharing no position node, by augmenting
    unit flows through split nodes."""
    source, sink = -1, -2
    cap: dict[object, dict[object, int]] = {source: {}, sink: {}}

    def node_in(c: int) -> tuple[str, int]:
        return ("in", c)

    def node_out(c: int) -> tuple[str, int]:
        return ("out", c)

    def add(u: object, v: object) -> None:
        cap.setdefault(u, {})[v] = 1
        cap.setdefault(v, {}).setdefault(u, 0)

    for c in range(positions + 1):
        add(node_in(c), node_out(c))
    for c in starts:
        add(source, node_in(c))
    for c in ends:
        add(node_out(c), sink)
    for u, v in edges:
        add(node_out(u), node_in(v))

    flow = 0
    while True:
        parent: dict[object, object] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, residual in cap[u].items():
                if residual and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= 1
            cap[v][u] += 1
            v = u
        flow += 1


def x_degree(w: str, code: CodeSet) -> int:
    """Maximal number of pairwise disjoint interpretations of w, exactly.

    Interpretations with at least one cut are the source-to-sink paths of the
    parse graph on cut positions (edges are code words), so a maximal
    disjoint family is a maximal set of vertex-disjoint paths; the cut-free
    interpretation conflicts with nothing and contributes one more.
    """
    if not w:
        raise WordError("empty input")
    n = len(w)
    suffixes, prefixes = _affixes(code)
    starts = {c for c in range(n + 1) if w[:c] in suffixes}
    ends = {c for c in range(n + 1) if w[c:] in prefixes}
    edges = [
        (c, c + len(x))
        for c in range(n + 1)
        for x in code.words
        if w.startswith(x, c)
    ]
    whole = 1 if w in suffixes and w in prefixes else 0
    return whole + _max_vertex_disjoint_paths(n, starts, ends, edges)


def x_factorization_count(w: str, code: CodeSet) -> int:
    """Number of ways to write w as a concatenation of code words."""
    if not w:
        raise WordError("empty input")
    return parse_counts(w, code.words)[len(w)]


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


def _split_saturated(text: str, code: CodeSet) -> int | None:
    """Splits that survive every occurrence context, however long.

    Occurrence contexts are bounded: the parse of a product is compositional
    for codes, so the boundaries falling inside an occurrence of the text are
    decided by the covering code words alone.  Covers with no boundary in the
    span (the text strictly inside one code word) kill every split; all other
    covers are paths over boundary positions, entered either at a position
    whose prefix completes a code word on the left, or at 0 (empty left
    context), and exited symmetrically.  A split survives exactly when every
    such path passes through it.
    """
    n = len(text)
    for x in code.words:
        q = x.find(text, 1)
        while q != -1:
            if q + n < len(x):
                return None
            q = x.find(text, q + 1)

    enter = {0}
    for c in range(1, n + 1):
        if any(len(x) > c and x.endswith(text[:c]) for x in code.words):
            enter.add(c)
    leave = {n}
    for c in range(0, n):
        if any(len(x) > n - c and x.startswith(text[c:]) for x in code.words):
            leave.add(c)
    step = {c: [c + len(x) for x in code.words if c + len(x) <= n and text.startswith(x, c)]
            for c in range(n + 1)}

    def path_avoiding(t: int) -> bool:
        seen = set(enter - {t})
        queue = deque(seen)
        while queue:
            c = queue.popleft()
            if c in leave:
                return True
            for d in step[c]:
                if d != t and d not in seen:
                    seen.add(d)
                    queue.append(d)
        return False

    candidates = [t for t in range(n + 1) if not path_avoiding(t)]
    return candidates[0] if candidates else None


def is_synchronizing(w: str, code: CodeSet, probe_len: int | None = None) -> int | None:
    """Smallest split t such that, in every probed context, each occurrence
    of w inside a concatenation of code words has a parse boundary exactly t
    letters into w; None if no split survives.

    The defining condition quantifies over all of X*; this checks it against
    every v in X* with |v| <= probe_len (default 4 * (|w| + max code length)).
    Occurrence contexts are bounded by one code word on each side, so for any
    probe_len >= |w| + 2 * max_len the probed answer equals the answer over
    all of X* and is computed directly, without enumerating products.
    """
    if not w:
        raise WordError("empty input")
    if not code.is_code():
        raise WordError("the word set is not a code")
    if probe_len is None:
        probe_len = 4 * (len(w) + code.max_len)
    if probe_len >= len(w) + 2 * code.max_len:
        return _split_saturated(w, code)
    return _split_probed(w, code, probe_len)
