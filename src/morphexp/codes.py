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
from math import inf
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


def _flanks(w: str, code: CodeSet) -> tuple[list[int], set[int], bool]:
    """The cuts an interpretation may start at (w[:c] a suffix of a code
    word) and end at (w[c:] a prefix of one), and whether the cut-free
    interpretation exists."""
    n, m = len(w), code.max_len
    suffixes = {x[i:] for x in code.words for i in range(len(x) + 1)}
    prefixes = {x[:i] for x in code.words for i in range(len(x) + 1)}
    starts = [c for c in range(min(n, m) + 1) if w[:c] in suffixes]
    ends = {c for c in range(max(n - m, 0), n + 1) if w[c:] in prefixes}
    return starts, ends, w in suffixes and w in prefixes


def _steps(w: str, code: CodeSet) -> list[list[int]]:
    """The parse graph of w over the code: steps[c] lists, in ascending
    order, the ends c + |x| of the code words x occurring at cut c."""
    by_len = sorted(code.words, key=len)
    return [[c + len(x) for x in by_len if w.startswith(x, c)] for c in range(len(w) + 1)]


def x_interpretations(w: str, code: CodeSet) -> list[Interpretation]:
    """All interpretations of w over the code set, ordered by cut tuple
    (the cut-free interpretation first when it exists)."""
    if not w:
        raise WordError("empty input")
    starts, ends, whole = _flanks(w, code)
    steps = _steps(w, code)
    found: list[tuple[int, ...]] = [()] if whole else []
    for first in starts:
        # Depth-first over the parse graph with an explicit stack, children
        # in ascending order, so cut tuples come out in lexicographic order.
        path, stack = [first], [iter(steps[first])]
        if first in ends:
            found.append((first,))
        while stack:
            cut = next(stack[-1], None)
            if cut is None:
                stack.pop()
                path.pop()
                continue
            path.append(cut)
            stack.append(iter(steps[cut]))
            if cut in ends:
                found.append(tuple(path))
    return [Interpretation(_pieces(w, cuts), cuts) for cuts in found]


def _max_vertex_disjoint_paths(steps: list[list[int]], starts: Iterable[int], ends: Iterable[int]) -> int:
    """Maximum number of start-to-end paths over `steps` sharing no cut, by
    augmenting unit flows; cut c splits into nodes 2c (in) and 2c + 1 (out)."""
    source = 2 * len(steps)
    sink = source + 1
    cap: list[dict[int, int]] = [{} for _ in range(sink + 1)]

    def add(u: int, v: int) -> None:
        cap[u][v] = 1
        cap[v].setdefault(u, 0)

    for c, targets in enumerate(steps):
        add(2 * c, 2 * c + 1)
        for d in targets:
            add(2 * c + 1, 2 * d)
    for c in starts:
        add(source, 2 * c)
    for c in ends:
        add(2 * c + 1, sink)

    flow = 0
    while True:
        parent = [-1] * (sink + 1)
        parent[source] = source
        queue = deque([source])
        while queue and parent[sink] < 0:
            u = queue.popleft()
            for v, residual in cap[u].items():
                if residual and parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
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
    starts, ends, whole = _flanks(w, code)
    return whole + _max_vertex_disjoint_paths(_steps(w, code), starts, ends)


def x_factorization_count(w: str, code: CodeSet) -> int:
    """Number of ways to write w as a concatenation of code words."""
    if not w:
        raise WordError("empty input")
    return parse_counts(w, code.words)[len(w)]


def is_synchronizing(w: str, code: CodeSet, probe_len: int | None = None) -> int | None:
    """Smallest split t such that, in every probed context, each occurrence
    of w inside a concatenation of code words has a parse boundary exactly t
    letters into w; None if no split survives.

    The defining condition quantifies over all of X*; this checks it against
    every v in X* with |v| <= probe_len (default 4 * (|w| + max code length)),
    without enumerating products.  The parse is unique, so the boundaries
    inside an occurrence depend only on its cover, the code words it meets,
    and a product of length <= probe_len holds the occurrence exactly when
    the cover is that short.  A cover is a code word holding w strictly
    inside it, which kills every split, or a path in the parse graph of w
    from an entry cut c (0, or w[:c] a proper suffix of a code word) to an
    exit cut e (|w|, or w[e:] a proper prefix of one); its length is |w|
    plus the letters of its flanking words outside w.  Split t survives when
    every cover avoiding t is longer than probe_len.
    """
    if not w:
        raise WordError("empty input")
    if not code.is_code():
        raise WordError("the word set is not a code")
    n = len(w)
    if probe_len is None:
        probe_len = 4 * (n + code.max_len)
    budget = probe_len - n  # letters the flanking words may add outside w
    if any(len(x) <= probe_len and w in x[1:-1] for x in code.words):
        return None
    enter = {0: 0}
    leave = {n: 0}
    for x in code.words:
        for c in range(1, min(n, len(x) - 1) + 1):
            if x.endswith(w[:c]):
                enter[c] = min(enter.get(c, len(x)), len(x) - c)
            if x.startswith(w[n - c:]):
                leave[n - c] = min(leave.get(n - c, len(x)), len(x) - c)
    steps = _steps(w, code)
    # Cheapest entry reaching each cut, and cheapest exit reachable from it.
    reach = [enter.get(c, inf) for c in range(n + 1)]
    for c in range(n + 1):
        for d in steps[c]:
            reach[d] = min(reach[d], reach[c])
    onward = [leave.get(c, inf) for c in range(n + 1)]
    for c in range(n, -1, -1):
        onward[c] = min([onward[c]] + [onward[d] for d in steps[c]])
    for t in range(n + 1):
        # Cuts increase along a path, so a cover avoiding t ends before t,
        # starts after it, or jumps over it with one code word.
        shortest = min(
            [reach[e] + cost for e, cost in leave.items() if e < t]
            + [cost + onward[c] for c, cost in enter.items() if c > t]
            + [reach[u] + onward[d] for u in range(max(t - code.max_len, 0), t) for d in steps[u] if d > t],
            default=inf,
        )
        if shortest > budget:
            return t
    return None
