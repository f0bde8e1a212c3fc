"""Parsing finite words over a finite set of words: degree and synchronization.

An interpretation of w over a set X is a factorization whose first piece is a
suffix of an X-word, last piece is a prefix of an X-word, and interior pieces
are X-words (the flanking pieces may be empty).  An interpretation is fully
determined by its cut positions; two interpretations are disjoint when their
cut sets do not meet.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Iterable

from .morphisms import is_code
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


def _flanks(w: str, code: CodeSet) -> tuple[dict[int, int], dict[int, int]]:
    """Where an occurrence of w may enter and leave its flanking code words:
    enter maps 0, and each c with w[:c] a proper suffix of a code word, to
    the fewest letters such a word adds before w; leave maps |w|, and each c
    with w[c:] a proper prefix of one, to the fewest it adds after w."""
    n = len(w)
    enter = {0: 0}
    leave = {n: 0}
    for x in code.words:
        for c in range(1, min(n, len(x) - 1) + 1):
            if x.endswith(w[:c]):
                enter[c] = min(enter.get(c, len(x)), len(x) - c)
            if x.startswith(w[n - c:]):
                leave[n - c] = min(leave.get(n - c, len(x)), len(x) - c)
    return enter, leave


def _steps(w: str, code: CodeSet) -> list[list[int]]:
    """The parse graph of w over the code: steps[c] lists, in ascending
    order, the ends c + |x| of the code words x occurring at cut c."""
    by_len = sorted(code.words, key=len)
    return [[c + len(x) for x in by_len if w.startswith(x, c)] for c in range(len(w) + 1)]


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
    disjoint family is a maximal set of vertex-disjoint paths.  A path starts
    at a flank entry or where the code word at 0 ends, and ends at a flank
    exit or where a code word ending at |w| starts; the cut-free
    interpretation exists when |w| is a start and 0 an end, conflicts with
    nothing and contributes one more.
    """
    if not w:
        raise WordError("empty input")
    enter, leave = _flanks(w, code)
    steps = _steps(w, code)
    starts = set(enter) | set(steps[0])
    ends = set(leave) | {c for c, targets in enumerate(steps) if len(w) in targets}
    return (len(w) in starts and 0 in ends) + _max_vertex_disjoint_paths(steps, starts, ends)


def _default_probe(w: str, code: CodeSet) -> int:
    """The probe length is_synchronizing uses when none is given."""
    return 4 * (len(w) + code.max_len)


def is_synchronizing(w: str, code: CodeSet, probe_len: int | None = None) -> int | None:
    """Smallest split t such that, in every probed context, each occurrence
    of w inside a concatenation of code words has a parse boundary exactly t
    letters into w; None if no split survives.

    The defining condition quantifies over all of X*; this checks it against
    every v in X* with |v| <= probe_len (default 4 * (|w| + max code length)),
    without enumerating products.  The parse is unique, so the boundaries
    inside an occurrence depend only on its cover, the code words it meets,
    and a product of length <= probe_len holds the occurrence exactly when
    the cover is that short.  A cover is a chain of steps: an entry at cut c
    (0, or w[:c] a proper suffix of a code word), code words u -> d of the
    parse graph and an exit at cut e (|w|, or w[e:] a proper prefix of one),
    or one code word holding w strictly inside it.  Its length is |w| plus
    the letters of its words outside w.  Split t dies exactly when a step
    jumping over t lies on a cover of at most probe_len letters.

    No cover is longer than the saturation length |w| + 2 * max - 2: a
    flanking word adds at most max - 1 letters on each side, and a code word
    holding w has at most max.  The default probe is at least that, so the
    default answer is exact over all of X*.
    """
    if not w:
        raise WordError("empty input")
    if not is_code(code.words):
        raise WordError("the word set is not a code")
    n = len(w)
    if probe_len is None:
        probe_len = _default_probe(w, code)
    budget = probe_len - n  # letters the flanking words may add outside w
    enter, leave = _flanks(w, code)
    steps = _steps(w, code)
    # Cheapest entry reaching each cut, and cheapest exit reachable from it.
    reach = [enter.get(c, inf) for c in range(n + 1)]
    for c in range(n + 1):
        for d in steps[c]:
            reach[d] = min(reach[d], reach[c])
    onward = [leave.get(c, inf) for c in range(n + 1)]
    for c in range(n, -1, -1):
        onward[c] = min([onward[c]] + [onward[d] for d in steps[c]])
    # The splits [lo, hi] each step of a short enough cover jumps over; one
    # sweep finds the first split none covers, in O((|w| + E) log E).
    jumps = sorted(
        [(0, c - 1) for c, cost in enter.items() if cost + onward[c] <= budget]
        + [(e + 1, n) for e, cost in leave.items() if reach[e] + cost <= budget]
        + [(u + 1, d - 1) for u in range(n + 1) for d in steps[u] if reach[u] + onward[d] <= budget]
        + [(0, n) for x in code.words if len(x) - n <= budget and w in x[1:-1]]
    )
    t = 0  # the first split no jump seen so far covers
    for lo, hi in jumps:
        if lo > t:
            break
        t = max(t, hi + 1)
    return t if t <= n else None
