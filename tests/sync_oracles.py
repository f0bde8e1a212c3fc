"""Reference synchronization engine for the tests.

`_split_probed` is the literal reading of the probed definition that
`morphexp.codes.is_synchronizing` computes from covers: it enumerates every
product of code words up to the probe length and intersects the splits that
each occurrence of the text allows.  Its cost grows exponentially with the
probe length, so it runs only on small inputs.  `_parse_boundaries` gives the
parse boundaries of one product from the forward parse count; the backward
count is the forward count run on the reversed text and pieces.
"""

from collections import deque

from morphexp.codes import CodeSet
from morphexp.morphisms import parse_counts


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
