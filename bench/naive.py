"""Independent reference computations for the output checks.

Nothing here imports morphexp: each function is the plainest correct
definition, so a check that uses it does not share code with the program
under test.
"""

from __future__ import annotations

from fractions import Fraction
from string import ascii_lowercase, ascii_uppercase, digits


def smallest_period(w: str) -> int:
    """Least p >= 1 with w[i] == w[i + p] wherever both exist."""
    for p in range(1, len(w) + 1):
        if w[p:] == w[:len(w) - p]:
            return p
    raise ValueError("empty word")


def exponent(w: str) -> Fraction:
    return Fraction(len(w), smallest_period(w))


def is_primitive(w: str) -> bool:
    n = len(w)
    return not any(n % d == 0 and w[:d] * (n // d) == w for d in range(1, n))


def gap_factorizations(w: str) -> list[tuple[str, str, str, str]]:
    """(letter, head, gap, tail) for every letter whose occurrence gaps are
    all equal."""
    out = []
    for letter in sorted(set(w)):
        pos = [i for i, ch in enumerate(w) if ch == letter]
        gaps = {w[a + 1:b] for a, b in zip(pos, pos[1:])}
        if len(gaps) <= 1:
            gap = gaps.pop() if gaps else ""
            out.append((letter, w[:pos[0]], gap, w[pos[-1] + 1:]))
    return out


def _comparable_at_identity(head: str, gap: str, tail: str) -> bool:
    suffix_ok = head.endswith(gap) or gap.endswith(head)
    prefix_ok = tail.startswith(gap) or gap.startswith(tail)
    return suffix_ok and prefix_ok


def reaches_search(w: str) -> bool:
    """True when classifying w has to enumerate injective morphisms: three or
    more letters, some gap factorization, and none certified by the identity
    morphism."""
    facts = gap_factorizations(w)
    return (
        len(set(w)) >= 3
        and bool(facts)
        and not any(_comparable_at_identity(h, g, t) for _, h, g, t in facts)
    )


def parse_morphism(text: str) -> dict[str, str]:
    images = {}
    for chunk in text.split(","):
        letter, image = chunk.split("=", 1)
        images[letter] = image
    return images


def apply(images: dict[str, str], w: str) -> str:
    return "".join(images[ch] for ch in w)


def thue_morse(n: int) -> str:
    """t_i is the parity of the number of ones in i; built by doubling."""
    t = "0"
    while len(t) < n:
        t += t.translate(str.maketrans("01", "10"))
    return t[:n]


def fixed_point(images: dict[str, str], seed: str, n: int) -> str:
    """Prefix of length n of the fixed point of a morphism prolongable on
    seed, by repeated application."""
    word = seed
    while len(word) < n:
        longer = apply(images, word)
        if len(longer) <= len(word):
            raise ValueError("morphism does not grow the seed")
        word = longer
    return word[:n]


# The library's pool of synthetic letters: uppercase first, then lowercase
# and digits; interleaved copies take fresh letters avoiding "abc".
_POOL = ascii_uppercase + ascii_lowercase + digits


def interleaved(copies: int, n: int) -> str:
    """Round j holds the j-th length-j chunk of every renamed copy of the
    Thue-Morse word, in copy order; copy i spells 0/1 with the (2i-1)-th and
    (2i)-th fresh letters."""
    letters = [ch for ch in _POOL if ch not in "abc"][:2 * copies]
    rounds = 1
    while copies * rounds * (rounds + 1) // 2 < n:
        rounds += 1
    base = thue_morse(rounds * (rounds + 1) // 2)
    parts: list[str] = []
    for j in range(1, rounds + 1):
        hi = j * (j + 1) // 2
        chunk = base[hi - j:hi]
        for i in range(copies):
            parts.append(chunk.translate(str.maketrans("01", letters[2 * i] + letters[2 * i + 1])))
    return "".join(parts)[:n]
