"""The forward parse count (`morphisms.parse_counts`) and its three callers
(`x_factorization_count`, `Morphism.decode` and the sync oracle's
`_parse_boundaries`), against brute-force enumeration of every factorization."""

import random

from morphexp.codes import CodeSet, x_factorization_count
from morphexp.morphisms import Morphism
from sync_oracles import _parse_boundaries


def brute_factorizations(text, pieces):
    """Every way to write text as a sequence of pieces, by recursion on the
    first piece."""
    if not text:
        return [()]
    out = []
    for x in pieces:
        if text.startswith(x):
            out.extend((x,) + rest for rest in brute_factorizations(text[len(x):], pieces))
    return out


def random_pieces(rng, letters):
    words = {"".join(rng.choice(letters) for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(1, 4))}
    return sorted(words)


def random_text(rng, pieces, letters):
    """Half the time a concatenation of pieces (so it parses), sometimes with
    one letter changed; otherwise random letters."""
    if rng.random() < 0.5:
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 6)))
        if text and rng.random() < 0.3:
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice(letters) + text[i + 1:]
        return text
    return "".join(rng.choice(letters) for _ in range(rng.randint(0, 10)))


class TestParseDP:
    def test_factorization_count(self):
        rng = random.Random(41)
        for _ in range(400):
            letters = "ab" if rng.random() < 0.7 else "abc"
            code = CodeSet(random_pieces(rng, letters))
            text = random_text(rng, code.words, letters) or letters[0]
            expected = len(brute_factorizations(text, code.words))
            assert x_factorization_count(text, code) == expected, (text, code.words)

    def test_parse_boundaries(self):
        rng = random.Random(42)
        for _ in range(400):
            letters = "ab" if rng.random() < 0.7 else "abc"
            code = CodeSet(random_pieces(rng, letters))
            text = random_text(rng, code.words, letters)
            expected = {
                m for m in range(len(text) + 1)
                if brute_factorizations(text[:m], code.words) and brute_factorizations(text[m:], code.words)
            }
            assert _parse_boundaries(text, code) == expected, (text, code.words)

    def test_decode(self):
        rng = random.Random(43)
        checked = 0
        while checked < 300:
            images = random_pieces(rng, "01")
            domain = "abcd"[:len(images)]
            rng.shuffle(images)
            h = Morphism(dict(zip(domain, images)))
            if not h.is_injective():
                continue
            checked += 1
            text = random_text(rng, images, "01")
            parses = brute_factorizations(text, images)
            assert len(parses) <= 1
            letter_of = {img: letter for letter, img in h.images.items()}
            expected = "".join(letter_of[x] for x in parses[0]) if parses else None
            assert h.decode(text) == expected, (text, h.to_text())
