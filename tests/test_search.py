"""The depth-first injective-morphism search against the product oracle."""

import random
from string import digits

import pytest

import morphexp.morphisms as morphisms_module
import search_oracles
from morphexp.mapped_exponent import (
    INFINITE,
    UNKNOWN,
    classify_general,
    gap_factorization,
    mapped_exponent_lower_bound,
)
from morphexp.morphisms import _injective_images, enumerate_injective
from morphexp.words import Alphabet, WordError, prefix_comparable, suffix_comparable
from search_oracles import (
    canonical_product,
    classify_oracle,
    injective_product,
    lower_bound_oracle,
)

# Shapes whose product has more tuples than this are left to the work-count
# test: the oracle filters every one of them.
MAX_PRODUCT = 60_000


def shapes():
    for size in range(1, 5):
        for max_image_len in range(1, 4):
            for codomain_size in range(1, 4):
                candidates = sum(codomain_size ** length for length in range(1, max_image_len + 1))
                if candidates ** size <= MAX_PRODUCT:
                    yield size, max_image_len, codomain_size


def random_alphabets(rng, size, codomain_size):
    letters = rng.sample("abcdefgh", size)
    codomain = rng.sample("0123456789xyz", codomain_size)
    return Alphabet(letters), Alphabet(codomain)


def random_word(rng, letters, length):
    while True:
        w = "".join(rng.choice(letters) for _ in range(length))
        if set(w) == set(letters):
            return w


def reaches_search(w):
    # Some letter has a gap factorization, and none passes with the identity.
    facts = [fact for ch in set(w) if (fact := gap_factorization(w, ch)) is not None]
    return bool(facts) and not any(
        suffix_comparable(f.head, f.gap) and prefix_comparable(f.gap, f.tail) for f in facts)


class TestEnumerationOracle:
    def test_matches_product_in_order(self):
        rng = random.Random(6001)
        for size, max_image_len, codomain_size in shapes():
            domain, codomain = random_alphabets(rng, size, codomain_size)
            expected = list(injective_product(domain, codomain, max_image_len))
            got = list(enumerate_injective(domain, codomain, max_image_len))
            assert got == expected, (domain, codomain, max_image_len)

    def test_canonical_is_the_oracle_subsequence(self):
        rng = random.Random(6002)
        for size, max_image_len, codomain_size in shapes():
            domain, codomain = random_alphabets(rng, size, codomain_size)
            expected = list(canonical_product(domain, codomain, max_image_len))
            got = list(_injective_images(size, codomain, max_image_len, canonical=True))
            assert got == expected, (domain, codomain, max_image_len)

    def test_empty_domain_has_one_tuple(self):
        assert list(enumerate_injective(Alphabet(""), Alphabet("01"), 2)) == [()]


class TestSearchesAgainstOracle:
    def test_lower_bound(self):
        rng = random.Random(6003)
        for size, max_image_len, codomain_size in shapes():
            for _ in range(2):
                w = random_word(rng, "abcd"[:size], rng.randint(size, 6))
                expected = lower_bound_oracle(w, max_image_len, codomain_size)
                if expected is None:
                    with pytest.raises(WordError, match="no injective morphism"):
                        mapped_exponent_lower_bound(w, max_image_len, codomain_size)
                    continue
                best, argmax = expected
                got_best, got_argmax = mapped_exponent_lower_bound(w, max_image_len, codomain_size)
                assert (got_best, got_argmax.to_text()) == (best, argmax.to_text()), (w, max_image_len, codomain_size)

    @pytest.mark.parametrize("letters", ["abc", "abcd"])
    def test_classify_records(self, letters):
        rng = random.Random(f"6004:{letters}")
        tags = set()
        words = [random_word(rng, letters, rng.randint(len(letters), 9)) for _ in range(20)]
        while len(words) < 60:
            w = random_word(rng, letters, rng.randint(len(letters), 9))
            if reaches_search(w):
                words.append(w)
        for w in words:
            max_image_len = rng.randint(1, 3)
            target = rng.randint(1, 6)
            expected = classify_oracle(w, max_image_len=max_image_len, target=target).to_record()
            got = classify_general(w, max_image_len=max_image_len, target=target).to_record()
            assert got == expected, w
            tags.add(got["tag"])
        assert {INFINITE, UNKNOWN} <= tags


class TestSearchWork:
    def count_calls(self, monkeypatch, module):
        calls = []
        real = module.sardinas_patterson

        def counting(images):
            calls.append(tuple(images))
            return real(images)

        monkeypatch.setattr(module, "sardinas_patterson", counting)
        return calls

    def test_prefix_free_or_suffix_free_tuples_never_reach_sardinas_patterson(self, monkeypatch):
        calls = self.count_calls(monkeypatch, morphisms_module)
        for canonical in (False, True):
            for _ in _injective_images(3, Alphabet("012"), 3, canonical=canonical):
                pass
        assert calls
        for images in calls:
            assert any(x != y and x.startswith(y) for x in images for y in images), images
            assert any(x != y and x.endswith(y) for x in images for y in images), images

    def test_pruned_canonical_search_against_product(self, monkeypatch):
        codomain = Alphabet(digits[:3])
        calls = self.count_calls(monkeypatch, morphisms_module)
        searched = sum(1 for _ in _injective_images(3, codomain, 3, canonical=True))
        assert searched == 8_638
        assert len(calls) <= 2_000

        oracle_calls = self.count_calls(monkeypatch, search_oracles)
        enumerated = sum(1 for _ in injective_product(Alphabet("abc"), codomain, 3))
        assert enumerated == 51_828
        assert len(oracle_calls) == 54_834
