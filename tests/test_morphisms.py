import random
from itertools import product

import pytest

from morphexp.morphisms import (
    Morphism,
    enumerate_injective,
    parse_morphism,
    sardinas_patterson,
    words_up_to,
)
from morphexp.words import WordError
from search_oracles import compose
from sync_oracles import decode


def morphisms(domain, codomain, max_image_len):
    for images in enumerate_injective(domain, codomain, max_image_len):
        yield Morphism(dict(zip(domain, images)), domain=domain, codomain=codomain)


class TestApply:
    def test_paper_instance(self):
        h = Morphism({"a": "cdc", "b": "dc"})
        assert h.apply("ab") == "cdcdc"

    def test_identity(self):
        ident = Morphism.identity("abc")
        assert ident.apply("bacca") == "bacca"

    def test_empty_word(self):
        h = Morphism({"a": "x", "b": "y"})
        assert h.apply("") == ""

    def test_length_formula(self):
        rng = random.Random(20)
        h = Morphism({"a": "xy", "b": "x", "c": "yyy"})
        for _ in range(100):
            w = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
            expected = sum(len(h.images[ch]) for ch in w)
            assert len(h.apply(w)) == expected

    def test_letter_outside_domain(self):
        h = Morphism({"a": "x"})
        with pytest.raises(WordError, match="'b'"):
            h.apply("ab")

    def test_respects_concatenation(self):
        rng = random.Random(21)
        h = Morphism({"a": "010", "b": "11"})
        for _ in range(100):
            u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
            v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
            assert h.apply(u + v) == str(h.apply(u)) + str(h.apply(v))


class TestInjectivity:
    def test_examples(self):
        assert Morphism({"a": "ab", "b": "aab"}).is_injective()
        bad = Morphism({"a": "ab", "b": "abab"})
        assert not bad.is_injective()
        trivial = Morphism({"a": "x", "b": "x"})
        assert not trivial.is_injective()
        assert trivial.injectivity_counterexample() == ("a", "b")

    def test_counterexample_has_equal_images(self):
        for images in ({"a": "ab", "b": "abab"}, {"a": "0", "b": "01", "c": "10"}):
            h = Morphism(images)
            assert not h.is_injective()
            u, v = h.injectivity_counterexample()
            assert u != v
            assert h.apply(u) == h.apply(v)

    def test_erasing_rejected(self):
        h = Morphism({"a": "", "b": "x"})
        with pytest.raises(WordError, match="erasing"):
            h.is_injective()

    @staticmethod
    def _collision_up_to(h: dict, letters: str, depth: int) -> bool:
        by_image = {"": ""}
        layer = [("", "")]
        for _ in range(depth):
            new_layer = []
            for w, img in layer:
                for ch in letters:
                    nw, nimg = w + ch, img + h[ch]
                    other = by_image.get(nimg)
                    if other is not None and other != nw:
                        return True
                    by_image[nimg] = nw
                    new_layer.append((nw, nimg))
            layer = new_layer
        return False

    def test_brute_force_agreement(self):
        # Every morphism with <= 3 domain letters and binary images of length
        # <= 3.  Non-injective verdicts are checked against their own witness
        # (sound for any collision length); a brute collision search over all
        # word pairs of length <= 6 must never contradict either verdict.
        images = words_up_to("01", 3)
        for size in (1, 2, 3):
            letters = "abc"[:size]
            for imgs in product(images, repeat=size):
                h = dict(zip(letters, imgs))
                m = Morphism(h)
                verdict = m.is_injective()
                if not verdict:
                    u, v = m.injectivity_counterexample()
                    assert u != v and m.apply(u) == m.apply(v), h
                assert not (verdict and self._collision_up_to(h, letters, depth=6)), h


class TestCompose:
    def test_identity_neutral(self):
        h = Morphism({"a": "cdc", "b": "dc"})
        ident = Morphism.identity("cd")
        assert compose(ident, h).images == h.images

    def test_renaming(self):
        g = Morphism({"c": "0", "d": "1"})
        h = Morphism({"a": "cdc", "b": "dc"})
        assert compose(g, h).to_text() == "a=010,b=10"

    def test_composition_of_injectives_is_injective(self):
        rng = random.Random(22)
        pool = list(morphisms("ab", "ab", 2))
        for _ in range(40):
            g = rng.choice(pool)
            h = rng.choice(pool)
            assert compose(g, h).is_injective()

    def test_alphabet_mismatch(self):
        g = Morphism({"c": "0"})
        h = Morphism({"a": "cdc", "b": "dc"})
        with pytest.raises(WordError):
            compose(g, h)


class TestLetterSets:
    def test_morphism_checks_its_letter_sets(self):
        with pytest.raises(WordError, match="duplicate letter 'a'"):
            Morphism({"a": "0", "b": "1"}, domain="aba")
        with pytest.raises(WordError, match="duplicate letter '0'"):
            Morphism({"a": "0"}, codomain="010")
        with pytest.raises(WordError, match="single characters, got 'ab'"):
            Morphism({"ab": "0"})
        with pytest.raises(WordError, match="single characters, got 'ab'"):
            Morphism({"a": "0"}, domain=["ab"])
        with pytest.raises(WordError, match="letter '2' outside codomain"):
            Morphism({"a": "0", "b": "2"}, codomain="01")
        # Letter sets given as any iterable of letters are kept as str.
        h = Morphism({"b": "1", "a": "0"}, domain=["a", "b"], codomain=iter("01"))
        assert (h.domain, h.codomain, h.to_text()) == ("ab", "01", "a=0,b=1")

    def test_enumeration_checks_its_letter_sets(self):
        with pytest.raises(WordError, match="duplicate letter 'a'"):
            next(enumerate_injective("aa", "01", 2))
        with pytest.raises(WordError, match="duplicate letter '1'"):
            next(enumerate_injective("ab", "011", 2))
        with pytest.raises(WordError, match="duplicate letter '0'"):
            words_up_to("00", 2)


class TestEnumeration:
    def test_unit_length_binary(self):
        got = [m.to_text() for m in morphisms("ab", "01", 1)]
        assert got == ["a=0,b=1", "a=1,b=0"]

    def test_count_matches_filtered_brute_force(self):
        candidates = words_up_to("01", 2)
        expected = 0
        for u, v in product(candidates, repeat=2):
            if u != v and sardinas_patterson([u, v]) is None:
                expected += 1
        got = sum(1 for _ in enumerate_injective("ab", "01", 2))
        assert got == expected

    def test_all_yielded_are_injective(self):
        for m in morphisms("ab", "01", 3):
            assert m.is_injective()

    def test_bad_bound(self):
        with pytest.raises(WordError):
            list(enumerate_injective("ab", "01", 0))


class TestTextFormat:
    def test_round_trip_bit_exact(self):
        for literal in ("a=cdc,b=dc", "b=x,a=yy", "a=0,b=1,c=01"):
            assert parse_morphism(literal).to_text() == literal

    def test_parse_errors(self):
        with pytest.raises(WordError):
            parse_morphism("a")
        with pytest.raises(WordError):
            parse_morphism("ab=x")
        with pytest.raises(WordError):
            parse_morphism("a=x,a=y")


class TestDecode:
    def test_round_trip(self):
        rng = random.Random(24)
        h = Morphism({"a": "ab", "b": "aab"})
        for _ in range(100):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 10)))
            assert decode(h, h.apply(w)) == w

    def test_non_image_returns_none(self):
        h = Morphism({"a": "ab", "b": "aab"})
        assert decode(h, "ba") is None
