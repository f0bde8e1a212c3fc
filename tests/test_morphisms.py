import random
from itertools import product

import pytest

from morphexp.mapped_exponent import classify_general, lowpower_morphism, mapped_exponent_lower_bound
from morphexp.morphisms import (
    Morphism,
    _injective_images,
    is_code,
    parse_morphism,
    spreading_morphism,
    words_up_to,
)
from morphexp.words import WordError
from search_oracles import compose, injective_product, is_canonical, sardinas_patterson
from sync_oracles import decode


def morphisms(domain, codomain, max_image_len):
    for images in injective_product(domain, codomain, max_image_len):
        yield Morphism(dict(zip(domain, images)))


def injective(h):
    return is_code(list(h.images.values()))


class TestApply:
    def test_paper_instance(self):
        h = Morphism({"a": "cdc", "b": "dc"})
        assert h.apply("ab") == "cdcdc"

    def test_identity(self):
        ident = Morphism({ch: ch for ch in "abc"})
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
        assert injective(Morphism({"a": "ab", "b": "aab"}))
        bad = Morphism({"a": "ab", "b": "abab"})
        assert not injective(bad)
        trivial = Morphism({"a": "x", "b": "x"})
        assert not injective(trivial)
        assert is_code(["0", "01", "11"]) and not is_code(["0", "01", "10"])

    def test_counterexample_has_equal_images(self):
        # The oracle's witness for a set that is not a code.
        for images in (["ab", "abab"], ["0", "01", "10"], ["x", "x"]):
            assert not is_code(images)
            first, second = sardinas_patterson(images)
            assert first != second
            assert "".join(images[i] for i in first) == "".join(images[i] for i in second)
        assert sardinas_patterson(["x", "x"]) == ((0,), (1,))

    def test_erasing_rejected(self):
        h = Morphism({"a": "", "b": "x"})
        with pytest.raises(WordError, match="erasing"):
            injective(h)
        with pytest.raises(WordError, match="erasing"):
            is_code(["x", "x", ""])

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
        # <= 3.  Non-injective verdicts are checked against the oracle's
        # witness (sound for any collision length); a brute collision search
        # over all word pairs of length <= 6 must never contradict either
        # verdict.
        images = words_up_to("01", 3)
        for size in (1, 2, 3):
            letters = "abc"[:size]
            for imgs in product(images, repeat=size):
                h = dict(zip(letters, imgs))
                m = Morphism(h)
                verdict = injective(m)
                witness = sardinas_patterson(imgs)
                assert verdict == (witness is None), h
                if not verdict:
                    u, v = ("".join(letters[i] for i in seq) for seq in witness)
                    assert u != v and m.apply(u) == m.apply(v), h
                assert not (verdict and self._collision_up_to(h, letters, depth=6)), h

    def test_is_code_against_the_oracles(self):
        # Seeded sets of 1-5 images of up to 4 letters over 2-3 letters,
        # drawn with repeats; some hold an empty image.  A brute collision
        # search over short words must never contradict a code verdict.
        rng = random.Random(25)
        codes = erasing = 0
        for _ in range(20_000):
            letters = "abcde"[:rng.randint(1, 5)]
            codomain = "012"[:rng.randint(2, 3)]
            imgs = ["".join(rng.choice(codomain) for _ in range(rng.randint(0 if rng.random() < 0.02 else 1, 4)))
                    for _ in letters]
            if rng.random() < 0.1:
                imgs[-1] = rng.choice(imgs)
            if "" in imgs:
                for test in (is_code, sardinas_patterson):
                    with pytest.raises(WordError, match="erasing"):
                        test(imgs)
                erasing += 1
                continue
            verdict = is_code(imgs)
            assert verdict == (sardinas_patterson(imgs) is None), imgs
            depth = 3 if len(letters) > 3 else 4
            assert not (verdict and self._collision_up_to(dict(zip(letters, imgs)), letters, depth)), imgs
            codes += verdict
        assert 5_000 < codes < 15_000 and erasing


class TestCompose:
    def test_identity_neutral(self):
        h = Morphism({"a": "cdc", "b": "dc"})
        ident = Morphism({"c": "c", "d": "d"})
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
            assert injective(compose(g, h))

    def test_alphabet_mismatch(self):
        g = Morphism({"c": "0"})
        h = Morphism({"a": "cdc", "b": "dc"})
        with pytest.raises(WordError):
            compose(g, h)


class TestLetterSets:
    def test_morphism_checks_its_letter_sets(self):
        with pytest.raises(WordError, match="single characters, got 'ab'"):
            Morphism({"ab": "0"})
        with pytest.raises(WordError, match=r"^alphabet letters must be single characters, got ''$"):
            Morphism({"": "0"})
        with pytest.raises(WordError, match=r"^image of 'a' must be a str, got int$"):
            Morphism({"a": 1})
        with pytest.raises(WordError, match=r"^image of 'b' must be a str, got list$"):
            Morphism({"a": "0", "b": ["1"]})

    def test_domain_and_codomain_come_from_the_images(self):
        # The domain is the key order and the codomain the sorted letters of
        # the images, as recorded before the domain= and codomain= arguments
        # were dropped.
        h = Morphism({"b": "ba", "a": "c"})
        assert (h.domain, h.codomain, h.images, h.to_text()) == ("ba", "abc", {"b": "ba", "a": "c"}, "b=ba,a=c")
        assert list(h.images) == ["b", "a"]
        empty = Morphism({})
        assert (empty.domain, empty.codomain, empty.images, empty.to_text()) == ("", "", {}, "")
        assert empty.apply("") == ""
        h = parse_morphism("b=1,a=0")
        assert (h.domain, h.codomain, h.to_text()) == ("ba", "01", "b=1,a=0")
        # The library's own morphisms: the family morphism's codomain is cd
        # as before; a spreading morphism over one pair uses no c, and a
        # witness lists its fresh letter among the others in sorted order.
        assert lowpower_morphism(3, 2)[1].codomain == "cd"
        assert (spreading_morphism("ABCD").codomain, spreading_morphism("AB").codomain) == ("abc", "ab")
        witness = classify_general("ab").witness[0]
        assert (witness.domain, witness.codomain, witness.to_text()) == ("ab", "Ab", "a=bAbAbAbA,b=b")

    def test_enumeration_checks_its_letter_sets(self):
        with pytest.raises(WordError, match="duplicate letter '0'"):
            words_up_to("00", 2)


class TestEnumeration:
    def test_unit_length_binary(self):
        assert list(_injective_images(2, "01", 1)) == [("0", "1")]

    def test_count_matches_filtered_brute_force(self):
        candidates = words_up_to("01", 2)
        expected = 0
        for u, v in product(candidates, repeat=2):
            if u != v and sardinas_patterson([u, v]) is None and is_canonical((u, v), "01"):
                expected += 1
        got = sum(1 for _ in _injective_images(2, "01", 2))
        assert got == expected

    def test_all_yielded_are_injective(self):
        for images in _injective_images(3, "01", 3):
            assert injective(Morphism(dict(zip("abc", images))))
            assert sardinas_patterson(images) is None

    def test_bad_bound(self):
        with pytest.raises(WordError):
            mapped_exponent_lower_bound("ab", 0)
        with pytest.raises(WordError):
            classify_general("abcacb", 0)


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
