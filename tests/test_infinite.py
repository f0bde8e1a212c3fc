import bisect
import gc
import hashlib
import itertools
import json
import os
import random
import re
import string
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from morphexp import infinite
from morphexp.cli import run
from morphexp.infinite import (
    ImageGenerator,
    InterleavedCopiesGenerator,
    MorphicGenerator,
    OptimalBinaryGenerator,
    PeriodicGenerator,
    StreamGenerator,
    ace_estimate,
    cassaigne_morphism,
    generator_from_spec,
    thue_morse,
)
from morphexp.morphisms import Morphism, is_code, parse_morphism, spreading_morphism
from morphexp.words import WordError, fractional_exponent
from ace_oracles import ace_oracle, report_of, rows_of
from construction_oracles import (
    chunk_schedule,
    factor_complexity,
    intermediate_block,
    interleaved_chunks,
    interleaved_round,
    intermediate_word,
    thue_morse_word,
)
from profile_oracles import fractional_power, profile_border, profile_sweep


class TestBasicGenerators:
    def test_periodic_prefixes(self):
        assert PeriodicGenerator("ab").prefix(5) == "ababa"
        assert PeriodicGenerator("a").prefix(3) == "aaa"
        assert PeriodicGenerator("abc").prefix(4) == "abca"

    def test_thue_morse_prefix(self):
        assert thue_morse().prefix(8) == "01101001"

    def test_slow_morphic_fixed_point(self):
        gen = MorphicGenerator(Morphism({"a": "ab", "b": "b"}), "a")
        assert gen.prefix(6) == "abbbbb"

    def test_non_prolongable_rejected(self):
        with pytest.raises(WordError, match="prolongable"):
            MorphicGenerator(Morphism({"0": "10", "1": "01"}), "0")
        with pytest.raises(WordError, match="prolongable"):
            MorphicGenerator(Morphism({"0": "0", "1": "1"}), "0")

    def test_stream_generator(self):
        gen = StreamGenerator(iter("abcabc"), "abc")
        assert gen.prefix(4) == "abca"
        with pytest.raises(WordError, match="exhausted"):
            gen.prefix(10)

    def test_prefix_stability(self):
        gens = [
            PeriodicGenerator("aba"),
            thue_morse(),
            MorphicGenerator(Morphism({"a": "ab", "b": "b"}), "a"),
            InterleavedCopiesGenerator(3, thue_morse()),
            OptimalBinaryGenerator(2, 2, 7),
        ]
        for gen in gens:
            for n in (1, 3, 10, 25):
                shorter = str(gen.prefix(n))
                assert str(gen.prefix(2 * n)).startswith(shorter)


class TestMorphicGrowth:
    def test_foreign_letter_raises_only_when_reached(self):
        gen = MorphicGenerator(parse_morphism("a=ab,b=bbc"), "a")
        assert gen.prefix(11) == "abbbcbbcbbc"
        with pytest.raises(WordError, match="letter 'c' outside morphism domain"):
            gen.prefix(12)
        assert gen.prefix(11) == "abbbcbbcbbc"
        assert gen.prefix(4) == "abbb"

    def test_erasing_rules_end_growth_with_word_error(self):
        gen = MorphicGenerator(parse_morphism("a=ab,b="), "a")
        assert gen.prefix(2) == "ab"
        with pytest.raises(WordError, match="failed to produce more letters"):
            gen.prefix(3)

    def test_erased_letters_do_not_stop_later_growth(self):
        # a -> abbc with b erased: the fixed point is abbc c c c ...
        gen = MorphicGenerator(parse_morphism("a=abbc,b=,c=cc"), "a")
        assert gen.prefix(5) == "abbcc"
        assert gen.prefix(40) == "abb" + "c" * 37

    def test_random_prolongable_morphisms_match_naive_iteration(self):
        rng = random.Random(3)
        rounds = []
        for _ in range(200):
            letters = "abcd"[:rng.randrange(2, 5)]
            word = lambda size: "".join(rng.choice(letters) for _ in range(size))
            images = {"a": "a" + word(rng.randrange(1, 3))}
            for letter in letters[1:]:
                images[letter] = word(rng.randrange(1, 4))
            h = Morphism(images)
            naive = "a"
            while len(naive) < 300:
                naive = str(h.apply(naive))
            # h^k(a) grows only polynomially when no other image grows, so
            # the long prefix reads x = h(x) from the left, applying h to the
            # letters known and not yet read: h(a) starts with a and no
            # image is empty.
            x, read = h.images["a"], 1
            while len(x) < 30_000:
                x, read = x + h.apply(x[read:]), len(x)
            assert x.startswith(naive)
            naive = x
            gen = MorphicGenerator(h, "a")
            long, short = rng.randrange(5000, 20_000), rng.randrange(0, 5000)
            longer = rng.randrange(20_000, 30_001)
            for n in (long, short, longer, rng.randrange(0, 30_001)):
                assert gen.prefix(n) == naive[:n]
            fresh = MorphicGenerator(h, "a")
            assert fresh.prefix(longer) == naive[:longer]
            # The seed's image, then one part per round of self-reading growth.
            rounds.append(len(fresh._parts) - 1)
        assert sum(k >= 3 for k in rounds) >= 50, rounds

    def test_skewed_images_build_less_than_one_image_past_the_prefix(self):
        # Blocks sized by the shortest image built 1,001,002 letters for
        # the first rules and 262,143 for the second.
        gen = MorphicGenerator(parse_morphism("a=ab,b=" + "b" * 1000 + ",c=c"), "a")
        assert gen.prefix(20_000) == "a" + "b" * 19_999
        assert gen.size < 20_000 + 1000
        gen = MorphicGenerator(parse_morphism("a=aab,b=b"), "a")
        gen.prefix(200_000)
        # |h^j(a)| = 2^(j+1) - 1, and the least j reaching the target is 10:
        # the longest image is 2,047 letters, below twice the target.
        assert gen.size < 200_000 + 2 * infinite.POWER_IMAGE

    def test_a_fixed_point_reads_only_the_letters_it_holds(self, monkeypatch):
        # Its growth reads itself: every read but the requested prefix ends
        # within the letters held, so it never grows from inside a growth.
        for rules in ("a=ab,b=b", "a=ab,b=a", "a=aab,b=b", "a=abbc,b=,c=cc", "a=ab,b=" + "b" * 1000):
            gen = MorphicGenerator(parse_morphism(rules), "a")
            assert not hasattr(gen, "base")
            reads, read = [], gen._slice
            monkeypatch.setattr(gen, "_slice", lambda lo, hi: reads.append((hi, gen.size)) or read(lo, hi))
            for n in (10, 5000, 70_000):
                reads.clear()
                text = gen.prefix(n)
                assert len(text) == n and reads[0][0] == n, rules
                assert all(hi <= size for hi, size in reads[1:]), rules
                # x = h(x) from a holds for the fixed point and no other word:
                # the image of the letters whose images end within text.
                ends = list(itertools.accumulate(len(gen.morphism.images[ch]) for ch in text))
                held = text[:bisect.bisect_right(ends, n)]
                assert text[0] == "a" and text.startswith(gen.morphism.apply(held)), rules

    def test_multi_letter_seed_grows_its_own_fixed_point(self):
        h = parse_morphism("a=ab,b=ba")
        assert MorphicGenerator(h, "ab").prefix(32) == h.apply(h.apply(h.apply(h.apply("ab"))))
        assert MorphicGenerator(parse_morphism("a=a,b=bc,c=c"), "ab").prefix(6) == "abcccc"
        for rules, seed in (("a=ab,b=", "ab"), ("a=a,b=b", "ab"), ("a=ba,b=ab", "ab")):
            with pytest.raises(WordError, match="not prolongable"):
                MorphicGenerator(parse_morphism(rules), seed)


def power_by_rule(h, seed):
    """Images of h^j by applying h to words, on the letters of the words
    h^k(seed): j is the least power whose longest image has at least
    infinite.POWER_IMAGE letters, stopping once no length changes, at
    j = 64, and before a power whose images would hold more than
    infinite.POWER_BUDGET letters together; j = 1, with every image, when
    h^2 is undefined on those letters."""
    letters = set(seed)
    for _ in h.images:
        letters |= {ch for letter in letters for ch in h.images.get(letter, "")}
    if not letters <= h.images.keys():
        return dict(h.images)
    power = {letter: image for letter, image in h.images.items() if letter in letters}
    for _ in range(63):
        if max(map(len, power.values())) >= infinite.POWER_IMAGE:
            break
        # |h(h^j(a))|, counted before h^(j+1) is built.
        sizes = [sum(len(h.images[ch]) for ch in image) for image in power.values()]
        if sizes == [len(w) for w in power.values()] or sum(sizes) > infinite.POWER_BUDGET:
            break
        power = {letter: h.apply(image) for letter, image in power.items()}
    return power


def naive_fixed_point(h, seed, size):
    """h^k(seed) for the first k with at least `size` letters, or the whole
    (finite) word once h^k(seed) stops growing."""
    word = seed
    while len(word) < size:
        longer = h.apply(word)
        if longer == word:
            break
        word = longer
    return word


class TestLongImagePower:
    def random_prolongable(self, rng):
        # Rejection sampling: 2 to 4 letters, images of length 0 to 3.
        while True:
            letters = "abcd"[:rng.randrange(2, 5)]
            word = lambda size: "".join(rng.choice(letters) for _ in range(size))
            h = Morphism({letter: word(rng.randrange(0, 4)) for letter in letters})
            seed = word(rng.randrange(1, 4))
            start = h.apply(seed)
            if len(start) > len(seed) and start.startswith(seed):
                return h, seed

    def check(self, rng, h, seed):
        power = power_by_rule(h, seed)
        longest = max(map(len, power.values()))
        # Up to four images of h^j, so that growth runs past the seed's image.
        size = max(600, 4 * longest)
        naive = naive_fixed_point(h, seed, size)
        gen = MorphicGenerator(h, seed)
        assert gen.morphism is h
        # Prefix lengths at the image boundaries of h^j on x, one letter
        # either side, and random lengths, asked for in random order.
        ends, total = [], 0
        for ch in naive[:60]:
            total += len(power[ch])
            ends.append(total)
        lengths = {end + d for end in ends for d in (-1, 0, 1) if 0 <= end + d <= size}
        lengths |= {rng.randrange(0, size + 1) for _ in range(6)}
        lengths = sorted(lengths)
        rng.shuffle(lengths)
        start = len("".join(power[ch] for ch in seed))
        asked = 0  # the longest prefix the shared generator has built
        for n in lengths:
            if n > len(naive):
                for g in (gen, MorphicGenerator(h, seed)):
                    with pytest.raises(WordError, match="failed to produce more letters"):
                        g.prefix(n)
                asked = len(naive)
                continue
            asked = max(asked, n)
            for g, built in ((gen, asked), (MorphicGenerator(h, seed), n)):
                assert g.prefix(n) == naive[:n], (h, seed, n)
                assert g.size < max(built + longest, start + 1), (h, seed, n)

    def test_random_rules_and_seeds_match_naive_iteration(self):
        rng = random.Random(9)
        seen = set()
        for _ in range(300):
            h, seed = self.random_prolongable(rng)
            seen.add(len(seed))
            self.check(rng, h, seed)
        assert seen == {1, 2, 3}

    def test_skewed_rules_match_naive_iteration(self):
        rng = random.Random(10)
        for k in (1, 2, 5, 31, 62, 63, 64, 200):
            for rules in (f"a=a{'b' * k},b=b", f"a=ab,b={'b' * k}", f"a=a{'b' * k},b=bc,c=c", f"a=aab{'c' * k},b=b,c=a"):
                self.check(rng, parse_morphism(rules), "a")

    def test_power_rule(self):
        def lengths(rules, seed="a"):
            images = infinite._long_power(parse_morphism(rules).images, seed)
            return {letter: len(image) for letter, image in images.items()}

        # The literals below are for these constants.
        assert (infinite.POWER_IMAGE, infinite.POWER_BUDGET) == (1024, 1 << 16)
        assert lengths("0=01,1=10", "0") == {"0": 1024, "1": 1024}  # j = 10
        assert lengths("a=ab,b=b") == {"a": 65, "b": 1}  # j = 64
        assert lengths("a=aab,b=b") == {"a": 2047, "b": 1}  # j = 10
        assert lengths("a=ab,b=a") == {"a": 1597, "b": 987}  # Fibonacci, j = 15
        assert lengths("a=abc,b=b,c=c") == {"a": 129, "b": 1, "c": 1}  # j = 64
        # The lengths alternate between (2, 0, 1) and (1, 0, 2): j = 64.
        assert lengths("a=bc,b=,c=a") == {"a": 1, "b": 0, "c": 2}
        assert lengths("a=ab,b=bbc") == {"a": 2, "b": 3}  # h^2 undefined: j = 1
        # No length changes: j = 1, where h^64 would be the identity.
        assert infinite._long_power(parse_morphism("a=b,b=a").images, "a") == {"a": "b", "b": "a"}
        # Letters that never occur in the fixed point neither keep j = 1
        # nor get a power of their own.
        assert lengths("a=ab,b=b,c=" + "c" * 1024) == {"a": 65, "b": 1}  # j = 64
        assert lengths("a=ab,b=b,c=") == {"a": 65, "b": 1}
        assert lengths("a=ab,b=b,c=cd") == {"a": 65, "b": 1}  # h^2 undefined on c only
        assert lengths("a=ab,b=bc,c=c,d=" + "d" * 1024) == {"a": 1036, "b": 46, "c": 1}  # j = 45
        # The budget: h^2 would hold 1,001,002 letters, so j = 1.
        assert lengths("a=ab,b=" + "b" * 1000) == {"a": 2, "b": 1000}
        for rules in ("0=01,1=10", "a=ab,b=b", "a=ab,b=a", "a=bc,b=,c=a", "a=abbc,b=,c=cc", "a=ab,b=", "a=b,b=a",
                      "a=ab,b=b,c=" + "c" * 1024, "a=ab,b=b,c=cd", "a=ab,b=bc,c=c,d=" + "d" * 1024,
                      "a=ab,b=" + "b" * 1000):
            h = parse_morphism(rules)
            for seed in sorted(h.images):
                assert infinite._long_power(h.images, seed) == power_by_rule(h, seed), (rules, seed)

    def test_budget_stops_the_power_before_the_target(self):
        # k letters, each image two letters, so |h^j| = 2^j on every letter:
        # h^j at the target would hold k * POWER_IMAGE > POWER_BUDGET letters.
        k = infinite.POWER_BUDGET // infinite.POWER_IMAGE + 1
        letters = [chr(0x100 + i) for i in range(k)]
        h = Morphism({a: a + b for a, b in zip(letters, letters[1:] + letters[:1])})
        power = infinite._long_power(h.images, letters[0])
        assert set(map(len, power.values())) == {infinite.POWER_IMAGE // 2}
        assert power == power_by_rule(h, letters[0])
        assert MorphicGenerator(h, letters[0]).prefix(5000) == naive_fixed_point(h, letters[0], 5000)[:5000]

    def test_long_images_stay_within_the_budget(self):
        # Without the budget h^2 holds 30 * 900^2 letters: prefix(1000)
        # peaked at 48.6 MB traced, against 30 kB with it.
        rng = random.Random(31)
        letters = string.ascii_letters[:30]
        images = {letter: "".join(rng.choice(letters) for _ in range(900)) for letter in letters}
        images["a"] = "a" + images["a"][1:]
        h = Morphism(images)
        tracemalloc.start()
        try:
            text = MorphicGenerator(h, "a").prefix(1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak
        assert text == naive_fixed_point(h, "a", 1000)[:1000]

    def test_letters_outside_the_fixed_point_do_not_set_the_power(self):
        # With c counted, j stayed 1 and every block expanded a single a.
        gen = MorphicGenerator(parse_morphism("a=ab,b=b,c=" + "c" * infinite.POWER_IMAGE), "a")
        assert "a".translate(gen._table) == "a" + "b" * 64  # j = 64
        assert gen.prefix(1000) == "a" + "b" * 999


class TestImageGenerator:
    def test_random_morphisms_match_applying_to_the_base_prefix(self):
        rng = random.Random(12)
        bases = (
            lambda: PeriodicGenerator("abcab"),
            lambda: PeriodicGenerator("ba"),
            lambda: MorphicGenerator(parse_morphism("a=abc,b=ac,c=b"), "a"),
            lambda: MorphicGenerator(parse_morphism("a=ab,b=ca,c=bb"), "a"),
        )
        for trial in range(120):
            make_base = bases[trial % len(bases)]
            letters = make_base().alphabet
            uniform = trial % 2 == 0
            size = rng.randint(1, 4)
            h = Morphism({
                ch: "".join(rng.choice("xyz") for _ in range(size if uniform else rng.randint(1, 4)))
                for ch in letters
            })
            base_text = make_base().prefix(400)
            text = h.apply(base_text)
            # Lengths at the image boundaries of base letters, one off each
            # side, and random lengths, asked for in random order.
            ends = [len(h.apply(base_text[:i])) for i in range(1, 40)]
            lengths = {end + d for end in ends for d in (-1, 0, 1) if end + d >= 0}
            lengths |= {rng.randrange(0, 400) for _ in range(6)}
            lengths = sorted(lengths)
            rng.shuffle(lengths)
            gen = ImageGenerator(h, make_base())
            for n in lengths:
                assert gen.prefix(n) == text[:n], (h, n)
                assert ImageGenerator(h, make_base()).prefix(n) == text[:n], (h, n)

    def test_reads_only_the_base_letters_it_needs(self):
        # A stream of one-letter blocks grows exactly as far as it is read.
        base = StreamGenerator(itertools.cycle("ab"), "ab")
        gen = ImageGenerator(Morphism({"a": "xyz", "b": "zzy"}), base)
        assert gen.prefix(7) == "xyzzzyx"
        assert base.size == 3
        gen.prefix(300)
        assert base.size == 100

    def test_skewed_images_build_less_than_one_image_past_the_prefix(self):
        # Blocks sized by the shortest image built 5,005,000 letters here.
        gen = ImageGenerator(parse_morphism("a=x,b=" + "y" * 1000), PeriodicGenerator("ab"))
        assert gen.prefix(10_000) == ("x" + "y" * 1000) * 9 + "x" + "y" * 990
        assert gen.size < 10_000 + 1000

    def test_erasing_morphism_over_a_base_is_refused(self):
        with pytest.raises(WordError, match="erasing morphism"):
            ImageGenerator(parse_morphism("a=x,b="), PeriodicGenerator("ab"))

    def test_a_missing_base_is_refused(self):
        # A base-less image gave prefix(0) == "" and failed at prefix(5).
        with pytest.raises(WordError, match="needs a base word"):
            ImageGenerator(parse_morphism("a=ab,b=ba"), None)

    def test_base_letter_outside_domain_raises_only_when_reached(self):
        # Uniform images expand by columns, the others by str.translate.
        cases = (({"a": "xy"}, True), ({"a": "xy", "c": "xyz"}, False), ({"a": "xy", "c": "\xe9y"}, False))
        for images, columns in cases:
            gen = ImageGenerator(Morphism(images), StreamGenerator("aaab", "ab"))
            assert (gen._columns is not None) == columns
            assert gen.prefix(6) == "xyxyxy"
            with pytest.raises(WordError, match="letter 'b' outside morphism domain"):
                gen.prefix(7)
            assert gen.prefix(5) == "xyxyx"

    def test_prefixes_match_the_image_of_the_fewest_base_letters(self):
        # Blocks are scanned only when the base alphabet leaves the domain;
        # either way prefix(n) is h.apply(x[:k])[:n] for the fewest base
        # letters k whose image reaches n, or the same WordError.
        rng = random.Random(19)
        text = "".join(rng.choice("ab") for _ in range(3000))
        bases = (
            (lambda: PeriodicGenerator("abcab"), "abc"),
            (lambda: MorphicGenerator(parse_morphism("a=abc,b=ac,c=b"), "a"), "abc"),
            (lambda: StreamGenerator(text, "ab"), "ab"),
            # Alphabets wider than the letters produced: scanned, never raise.
            (lambda: StreamGenerator(text, "abc"), "ab"),
            (lambda: MorphicGenerator(parse_morphism("a=ab,b=ba,c=cc"), "a"), "ab"),
            # A letter outside the domain, reached early or late.
            (lambda: PeriodicGenerator("abcab"), "ab"),
            (lambda: StreamGenerator(text[:700] + "c" + text[700:], "abc"), "ab"),
        )
        for trial in range(70):
            make_base, domain = bases[trial % len(bases)]
            base_text = make_base().prefix(2500)
            uniform = trial % 2 == 0
            size = rng.randint(1, 4)
            h = Morphism({
                ch: "".join(rng.choice("xyz") for _ in range(size if uniform else rng.randint(1, 4)))
                for ch in domain
            })
            gen = ImageGenerator(h, make_base())
            assert gen._scan == (not set(make_base().alphabet) <= set(domain)), (trial, h)
            lengths = [rng.randrange(0, 2500) for _ in range(8)]
            for n in lengths:
                k = out = 0
                while out < n:
                    out += len(h.images.get(base_text[k], ""))
                    k += 1
                try:
                    expected = h.apply(base_text[:k])[:n]
                except WordError as exc:
                    for image in (gen, ImageGenerator(h, make_base())):
                        with pytest.raises(WordError, match=re.escape(str(exc))):
                            image.prefix(n)
                else:
                    assert gen.prefix(n) == expected, (h, n)
                    assert ImageGenerator(h, make_base()).prefix(n) == expected, (h, n)

    def test_column_expansion_matches_str_translate(self):
        # Uniform morphisms over ASCII letters with images shorter than
        # LONG_IMAGE expand by columns, all others by str.translate, which
        # is the oracle here.
        rng = random.Random(15)
        cases = [(m, True, True) for m in range(1, infinite.LONG_IMAGE + 1)]
        cases += [(rng.randrange(1, 9), uniform, ascii_only) for uniform in (True, False)
                  for ascii_only in (True, False) for _ in range(20)]
        for m, uniform, ascii_only in cases:
            domain = rng.choice(("a", "ab", "abc", "a0~Z"))
            if not ascii_only and rng.random() < 0.5:
                domain += "\xe9"
            images = {
                ch: "".join(rng.choice("xyz") for _ in range(m if uniform else rng.randint(1, m)))
                for ch in domain
            }
            if not ascii_only and domain.isascii():
                images[domain[0]] = "\u2603" + images[domain[0]][1:]
            h = Morphism(images)
            base_text = "".join(rng.choice(domain) for _ in range(rng.randrange(1, 300)))
            text = base_text.translate(str.maketrans(images))
            gen = ImageGenerator(h, StreamGenerator(base_text, domain))
            one_size = len(set(map(len, images.values()))) == 1
            assert (gen._columns is not None) == (one_size and m < infinite.LONG_IMAGE and ascii_only)
            for n in [rng.randrange(0, len(text) + 1) for _ in range(5)] + [len(text)]:
                assert gen.prefix(n) == text[:n], (images, n)
                assert ImageGenerator(h, StreamGenerator(base_text, domain)).prefix(n) == text[:n], (images, n)

    def test_image_of_interleaved_copies_has_the_spread_exponent(self):
        # The paper's h(x): x has ACE 2, and h(x) under the letter-spreading
        # morphism reaches jn^2/(jn+1) = n - n/(jn+1) for some round j.
        for n, letters in ((3, 1000), (3, 2000), (3, 4000), (4, 1000)):
            x = InterleavedCopiesGenerator(n, thue_morse())
            assert ace_estimate(x, letters, 8).estimate == 2
            image = ImageGenerator(spreading_morphism(x.alphabet), InterleavedCopiesGenerator(n, thue_morse()))
            e = ace_estimate(image, n * letters, 8 * n).estimate
            j = e / (n * (n - e))
            assert j.denominator == 1 and j >= 20, (n, letters, e)
            assert e == Fraction(j * n * n, j * n + 1)


# The binary bases of the tests, as generators and as words.
BASES = ((thue_morse, thue_morse_word), (lambda: PeriodicGenerator("01"), lambda n: ("01" * n)[:n]))


class TestInterleavedCopies:
    def test_chunk_lengths(self):
        # Round j holds one length-j chunk per copy, each over its copy's
        # own letter pair.
        gen = InterleavedCopiesGenerator(2, thue_morse())
        text = gen.prefix(2 * 28)
        at = 0
        for j in range(1, 8):
            for i in (0, 1):
                assert set(text[at:at + j]) <= set(gen.alphabet[2 * i:2 * i + 2]), (i, j)
                at += j

    def test_first_two_rounds_length(self):
        gen = InterleavedCopiesGenerator(2, thue_morse())
        base = thue_morse_word(3)
        assert len(gen.prefix(6)) == 6
        assert gen.prefix(6) == interleaved_round(base, gen.alphabet, 1) + interleaved_round(base, gen.alphabet, 2)

    def test_prefixes_match_round_blocks(self):
        rng = random.Random(11)
        for copies in (1, 2, 3):
            for base, base_word in BASES:
                gen = InterleavedCopiesGenerator(copies, base())
                word = base_word(39 * 40 // 2)
                text = "".join(interleaved_round(word, gen.alphabet, j) for j in range(1, 40))
                for n in (rng.randrange(100, 400), rng.randrange(0, 100), len(text), rng.randrange(0, len(text))):
                    assert gen.prefix(n) == text[:n]

    def test_copies_are_renamings_of_the_same_chunk(self):
        gen = InterleavedCopiesGenerator(3, thue_morse())
        text = gen.prefix(3 * 45)
        for j in (1, 4, 9):
            at = 3 * j * (j - 1) // 2
            chunks = [text[at + i * j:at + (i + 1) * j] for i in range(3)]
            assert {len(chunk) for chunk in chunks} == {j}
            patterns = set()
            for i, chunk in enumerate(chunks):
                assert set(chunk) <= set(gen.alphabet[2 * i:2 * i + 2])
                first = chunk[0]
                patterns.add("".join("x" if ch == first else "y" for ch in chunk))
            assert len(patterns) == 1

    def test_image_identity_small(self):
        # Image of round j is an exact power of (image of first chunk) + c
        # with exponent jn^2/(jn+1), for any binary base.
        for base, base_word in BASES:
            gen = InterleavedCopiesGenerator(3, base())
            h = spreading_morphism(gen.alphabet)
            word = base_word(24 * 25 // 2)
            text = gen.prefix(3 * 24 * 25 // 2)
            for j in range(1, 25):
                chunks = interleaved_chunks(word, gen.alphabet, j)
                block = "".join(chunks)
                assert text[3 * j * (j - 1) // 2:3 * j * (j + 1) // 2] == block
                block_image = h.apply(block)
                period_word = h.apply(chunks[0]) + "c"
                expected = Fraction(j * 9, j * 3 + 1)
                assert block_image == fractional_power(period_word, expected)
                if expected >= 1:
                    got = fractional_exponent(block_image)
                    assert got.exponent == expected
                    assert got.base == period_word

    def test_validation(self):
        with pytest.raises(WordError):
            InterleavedCopiesGenerator(0, thue_morse())
        with pytest.raises(WordError):
            InterleavedCopiesGenerator(2, PeriodicGenerator("abc"))


class TestOptimalBinary:
    def test_image_lengths_all_m(self):
        gen = OptimalBinaryGenerator(2, 2, 9)
        h = gen.morphism
        assert {len(img) for img in h.images.values()} == {9}
        assert is_code(list(h.images.values()))

    def test_block_arithmetic(self):
        # k = 3: the recurrence, its first values, and the library's closed
        # form (k+1)^i ((i-1)!)^2.
        schedule = chunk_schedule(3, 9)
        for u_len, v_len in schedule:
            assert v_len == 3 * (u_len + 1) - 1
        assert [u_len for u_len, _ in schedule[:3]] == [4, 1 * 1 * 4 * 4, 2 * 2 * 4 * 16]
        for i in range(3, 9):
            assert schedule[i][0] == i * i * 4 * schedule[i - 1][0]
        assert [infinite._chunk_sizes(3, i) for i in range(1, 10)] == schedule

    def test_block_exponent(self):
        source = thue_morse_word(1000)
        for n, k in ((1, 2), (2, 2), (2, 3)):
            letters = OptimalBinaryGenerator(n, k, 2 * k + 7).morphism.domain
            for i in (1, 2, 3):
                got = fractional_exponent(intermediate_block(source, n, k, i, letters)).exponent
                assert got == n + Fraction(1, k + 1)

    def test_constraint_errors_name_the_constraint(self):
        with pytest.raises(WordError, match="k must be >= 2"):
            OptimalBinaryGenerator(1, 1, 9)
        with pytest.raises(WordError, match="m must exceed 2k\\+2"):
            OptimalBinaryGenerator(1, 2, 6)

    def test_emits_binary_word(self):
        gen = OptimalBinaryGenerator(1, 2, 7)
        assert set(gen.prefix(50)) <= {"a", "b"}

    def test_stretch_pumping_lower_bound(self):
        # Stretching b-runs inside the image pushes block exponents toward
        # n + (m-2)/(m+2k).
        n, k, m = 1, 2, 11
        gen = OptimalBinaryGenerator(n, k, m)
        h = gen.morphism
        stretch = Morphism({"a": "a", "b": "b" * 64})
        block = intermediate_block(thue_morse_word(1000), n, k, 3, h.domain)
        e = fractional_exponent(stretch.apply(h.apply(block))).exponent
        bound = n + Fraction(m - 2, m + 2 * k)
        assert e >= bound - Fraction(1, 10)


    def test_prefixes_match_encoded_blocks(self):
        rng = random.Random(7)
        for n, k, m in ((1, 2, 7), (2, 2, 8), (1, 3, 11)):
            gen = OptimalBinaryGenerator(n, k, m)
            letters = gen.morphism.domain
            source = thue_morse_word(1000)
            text = gen.morphism.apply(intermediate_word(source, n, k, 3, letters))
            ends, total = [], 0
            for i in (1, 2, 3):
                total += m * (len(intermediate_block(source, n, k, i, letters)) + 1)
                ends.append(total)
            lengths = {q * m + d for q in range(1, 6) for d in (-1, 0, 1)}
            lengths |= {end + d for end in ends for d in (-1, 0, 1) if end + d <= len(text)}
            lengths = sorted(lengths)
            rng.shuffle(lengths)
            for size in lengths:
                assert gen.prefix(size) == text[:size]


    def test_image_morphism_images(self):
        for m in (7, 8, 11, 30):
            h = OptimalBinaryGenerator(1, 2, m).morphism
            assert list(h.images.values()) == [
                "a" + "b" * (m - 1), "aa" + "b" * (m - 2), "a" * (m - 2) + "bb",
                "a" * (m - 1) + "b", "a" * (m - 3) + "bbb", "a" * (m - 4) + "bbbb",
            ]
            assert h == cassaigne_morphism(m)
            assert h.codomain == "ab"

    def test_long_prefix_builds_few_intermediate_letters(self):
        # 400,000 letters at m = 8 need 50,000 intermediate letters and
        # 10,000,000 at m = 7 need 1,428,572; yielding the chunks whole
        # built 161,252 and 11,069,641.
        for n, k, m, size, needed in ((2, 2, 8, 400_000, 50_000), (1, 2, 7, 10_000_000, 1_428_572)):
            gen = OptimalBinaryGenerator(n, k, m)
            assert len(gen.prefix(size)) == size
            assert needed <= gen.base.size <= needed + infinite.CHUNK_SLICE

    def test_chunk_repeats_match_the_oracle_across_slices(self, monkeypatch):
        # Chunks longer than a slice are read in several slices, and their
        # n - 1 repeats reuse them.
        monkeypatch.setattr(infinite, "CHUNK_SLICE", 5)
        for n, k, m in ((3, 2, 7), (1, 3, 11)):
            gen = OptimalBinaryGenerator(n, k, m)
            letters = gen.morphism.domain
            text = gen.morphism.apply(intermediate_word(thue_morse_word(2000), n, k, 3, letters))
            assert gen.prefix(len(text)) == text



class TestCassaigneMorphism:
    def test_images_match_the_recorded_weight_map(self):
        # Recorded from cassaigne_morphism((m - 1, m - 2, 2, 1, 3, 4), m), the
        # one weight map in use, when the weights were still an argument.
        assert cassaigne_morphism(7).images == {
            "A": "abbbbbb", "B": "aabbbbb", "C": "aaaaabb", "D": "aaaaaab", "E": "aaaabbb", "F": "aaabbbb",
        }
        blob = json.dumps([cassaigne_morphism(m).images for m in range(7, 41)])
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "fbdcc75989b338613fd04dbf7c606dbd77c561e81fcfef7ad9789a71267655b0")
        for m in range(7, 41):
            h = cassaigne_morphism(m)
            assert (h.domain, h.codomain) == ("ABCDEF", "ab")
            assert is_code(list(h.images.values()))

    def test_m_below_seven_raises(self):
        # Below 7 the weights (m - 1, m - 2, 2, 1, 3, 4) repeat one or hold
        # a negative one, and every such m raised when they were an argument.
        for m in range(-1, 7):
            with pytest.raises(WordError, match=f"m too small: need m >= 7, got {m}"):
                cassaigne_morphism(m)


def ace_csv(capsys, name, params, prefix, tail):
    """`ace --format csv` stdout for a generator spec, through `cli.run`."""
    argv = ["ace", "--gen", name, "--prefix", str(prefix), "--tail", str(tail), "--format", "csv"]
    if params:
        argv += ["--params", ";".join(f"{key}={value}" for key, value in params.items())]
    assert run(argv) == 0
    return capsys.readouterr().out


class TestAceEstimate:
    def test_periodic_whole_prefix(self):
        est = ace_estimate(PeriodicGenerator("ab"), 100, 50)
        assert est.estimate == Fraction(50)
        assert est.witness_length == 100

    def test_thue_morse_square_ceiling(self):
        est = ace_estimate(thue_morse(), 1024, 8)
        assert est.estimate == Fraction(2)

    def test_monotone_in_prefix_length(self):
        gens = lambda: thue_morse()
        values = [ace_estimate(gens(), n, 8).estimate for n in (64, 128, 256, 512)]
        assert values == sorted(values)

    def test_non_increasing_in_tail(self):
        est_small = ace_estimate(thue_morse(), 256, 4).estimate
        est_large = ace_estimate(thue_morse(), 256, 64).estimate
        assert est_large <= est_small

    def test_per_length_values_are_exact_maxima(self, capsys):
        rng = random.Random(50)
        word = "".join(rng.choice("ab") for _ in range(60))
        csv = ace_csv(capsys, "periodic", {"v": word}, 60, 5)
        rows = {length: (num, den, offset) for length, num, den, offset in rows_of(csv)}
        assert sorted(rows) == list(range(5, 61))
        for length in (5, 17, 33, 60):
            best = max(
                fractional_exponent(word[i:i + length]).exponent
                for i in range(60 - length + 1)
            )
            assert rows[length][:2] == (best.numerator, best.denominator)
            offset = rows[length][2]
            assert fractional_exponent(word[offset:offset + length]).exponent == best

    def test_engines_agree(self, capsys):
        rows = rows_of(ace_csv(capsys, "thue-morse", {}, 400, 6))
        text = str(thue_morse().prefix(400))
        for oracle in (profile_border, profile_sweep):
            minper, start = oracle(text)
            exponents = [Fraction(n, minper[n]) for n in range(6, 401)]
            assert rows == [
                (n, e.numerator, e.denominator, start[n]) for n, e in zip(range(6, 401), exponents)
            ]

    def test_csv_shape(self, capsys):
        lines = ace_csv(capsys, "periodic", {"v": "ab"}, 10, 8).splitlines()
        assert lines[0] == "factor_length,max_exponent_num,max_exponent_den,witness_offset"
        assert len(lines) == 1 + (10 - 8 + 1)
        assert lines[1] == "8,4,1,0"

    def test_fibonacci_word_closed_form(self):
        # The Fibonacci word, fixed point of a -> ab, b -> a.  With F_1 = 1,
        # F_2 = 2 and F_{j+1} = F_j + F_{j-1}, its longest factor of period
        # F_j first occurs at offset F_{j+1} and has F_{j+2} + F_j - 2
        # letters; cut at the prefix end it keeps m_j of them.  The estimate
        # is the largest m_j / F_j over the factors long enough for the tail,
        # ties to the shorter factor, then the earlier one.  Every estimate
        # stays below the critical exponent 2 + phi, the root of
        # y^2 - y - 1 = 0 shifted by 2.
        fib = [1, 2]
        while fib[-2] < 50_000:
            fib.append(fib[-1] + fib[-2])
        checks = 0
        for n in [*range(7, 401), 1_000, 2_000, 10_000, 50_000]:
            factors = []
            for period, offset, full in zip(fib, fib[1:], fib[2:]):
                length = min(full + period - 2, n - offset)
                factors.append((Fraction(length, period), -length, -offset))
            for tail in (1, 2, 8, 64, 512):
                fitting = [factor for factor in factors if -factor[1] >= tail]
                if not fitting:
                    continue
                best, length, offset = max(fitting)
                gen = generator_from_spec("morphic", {"rules": "a=ab,b=a", "seed": "a"})
                est = ace_estimate(gen, n, tail)
                assert (est.estimate, est.witness_offset, est.witness_length) == (best, -offset, -length), (n, tail)
                y = est.estimate - 2
                assert y * y - y - 1 < 0, (n, tail)
                checks += 1
        assert checks == 1_499

    def test_bounds_validated(self):
        with pytest.raises(WordError):
            ace_estimate(thue_morse(), 10, 0)
        with pytest.raises(WordError):
            ace_estimate(thue_morse(), 10, 11)


class TestAceRows:
    # The report read off the csv stdout and the estimate, field by field,
    # against the per-length Fractions and offsets dict built directly.
    def check(self, capsys, name, params, text, tail):
        csv = ace_csv(capsys, name, params, len(text), tail)
        est = ace_estimate(generator_from_spec(name, params), len(text), tail)
        assert report_of(csv, est) == ace_oracle(text, tail), (text, tail)

    def test_random_words(self, capsys):
        rng = random.Random(70)
        for _ in range(150):
            alphabet = "abcd"[:rng.randint(1, 4)]
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
            for tail in {1, rng.randint(1, len(text)), len(text)}:
                self.check(capsys, "periodic", {"v": text}, text, tail)

    def test_cli_generators(self, capsys):
        rng = random.Random(71)
        specs = (
            ("thue-morse", {}),
            ("optimal-binary", {"n": "2", "k": "2", "m": "8"}),
            ("interleaved", {"n": "3"}),
            ("periodic", {"v": "abcabb"}),
            ("morphic", {"rules": "a=ab,b=ca,c=b", "seed": "a"}),
        )
        for name, params in specs:
            for n in (1, 37, 150):
                text = generator_from_spec(name, params).prefix(n)
                for tail in {1, min(2, n), rng.randint(1, n), n}:
                    self.check(capsys, name, params, text, tail)


class TestReferenceCycles:
    SPECS = (
        ("periodic", {"v": "abcabb"}),
        ("thue-morse", {}),
        ("morphic", {"rules": "a=ab,b=ca,c=b", "seed": "a"}),
        ("interleaved", {"n": "3"}),
        ("interleaved", {"n": "2", "base": "morphic:0=001,1=10:0"}),
        ("optimal-binary", {"n": "2", "k": "2", "m": "8"}),
        ("optimal-binary", {"n": "1", "k": "2", "m": "9", "base": "periodic:01"}),
    )

    def test_generators_are_freed_by_refcounting(self):
        # A generator in a reference cycle lives until the cycle collector
        # runs, with every buffer it grew.
        for name, params in self.SPECS:
            gen = generator_from_spec(name, params)
            gen.prefix(1000)
            parts = [gen] + [part for part in (getattr(gen, "base", None),) if part]
            refs = [weakref.ref(part) for part in parts]
            gc.disable()
            try:
                del gen, parts
                assert [ref() for ref in refs] == [None] * len(refs), name
            finally:
                gc.enable()

    def test_optimal_binary_source_is_freed_by_refcounting(self):
        # The binary source is held only by the stream of intermediate pieces.
        for make in (thue_morse, lambda: PeriodicGenerator("01")):
            source = make()
            gen = OptimalBinaryGenerator(2, 2, 8, source)
            gen.prefix(1000)
            refs = [weakref.ref(gen), weakref.ref(source)]
            gc.disable()
            try:
                del gen, source
                assert [ref() for ref in refs] == [None, None]
            finally:
                gc.enable()


def prefixes_or_errors(gen, lengths):
    """gen's prefixes at lengths, asked for in turn, or the message of the
    WordError a request raised."""
    out = []
    for n in lengths:
        try:
            out.append(gen.prefix(n))
        except WordError as exc:
            out.append(str(exc))
    return out


def memo_cases():
    """Generator makers for the memo tests: every reference spec, about 200
    seeded morphic rules, some of them with a letter the fixed point never
    reaches, and rules stopped by POWER_BUDGET, at j = 64, by a letter with
    no image and by erasing images."""
    rng = random.Random(35)
    rules = []
    for i in range(180):
        h, seed = TestLongImagePower().random_prolongable(rng)
        if i % 6 == 0:
            # A letter no image holds, so the fixed point never reaches it.
            h = Morphism({**h.images, "e": "".join(rng.choice("abcde") for _ in range(rng.randrange(0, 5)))})
        rules.append((h, seed))
    k = infinite.POWER_BUDGET // infinite.POWER_IMAGE + 1
    letters = [chr(0x100 + i) for i in range(k)]
    rules.append((Morphism({a: a + b for a, b in zip(letters, letters[1:] + letters[:1])}), letters[0]))
    for literal in ("a=ab,b=b", "a=abc,b=b,c=c", "a=ab,b=b,c=" + "c" * 1024, "a=ab,b=bbc", "a=ab,b=",
                    "a=ab,b=" + "b" * 1000, "a=ab,b=bc,c=c,d=" + "d" * 1024, "a=ab,b=a", "0=01,1=10"):
        rules.append((parse_morphism(literal), literal[0]))
    # One morphism, two seeds with different letters.
    rules += [(parse_morphism("a=ab,b=b,c=cdd,d=d"), seed) for seed in "ac"]
    makers = [lambda spec=spec: generator_from_spec(*spec) for spec in TestReferenceCycles.SPECS]
    # Thue-Morse's morphism as an image rather than a fixed point.
    makers.append(lambda: ImageGenerator(parse_morphism("0=01,1=10"), PeriodicGenerator("001")))
    return makers + [lambda h=h, seed=seed: MorphicGenerator(h, seed) for h, seed in rules]


class TestSetupMemo:
    LENGTHS = (1, 37, 1024, 50_000)

    def test_warm_builds_match_cold_ones(self):
        cases = memo_cases()
        expected = []
        for make in cases:
            infinite._setups.clear()
            expected.append(prefixes_or_errors(make(), self.LENGTHS))
        # One memo for every case from here on.
        infinite._setups.clear()
        for make, want in zip(cases, expected):
            first = make()
            held = dict(infinite._setups)
            warm = make()
            assert infinite._setups == held
            if isinstance(first, infinite._Expansion):
                assert warm._table is first._table, make()
            assert prefixes_or_errors(warm, self.LENGTHS) == want, make()
            # Two generators sharing one set-up, grown alternately.
            pair = [first, make()]
            for n, text in zip(self.LENGTHS, want):
                for gen in pair:
                    assert prefixes_or_errors(gen, [n]) == [text], (make(), n)

    def test_entries_are_immutable_and_counted(self):
        for make in memo_cases():
            prefixes_or_errors(make(), [100])
        assert len(infinite._setups) > 150
        for table, columns, longest, domain, size in infinite._setups.values():
            with pytest.raises(TypeError):
                table[ord("a")] = "b"
            assert columns is None or (type(columns) is tuple and all(type(c) is bytes for c in columns))
            assert longest == max(1, *map(len, table.values())) and domain == "".join(map(chr, table))
        assert infinite._setups.letters == sum(entry[-1] for entry in infinite._setups.values())
        assert infinite._setups.letters <= infinite.MAX_CACHED_LETTERS

    def test_the_bound_holds_and_changes_no_answer(self, monkeypatch):
        makers = memo_cases()[:len(TestReferenceCycles.SPECS)]
        expected = [make().prefix(5000) for make in makers]
        # The first entry stored is Thue-Morse's.
        first = next(iter(infinite._setups.values()))[-1]
        for bound in (0, first):
            monkeypatch.setattr(infinite, "MAX_CACHED_LETTERS", bound)
            infinite._setups.clear()
            for _ in range(2):
                assert [make().prefix(5000) for make in makers] == expected
                assert infinite._setups.letters == sum(entry[-1] for entry in infinite._setups.values()) <= bound
            assert len(infinite._setups) == (bound > 0)

    def test_building_thue_morse_twice_runs_the_power_steps_once(self, monkeypatch):
        seeds = []
        real = infinite._long_power

        def counting(images, seed):
            seeds.append(seed)
            return real(images, seed)

        monkeypatch.setattr(infinite, "_long_power", counting)
        first, second = thue_morse(), thue_morse()
        assert seeds == ["0"]
        assert first.prefix(3000) == second.prefix(3000) == thue_morse_word(3000)

    def test_importing_the_cli_fills_nothing(self):
        src = str(Path(infinite.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        code = "import morphexp.cli, morphexp.infinite as i; print(len(i._setups), i._setups.letters)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0\n", "")


def part_makers():
    """Fresh generators of every kind: the reference specs and a stream of
    one-letter blocks."""
    makers = [lambda spec=spec: generator_from_spec(*spec) for spec in TestReferenceCycles.SPECS]
    return makers + [lambda: StreamGenerator(itertools.cycle("abc"), "abc")]


def check_parts(gen):
    # Every letter is held once, and the offsets end each part.
    assert sum(map(len, gen._parts)) == gen.size
    assert gen._ends == list(itertools.accumulate(map(len, gen._parts)))


class TestLetterParts:
    def test_random_reads_across_parts_match_one_prefix(self):
        rng = random.Random(17)
        for make in part_makers():
            text = make().prefix(3000)
            gen = make()
            # Grow in random small steps: an empty read at n grows to n.
            n = 0
            while n < 2000:
                n += rng.randint(1, 40)
                assert gen._slice(n, n) == ""
                check_parts(gen)
            for _ in range(300):
                lo = rng.randrange(0, 3000)
                hi = min(3000, lo + rng.choice((0, 1, 5, 60, 700)))
                assert gen._slice(lo, hi) == text[lo:hi], (make(), lo, hi)
                for part in (gen, getattr(gen, "base", None)):
                    if part is not None:
                        check_parts(part)

    def test_reads_that_need_no_growth_leave_the_parts_alone(self):
        # Only `_add` writes the parts, so a reader, such as a fixed point
        # reading itself while it grows, never reshapes them under another.
        for make in part_makers():
            gen = make()
            for n in (10, 100, 1000, 3000):
                gen.prefix(n)
            assert len(gen._parts) > 1, make()
            holders = [g for g in (gen, getattr(gen, "base", None)) if g is not None]
            for reader in holders:
                ends = list(reader._ends)
                starts = [0, *ends[:-1]]
                reads = [(0, 0), (reader.size, reader.size), (0, reader.size)]
                for lo, hi in zip(starts, ends):
                    reads += [(lo, lo), (lo, hi), (lo, (lo + hi) // 2), ((lo + hi) // 2, hi)]
                for lo, hi in zip(starts, ends[1:]):
                    reads += [(lo, hi), (lo + 1, hi - 1)]
                text = "".join(reader._parts)
                for lo, hi in reads:
                    held = [(g, list(g._parts), list(g._ends)) for g in holders]
                    assert reader._slice(lo, hi) == text[lo:hi], (make(), lo, hi)
                    for g, parts, offsets in held:
                        assert g._ends == offsets, (make(), lo, hi)
                        assert len(g._parts) == len(parts), (make(), lo, hi)
                        assert all(a is b for a, b in zip(g._parts, parts)), (make(), lo, hi)
        # A stream adds one part per growth, not one per block.
        gen = StreamGenerator(itertools.cycle("abc"), "abc")
        assert gen._slice(10, 10) == "" and gen._parts == ["abcabcabca"]
        assert gen._slice(20, 20) == "" and gen._parts == ["abcabcabca", "bcabcabcab"]

    def test_small_step_reads_leave_earlier_parts_alone(self):
        # Each growth re-joined every letter held, so reading thue_morse()
        # to 1,500,000 letters in 1,024-letter slices cost about 20 one-shot
        # reads.  Reads from inside a part must not join it either, or
        # reads across part ends re-join an ever longer part.
        for make in part_makers():
            for offset in (0, 50):
                gen = make()
                gen.prefix(1000)
                first, start = gen._parts[0], gen.size
                for lo in range(start + offset, start + 20_000, 100):
                    gen._slice(lo, lo + 100)
                    assert gen._parts[0] is first, make()
                # A part is one growth: under 1,000 letters, or one image of
                # a fixed point's power, here under twice the target (1,024
                # and 1,431 letters); a re-joined part holds thousands more.
                assert max(map(len, gen._parts[1:])) < 1000 + 2 * infinite.POWER_IMAGE, make()


class TestPrefixLimit:
    def test_limit_is_checked_before_growing(self, monkeypatch):
        monkeypatch.setattr(infinite, "MAX_BUILD_LETTERS", 100)
        gen = thue_morse()
        assert len(gen.prefix(100)) == 100
        with pytest.raises(WordError, match="the prefix would have 101 letters, more than the limit of 100"):
            gen.prefix(101)
        with pytest.raises(WordError, match="more than the limit"):
            ace_estimate(PeriodicGenerator("ab"), 101, 1)

    def test_ace_prefix_has_its_own_limit(self, monkeypatch, capsys):
        monkeypatch.setattr(infinite, "MAX_PROFILE_LETTERS", 50)
        assert ace_estimate(thue_morse(), 50, 1).estimate == 2
        with pytest.raises(WordError, match="the prefix would have 51 letters, more than the limit of 50"):
            ace_estimate(thue_morse(), 51, 1)
        # The csv rows obey the same limit.
        assert len(rows_of(ace_csv(capsys, "thue-morse", {}, 50, 1))) == 50
        assert run(["ace", "--gen", "thue-morse", "--prefix", "51", "--tail", "1", "--format", "csv"]) == 1
        assert capsys.readouterr() == ("", "error: the prefix would have 51 letters, more than the limit of 50\n")
        assert len(thue_morse().prefix(51)) == 51
        assert infinite.MAX_PROFILE_LETTERS < infinite.MAX_BUILD_LETTERS

    def test_default_limit(self):
        with pytest.raises(WordError, match="more than the limit of 10000000"):
            PeriodicGenerator("ab").prefix(10_000_001)


class TestFactorComplexity:
    def test_examples(self):
        assert factor_complexity(PeriodicGenerator("ab"), 64, 3) == 2
        assert factor_complexity(thue_morse(), 512, 1) == 2
        assert factor_complexity(thue_morse(), 512, 2) == 4

    def test_periodic_is_eventually_constant(self):
        values = [factor_complexity(PeriodicGenerator("aab"), 128, n) for n in range(1, 12)]
        assert values[3:] == [3] * len(values[3:])

    def test_aperiodic_exceeds_n(self):
        for n in range(1, 9):
            assert factor_complexity(thue_morse(), 1024, n) >= n + 1


class TestGeneratorSpecs:
    def test_cli_specs(self):
        assert generator_from_spec("periodic", {"v": "ab"}).prefix(4) == "abab"
        assert generator_from_spec("thue-morse", {}).prefix(4) == "0110"
        morphic = generator_from_spec("morphic", {"rules": "0=01,1=10", "seed": "0"})
        assert morphic.prefix(8) == "01101001"
        inter = generator_from_spec("interleaved", {"n": "2"})
        assert len(inter.prefix(6)) == 6
        opt = generator_from_spec("optimal-binary", {"n": "1", "k": "2", "m": "7"})
        assert set(opt.prefix(10)) <= {"a", "b"}
        assert generator_from_spec("interleaved", {"n": "2", "base": "periodic:01"}).prefix(4)

    def test_unknown_generator(self):
        with pytest.raises(WordError, match="unknown generator"):
            generator_from_spec("mystery", {})

    def test_missing_parameter(self):
        with pytest.raises(WordError, match="needs parameter"):
            generator_from_spec("periodic", {})

    def test_base_spec_fields_are_the_generator_parameters_split_from_the_right(self):
        # Only the rules may hold a colon: here it is a letter of the fixed point.
        rules, seed = "0=0:,:=:0", "0"
        spec = generator_from_spec("interleaved", {"n": "2", "base": f"morphic:{rules}:{seed}"})
        direct = InterleavedCopiesGenerator(2, MorphicGenerator(parse_morphism(rules), seed))
        assert spec.prefix(500) == direct.prefix(500)
        spec = generator_from_spec("optimal-binary", {"n": "1", "k": "2", "m": "7", "base": "periodic:0:"})
        assert spec.prefix(500) == OptimalBinaryGenerator(1, 2, 7, PeriodicGenerator("0:")).prefix(500)

    def test_derived_generators_default_to_a_thue_morse_base(self):
        assert InterleavedCopiesGenerator(3).prefix(500) == InterleavedCopiesGenerator(3, thue_morse()).prefix(500)
        assert OptimalBinaryGenerator(1, 2, 7).prefix(500) == OptimalBinaryGenerator(1, 2, 7, thue_morse()).prefix(500)
