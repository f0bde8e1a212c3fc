"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
all expected values are exact rationals and every comparison is equality (or
a strict inequality where the criterion states one).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from morphexp.codes import CodeSet, x_degree
from morphexp.infinite import (
    InterleavedCopiesGenerator,
    OptimalBinaryGenerator,
    PeriodicGenerator,
    ace_estimate,
    thue_morse,
)
from morphexp.mapped_exponent import (
    FINITE,
    INFINITE,
    classify_general,
    highpower_word,
    lowpower_morphism,
    mapped_exponent_lower_bound,
)
from morphexp.morphisms import Morphism, is_code, spreading_morphism
from morphexp.words import fractional_exponent, prefix_comparable, suffix_comparable
from construction_oracles import (
    chunk_schedule,
    factor_complexity,
    intermediate_block,
    intermediate_word,
    interleaved_chunks,
    thue_morse_word,
)
from profile_oracles import fractional_power
from search_oracles import injective_product


@contextmanager
def criterion(number, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({name}): FAIL [{time.perf_counter() - started:.1f}s]")
        raise
    print(f"criterion {number:2d} ({name}): PASS [{time.perf_counter() - started:.1f}s]")


def binary_words(max_len):
    layer = [""]
    for _ in range(max_len):
        layer = [w + ch for w in layer for ch in "ab"]
        yield from layer


def test_criterion_1_lowpower_identity():
    with criterion(1, "lowpower image exponent identity"):
        for n in range(2, 11):
            for k in range(0, 51):
                word, h, expected = lowpower_morphism(n, k)
                assert expected == 1 + Fraction(4 * k + 4, (2 * k + 3) * (n - 1) + 2)
                assert fractional_exponent(h.apply(word)).exponent == expected, (n, k)


def test_criterion_2_lowpower_upper_bound():
    with criterion(2, "lowpower strict upper bound over bounded morphisms"):
        domain, codomain = "ab", "01"
        morphisms = [
            Morphism(dict(zip(domain, images)))
            for images in injective_product(domain, codomain, 4)
        ]
        assert morphisms
        for n in (2, 3, 4):
            word = "ab" * n + "ba"
            bound = 1 + Fraction(2, n - 1)
            for h in morphisms:
                e = fractional_exponent(h.apply(word)).exponent
                assert e < bound, (n, h.to_text(), e)


def test_criterion_2_lowpower_is_optimal_within_the_search_bound():
    with criterion(2, "lowpower reaches the exact bounded maximum"):
        for n in (2, 3):
            word = "ab" * n + "ba"
            for max_image_len in range(2, 7):
                k = (max_image_len - 1) // 2
                expected = lowpower_morphism(n, k)[2]
                best, argmax = mapped_exponent_lower_bound(word, max_image_len)
                assert best == expected, (n, max_image_len)
                assert argmax.to_text() == f"a={'01' * k}0,b=10", (n, max_image_len)
                if max_image_len <= 5:
                    best, _ = mapped_exponent_lower_bound(word, max_image_len, codomain_size=3)
                    assert best == expected, (n, max_image_len)


def test_criterion_3_highpower_identity():
    with criterion(3, "highpower image exponent and flat base word"):
        for n in range(2, 21):
            word, h, expected = highpower_word(n)
            assert expected == n - Fraction(n, 6 * n + 1)
            assert fractional_exponent(word).exponent == 1, n
            assert fractional_exponent(h.apply(word)).exponent == expected, n


def _pattern_words(length):
    """Every word of the given length matching b^j1 (a b^j2)^k a b^j3 or the
    letter-swapped pattern, generated directly from the parameter tuples."""
    out = set()
    for marker, filler in (("a", "b"), ("b", "a")):
        for k in range(0, length + 1):
            j2_range = range(0, length + 1) if k else (0,)
            for j2 in j2_range:
                for j1 in range(0, length + 1):
                    j3 = length - j1 - k * (1 + j2) - 1
                    if j3 < 0:
                        continue
                    out.add(filler * j1 + (marker + filler * j2) * k + marker + filler * j3)
    return out


def test_criterion_4_binary_classification_oracle():
    with criterion(4, "binary classifier equals pattern-matching oracle"):
        patterns = {length: _pattern_words(length) for length in range(1, 13)}
        total = 0
        for w in binary_words(12):
            total += 1
            verdict = classify_general(w, target=1)
            expected = INFINITE if w in patterns[len(w)] else FINITE
            assert verdict.tag == expected, w
        assert total == 2 ** 13 - 2


def test_criterion_5_witness_soundness():
    with criterion(5, "pumped witnesses reach their targets and stay injective"):
        words = []
        layer = [""]
        for _ in range(8):
            layer = [w + ch for w in layer for ch in "abc"]
            words.extend(layer)
        infinite_count = 0
        for w in words:
            if classify_general(w, max_image_len=3, target=1).tag != INFINITE:
                continue
            infinite_count += 1
            for target in (2, 5, 10):
                verdict = classify_general(w, max_image_len=3, target=target)
                assert verdict.tag == INFINITE
                h, achieved = verdict.witness
                assert achieved >= target, (w, target)
                assert fractional_exponent(h.apply(w)).exponent == achieved
                assert is_code(list(h.images.values())), (w, target)
        assert infinite_count > 0


def test_criterion_6_x_degree_bound():
    with criterion(6, "degree of long-base powers bounded by code size"):
        rng = random.Random(2024)
        done = 0
        while done < 200:
            words = {
                "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))
            }
            code = CodeSet(sorted(words))
            x = "".join(rng.choice("ab") for _ in range(code.max_len + rng.randint(1, 3)))
            power = x * rng.randint(1, 4)
            base, _ = fractional_exponent(power)
            if len(base) <= code.max_len:
                continue
            done += 1
            assert x_degree(power, code) <= len(code.words), (str(power), code.words)


def test_criterion_7_interleaved_image_identity():
    with criterion(7, "interleaved-copy image is an exact fractional power"):
        base = thue_morse_word(200 * 201 // 2)
        for n in range(1, 6):
            gen = InterleavedCopiesGenerator(n, thue_morse())
            h = spreading_morphism(gen.alphabet)
            text = gen.prefix(n * 200 * 201 // 2)
            for j in range(1, 201):
                chunks = interleaved_chunks(base, gen.alphabet, j)
                block = "".join(chunks)
                assert text[n * j * (j - 1) // 2:n * j * (j + 1) // 2] == block, (n, j)
                image = h.apply(block)
                period_word = h.apply(chunks[0]) + "c"
                exponent = Fraction(j * n * n, j * n + 1)
                assert exponent == n - Fraction(n, j * n + 1)
                assert image == fractional_power(period_word, exponent), (n, j)
                if n == 1:
                    continue  # exponent below 1 is outside E's range
                got = fractional_exponent(image)
                assert got.exponent == exponent, (n, j)
                assert got.base == period_word, (n, j)
                assert got.exponent > n - Fraction(1, j)


def test_criterion_8_optimal_binary_block_exponent():
    with criterion(8, "pre-image block exponent is n + 1/(k+1)"):
        for k in (2, 3):
            schedule = chunk_schedule(k, 4)
            source = thue_morse_word(sum(v_len for _, v_len in schedule))
            for n in (1, 2, 3):
                gen = OptimalBinaryGenerator(n, k, 2 * k + 7)
                letters = gen.morphism.domain
                word = gen.morphism.apply(intermediate_word(source, n, k, 4, letters))
                assert gen.prefix(len(word)) == word, (n, k)
                for i in (1, 2, 3, 4):
                    block = intermediate_block(source, n, k, i, letters)
                    u_len = schedule[i - 1][0]
                    expected = n + Fraction(u_len + 1, (k + 1) * (u_len + 1))
                    assert expected == n + Fraction(1, k + 1)
                    assert fractional_exponent(block).exponent == expected, (n, k, i)


def _oracle_tail_max(text, tail):
    """Independent maximum of E over factors of length >= tail: sweep every
    period, find maximal agreement runs, and take the best run exponent."""
    n = len(text)
    best = Fraction(1)
    for p in range(1, n):
        i = 0
        while i < n - p:
            if text[i] != text[i + p]:
                i += 1
                continue
            j = i
            while j < n - p and text[j] == text[j + p]:
                j += 1
            length = (j - i) + p
            if length >= tail:
                e = Fraction(length, p)
                if e > best:
                    best = e
            i = j + 1
    return best


def test_criterion_9_ace_estimator_properties():
    with criterion(9, "estimator monotonicity, exact tail values, complexity checks"):
        tm_text = str(thue_morse().prefix(4096))
        estimates = [ace_estimate(thue_morse(), n, 8).estimate for n in (512, 1024, 2048, 4096)]
        assert estimates == sorted(estimates)
        assert estimates[-1] == Fraction(2)
        assert _oracle_tail_max(tm_text, 8) == Fraction(2)

        tails = [ace_estimate(thue_morse(), 1024, t).estimate for t in (8, 64, 256)]
        assert tails == sorted(tails, reverse=True)

        assert ace_estimate(PeriodicGenerator("ab"), 100, 50).estimate == Fraction(50)
        assert ace_estimate(PeriodicGenerator("ab"), 200, 50).estimate == Fraction(100)

        periodic_complexity = [factor_complexity(PeriodicGenerator("ab"), 128, n) for n in range(1, 10)]
        assert periodic_complexity == [2] * 9
        for n in range(1, 9):
            assert factor_complexity(thue_morse(), 1024, n) > n


def test_criterion_10_comparability_oracle():
    with criterion(10, "comparability equals existential brute force"):
        words = [""]
        layer = [""]
        for _ in range(6):
            layer = [w + ch for w in layer for ch in "ab"]
            words.extend(layer)
        by_len = {}
        for length in range(0, 7):
            by_len[length] = [s for s in words if len(s) <= length]
        for u in words:
            aux = by_len[len(u)]
            for v in words:
                assert prefix_comparable(u, v) == any((v + s).startswith(u) for s in aux), (u, v)
                assert suffix_comparable(u, v) == any((s + v).endswith(u) for s in aux), (u, v)
