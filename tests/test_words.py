import random
import re
import time
from fractions import Fraction

import pytest

from morphexp import infinite, words
from morphexp.words import (
    WordError,
    _integer_power,
    _max_exponent,
    LETTER_POOL,
    _period_at_most,
    fractional_exponent,
    fresh_letters,
    letter_set,
    minimal_period_profile,
    parse_rational,
    prefix_comparable,
    smallest_period,
    suffix_comparable,
)
from morphexp.morphisms import Morphism
from ace_oracles import ace_oracle, max_exponent_every_shift
from profile_oracles import (
    brute_smallest_period,
    fractional_power,
    is_primitive,
    profile_border,
    profile_naive,
    profile_sweep,
    repeat_to_length,
)


def random_word(rng, alphabet, length):
    return "".join(rng.choice(alphabet) for _ in range(length))


class TestSmallestPeriod:
    def test_examples(self):
        assert smallest_period("ababab") == 2
        assert smallest_period("a") == 1
        assert smallest_period("aabb") == 4

    def test_empty_rejected(self):
        with pytest.raises(WordError, match="empty"):
            smallest_period("")

    def test_against_brute_force(self):
        rng = random.Random(1)
        for _ in range(300):
            w = random_word(rng, "ab", rng.randint(1, 16))
            assert smallest_period(w) == brute_smallest_period(w)
        for _ in range(100):
            w = random_word(rng, "abc", rng.randint(1, 12))
            assert smallest_period(w) == brute_smallest_period(w)


def fibonacci():
    return infinite.generator_from_spec("morphic", {"rules": "a=ab,b=a", "seed": "a"})


def counting_border_arrays(monkeypatch):
    """Record the length of each word the border array is built for."""
    built = []
    real = words.border_array

    def counting(text):
        built.append(len(text))
        return real(text)

    monkeypatch.setattr(words, "border_array", counting)
    return built


def period_test_words(rng):
    """Random, periodic and near-periodic words: the last kind keep a
    period for all but their last letter or two."""
    out = [random_word(rng, rng.choice(["a", "ab", "abc"]), rng.randint(1, 40)) for _ in range(200)]
    for _ in range(100):
        base = random_word(rng, "ab", rng.randint(1, 6))
        out.append(repeat_to_length(base, rng.randint(1, 40)))
    for k in range(1, 60):
        out += ["a" * k + "b", "ab" * k + "a", "aab" * k + "aa", "ab" * k + "b", "aab" * k + "ab",
                "a" * k + "b" + "a" * k]
    return out


def check_every_bound(w):
    """The kernel at every bound from 0 to |w| + 1 against the brute-force
    period and the border array."""
    period = brute_smallest_period(w)
    assert period == len(w) - words.border_array(w)[len(w)] == smallest_period(w), w
    for bound in range(len(w) + 2):
        assert _period_at_most(w, bound) == (period if period <= bound else None), (w, bound)


class TestPeriodAtMost:
    def test_against_smallest_period_and_the_oracle(self):
        for w in period_test_words(random.Random(2301)):
            check_every_bound(w)

    def test_empty_rejected(self):
        with pytest.raises(WordError, match="empty"):
            _period_at_most("", 1)

    @pytest.mark.parametrize("w", ["a" * 100000 + "b", "ab" * 50000 + "b"])
    def test_many_failed_checks_fall_back_in_linear_time(self, w, monkeypatch):
        # The prefix w[:16] occurs at every shift p < n - 16 that is a
        # multiple of the base, and each p would fail only at the last
        # letter; the first failure skips them all, so the border array is
        # never built.
        fallbacks = counting_border_arrays(monkeypatch)
        started = time.perf_counter()
        assert _period_at_most(w, len(w) - 1) is None
        assert time.perf_counter() - started < 1
        assert fallbacks == []

    @pytest.mark.parametrize("w, fallbacks", [
        # The 16-letter prefix recurs every few dozen letters, each time
        # with a short extent: the count budget hands the word over.
        pytest.param(infinite.thue_morse().prefix(100_000), 1, id="thue-morse"),
        pytest.param(fibonacci().prefix(100_000), 0, id="fibonacci"),
        pytest.param("a" * 50_000 + "b" + "a" * 50_000, 0, id="a^k b a^k"),
    ])
    def test_the_border_array_is_built_only_past_a_budget(self, w, fallbacks, monkeypatch):
        expected = len(w) - words.border_array(w)[len(w)]
        built = counting_border_arrays(monkeypatch)
        assert smallest_period(w) == expected
        assert built == [len(w)] * fallbacks

    def test_fractional_powers_with_random_tails_at_every_bound(self):
        # The shape of the benchmark's exp words: a power of a base of 1 to
        # 12 letters cut to at least half the word, then random letters.
        rng = random.Random(3201)
        for _ in range(300):
            n = rng.randint(1, 300)
            alphabet = "abcd"[:rng.randint(2, 4)]
            base = random_word(rng, alphabet, rng.randint(1, 12))
            head = repeat_to_length(base, rng.randint(n // 2, n))
            check_every_bound(head + random_word(rng, alphabet, n - len(head)))

    def test_generator_prefixes_at_every_bound(self):
        for gen in (infinite.thue_morse(), fibonacci()):
            for n in list(range(1, 80)) + [127, 128, 129, 233, 256, 377]:
                check_every_bound(gen.prefix(n))


class TestFractionalExponent:
    def test_paper_examples(self):
        base, e = fractional_exponent("ababab")
        assert (str(base), e) == ("ab", Fraction(3))
        base, e = fractional_exponent("abca")
        assert (str(base), e) == ("abc", Fraction(4, 3))
        base, e = fractional_exponent("aabb")
        assert (str(base), e) == ("aabb", Fraction(1))

    def test_reconstruction_and_primitivity(self):
        rng = random.Random(2)
        for _ in range(300):
            w = random_word(rng, "ab", rng.randint(1, 20))
            base, e = fractional_exponent(w)
            assert e * len(base) == len(w)
            assert is_primitive(base)
            assert fractional_power(base, e) == w

    def test_exponent_at_least_integer_exponent(self):
        rng = random.Random(3)
        for _ in range(200):
            w = random_word(rng, "ab", rng.randint(1, 16))
            power = fractional_exponent(w)
            n, root = _integer_power(w, power)
            e = power.exponent
            assert e >= n
            if len(w) % smallest_period(w) == 0:
                assert e == n


class TestIntegerExponent:
    def test_examples(self):
        for w, expected in (("abab", (2, "ab")), ("abc", (1, "abc")), ("aaaaaa", (6, "a"))):
            assert _integer_power(w, fractional_exponent(w)) == expected

    def test_root_is_primitive_and_rebuilds(self):
        rng = random.Random(4)
        for _ in range(200):
            w = random_word(rng, "ab", rng.randint(1, 18))
            n, root = _integer_power(w, fractional_exponent(w))
            assert is_primitive(root)
            assert root * n == w


class TestPrimitivity:
    def test_examples(self):
        assert is_primitive("ab")
        assert not is_primitive("abab")
        assert is_primitive("aabab")

    def test_divisor_enumeration_oracle(self):
        rng = random.Random(5)
        for _ in range(300):
            w = random_word(rng, "ab", rng.randint(1, 14))
            brute = not any(
                len(w) % d == 0 and w[:d] * (len(w) // d) == w
                for d in range(1, len(w))
            )
            assert is_primitive(w) == brute

    def test_conjugates_of_primitive_are_primitive(self):
        rng = random.Random(6)
        count = 0
        while count < 100:
            w = random_word(rng, "ab", rng.randint(2, 12))
            if not is_primitive(w):
                continue
            count += 1
            for r in range(len(w)):
                assert is_primitive(w[r:] + w[:r])


class TestComparability:
    def test_examples(self):
        assert prefix_comparable("ab", "abba")
        assert not prefix_comparable("ba", "abba")
        assert suffix_comparable("ba", "abba")

    def test_empty_word_comparable_with_everything(self):
        assert prefix_comparable("", "abc")
        assert suffix_comparable("abc", "")

    def test_existential_definition_brute_force(self):
        # u prefix-comparable v iff u is a prefix of v+s for some s; auxiliary
        # words of length up to |u| cover every witness.
        words = [""]
        layer = [""]
        for _ in range(4):
            layer = [w + ch for w in layer for ch in "ab"]
            words += layer
        for u in words:
            aux = [s for s in words if len(s) <= len(u)]
            for v in words:
                expected_prefix = any((v + s).startswith(u) for s in aux)
                expected_suffix = any((p + v).endswith(u) for p in aux)
                assert prefix_comparable(u, v) == expected_prefix, (u, v)
                assert suffix_comparable(u, v) == expected_suffix, (u, v)


class TestOccurrencesInPowers:
    def test_primitive_occurs_only_at_period_multiples(self):
        rng = random.Random(9)
        count = 0
        while count < 120:
            x = random_word(rng, "ab", rng.randint(1, 6))
            if not is_primitive(x):
                continue
            count += 1
            for r in (2, 3, 4):
                power = x * r
                pos = power.find(x)
                while pos != -1:
                    assert pos % len(x) == 0
                    pos = power.find(x, pos + 1)

    def test_conjugate_occurrences_split_the_power(self):
        # In x^r with x = pq primitive, any occurrence of qp has (pq)^* p on
        # its left and a prefix of (qp)^omega on its right.
        rng = random.Random(12)
        count = 0
        while count < 120:
            x = random_word(rng, "ab", rng.randint(2, 6))
            if not is_primitive(x):
                continue
            count += 1
            split = rng.randint(1, len(x) - 1)
            p, q = x[:split], x[split:]
            rotated = q + p
            power = x * rng.randint(2, 4)
            pos = power.find(rotated)
            assert pos != -1  # qp occurs inside pq.pq at offset |p|
            while pos != -1:
                left, right = power[:pos], power[pos + len(rotated):]
                m, rem = divmod(pos - len(p), len(x))
                assert rem == 0 and m >= 0, (x, split, pos)
                assert left == x * m + p
                assert repeat_to_length(rotated, len(right)) == right
                pos = power.find(rotated, pos + 1)


class TestMaxExponentFactor:
    def test_examples(self):
        # (length, period, start): aa, ababab and a.
        assert _max_exponent("abaab", 1) == (2, 1, 2)
        assert _max_exponent("ababab", 2) == (6, 2, 0)
        assert _max_exponent("abc", 1) == (1, 1, 0)

    @staticmethod
    def brute(word, min_len):
        best = None
        for length in range(min_len, len(word) + 1):
            for start in range(len(word) - length + 1):
                period = brute_smallest_period(word[start:start + length])
                key = (-Fraction(length, period), length, start)
                if best is None or key < best[0]:
                    best = (key, (length, period, start))
        return best[1]

    def test_exhaustive_agreement(self):
        rng = random.Random(10)
        for _ in range(120):
            w = random_word(rng, "ab", rng.randint(1, 14))
            min_len = rng.randint(1, len(w))
            assert _max_exponent(w, min_len) == self.brute(w, min_len), (w, min_len)
        for _ in range(40):
            w = random_word(rng, "abc", rng.randint(1, 12))
            assert _max_exponent(w, 1) == self.brute(w, 1), w

    def test_engines_agree(self):
        rng = random.Random(11)
        for _ in range(80):
            w = random_word(rng, "ab", rng.randint(1, 40))
            got = minimal_period_profile(w)
            assert got == profile_border(w), w
            assert got == profile_sweep(w), w


class TestMaxExponentSearch:
    def test_differential_fuzz_against_the_profile(self):
        # Every min_len of every word, against the estimate and witness that
        # the reference report reads off a swept profile.
        rng = random.Random(13)
        ties = 0
        for trial in range(500):
            alphabet = "abcd"[:rng.randint(1, 4)]
            if trial % 2:
                w = random_word(rng, alphabet, rng.randint(1, 40))
            else:
                # A power prefix, where long runs push the bound, followed by
                # a random tail that breaks them.
                v = random_word(rng, alphabet, rng.randint(1, 6))
                w = repeat_to_length(v, rng.randint(1, 30)) + random_word(rng, alphabet, rng.randint(0, 10))
            for min_len in range(1, len(w) + 1):
                report = ace_oracle(w, min_len)
                period = report.witness_length // report.estimate
                expected = (report.witness_length, period, report.witness_offset)
                assert _max_exponent(w, min_len) == expected, (w, min_len)
                ties += sum(e == report.estimate for e in report.per_length.values()) > 1
        assert ties > 100

    def test_long_periodic_word_is_settled_at_its_period(self):
        w = repeat_to_length("abcabb", 100_000)
        assert _max_exponent(w, 8) == (100_000, 6, 0)
        assert _max_exponent("ab" * 50 + "c", 1) == (100, 2, 0)


class TestLongRuns:
    @staticmethod
    def broken_periodic_words():
        # Odd periods over 100-400 letters, one letter changed late: runs of
        # well over 64 agreements, ended at an odd place.
        rng = random.Random(17)
        for _ in range(24):
            alphabet = "abc"[:rng.randint(2, 3)]
            v = random_word(rng, alphabet, rng.choice((3, 5, 7, 9, 11, 13)))
            n = rng.randint(100, 400)
            w = list(repeat_to_length(v, n))
            i = rng.randint(2 * n // 3, n - 1)
            w[i] = rng.choice([ch for ch in alphabet if ch != w[i]])
            yield v, "".join(w)

    def test_max_exponent_against_the_report(self):
        rng = random.Random(19)
        for v, w in self.broken_periodic_words():
            for min_len in sorted({1, len(v) + 1, len(w) // 2, len(w), *rng.sample(range(1, len(w) + 1), 3)}):
                report = ace_oracle(w, min_len)
                period = report.witness_length // report.estimate
                expected = (report.witness_length, period, report.witness_offset)
                assert _max_exponent(w, min_len) == expected, (w, min_len)

    def test_profile_against_the_sweep(self):
        for _, w in self.broken_periodic_words():
            assert minimal_period_profile(w) == profile_sweep(w), w


# One spec per generator the CLI knows, plus the Fibonacci word.
GENERATOR_SPECS = (
    ("periodic", {"v": "abcabb"}),
    ("thue-morse", {}),
    ("morphic", {"rules": "a=abc,b=ac,c=b", "seed": "a"}),
    ("interleaved", {"n": "3"}),
    ("optimal-binary", {"n": "2", "k": "2", "m": "8"}),
    ("morphic", {"rules": "a=ab,b=a", "seed": "a"}),
)


def expected_max_exponent(w, min_len):
    report = ace_oracle(w, min_len)
    return report.witness_length, report.witness_length // report.estimate, report.witness_offset


def counting_masks(monkeypatch):
    """Record the shift of every agreement mask `_max_exponent` builds."""
    shifts = []
    agreements = words._agreements

    def counted(planes, p):
        shifts.append(p)
        return agreements(planes, p)

    monkeypatch.setattr(words, "_agreements", counted)
    return shifts


class TestRecurringShifts:
    """`_max_exponent` tests only the shifts where an aligned block recurs."""

    def test_generator_prefixes_against_the_oracles(self):
        assert {name for name, _ in GENERATOR_SPECS} == set(infinite._GENERATORS)
        rng = random.Random(29)
        for name, params in GENERATOR_SPECS:
            gen = infinite.generator_from_spec(name, params)
            for n in rng.sample(range(1, 41), 4):
                w = gen.prefix(n)
                for min_len in {1, min(8, n), n // 4 or 1, n}:
                    assert _max_exponent(w, min_len) == TestMaxExponentFactor.brute(w, min_len), (name, n, min_len)
            for n in (1_000, rng.randint(2_000, 20_000)):
                w = gen.prefix(n)
                for min_len in (1, 8, 24, 64, n // 4):
                    expected = expected_max_exponent(w, min_len) if n == 1_000 else max_exponent_every_shift(w, min_len)
                    assert _max_exponent(w, min_len) == expected, (name, params, n, min_len)

    def test_planted_repeats_against_the_oracle(self):
        # Two copies of a short block u at shift s in filler that shares no
        # letter with u: s is often a power of two or one less, the ends of
        # a dyadic range, and the second copy often ends the word, where
        # only the last aligned block of the range can hold the run.  The
        # tails sit at and just below the planted factor's length s + |u|.
        rng = random.Random(41)
        for _ in range(500):
            n = rng.randint(40, 160)
            w = list(random_word(rng, "abcdefghijklmnopqrst", n))
            u = random_word(rng, "XYZ", rng.randint(2, 8))
            top = 1 << (n - len(u)).bit_length() - 1
            s = rng.choice((rng.randint(len(u), n - len(u)), top, top - 1))
            i = rng.choice((rng.randint(0, n - len(u) - s), n - len(u) - s))
            w[i:i + len(u)] = w[i + s:i + s + len(u)] = u
            w = "".join(w)
            length = s + len(u)
            for min_len in {1, length, length - 1, max(1, length - 3), *rng.sample(range(1, n + 1), 3)}:
                assert _max_exponent(w, min_len) == max_exponent_every_shift(w, min_len), (w, min_len)

    @staticmethod
    def adversarial_words(n):
        rng = random.Random(31 + n)
        yield random_word(rng, "ab", n)
        yield random_word(rng, "abcdefghijklmnopqrstuvwxyz", n)
        yield infinite.generator_from_spec("morphic", {"rules": "a=abc,b=ac,c=b", "seed": "a"}).prefix(n)
        yield "a" * (n - 1) + "b"
        yield repeat_to_length("a" * (n // 3 - 1) + "b", n)
        yield repeat_to_length("aaaaaaab", n)
        yield "a" * (n // 2) + random_word(rng, "bcdefghijklmnopqrstuvwxyz", n - n // 2)

    @pytest.mark.parametrize("n", [300, 4_000])
    def test_adversarial_words_against_the_oracles(self, n):
        for w in self.adversarial_words(n):
            for min_len in (1, 8, n // 4, n // 2, n - 5):
                expected = expected_max_exponent(w, min_len) if n == 300 else max_exponent_every_shift(w, min_len)
                assert _max_exponent(w, min_len) == expected, (w[:20], n, min_len)

    def test_a_range_whose_blocks_recur_too_often_is_tested_whole(self, monkeypatch):
        # a^2000 then 2,000 letters without a, at min_len 2,400.  No factor
        # with a period below 2,048 is that long and beats exponent 1, so
        # every shift in [1024, 2048) needs a run of 2400 - 2047 = 353
        # agreements or more, and holds an aligned block of 177 letters.
        # Block a^177 recurs at every shift up to 1,823, so its finds pass
        # the budget; shift 2047, whose longest run is far below 177, is
        # tested only because the range falls back to every shift.
        rng = random.Random(37)
        w = "a" * 2000 + random_word(rng, "bcdefghijklmnopqrstuvwxyz", 2000)
        tested = counting_masks(monkeypatch)
        assert _max_exponent(w, 2400) == max_exponent_every_shift(w, 2400)
        assert [p for p in tested if 1024 <= p < 2048] == list(range(1024, 2048))
        longest = run = 0
        for i in range(len(w) - 2047):
            run = run + 1 if w[i] == w[i + 2047] else 0
            longest = max(longest, run)
        assert longest < 177

    def test_thue_morse_at_the_profile_budget_builds_few_masks(self, monkeypatch):
        w = infinite.thue_morse().prefix(100_000)
        tested = counting_masks(monkeypatch)
        assert _max_exponent(w, 8) == (8, 4, 4)
        # Testing every shift up to the stop at n/2 builds 49,999.
        assert len(tested) < 1_000
        assert tested == sorted(set(tested))


class TestPeriodProfile:
    def test_differential_fuzz_against_all_factors(self):
        rng = random.Random(12)
        for trial in range(400):
            alphabet = "abcd"[:rng.randint(1, 4)]
            length = rng.randint(1, 60)
            if trial % 2:
                w = random_word(rng, alphabet, length)
            else:
                # A periodic prefix with a few letters changed: long runs
                # broken in places, where one shift settles the most lengths.
                v = random_word(rng, alphabet, rng.randint(1, 6))
                w = "".join(
                    rng.choice(alphabet) if rng.random() < 0.05 else ch
                    for ch in repeat_to_length(v, length)
                )
            assert minimal_period_profile(w) == profile_naive(w), w

    def test_unary(self):
        minper, start = minimal_period_profile("a" * 300)
        assert minper == [0] + [1] * 300
        assert start == [0] * 301

    def test_single_letter_between_unary_blocks(self):
        k = 150
        w = "a" * k + "b" + "a" * k
        minper, start = minimal_period_profile(w)
        assert minper[1:k + 1] == [1] * k
        assert minper[k + 1:] == [min((n + 2) // 2, k + 1) for n in range(k + 1, 2 * k + 2)]
        assert (minper, start) == profile_sweep(w)

    def test_periodic_prefixes(self):
        for v in ("ab", "aab", "abaab", "abcacb", "abacabad"):
            w = str(repeat_to_length(v, 300))
            minper, start = minimal_period_profile(w)
            assert minper[300] == len(v)
            assert (minper, start) == profile_sweep(w), v


class TestWordType:
    def test_alphabet_validation(self):
        # Words and alphabets are plain str; a letter set is checked where it
        # enters the library, such as a morphism's domain.
        with pytest.raises(WordError, match="single characters, got 'ab'"):
            Morphism({"ab": "abc"})
        assert Morphism({"x": "cab"}).codomain == "abc"
        assert letter_set(iter("bca")) == "bca"
        assert letter_set([]) == ""
        with pytest.raises(WordError, match="duplicate letter 'a'"):
            letter_set("aba")
        for bad in ("bc", "", 7):
            with pytest.raises(WordError, match="single characters"):
                letter_set(["a", bad])

    def test_repeat_to_length(self):
        assert repeat_to_length("ab", 5) == "ababa"
        assert repeat_to_length("a", 3) == "aaa"
        assert repeat_to_length("abc", 4) == "abca"

    def test_fractional_power_requires_integer_length(self):
        assert fractional_power("ab", Fraction(3, 2)) == "aba"
        with pytest.raises(ValueError):
            fractional_power("ab", Fraction(3, 4))

    def test_parse_rational(self):
        assert parse_rational("15/7") == Fraction(15, 7)
        assert str(parse_rational("3")) == "3"
        with pytest.raises(WordError):
            parse_rational("x/y")


def fresh_letters_oracle(count, avoid=()):
    """The loop over the pool that fresh_letters replaced."""
    taken = set(avoid)
    out = "".join(ch for ch in LETTER_POOL if ch not in taken)
    if len(out) < count:
        raise WordError(f"letter pool exhausted: needed {count} fresh letters")
    return out[:count]


class TestFreshLetters:
    def test_random_avoid_sets_match_the_loop_over_the_pool(self):
        rng = random.Random(35)
        # Pool letters, non-ASCII letters, a lone surrogate, longer and
        # empty strings, and items that are not strings at all.
        letters = list(LETTER_POOL) + ["\u00e9", "\u0100", "\ud800", "\x00", "-"]
        others = ["", "ab", "Ab9", 0, 1, 7, None, 2.5, ("a",), b"a", frozenset("a")]
        wraps = (str, list, tuple, set, iter, dict.fromkeys)
        for _ in range(3000):
            items = [rng.choice(letters) if rng.random() < 0.8 else rng.choice(others)
                     for _ in range(rng.randrange(0, 70))]
            wrap = rng.choice(wraps)
            if wrap is str:
                items = [ch for ch in items if isinstance(ch, str) and len(ch) == 1]
                make = lambda: "".join(items)
            else:
                make = lambda: wrap(items)
            count = rng.randrange(0, len(LETTER_POOL) + 2)
            try:
                expected = fresh_letters_oracle(count, make())
            except WordError as exc:
                with pytest.raises(WordError, match=re.escape(str(exc))):
                    fresh_letters(count, make())
            else:
                assert fresh_letters(count, make()) == expected, (count, items, wrap)
        assert fresh_letters(3) == fresh_letters_oracle(3) == "ABC"

    def test_unhashable_items_raise_as_before(self):
        for avoid in (["a", ["b"]], [{"a": 1}]):
            with pytest.raises(TypeError):
                fresh_letters_oracle(1, avoid)
            with pytest.raises(TypeError):
                fresh_letters(1, avoid)
