"""The depth-first injective-morphism search against the product oracle."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import cache, partial
from pathlib import Path
from string import digits

import pytest

import morphexp.cli as cli_module
import morphexp.mapped_exponent as mapped_exponent_module
import morphexp.morphisms as morphisms_module
import search_oracles
from morphexp.cli import run
from morphexp.mapped_exponent import (
    INFINITE,
    UNKNOWN,
    MappedExponentVerdict,
    _canonical_images,
    _spaces,
    classify_general,
    gap_factorization,
    mapped_exponent_lower_bound,
)
from morphexp.morphisms import _injective_images, parse_morphism
from morphexp.words import WordError, fractional_exponent, prefix_comparable, suffix_comparable
from profile_oracles import brute_smallest_period
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


# Shapes with images longer than three letters, for the enumeration tests.
WIDE_SHAPES = (*((1, max_image_len, 2) for max_image_len in range(4, 11)), (2, 4, 2), (2, 5, 2), (2, 4, 3))


# The (domain size, max image length, codomain size) of the benchmark's
# lower-bound queries, which use words of six letters.
BENCH_SHAPES = ((2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 3, 3), (3, 2, 2), (3, 2, 3), (3, 3, 2))


@cache
def oracle_space(size, max_image_len, codomain_size):
    return list(canonical_product("abcd"[:size], digits[:codomain_size], max_image_len))


def memo_space(size, max_image_len, codomain_size):
    return _canonical_images(size, digits[:codomain_size], max_image_len)


def memo_key(size, max_image_len, codomain_size):
    return size, digits[:codomain_size], max_image_len


def held():
    return sum(map(len, _spaces.values()))


def random_alphabets(rng, size, codomain_size):
    letters = rng.sample("abcdefgh", size)
    codomain = rng.sample("0123456789xyz", codomain_size)
    return "".join(letters), "".join(codomain)


def seeded_word(seed, letters, length):
    rng = random.Random(seed)
    return "".join(rng.choice(letters) for _ in range(length))


def random_word(rng, letters, length):
    while True:
        w = "".join(rng.choice(letters) for _ in range(length))
        if set(w) == set(letters):
            return w


def searching_word(rng, letters):
    """A word over exactly these letters whose classification searches: the
    last letter occurs twice and splits it into head, gap and tail."""
    rest = letters[:-1]
    while True:
        head, gap, tail = ("".join(rng.choice(rest) for _ in range(rng.randint(0, 4))) for _ in range(3))
        w = head + letters[-1] + gap + letters[-1] + tail
        if set(w) == set(letters) and reaches_search(w):
            return w


def several_factorizations(rng, letters):
    """A word over exactly these letters that two or more of them factor and
    whose classification searches."""
    while True:
        w = random_word(rng, letters, rng.randint(len(letters), 10))
        if sum(gap_factorization(w, ch) is not None for ch in letters) >= 2 and reaches_search(w):
            return w


def oracle_hits(w, space):
    """Per gap factorization of w, in the order classify_general tries them,
    the index of the first tuple of space that certifies it, or None."""
    hits = []
    for ch in sorted(set(w)):
        fact = gap_factorization(w, ch)
        if fact is None:
            continue
        rest = [x for x in sorted(set(w)) if x != ch]
        hit = None
        for i, images in enumerate(space):
            table = str.maketrans(dict(zip(rest, images)))
            head, gap, tail = (part.translate(table) for part in (fact.head, fact.gap, fact.tail))
            if suffix_comparable(head, gap) and prefix_comparable(gap, tail):
                hit = i
                break
        hits.append(hit)
    return hits


def tried(hits):
    """The factorizations a first-hit search reads: up to the first hit."""
    for k, hit in enumerate(hits):
        if hit is not None:
            return hits[:k + 1]
    return hits


def reaches_search(w):
    # Some letter has a gap factorization, and none passes with the identity.
    facts = [fact for ch in set(w) if (fact := gap_factorization(w, ch)) is not None]
    return bool(facts) and not any(
        suffix_comparable(f.head, f.gap) and prefix_comparable(f.gap, f.tail) for f in facts)


class TestEnumerationOracle:
    def test_canonical_is_the_oracle_subsequence(self):
        rng = random.Random(6002)
        for size, max_image_len, codomain_size in (*shapes(), *WIDE_SHAPES):
            domain, codomain = random_alphabets(rng, size, codomain_size)
            expected = list(canonical_product(domain, codomain, max_image_len))
            got = list(_injective_images(size, codomain, max_image_len))
            assert got == expected, (domain, codomain, max_image_len)

    def test_empty_domain_has_one_tuple(self):
        assert list(_injective_images(0, "01", 2)) == [()]


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
            expected = classify_oracle(w, max_image_len=max_image_len, target=target)
            got = classify_general(w, max_image_len=max_image_len, target=target)
            assert got == expected, w
            tags.add(got.tag)
        assert {INFINITE, UNKNOWN} <= tags

    def test_classify_records_with_several_factorizations(self):
        # One read of the space tests every factorization, and the verdict
        # keeps the first hit of the earliest one that has a hit, also where
        # a later factorization hits earlier in the space.
        rng = random.Random(6005)
        cases = []
        for letters, max_image_lens in (("abc", (1, 2, 3)), ("abcd", (1, 2, 3)), ("abcde", (1, 2))):
            cases += [(several_factorizations(rng, letters), rng.choice(max_image_lens)) for _ in range(30)]
        for letters in ("abc", "abcd"):
            later = []
            while len(later) < 6:
                w = several_factorizations(rng, letters)
                hits = oracle_hits(w, oracle_space(len(letters) - 1, 3, 2))
                first = next((k for k, hit in enumerate(hits) if hit is not None), len(hits))
                if any(hit is not None and hit < hits[first] for hit in hits[first + 1:]):
                    later.append((w, 3))
            cases += later
        tags = set()
        for w, max_image_len in cases:
            for target in (None, rng.randint(1, 6)):
                expected = classify_oracle(w, max_image_len=max_image_len, target=target)
                got = classify_general(w, max_image_len=max_image_len, target=target)
                assert got == expected, (w, max_image_len, target)
                tags.add(got.tag)
        assert {INFINITE, UNKNOWN} <= tags

    def test_classify_records_where_the_windows_trim(self):
        # Each image has 1 to L letters, so classify compares only windows
        # of head, gap and tail.  These words make each window trim: a gap
        # longer than L times the head or the tail, and a head longer than
        # L times the gap.
        rng = random.Random(6006)

        def part(length):
            return "".join(rng.choice("abc") for _ in range(length))

        trims, tags = set(), set()
        for i in range(150):
            max_image_len = rng.randint(1, 3)
            kind = ("gap", "head", "both")[i % 3]
            if kind == "head":
                gap = part(rng.randint(1, 2))
                head, tail = part(max_image_len * len(gap) + rng.randint(1, 4)), part(rng.randint(0, 3))
            else:
                head, tail = part(rng.randint(0, 2)), part(rng.randint(0, 2))
                longer = max(len(head), len(tail)) if kind == "gap" else len(head) + len(tail)
                gap = part(max_image_len * longer + rng.randint(1, 4))
            w = head + ("d" + gap) * rng.randint(1, 2) + "d" + tail
            h, g, t = (max_image_len * len(p) for p in (head, gap, tail))
            trims |= {name for name, holds in (("gap end", len(gap) > h), ("gap start", len(gap) > t),
                                               ("gap middle", len(gap) > h + t), ("head", len(head) > g)) if holds}
            target = rng.choice([None, rng.randint(1, 6)])
            expected = classify_oracle(w, max_image_len=max_image_len, target=target)
            got = classify_general(w, max_image_len=max_image_len, target=target)
            assert got == expected, (w, max_image_len, target)
            tags.add(got.tag)
        assert trims == {"gap end", "gap start", "gap middle", "head"}
        assert {INFINITE, UNKNOWN} <= tags


class TestSearchWork:
    def count_calls(self, monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counting(images):
            calls.append(tuple(images))
            return real(images)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_prefix_free_or_suffix_free_tuples_never_reach_sardinas_patterson(self, monkeypatch):
        calls = self.count_calls(monkeypatch, morphisms_module, "is_code")
        for _ in _injective_images(3, "012", 3):
            pass
        assert calls
        for images in calls:
            assert any(x != y and x.startswith(y) for x in images for y in images), images
            assert any(x != y and x.endswith(y) for x in images for y in images), images

    def test_pruned_canonical_search_against_product(self, monkeypatch):
        codomain = digits[:3]
        calls = self.count_calls(monkeypatch, morphisms_module, "is_code")
        searched = sum(1 for _ in _injective_images(3, codomain, 3))
        assert searched == 8_638
        assert len(calls) <= 2_000

        oracle_calls = self.count_calls(monkeypatch, search_oracles, "sardinas_patterson")
        enumerated = sum(1 for _ in injective_product("abc", codomain, 3))
        assert enumerated == 51_828
        assert len(oracle_calls) == 54_834

    def test_searches_past_the_mcmillan_weight_end_at_once(self, monkeypatch):
        # Nine images of at most 3 letters over 2 weigh at least 9 > 2^3 in
        # McMillan's sum, and two images over 1 letter at least 2 > 1^5, so
        # no code exists and no branch is tried.
        def failing(images):
            raise AssertionError(f"is_code{images}")

        monkeypatch.setattr(morphisms_module, "is_code", failing)
        assert list(_injective_images(9, "01", 3)) == []
        assert list(_injective_images(2, "0", 5)) == []

    @pytest.mark.parametrize("max_image_len", [2, 3])
    def test_classify_reads_one_space_once(self, monkeypatch, max_image_len):
        # Four letters factor ecabdeabccdc and none is certified, so every
        # factorization is tested on the whole space, which the memo may not
        # hold.
        started = []
        real = mapped_exponent_module._injective_images

        def counting(*args):
            started.append(args)
            yield from real(*args)

        monkeypatch.setattr(mapped_exponent_module, "_injective_images", counting)
        monkeypatch.setattr(mapped_exponent_module, "MAX_CACHED_TUPLES", 0)
        assert classify_general("ecabdeabccdc", max_image_len).tag == UNKNOWN
        assert started == [(4, "01", max_image_len)]


def run_bounded(code):
    """Run code in a fresh interpreter and return its stdout; a call that
    hangs fails the test after 20 s instead of stalling the suite."""
    src = str(Path(morphisms_module.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestSearchLimits:
    def test_a_search_at_the_candidate_limit_runs_and_one_past_it_raises(self, monkeypatch):
        # Two letters up to length 3 make 2 + 4 + 8 = 14 candidate images.
        monkeypatch.setattr(morphisms_module, "MAX_SEARCH_CANDIDATES", 14)
        assert list(_injective_images(2, "01", 3)) == list(canonical_product("ab", "01", 3))
        with pytest.raises(WordError, match="more than the limit of 14 candidate images"):
            next(_injective_images(2, "01", 4))
        monkeypatch.setattr(morphisms_module, "MAX_SEARCH_CANDIDATES", 13)
        with pytest.raises(WordError, match="more than the limit of 13 candidate images"):
            next(_injective_images(2, "01", 3))

    def test_an_empty_codomain_is_refused_at_once(self):
        code = (
            "from morphexp import WordError, mapped_exponent_lower_bound\n"
            "try:\n"
            "    mapped_exponent_lower_bound('bcacabb', 10**9, codomain_size=0)\n"
            "except WordError as exc:\n"
            "    print(exc)\n"
        )
        assert run_bounded(code) == "bounds must be >= 1\n"

    def test_an_empty_codomain_has_no_injective_tuple(self):
        code = (
            "from morphexp.morphisms import _injective_images, words_up_to\n"
            "print(list(_injective_images(2, '', 10**9)), words_up_to('', 10**9))\n"
        )
        assert run_bounded(code) == "[] []\n"
        assert list(_injective_images(0, "", 10**9)) == [()]

    def test_a_search_at_the_candidate_limit_runs_in_little_memory(self):
        # 32,766 candidate images, and the only tuple is one image.  The
        # peak is read in kilobytes from VmHWM, which starts afresh at exec;
        # Linux's ru_maxrss, the fallback where /proc is missing, also
        # counts the pytest process that spawned the child.
        code = (
            "import resource\n"
            "from morphexp.cli import run\n"
            "run(['lower-bound', 'aaaa', '--max-image-len', '14'])\n"
            "try:\n"
            "    with open('/proc/self/status') as status:\n"
            "        peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
            "except OSError:\n"
            "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(peak)\n"
        )
        line, peak_kb = run_bounded(code).splitlines()
        assert line == "best E = 56 via a=00000000000000"
        assert int(peak_kb) < 100 * 1024


class TestStepLimit:
    def test_steps_count_candidates_and_code_test_bounds(self, monkeypatch):
        cases = [
            # One branch, one row of the 1 + 2 + 4 candidates that start
            # with 0.
            ((1, "01", 3), 7),
            # The root row of 0 alone and a row of 0 and 1 below it.
            ((2, "01", 1), 3),
            # The root row of 0, 00 and 01 and a row of all 6 candidates
            # below each, plus one code test on each of {0, 00} and {00, 0},
            # charged 2 steps for each of its 2 images and each of their 3
            # letters.
            ((2, "01", 2), 3 + 3 * 6 + 2 * 2 * (2 + 3)),
        ]
        for (size, codomain, max_image_len), steps in cases:
            expected = list(canonical_product("abc"[:size], codomain, max_image_len))
            monkeypatch.setattr(morphisms_module, "MAX_SEARCH_STEPS", steps)
            assert list(_injective_images(size, codomain, max_image_len)) == expected
            monkeypatch.setattr(morphisms_module, "MAX_SEARCH_STEPS", steps - 1)
            with pytest.raises(WordError, match=f"more than the limit of {steps - 1} steps"):
                list(_injective_images(size, codomain, max_image_len))

    @pytest.mark.parametrize("argv", [
        ["lower-bound", "abcdefgh", "--max-image-len", "4", "--codomain", "3"],
        ["classify", "bfedfcdadhfcgfghbeae", "--max-image-len", "4"],
    ])
    def test_searches_that_ran_for_minutes_exit_1_within_5_s(self, argv, capsys):
        started = time.perf_counter()
        assert run(argv) == 1
        elapsed = time.perf_counter() - started
        limit = morphisms_module.MAX_SEARCH_STEPS
        assert capsys.readouterr() == ("", f"error: the search took more than the limit of {limit} steps\n")
        assert elapsed < 5, elapsed

    def test_the_largest_binary_search_at_length_3_fits(self, capsys):
        # Seven letters beside the factored one, all of the space searched.
        assert run(["classify", "bfedfcdadhfcgfghbeae"]) == 0
        assert capsys.readouterr().out == "tag: unknown\nsearch bound: 3\n"

    def test_a_search_stops_at_the_limit(self, monkeypatch):
        monkeypatch.setattr(morphisms_module, "MAX_SEARCH_STEPS", 1_000)
        got = []
        with pytest.raises(WordError, match="the search took more than the limit"):
            got.extend(_injective_images(3, "01", 3))
        assert got and got == oracle_space(3, 3, 2)[:len(got)]

    def test_a_search_stopped_at_the_limit_stores_nothing(self, monkeypatch):
        monkeypatch.setattr(morphisms_module, "MAX_SEARCH_STEPS", 1_000)
        with pytest.raises(WordError, match="more than the limit of 1000 steps"):
            list(memo_space(3, 3, 2))
        assert not _spaces

    def test_the_outcome_does_not_depend_on_the_memo(self):
        # Words whose searches read the space (3, "01", 3): lower bounds read
        # all of it, classifications up to their first hit.
        rng = random.Random(6301)
        queries = [partial(mapped_exponent_lower_bound, random_word(rng, "abc", 6), 3) for _ in range(2)]
        queries += [partial(classify_general, searching_word(rng, "abcd"), 3) for _ in range(6)]
        queries += [partial(classify_general, several_factorizations(rng, "abcd"), 3) for _ in range(6)]
        for query in queries:
            _spaces.clear()
            cold = query()
            list(memo_space(3, 3, 2))
            assert query() == cold

    def test_scoring_is_charged_the_letters_of_each_image(self, monkeypatch):
        # One tuple, a=0 and b=1, scored on its 100-letter image.
        w = "ab" * 50
        monkeypatch.setattr(morphisms_module, "MAX_SEARCH_STEPS", 100)
        assert mapped_exponent_lower_bound(w, 1)[0] == 50
        monkeypatch.setattr(morphisms_module, "MAX_SEARCH_STEPS", 99)
        with pytest.raises(WordError, match="more than the limit of 99 steps"):
            mapped_exponent_lower_bound(w, 1)

    def test_classify_is_charged_the_letters_of_each_test(self, monkeypatch):
        # Only d factors each word, and no tuple certifies it: the head ends
        # in h(a) h(b) and the gap in h(b) h(a), which are not suffix-
        # comparable for a code.  Each of the 24 tuples of (3, "01", 2) is
        # charged the letters of the windows that L = 2 leaves of head, gap
        # and tail, never more than all of them.  The space is read into the
        # memo first, so that its replay takes no steps.
        cases = [
            # The last 4 gap letters against the head, the first 4 against
            # the tail.
            ("ab", "ccba" * 6, "ca", 2 + 4 + 4 + 2),
            # The two gap windows cover the gap, which is read once.
            ("ab", "ccba", "ca", 2 + 4 + 2),
            # The last 4 head letters against the 2-letter gap.
            ("c" * 10 + "ab", "ba", "ca", 4 + 2 + 2),
        ]
        assert len(list(memo_space(3, 2, 2))) == 24
        for head, gap, tail, charge in cases:
            w = head + ("d" + gap) * 2 + "d" + tail
            assert [ch for ch in "abcd" if gap_factorization(w, ch)] == ["d"]
            assert charge <= len(head) + len(gap) + len(tail)
            monkeypatch.setattr(morphisms_module, "MAX_SEARCH_STEPS", 24 * charge)
            assert classify_general(w, 2).tag == UNKNOWN
            monkeypatch.setattr(morphisms_module, "MAX_SEARCH_STEPS", 24 * charge - 1)
            with pytest.raises(WordError, match=f"more than the limit of {24 * charge - 1} steps"):
                classify_general(w, 2)

    @pytest.mark.parametrize("length, max_image_len", [(8011, 4), (80011, 4), (2011, 5), (8011, 5)])
    def test_classifying_a_long_gap_answers_within_1_s(self, length, max_image_len, capsys):
        # No tuple certifies the word, but each test reads only L letters of
        # the gap per letter of the head and of the tail; these exited 1 at
        # the step limit while every test read the whole gap.
        rng = random.Random(20003)
        gap = "".join(rng.choice("abc") for _ in range((length - 7) // 2 - 2)) + "ba"
        w = "ab" + ("d" + gap) * 2 + "d" + "ca"
        assert len(w) == length
        started = time.perf_counter()
        assert run(["classify", w, "--max-image-len", str(max_image_len)]) == 0
        elapsed = time.perf_counter() - started
        assert capsys.readouterr() == (f"tag: unknown\nsearch bound: {max_image_len}\n", "")
        assert elapsed < 1, elapsed

    def test_a_long_head_and_gap_exit_1_within_5_s(self, capsys):
        # Head and gap are each within L times the other's length, so each
        # of the 10,344 tuples is tested on about 6,000 letters.
        rng = random.Random(20004)
        head = "".join(rng.choice("abc") for _ in range(3004)) + "ab"
        gap = "".join(rng.choice("abc") for _ in range(2998)) + "ba"
        w = head + ("d" + gap) * 2 + "d" + "ca"
        assert len(w) == 9011
        started = time.perf_counter()
        assert run(["classify", w, "--max-image-len", "4"]) == 1
        elapsed = time.perf_counter() - started
        limit = morphisms_module.MAX_SEARCH_STEPS
        assert capsys.readouterr() == ("", f"error: the search took more than the limit of {limit} steps\n")
        assert elapsed < 5, elapsed

    def test_scoring_a_long_word_exits_1_within_10_s(self, capsys):
        # The 10,344 tuples over two digits, each to be scored on an image
        # of about 67,000 letters, would take minutes.
        rng = random.Random(20002)
        w = "".join(rng.choice("abc") for _ in range(20000))
        started = time.perf_counter()
        assert run(["lower-bound", w, "--max-image-len", "4"]) == 1
        elapsed = time.perf_counter() - started
        limit = morphisms_module.MAX_SEARCH_STEPS
        assert capsys.readouterr() == ("", f"error: the search took more than the limit of {limit} steps\n")
        assert elapsed < 10, elapsed

    def test_a_periodic_word_is_charged_every_tuple(self, capsys):
        # The find pretest rejects nearly every one of the 10,344 tuples,
        # each of which is still translated to about 130,000 letters.
        started = time.perf_counter()
        assert run(["lower-bound", "abc" * 13333 + "a", "--max-image-len", "4"]) == 1
        elapsed = time.perf_counter() - started
        limit = morphisms_module.MAX_SEARCH_STEPS
        assert capsys.readouterr() == ("", f"error: the search took more than the limit of {limit} steps\n")
        assert elapsed < 5, elapsed


def oracle_exponent(w):
    return Fraction(len(w), brute_smallest_period(w))


class TestCodedWords:
    """The searches code a word's letters as their indices in its alphabet.
    Words over the codomain's own digits, and over the code points below
    the alphabet size, must come out as over any other letters."""

    ALPHABETS = ("01", "012", "210", "\x00\x01", "\x00\x01\x02", "\x02\x00\x01", "a\x01\x00")

    def words(self, rng):
        out = ["0110", "0120", "1001", "2101", "\x00\x01\x01\x00", "\x01\x00\x02\x00\x01"]
        for letters in self.ALPHABETS:
            out += [random_word(rng, letters, rng.randint(len(letters), 7)) for _ in range(4)]
        return out

    def test_lower_bound(self):
        rng = random.Random(2311)
        for w in self.words(rng):
            for max_image_len, codomain_size in ((1, 2), (2, 2), (2, 3), (3, 2)):
                expected = lower_bound_oracle(w, max_image_len, codomain_size)
                if expected is None:
                    with pytest.raises(WordError, match="no injective morphism"):
                        mapped_exponent_lower_bound(w, max_image_len, codomain_size)
                    continue
                best, argmax = expected
                got_best, got_argmax = mapped_exponent_lower_bound(w, max_image_len, codomain_size)
                assert (got_best, got_argmax.to_text()) == (best, argmax.to_text()), (w, max_image_len)
                assert got_best == oracle_exponent(got_argmax.apply(w))

    def test_classify_and_witness(self):
        rng = random.Random(2312)
        three = [letters for letters in self.ALPHABETS if len(letters) == 3]
        words = self.words(rng) + [searching_word(rng, letters) for letters in three for _ in range(6)]
        tags = set()
        for w in words:
            for target in (None, Fraction(rng.randint(1, 30), rng.randint(1, 4))):
                max_image_len = rng.randint(1, 3)
                if target is not None and target < 1:
                    with pytest.raises(WordError, match="target exponent must be >= 1"):
                        classify_general(w, max_image_len=max_image_len, target=target)
                    continue
                verdict = classify_general(w, max_image_len=max_image_len, target=target)
                expected = classify_oracle(w, max_image_len=max_image_len, target=target)
                assert verdict == expected, w
                tags.add(verdict.tag)
                if verdict.witness is not None:
                    h, achieved = verdict.witness
                    assert achieved == oracle_exponent(h.apply(w)) >= (2 * len(w) if target is None else target)
        assert {INFINITE, UNKNOWN} <= tags

    @pytest.mark.parametrize("argv", [
        ["lower-bound", "0110", "--max-image-len", "2"],
        ["lower-bound", "2101", "--max-image-len", "2", "--codomain", "3"],
        ["classify", "101021210", "--max-image-len", "2"],
        ["witness", "101021210", "--target", "7/2", "--max-image-len", "2"],
    ])
    def test_digit_words_on_the_cli(self, argv, capsys):
        assert run([*argv, "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        w = argv[1]
        max_image_len = int(argv[argv.index("--max-image-len") + 1]) if "--max-image-len" in argv else 3
        if argv[0] == "lower-bound":
            best, argmax = lower_bound_oracle(w, max_image_len, record["codomain_size"])
            assert (record["best_exponent"], record["argmax_morphism"]) == (str(best), argmax.to_text())
            return
        target = Fraction(argv[argv.index("--target") + 1]) if "--target" in argv else None
        h = parse_morphism(record["witness_morphism"])
        achieved = Fraction(record["achieved_exponent"])
        verdict = MappedExponentVerdict(record["tag"], (h, achieved), record["search_bound"])
        assert verdict == classify_oracle(w, max_image_len=max_image_len, target=target)
        assert record["tag"] == INFINITE
        assert achieved == oracle_exponent(h.apply(w))

    def test_family_exponents(self, capsys):
        argvs = [["lowpower", "--n", str(n), "--k", str(k)] for n in range(2, 10) for k in range(5)]
        argvs += [["highpower", "--n", str(n)] for n in range(2, 8)]
        for argv in argvs:
            assert run(["family", *argv, "--format", "json"]) == 0
            record = json.loads(capsys.readouterr().out)
            image = parse_morphism(record["morphism"]).apply(record["word"])
            assert record["computed_exponent"] == record["expected_exponent"] == str(oracle_exponent(image)), argv
            assert record["verified"] is True

    def test_exponents_of_images_past_100000_letters(self, capsys):
        # The pumped letter's image holds the one letter that no other image
        # holds, once per period, so the distance between its first two
        # occurrences is the smallest period of the witness image.
        rng = random.Random(2313)
        argvs = [["classify", "ab" * 1117 + "a"]]
        while len(argvs) < 7:
            head, gap, tail = ("".join(rng.choice("ab") for _ in range(rng.randint(0, 3))) for _ in range(3))
            w = head + "c" + (gap + "c") * rng.randint(1, 3) + tail
            target = Fraction(rng.randint(100_000, 200_000), rng.randint(1, 2))
            if set(w) == set("abc") and classify_general(w, target=target).tag == INFINITE:
                argvs.append(["witness", w, "--target", str(target)])
        for argv in argvs:
            assert run([*argv, "--format", "json"]) == 0
            record = json.loads(capsys.readouterr().out)
            h = parse_morphism(record["witness_morphism"])
            image = h.apply(argv[1])
            images = h.images.values()
            (fresh,) = [ch for ch in set("".join(images)) if sum(ch in v for v in images) == 1]
            first = image.index(fresh)
            period = image.index(fresh, first + 1) - first
            assert len(image) > 100_000, argv
            assert image.startswith(image[period:]), argv
            assert Fraction(record["achieved_exponent"]) == Fraction(len(image), period), argv
        assert run(["family", "lowpower", "--n", "2", "--k", "1600000", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    @pytest.mark.parametrize("shift", [Fraction(-1, 7), Fraction(1, 7)])
    def test_a_family_mismatch_still_prints_the_image_exponent(self, shift, monkeypatch, capsys):
        # An expected exponent above or below the image's one still prints
        # the image's exact exponent, with `verified: false`.
        real = cli_module.lowpower_morphism

        def off(n, k):
            word, h, expected = real(n, k)
            return word, h, expected + shift

        monkeypatch.setattr(cli_module, "lowpower_morphism", off)
        assert run(["family", "lowpower", "--n", "5", "--k", "2", "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        image = parse_morphism(record["morphism"]).apply(record["word"])
        assert record["computed_exponent"] == str(oracle_exponent(image))
        assert Fraction(record["expected_exponent"]) == oracle_exponent(image) + shift
        assert record["verified"] is False


class TestSearchMemo:
    def interleave(self, rng, rounds, cap=None):
        """Reads iterators of random spaces, two of them sharing a space, a
        tuple at a time in random order, each up to a random length."""
        every = list(shapes())
        for _ in range(rounds):
            picked = rng.sample(every, 2)
            picked += [rng.choice(picked) for _ in range(2)]
            runs = [(shape, memo_space(*shape), rng.randint(0, len(oracle_space(*shape)) + 1), [])
                    for shape in picked]
            while runs:
                run_ = rng.choice(runs)
                shape, it, stop, got = run_
                images = next(it, None) if len(got) < stop else None
                if images is None:
                    assert got == oracle_space(*shape)[:stop], shape
                    runs.remove(run_)
                else:
                    got.append(images)
                for (size, letters, max_image_len), space in _spaces.items():
                    assert space == oracle_space(size, max_image_len, len(letters))
                if cap is not None:
                    assert held() <= cap

    def test_repeated_shapes_replay_the_space(self):
        rng = random.Random(6101)
        order = [shape for shape in shapes() for _ in range(3)]
        rng.shuffle(order)
        for shape in order:
            assert list(memo_space(*shape)) == oracle_space(*shape), shape
        assert held() == sum(len(oracle_space(*shape)) for shape in shapes())

    def test_interleaved_iterators_match_the_oracle(self):
        self.interleave(random.Random(6102), rounds=40)

    @pytest.mark.parametrize("cap", [0, 1, 40, 500])
    def test_a_full_memo_holds_no_more_than_the_cap(self, monkeypatch, cap):
        monkeypatch.setattr(mapped_exponent_module, "MAX_CACHED_TUPLES", cap)
        self.interleave(random.Random(f"6103:{cap}"), rounds=25, cap=cap)

    def test_two_open_searches_cannot_push_the_memo_past_the_cap(self, monkeypatch):
        first, second = (2, 2, 2), (3, 2, 2)
        sizes = len(oracle_space(*first)), len(oracle_space(*second))
        cap = max(sizes)
        assert 0 < min(sizes) and sum(sizes) > cap
        monkeypatch.setattr(mapped_exponent_module, "MAX_CACHED_TUPLES", cap)
        opened = [memo_space(*first), memo_space(*second)]
        # Both searches start while the memo is empty; the room left is
        # checked again when each reaches its end.
        for it in opened:
            next(it)
        for it, shape in zip(opened, (first, second)):
            assert [oracle_space(*shape)[0], *it] == oracle_space(*shape)
        assert list(_spaces) == [memo_key(*first)]
        assert held() <= cap

    def test_a_search_that_raises_leaves_the_space_whole(self, monkeypatch):
        real = morphisms_module.is_code
        calls = []

        def failing(images):
            calls.append(images)
            if len(calls) == 5:
                raise RuntimeError("interrupted")
            return real(images)

        monkeypatch.setattr(morphisms_module, "is_code", failing)
        with pytest.raises(RuntimeError, match="interrupted"):
            list(memo_space(3, 3, 2))
        assert not _spaces
        assert list(memo_space(3, 3, 2)) == oracle_space(3, 3, 2)
        assert _spaces[memo_key(3, 3, 2)] == oracle_space(3, 3, 2)

    def test_first_hit_then_full_search_on_one_space(self):
        # classify searches over two digits, so each shape is read there.
        rng = random.Random(6104)
        stopped = 0
        for size, max_image_len, _ in shapes():
            shape = size, max_image_len, 2
            if size == 1:
                continue  # over two letters the identity step decides
            for _ in range(2):
                _spaces.clear()
                w = searching_word(rng, "abcde"[:size + 1])
                target = rng.randint(1, 6)
                expected = classify_oracle(w, max_image_len=max_image_len, target=target)
                got = classify_general(w, max_image_len=max_image_len, target=target)
                assert got == expected, w
                if None in tried(oracle_hits(w, oracle_space(*shape))):
                    assert _spaces[memo_key(*shape)] == oracle_space(*shape), w
                else:
                    assert memo_key(*shape) not in _spaces, w
                    stopped += 1

            v = random_word(rng, "abcd"[:size], rng.randint(size, 6))
            expected_bound = lower_bound_oracle(v, max_image_len)
            if expected_bound is None:
                with pytest.raises(WordError, match="no injective morphism"):
                    mapped_exponent_lower_bound(v, max_image_len)
            else:
                best, argmax = mapped_exponent_lower_bound(v, max_image_len)
                assert (best, argmax.to_text()) == (expected_bound[0], expected_bound[1].to_text()), v
            assert _spaces[memo_key(*shape)] == oracle_space(*shape)
            assert classify_general(w, max_image_len=max_image_len, target=target) == expected, w
        assert stopped >= 5

    def count_visits(self, monkeypatch):
        visits = []
        real = mapped_exponent_module._injective_images

        def counting(*args):
            for images in real(*args):
                visits.append(images)
                yield images

        monkeypatch.setattr(mapped_exponent_module, "_injective_images", counting)
        return visits

    def test_a_first_search_visits_no_more_tuples_than_its_own_enumeration(self, monkeypatch):
        visits = self.count_visits(monkeypatch)
        rng = random.Random(6105)
        fewer = 0
        for size, max_image_len, codomain_size in shapes():
            if size == 1:
                continue
            w = searching_word(rng, "abcde"[:size + 1])
            # One enumeration per factorization, up to the first witness,
            # over the two digits classify searches.
            space = oracle_space(size, max_image_len, 2)
            own = sum(len(space) if hit is None else hit + 1 for hit in tried(oracle_hits(w, space)))
            _spaces.clear()
            visits.clear()
            classify_general(w, max_image_len=max_image_len)
            assert len(visits) <= own, (w, max_image_len)
            fewer += len(visits) < own

            v = random_word(rng, "abcd"[:size], size + 2)
            _spaces.clear()
            visits.clear()
            try:
                mapped_exponent_lower_bound(v, max_image_len, codomain_size)
            except WordError:
                pass
            assert len(visits) == len(oracle_space(size, max_image_len, codomain_size))
            visits.clear()
            try:
                mapped_exponent_lower_bound(v, max_image_len, codomain_size)
            except WordError:
                pass
            assert not visits
        assert fewer


class TestScoring:
    def test_lower_bound_keeps_the_first_maximizer_among_ties(self):
        rng = random.Random(6201)
        ties = 0
        for size, max_image_len, codomain_size in shapes():
            if len(oracle_space(size, max_image_len, codomain_size)) > 1_000:
                continue
            for _ in range(10):
                w = random_word(rng, "abcd"[:size], rng.randint(size, 8))
                expected = lower_bound_oracle(w, max_image_len, codomain_size)
                if expected is None:
                    continue
                best, argmax = mapped_exponent_lower_bound(w, max_image_len, codomain_size)
                assert (best, argmax.to_text()) == (expected[0], expected[1].to_text()), (w, max_image_len)
                exponents = [fractional_exponent(w.translate(str.maketrans(dict(zip("abcd", images))))).exponent
                             for images in oracle_space(size, max_image_len, codomain_size)]
                ties += exponents.count(best) > 1
        assert ties >= 20

    def test_only_tuples_that_can_beat_the_best_are_scored(self, monkeypatch):
        scored = []
        real = mapped_exponent_module._period_at_most

        def counting(w, bound):
            scored.append(w)
            return real(w, bound)

        monkeypatch.setattr(mapped_exponent_module, "_period_at_most", counting)
        rng = random.Random(6202)
        enumerated = 0
        for size, max_image_len, codomain_size in BENCH_SHAPES:
            for _ in range(20):
                w = random_word(rng, "abc"[:size], 6)
                mapped_exponent_lower_bound(w, max_image_len, codomain_size)
                enumerated += len(oracle_space(size, max_image_len, codomain_size))
        assert 5 * len(scored) < enumerated

    # (domain size, max image length, codomain size) for the differential
    # below: codomains of one to ten letters, so masks of zero to four bit
    # planes per slot, each with a product small enough for the oracle.
    DIFFERENTIAL_SHAPES = ((1, 3, 1), (2, 3, 1), (3, 2, 1), (2, 2, 3), (3, 2, 3), (2, 3, 3),
                           (2, 1, 4), (3, 1, 4), (2, 2, 4), (1, 2, 10), (2, 1, 10), (3, 1, 10))

    # Words whose maximizers lie in groups of different image lengths, where
    # the group scored first does not hold the first maximizer (found among
    # 40,000 random words of up to ten letters).
    TIES_ACROSS_GROUPS = (("bbabaaa", 3, 2), ("bbabaaa", 3, 3), ("caacbab", 3, 2))

    def differential_words(self, rng, letters):
        """Random, periodic and near-periodic words over exactly these
        letters, of up to about 60 letters."""
        words = [random_word(rng, letters, rng.randint(len(letters), 12)) for _ in range(3)]
        while len(words) < 9:
            root = random_word(rng, letters, rng.randint(len(letters), 4))
            w = (root * 60)[:rng.randint(len(root), 60)]
            if len(words) % 2:
                j = rng.randrange(len(w))
                w = w[:j] + rng.choice(letters) + w[j + 1:]
            if set(w) == set(letters):
                words.append(w)
        return words

    @pytest.mark.parametrize("pairs_per_letter, window", [
        (0, None),        # every group one tuple at a time
        (None, None),     # the measured rule
        (10**9, None),    # every group bit-sliced
        (10**9, 1),       # bit-sliced on one slot pair, so most windows pass
    ])
    def test_sliced_scoring_against_the_oracle(self, monkeypatch, pairs_per_letter, window):
        if pairs_per_letter is not None:
            monkeypatch.setattr(mapped_exponent_module, "_PAIRS_PER_LETTER", pairs_per_letter)
        if window is not None:
            monkeypatch.setattr(mapped_exponent_module, "_WINDOW", window)
        rng = random.Random(6204)
        cases = [(w, max_image_len, codomain_size)
                 for size, max_image_len, codomain_size in self.DIFFERENTIAL_SHAPES
                 for w in self.differential_words(rng, "abc"[:size])]
        refused = 0
        for w, max_image_len, codomain_size in cases + list(self.TIES_ACROSS_GROUPS):
            expected = lower_bound_oracle(w, max_image_len, codomain_size)
            if expected is None:
                with pytest.raises(WordError, match="no injective morphism exists within the given bounds"):
                    mapped_exponent_lower_bound(w, max_image_len, codomain_size)
                refused += 1
                continue
            best, argmax = mapped_exponent_lower_bound(w, max_image_len, codomain_size)
            assert (best, argmax.to_text()) == (expected[0], expected[1].to_text()), (w, max_image_len)
        assert refused >= 10
        for w, max_image_len, codomain_size in self.TIES_ACROSS_GROUPS:
            space = oracle_space(len(set(w)), max_image_len, codomain_size)
            assert self.tie_across_groups(w, space, lower_bound_oracle(w, max_image_len, codomain_size)[0])

    @pytest.mark.parametrize("setup", ["cap 0", "cap below the space", "no room beside another space"])
    def test_spaces_the_memo_does_not_take_are_grouped_as_they_stream(self, monkeypatch, setup):
        rng = random.Random(6205)
        cases = [(w, max_image_len, codomain_size) for size, max_image_len, codomain_size in ((2, 2, 3), (3, 3, 2))
                 for w in self.differential_words(rng, "abc"[:size])]
        # Answers with the default cap, which stores each space and groups it once.
        expected = []
        for w, max_image_len, codomain_size in cases:
            best, argmax = mapped_exponent_lower_bound(w, max_image_len, codomain_size)
            oracle = lower_bound_oracle(w, max_image_len, codomain_size)
            assert (best, argmax.to_text()) == (oracle[0], oracle[1].to_text()), (w, max_image_len)
            expected.append((best, argmax.to_text()))
        chunks = []
        real = mapped_exponent_module._length_groups

        def counting(chunk, start, codomain):
            if chunk:
                chunks.append(len(chunk))
            return real(chunk, start, codomain)

        monkeypatch.setattr(mapped_exponent_module, "_length_groups", counting)
        for (w, max_image_len, codomain_size), want in zip(cases, expected):
            tuples = len(oracle_space(len(set(w)), max_image_len, codomain_size))
            _spaces.clear()
            if setup == "cap 0":
                cap = 0
            elif setup == "cap below the space":
                cap = tuples // 3
            else:
                list(memo_space(1, 2, 2))
                assert _spaces
                cap = held() + tuples - 1
            monkeypatch.setattr(mapped_exponent_module, "MAX_CACHED_TUPLES", cap)
            before = dict(_spaces)
            chunks.clear()
            best, argmax = mapped_exponent_lower_bound(w, max_image_len, codomain_size)
            assert (best, argmax.to_text()) == want, (setup, w, max_image_len)
            assert _spaces == before
            assert sum(chunks) == tuples and len(chunks) == -(-tuples // (cap + 1)), (setup, chunks)

    @staticmethod
    def tie_across_groups(w, space, best):
        """Whether the maximizers of w over the space lie in groups of
        different image lengths n, and the first of them in search order is
        not in the group whose first tuple comes first: the groups are
        scored in that order, so a later group takes the tie."""
        groups = {}
        for index, images in enumerate(space):
            image = w.translate(str.maketrans(dict(zip("abc", images))))
            if fractional_exponent(image).exponent == best:
                groups.setdefault(tuple(map(len, images)), []).append((index, len(image)))
        if len({hits[0][1] for hits in groups.values()}) < 2:
            return False
        order = {lengths: i for i, lengths in enumerate(dict.fromkeys(tuple(map(len, t)) for t in space))}
        first_scored = min(groups, key=order.get)
        return min(groups.values())[0][0] != groups[first_scored][0][0]

    def test_bench_shapes_are_scored_on_masks(self, monkeypatch):
        # A mask step tries one period on one group of tuples; one tuple at a
        # time, each image would be built, and the pretest of 1 in 16-25 of
        # them would pass to the period check.
        steps, checked = [], []
        real_accumulate, real_period = mapped_exponent_module.accumulate, mapped_exponent_module._period_at_most

        def counting_accumulate(*args, **kwargs):
            steps.append(1)
            return real_accumulate(*args, **kwargs)

        def counting_period(w, bound):
            checked.append(w)
            return real_period(w, bound)

        monkeypatch.setattr(mapped_exponent_module, "accumulate", counting_accumulate)
        monkeypatch.setattr(mapped_exponent_module, "_period_at_most", counting_period)
        rng = random.Random(6203)
        enumerated = 0
        for size, max_image_len, codomain_size in BENCH_SHAPES:
            tuples = len(oracle_space(size, max_image_len, codomain_size))
            steps.clear()
            for _ in range(20):
                mapped_exponent_lower_bound(random_word(rng, "abc"[:size], 6), max_image_len, codomain_size)
            assert 0 < len(steps) < 20 * tuples, (size, max_image_len, codomain_size)
            enumerated += 20 * tuples
        assert 30 * len(checked) < enumerated

    @pytest.mark.parametrize("w, max_image_len, out, seconds", [
        ("ab" * 2000 + "b", 3, "best E = 10003/5 via a=01,b=010\n", 1),
        ("a" * 3000 + "b", 3, "best E = 6003/2 via a=01,b=010\n", 1),
        ("abc" * 300 + "a", 3, "best E = 2403/4 via a=000,b=10,c=001\n", 1),
        (seeded_word(20005, "abc", 500), 4, "best E = 1172/1163 via a=0111,b=11,c=0\n", 3),
        # Every tuple is scored one at a time, and nearly all fail the
        # bounded period check.
        ("a" * 300 + "bcbc", 4, "best E = 912/899 via a=010,b=1001,c=00\n", 3),
    ], ids=["(ab)^2000 b", "a^3000 b", "(abc)^300 a", "random 500", "a^300 bcbc"])
    def test_long_words_answer_within_bounds(self, w, max_image_len, out, seconds, capsys):
        # Recorded before groups were scored bit-sliced.  On long periodic
        # runs every window passes, so these groups are scored one tuple at
        # a time; a bit-sliced pass over (ab)^2000 b took 1.8 s.
        started = time.perf_counter()
        assert run(["lower-bound", w, "--max-image-len", str(max_image_len)]) == 0
        elapsed = time.perf_counter() - started
        assert capsys.readouterr() == (out, "")
        assert elapsed < seconds, elapsed

    def test_long_words_at_image_length_one(self, capsys):
        # Recorded before scoring skipped tuples that cannot beat the best.
        rng = random.Random(20000)
        u = "".join(rng.choice("ab") for _ in range(7001))
        assert run(["lower-bound", (u * 3)[:20000], "--max-image-len", "1"]) == 0
        assert capsys.readouterr().out == "best E = 20000/7001 via a=0,b=1\n"
        rng = random.Random(20001)
        w = "".join(rng.choice("abc") for _ in range(20000))
        assert run(["lower-bound", w, "--max-image-len", "1", "--codomain", "3"]) == 0
        assert capsys.readouterr().out == "best E = 1 via a=0,b=1,c=2\n"
