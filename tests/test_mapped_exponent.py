import json
import random
from fractions import Fraction
from math import ceil

import pytest

import morphexp.mapped_exponent as mapped_exponent

from morphexp.cli import run
from morphexp.codes import CodeSet, is_synchronizing, x_degree
from morphexp.mapped_exponent import (
    FINITE,
    INFINITE,
    UNKNOWN,
    classify_general,
    gap_factorization,
    highpower_word,
    lowpower_morphism,
    mapped_exponent_lower_bound,
    pump_witness,
)
from morphexp.morphisms import Morphism, is_code
from morphexp.words import WordError, fractional_exponent, fresh_letters, minimal_period_profile
from search_oracles import compose, injective_product


def morphisms(domain, codomain, max_image_len):
    for images in injective_product(domain, codomain, max_image_len):
        yield Morphism(dict(zip(domain, images)))


def identity(letters):
    return Morphism({ch: ch for ch in letters})


def injective(h):
    return is_code(list(h.images.values()))


def all_words(alphabet, max_len):
    layer = [""]
    for _ in range(max_len):
        layer = [w + ch for w in layer for ch in alphabet]
        yield from layer


class TestGapFactorization:
    def test_examples(self):
        fact = gap_factorization("bbccabcbca", "a")
        assert (str(fact.head), str(fact.gap), str(fact.tail), fact.gap_count) == ("bbcc", "bcbc", "", 1)
        fact = gap_factorization("abab", "a")
        assert (str(fact.head), str(fact.gap), str(fact.tail), fact.gap_count) == ("", "b", "b", 1)
        assert gap_factorization("aabba", "a") is None

    def test_absent_letter(self):
        assert gap_factorization("bbb", "a") is None

    def test_single_occurrence_convention(self):
        fact = gap_factorization("bcab", "a")
        assert (str(fact.head), str(fact.gap), str(fact.tail), fact.gap_count) == ("bc", "", "b", 0)

    def test_rebuild_round_trip(self):
        rng = random.Random(30)
        for _ in range(300):
            w = "".join(rng.choice("abc") for _ in range(rng.randint(1, 10)))
            for letter in "abc":
                fact = gap_factorization(w, letter)
                if fact is not None:
                    assert fact.rebuild() == w
                    for part in (fact.head, fact.gap, fact.tail):
                        assert letter not in str(part)


class TestClassifyBinary:
    def test_examples(self):
        assert classify_general("abab").tag == INFINITE
        assert classify_general("abababba").tag == FINITE
        assert classify_general("aaa").tag == INFINITE

    def test_never_unknown_and_witness_present(self):
        for w in all_words("ab", 7):
            verdict = classify_general(w, target=1)
            assert verdict.tag in (INFINITE, FINITE)
            if verdict.tag == INFINITE:
                assert verdict.witness is not None

    def test_default_target_doubles_length(self):
        verdict = classify_general("abab")
        assert verdict.witness[1] >= 8

    def test_agrees_with_general_classifier(self):
        # Over two letters the gap shape alone decides, and the witness is
        # the identity step's pump at the first letter with a factorization.
        for w in all_words("ab", 12):
            general = classify_general(w, max_image_len=1, target=1)
            facts = [(ch, f) for ch in sorted(set(w)) if (f := gap_factorization(w, ch)) is not None]
            assert general.tag == (INFINITE if facts else FINITE), w
            if facts:
                letter, fact = facts[0]
                base = identity(ch for ch in sorted(set(w)) if ch != letter)
                h, achieved = pump_witness(w, fact, base, 1)
                assert (general.witness[0].to_text(), general.witness[1]) == (h.to_text(), achieved), w


class TestClassifyGeneral:
    def test_identity_shortcut_cases(self):
        assert classify_general("abab").tag == INFINITE
        assert classify_general("abcabc").tag == INFINITE

    def test_gap_counterexample_word_is_unknown(self):
        verdict = classify_general("bbccabcbca", max_image_len=3)
        assert verdict.tag == UNKNOWN
        assert verdict.search_bound == 3

    def test_gap_counterexample_word_resists_deeper_search(self):
        # bbccabcbca factors only at 'a' (head bbcc, gap bcbc) and no image
        # assignment can make those suffix-comparable; a certificate found
        # here would be a comparability bug, not a discovery.
        verdict = classify_general("bbccabcbca", max_image_len=4)
        assert verdict.tag == UNKNOWN
        assert verdict.search_bound == 4

    def test_no_factorization_means_finite(self):
        verdict = classify_general("aababb")
        assert verdict.tag == FINITE
        assert verdict.witness is None

    def test_finite_soundness_bounded_images(self):
        # finite verdict means no bounded injective morphism exceeds |w|.
        finite_words = [w for w in all_words("ab", 7) if classify_general(w, target=1).tag == FINITE]
        assert finite_words
        pool = list(morphisms("ab", "01", 3))
        rng = random.Random(31)
        for w in rng.sample(finite_words, min(10, len(finite_words))):
            for h in pool:
                assert fractional_exponent(h.apply(w)).exponent <= len(w), (w, h.to_text())

    def test_verdict_record_shape(self, capsys):
        # The json record `classify` and `witness` write for each tag.
        h, e = classify_general("abab").witness
        cases = [
            (["classify", "abab"], {"tag": INFINITE, "witness_morphism": h.to_text(),
                                    "achieved_exponent": str(e), "search_bound": None}),
            (["classify", "abababba"], {"tag": FINITE, "witness_morphism": None,
                                        "achieved_exponent": None, "search_bound": None}),
            (["classify", "abcacb", "--max-image-len", "1"], {"tag": UNKNOWN, "witness_morphism": None,
                                                              "achieved_exponent": None, "search_bound": 1}),
        ]
        h, e = classify_general("abab", target=Fraction(5, 2)).witness
        cases.append((["witness", "abab", "--target", "5/2"], {
            "tag": INFINITE, "witness_morphism": h.to_text(), "achieved_exponent": str(e),
            "search_bound": None, "target": "5/2"}))
        for argv, fields in cases:
            assert run([*argv, "--format", "json"]) == 0, argv
            assert json.loads(capsys.readouterr().out) == {"word": argv[1], **fields}, argv


def composed_pump_witness(w, fact, base, target):
    """The pump witness as a composition: a step morphism maps the pumped
    letter to s c p (c fresh), and a pumper maps c to c (V U c)^(pump-1)."""
    head, gap, tail = (base.apply(part) for part in (fact.head, fact.gap, fact.tail))
    if gap.endswith(head):
        p, t = "", gap[:len(gap) - len(head)]
    else:
        p, t = head[:len(head) - len(gap)], ""
    s = "" if gap.startswith(tail) else tail[len(gap):]
    letters = "".join(sorted(set(w)))
    c = fresh_letters(1, avoid=base.codomain)
    codomain = base.codomain + c
    step = Morphism({ch: s + c + p if ch == fact.letter else base.images[ch] for ch in letters})
    pump = max(1, ceil(target))
    pumper = Morphism({ch: c + (t + head + s + c) * (pump - 1) if ch == c else ch for ch in codomain})
    witness = compose(pumper, step)
    return witness, fractional_exponent(witness.apply(w)).exponent


class TestPumpWitness:
    def test_matches_the_composed_construction(self):
        rng = random.Random(41)
        bases = [identity("bc")] + list(morphisms("bc", "01", 2)) + list(morphisms("bc", "abc", 2))
        built = 0
        for _ in range(400):
            parts = ["".join(rng.choice("bc") for _ in range(rng.randint(0, 3))) for _ in range(3)]
            gap_count = rng.randint(0, 3)
            if not gap_count:
                parts[1] = ""
            head, gap, tail = parts
            w = head + ("a" + gap) * gap_count + "a" + tail
            fact = gap_factorization(w, "a")
            base = rng.choice(bases)
            target = Fraction(rng.randint(4, 40), rng.randint(1, 4))
            try:
                h, achieved = pump_witness(w, fact, base, target)
            except WordError as exc:
                assert "comparable" in str(exc), (w, base.to_text())
                continue
            expected, exponent = composed_pump_witness(w, fact, base, target)
            assert (h.domain, h.images, h.codomain, achieved) == (
                expected.domain, expected.images, expected.codomain, exponent), w
            built += 1
        assert built > 150

    def test_targets_reached_and_witness_injective(self):
        w = "abab"
        fact = gap_factorization(w, "a")
        for target in (2, 5, 10, len(w) + 1):
            h, achieved = pump_witness(w, fact, identity("b"), target)
            assert achieved >= target
            assert injective(h)
            assert fractional_exponent(h.apply(w)).exponent == achieved

    def test_unary_pump(self):
        w = "aaa"
        fact = gap_factorization(w, "a")
        h, achieved = pump_witness(w, fact, identity(""), 100)
        assert achieved >= 100

    def test_three_letter_pattern(self):
        w = "abcabca"
        fact = gap_factorization(w, "a")
        h, achieved = pump_witness(w, fact, identity("bc"), 3)
        assert achieved >= 3
        assert injective(h)

    def test_target_below_one_rejected(self):
        fact = gap_factorization("abab", "a")
        with pytest.raises(WordError, match="target"):
            pump_witness("abab", fact, identity("b"), Fraction(1, 2))

    def test_comparability_violation_rejected(self):
        w = "bbccabcbca"
        fact = gap_factorization(w, "a")
        with pytest.raises(WordError, match="suffix-comparable"):
            pump_witness(w, fact, identity("bc"), 2)

    def test_non_injective_base_rejected(self):
        w = "abcabca"
        fact = gap_factorization(w, "a")
        base = Morphism({"b": "x", "c": "x"})
        with pytest.raises(WordError, match="injective"):
            pump_witness(w, fact, base, 2)


class TestLowerBound:
    def test_identity_renaming_included(self):
        for w in ("ab", "aab", "abab"):
            best, _ = mapped_exponent_lower_bound(w, 1)
            assert best >= fractional_exponent(w).exponent

    def test_monotone_in_image_length(self):
        values = [mapped_exponent_lower_bound("ab", bound)[0] for bound in (1, 2, 3)]
        assert values == sorted(values)

    def test_square_with_rigid_mapped_exponent(self):
        # (aabb)^2 maps to exponent exactly 2 under every injective morphism;
        # verified over the bounded enumeration, with renamings attaining it.
        word = "aabb" * 2
        best, _ = mapped_exponent_lower_bound(word, 3)
        assert best == Fraction(2)
        for h in morphisms("ab", "01", 3):
            assert fractional_exponent(h.apply(word)).exponent <= 2

    def test_frozen_small_instance(self):
        # Exhaustive maximum for (ab)^3 ba with binary images of length <= 3;
        # the maximizer is the k=1 family morphism up to renaming.
        best, argmax = mapped_exponent_lower_bound("abababba", 3)
        assert best == Fraction(5, 3)
        assert fractional_exponent(argmax.apply("abababba")).exponent == best

    def test_brute_force_agreement(self):
        word = "aab"
        domain = "ab"
        expected = max(
            fractional_exponent(h.apply(word)).exponent
            for h in morphisms(domain, "01", 2)
        )
        assert mapped_exponent_lower_bound(word, 2)[0] == expected

    def test_impossible_bounds_rejected(self):
        with pytest.raises(WordError):
            mapped_exponent_lower_bound("ab", 2, codomain_size=1)

    def test_codomain_beyond_the_digits_rejected(self):
        # The argmax's codomain is the letters its images use.
        argmax = mapped_exponent_lower_bound("ab", 1, codomain_size=10)[1]
        assert (argmax.to_text(), argmax.codomain) == ("a=0,b=1", "01")
        with pytest.raises(WordError, match="codomain size must be <= 10"):
            mapped_exponent_lower_bound("ab", 1, codomain_size=11)


class TestClassifyFuzz:
    def test_random_words_over_four_letters(self):
        rng = random.Random(7777)
        seen = set()
        for _ in range(300):
            w = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 10)))
            verdict = classify_general(w, max_image_len=2, target=3)
            seen.add(verdict.tag)
            if verdict.tag == INFINITE:
                h, achieved = verdict.witness
                assert injective(h), w
                assert achieved >= 3, w
                assert fractional_exponent(h.apply(w)).exponent == achieved, w
            elif verdict.tag == UNKNOWN:
                assert verdict.search_bound == 2
        assert seen == {INFINITE, FINITE, UNKNOWN}


class TestBuildLimit:
    # The size checks predict the exact length of what would be built: the
    # limit set to that length passes and one letter less is refused.
    def test_witness_image_length_is_predicted_exactly(self, monkeypatch):
        for w, target in (("abab", 5), ("aaa", 3), ("cabcb", 4), ("abacbc", 4), ("abcbac", 9)):
            h, _ = classify_general(w, target=target).witness
            length = len(h.apply(w))
            monkeypatch.setattr(mapped_exponent, "MAX_BUILD_LETTERS", length)
            assert classify_general(w, target=target).witness[0] == h
            monkeypatch.setattr(mapped_exponent, "MAX_BUILD_LETTERS", length - 1)
            with pytest.raises(WordError, match="the witness image would have"):
                classify_general(w, target=target)
            monkeypatch.undo()

    def test_family_image_length_is_predicted_exactly(self, monkeypatch):
        for n, k in ((2, 0), (3, 2), (7, 5)):
            word, h, _ = lowpower_morphism(n, k)
            length = len(h.apply(word))
            monkeypatch.setattr(mapped_exponent, "MAX_BUILD_LETTERS", length)
            lowpower_morphism(n, k)
            monkeypatch.setattr(mapped_exponent, "MAX_BUILD_LETTERS", length - 1)
            with pytest.raises(WordError, match="the family image would have"):
                lowpower_morphism(n, k)
            monkeypatch.undo()


class TestLowpowerFamily:
    def test_formula_instances(self):
        _, _, expected = lowpower_morphism(2, 1)
        assert expected == Fraction(15, 7)
        _, _, expected = lowpower_morphism(2, 0)
        assert expected == Fraction(9, 5)

    def test_image_exponent_matches_formula(self):
        for n in range(2, 7):
            for k in range(0, 8):
                w, h, expected = lowpower_morphism(n, k)
                assert fractional_exponent(h.apply(w)).exponent == expected

    def test_limit_approaches_one_plus_two_over_n_minus_one(self):
        n = 10
        limit = 1 + Fraction(2, n - 1)
        _, _, at_k50 = lowpower_morphism(n, 50)
        assert at_k50 < limit
        assert limit - at_k50 < Fraction(1, 100)

    def test_validation(self):
        with pytest.raises(WordError):
            lowpower_morphism(1, 0)
        with pytest.raises(WordError):
            lowpower_morphism(2, -1)


class TestHighpowerFamily:
    def test_formula_instances(self):
        _, _, expected = highpower_word(2)
        assert expected == Fraction(24, 13)
        _, _, expected = highpower_word(3)
        assert expected == Fraction(54, 19)

    def test_word_shape(self):
        w, h, _ = highpower_word(3)
        assert len(w) == 18
        assert len(set(w)) == 6
        assert all(len(h.images[ch]) == 3 for ch in h.domain)

    def test_base_word_has_exponent_one(self):
        for n in range(2, 7):
            w, _, _ = highpower_word(n)
            assert fractional_exponent(w).exponent == 1

    def test_image_exponent(self):
        for n in range(2, 7):
            w, h, expected = highpower_word(n)
            assert fractional_exponent(h.apply(w)).exponent == expected

    def test_validation(self):
        with pytest.raises(WordError):
            highpower_word(1)


class TestBoundedLetterProperty:
    def test_long_image_letter_forces_equal_gaps(self):
        # When h(w) = x^r with x the exponent base and some letter's image is
        # at least |x| long, that letter's occurrence gaps in w are all equal.
        domain = "ab"
        pool = list(morphisms(domain, "01", 2))
        for h in pool:
            for w in all_words("ab", 5):
                base, _ = fractional_exponent(h.apply(w))
                for letter in set(w):
                    if len(h.images[letter]) >= len(base):
                        assert gap_factorization(w, letter) is not None, (w, h.to_text())


X = CodeSet(["a", "ab"])


@pytest.mark.parametrize("call, message", [
    (lambda: CodeSet(["a", "a"]), "duplicate code word 'a'"),
    (lambda: x_degree("", X), "empty input"),
    (lambda: is_synchronizing("", X), "empty input"),
    (lambda: gap_factorization("", "a"), "empty input"),
    (lambda: classify_general(""), "empty input"),
    (lambda: mapped_exponent_lower_bound("", 2), "empty input"),
    (lambda: minimal_period_profile(""), "empty input"),
    (lambda: pump_witness("aba", gap_factorization("abba", "a"), identity("ab"), 2),
     "factorization does not rebuild the input word"),
    (lambda: pump_witness("abca", gap_factorization("abca", "a"), identity("b"), 2),
     "base morphism lacks an image for 'c'"),
], ids=["duplicate code word", "x_degree", "is_synchronizing", "gap_factorization", "classify_general",
        "mapped_exponent_lower_bound", "minimal_period_profile", "factorization of another word",
        "base without a letter"])
def test_input_guards(call, message):
    with pytest.raises(WordError, match=message):
        call()
