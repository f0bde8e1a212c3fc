import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest

import morphexp
from morphexp import cli, infinite, words
from morphexp.cli import run
from morphexp.codes import CodeSet, is_synchronizing, x_degree
from morphexp.infinite import ace_estimate, thue_morse
from morphexp.mapped_exponent import classify_general, mapped_exponent_lower_bound
from morphexp.words import fractional_exponent
from profile_oracles import brute_integer_power


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTextOutput:
    def test_exp(self, capsys):
        code, out, _ = invoke(capsys, "exp", "ababab")
        assert code == 0
        assert out.strip() == "E = 3 (base ab); IE = 3 (root ab)"

    def test_family_lowpower_verifies(self, capsys):
        code, out, _ = invoke(capsys, "family", "lowpower", "--n", "2", "--k", "1")
        assert code == 0
        assert "15/7" in out
        assert "verified" in out

    def test_family_highpower(self, capsys):
        code, out, _ = invoke(capsys, "family", "highpower", "--n", "2")
        assert code == 0
        assert "24/13" in out

    def test_classify_finite(self, capsys):
        code, out, _ = invoke(capsys, "classify", "abababba")
        assert code == 0
        assert out.strip() == "tag: finite"

    def test_generate(self, capsys):
        code, out, _ = invoke(capsys, "generate", "--gen", "periodic", "--params", "v=abc", "--prefix", "7")
        assert code == 0
        assert out.strip() == "abcabca"

    def test_generate_from_a_multi_letter_seed(self, capsys):
        params = ("--gen", "morphic", "--params")
        code, out, _ = invoke(capsys, "generate", *params, "rules=a=ab,b=ba;seed=ab", "--prefix", "10")
        assert (code, out.strip()) == (0, "abbabaabba")  # h^4(ab) starts so
        code, out, err = invoke(capsys, "generate", *params, "rules=a=ab,b=;seed=ab", "--prefix", "10")
        assert (code, out) == (1, "")  # h(ab) == ab
        assert err.strip() == "error: morphism is not prolongable on seed 'ab'"

    def test_sync(self, capsys):
        code, out, _ = invoke(capsys, "sync", "aa", "--code", "ab,ba")
        assert code == 0
        assert "split at 1" in out


class TestJsonOutput:
    def test_round_trip_is_byte_identical(self, capsys):
        commands = [
            ("exp", "ababab", "--format", "json"),
            ("classify", "abab", "--format", "json"),
            ("witness", "abab", "--target", "5", "--format", "json"),
            ("lower-bound", "ab", "--max-image-len", "2", "--format", "json"),
            ("xdegree", "aa", "--code", "a", "--format", "json"),
            ("sync", "aa", "--code", "ab,ba", "--format", "json"),
            ("family", "lowpower", "--n", "3", "--k", "0", "--format", "json"),
            ("ace", "--gen", "periodic", "--params", "v=ab", "--prefix", "20", "--tail", "10", "--format", "json"),
            ("generate", "--gen", "thue-morse", "--prefix", "16", "--format", "json"),
        ]
        for argv in commands:
            code, out, _ = invoke(capsys, *argv)
            assert code == 0, argv
            line = out.strip()
            assert json.dumps(json.loads(line), sort_keys=True) == line, argv

    def test_classify_record_fields(self, capsys):
        _, out, _ = invoke(capsys, "classify", "abab", "--format", "json")
        record = json.loads(out)
        assert record["tag"] == "infinite"
        assert record["witness_morphism"]
        assert "/" in record["achieved_exponent"] or record["achieved_exponent"].isdigit()


# Witnesses that pump a letter other than the last one, recorded when the
# witness morphism was built with the pumped letter's image added last and
# its domain given as the sorted letters: the identity step (ab, abcbcb,
# abcb, acbcbc, cbabab) and the binary search (bcacabb).
PUMPED_BEFORE_THE_LAST_LETTER = [
    (("classify", "ab"), "tag: infinite\nwitness: a=bAbAbAbA,b=b\nachieved exponent: 9/2\n"),
    (("witness", "ab", "--target", "5/2"), "tag: infinite\nwitness: a=bAbAbA,b=b\nachieved exponent: 7/2\n"),
    (("classify", "abcbcb"),
     "tag: infinite\nwitness: a=" + "bcbcbA" * 12 + ",b=b,c=c\nachieved exponent: 77/6\n"),
    (("classify", "bcacabb"),
     "tag: infinite\nwitness: a=" + "A0001" * 13 + "A0,b=0,c=001\nachieved exponent: 143/5\n"),
    (("witness", "abcb", "--target", "3"), "tag: infinite\nwitness: a=bcbAbcbAbcbA,b=b,c=c\nachieved exponent: 15/4\n"),
    (("classify", "cbabab"),
     "tag: infinite\nwitness: a=" + "Acb" * 11 + "Ac,b=b,c=c\nachieved exponent: 74/3\n"),
    (("classify", "acbcbc", "--format", "json"),
     '{"achieved_exponent": "77/6", "search_bound": null, "tag": "infinite", "witness_morphism": "a='
     + "cbcbcA" * 12 + ',b=b,c=c", "word": "acbcbc"}\n'),
    (("witness", "bcacabb", "--target", "7/2", "--format", "json"),
     '{"achieved_exponent": "43/5", "search_bound": null, "tag": "infinite", "target": "7/2", '
     '"witness_morphism": "a=A0001A0001A0001A0,b=0,c=001", "word": "bcacabb"}\n'),
]


@pytest.mark.parametrize("argv, shown", PUMPED_BEFORE_THE_LAST_LETTER)
def test_witness_pumping_an_earlier_letter_prints_the_recorded_stdout(capsys, argv, shown):
    assert invoke(capsys, *argv)[:2] == (0, shown)


class TestCsvOutput:
    def test_ace_curve(self, capsys):
        code, out, _ = invoke(
            capsys, "ace", "--gen", "periodic", "--params", "v=ab",
            "--prefix", "10", "--tail", "8", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "factor_length,max_exponent_num,max_exponent_den,witness_offset"
        assert lines[1:] == ["8,4,1,0", "9,9,2,0", "10,5,1,0"]

    def test_csv_rejected_elsewhere(self, capsys):
        code, _, err = invoke(capsys, "exp", "abab", "--format", "csv")
        assert code == 2
        assert "csv" in err

    def test_csv_refused_before_the_search_runs(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli, "classify_general", refuse)
        monkeypatch.setattr(cli, "mapped_exponent_lower_bound", refuse)
        for argv in (
            ("lower-bound", "abcab", "--max-image-len", "5"),
            ("classify", "abcab"),
            ("witness", "abcab", "--target", "3"),
        ):
            code, out, err = invoke(capsys, *argv, "--format", "csv")
            assert (code, out) == (2, ""), argv
            assert "csv" in err


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert invoke(capsys, "exp", "ab,cd")[0] == 2
        assert invoke(capsys, "nosuchcommand")[0] == 2
        assert invoke(capsys, "witness", "abab")[0] == 2  # missing --target

    @pytest.mark.parametrize("which", ["lowpower", "highpower"])
    def test_family_without_n_is_2(self, capsys, which):
        assert invoke(capsys, "family", which) == (2, "", f"usage error: family {which} needs --n (position 0)\n")

    def test_non_integer_generator_parameter_is_2(self, capsys):
        for gen, params in (("interleaved", "n=x"), ("optimal-binary", "n=1;k=2;m=y")):
            code, out, err = invoke(capsys, "ace", "--gen", gen, "--params", params, "--prefix", "10", "--tail", "2")
            assert code == 2
            assert out == ""
            assert err.startswith("usage error:") and "not an integer" in err

    def test_analysis_error_is_1(self, capsys):
        code, _, err = invoke(capsys, "sync", "a", "--code", "a,aa")
        assert code == 1
        assert "not a code" in err

    def test_long_sync_probe_is_0(self, capsys):
        code, out, _ = invoke(capsys, "sync", "ab" * 8, "--code", "a,b,cccccccc", "--probe", "31", "--format", "json")
        assert code == 0
        assert json.loads(out)["split"] == 0

    def test_sync_with_long_code_words_answers_within_a_second(self, capsys):
        # A minimum per split over every nearby code word took 9 s and 5 s
        # on these inputs; one sweep over the cover steps takes hundredths.
        cases = (
            (("ab" * 8000, "ab,ba," + "c" * 16000), "no synchronizing split (probe length 128000)\n"),
            (("a" * 8000, "a,b" + "a" * 8000), "synchronizing split at 8000 (probe length 64004)\n"),
        )
        for (word, code_set), expected in cases:
            started = time.perf_counter()
            result = invoke(capsys, "sync", word, "--code", code_set)
            elapsed = time.perf_counter() - started
            assert result == (0, expected, ""), code_set[:8]
            assert elapsed < 1.0, (code_set[:8], elapsed)

    def test_unread_or_repeated_generator_parameter_is_2(self, capsys):
        # A key that the generator never reads, or one given twice, would
        # otherwise change the answer silently.
        valid = {
            "periodic": "v=ab",
            "thue-morse": "",
            "morphic": "rules=a=ab,b=a;seed=a",
            "interleaved": "n=2",
            "optimal-binary": "n=1;k=2;m=7",
        }
        for gen, params in valid.items():
            assert invoke(capsys, "generate", "--gen", gen, "--params", params, "--prefix", "5")[0] == 0, gen
            for bad, key in ((f"{params};bsae=periodic:ab", "bsae"), (f"{params};v=ab;v=abc", "v")):
                bad = bad.lstrip(";")
                code, out, err = invoke(capsys, "generate", "--gen", gen, "--params", bad, "--prefix", "5")
                assert (code, out) == (2, ""), (gen, bad)
                assert err.startswith("usage error:") and repr(key) in err, (gen, bad, err)
        code, _, err = invoke(capsys, "generate", "--gen", "mystery", "--params", "v=ab;bsae=x", "--prefix", "5")
        assert code == 2 and "unknown generator 'mystery'" in err
        code, _, err = invoke(capsys, "ace", "--gen", "periodic", "--params", "v=ab;v=abc", "--prefix", "9", "--tail", "2")
        assert code == 2 and err.startswith("usage error: repeated parameter 'v' (position 5)")

    def test_rule_positions_count_from_the_params_literal(self, capsys):
        # The position of a bad rule is where it sits in --params as typed,
        # inside a rules= value or inside the rules field of a base spec.
        cases = {
            ("morphic", "seed=a;rules=a=ab,b"): "expected letter=image, got 'b' (position 18)",
            ("morphic", "rules=a=ab,b;seed=a"): "expected letter=image, got 'b' (position 11)",
            ("morphic", "rules=;seed=a"): "expected letter=image, got '' (position 6)",
            ("interleaved", "n=2;base=morphic:a=ab,b:a"): "expected letter=image, got 'b' (position 22)",
            ("optimal-binary", "n=1;k=2;m=7;base=morphic:a=ab,a=b:a"): "duplicate image for letter 'a' (position 30)",
            ("optimal-binary", "n=1;k=2;m=7;base=morphic:a=ab,bb=a:a"):
                "morphism domain letter must be a single character, got 'bb' (position 30)",
        }
        for (gen, params), message in cases.items():
            for command in (("generate", "--prefix", "5"), ("ace", "--prefix", "5", "--tail", "1")):
                code, out, err = invoke(capsys, command[0], "--gen", gen, "--params", params, *command[1:])
                assert (code, out, err) == (2, "", f"usage error: {message}\n"), (gen, params, command)
        with pytest.raises(words.ParseError) as caught:
            infinite.generator_from_spec("interleaved", {"n": "2", "base": "morphic:a=ab,b:a"})
        assert caught.value.position == len("n=2;base=morphic:a=ab,")

    def test_morphic_letter_outside_domain(self, capsys):
        params = ("--gen", "morphic", "--params", "rules=a=ab,b=bbc;seed=a")
        code, out, _ = invoke(capsys, "generate", *params, "--prefix", "11")
        assert (code, out.strip()) == (0, "abbbcbbcbbc")
        code, out, err = invoke(capsys, "generate", *params, "--prefix", "12")
        assert (code, out) == (1, "")
        assert err.strip() == "error: letter 'c' outside morphism domain"

    def test_erasing_morphic_rules_are_1(self, capsys):
        code, out, err = invoke(capsys, "generate", "--gen", "morphic", "--params", "rules=a=ab,b=;seed=a", "--prefix", "3")
        assert (code, out) == (1, "")
        assert err.strip() == "error: generator failed to produce more letters"

    def test_classify_needs_positive_image_length_for_every_word(self, capsys):
        for word in ("ab", "abc"):
            code, out, err = invoke(capsys, "classify", word, "--max-image-len", "0")
            assert (code, out) == (1, "")
            assert err.strip() == "error: max_image_len must be >= 1"

    def test_witness_needs_a_target_of_at_least_1_for_every_verdict(self, capsys):
        for word, tag in (("abcacbbca", "finite"), ("badcdacbbcd", "unknown"), ("abcabcab", "infinite")):
            for target in ("1/2", "0"):
                code, out, err = invoke(capsys, "witness", word, "--target", target, "--max-image-len", "1")
                assert (code, out) == (1, "")
                assert err.strip() == "error: target exponent must be >= 1"
            code, out, _ = invoke(capsys, "witness", word, "--target", "1", "--max-image-len", "1")
            assert (code, out.splitlines()[0]) == (0, f"tag: {tag}")

    def test_subcommand_parser_reads_what_the_top_level_parser_reads(self, capsys):
        # `run` sends a command line that names a subcommand straight to its
        # parser; the top-level parser would set the same values.
        parser, commands = cli._build_parsers()
        lines = (
            ("exp", "abab", "--format", "json"),
            ("exp", "--", "-ab"),
            ("classify", "--max-image-len", "2", "abcab"),
            ("witness", "ab", "--target", "3/2"),
            ("lower-bound", "aab", "--max-image-len", "2", "--codomain", "3"),
            ("xdegree", "ab", "--code", "a,b"),
            ("sync", "ab", "--code", "a,b", "--probe", "4"),
            ("ace", "--gen", "thue-morse", "--prefix", "64", "--tail", "4", "--format", "csv"),
            ("generate", "--gen", "periodic", "--params", "v=ab", "--prefix", "3"),
            ("family", "lowpower", "--n", "3", "--k", "1"),
        )
        assert set(commands) == {line[0] for line in lines}
        for line in lines:
            top = vars(parser.parse_args(line))
            assert top.pop("command") == line[0]
            assert vars(commands[line[0]].parse_args(line[1:])) == top, line
        code, out, _ = invoke(capsys, "exp", "--", "-ab")
        assert (code, out.strip()) == (0, "E = 1 (base -ab); IE = 1 (root -ab)")

    def test_threads_option_is_gone(self, capsys):
        code, out, err = invoke(capsys, "lower-bound", "ab", "--max-image-len", "2", "--threads", "2")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --threads 2" in err

    def test_usage_error_then_valid_command(self, capsys):
        code, out, err = invoke(capsys, "exp", "abab", "--bogus")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --bogus" in err
        # The subcommand's parser reports it, under its own usage line.
        assert err.startswith("usage: morphexp exp [-h]")
        code, out, err = invoke(capsys, "exp", "abab")
        assert (code, out.strip(), err) == (0, "E = 2 (base ab); IE = 2 (root ab)", "")

    def test_codomain_above_ten_letters_is_2(self, capsys):
        code, out, err = invoke(capsys, "lower-bound", "ab", "--max-image-len", "1", "--codomain", "11")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: --codomain must be <= 10")
        code, out, _ = invoke(capsys, "lower-bound", "ab", "--max-image-len", "1", "--codomain", "10", "--format", "json")
        assert code == 0
        assert json.loads(out)["codomain_size"] == 10

    def test_negative_sync_probe_is_2(self, capsys):
        code, out, err = invoke(capsys, "sync", "ab", "--code", "a,b", "--probe", "-5")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: --probe must be >= 0")

    def test_oversized_builds_are_1_before_allocating(self, capsys):
        cases = (
            ("witness", "ab", "--target", "100000000000"),
            ("family", "lowpower", "--n", "100000000", "--k", "3"),
            ("lower-bound", "ab", "--max-image-len", "6", "--codomain", "10"),
            ("lower-bound", "aaaa", "--max-image-len", "15"),
            ("classify", "bcacabb", "--max-image-len", "40"),
            ("lower-bound", "ab", "--codomain", "1", "--max-image-len", "1000000000000000000"),
            ("generate", "--gen", "optimal-binary", "--params", "n=1;k=2;m=10000000000", "--prefix", "10"),
        )
        for argv in cases:
            tracemalloc.start()
            try:
                code, out, err = invoke(capsys, *argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: ") and "more than the limit" in err, argv
            assert peak < 1 << 20, argv

    def test_default_classify_witness_stops_at_the_build_limit(self, capsys):
        # Without --target the witness is pumped to exponent 2|w|, so its
        # image grows as |w|^2: (ab)^1117 a answers, and (ab)^1118 a exits 1
        # although its verdict is infinite.
        code, out, err = invoke(capsys, "classify", "ab" * 1117 + "a")
        assert (code, err) == (0, "")
        assert out.startswith("tag: infinite\n")
        code, out, err = invoke(capsys, "classify", "ab" * 1118 + "a")
        assert (code, out) == (1, "")
        assert err == "error: the witness image would have 10012811 letters, more than the limit of 10000000\n"

    def test_oversized_prefixes_are_1_before_allocating(self, capsys):
        cases = (
            ("ace", "--gen", "periodic", "--params", "v=ab", "--prefix", "300000000", "--tail", "1"),
            ("generate", "--gen", "thue-morse", "--prefix", "1000000000"),
        )
        for argv in cases:
            tracemalloc.start()
            try:
                code, out, err = invoke(capsys, *argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: the prefix would have") and "more than the limit" in err, argv
            assert peak < 1 << 20, argv

    def test_ace_prefix_over_the_profile_budget_is_1(self, capsys):
        # Far below the build limit, but the quadratic profile would run for
        # minutes; ace refuses it before generating.
        argv = ("ace", "--gen", "thue-morse", "--prefix", "100001", "--tail", "1")
        tracemalloc.start()
        try:
            code, out, err = invoke(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err.startswith("error: the prefix would have 100001 letters, more than the limit of 100000")
        assert peak < 1 << 20

    def test_huge_optimal_binary_n_is_0(self, capsys):
        # The prefix reads about a dozen of block 1's n - 1 repeats; all of
        # them at once would need gigabytes.
        argv = ("generate", "--gen", "optimal-binary", "--prefix", "1000", "--params")
        tracemalloc.start()
        try:
            code, out, err = invoke(capsys, *argv, "n=1000000000;k=2;m=7")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert peak < 1 << 20
        assert len(out) == 1001
        assert invoke(capsys, *argv, "n=100;k=2;m=7") == (0, out, "")

    def test_bad_word_letters_are_2_at_the_first_bad_position(self, capsys):
        cases = {
            "ab,cd": "bad letter ',' in word literal (position 2)",
            "a=b": "bad letter '=' in word literal (position 1)",
            "ab c": "bad letter ' ' in word literal (position 2)",
            "ab\u00e9": "bad letter '\u00e9' in word literal (position 2)",
            "ab\tc": "bad letter '\\t' in word literal (position 2)",
            "a\u00e9,": "bad letter '\u00e9' in word literal (position 1)",
            "": "empty word literal (position 0)",
        }
        for word, message in cases.items():
            assert invoke(capsys, "exp", word) == (2, "", f"usage error: {message}\n"), word

    def test_success_is_0(self, capsys):
        assert invoke(capsys, "exp", "a")[0] == 0


# Exit code and stdout of `generate` for interleaved (n=2, prefix 12) and
# optimal-binary (n=2;k=2;m=7, prefix 28): each base spec, then the faults
# in their own parameters.  Recorded while `cli` still split `--params` and
# `infinite` parsed base specs with a grammar of their own.
GRAMMAR_PINS = (
    ("interleaved", "n=2;base=periodic:01", 0, "ACBADCBABDCD\n"),
    ("interleaved", "n=2;base=morphic:a=ab,b=ba:a", 0, "ACBBDDABACDC\n"),
    ("interleaved", "n=2;base=thue-morse", 0, "ACBBDDABACDC\n"),
    ("interleaved", "n=2", 0, "ACBBDDABACDC\n"),
    ("interleaved", "n=2;base=periodic", 2, ""),
    ("interleaved", "n=2;base=periodic:", 1, ""),
    ("interleaved", "n=2;base=periodic:abc", 1, ""),
    ("interleaved", "n=2;base=morphic:a=ab,b=ba", 2, ""),
    ("interleaved", "n=2;base=morphic::a", 2, ""),
    ("interleaved", "n=2;base=thue-morse:x", 2, ""),
    ("interleaved", "n=2;base=", 2, ""),
    ("interleaved", "n=2;base=interleaved:2", 2, ""),
    ("interleaved", "n=2;base=mystery", 2, ""),
    ("optimal-binary", "n=2;k=2;m=7;base=periodic:01", 0, "abbbbbbaabbbbbabbbbbbaaaabbb\n"),
    ("optimal-binary", "n=2;k=2;m=7;base=morphic:a=ab,b=ba:a", 0, "abbbbbbaabbbbbaabbbbbaaaabbb\n"),
    ("optimal-binary", "n=2;k=2;m=7;base=thue-morse", 0, "abbbbbbaabbbbbaabbbbbaaaabbb\n"),
    ("optimal-binary", "n=2;k=2;m=7", 0, "abbbbbbaabbbbbaabbbbbaaaabbb\n"),
    ("optimal-binary", "n=2;k=2;m=7;base=periodic", 2, ""),
    ("optimal-binary", "n=2;k=2;m=7;base=periodic:", 1, ""),
    ("optimal-binary", "n=2;k=2;m=7;base=periodic:abc", 1, ""),
    ("optimal-binary", "n=2;k=2;m=7;base=morphic:a=ab,b=ba", 2, ""),
    ("optimal-binary", "n=2;k=2;m=7;base=morphic::a", 2, ""),
    ("optimal-binary", "n=2;k=2;m=7;base=thue-morse:x", 2, ""),
    ("optimal-binary", "n=2;k=2;m=7;base=", 2, ""),
    ("optimal-binary", "n=2;k=2;m=7;base=interleaved:2", 2, ""),
    ("optimal-binary", "n=2;k=2;m=7;base=mystery", 2, ""),
    ("interleaved", "base=periodic:01", 2, ""),
    ("interleaved", "n=x", 2, ""),
    ("interleaved", "n=2;k=3", 2, ""),
    ("interleaved", "n=2;n=3", 2, ""),
    ("optimal-binary", "k=2;m=7;base=periodic:01", 2, ""),
    ("optimal-binary", "n=x;k=2;m=7", 2, ""),
    ("optimal-binary", "n=2;k=2;m=7;j=3", 2, ""),
    ("optimal-binary", "n=2;k=2;m=7;n=3", 2, ""),
)


@pytest.mark.parametrize("gen, params, code, out", GRAMMAR_PINS)
def test_generator_grammar_keeps_its_stdout_and_exit_code(capsys, gen, params, code, out):
    prefix = {"interleaved": "12", "optimal-binary": "28"}[gen]
    result = invoke(capsys, "generate", "--gen", gen, "--params", params, "--prefix", prefix)
    assert result[:2] == (code, out)
    assert (result[2] == "") == (code == 0)


def _readme_examples():
    """(command, output lines) for each example in README's command-line
    block that shows its output."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("morphexp "):
            examples.append((line[len("morphexp "):], []))
        elif line.strip():
            examples[-1][1].append(line.strip())
    return [(command, shown) for command, shown in examples if shown]


README_EXAMPLES = _readme_examples()


class TestReadmeExamples:
    def test_the_examples_with_output(self):
        commands = [command.split()[0] for command, _ in README_EXAMPLES]
        assert commands == ["exp", "classify", "witness", "lower-bound"]

    @pytest.mark.parametrize("command, shown", README_EXAMPLES, ids=[command for command, _ in README_EXAMPLES])
    def test_example_prints_what_readme_shows(self, capsys, command, shown):
        code, out, err = invoke(capsys, *command.split())
        assert (code, err) == (0, "")
        if "..." in shown[0]:
            # A json record shown in part: the keys it shows hold its values.
            shown_keys = json.loads(shown[0].replace(", ...", ""))
            assert shown_keys.items() <= json.loads(out).items()
        else:
            assert out.splitlines() == shown


class TestThinAdapter:
    def test_classify_equals_library(self, capsys):
        _, out, _ = invoke(capsys, "classify", "abab", "--format", "json")
        record = json.loads(out)
        verdict = classify_general("abab")
        assert record["tag"] == verdict.tag
        assert record["achieved_exponent"] == str(verdict.witness[1])

    def test_lower_bound_equals_library(self, capsys):
        _, out, _ = invoke(capsys, "lower-bound", "aab", "--max-image-len", "2", "--format", "json")
        record = json.loads(out)
        best, argmax = mapped_exponent_lower_bound("aab", 2)
        assert record["best_exponent"] == str(best)
        assert record["argmax_morphism"] == argmax.to_text()

    def test_xdegree_equals_library(self, capsys):
        _, out, _ = invoke(capsys, "xdegree", "aa", "--code", "a", "--format", "json")
        assert json.loads(out)["degree"] == x_degree("aa", CodeSet(["a"]))

    def test_sync_equals_library(self, capsys):
        _, out, _ = invoke(capsys, "sync", "aa", "--code", "ab,ba", "--format", "json")
        assert json.loads(out)["split"] == is_synchronizing("aa", CodeSet(["ab", "ba"]))

    def test_exp_equals_library_with_one_period_computation(self, capsys, monkeypatch):
        rng = random.Random(3)
        calls = []
        smallest_period = words.smallest_period
        monkeypatch.setattr(words, "smallest_period", lambda w: calls.append(w) or smallest_period(w))
        for _ in range(100):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 12))) * rng.randint(1, 3)
            calls.clear()
            _, out, _ = invoke(capsys, "exp", w, "--format", "json")
            assert calls == [w]
            base, e = fractional_exponent(w)
            n, root = brute_integer_power(w)
            assert json.loads(out) == {"word": w, "exponent": str(e), "base": base, "integer_exponent": n, "root": root}

    def test_ace_equals_library(self, capsys):
        _, out, _ = invoke(capsys, "ace", "--gen", "thue-morse", "--prefix", "128", "--tail", "8", "--format", "json")
        record = json.loads(out)
        est = ace_estimate(thue_morse(), 128, 8)
        assert record["estimate"] == str(est.estimate)
        assert record["witness_offset"] == est.witness_offset


# SHA-256 of `ace ... --tail 8` stdout as the per-length Fractions built
# directly printed it, keyed by (generator, params, prefix, format).
ACE_DIGESTS = {
    ("thue-morse", None, 64, "text"): "f104fee2459fe55b1505040b942f679fcddff65c29c7605f726635d2f4aaaf4b",
    ("thue-morse", None, 64, "json"): "c66abb8885b5839f994e32b63056dbb86d132a70d88b95eb8d0ed75c190485e1",
    ("thue-morse", None, 64, "csv"): "7f387ba128c644ab0e8b0d903589fa704687eecb31c105fb98954f67c66aa554",
    ("thue-morse", None, 256, "text"): "f104fee2459fe55b1505040b942f679fcddff65c29c7605f726635d2f4aaaf4b",
    ("thue-morse", None, 256, "json"): "63a830ba28254776f65d84f1a8fe76dff247b7df42e6441efb1b67a141708df8",
    ("thue-morse", None, 256, "csv"): "04cf5b075f8cf83736aeabd74f36a21ee7f5794c90e3562e95a9fc96f2032806",
    ("thue-morse", None, 1024, "text"): "f104fee2459fe55b1505040b942f679fcddff65c29c7605f726635d2f4aaaf4b",
    ("thue-morse", None, 1024, "json"): "48cc5d9dfe714d74dd7431b878bc8820cf923f57e8dee5f06e706baabe5ca30d",
    ("thue-morse", None, 1024, "csv"): "b41ea66664f1a0aeacefe2a849b0ddbaca2570d9f1031aa4b4b09b5a14635264",
    ("optimal-binary", "n=2;k=2;m=8", 64, "text"): "ffa2cbb27b340217e6918095cfa36d39e0c33843b5e65868ef6778f48f909e1e",
    ("optimal-binary", "n=2;k=2;m=8", 64, "json"): "c7278fe84380906cae8de8c1d05b3785c3ac6a266e2da35b8e4c2597fd8d1465",
    ("optimal-binary", "n=2;k=2;m=8", 64, "csv"): "37c54df8db6370aa9b3ff678d9d811346c5a130e6f6227ed548d0dbbec8af5e8",
    ("optimal-binary", "n=2;k=2;m=8", 256, "text"): "ffa2cbb27b340217e6918095cfa36d39e0c33843b5e65868ef6778f48f909e1e",
    ("optimal-binary", "n=2;k=2;m=8", 256, "json"): "63e0b74efaf9d028c80912121e812e304b1149aa59f83aa19eadd4ed5366d26c",
    ("optimal-binary", "n=2;k=2;m=8", 256, "csv"): "266004224fc119aea30f6c4d620cb2f9eef6f36fff36a5683c6f6c5f886f405b",
    ("optimal-binary", "n=2;k=2;m=8", 1024, "text"): "ffa2cbb27b340217e6918095cfa36d39e0c33843b5e65868ef6778f48f909e1e",
    ("optimal-binary", "n=2;k=2;m=8", 1024, "json"): "4b96af552f33362801005a5bcc41a75a204ccd15a8fd0a64e1461dc59f3e5e48",
    ("optimal-binary", "n=2;k=2;m=8", 1024, "csv"): "cf9fccce9af443c35971163c07ef5b58d6de400ec0de2bc761f950aa8daef509",
    ("interleaved", "n=3", 64, "text"): "4096168c40a321d2f0b78e242e1bd1a0372abc72abbd17a97530988bb39c5aa9",
    ("interleaved", "n=3", 64, "json"): "eae18cf59bb0cd555978979e803d5ff38f04122a0148d66704ebfb2e1fb6a366",
    ("interleaved", "n=3", 64, "csv"): "8a4386c499b7a3cad6fdf81e322f61319fe94d600cfe844be1dd1c13caece996",
    ("interleaved", "n=3", 256, "text"): "7f4d19ac83aa2dcf49fb34350260da6c37933030f53fa2a48f7e4ef0e2ca21c9",
    ("interleaved", "n=3", 256, "json"): "8dad37daee172dc1f089cf5da3b3e1db71d003ea8f4403e7ce786b09d8467bf5",
    ("interleaved", "n=3", 256, "csv"): "197b35b791dda6b7cd8f4d0c7bb1b98e6475400a7b8bc9161d915fe11ab3bbac",
    ("interleaved", "n=3", 1024, "text"): "7f4d19ac83aa2dcf49fb34350260da6c37933030f53fa2a48f7e4ef0e2ca21c9",
    ("interleaved", "n=3", 1024, "json"): "53b985e141c4358e8ca749021bf9e5278278f85e618939bf5605b4f90d14c894",
    ("interleaved", "n=3", 1024, "csv"): "89589fb1e04d843f9f943433277a58edd1b7bb4382a35edf5141e93d5d58f25d",
    ("periodic", "v=abcabb", 64, "text"): "d576216ff20aedd36d0e7205d6310b866dd5bb2a48f64b43783b27c339f98fae",
    ("periodic", "v=abcabb", 64, "json"): "de939407f49c8ebdc0d44f24d064c28a5849cb14ee63a4e04720f3ee635c2bae",
    ("periodic", "v=abcabb", 64, "csv"): "813ad285db8f1d0b025056cb845c74484a524e415e6581e794d3d61d95902ff2",
    ("periodic", "v=abcabb", 256, "text"): "f4ad28c35a39d04635dd9daea19f641553b177998c1ba88bb9f5b3a5caa49b2b",
    ("periodic", "v=abcabb", 256, "json"): "6d5adaf327bb4748fa347650923dd0cfc636177efa6d1749f801cd20ad6f1310",
    ("periodic", "v=abcabb", 256, "csv"): "a9a650a3af33a7ba6b3951ed94e933dcb931a4d37d11707f101e6d0eec1a6033",
    ("periodic", "v=abcabb", 1024, "text"): "b6e93ae1e344583ad5ef69bcb630855317d6ca5d33660d0d8c8d8968b43a589c",
    ("periodic", "v=abcabb", 1024, "json"): "bef0e2bf98c8e4f07bb4811b60056ee62910cbdf14e9c37c60d7fcd9c9ba54d3",
    ("periodic", "v=abcabb", 1024, "csv"): "867f2436d05dcd9f0080822dc8268c9df42df7192aac26ed31091d0612612878",
}


class TestAceByteStable:
    def test_stdout_digests(self, capsys, monkeypatch):
        # csv builds the period profile once and never searches for the
        # estimate; text and json search once and never build the profile.
        calls = []

        def spy(name, real):
            def call(w, *args):
                calls.append((name, len(w)))
                return real(w, *args)
            return call

        profile = spy("profile", words.minimal_period_profile)
        search = spy("search", words._max_exponent)
        for module in (words, cli, infinite):
            if hasattr(module, "minimal_period_profile"):
                monkeypatch.setattr(module, "minimal_period_profile", profile)
            if hasattr(module, "_max_exponent"):
                monkeypatch.setattr(module, "_max_exponent", search)
        for (gen, params, prefix, fmt), digest in ACE_DIGESTS.items():
            calls.clear()
            extra = ("--params", params) if params else ()
            code, out, _ = invoke(capsys, "ace", "--gen", gen, *extra, "--prefix", str(prefix), "--tail", "8", "--format", fmt)
            assert (code, calls) == (0, [("profile" if fmt == "csv" else "search", prefix)])
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (gen, prefix, fmt)


# `ace --prefix 100000 --tail 8 --format json`, at the profile budget,
# recorded while the search still tested every shift.
ACE_AT_THE_BUDGET = {
    ("thue-morse", None): ("2", 8, 4),
    ("interleaved", "n=3"): ("2", 8, 84),
    ("interleaved", "n=4"): ("2", 8, 112),
    ("optimal-binary", "n=2;k=2;m=8"): ("3", 24, 2),
    ("morphic", "rules=a=ab,b=a;seed=a"): ("64077/17711", 64077, 28657),
}


class TestAceAtTheProfileBudget:
    @pytest.mark.parametrize("gen, params", ACE_AT_THE_BUDGET)
    def test_recorded_estimate_and_witness(self, capsys, gen, params):
        estimate, length, offset = ACE_AT_THE_BUDGET[gen, params]
        extra = ("--params", params) if params else ()
        code, out, err = invoke(capsys, "ace", "--gen", gen, *extra, "--prefix", "100000", "--tail", "8", "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps({
            "estimate": estimate, "generator": gen, "prefix": 100000, "tail": 8,
            "witness_length": length, "witness_offset": offset,
        }) + "\n"

# SHA-256 of `ace --prefix 100000 --tail 8 --format csv` stdout, at the
# profile budget, recorded while `AceEstimate` still built the csv.
ACE_CSV_AT_THE_BUDGET = {
    ("thue-morse", None): "c2c73a1eb107809dfef6352a0572e726707b8a3fe8799ae59602a61c40f1f70e",
    ("interleaved", "n=4"): "91e32b1f717330a741bacd779ec2afaf2bbe5ea2b0a09bc8bdaebdd6b1e88056",
}


class TestAceCsvAtTheProfileBudget:
    @pytest.mark.parametrize("gen, params", ACE_CSV_AT_THE_BUDGET)
    def test_recorded_digest(self, capsys, gen, params):
        extra = ("--params", params) if params else ()
        code, out, err = invoke(capsys, "ace", "--gen", gen, *extra, "--prefix", "100000", "--tail", "8", "--format", "csv")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == ACE_CSV_AT_THE_BUDGET[gen, params]


# SHA-256 of `generate ... --format json` stdout, recorded before morphic
# fixed points grew through a power of their morphism, keyed by
# (generator, params, prefix).
GENERATE_DIGESTS = {
    ("thue-morse", None, 1000): "dc3c80f75d96e36487fd0fc8e6595a5730fe0961d636c4964562e5465f27a175",
    ("thue-morse", None, 100000): "d4183566efa9b8650228df6362501888c33d31554030b8dcc03c2d45882c50e1",
    ("morphic", "rules=a=ab,b=aa,c=bb;seed=a", 1000): "8e4622056e85a04e908197b9089b2553c24aeedd70c42b145d185de1b1f4db6e",
    ("morphic", "rules=a=ab,b=aa,c=bb;seed=a", 100000): "b4d65d3521954ef1fc05f3431d6abeec6d7b00aceefe75fb20f74e485115ea41",
    ("morphic", "rules=a=ab,b=a;seed=a", 1000): "8028bb89205b701f4f7f22d16f7b040b365716f395a84b9bebf5cbbe6295dcdc",
    ("morphic", "rules=a=ab,b=a;seed=a", 100000): "10eaf28624988a0a4e1a254c3af204c5b8383fb0ef5219ca48d78955c4cb5b65",
    ("morphic", "rules=a=abbc,b=,c=cc;seed=a", 1000): "d4fab11e370a9bfbab3cc605fe919502156d24d971d8727d62ebd0e2910299da",
    ("morphic", "rules=a=abbc,b=,c=cc;seed=a", 100000): "9d8dbe9deedacc88798428f90b6cbfb0b6fdb8d9bed503a746b46ea6d25884e0",
    ("interleaved", "n=3", 1000): "5b899514c8b6d5d0ce622c782f8ed2b0053290723591934d1f177146b2f2cb1b",
    ("interleaved", "n=3", 100000): "63bb9b19f9d21c7ee868b90576a520a0cb047ba268f1366e2d72b00a680b9727",
    ("optimal-binary", "n=2;k=2;m=8", 1000): "a866f5c5158644843da62b8422a4a5615dff4c31e2159d727a4a566771099fe9",
    ("optimal-binary", "n=2;k=2;m=8", 100000): "636db2565c5ca4529710108323a7196083b6d7b45a74b73f01f6cd369c17e0ac",
    # Recorded before the word was written unescaped, uniform images were
    # expanded by columns and interleaved copies were renamed once each.
    ("thue-morse", None, 400000): "d33e037d5828295ce7290be93577376000d973a5403b92c440f26c02436fb1c8",
    ("morphic", "rules=a=ab,b=cb,c=ac;seed=a", 400000): "daa188d8a7be6fc76f28f746d0d3f68d35d04af02e8164587e6f4da28a6e2283",
    ("interleaved", "n=3", 400000): "539314643694edfaa8f8c2d2e21b8ab76c17e7d733981e916aea1f0504d045d1",
    ("optimal-binary", "n=2;k=2;m=8", 400000): "7e2fb598d10ad1d6ca4045c9ac49e80404b2e02ee2057ba6a1c902016df8727e",
    ("periodic", 'v=a"b\\c', 1000): "90348e6cb0da9aefa215cc88f251691e6f96a042f9d4e0f96bf4b50003fb5fe1",
    ("periodic", "v=\x01x\x7f\xe9", 1000): "e2944ae6a8099f26e9912ab8addbfc1dcdd0e4e4cc98f66334878065719b2f22",
}


class TestGenerateByteStable:
    def test_stdout_digests(self, capsys):
        for (gen, params, prefix), digest in GENERATE_DIGESTS.items():
            extra = ("--params", params) if params else ()
            code, out, _ = invoke(capsys, "generate", "--gen", gen, *extra, "--prefix", str(prefix), "--format", "json")
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (gen, params, prefix)


class TestGenerateJson:
    """`generate --format json` against json.dumps of the same record."""

    SPECS = (
        ("periodic", "v=abcabb"),
        ("thue-morse", None),
        ("morphic", "rules=a=ab,b=cb,c=ac;seed=a"),
        ("morphic", "rules=a=abbc,b=,c=cc;seed=a"),
        ("interleaved", "n=3"),
        ("interleaved", "n=2;base=morphic:0=001,1=10:0"),
        ("optimal-binary", "n=2;k=2;m=8"),
        ("optimal-binary", "n=1;k=2;m=7;base=periodic:01"),
    )
    # Periodic words with letters json escapes; the path follows the
    # alphabet, so a prefix whose escaped letters all lie past its end is
    # written by json too (`ab"` at prefix 2), with the same bytes.
    ESCAPED = ('a"b', "a\\b", "ab\x01", "\x7fab", "\xe9ab", ' ~"\\\x7f', 'ab"')
    ESCAPED_LETTERS = '"\\\x01\x7f\xe9'

    @pytest.fixture
    def emitted(self, monkeypatch):
        """The records written through `cli._emit`, the json module's path."""
        records = []
        emit = cli._emit

        def spy(record, *args, **kwargs):
            records.append(record)
            emit(record, *args, **kwargs)

        monkeypatch.setattr(cli, "_emit", spy)
        return records

    def check(self, capsys, emitted, gen, params, prefix, plain):
        emitted.clear()
        extra = ("--params", params) if params else ()
        code, out, _ = invoke(capsys, "generate", "--gen", gen, *extra, "--prefix", str(prefix), "--format", "json")
        word = infinite.generator_from_spec(gen, infinite._parse_params(params)).prefix(prefix)
        record = {"generator": gen, "prefix": prefix, "word": word}
        assert (code, out) == (0, json.dumps(record, sort_keys=True) + "\n"), (gen, params, prefix)
        assert (not emitted) == plain, (gen, params, prefix)

    def test_every_generator(self, capsys, emitted):
        for gen, params in self.SPECS:
            for prefix in (0, 1, 999, 400_000):
                self.check(capsys, emitted, gen, params, prefix, plain=True)

    def test_words_that_need_escaping_go_through_json(self, capsys, emitted):
        for v in self.ESCAPED:
            for prefix in (1, 2, 3, 5000):
                plain = set(v).isdisjoint(self.ESCAPED_LETTERS)
                self.check(capsys, emitted, "periodic", f"v={v}", prefix, plain)

    def test_generator_is_freed_before_the_word_is_written(self, monkeypatch):
        # Its parts hold the word's letters a second time, and writing the
        # word encodes a third copy.
        refs = []

        def spec(name, params):
            gen = infinite.generator_from_spec(name, params)
            refs.append(weakref.ref(gen))
            return gen

        class Out(io.StringIO):
            def write(self, text):
                assert refs[-1]() is None
                return super().write(text)

        monkeypatch.setattr(cli, "generator_from_spec", spec)
        for gen, params in (*self.SPECS, ("periodic", 'v=a"b')):
            extra = ("--params", params) if params else ()
            for fmt in ("json", "text"):
                monkeypatch.setattr(sys, "stdout", Out())
                assert run(["generate", "--gen", gen, *extra, "--prefix", "999", "--format", fmt]) == 0
                assert sys.stdout.getvalue(), (gen, params, fmt)

    def test_every_letter_lies_in_the_alphabet(self):
        # The contract the plain path (and ImageGenerator's skipped scan)
        # rests on; optimal-binary's intermediate stream keeps it as well.
        rng = random.Random(19)
        specs = [*self.SPECS, ("morphic", "rules=a=ab,b=ba,c=cc;seed=a")]
        specs += [("periodic", f"v={v}") for v in ('a"b', "a\\b", "\x7fab", "\xe9ab")]
        specs += [("periodic", "v=" + "".join(rng.choice('ab"\\\x7f\xe9') for _ in range(rng.randint(1, 9))))
                  for _ in range(10)]
        for gen_name, params in specs:
            sizes = [0, 1, 999, 50_000]
            rng.shuffle(sizes)
            gen = infinite.generator_from_spec(gen_name, infinite._parse_params(params))
            for n in sizes:
                assert set(gen.prefix(n)) <= set(gen.alphabet), (gen_name, params, n)
                if gen_name == "optimal-binary":
                    assert set(gen.base.prefix(n)) <= set(gen.base.alphabet), (params, n)


# sha256 of `family highpower --n N` stdout, recorded before the spreading
# morphism moved to morphisms.spreading_morphism.
HIGHPOWER_DIGESTS = {
    2: "450c45a747ffd343da37ecc74aeb01d2c40eeda034541dd07c8a79cdff27c2f0",
    3: "b965b21050cb63e67eac4372d95179c1fa4f67e5e7ff3bf604b0fa585c51b281",
    4: "748a5c2345a381e5511c2fb740343fd1e73e2057730f91865af05ec47b51d2cf",
    5: "a0e8b5edc60e5a34e354db01c09c88d05aa841621402f935c2a5613b62f48cf8",
    6: "80aa565e0cf97b3ac4ba341a85670cb231cb7fb51cbd1537f1898c9f5e91b8a5",
}


class TestHighpowerByteStable:
    def test_stdout_digests(self, capsys):
        for n, digest in HIGHPOWER_DIGESTS.items():
            code, out, _ = invoke(capsys, "family", "highpower", "--n", str(n))
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, n


class TestModuleEntryPoint:
    def test_python_m_morphexp(self):
        src = str(Path(morphexp.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", "morphexp", "exp", "abab"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, "E = 2 (base ab); IE = 2 (root ab)", "")

    @pytest.mark.parametrize("argv", (
        ("generate", "--gen", "thue-morse", "--prefix", "2000000"),
        ("generate", "--gen", "thue-morse", "--prefix", "2000000", "--format", "json"),
        ("ace", "--gen", "thue-morse", "--prefix", "20000", "--tail", "8", "--format", "csv"),
    ))
    def test_closed_stdout_exits_1_without_a_traceback(self, argv):
        # Each output is far longer than a 64 KiB pipe buffer, so a write
        # always finds the pipe closed.
        src = str(Path(morphexp.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "morphexp", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        assert len(proc.stdout.read(5)) == 5
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in err and "Exception ignored" not in err
