import json

import pytest

from morphexp.cli import run
from morphexp.codes import CodeSet, is_synchronizing, x_degree
from morphexp.infinite import ace_estimate, thue_morse
from morphexp.mapped_exponent import classify_general, mapped_exponent_lower_bound


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


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert invoke(capsys, "exp", "ab,cd")[0] == 2
        assert invoke(capsys, "nosuchcommand")[0] == 2
        assert invoke(capsys, "witness", "abab")[0] == 2  # missing --target

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

    def test_threads_option_is_gone(self, capsys):
        code, out, err = invoke(capsys, "lower-bound", "ab", "--max-image-len", "2", "--threads", "2")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --threads 2" in err

    def test_usage_error_then_valid_command(self, capsys):
        code, out, err = invoke(capsys, "exp", "abab", "--bogus")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --bogus" in err
        code, out, err = invoke(capsys, "exp", "abab")
        assert (code, out.strip(), err) == (0, "E = 2 (base ab); IE = 2 (root ab)", "")

    def test_success_is_0(self, capsys):
        assert invoke(capsys, "exp", "a")[0] == 0


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

    def test_ace_equals_library(self, capsys):
        _, out, _ = invoke(capsys, "ace", "--gen", "thue-morse", "--prefix", "128", "--tail", "8", "--format", "json")
        record = json.loads(out)
        est = ace_estimate(thue_morse(), 128, 8)
        assert record["estimate"] == str(est.estimate)
        assert record["witness_offset"] == est.witness_offset
