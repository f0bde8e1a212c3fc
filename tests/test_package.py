"""The package as a whole: its public names and its imports."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import morphexp

PUBLIC = {
    # words
    "FractionalPower", "ParseError", "WordError", "border_array", "fractional_exponent", "fresh_letters",
    "letter_set", "minimal_period_profile", "parse_rational", "prefix_comparable", "smallest_period",
    "suffix_comparable",
    # morphisms
    "Morphism", "is_code", "parse_morphism", "spreading_morphism", "words_up_to",
    # mapped_exponent
    "FINITE", "INFINITE", "UNKNOWN", "GapFactorization", "MappedExponentVerdict", "classify_general",
    "gap_factorization", "highpower_word", "lowpower_morphism", "mapped_exponent_lower_bound", "pump_witness",
    # codes
    "CodeSet", "is_synchronizing", "parse_code_set", "x_degree",
    # infinite
    "AceEstimate", "ImageGenerator", "InterleavedCopiesGenerator", "MorphicGenerator", "OptimalBinaryGenerator",
    "PeriodicGenerator", "StreamGenerator", "WordGenerator", "ace_estimate", "cassaigne_morphism",
    "generator_from_spec", "thue_morse",
}


def test_public_names():
    assert sorted(morphexp.__all__) == sorted(PUBLIC)


def test_the_library_imports_only_the_standard_library():
    sources = sorted(Path(morphexp.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                assert top in sys.stdlib_module_names, (path.name, top)


def test_every_imported_name_is_read():
    sources = [path for path in sorted(Path(morphexp.__file__).parent.glob("*.py")) if path.name != "__init__.py"]
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert imported <= read, (path.name, sorted(imported - read))


def test_the_result_records_are_named_tuples():
    records = {
        morphexp.FractionalPower: (("base", "exponent"), {}),
        morphexp.GapFactorization: (("letter", "head", "gap", "tail", "gap_count"), {}),
        morphexp.MappedExponentVerdict: (("tag", "witness", "search_bound"), {"witness": None, "search_bound": None}),
        morphexp.AceEstimate: (("estimate", "witness_offset", "witness_length"), {}),
    }
    for record, (fields, defaults) in records.items():
        assert issubclass(record, tuple) and (record._fields, record._field_defaults) == (fields, defaults)
    estimate, offset, length = morphexp.AceEstimate(Fraction(2), 112, 8)
    assert (estimate, offset, length) == (2, 112, 8)


def test_the_cli_starts_without_the_introspection_modules():
    # `dataclasses` would load `inspect`, and with it `ast`, `dis` and `tokenize`.
    src = str(Path(morphexp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = ("import sys, morphexp.cli; morphexp.cli.build_parser(); "
            "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")
