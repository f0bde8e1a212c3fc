"""The benchmark's word-queries, ace-profile and generate-long ops print
what bench/digests.json recorded.

The benchmark checks every op's stdout against the recorded digests only
while it runs; this test runs the same op lists through `cli.run`, so a
change to any output the benchmark relies on fails tier-1 too.  Each list
runs twice in one process, as the benchmark's timed loop repeats passes:
first with the per-process memos empty, then with what the first pass left
in them.  The digest file is only read here.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from morphexp import infinite, mapped_exponent
from morphexp.cli import run

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    # workloads imports its neighbour naive from bench/ as well.
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def differing_ops(workloads, workload, seed):
    """The ops of two recorded passes, cold and warm, whose exit code or
    stdout digest differ, each with the pass it ran in."""
    recorded = json.loads((BENCH / "digests.json").read_text())
    hex_len = recorded["digest_hex"]
    entry = recorded["seeds"][str(seed)][workload]
    ops = workloads.build(workload, seed)
    assert entry["inputs"] == workloads.inputs_digest(ops)
    tokens = entry["stdout_sha256"]
    expected = [tokens[i:i + hex_len] for i in range(0, len(tokens), hex_len)]
    assert len(expected) == len(ops)
    infinite._setups.clear()
    mapped_exponent._spaces.clear()
    differing = []
    for memo in ("cold", "warm"):
        for op, digest in zip(ops, expected):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = run(list(op.argv))
            if rc != 0 or hashlib.sha256(out.getvalue().encode()).hexdigest()[:hex_len] != digest:
                differing.append((memo, rc, op.argv))
    return differing


@pytest.mark.parametrize("seed", [0, 1])
def test_word_queries_match_the_recorded_digests(seed, workloads):
    differing = differing_ops(workloads, "word-queries", seed)
    assert not differing, differing[:5]


@pytest.mark.parametrize("seed", range(10))
def test_ace_profile_matches_the_recorded_digests(seed, workloads):
    differing = differing_ops(workloads, "ace-profile", seed)
    assert not differing, differing[:5]


@pytest.mark.parametrize("seed", range(10))
def test_generate_long_matches_the_recorded_digests(seed, workloads):
    differing = differing_ops(workloads, "generate-long", seed)
    assert not differing, differing[:5]
