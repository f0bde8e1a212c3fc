"""One workload run in its own process: the timed loop, the output checks and
the metrics.

Run by run.py as

    python3 bench/harness.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

It prints one JSON object.  One client, one thread, closed loop: each op is
sent to `morphexp.cli.run` only after the previous one returned.  Ops pass
only documented CLI flags (no --engine, no --threads) and the harness touches
no private name of the program.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import checks
import spans
import workloads
from workloads import TIERS, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEEDS = range(10)
DIGEST_HEX = 8


def load_cli():
    """Import morphexp.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import morphexp.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "morphexp":
        raise RuntimeError(f"morphexp imported from {cli.__file__}, not from {SRC}")
    return cli


def stdout_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:DIGEST_HEX]


def recorded_digests(workload: str, seed: int, ops: list[Op], size: str) -> tuple[list[str] | None, str]:
    """Per-op stdout digests recorded for this seed, and why they are absent
    when they are."""
    if size != "full":
        return None, "not recorded for this size"
    if not DIGESTS.is_file():
        return None, "no digest file"
    entry = json.loads(DIGESTS.read_text()).get("seeds", {}).get(str(seed), {}).get(workload)
    if entry is None:
        return None, "not recorded for this seed"
    if entry["inputs"] != workloads.inputs_digest(ops):
        return None, "recorded for other inputs"
    tokens = entry["stdout_sha256"]
    return [tokens[i:i + DIGEST_HEX] for i in range(0, len(tokens), DIGEST_HEX)], "checked"


class Runner:
    """Executes ops through morphexp.cli.run and keeps what the checks need."""

    def __init__(self, cli, ops: list[Op], expected: list[str] | None):
        self.cli = cli
        self.ops = ops
        self.expected = expected
        self.latency_ns: list[list[int]] = [[] for _ in ops]
        self.first_stdout: dict[int, str] = {}
        self.mismatches: Counter = Counter()   # op index -> executions that failed
        self.reasons: dict[int, str] = {}
        self.tracer = None

    def call(self, argv) -> tuple[int | None, int, str, str]:
        """(exit code or None for a traceback, ns, stdout, stderr)"""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter_ns()
            try:
                rc = self.cli.run(list(argv))
            except Exception:
                rc = None
                traceback.print_exc(file=err)
            t1 = perf_counter_ns()
        return rc, t1 - t0, out.getvalue(), err.getvalue()

    def execute(self, i: int) -> None:
        root = self.tracer.open_root(i) if self.tracer else None
        rc, ns, stdout, stderr = self.call(self.ops[i].argv)
        self.latency_ns[i].append(ns)
        if rc != 0:
            self.mismatches[i] += 1
            self.reasons.setdefault(i, f"exit code {rc}: {stderr.strip()[-200:]}")
        elif self.expected is not None and stdout_digest(stdout) != self.expected[i]:
            self.mismatches[i] += 1
            self.reasons.setdefault(i, "stdout digest differs from the recorded one")
        elif i not in self.first_stdout:
            self.first_stdout[i] = stdout
        if root is not None:
            self.tracer.close_root(root)

    def generate(self, argv) -> str:
        rc, _, stdout, stderr = self.call(argv)
        if rc != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {rc}: {stderr.strip()[-200:]}")
        return stdout

    def check_outputs(self) -> None:
        """Independent checks, once per distinct op that ran; a wrong output
        fails every execution of that op."""
        for i, stdout in self.first_stdout.items():
            try:
                reason = checks.check(self.ops[i], stdout, self.generate)
            except Exception as exc:
                reason = f"check raised {exc!r}"
            if reason is not None:
                self.mismatches[i] = len(self.latency_ns[i])
                self.reasons.setdefault(i, reason)

    @property
    def attempted(self) -> int:
        return sum(map(len, self.latency_ns))

    @property
    def failed(self) -> int:
        return sum(self.mismatches.values())

    def failures(self, limit: int = 5) -> list[dict]:
        return [{"argv": " ".join(self.ops[i].argv)[:200], "reason": r}
                for i, r in list(self.reasons.items())[:limit]]


def warm_up(runner: Runner) -> None:
    """One untimed pass: imports, first-call paths and the growth of the
    heap to the largest outputs are paid before timing starts.  One call
    per op kind is not enough: on generate-long the first pass after it
    still ran about 1.5 times slower than the rest, which the per-op means
    would carry."""
    for op in runner.ops:
        runner.call(op.argv)


def passes_loop(runner: Runner, passes: int) -> float:
    """Run whole passes over the op list; returns the wall time."""
    start = perf_counter()
    for _ in range(passes):
        for i in range(len(runner.ops)):
            runner.execute(i)
    return perf_counter() - start


def timed_loop(runner: Runner, seconds: float) -> list[float]:
    """Run whole passes for about `seconds`; returns each pass's wall time.
    Whole passes keep every op's share of the samples fixed, so the
    statistics do not depend on where the clock stopped.  The loop stops at
    the pass end nearest to `seconds`, so a run of long passes does not
    overrun by up to a whole pass."""
    walls: list[float] = []
    while not walls or sum(walls) + statistics.median(walls) / 2 < seconds:
        walls.append(passes_loop(runner, 1))
    return walls


TAIL_WINDOW_SAMPLES = 60


def op_means_ms(runner: Runner) -> list[float]:
    """Each op's mean latency over the passes, ascending.  The latency
    statistics are read from these.  With a dozen ops of very different
    cost per pass, a statistic of raw samples lands on one op's slowest run
    or the next op's fastest.  A mean, not a median, over the passes: on a
    shared host the CPU speed switches between a fast and a slow state that
    each last a minute or so (about 1.5x apart on a 2-core Xeon VM), and a
    per-op median snaps to whichever state held most of the run while a
    mean moves with the share of the run each state held.  Over 35-second
    windows of one 7-minute ace-profile run the spread of the latency
    statistics fell from about 0.27 to 0.15 of their median."""
    return sorted(statistics.fmean(lat) / 1e6 for lat in runner.latency_ns)


def tail(runner: Runner) -> tuple[float, dict]:
    """Latency at the highest percentile that has at least ten samples
    beyond it in the samples of the fewest whole passes holding at least
    TAIL_WINDOW_SAMPLES (p83.3 for a dozen ops per pass, p99.5 for 2000),
    over the ops' mean latencies."""
    n = len(runner.ops)
    window = n * -(-TAIL_WINDOW_SAMPLES // n)
    rank = -(-(window - 10) * n // window)
    return op_means_ms(runner)[rank - 1], {
        "percentile": round(100.0 * (window - 10) / window, 3),
        "window_samples": window,
        "ops": n,
    }


def tier_seconds(runner: Runner) -> dict[str, float]:
    """Summed op time of each size tier in one pass: the per-op mean
    latencies of the tier's ops, added up."""
    return {
        tier: sum(statistics.fmean(lat) for op, lat in zip(runner.ops, runner.latency_ns) if op.tier == tier) / 1e9
        for tier in TIERS
    }


def mix_report(ops: list[Op]) -> dict:
    kinds = Counter(op.kind for op in ops)
    searching = [op.reach for op in ops if op.kind in ("classify", "witness")]
    return {
        "ops_per_pass": len(ops),
        "op_counts": dict(sorted(kinds.items())),
        "op_shares": {k: round(v / len(ops), 4) for k, v in sorted(kinds.items())},
        "search_reach_share": round(sum(searching) / len(searching), 4) if searching else 0.0,
    }


def end_to_end(runner: Runner, pass_walls: list[float]) -> tuple[dict, dict]:
    tail_ms, tail_report = tail(runner)
    tiers = tier_seconds(runner)
    metrics = {
        "ops_per_s": len(runner.ops) * len(pass_walls) / sum(pass_walls),
        "op_p50_ms": statistics.median(op_means_ms(runner)),
        "op_tail_ms": tail_ms,
        "tier_n_s": tiers["n"],
        "tier_2n_s": tiers["2n"],
        "tier_4n_s": tiers["4n"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "op_tail": tail_report,
        "passes": len(pass_walls),
        "pass_wall_s": pass_walls,
        "growth": {"tier_s": tiers, "tier_4n_over_2n": tiers["4n"] / tiers["2n"] if tiers["2n"] else 0.0},
    }
    return metrics, report


def traced(runner: Runner, seconds: float, workload: str, seed: int) -> tuple[dict, dict]:
    # Untraced passes for half the budget, then the same passes traced:
    # the difference in wall time is the tracing overhead.
    walls = timed_loop(runner, seconds / 2)
    untraced_s, passes = sum(walls), len(walls)
    runner.tracer = spans.Tracer()
    runner.tracer.install()
    traced_s = passes_loop(runner, passes)
    tracer, runner.tracer = runner.tracer, None

    analysis = tracer.analyse([op.tier for op in runner.ops])
    overhead = traced_s - untraced_s
    # Counts and times per pass, so they do not depend on how many passes
    # fit in the time budget.
    metrics = {
        name: value / passes if spans.PER_LAYER_UNITS[name] in ("count", "s", "letters") else value
        for name, value in spans.per_layer_metrics(tracer, analysis, overhead).items()
    }
    layers = spans.layer_self_times(analysis)
    self_sum = sum(layers.values())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{workload}-seed{seed}.bin.gz"
    tracer.write(span_file)
    profile, prefix = "words.minimal_period_profile", "infinite.prefix"
    report = {
        "passes": passes,
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "spans": analysis["spans"],
        "span_file": str(span_file.relative_to(ROOT)),
        "missing": tracer.missing,
        "layer_self_s": layers,
        "self_sum_check": {
            "self_sum_s": self_sum,
            "traced_wall_s": traced_s,
            "gap_s": traced_s - self_sum,
            "within_overhead": abs(traced_s - self_sum) <= abs(overhead),
        },
        "growth": {
            name: {"tier_s": {t: analysis["tier_s"].get((name, t), 0.0) / passes for t in TIERS},
                   "growth": metrics[f"{name}.growth"]}
            for name in (profile, prefix)
        },
    }
    return metrics, report


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 expected: list[str] | None = None, digest_status: str | None = None) -> dict:
    """Build the seeded inputs, run them and check every output."""
    cli = load_cli()
    ops = workloads.build(workload, seed, size)
    if digest_status is None:
        expected, digest_status = recorded_digests(workload, seed, ops, size)
    runner = Runner(cli, ops, expected)
    warm_up(runner)
    if trace:
        metrics, report = traced(runner, seconds, workload, seed)
    else:
        metrics, report = end_to_end(runner, timed_loop(runner, seconds))
    runner.check_outputs()
    report.update({
        "fail_frac": runner.failed / runner.attempted,
        "digests": digest_status,
        "failures": runner.failures(),
        "mix": mix_report(ops),
    })
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "report": report,
    }


def record_digests(seeds=DEFAULT_SEEDS) -> None:
    """Run every op of every workload once for each default seed and write
    the stdout digests to digests.json.  Every op must exit 0 and pass the
    independent checks first."""
    cli = load_cli()
    table: dict[str, dict] = {}
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            ops = workloads.build(workload, seed)
            runner = Runner(cli, ops, None)
            passes_loop(runner, 1)
            runner.check_outputs()
            if runner.failed:
                raise SystemExit(f"{workload} seed {seed}: {runner.failures()}")
            table.setdefault(str(seed), {})[workload] = {
                "inputs": workloads.inputs_digest(ops),
                "stdout_sha256": "".join(stdout_digest(runner.first_stdout[i]) for i in range(len(ops))),
            }
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    DIGESTS.write_text(json.dumps({"digest_hex": DIGEST_HEX, "seeds": table}, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
