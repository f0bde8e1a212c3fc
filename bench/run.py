"""morphexp benchmark: seeded workloads through `morphexp.cli.run`.

    python3 bench/run.py --workload ace-profile --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Each workload runs in a child process (one client, one thread, closed loop)
after the set-up time has been measured in fresh interpreters.  With
`--trace 0` the last line of stdout is the end-to-end result, with
`--trace 1` the per-layer result of a traced run; the lines before it are a
readable table and a JSON report with run metadata, output-check results and
the size-tier growth.  `--workload all` runs every workload in turn.

    python3 bench/run.py --record-digests   # rewrite bench/digests.json
    python3 bench/selftest.py               # the benchmark's own tests

Workloads:
  ace-profile    ace --tail 8 on thue-morse, optimal-binary, interleaved and a
                 seeded periodic word at prefixes 256, 512 and 1024: nearly
                 all time is the period profile (words).
  word-queries   a seeded stream of 2000 short queries (exp, classify,
                 witness, lower-bound, xdegree, sync, family): CLI per-call
                 cost, object construction and the morphism search.
  generate-long  generate on thue-morse, seeded morphic rules, interleaved
                 and optimal-binary at prefixes 100000, 200000 and 400000:
                 generator growth (infinite); the control for ace-profile.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "tier_n_s": "s",
    "tier_2n_s": "s",
    "tier_4n_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_RUNS = 9
SETUP_CODE = "import morphexp.cli; morphexp.cli.build_parser()"
CHILD_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time of a fresh interpreter importing morphexp.cli and
    building its parser, which every CLI invocation pays.  One untimed run
    first writes the bytecode caches.  The wait has no timeout on purpose:
    a wait with a timeout polls at growing intervals, and the poll schedule
    would be measured instead of the interpreter."""
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=child_env(), stdin=subprocess.DEVNULL)
        if proc.wait() != 0:
            raise RuntimeError(f"set-up interpreter exited {proc.returncode}")
        if i:
            times.append(perf_counter() - t0)
    return statistics.median(times), times


def run_child(workload: str, seed: int, seconds: int, trace: int, size: str) -> dict:
    argv = [sys.executable, str(BENCH / "harness.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(argv, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def metadata(workload: str, seed: int, seconds: int, trace: int, size: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int, size: str) -> dict:
    """One workload: set-up timing (untraced runs only), the child run, and
    the result with units."""
    setup = measure_setup() if not trace else None
    child = run_child(workload, seed, seconds, trace, size)
    units = spans.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    values = dict(child["metrics"])
    report = {"meta": metadata(workload, seed, seconds, trace, size), **child["report"]}
    if setup is not None:
        values["setup_s"] = setup[0]
        report["setup_runs_s"] = setup[1]
    return {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "report": report,
    }


def print_table(result: dict) -> None:
    meta = result["report"]["meta"]
    print(f"# {meta['workload']} seed={meta['seed']} seconds={meta['seconds']} trace={meta['trace']}"
          f" attempted={result['attempted']} failed={result['failed']} digests={result['report']['digests']}")
    for name, m in result["metrics"].items():
        print(f"{name:52s} {m['value']:>16.6g} {m['unit']}")
    growth = result["report"]["growth"]
    if meta["trace"]:
        for name, g in growth.items():
            tiers = " ".join(f"{t}={s:.4g}s" for t, s in g["tier_s"].items())
            print(f"growth {name}: {tiers} 4n/2n={g['growth']:.4g}")
        return
    # fail_frac is not in the result line: it is 0 on a correct run, and the
    # line carries "attempted" and "failed" instead.
    print(f"{'fail_frac':52s} {result['report']['fail_frac']:>16.6g} ratio")
    tail = result["report"]["op_tail"]
    print(f"op_tail_ms is p{tail['percentile']:g} (ten samples beyond it in {tail['window_samples']}),"
          f" over the mean latencies of {tail['ops']} ops")
    tiers = " ".join(f"{t}={s:.4g}s" for t, s in growth["tier_s"].items())
    print(f"growth end-to-end: {tiers} 4n/2n={growth['tier_4n_over_2n']:.4g}")


def main() -> int:
    parser = argparse.ArgumentParser(description="morphexp benchmark",
                                     epilog="Workloads: " + ", ".join(workloads.WORKLOADS))
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny: small inputs for the self-test")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite bench/digests.json for the default seeds")
    args = parser.parse_args()

    if not (SRC / "morphexp" / "cli.py").is_file():
        print(f"error: no morphexp sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.record_digests:
        import harness

        harness.record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, args.size)
        print_table(result)
        print(json.dumps({"report": result.pop("report")}))
        results[name] = result
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
