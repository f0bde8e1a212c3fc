"""Spans around the calls into each morphexp module, recorded from outside.

`Tracer.install` replaces public functions and methods with timing wrappers
in every morphexp module namespace that holds them, so a call is traced
wherever it is looked up (`morphexp.cli.ace_estimate` as well as
`morphexp.infinite.ace_estimate`).  A name that does not exist is skipped and
listed in `missing`.  Spans (name, start, end, parent) are kept in flat
arrays and written out when the run ends; self times and the per-layer
metrics are derived from them afterwards.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (metric prefix, module, attribute path, how to wrap)
#   span:  a timed span per call
#   count: a call counter only (constructors called too often for spans)
#   steps: a generator function; each resumption is a span
TARGETS = (
    ("cli.run", "cli", "run", "span"),
    ("cli.build_parser", "cli", "build_parser", "span"),
    ("words.minimal_period_profile", "words", "minimal_period_profile", "span"),
    ("words.smallest_period", "words", "smallest_period", "span"),
    ("words.fractional_exponent", "words", "fractional_exponent", "span"),
    ("words.Word.init", "words", "Word.__init__", "count"),
    ("words.Alphabet.init", "words", "Alphabet.__init__", "count"),
    ("morphisms.enumerate_injective", "morphisms", "enumerate_injective", "steps"),
    ("morphisms.sardinas_patterson", "morphisms", "sardinas_patterson", "span"),
    ("morphisms.Morphism.init", "morphisms", "Morphism.__init__", "span"),
    ("morphisms.Morphism.apply", "morphisms", "Morphism.apply", "span"),
    ("mapped_exponent.classify_general", "mapped_exponent", "classify_general", "span"),
    ("mapped_exponent.classify_binary", "mapped_exponent", "classify_binary", "span"),
    ("mapped_exponent.pump_witness", "mapped_exponent", "pump_witness", "span"),
    ("mapped_exponent.mapped_exponent_lower_bound", "mapped_exponent", "mapped_exponent_lower_bound", "span"),
    ("codes.x_degree", "codes", "x_degree", "span"),
    ("codes.is_synchronizing", "codes", "is_synchronizing", "span"),
    ("infinite.prefix", "infinite", "WordGenerator.prefix", "span"),
    ("infinite.ace_estimate", "infinite", "ace_estimate", "span"),
    ("infinite.generator_from_spec", "infinite", "generator_from_spec", "span"),
)

ROOT_SPAN = "bench.op"
LAYERS = ("bench", "cli", "words", "morphisms", "mapped_exponent", "codes", "infinite")


def _first_arg(args, kwargs, name, pos):
    return kwargs[name] if name in kwargs else args[pos]


def _probed(args, kwargs) -> bool:
    # is_synchronizing(w, code, probe_len): below |w| + 2 * max_len the
    # answer comes from the literal probe instead of the saturated rule.
    w = _first_arg(args, kwargs, "w", 0)
    code = _first_arg(args, kwargs, "code", 1)
    probe = kwargs.get("probe_len", args[2] if len(args) > 2 else None)
    return probe is not None and probe < len(w) + 2 * code.max_len


# Counters derived from a call's arguments and result, by metric prefix.
def _hooks(tracer: "Tracer") -> dict:
    counts = tracer.counts

    def profile(args, kwargs, result):
        n = len(_first_arg(args, kwargs, "w", 0))
        counts["words.minimal_period_profile.letters"] += n
        counts["words.minimal_period_profile.letters2"] += n * n

    def sardinas(args, kwargs, result):
        counts["morphisms.sardinas_patterson.codes"] += result is None

    def apply(args, kwargs, result):
        counts["morphisms.Morphism.apply.letters_out"] += len(result)

    def classify(args, kwargs, result):
        counts[f"mapped_exponent.classify_general.{result.tag}"] += 1

    def sync(args, kwargs, result):
        counts["codes.is_synchronizing.probed"] += _probed(args, kwargs)

    prefix_id = tracer._id("infinite.prefix")

    def prefix(args, kwargs, result):
        # Letters of outermost calls only, to match infinite.prefix.s.
        if all(tracer.name[j] != prefix_id for j in tracer._stack):
            counts["infinite.prefix.letters"] += len(result)

    return {
        "words.minimal_period_profile": profile,
        "morphisms.sardinas_patterson": sardinas,
        "morphisms.Morphism.apply": apply,
        "mapped_exponent.classify_general": classify,
        "codes.is_synchronizing": sync,
        "infinite.prefix": prefix,
    }


class Tracer:
    """Span store and wrapper factory for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.root_ops: dict[int, int] = {}
        # enumerate_injective generators: the span that created each one
        # and how many images it yielded.
        self.creators = array("i")
        self.yields = array("q")
        self._hooks = _hooks(self)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, sid: int) -> int:
        idx = len(self.start)
        self.name.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def open_root(self, op_index: int) -> int:
        idx = self._open(self._id(ROOT_SPAN))
        self.root_ops[idx] = op_index
        return idx

    close_root = _close

    # -- wrappers ---------------------------------------------------------

    def _span(self, prefix: str, fn):
        sid = self._id(prefix)
        hook = self._hooks.get(prefix)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _count(self, prefix: str, fn):
        counts = self.counts
        key = prefix + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _steps(self, prefix: str, fn):
        sid = self._id(prefix)
        tracer = self

        def steps(inner, creation):
            while True:
                idx = tracer._open(sid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer.yields[creation] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            creation = len(tracer.creators)
            tracer.creators.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.yields.append(0)
            return steps(fn(*args, **kwargs), creation)

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists in the loaded morphexp package."""
        for prefix, module_name, path, how in TARGETS:
            module = sys.modules.get(f"morphexp.{module_name}")
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(prefix)
                continue
            wrapper = getattr(self, "_" + how)(prefix, original)
            holders = [owner] if owner is not module else [
                m for name, m in sys.modules.items()
                if name == "morphexp" or name.startswith("morphexp.")
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    # -- analysis ---------------------------------------------------------

    def analyse(self, op_tiers: list[str | None]) -> dict:
        """Per-name totals, self times and per-tier times from the spans."""
        n = len(self.start)
        names, name, start, end, parent = self.names, self.name, self.start, self.end, self.parent
        dur = array("q", (end[i] - start[i] for i in range(n)))
        child = array("q", bytes(8 * n))
        root = array("i", range(n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
        calls: Counter = Counter()
        total: Counter = Counter()    # outermost spans of each name, in ns
        self_ns: Counter = Counter()
        tier_ns: Counter = Counter()  # (name, tier) -> outermost ns
        for i in range(n):
            label = names[name[i]]
            calls[label] += 1
            self_ns[label] += dur[i] - child[i]
            p = parent[i]
            while p >= 0 and name[p] != name[i]:
                p = parent[p]
            if p < 0:
                total[label] += dur[i]
                op = self.root_ops.get(root[i])
                if op is not None:
                    tier_ns[label, op_tiers[op]] += dur[i]
        return {
            "calls": calls,
            "total_s": {k: v / 1e9 for k, v in total.items()},
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "tier_s": {k: v / 1e9 for k, v in tier_ns.items()},
            "spans": n,
        }

    def write(self, path) -> None:
        """Write the spans as a gzip file: one JSON header line, then the
        name, start, end and parent columns as raw native arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [["name", "h"], ["start_ns", "q"], ["end_ns", "q"], ["parent", "i"]],
            "root_ops": {str(k): v for k, v in self.root_ops.items()},
        }
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent):
                column.tofile(f)


# Every per-layer metric the traced run prints, with its unit.
PER_LAYER_UNITS = {
    "cli.run.calls": "count",
    "cli.run.s": "s",
    "cli.build_parser.s": "s",
    "cli.self_s": "s",
    "words.minimal_period_profile.calls": "count",
    "words.minimal_period_profile.s": "s",
    "words.minimal_period_profile.letters": "letters",
    "words.minimal_period_profile.ns_per_letter2": "ns/letter2",
    "words.minimal_period_profile.growth": "ratio",
    "words.smallest_period.calls": "count",
    "words.smallest_period.s": "s",
    "words.fractional_exponent.calls": "count",
    "words.fractional_exponent.s": "s",
    "words.Word.init_calls": "count",
    "words.Alphabet.init_calls": "count",
    "morphisms.enumerate_injective.calls": "count",
    "morphisms.enumerate_injective.yielded": "count",
    "morphisms.enumerate_injective.s": "s",
    "morphisms.sardinas_patterson.calls": "count",
    "morphisms.sardinas_patterson.codes": "count",
    "morphisms.sardinas_patterson.s": "s",
    "morphisms.sardinas_patterson.code_ratio": "ratio",
    "morphisms.Morphism.init_calls": "count",
    "morphisms.Morphism.init_s": "s",
    "morphisms.Morphism.apply.calls": "count",
    "morphisms.Morphism.apply.s": "s",
    "morphisms.Morphism.apply.letters_out": "letters",
    "mapped_exponent.classify_general.calls": "count",
    "mapped_exponent.classify_general.s": "s",
    "mapped_exponent.classify_general.infinite": "count",
    "mapped_exponent.classify_general.finite": "count",
    "mapped_exponent.classify_general.unknown": "count",
    "mapped_exponent.classify_general.search_share": "ratio",
    "mapped_exponent.classify_binary.calls": "count",
    "mapped_exponent.classify_binary.s": "s",
    "mapped_exponent.pump_witness.calls": "count",
    "mapped_exponent.pump_witness.s": "s",
    "mapped_exponent.mapped_exponent_lower_bound.calls": "count",
    "mapped_exponent.mapped_exponent_lower_bound.s": "s",
    "mapped_exponent.mapped_exponent_lower_bound.scored": "count",
    "codes.x_degree.calls": "count",
    "codes.x_degree.s": "s",
    "codes.is_synchronizing.calls": "count",
    "codes.is_synchronizing.s": "s",
    "codes.is_synchronizing.probed_share": "ratio",
    "infinite.prefix.calls": "count",
    "infinite.prefix.s": "s",
    "infinite.prefix.letters": "letters",
    "infinite.prefix.ns_per_letter": "ns/letter",
    "infinite.prefix.growth": "ratio",
    "infinite.ace_estimate.calls": "count",
    "infinite.ace_estimate.s": "s",
    "infinite.ace_estimate.self_s": "s",
    "infinite.generator_from_spec.s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, analysis: dict, overhead_s: float) -> dict[str, float]:
    """The PER_LAYER_UNITS values.  A target that is missing or never called
    reads 0; `tracer.missing` says which were missing."""
    calls, total, self_s, tier = (analysis[k] for k in ("calls", "total_s", "self_s", "tier_s"))
    counts = tracer.counts

    def searched_by(prefix: str) -> tuple[int, int]:
        # (distinct spans of `prefix` that created an enumeration, images yielded to them)
        pid = tracer._ids.get(prefix)
        parents = [p for p in tracer.creators if p >= 0 and tracer.name[p] == pid]
        yielded = sum(y for p, y in zip(tracer.creators, tracer.yields) if p >= 0 and tracer.name[p] == pid)
        return len(set(parents)), yielded

    def growth(prefix: str) -> float:
        return _ratio(tier.get((prefix, "4n"), 0.0), tier.get((prefix, "2n"), 0.0))

    classify = "mapped_exponent.classify_general"
    lower = "mapped_exponent.mapped_exponent_lower_bound"
    profile = "words.minimal_period_profile"
    out = {
        "cli.self_s": self_s.get("cli.run", 0.0) + self_s.get("cli.build_parser", 0.0),
        f"{profile}.ns_per_letter2": _ratio(total.get(profile, 0.0) * 1e9, counts[profile + ".letters2"]),
        f"{profile}.growth": growth(profile),
        "words.Word.init_calls": counts["words.Word.init_calls"],
        "words.Alphabet.init_calls": counts["words.Alphabet.init_calls"],
        "morphisms.enumerate_injective.calls": len(tracer.creators),
        "morphisms.enumerate_injective.yielded": sum(tracer.yields),
        "morphisms.sardinas_patterson.code_ratio": _ratio(
            counts["morphisms.sardinas_patterson.codes"], calls["morphisms.sardinas_patterson"]),
        "morphisms.Morphism.init_calls": calls["morphisms.Morphism.init"],
        "morphisms.Morphism.init_s": total.get("morphisms.Morphism.init", 0.0),
        f"{classify}.search_share": _ratio(searched_by(classify)[0], calls[classify]),
        f"{lower}.scored": searched_by(lower)[1],
        "codes.is_synchronizing.probed_share": _ratio(
            counts["codes.is_synchronizing.probed"], calls["codes.is_synchronizing"]),
        "infinite.prefix.ns_per_letter": _ratio(
            total.get("infinite.prefix", 0.0) * 1e9, counts["infinite.prefix.letters"]),
        "infinite.prefix.growth": growth("infinite.prefix"),
        "infinite.ace_estimate.self_s": self_s.get("infinite.ace_estimate", 0.0),
        "trace.overhead_s": overhead_s,
    }
    for metric in PER_LAYER_UNITS:
        if metric in out:
            continue
        prefix, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = calls[prefix]
        elif stat == "s":
            out[metric] = total.get(prefix, 0.0)
        else:
            out[metric] = counts[metric]
    return out


def layer_self_times(analysis: dict) -> dict[str, float]:
    """Self time of each layer: its spans minus the spans nested in them."""
    out = {layer: 0.0 for layer in LAYERS}
    for label, seconds in analysis["self_s"].items():
        out[label.split(".", 1)[0]] += seconds
    return out
