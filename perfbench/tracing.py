"""Spans around the calls into each dnadecide layer, recorded from outside.

`Tracer.installed()` swaps each traced function for a wrapper under every
name that a dnadecide module binds it to (``wetlab.cut`` as well as
``strands.cut``), so the callers' own lookups hit the wrapper. The program
itself is not edited. Leaving the context restores every original binding.

A wrapper records a span (name, parent span, start, end) and, for a few
functions, a count taken from the return value. Spans stay in memory for
one job; `end_job` folds them into per-name self time and call totals.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

from dnadecide import cli, compiler, decision, formats, gel, soundness, strands, wetlab


def _cut_counts(counts: Counter, pieces) -> None:
    counts["strands.cut.useful"] += len(pieces) > 1


def _digest_counts(counts: Counter, tube) -> None:
    counts["wetlab.digest.fragments"] += sum(
        len(lengths) for lengths in tube.log[-1]["fragments"].values()
    )


def _violation_counts(counts: Counter, violations) -> None:
    counts["compiler.validate_encoding.violations"] += len(violations)


def _band_counts(counts: Counter, run) -> None:
    counts["gel.bands"] += sum(len(lane.bands) for lane in run.sample_lanes())


# (span name, owner, attribute, count taken from the return value)
TARGETS = (
    ("cli.main", cli, "main", None),
    ("formats.parse_problem", formats, "parse_problem", None),
    ("decision.validate_matrix", decision, "validate_matrix", None),
    ("decision.best_options", decision, "best_options", None),
    ("compiler.compile_problem", compiler, "compile_problem", None),
    ("compiler.generate_sequences", compiler, "generate_sequences", None),
    ("compiler.validate_encoding", compiler, "validate_encoding", _violation_counts),
    ("compiler.describe", compiler.EncodingPlan, "describe", None),
    ("compiler.describe", compiler.ProtocolPlan, "describe", None),
    ("wetlab.mix", wetlab, "mix", None),
    ("wetlab.apply_thresholds", wetlab, "apply_thresholds", None),
    ("wetlab.assemble", wetlab, "assemble", None),
    ("wetlab.split_tubes", wetlab, "split_tubes", None),
    ("wetlab.digest", wetlab, "digest", _digest_counts),
    ("wetlab.pcr", wetlab, "pcr", None),
    ("wetlab.purify", wetlab, "purify", None),
    ("strands.cut", strands, "cut", _cut_counts),
    ("strands.find_sites", strands, "find_sites", None),
    ("gel.run_gel", gel, "run_gel", _band_counts),
    ("gel.readout", gel, "readout", None),
    ("gel.band_table", gel, "band_table", None),
    ("gel.render", gel, "render", None),
    ("soundness.random_matrix", soundness, "random_matrix", None),
    ("soundness.run_end_to_end", soundness, "run_end_to_end", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in TARGETS))


def _bindings(fn):
    """Every (owner, attribute) in the loaded dnadecide modules bound to `fn`."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "dnadecide" and not mod_name.startswith("dnadecide."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                yield module, attr


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end] of the current job
        self._stack: list[int] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.jobs = 0

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target under each name it is bound to; restore on exit."""
        saved = []
        try:
            for name, owner, attr, count in TARGETS:
                fn = vars(owner)[attr]
                wrapper = self._wrap(name, fn, count)
                places = [(owner, attr)] if isinstance(owner, type) else list(_bindings(fn))
                for place, place_attr in places:
                    saved.append((place, place_attr, fn))
                    setattr(place, place_attr, wrapper)
            yield self
        finally:
            for place, place_attr, fn in reversed(saved):
                setattr(place, place_attr, fn)

    def end_job(self) -> None:
        """Fold the current job's spans into self time and call totals."""
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, _, start, end), inner in zip(self.spans, child_s):
            self.self_s[name] += end - start - inner
            self.calls[name] += 1
        self.spans.clear()
        self.jobs += 1

    def totals(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def absorb(self, totals: dict) -> None:
        """Add the totals of a tracer that ran in another process."""
        self.self_s.update(totals["self_s"])
        self.calls.update(totals["calls"])
        self.counts.update(totals["counts"])


PER_LAYER = (
    [(f"{name}.self_ms", "ms") for name in SPAN_NAMES]
    + [
        ("strands.cut.calls", "count"),
        ("strands.cut.useful_frac", "ratio"),
        ("strands.find_sites.calls", "count"),
        ("wetlab.digest.calls", "count"),
        ("wetlab.digest.fragments", "count"),
        ("compiler.validate_encoding.violations", "count"),
        ("gel.bands", "count"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    """Per-job self time and counts of every traced layer, by metric name."""
    jobs = tracer.jobs
    values = {f"{name}.self_ms": 1000 * tracer.self_s[name] / jobs for name in SPAN_NAMES}
    for name in ("strands.cut", "strands.find_sites", "wetlab.digest"):
        values[f"{name}.calls"] = tracer.calls[name] / jobs
    cuts = tracer.calls["strands.cut"]
    values["strands.cut.useful_frac"] = tracer.counts["strands.cut.useful"] / cuts if cuts else 0.0
    for name in (
        "wetlab.digest.fragments",
        "compiler.validate_encoding.violations",
        "gel.bands",
    ):
        values[name] = tracer.counts[name] / jobs
    values["trace.overhead_frac"] = overhead_frac
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
