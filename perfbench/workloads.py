"""The four workloads: seeded job streams, each job checked against the oracle.

A workload's `jobs(seed, context)` yields jobs. A job is a zero-argument
callable that runs one closed-loop request, raises `JobFailed` (or
anything else) when the answer is wrong, and returns the bytes its
outputs fingerprint over. Streams are lazy and are consumed in order.

Why each workload exists:

- cli-run: what a user waits for. One fresh ``python -m dnadecide.cli run``
  per job on the bundled 3x3 ball game (core library, 5 cycles), so
  interpreter start and import dominate.
- verify-sweep: the ``dnadecide verify`` trial stream in process, on the
  extended library. Problems from 2x2 to 5x5, so a change tuned to one
  size shows in the p90. Digest dominates.
- wide: 13 options x 5 outcomes, all 18 extended enzymes, mirroring
  ``run --input --enzymes extended`` with 5 cycles. Tens of thousands of
  ``strands.cut`` calls per job, few of which cut.
- design: the ``dnadecide compile`` path in process (parse, compile,
  validate_encoding, describe, FASTA) with no protocol. The only workload
  that reaches ``validate_encoding``.

The mixed-size workloads run their sizes in balanced blocks: every block
holds one problem of each size from 2x2 to 5x5, and a run ends on a block
boundary. Which sizes a seed happens to draw would otherwise move the
p90 by a third from seed to seed.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from dnadecide import compiler, decision, formats, gel, soundness, strands, wetlab

HERE = Path(__file__).resolve().parent
CLI_CHILD = HERE / "cli_child.py"
CLI_OUTPUTS = ("report.txt", "bands.tsv", "gel.svg", "gel.txt")
ORACLE_LINE = "matches the exact oracle"
CHILD_TIMEOUT_S = 60
# (options, outcomes) of one balanced block, as `soundness.random_matrix` draws them
SIZES = tuple((options, outcomes) for options in range(2, 6) for outcomes in range(2, 6))

Job = Callable[[], bytes]


class JobFailed(Exception):
    """A job ran but its answer or output is wrong."""


@dataclass
class Context:
    """What jobs may use besides their inputs."""

    workdir: Path  # scratch directory inside the checkout
    env: dict  # environment for child interpreters, PYTHONPATH at the checkout's src
    tracer: object | None = None  # set during traced passes


@dataclass(frozen=True)
class Workload:
    """A seeded job stream and how the benchmark runs it."""

    jobs: Callable[[int, Context], Iterator[Job]]
    block: int  # a run ends after a whole number of blocks of this many jobs
    trace_jobs: int  # jobs per pass of a traced run
    in_child: bool  # each job runs in a child process

    @property
    def rusage(self) -> int:
        """Whose peak RSS the run reports: the process that does the work."""
        return resource.RUSAGE_CHILDREN if self.in_child else resource.RUSAGE_SELF


def _checked_report(report, matrix) -> None:
    oracle = tuple(decision.best_options(matrix))
    if report.chosen != oracle:
        raise JobFailed(f"chose {report.chosen}, oracle says {oracle}")


def random_problem(rng: random.Random, options: int, outcomes: int) -> str:
    """Problem JSON with integer-weight probabilities, like `random_matrix`."""
    weights = [rng.randint(1, 12) for _ in range(outcomes)]
    total = sum(weights)
    labels = [f"outcome-{i + 1}" for i in range(outcomes)]
    doc_options = []
    for j in range(options):
        picked = [lbl for lbl in labels if rng.random() < 0.5] or [rng.choice(labels)]
        doc_options.append({"label": f"option-{j + 1}", "favorable": picked})
    doc = {
        "outcomes": [
            {"label": lbl, "probability": f"{w}/{total}"} for lbl, w in zip(labels, weights)
        ],
        "options": doc_options,
    }
    return json.dumps(doc)


def cli_run(seed: int, ctx: Context) -> Iterator[Job]:
    rng = random.Random(f"cli-run:{seed}")
    while True:
        argv = ["run", "--seed", str(rng.randrange(1 << 20)), "--outdir", "out"]
        yield functools.partial(_cli_job, ctx, argv)


def _cli_job(ctx: Context, argv: list[str]) -> bytes:
    totals_file = ctx.workdir / "totals.json"
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "dnadecide.cli", *argv]
    else:
        cmd = [sys.executable, str(CLI_CHILD), str(totals_file), *argv]
    proc = subprocess.run(
        cmd,
        cwd=ctx.workdir,
        env=ctx.env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or ORACLE_LINE not in proc.stdout:
        raise JobFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    if ctx.tracer is not None:
        ctx.tracer.absorb(json.loads(totals_file.read_text()))
    outdir = ctx.workdir / "out"
    return proc.stdout.encode() + b"".join((outdir / name).read_bytes() for name in CLI_OUTPUTS)


def verify_sweep(seed: int, ctx: Context) -> Iterator[Job]:
    """`verify` trials, drawn from one generator, in balanced blocks of sizes.

    For each size of a block, `random_matrix` draws from the sweep's
    generator until it returns that size; the job replays the accepted
    draw from the generator's saved state, so each trial calls
    `random_matrix` once, as `verify` does.
    """
    rng = random.Random(seed)
    index = itertools.count()
    while True:
        for size in SIZES:
            while True:
                state = rng.getstate()
                matrix = soundness.random_matrix(rng)
                if (len(matrix.options), len(matrix.outcomes)) == size:
                    break
            yield functools.partial(_verify_trial, state, next(index))


def _verify_trial(state: tuple, index: int) -> bytes:
    rng = random.Random()
    rng.setstate(state)
    matrix = soundness.random_matrix(rng)
    report, plan, _, run = soundness.run_end_to_end(matrix, seed=index, cycles=3)
    _checked_report(report, matrix)
    return (gel.band_table(run) + plan.to_fasta() + report.describe()).encode()


def wide(seed: int, ctx: Context) -> Iterator[Job]:
    rng = random.Random(f"wide:{seed}")
    for index in itertools.count():
        text = random_problem(rng, options=13, outcomes=5)
        yield functools.partial(_wide_job, text, index)


def _wide_job(text: str, index: int) -> bytes:
    matrix = formats.parse_problem(text)
    plan, protocol = compiler.compile_problem(
        matrix, seed=index, library=strands.EXTENDED_BLUNT_CUTTERS, pcr_cycles=5
    )
    tubes = wetlab.run_protocol(plan, protocol, cycles=5)
    run = gel.run_gel(tubes)
    report = gel.readout(run, plan, matrix)
    _checked_report(report, matrix)
    return (gel.band_table(run) + plan.to_fasta() + report.describe()).encode()


def design(seed: int, ctx: Context) -> Iterator[Job]:
    rng = random.Random(f"design:{seed}")
    index = itertools.count()
    while True:
        for options, outcomes in SIZES:
            text = random_problem(rng, options, outcomes)
            yield functools.partial(_design_job, text, next(index))


def _design_job(text: str, index: int) -> bytes:
    matrix = formats.parse_problem(text)
    plan, protocol = compiler.compile_problem(
        matrix, seed=index, library=strands.EXTENDED_BLUNT_CUTTERS
    )
    violations = compiler.validate_encoding(plan)
    if violations:
        raise JobFailed(f"{len(violations)} encoding violation(s), first: {violations[0]}")
    return (plan.to_fasta() + plan.describe() + protocol.describe()).encode()


WORKLOADS = {
    "cli-run": Workload(cli_run, block=1, trace_jobs=4, in_child=True),
    "verify-sweep": Workload(verify_sweep, block=len(SIZES), trace_jobs=len(SIZES), in_child=False),
    "wide": Workload(wide, block=1, trace_jobs=2, in_child=False),
    "design": Workload(design, block=len(SIZES), trace_jobs=3 * len(SIZES), in_child=False),
}
