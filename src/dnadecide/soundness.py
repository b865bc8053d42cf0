"""End-to-end soundness sweeps against the exact expected-utility oracle.

Each trial draws a random decision problem, pushes it through the whole
pipeline (compile, simulate, image, read out), and checks it by
`DecisionReport.agreement`: the set of options chosen from the gel must
equal the exact argmax set, every band its predicted band and every
estimate the exact expected utility. Probabilities
are built from small integer weights so every denominator stays modest
and every comparison stays exact.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import NamedTuple

from .compiler import EncodingPlan, ProtocolPlan, check_cycles, compile_problem
from .decision import DecisionMatrix, build_matrix
from .formats import dump_problem
from .gel import DecisionReport, GelRun, readout, run_gel
from .strands import EXTENDED_BLUNT_CUTTERS
from .wetlab import run_protocol


# the sweep's size limits: options and outcomes per problem, weight per outcome
MAX_OPTIONS = 5
MAX_OUTCOMES = 5
MAX_WEIGHT = 12


def random_matrix(rng: random.Random) -> DecisionMatrix:
    """A random problem with exact probabilities and binary utilities.

    Outcome probabilities are integer weights over a common denominator
    (at most `MAX_OUTCOMES * MAX_WEIGHT`, i.e. 60), every option marks a
    non-empty proper-or-full subset of outcomes favorable.
    """
    n_out = rng.randint(2, MAX_OUTCOMES)
    n_opt = rng.randint(2, MAX_OPTIONS)
    weights = [rng.randint(1, MAX_WEIGHT) for _ in range(n_out)]
    total = sum(weights)
    outcomes = [(f"outcome-{i + 1}", Fraction(w, total)) for i, w in enumerate(weights)]
    labels = [lbl for lbl, _ in outcomes]
    options = []
    for j in range(n_opt):
        picked = [lbl for lbl in labels if rng.random() < 0.5]
        if not picked:
            picked = [rng.choice(labels)]
        options.append((f"option-{j + 1}", picked))
    return build_matrix(outcomes, options)


def run_end_to_end(
    matrix: DecisionMatrix,
    seed: int,
    cycles: int,
) -> tuple[DecisionReport, EncodingPlan, ProtocolPlan, GelRun]:
    """Compile, simulate, image, and read out one problem."""
    plan, protocol = compile_problem(
        matrix,
        seed=seed,
        library=EXTENDED_BLUNT_CUTTERS,
        pcr_cycles=cycles,
    )
    tubes = run_protocol(plan, protocol)
    run = run_gel(tubes)
    return readout(run, plan), plan, protocol, run


class SoundnessResult(NamedTuple):
    trials: int
    elapsed: float
    # (trial, problem JSON, what first disagreed) per failed trial
    failures: tuple[tuple[int, str, str], ...] = ()

    @property
    def agreements(self) -> int:
        return self.trials - len(self.failures)

    @property
    def ok(self) -> bool:
        # zero trials pass vacuously; a sweep only fails on a counterexample
        return not self.failures

    def describe(self) -> str:
        lines = [
            f"soundness sweep: {self.agreements}/{self.trials} agree "
            f"with the exact oracle ({self.elapsed:.2f}s)"
        ]
        for index, problem, disagreement in self.failures:
            lines.append(f"  trial {index}: {disagreement}")
            lines.append("    " + problem.replace("\n", "\n    "))
        return "\n".join(lines) + "\n"


def verify_soundness(trials: int, seed: int, cycles: int) -> SoundnessResult:
    """Run `trials` random problems end to end, each judged by `DecisionReport.agreement`.
    A cycle count `pcr` would refuse is refused before the first trial, however many."""
    check_cycles(cycles)
    rng = random.Random(seed)
    started = time.perf_counter()
    failures = []
    for index in range(trials):
        matrix = random_matrix(rng)
        report, _, _, _ = run_end_to_end(matrix, seed=index, cycles=cycles)
        if not report.agreement:
            failures.append((index, dump_problem(matrix), report.disagreement))
    return SoundnessResult(trials, time.perf_counter() - started, tuple(failures))
