import random
import sys
from fractions import Fraction

import pytest

from dnadecide.decision import DecisionMatrix, build_matrix
from dnadecide.wetlab import TubeState


def gc_fraction(seq: str) -> Fraction:
    """Share of G and C bases in a non-empty sequence."""
    return Fraction(sum(1 for b in seq if b in "GC"), len(seq))


def concentration(tube: TubeState, key: str) -> Fraction:
    """A species' amount in stock units (0 if it is not in the tube)."""
    sp = tube.species.get(key)
    return Fraction(sp.count, tube.plan.intensity_scale()) if sp else Fraction(0)


def make_ball_game() -> DecisionMatrix:
    """Urn draw with three outcomes (4/9, 1/3, 2/9) and three two-favorable options."""
    return build_matrix(
        outcomes=[
            ("red", Fraction(4, 9)),
            ("black", Fraction(1, 3)),
            ("white", Fraction(2, 9)),
        ],
        options=[
            ("option-1", ["red", "black"]),
            ("option-2", ["red", "white"]),
            ("option-3", ["black", "white"]),
        ],
    )


def make_five_by_five() -> DecisionMatrix:
    """Five equiprobable outcomes; option i is favorable on the first i + 1."""
    return build_matrix(
        outcomes=[(f"o{j}", Fraction(1, 5)) for j in range(5)],
        options=[(f"a{i}", [f"o{j}" for j in range(i + 1)]) for i in range(5)],
    )


def make_widest(rng: random.Random) -> DecisionMatrix:
    """13 options x 5 outcomes: every one of the 18 extended enzymes in use."""
    weights = [rng.randint(1, 12) for _ in range(5)]
    labels = [f"outcome-{j + 1}" for j in range(5)]
    outcomes = [(lbl, Fraction(w, sum(weights))) for lbl, w in zip(labels, weights)]
    options = [
        (f"option-{i + 1}", [lbl for lbl in labels if rng.random() < 0.5])
        for i in range(13)
    ]
    return build_matrix(outcomes, options)


@pytest.fixture
def ball_game() -> DecisionMatrix:
    return make_ball_game()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdicts collected during the run, if any."""
    module = sys.modules.get("test_acceptance")
    if module is None:
        return
    lines = module.verdict_lines()
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(lines):
        terminalreporter.write_line(line)
