"""Exact expected-utility core for decisions under risk.

A problem is a matrix: mutually exclusive chance outcomes with rational
probabilities, options that classify every outcome as favorable or
unfavorable, and a two-level utility assignment. Expected utilities are
`fractions.Fraction`s; floats never enter the ranking. The oracle,
`best_options`, ranks integers: each option's favorable weight over the lcm
of the probability denominators, times the numerator of the utility gap.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple


class InputError(ValueError):
    """The program refuses what it was given. Each layer raises one subclass
    (`MatrixError`, `formats.ProblemFormatError`, `compiler.CompileError`,
    `compiler.ProtocolError`, `gel.GelError`); anything else is a fault."""


class MatrixError(InputError):
    """A decision matrix violates one of its invariants."""


class DuplicateLabelError(MatrixError):
    """Two labels, or label pairs, would name one strand; a sweep counts
    these apart from other refusals."""


class Payoff(Enum):
    FAVORABLE = "favorable"
    UNFAVORABLE = "unfavorable"


class Outcome(NamedTuple):
    label: str
    probability: Fraction


class Option(NamedTuple):
    """One course of action, with a payoff class per outcome (matrix order)."""

    label: str
    payoffs: tuple[Payoff, ...]

    def favorable_indices(self) -> tuple[int, ...]:
        return tuple(j for j, p in enumerate(self.payoffs) if p is Payoff.FAVORABLE)


class DecisionMatrix(NamedTuple):
    outcomes: tuple[Outcome, ...]
    options: tuple[Option, ...]
    u_favorable: Fraction = Fraction(1)
    u_unfavorable: Fraction = Fraction(0)


def build_matrix(
    outcomes: list[tuple[str, Fraction]],
    options: list[tuple[str, list[str]]],
    u_favorable: Fraction = Fraction(1),
    u_unfavorable: Fraction = Fraction(0),
) -> DecisionMatrix:
    """Assemble a matrix from labels; each option lists its favorable outcomes."""
    outs = tuple(Outcome(lbl, Fraction(p)) for lbl, p in outcomes)
    labels = [o.label for o in outs]
    known, opts = set(labels), []
    for i, (lbl, favorable) in enumerate(options):
        for k, f in enumerate(favorable):
            if f not in known:
                raise MatrixError(
                    f"options[{i}].favorable[{k}]: "
                    f"option {lbl!r} marks unknown outcome {f!r} favorable"
                )
        marked = set(favorable)
        payoffs = tuple(Payoff.FAVORABLE if o in marked else Payoff.UNFAVORABLE for o in labels)
        opts.append(Option(lbl, payoffs))
    return validate_matrix(
        DecisionMatrix(outs, tuple(opts), Fraction(u_favorable), Fraction(u_unfavorable))
    )


def validate_matrix(matrix: DecisionMatrix) -> DecisionMatrix:
    """Check all structural invariants; return the matrix unchanged if sound.
    Each refusal leads with the field a problem file spells it in."""
    if not matrix.options:
        raise MatrixError("options: a decision needs at least one option")
    for i, out in enumerate(matrix.outcomes):
        if not 0 <= out.probability <= 1:
            raise MatrixError(f"outcomes[{i}].probability ({out.label!r}): outside [0, 1]")
    total = sum((o.probability for o in matrix.outcomes), Fraction(0))
    if total != 1:
        raise MatrixError(f"outcomes: probabilities sum to {total}, expected 1")
    for family, labels in (
        ("outcome", [o.label for o in matrix.outcomes]),
        ("option", [o.label for o in matrix.options]),
    ):
        seen: set[str] = set()
        for i, lbl in enumerate(labels):
            if lbl in seen:
                raise DuplicateLabelError(
                    f"{family}s[{i}].label: duplicate {family} label {lbl!r}"
                )
            seen.add(lbl)
    for i, opt in enumerate(matrix.options):
        if len(opt.payoffs) != len(matrix.outcomes):
            raise MatrixError(
                f"options[{i}]: option {opt.label!r} classifies {len(opt.payoffs)} outcomes, "
                f"expected {len(matrix.outcomes)}"
            )
    if matrix.u_favorable < matrix.u_unfavorable:
        raise MatrixError(
            "utilities: favorable utility must be at least the unfavorable utility"
        )
    return matrix


def expected_utility(matrix: DecisionMatrix, option_index: int) -> Fraction:
    """Probability-weighted utility of one option, as an exact rational."""
    opt = matrix.options[option_index]
    total = Fraction(0)
    for out, payoff in zip(matrix.outcomes, opt.payoffs):
        utility = matrix.u_favorable if payoff is Payoff.FAVORABLE else matrix.u_unfavorable
        total += out.probability * utility
    return total


def best_options(matrix: DecisionMatrix) -> list[int]:
    """Indices of all maximal-expected-utility options, ascending (ties kept).

    With L the lcm of the probability denominators, an option's favorable
    weight F is its favorable probability mass times L, an integer. With
    u_favorable - u_unfavorable = span / d in lowest terms (d > 0), its
    expected utility is u_unfavorable + span * F / (d * L), so ranking by the
    integer span * F gives the same argmax and ties for any sign of span,
    also on a matrix that `validate_matrix` never saw."""
    common = math.lcm(*(out.probability.denominator for out in matrix.outcomes))
    weights = [out.probability.numerator * (common // out.probability.denominator)
               for out in matrix.outcomes]
    span = (matrix.u_favorable - matrix.u_unfavorable).numerator
    scores = [span * sum(w for w, p in zip(weights, opt.payoffs) if p is Payoff.FAVORABLE)
              for opt in matrix.options]
    top = max(scores)
    return [i for i, s in enumerate(scores) if s == top]

