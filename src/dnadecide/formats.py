"""Reading and writing decision problems as JSON.

A problem file looks like:

    {
      "outcomes": [{"label": "red", "probability": "4/9"}, ...],
      "options": [{"label": "option-1", "favorable": ["red", "black"]}, ...],
      "utilities": {"favorable": "1", "unfavorable": "0"}
    }

Probabilities and utilities are exact rationals written as strings ("4/9",
"1", "0.5", "5e-1"); a JSON number such as 0.5 is refused, as is a value,
or a sum or estimate of the values (`_check_scale`), that Python will not
print (over 4300 digits by default). The "utilities" block is optional and
defaults to 1 for favorable and 0 for unfavorable outcomes.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from .decision import DecisionMatrix, InputError, build_matrix


class ProblemFormatError(InputError):
    """The problem file is malformed; the message names the offending field."""


def _digit_limit() -> int:
    # 10**limit is slow to build and too long to print; no limit (0) gets the default
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _check_scale(where: str, p_den: int, *utilities: Fraction) -> None:
    """Refuse, at `where`, a problem whose sums and estimates Python will not
    print. Each has a denominator dividing L*U and a numerator at most M*L*U
    (L = `p_den` and U the lcms of the probability and utility denominators,
    M the largest utility numerator), times under 20 digits of PCR gain,
    band length and outcome count. Digits are counted from bits, to within one."""
    u_den = math.lcm(*(u.denominator for u in utilities))
    top = max([1, *(abs(u.numerator) for u in utilities)])
    if (p_den * u_den * top).bit_length() * math.log10(2) > _digit_limit() - 20:
        raise ProblemFormatError(f"{where}: with it, sums and estimates are too long to print")


def _fraction(raw, where: str) -> Fraction:
    if not isinstance(raw, str):
        raise ProblemFormatError(
            f"{where}: expected a rational written as a string, got {type(raw).__name__}"
        )
    limit = _digit_limit()
    exponent = re.search(r"e[-+]?([\d_]+)\s*\Z", raw, re.IGNORECASE)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > len(str(limit)) or int(digits or 0) >= limit:
        raise ProblemFormatError(f"{where}: exponent in {raw[:40]!r} must be below {limit}")
    try:
        value = Fraction(raw)
        str(value)  # refuses a numerator or denominator of more than `limit` digits
    except ZeroDivisionError:
        raise ProblemFormatError(f"{where}: denominator is zero in {raw!r}") from None
    except ValueError:
        raise ProblemFormatError(f"{where}: cannot parse {raw!r} as a rational") from None
    return value


def _string(raw, where: str) -> str:
    if not isinstance(raw, str) or not raw:
        raise ProblemFormatError(f"{where}: expected a non-empty string")
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate escape such as "\ud800"
        raise ProblemFormatError(f"{where}: not encodable as UTF-8: {exc.reason}") from None
    return raw


def parse_problem(text: str) -> DecisionMatrix:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ProblemFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProblemFormatError("top level: expected an object")
    for key in ("outcomes", "options"):
        if key not in doc:
            raise ProblemFormatError(f"top level: missing required key {key!r}")
        if not isinstance(doc[key], list) or not doc[key]:
            raise ProblemFormatError(f"{key}: expected a non-empty list")
    stray = set(doc) - {"outcomes", "options", "utilities"}
    if stray:
        raise ProblemFormatError(f"top level: unknown key {sorted(stray)[0]!r}")

    outcomes, p_den = [], 1
    for i, entry in enumerate(doc["outcomes"]):
        if not isinstance(entry, dict):
            raise ProblemFormatError(f"outcomes[{i}]: expected an object")
        label = _string(entry.get("label"), f"outcomes[{i}].label")
        prob = _fraction(entry.get("probability"), f"outcomes[{i}].probability")
        p_den = math.lcm(p_den, prob.denominator)
        _check_scale(f"outcomes[{i}].probability", p_den)
        outcomes.append((label, prob))

    options = []
    for i, entry in enumerate(doc["options"]):
        if not isinstance(entry, dict):
            raise ProblemFormatError(f"options[{i}]: expected an object")
        label = _string(entry.get("label"), f"options[{i}].label")
        favorable = entry.get("favorable")
        if not isinstance(favorable, list):
            raise ProblemFormatError(f"options[{i}].favorable: expected a list")
        favorable = [
            _string(f, f"options[{i}].favorable[{j}]") for j, f in enumerate(favorable)
        ]
        options.append((label, favorable))

    utilities = doc.get("utilities", {"favorable": "1", "unfavorable": "0"})
    if not isinstance(utilities, dict) or set(utilities) != {"favorable", "unfavorable"}:
        raise ProblemFormatError(
            "utilities: expected exactly the keys 'favorable' and 'unfavorable'"
        )
    u_fav = _fraction(utilities["favorable"], "utilities.favorable")
    _check_scale("utilities.favorable", p_den, u_fav)
    u_unf = _fraction(utilities["unfavorable"], "utilities.unfavorable")
    _check_scale("utilities.unfavorable", p_den, u_fav, u_unf)

    return build_matrix(outcomes, options, u_favorable=u_fav, u_unfavorable=u_unf)


def load_problem(path: str | Path) -> DecisionMatrix:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"{path}: not UTF-8 text: {exc}") from None
    return parse_problem(text)


def dump_problem(matrix: DecisionMatrix) -> str:
    doc = {
        "outcomes": [
            {"label": o.label, "probability": str(o.probability)}
            for o in matrix.outcomes
        ],
        "options": [
            {
                "label": opt.label,
                "favorable": [
                    matrix.outcomes[i].label for i in opt.favorable_indices()
                ],
            }
            for opt in matrix.options
        ],
        "utilities": {
            "favorable": str(matrix.u_favorable),
            "unfavorable": str(matrix.u_unfavorable),
        },
    }
    return json.dumps(doc, indent=2) + "\n"
