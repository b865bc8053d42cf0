"""Hand-transcribed reference sequences for the canonical urn problem.

These pieces cover one representative path of the three-by-three encoding
(first option, first outcome) plus that outcome's threshold and the two
primers. They are kept verbatim, transcription defects included: the
tests use them as a negative-control corpus, judged by the geometry table
and rules of `validate_encoding`, which must flag exactly what is wrong
with them rather than silently repairing anything.

Strands marked FLIP below were transcribed in displayed 3'->5' orientation
(positionwise complements lying under a top strand) and are reversed on
load so that every sequence handed out is 5'->3'.
"""

from __future__ import annotations

from .compiler import (
    OVERHANG_LENGTH,
    ROLE_CHOICE,
    ROLE_TERM,
    role_option,
    role_prob,
    role_thresh,
    role_util,
)
from .decision import DecisionMatrix

KEEP, FLIP = "5to3", "3to5"

# printed piece -> (strand it transcribes, orientation, sequence); the path is
# option-1 with outcome red, and a duplex bottom is named by its role and a prime
_RAW: dict[str, tuple[str, str, str]] = {
    "choice.top": ("choice", KEEP, "GGACCGACACACAAAGACCTCTCATTCTCTGAGTAGCCG"),
    "choice.bottom": ("choice'", FLIP, "CCTGGCTGTGTGTTTCTGGA"),
    "option": ("option:option-1", KEEP, "TCTGACTCAGCTGAGATCCA"),
    "prob.top": ("prob:red", KEEP, "ACATCAGGAGTACGTGAATCCCTTC"),
    "prob.bottom": ("prob:red'", FLIP, "CATGCAC"),
    "util": ("util:red", KEEP, "CCGACAAACAGGTGGCTACAC"),
    "term.top": ("term", KEEP, "TGGTCTCGCCAAGGAAAATTCCGTAGATGGTCGCTCACAA"),
    "term.bottom": ("term'", FLIP, "GGCATCTACCAGCGAGTGT"),
    "link.choice": ("link:choice:option-1", FLIP, "GAGTAAGGAGACTCATCGGCAGACTGAGTC"),
    "chance": ("chance:option-1:red", FLIP, "GACTCTAGGTTGTAGTGCCT"),
    "link.prob": ("link:prob:red", FLIP, "TTAGGGAAGGGGCTGTTGTG"),
    "link.util": ("link:util:red", FLIP, "CACCGATGTGACCAGAGCGGTTCTTTTAA"),
    "thresh.top": ("thresh:red", KEEP, "CTGAGATCCAGTTAGCAGGT"),
    "thresh.bottom": ("thresh:red'", FLIP, "CAATCGTCCA"),
    "primer.left": ("primer:left", FLIP, "CCTGGCTGTG"),
    "primer.right": ("primer:right", FLIP, "AGCGAGTGTT"),
}


def printed_pieces() -> dict[str, str]:
    """All reference strands, normalized to 5'->3'."""
    return {
        key: seq if orient == KEEP else seq[::-1]
        for key, (_, orient, seq) in _RAW.items()
    }


def reference_pins(matrix: DecisionMatrix) -> dict[str, tuple[str, str]]:
    """Reference pieces offered to the designer, by role: (printed label,
    sequence), on the path of the first option and the first outcome.

    Only independent material can be pinned; duplex bottoms, linkers and
    primers are always re-derived, and a threshold pin is its pad alone. The
    designer judges each pin where it would be placed, by the rules of a
    designed candidate, and notes whether it kept or rejected it.
    """
    p = printed_pieces()
    opt, out = matrix.options[0].label, matrix.outcomes[0].label
    return {
        ROLE_CHOICE: ("choice", p["choice.top"]),
        ROLE_TERM: ("term", p["term.top"]),
        role_option(opt): ("option", p["option"]),
        role_prob(out): ("prob.top", p["prob.top"]),
        role_util(out): ("util", p["util"]),
        role_thresh(out): ("thresh pad", p["thresh.top"][OVERHANG_LENGTH:]),
    }
