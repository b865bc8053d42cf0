"""Hand-transcribed reference sequences for the canonical urn problem.

These pieces cover one representative path of the three-by-three encoding
(first option, first outcome) plus that outcome's threshold and the two
primers. They are kept verbatim, transcription defects included, because
they double as a negative-control corpus: `assess_printed` walks them with
the geometry table and rules of `validate_encoding` and must flag exactly
what is wrong with them rather than silently repairing anything.

Strands marked FLIP below were transcribed in displayed 3'->5' orientation
(positionwise complements lying under a top strand) and are reversed on
load so that every sequence handed out is 5'->3'.
"""

from __future__ import annotations

from .compiler import (
    NODE_LENGTH,
    OVERHANG_LENGTH,
    SITE_OFFSET,
    RuleContext,
    Segment,
    check_pieces,
    middle_length_for_rank,
    top_lengths,
    violations,
)
from .decision import (
    ROLE_CHOICE,
    ROLE_TERM,
    DecisionMatrix,
    _slug,
    role_option,
    role_prob,
    role_util,
)
from .strands import RecognitionSite

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

# the designed sites of the transcribed option and utility strands
_SITES = {"option:option-1": "CAGCTG", "util:red": "CACGTG"}


def printed_pieces() -> dict[str, str]:
    """All reference strands, normalized to 5'->3'."""
    return {
        key: seq if orient == KEEP else seq[::-1]
        for key, (_, orient, seq) in _RAW.items()
    }


def assess_printed() -> list[str]:
    """Findings on the reference set: every deviation from the geometry of
    its path with a 7-base core, each named by its printed piece."""
    names = {strand: key for key, (strand, _, _) in _RAW.items()}
    pieces = {_RAW[key][0]: seq for key, seq in printed_pieces().items()}
    found = check_pieces(["option-1"], {"red": middle_length_for_rank(0)}, _SITES, pieces)
    findings = []
    for strand, v in found:
        if v.kind == "site-missing":
            findings.append(f"{names[strand]}: designed site {_SITES[strand]} not present")
        elif v.kind in ("geometry", "derivation", "site-extra"):
            findings.append(f"{names[strand]}: {v.detail}")
    return findings


def _screen(segment: Segment, length: int, context: RuleContext) -> list[str]:
    """Reasons this piece cannot be pinned into a fresh plan: its length and
    alphabet, then the sequence rules. A kept piece is placed in `context`."""
    reasons = [] if len(segment.seq) == length else [f"{len(segment.seq)} bases, expected {length}"]
    if set(segment.seq) - set("ACGT"):
        return reasons + ["non-ACGT symbols"]
    reasons += [v.detail for v in violations(segment, context)]
    if not reasons:
        context.place(segment)
    return reasons


def screened_pins(
    matrix: DecisionMatrix,
    option_sites: dict[str, RecognitionSite],
    outcome_sites: dict[str, RecognitionSite],
    middle_lengths: dict[str, int],
) -> tuple[dict[str, str], tuple[str, ...]]:
    """Reference pieces that survive standalone screening, as generator pins.

    Only independent material can be pinned; duplex bottoms, linkers and
    primers are always re-derived. A piece is screened by the same rules as
    a designed segment. Every kept or rejected piece is reported.
    """
    p = printed_pieces()
    first_opt = matrix.options[0].label
    first_out = matrix.outcomes[0].label
    pad = f"pad:{_slug(first_out)}"
    lengths = top_lengths([first_opt], {first_out: middle_lengths[first_out]})
    lengths[pad] = NODE_LENGTH - OVERHANG_LENGTH
    assigned = [s.site for s in option_sites.values()] + [s.site for s in outcome_sites.values()]
    context = RuleContext(tuple(assigned), {})
    candidates = [  # (role, piece, designed site, label)
        (ROLE_CHOICE, p["choice.top"], None, "choice"),
        (ROLE_TERM, p["term.top"], None, "term"),
        (role_option(first_opt), p["option"], option_sites[first_opt].site, "option"),
        (role_prob(first_out), p["prob.top"], None, "prob.top"),
        (role_util(first_out), p["util"], outcome_sites[first_out].site, "util"),
        (pad, p["thresh.top"][OVERHANG_LENGTH:], None, "thresh pad"),
    ]
    pins: dict[str, str] = {}
    notes: list[str] = []
    for key, seq, site, label in candidates:
        segment = Segment((key,), seq, {SITE_OFFSET: site} if site else {})
        reasons = _screen(segment, lengths[key], context)
        if reasons:
            notes.append(f"rejected reference {label}: {'; '.join(reasons)}")
        else:
            pins[key] = seq
            notes.append(f"kept reference {label} verbatim")
    return pins, tuple(notes)
