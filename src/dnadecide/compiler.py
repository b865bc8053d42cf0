"""Translate a decision matrix into strand sequences and a bench protocol.

The encoding realizes each root-to-termination path of the decision network
(`construct_roles`) as one ligatable construct: a shared choice arm, a
20-base option strand carrying that option's recognition site, a
probability duplex whose core length encodes the outcome's rank, a 20-base
utility strand carrying the outcome's site, and a shared termination arm.
Short linker strands complement every junction so ligation yields fully
double-stranded constructs. Probability weighting is done before assembly
by threshold duplexes dosed at one minus the outcome probability.

One rule sheet (`_top_rules`) gives each independent top, in design order,
its designed length, designed site and ligated neighbours, and the geometry
table (`_GEOMETRY`, spelled out by `derivations`) derives every other strand
(duplex bottoms, linkers, chance strands, primers) from slices of the tops.
The sequence rules live in `violations`. Sequence generation is rejection
sampling of each top under its sheet's constraints and is deterministic for
a given seed. The designer and the validator (`validate_encoding`, and the
reference checks in `fixture`) read the same rule sheet, table and rules.

Each strand is named by a role key (`role_*`) that spells the slugs of the
labels it serves; `derivations` refuses labels that would share a name.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .decision import DecisionMatrix, DuplicateLabelError, Payoff, validate_matrix
from .strands import (
    CORE_BLUNT_CUTTERS,
    Duplex,
    RecognitionSite,
    Strand,
    reverse_complement,
    scan,
    write_fasta,
)

# Construct geometry, in base pairs.
ARM_LENGTH = 40         # choice and termination arms
NODE_LENGTH = 20        # option and utility strands, threshold tops
OVERHANG_LENGTH = 10    # sticky ends and linker half-widths
SITE_OFFSET = 7         # recognition site position inside a 20-base node
WINDOW = 10             # uniqueness window width
BASE_CONSTRUCT_LENGTH = 2 * ARM_LENGTH + 2 * NODE_LENGTH + 2 * OVERHANG_LENGTH

# The gel, in base pairs: bands closer than the resolution merge, and the run
# stops when the dye front reaches the stop fraction of the lane.
GEL_RESOLUTION = 9
DYE_FRONT_BP = 100
DYE_STOP = Fraction(2, 3)
MAX_CORE_LENGTH = 200  # longest probability core the ladder range admits


# -- strand names --------------------------------------------------------------

ROLE_CHOICE = "choice"
ROLE_TERM = "term"
ROLE_PRIMER_LEFT = "primer:left"
ROLE_PRIMER_RIGHT = "primer:right"


def _slug(label: str) -> str:
    return "_".join(label.split())


def role_option(label: str) -> str:
    return f"option:{_slug(label)}"


def role_chance(option_label: str, outcome_label: str) -> str:
    return f"chance:{_slug(option_label)}:{_slug(outcome_label)}"


def role_prob(outcome_label: str) -> str:
    return f"prob:{_slug(outcome_label)}"


def role_util(outcome_label: str) -> str:
    return f"util:{_slug(outcome_label)}"


def role_thresh(outcome_label: str) -> str:
    return f"thresh:{_slug(outcome_label)}"


# One root-to-sink path of the decision network, its nine role names spelled
# as `_GEOMETRY` spells them: {o} is the option's slug and {u} the outcome's.
# A slug holds no whitespace, so one format and a split give the nine names.
_PATH = ("choice link:choice:{o} option:{o} chance:{o}:{u} prob:{u} "
         "link:prob:{u} util:{u} link:util:{u} term")


def construct_roles(option_label: str, outcome_label: str) -> tuple[str, ...]:
    """The nine species one construct ligates, in order along its top.

    The matrix unrolls into a single-source, single-sink DAG whose layers are
    choice -> option -> chance -> probability -> utility -> termination.
    Probability and utility nodes are shared across options, so the graph has
    one root-to-sink path per (option, outcome) pair, and `_PATH` spells it.
    The tops sit at the even positions; each odd position is the junction
    strand (a junction row of `_GEOMETRY`) that pairs its two neighbours.
    """
    return tuple(_PATH.format(o=_slug(option_label), u=_slug(outcome_label)).split())


def construct_key(option_label: str, outcome_label: str) -> str:
    """The ligated construct of one path; unique whenever its chance strand's key is."""
    return f"construct:{_slug(option_label)}:{_slug(outcome_label)}"


class CompileError(Exception):
    pass


class UnresolvableError(CompileError):
    """No gel-separable length assignment exists for these outcomes."""


class LibraryExhaustedError(CompileError):
    """Fewer catalog enzymes than options plus outcomes."""


class GenerationFailedError(CompileError):
    """Rejection sampling exhausted its retry budget for one segment."""


def threshold_ratio(probability: Fraction) -> Fraction:
    """Threshold dose per unit of chance material: one minus the probability."""
    return 1 - Fraction(probability)


def middle_length_for_rank(rank: int) -> int:
    """Core length for the rank-th most probable outcome: 7, 16, 34, 70, ..."""
    length = 7
    for _ in range(rank):
        length = 2 * length + 2
    return length


def probability_lengths(probabilities: list[Fraction]) -> list[int]:
    """Assign a distinct, separable core length per outcome.

    More probable outcomes get shorter cores (they must win a band-intensity
    readout, not a race); ties break by declaration order. Consecutive
    lengths from the doubling table differ by at least 9 bp, the gel's
    resolution.
    """
    order = sorted(range(len(probabilities)), key=lambda j: (-probabilities[j], j))
    lengths = [0] * len(probabilities)
    for rank, j in enumerate(order):
        m = middle_length_for_rank(rank)
        if m > MAX_CORE_LENGTH:
            raise UnresolvableError(
                f"outcome {j}: rank {rank} needs a {m} bp core, "
                f"beyond the {MAX_CORE_LENGTH} bp ladder range"
            )
        lengths[j] = m
    return lengths


def assign_enzymes(
    matrix: DecisionMatrix,
    library: tuple[RecognitionSite, ...] = CORE_BLUNT_CUTTERS,
) -> tuple[dict[str, RecognitionSite], dict[str, RecognitionSite]]:
    """One catalog enzyme per option, then one per outcome, in declaration order."""
    need = len(matrix.options) + len(matrix.outcomes)
    if need > len(library):
        raise LibraryExhaustedError(
            f"need {need} distinct enzymes, library provides {len(library)}"
        )
    it = iter(library)
    option_sites = {opt.label: next(it) for opt in matrix.options}
    outcome_sites = {out.label: next(it) for out in matrix.outcomes}
    return option_sites, outcome_sites


def tube_schedule(
    matrix: DecisionMatrix,
    option_sites: dict[str, RecognitionSite],
    outcome_sites: dict[str, RecognitionSite],
) -> tuple[frozenset[str], ...]:
    """Enzyme names per option tube: cut every rival option and every
    outcome the tube's own option finds unfavorable."""
    tubes = []
    for opt in matrix.options:
        enzymes = {option_sites[o.label].enzyme for o in matrix.options if o.label != opt.label}
        for out, pay in zip(matrix.outcomes, opt.payoffs):
            if pay is Payoff.UNFAVORABLE:
                enzymes.add(outcome_sites[out.label].enzyme)
        tubes.append(frozenset(enzymes))
    return tuple(tubes)


# -- construct geometry --------------------------------------------------------

class Derivation(NamedTuple):
    """A derived strand: the reverse complement of its source slices joined,
    each slice (independent top, start, stop). A duplex bottom pairs its own
    role's top from column `offset`; a free strand has no offset."""

    slices: tuple[tuple[str, int | None, int | None], ...]
    what: str
    offset: int | None = None

    def derive(self, tops: dict[str, str]) -> str:
        return reverse_complement("".join(tops[r][a:b] for r, a, b in self.slices))

    def length(self, lengths: dict[str, int]) -> int:
        return sum(len(range(lengths[r])[a:b]) for r, a, b in self.slices)


_H, _N = OVERHANG_LENGTH, NODE_LENGTH

# The geometry table: (derived role, bottom offset, source slices, what the
# strand is). In role names {o} stands for each option's slug, {u} for each
# outcome's.
_GEOMETRY = (
    ("choice", 0, [("choice", 0, _N)], "complement of the choice arm's first half"),
    ("term", _N, [("term", _N, None)], "complement of the termination arm's second half"),
    ("prob:{u}", _H, [("prob:{u}", _H, -_H)], "complement of the probability core"),
    ("thresh:{u}", _H, [("thresh:{u}", _H, None)], "complement of the threshold pad"),
    ("link:choice:{o}", None, [("choice", _N, None), ("option:{o}", 0, _H)],
     "complement of the choice-to-option junction"),
    ("chance:{o}:{u}", None, [("option:{o}", _H, None), ("prob:{u}", 0, _H)],
     "complement of the option-to-probability junction"),
    ("link:prob:{u}", None, [("prob:{u}", -_H, None), ("util:{u}", 0, _H)],
     "complement of the probability-to-utility junction"),
    ("link:util:{u}", None, [("util:{u}", _H, None), ("term", 0, _N)],
     "complement of the utility-to-termination junction"),
    ("primer:left", None, [("choice", 0, _H)], "match for the left construct end"),
    ("primer:right", None, [("term", -_H, None)], "match for the right construct end"),
)


def derivations(options: list[str], outcomes: list[str]) -> dict[str, Derivation]:
    """The geometry table spelled out for these option and outcome labels.

    Every other key (an option or utility top, a construct) spells its
    labels' slugs as a row here does, so a key spelled twice here is the one
    check that refuses labels, or label pairs, that would share a strand.
    """
    table: dict[str, Derivation] = {}
    named_options = [(o, _slug(o)) for o in options]
    named_outcomes = [(u, _slug(u)) for u in outcomes]
    for role, offset, slices, what in _GEOMETRY:
        row = (named_options if "{o}" in role else [("", "")],
               named_outcomes if "{u}" in role else [("", "")])
        for o, o_slug in row[0]:
            for u, u_slug in row[1]:
                name = {"o": o_slug, "u": u_slug}
                key = role.format(**name)
                if key in table:
                    raise _collision(role, key, row, (o, u))
                table[key] = Derivation(
                    tuple((r.format(**name), a, b) for r, a, b in slices), what, offset
                )
    return table


def _collision(role: str, key: str, row, pair: tuple[str, str]) -> DuplicateLabelError:
    """Name the first (option, outcome) of `row`'s (label, slug) lists whose
    `role` spells `key`, and `pair`, which spells it too."""
    first = next((o, u) for o, o_slug in row[0] for u, u_slug in row[1]
                 if role.format(o=o_slug, u=u_slug) == key)
    if "{o}" in role and "{u}" in role:
        names = (f"option {first[0]!r} with outcome {first[1]!r} and "
                 f"option {pair[0]!r} with outcome {pair[1]!r}")
    else:
        family, k = ("option", 0) if "{o}" in role else ("outcome", 1)
        names = f"{family} labels {first[k]!r} and {pair[k]!r}"
    return DuplicateLabelError(f"{names} collide: both name their strands {key!r}")


def _designed_sites(
    matrix: DecisionMatrix,
    option_sites: dict[str, RecognitionSite],
    outcome_sites: dict[str, RecognitionSite],
) -> dict[str, str]:
    """The designed site of each option and utility top, by role; its values
    are the assigned sites, options first."""
    sites = {role_option(opt.label): option_sites[opt.label].site for opt in matrix.options}
    sites.update((role_util(out.label), outcome_sites[out.label].site) for out in matrix.outcomes)
    return sites


def _top_rules(options: list[str], middle_lengths: dict[str, int], sites: dict[str, str],
               tops: dict[str, str]):
    """The rule sheet: each independent top in design order, with its
    designed length and the `_Designer.fresh` constraints it is designed and
    judged under. A neighbour is read from `tops` when its top is reached, so
    the designer sees every top placed before; a missing one reads as ""."""
    yield ROLE_CHOICE, ARM_LENGTH, {}
    yield ROLE_TERM, ARM_LENGTH, {}
    for opt in options:
        role = role_option(opt)
        yield role, _N, {"sites": {SITE_OFFSET: sites[role]}, "lefts": (tops.get(ROLE_CHOICE, ""),)}
    option_tops = tuple(tops.get(role_option(opt), "") for opt in options)
    for out, m in middle_lengths.items():
        yield role_prob(out), 2 * _H + m, {"lefts": option_tops, "breaks": (_H, _H + m)}
    for out in middle_lengths:
        role, left, right = role_util(out), tops.get(role_prob(out), ""), tops.get(ROLE_TERM, "")
        yield role, _N, {"sites": {SITE_OFFSET: sites[role]}, "lefts": (left,), "rights": (right,)}
    for out in middle_lengths:
        yield role_thresh(out), _N, {"prefix": tops.get(role_prob(out), "")[:_H]}


# -- sequence rules ------------------------------------------------------------

_RULE_OF_KIND = {
    **dict.fromkeys(("duplicate-window", "complement-window", "self-complement-window"), "window"),
    **dict.fromkeys(("site-missing", "site-extra", "stray-site"), "site"),
    "junction-site": "junction",
    "gc-range": "gc",
}


class EncodingViolation(NamedTuple):
    kind: str
    roles: tuple[str, ...]
    detail: str

    @property
    def rule(self) -> str:
        """The sequence rule broken; geometry and derivation name themselves."""
        return _RULE_OF_KIND.get(self.kind, self.kind)

    def __str__(self) -> str:
        return f"[{self.kind}] {', '.join(self.roles)}: {self.detail}"


class Segment(NamedTuple):
    """A stretch of sequence judged by `violations`, reported under `role`.

    `sites` maps each designed site's offset to the site; the default, no
    sites, is a read-only mapping that every segment shares. Windows starting
    before `fresh_from` are designed copies of placed material, neither
    judged nor placed. `lefts` and `rights` are the ligated neighbours.
    """

    role: str
    seq: str
    sites: dict[int, str] = MappingProxyType({})
    fresh_from: int = 0
    lefts: tuple[str, ...] = ()
    rights: tuple[str, ...] = ()


class RuleContext(NamedTuple):
    """The assigned sites and, unless None, every placed window's places."""

    sites: tuple[str, ...]
    windows: dict[str, list[tuple[str, int]]] | None = None

    def place(self, segment: Segment) -> None:
        seq, role = segment.seq, segment.role
        for i in range(segment.fresh_from, len(seq) - WINDOW + 1):
            self.windows.setdefault(seq[i : i + WINDOW], []).append((role, i))


def violations(segment: Segment, context: RuleContext) -> list[EncodingViolation]:
    """Every rule the segment breaks; an empty list means it may be placed.

    (a) window: each 10-base window from `fresh_from` on is new: it was not
        placed before, in `context` or earlier in the segment, it is not the
        reverse complement of such a window, and it is not its own reverse
        complement unless it covers a designed site. Skipped when the
        context keeps no windows.
    (b) site: each designed site occurs exactly once, at its offset, and no
        assigned site occurs anywhere else.
    (c) junction: no assigned site spans the 5 + 5 bases where the segment
        meets a left or right neighbour.
    (d) gc: the GC fraction stays within [2/5, 3/5].
    """
    seq, role = segment.seq, segment.role
    found: list[EncodingViolation] = []

    def flag(kind: str, detail: str, roles: tuple[str, ...] = (role,)) -> None:
        found.append(EncodingViolation(kind, roles, detail))

    if context.windows is not None:
        placed, local = context.windows, {}
        n, rc_seq = len(seq), reverse_complement(seq)
        for i in range(segment.fresh_from, n - WINDOW + 1):
            w, rc = seq[i : i + WINDOW], rc_seq[n - WINDOW - i : n - i]
            if w in placed or w in local:
                loci = placed.get(w, []) + local.get(w, []) + [(role, i)]
                flag("duplicate-window", f"window {w} occurs at {loci}", tuple(r for r, _ in loci))
            elif w == rc:
                if not any(i <= o and o + len(s) <= i + WINDOW for o, s in segment.sites.items()):
                    flag("self-complement-window",
                         f"window {w} at offset {i} is its own reverse complement", (role,))
            elif rc in placed or rc in local:
                pair = sorted([(w, [(role, i)]), (rc, placed.get(rc, []) + local.get(rc, []))])
                flag("complement-window",
                     f"windows {pair[0][0]} and {pair[1][0]} are reverse complements",
                     tuple(r for _, loci in pair for r, _ in loci))
            local.setdefault(w, []).append((role, i))
    for at, site in segment.sites.items():
        hits = scan(seq, site)
        if hits != [at]:
            flag("site-extra" if hits else "site-missing",
                 f"designed site {site} not exactly once at offset {at}")
    for site in context.sites:
        for i in scan(seq, site) if site in seq else ():
            if segment.sites.get(i) != site:
                flag("stray-site", f"stray site {site} at {i}")
    joints = [left[-5:] + seq[:5] for left in segment.lefts]
    for joint in joints + [seq[-5:] + right[:5] for right in segment.rights]:
        for site in context.sites:
            if site in joint:
                flag("junction-site", f"site {site} spans the junction {joint}")
    gc = seq.count("G") + seq.count("C")
    if not 2 * len(seq) <= 5 * gc <= 3 * len(seq):
        flag("gc-range", f"GC fraction {Fraction(gc, len(seq))} outside [2/5, 3/5]")
    return found


# -- sequence generation -------------------------------------------------------

MAX_TRIES = 500  # candidates sampled for one segment before the designer gives up


class _Designer:
    """Stateful rejection sampler for fresh segments."""

    def __init__(self, rng, assigned_sites: list[str], notes: list[str] | None = None):
        self.rng = rng
        self.context = RuleContext(tuple(assigned_sites), {})
        self.notes = [] if notes is None else notes

    def _block(self, length: int, fixed: dict[int, str]) -> str:
        """A GC-balanced block, drawn through `getrandbits` exactly as
        `randint`, `sample` and `choice` would, so a seed's FASTA stays put."""
        bits = self.rng.getrandbits

        def below(n: int) -> int:  # Random._randbelow_with_getrandbits
            k = n.bit_length()
            r = bits(k)
            while r >= n:
                r = bits(k)
            return r

        fixed_gc = sum(1 for b in fixed.values() if b in "GC")
        free = [i for i in range(length) if i not in fixed]
        lo = max(-(-2 * length // 5), fixed_gc)
        hi = min(3 * length // 5, fixed_gc + len(free))
        if lo > hi:
            raise GenerationFailedError(f"no GC-balanced fill for a {length}-base block")
        # randint(lo, hi), then sample's pool walk (a block's <= 10 free
        # positions never reach sample's set-based branch)
        target, n, gc = lo + below(hi - lo + 1) - fixed_gc, len(free), set()
        for i in range(target):
            j = below(n - i)
            gc.add(free[j])
            free[j] = free[n - i - 1]
        out = []
        for i in range(length):
            if i in fixed:
                out.append(fixed[i])
                continue
            r = bits(2)  # choice of a 2-letter string
            while r >= 2:
                r = bits(2)
            out.append(("GC" if i in gc else "AT")[r])
        return "".join(out)

    def fresh(
        self,
        role: str,
        length: int,
        sites: dict[int, str] | None = None,
        lefts: tuple[str, ...] = (),
        rights: tuple[str, ...] = (),
        prefix: str = "",
        breaks: tuple[int, ...] = (),
        pin: tuple[str, str] | None = None,
    ) -> str:
        """Sample a segment `violations` passes, keeping prefix and designed
        site bases verbatim; prefix windows copy placed material, so only
        windows that add new bases are judged.

        `breaks` restarts the 10-base GC blocking at interior positions so
        that functionally distinct regions (overhangs, duplex cores) are
        GC-balanced on their own. Running out of tries names the rules the
        candidates broke, with how many broke each.

        A `pin`, (printed label, piece), is the first candidate: the piece
        behind the prefix, judged like any other and also by its length. It
        is placed verbatim if it passes; either verdict goes to `notes`.
        """
        sites = sites or {}
        fixed: dict[int, str] = dict(enumerate(prefix))
        for at, site in sites.items():
            fixed.update((at + k, b) for k, b in enumerate(site))
        bounds = [0, *breaks, length]
        blocks = []  # (width, fixed bases by block offset) per 10-base block
        for lo, hi in zip(bounds, bounds[1:]):
            for start in range(lo, hi, 10):
                end = min(start + 10, hi)
                local = {i - start: b for i, b in fixed.items() if start <= i < end}
                blocks.append((end - start, local))
        fresh_from = max(0, len(prefix) - WINDOW + 1)
        if pin is not None:
            label, piece = pin
            segment = Segment(role, prefix + piece, sites, fresh_from, lefts, rights)
            want = length - len(prefix)
            reasons = [] if len(piece) == want else [f"{len(piece)} bases, expected {want}"]
            reasons += [v.detail for v in violations(segment, self.context)]
            if not reasons:
                self.notes.append(f"kept reference {label} verbatim")
                self.context.place(segment)
                return segment.seq
            self.notes.append(f"rejected reference {label}: {'; '.join(reasons)}")
        rejected: Counter[str] = Counter()
        for _ in range(MAX_TRIES):
            seq = "".join([self._block(width, local) for width, local in blocks])
            segment = Segment(role, seq, sites, fresh_from, lefts, rights)
            found = violations(segment, self.context)
            if not found:
                self.context.place(segment)
                return segment.seq
            rejected.update({v.rule for v in found})
        tally = ", ".join(f"{rule} {n}" for rule, n in sorted(rejected.items()))
        raise GenerationFailedError(f"could not place segment {role!r}: {tally}")


def generate_sequences(
    matrix: DecisionMatrix,
    option_sites: dict[str, RecognitionSite],
    outcome_sites: dict[str, RecognitionSite],
    middle_lengths: dict[str, int],
    table: dict[str, Derivation],
    seed: int = 0,
    pins: dict[str, tuple[str, str]] | None = None,
    notes: list[str] | None = None,
) -> dict[str, Strand | Duplex]:
    """Build every strand and duplex of the encoding, deterministically.

    The designer samples the independent tops and the geometry table
    (`table`, from `derivations`) derives the rest. `pins` maps a top's
    role to a reference piece, (printed label, sequence), that the designer
    judges in place as the first candidate for that top (a threshold's
    piece is its pad alone); each verdict is appended to `notes`.
    """
    pins = pins or {}
    sites = _designed_sites(matrix, option_sites, outcome_sites)
    d = _Designer(random.Random(seed), list(sites.values()), notes)
    options = [opt.label for opt in matrix.options]
    tops: dict[str, str] = {}
    for role, length, rules in _top_rules(options, middle_lengths, sites, tops):
        tops[role] = d.fresh(role, length, pin=pins.get(role), **rules)

    plan: dict[str, Strand | Duplex] = {role: Strand(top) for role, top in tops.items()}
    for role, rule in table.items():
        strand = Strand(rule.derive(tops))
        plan[role] = strand if rule.offset is None else Duplex(plan[role], strand, rule.offset)
    return plan


# -- validation ----------------------------------------------------------------

def check_pieces(
    options: list[str],
    middle_lengths: dict[str, int],
    sites: dict[str, str],
    pieces: dict[str, str],
    table: dict[str, Derivation],
) -> list[tuple[str, EncodingViolation]]:
    """Walk the rule sheet and the geometry table over an encoding's pieces.

    `pieces` maps strand names to sequences: a top or a free strand under
    its role, a duplex bottom under its role and a prime. `sites` gives the
    option and utility tops their designed sites, and `table` is the
    geometry table spelled out for these labels. Each top is judged as the
    designer placed it, by its rules in `_top_rules`, with its neighbours
    read from `pieces`; every junction is judged on the top to its right
    (the utility top also judges its right one). Each finding comes with its
    strand, in this order: missing roles; lengths; on each top in design
    order, the toehold copy of a threshold and the rules (windows, sites,
    junctions, GC); on each derived strand, GC and the derivation.
    """
    rules = list(_top_rules(options, middle_lengths, sites, pieces))
    lengths = {role: n for role, n, _ in rules}
    parts = [(role, role, n, rule) for role, n, rule in rules]
    parts += [
        (role if d.offset is None else role + "'", role, d.length(lengths), d)
        for role, d in table.items()
    ]
    parts = [part for part in parts if part[0] in pieces]
    found = [
        (role, EncodingViolation("geometry", (role,), "missing role"))
        for role in {**lengths, **table}
        if role not in pieces
    ]
    found += [
        (name, EncodingViolation("geometry", (role,), f"{len(pieces[name])} bases, expected {n}"))
        for name, role, n, _ in parts
        if len(pieces[name]) != n
    ]
    # a threshold toehold is a designed copy of either half of a chance junction
    toeholds = {pieces[role_prob(out)][:_H] for out in middle_lengths if role_prob(out) in pieces}
    toeholds |= {pieces[role_option(opt)][_H:] for opt in options if role_option(opt) in pieces}
    context = RuleContext(tuple(sites.values()), {})
    bare = RuleContext(context.sites)
    for name, role, _, rule in parts:
        seq = pieces[name]
        if isinstance(rule, Derivation):
            found += [(name, v) for v in violations(Segment(role, seq), bare) if v.rule == "gc"]
            if all(r in pieces for r, _, _ in rule.slices) and seq != rule.derive(pieces):
                detail = f"not the {rule.what}"
                found.append((name, EncodingViolation("derivation", (role,), detail)))
            continue
        copied = "prefix" in rule and seq[:_H] in toeholds
        if "prefix" in rule and not copied:
            detail = "toehold copies neither the option rear nor the probability front"
            found.append((name, EncodingViolation("derivation", (role,), detail)))
        segment = Segment(role, seq, rule.get("sites", {}), _H - WINDOW + 1 if copied else 0,
                          rule.get("lefts", ()), rule.get("rights", ()))
        found += [(name, v) for v in violations(segment, context)]
        context.place(segment)
    return found


def validate_encoding(plan: "EncodingPlan") -> list[EncodingViolation]:
    """Check a plan against the geometry table and the sequence rules.

    Violations are returned as data, never raised (labels that would share a
    strand are, as in `derivations`); a freshly compiled plan must come back
    clean, a transcribed reference may not.
    """
    matrix, strands = plan.matrix, plan.strands
    options = [opt.label for opt in matrix.options]
    table = derivations(options, list(plan.middle_lengths))
    found: list[EncodingViolation] = []
    pieces: dict[str, str] = {}
    for role, item in strands.items():
        duplex = isinstance(item, Duplex)
        pieces[role] = item.top if duplex else item
        offset = table[role].offset if role in table else None
        if duplex and item.offset == offset:
            pieces[role + "'"] = item.bottom
        elif duplex or offset is not None:
            detail = ("must be a single strand" if offset is None
                      else f"must be a duplex paired from column {offset}")
            found.append(EncodingViolation("geometry", (role,), detail))
    sites = _designed_sites(matrix, plan.option_sites, plan.outcome_sites)
    return found + [v for _, v in check_pieces(options, plan.middle_lengths, sites, pieces, table)]


# -- plan containers -----------------------------------------------------------

class EncodingPlan(NamedTuple):
    """Everything the bench needs to realize one decision problem."""

    matrix: DecisionMatrix
    seed: int
    strands: dict[str, Strand | Duplex]
    middle_lengths: dict[str, int]
    threshold_ratios: dict[str, Fraction]
    option_sites: dict[str, RecognitionSite]
    outcome_sites: dict[str, RecognitionSite]
    fixture_notes: tuple[str, ...] = ()

    @property
    def tube_enzymes(self) -> tuple[frozenset[str], ...]:
        return tube_schedule(self.matrix, self.option_sites, self.outcome_sites)

    @property
    def primers(self) -> tuple[Strand, Strand]:
        return (self.strands[ROLE_PRIMER_LEFT], self.strands[ROLE_PRIMER_RIGHT])

    def construct_top(self, roles: tuple[str, ...]) -> str:
        """The top strand of the construct that `construct_roles` spells as `roles`."""
        tops = (self.strands[r] for r in roles[::2])
        return "".join(s.top if isinstance(s, Duplex) else s for s in tops)

    def construct_length(self, outcome_label: str) -> int:
        return BASE_CONSTRUCT_LENGTH + self.middle_lengths[outcome_label]

    def intensity_scale(self) -> int:
        return math.lcm(*(out.probability.denominator for out in self.matrix.outcomes))

    def predicted_bands(self) -> list[list[tuple[int, int]]]:
        """Per option: (construct length, relative count) for surviving paths."""
        scale, outs = self.intensity_scale(), self.matrix.outcomes
        return [
            sorted((self.construct_length(outs[j].label), int(outs[j].probability * scale))
                   for j in opt.favorable_indices())
            for opt in self.matrix.options
        ]

    def all_strands(self) -> list[tuple[str, Strand]]:
        """(name, sequence) per strand, by plan key; a duplex gives key.top and key.bottom."""
        flat: list[tuple[str, Strand]] = []
        for role, item in sorted(self.strands.items()):
            if isinstance(item, Duplex):
                flat += [(role + ".top", item.top), (role + ".bottom", item.bottom)]
            else:
                flat.append((role, item))
        return flat

    def to_fasta(self) -> str:
        return write_fasta(self.all_strands())

    def describe(self) -> str:
        lines = [
            "encoding plan",
            "=============",
            f"options: {len(self.matrix.options)}   outcomes: {len(self.matrix.outcomes)}",
            f"seed: {self.seed}",
            f"base construct length: {BASE_CONSTRUCT_LENGTH} bp",
            "",
            "outcomes:",
        ]
        for out in self.matrix.outcomes:
            site = self.outcome_sites[out.label]
            lines.append(
                f"  {out.label}: probability {out.probability}, "
                f"threshold ratio {self.threshold_ratios[out.label]}, "
                f"core {self.middle_lengths[out.label]} bp, "
                f"construct {self.construct_length(out.label)} bp, "
                f"enzyme {site.enzyme} ({site.site})"
            )
        lines.append("options:")
        for opt, enzymes, bands in zip(
            self.matrix.options, self.tube_enzymes, self.predicted_bands()
        ):
            site = self.option_sites[opt.label]
            fav = [self.matrix.outcomes[j].label for j in opt.favorable_indices()]
            band_text = ", ".join(f"{length} bp x{count}" for length, count in bands)
            lines.append(
                f"  {opt.label}: enzyme {site.enzyme} ({site.site}), "
                f"favorable [{', '.join(fav)}], predicted bands [{band_text}]"
            )
            lines.append(f"    tube digested with: {', '.join(sorted(enzymes)) or 'none'}")
        left, right = self.primers
        lines.append(f"primers: {left} / {right}")
        lines.append(f"species: {len(self.all_strands())} strands")
        if self.fixture_notes:
            lines.append("reference-material notes:")
            for note in self.fixture_notes:
                lines.append(f"  - {note}")
        return "\n".join(lines) + "\n"


def tube_label(index: int) -> str:
    return f"tube-{index + 1}"


class ProtocolPlan(NamedTuple):
    """Ordered bench steps realizing the encoding, read from the plan."""

    plan: EncodingPlan
    pcr_cycles: int

    def describe(self) -> str:
        plan = self.plan
        doses = ", ".join(f"{k}={v}" for k, v in plan.threshold_ratios.items())
        n = len(plan.matrix.options)
        lines = [
            "protocol plan",
            "=============",
            "1. pool stocks (0.1 ml of each strand stock at 0.1 ug/ul) for every encoding strand",
            f"2. add threshold duplexes at ratios {doses} and let displacement complete",
            "3. anneal and ligate surviving junctions with T4 DNA ligase",
            f"4. split the pool into {n} tube{'s' * (n != 1)}, one per option",
        ]
        for i, enzymes in enumerate(plan.tube_enzymes):
            if enzymes:
                step = f"digest with {', '.join(sorted(enzymes))} at 37 C"
            else:  # only a one-option tube has no rival and may have no unfavorable outcome
                step = "no digest (no enzyme cuts this tube)"
            lines.append(f"   {tube_label(i)}: {step}")
        left, right = plan.primers
        lines.append(
            f"5. amplify {self.pcr_cycles} PCR cycles with primers {left} and {right}"
        )
        lines.append("6. purify, keeping amplified full-length constructs")
        lines.append(
            f"7. run a 2.5-3% agarose gel; stop when the {DYE_FRONT_BP} bp dye front "
            f"reaches {DYE_STOP} of the lane"
        )
        lines.append("8. read band lengths and intensities, then decide")
        return "\n".join(lines) + "\n"


def compile_problem(
    matrix: DecisionMatrix,
    seed: int = 0,
    library: tuple[RecognitionSite, ...] = CORE_BLUNT_CUTTERS,
    use_fixture: bool = False,
    pcr_cycles: int = 5,
) -> tuple[EncodingPlan, ProtocolPlan]:
    """Full translation: matrix -> sequences, tube schedule, bench steps."""
    validate_matrix(matrix)
    # the geometry table first: it refuses labels that would share a strand
    table = derivations([o.label for o in matrix.options], [o.label for o in matrix.outcomes])
    ratios = {out.label: threshold_ratio(out.probability) for out in matrix.outcomes}
    lengths = probability_lengths([out.probability for out in matrix.outcomes])
    middles = {out.label: m for out, m in zip(matrix.outcomes, lengths)}
    option_sites, outcome_sites = assign_enzymes(matrix, library)

    pins, notes = {}, []
    if use_fixture:
        from .fixture import reference_pins

        pins = reference_pins(matrix)
    strands = generate_sequences(
        matrix, option_sites, outcome_sites, middles, table, seed=seed, pins=pins, notes=notes
    )
    plan = EncodingPlan(
        matrix=matrix,
        seed=seed,
        strands=strands,
        middle_lengths=middles,
        threshold_ratios=ratios,
        option_sites=option_sites,
        outcome_sites=outcome_sites,
        fixture_notes=tuple(notes),
    )
    return plan, ProtocolPlan(plan, pcr_cycles)
