"""Translate a decision matrix into strand sequences and a bench protocol.

The encoding realizes each root-to-termination path of the decision network
as one ligatable construct: a shared choice arm, a 20-base option strand
carrying that option's recognition site, a probability duplex whose core
length encodes the outcome's rank, a 20-base utility strand carrying the
outcome's site, and a shared termination arm. Short linker strands
complement every junction so ligation yields fully double-stranded
constructs. Probability weighting is done before assembly by threshold
duplexes dosed at one minus the outcome probability.

Sequence generation is rejection sampling under a fixed constraint set:
    (a) every 10-base window of independent material is globally unique,
        not the reverse complement of another window, and not its own
        reverse complement (windows covering a segment's designed
        recognition site are exempt from the self-complement rule, and a
        threshold toehold is a designed copy of existing material);
    (b) no assigned recognition site occurs anywhere outside its designed
        locus, junctions of assembled constructs included;
    (c) designed sites occur exactly once, at a fixed offset;
    (d) every strand's GC fraction stays within [0.4, 0.6].
The generator is deterministic for a given seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .decision import (
    ROLE_CHOICE,
    ROLE_TERM,
    DecisionMatrix,
    Payoff,
    _slug,
    role_chance,
    role_option,
    role_prob,
    role_util,
    validate_matrix,
)
from .strands import (
    CORE_BLUNT_CUTTERS,
    Duplex,
    RecognitionSite,
    Strand,
    gc_fraction,
    reverse_complement,
    write_fasta,
)

# Construct geometry, in base pairs.
ARM_LENGTH = 40         # choice and termination arms
NODE_LENGTH = 20        # option and utility strands, threshold tops
OVERHANG_LENGTH = 10    # sticky ends and linker half-widths
SITE_OFFSET = 7         # recognition site position inside a 20-base node
WINDOW = 10             # uniqueness window width
BASE_CONSTRUCT_LENGTH = 2 * ARM_LENGTH + 2 * NODE_LENGTH + 2 * OVERHANG_LENGTH

ROLE_PRIMER_LEFT = "primer:left"
ROLE_PRIMER_RIGHT = "primer:right"


def role_thresh(outcome_label: str) -> str:
    return f"thresh:{_slug(outcome_label)}"


def role_link_choice(option_label: str) -> str:
    return f"link:choice:{_slug(option_label)}"


def role_link_prob(outcome_label: str) -> str:
    return f"link:prob:{_slug(outcome_label)}"


def role_link_util(outcome_label: str) -> str:
    return f"link:util:{_slug(outcome_label)}"


class CompileError(Exception):
    pass


class UnresolvableError(CompileError):
    """No gel-separable length assignment exists for these outcomes."""


class LibraryExhaustedError(CompileError):
    """Fewer catalog enzymes than options plus outcomes."""


class GenerationFailedError(CompileError):
    """Rejection sampling exhausted its retry budget for one segment."""


class ThresholdRangeError(CompileError):
    pass


def threshold_ratio(probability: Fraction) -> Fraction:
    """Threshold dose per unit of chance material: one minus the probability."""
    if not 0 <= probability <= 1:
        raise ThresholdRangeError(f"probability {probability} outside [0, 1]")
    return 1 - Fraction(probability)


def middle_length_for_rank(rank: int) -> int:
    """Core length for the rank-th most probable outcome: 7, 16, 34, 70, ..."""
    length = 7
    for _ in range(rank):
        length = 2 * length + 2
    return length


def probability_lengths(
    probabilities: list[Fraction],
    resolution: int = 9,
    max_middle: int = 200,
) -> list[int]:
    """Assign a distinct, separable core length per outcome.

    More probable outcomes get shorter cores (they must win a band-intensity
    readout, not a race); ties break by declaration order. Consecutive
    lengths from the doubling table differ by at least 9 bp, so any
    resolution up to that is honored.
    """
    order = sorted(range(len(probabilities)), key=lambda j: (-probabilities[j], j))
    lengths = [0] * len(probabilities)
    previous = None
    for rank, j in enumerate(order):
        m = middle_length_for_rank(rank)
        if m > max_middle:
            raise UnresolvableError(
                f"outcome {j}: rank {rank} needs a {m} bp core, "
                f"beyond the {max_middle} bp ladder range"
            )
        if previous is not None and m - previous < resolution:
            raise UnresolvableError(
                f"cores {previous} and {m} bp closer than resolution {resolution}"
            )
        lengths[j] = m
        previous = m
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


# -- sequence generation -------------------------------------------------------

class _Designer:
    """Stateful rejection sampler for fresh segments."""

    def __init__(self, rng, assigned_sites: list[str], max_tries: int = 500):
        self.rng = rng
        self.assigned_sites = assigned_sites
        self.max_tries = max_tries
        self.used: set[str] = set()

    def adopt(self, seq: str) -> str:
        """Register an externally supplied segment's windows without checks."""
        for i in range(len(seq) - WINDOW + 1):
            self.used.add(seq[i : i + WINDOW])
        return seq

    def windows_ok(self, seq: str, own_site_span: tuple[int, int] | None) -> bool:
        fresh: set[str] = set()
        for i in range(len(seq) - WINDOW + 1):
            w = seq[i : i + WINDOW]
            if w in self.used or reverse_complement(w) in self.used:
                return False
            if w in fresh or reverse_complement(w) in fresh:
                return False
            if w == reverse_complement(w):
                covers_site = (
                    own_site_span is not None
                    and i <= own_site_span[0]
                    and own_site_span[1] <= i + WINDOW
                )
                if not covers_site:
                    return False
            fresh.add(w)
        return True

    def sites_ok(self, seq: str, own_site: str | None, own_at: int | None) -> bool:
        for site in self.assigned_sites:
            hits = [i for i in range(len(seq) - 5) if seq[i : i + 6] == site]
            if site == own_site:
                if hits != [own_at]:
                    return False
            elif hits:
                return False
        return True

    def junctions_ok(self, seq: str, lefts: list[str], rights: list[str]) -> bool:
        for left in lefts:
            joint = left[-5:] + seq[:5]
            if any(s in joint for s in self.assigned_sites):
                return False
        for right in rights:
            joint = seq[-5:] + right[:5]
            if any(s in joint for s in self.assigned_sites):
                return False
        return True

    def _block(self, length: int, fixed: dict[int, str]) -> list[str]:
        fixed_gc = sum(1 for b in fixed.values() if b in "GC")
        free = [i for i in range(length) if i not in fixed]
        lo = max(math.ceil(Fraction(2, 5) * length), fixed_gc)
        hi = min(math.floor(Fraction(3, 5) * length), fixed_gc + len(free))
        if lo > hi:
            raise GenerationFailedError(
                f"no GC-balanced fill for a {length}-base block"
            )
        target = self.rng.randint(lo, hi) - fixed_gc
        gc_positions = set(self.rng.sample(free, target))
        out = []
        for i in range(length):
            if i in fixed:
                out.append(fixed[i])
            elif i in gc_positions:
                out.append(self.rng.choice("GC"))
            else:
                out.append(self.rng.choice("AT"))
        return out

    def fresh(
        self,
        role: str,
        length: int,
        embed: tuple[str, int] | None = None,
        junction_lefts: list[str] | None = None,
        junction_rights: list[str] | None = None,
        prefix: str = "",
        breaks: tuple[int, ...] = (),
    ) -> str:
        """Sample a compliant segment; prefix bases are kept verbatim.

        `breaks` restarts the 10-base GC blocking at interior positions so
        that functionally distinct regions (overhangs, duplex cores) are
        GC-balanced on their own.
        """
        fixed: dict[int, str] = {i: b for i, b in enumerate(prefix)}
        own_site = own_at = None
        if embed is not None:
            own_site, own_at = embed
            for k, b in enumerate(own_site):
                fixed[own_at + k] = b
        site_span = (own_at, own_at + 6) if embed else None
        bounds = [0, *breaks, length]
        for _ in range(self.max_tries):
            chunks: list[str] = []
            for lo, hi in zip(bounds, bounds[1:]):
                for start in range(lo, hi, 10):
                    width = min(10, hi - start)
                    local_fixed = {
                        i - start: b
                        for i, b in fixed.items()
                        if start <= i < start + width
                    }
                    chunks.extend(self._block(width, local_fixed))
            seq = "".join(chunks)
            if not self.sites_ok(seq, own_site, own_at):
                continue
            # prefix windows are designed copies of existing material, so
            # freshness is judged from the first window that adds new bases
            probe = seq[max(0, len(prefix) - WINDOW + 1) :] if prefix else seq
            shift = len(seq) - len(probe)
            shifted_span = (
                (site_span[0] - shift, site_span[1] - shift) if site_span else None
            )
            if not self.windows_ok(probe, shifted_span):
                continue
            if not self.junctions_ok(seq, junction_lefts or [], junction_rights or []):
                continue
            self.adopt(probe)
            return seq
        raise GenerationFailedError(f"could not place segment {role!r}")


def generate_sequences(
    matrix: DecisionMatrix,
    option_sites: dict[str, RecognitionSite],
    outcome_sites: dict[str, RecognitionSite],
    middle_lengths: dict[str, int],
    seed: int = 0,
    pins: dict[str, str] | None = None,
) -> dict[str, Strand | Duplex]:
    """Build every strand and duplex of the encoding, deterministically.

    `pins` maps role keys (plus 'pad:<outcome>' for threshold pads) to
    sequences that are used verbatim; callers screen pins themselves.
    """
    pins = dict(pins or {})
    rng = random.Random(seed)
    assigned = [s.site for s in option_sites.values()] + [
        s.site for s in outcome_sites.values()
    ]
    d = _Designer(rng, assigned)

    def take(role: str, maker) -> str:
        if role in pins:
            return d.adopt(pins[role])
        return maker()

    choice_top = take(ROLE_CHOICE, lambda: d.fresh(ROLE_CHOICE, ARM_LENGTH))
    term_top = take(ROLE_TERM, lambda: d.fresh(ROLE_TERM, ARM_LENGTH))

    options: dict[str, str] = {}
    for opt in matrix.options:
        role = role_option(opt.label)
        options[opt.label] = take(
            role,
            lambda role=role, opt=opt: d.fresh(
                role,
                NODE_LENGTH,
                embed=(option_sites[opt.label].site, SITE_OFFSET),
                junction_lefts=[choice_top],
            ),
        )

    probs: dict[str, str] = {}
    for out in matrix.outcomes:
        role = role_prob(out.label)
        m = middle_lengths[out.label]
        probs[out.label] = take(
            role,
            lambda role=role, m=m: d.fresh(
                role,
                2 * OVERHANG_LENGTH + m,
                junction_lefts=list(options.values()),
                breaks=(OVERHANG_LENGTH, OVERHANG_LENGTH + m),
            ),
        )

    utils: dict[str, str] = {}
    for out in matrix.outcomes:
        role = role_util(out.label)
        utils[out.label] = take(
            role,
            lambda role=role, out=out: d.fresh(
                role,
                NODE_LENGTH,
                embed=(outcome_sites[out.label].site, SITE_OFFSET),
                junction_lefts=[probs[out.label]],
                junction_rights=[term_top],
            ),
        )

    thresh_tops: dict[str, str] = {}
    for out in matrix.outcomes:
        toehold = probs[out.label][:OVERHANG_LENGTH]
        pad_pin = pins.get(f"pad:{_slug(out.label)}")
        if pad_pin is not None:
            thresh_tops[out.label] = d.adopt(toehold + pad_pin)
        else:
            thresh_tops[out.label] = d.fresh(
                role_thresh(out.label),
                NODE_LENGTH,
                prefix=toehold,
            )

    plan: dict[str, Strand | Duplex] = {}
    plan[ROLE_CHOICE] = Duplex(
        Strand(choice_top, ROLE_CHOICE),
        Strand(reverse_complement(choice_top[:NODE_LENGTH]), ROLE_CHOICE + "'"),
        0,
    )
    plan[ROLE_TERM] = Duplex(
        Strand(term_top, ROLE_TERM),
        Strand(reverse_complement(term_top[NODE_LENGTH:]), ROLE_TERM + "'"),
        NODE_LENGTH,
    )
    for opt in matrix.options:
        plan[role_option(opt.label)] = Strand(options[opt.label], role_option(opt.label))
        link = role_link_choice(opt.label)
        plan[link] = Strand(
            reverse_complement(
                choice_top[NODE_LENGTH:] + options[opt.label][:OVERHANG_LENGTH]
            ),
            link,
        )
    for out in matrix.outcomes:
        p_top = probs[out.label]
        m = middle_lengths[out.label]
        core = p_top[OVERHANG_LENGTH : OVERHANG_LENGTH + m]
        plan[role_prob(out.label)] = Duplex(
            Strand(p_top, role_prob(out.label)),
            Strand(reverse_complement(core), role_prob(out.label) + "'"),
            OVERHANG_LENGTH,
        )
        plan[role_util(out.label)] = Strand(utils[out.label], role_util(out.label))
        t_top = thresh_tops[out.label]
        plan[role_thresh(out.label)] = Duplex(
            Strand(t_top, role_thresh(out.label)),
            Strand(reverse_complement(t_top[OVERHANG_LENGTH:]), role_thresh(out.label) + "'"),
            OVERHANG_LENGTH,
        )
        lp = role_link_prob(out.label)
        plan[lp] = Strand(
            reverse_complement(p_top[-OVERHANG_LENGTH:] + utils[out.label][:OVERHANG_LENGTH]),
            lp,
        )
        lu = role_link_util(out.label)
        plan[lu] = Strand(
            reverse_complement(utils[out.label][OVERHANG_LENGTH:] + term_top[:NODE_LENGTH]),
            lu,
        )
    for opt in matrix.options:
        for out in matrix.outcomes:
            role = role_chance(opt.label, out.label)
            plan[role] = Strand(
                reverse_complement(
                    options[opt.label][OVERHANG_LENGTH:]
                    + probs[out.label][:OVERHANG_LENGTH]
                ),
                role,
            )
    plan[ROLE_PRIMER_LEFT] = Strand(
        reverse_complement(choice_top[:OVERHANG_LENGTH]), ROLE_PRIMER_LEFT
    )
    plan[ROLE_PRIMER_RIGHT] = Strand(
        reverse_complement(term_top[-OVERHANG_LENGTH:]), ROLE_PRIMER_RIGHT
    )
    return plan


# -- validation ----------------------------------------------------------------

@dataclass(frozen=True)
class EncodingViolation:
    kind: str
    roles: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {', '.join(self.roles)}: {self.detail}"


def _expect(conditions: list, out: list) -> None:
    for ok, kind, roles, detail in conditions:
        if not ok:
            out.append(EncodingViolation(kind, tuple(roles), detail))


def validate_encoding(plan: "EncodingPlan") -> list[EncodingViolation]:
    """Check geometry, derivations, site placement, window uniqueness, GC.

    Violations are returned as data, never raised; a freshly compiled plan
    must come back clean, a transcribed reference may not.
    """
    v: list[EncodingViolation] = []
    matrix = plan.matrix
    strands = plan.strands

    def seg(role: str) -> str | None:
        item = strands.get(role)
        if item is None:
            v.append(EncodingViolation("geometry", (role,), "missing role"))
            return None
        return item.top.seq if isinstance(item, Duplex) else item.seq

    choice = seg(ROLE_CHOICE)
    term = seg(ROLE_TERM)

    if choice is not None:
        dup = strands[ROLE_CHOICE]
        _expect(
            [
                (len(choice) == ARM_LENGTH, "geometry", [ROLE_CHOICE],
                 f"choice arm is {len(choice)} bases, expected {ARM_LENGTH}"),
                (isinstance(dup, Duplex) and dup.offset == 0, "geometry",
                 [ROLE_CHOICE], "choice arm must pair at its left end"),
            ],
            v,
        )
        if isinstance(dup, Duplex) and len(choice) == ARM_LENGTH:
            _expect(
                [(dup.bottom.seq == reverse_complement(choice[:NODE_LENGTH]),
                  "derivation", [ROLE_CHOICE],
                  "choice bottom is not the complement of the arm's first half")],
                v,
            )
    if term is not None:
        dup = strands[ROLE_TERM]
        _expect(
            [
                (len(term) == ARM_LENGTH, "geometry", [ROLE_TERM],
                 f"termination arm is {len(term)} bases, expected {ARM_LENGTH}"),
                (isinstance(dup, Duplex) and dup.offset == NODE_LENGTH, "geometry",
                 [ROLE_TERM], "termination arm must pair at its right end"),
            ],
            v,
        )
        if isinstance(dup, Duplex) and len(term) == ARM_LENGTH:
            _expect(
                [(dup.bottom.seq == reverse_complement(term[NODE_LENGTH:]),
                  "derivation", [ROLE_TERM],
                  "termination bottom is not the complement of the arm's second half")],
                v,
            )

    option_seqs: dict[str, str] = {}
    for opt in matrix.options:
        role = role_option(opt.label)
        s = seg(role)
        if s is None:
            continue
        option_seqs[opt.label] = s
        site = plan.option_sites[opt.label]
        hits = [i for i in range(len(s) - 5) if s[i : i + 6] == site.site]
        _expect(
            [
                (len(s) == NODE_LENGTH, "geometry", [role],
                 f"option strand is {len(s)} bases, expected {NODE_LENGTH}"),
                (hits != [], "site-missing", [role],
                 f"designed site {site.site} ({site.enzyme}) not present"),
                (hits in ([], [SITE_OFFSET]), "site-extra", [role],
                 f"designed site must occur exactly once at offset {SITE_OFFSET}, found {hits}"),
            ],
            v,
        )

    prob_seqs: dict[str, str] = {}
    util_seqs: dict[str, str] = {}
    for out in matrix.outcomes:
        role = role_prob(out.label)
        s = seg(role)
        m = plan.middle_lengths[out.label]
        if s is not None:
            prob_seqs[out.label] = s
            item = strands[role]
            _expect(
                [
                    (len(s) == 2 * OVERHANG_LENGTH + m, "geometry", [role],
                     f"probability duplex top is {len(s)} bases, expected {2 * OVERHANG_LENGTH + m}"),
                    (isinstance(item, Duplex) and item.offset == OVERHANG_LENGTH,
                     "geometry", [role], "probability duplex must expose 10-base overhangs"),
                ],
                v,
            )
            if isinstance(item, Duplex) and len(s) == 2 * OVERHANG_LENGTH + m:
                _expect(
                    [(item.bottom.seq == reverse_complement(s[OVERHANG_LENGTH : OVERHANG_LENGTH + m]),
                      "derivation", [role], "core bottom is not the complement of the core")],
                    v,
                )
        role = role_util(out.label)
        s = seg(role)
        if s is not None:
            util_seqs[out.label] = s
            site = plan.outcome_sites[out.label]
            hits = [i for i in range(len(s) - 5) if s[i : i + 6] == site.site]
            _expect(
                [
                    (len(s) == NODE_LENGTH, "geometry", [role],
                     f"utility strand is {len(s)} bases, expected {NODE_LENGTH}"),
                    (hits != [], "site-missing", [role],
                     f"designed site {site.site} ({site.enzyme}) not present"),
                    (hits in ([], [SITE_OFFSET]), "site-extra", [role],
                     f"designed site must occur exactly once at offset {SITE_OFFSET}, found {hits}"),
                ],
                v,
            )

    thresh_tops: dict[str, str] = {}
    for out in matrix.outcomes:
        role = role_thresh(out.label)
        s = seg(role)
        if s is None:
            continue
        thresh_tops[out.label] = s
        item = strands[role]
        _expect(
            [
                (len(s) == NODE_LENGTH, "geometry", [role],
                 f"threshold top is {len(s)} bases, expected {NODE_LENGTH}"),
                (isinstance(item, Duplex) and item.offset == OVERHANG_LENGTH,
                 "geometry", [role], "threshold must expose a 10-base toehold"),
            ],
            v,
        )
        if isinstance(item, Duplex) and len(s) == NODE_LENGTH:
            _expect(
                [(item.bottom.seq == reverse_complement(s[OVERHANG_LENGTH:]),
                  "derivation", [role], "protector does not pair the pad")],
                v,
            )
        toehold = s[:OVERHANG_LENGTH]
        designed = [p[:OVERHANG_LENGTH] for p in prob_seqs.values()]
        designed += [o[OVERHANG_LENGTH:] for o in option_seqs.values()]
        _expect(
            [(toehold in designed, "derivation", [role],
              "toehold copies neither a probability front nor an option rear")],
            v,
        )

    # linker derivations
    for opt in matrix.options:
        role = role_link_choice(opt.label)
        s = seg(role)
        if s is None or choice is None or opt.label not in option_seqs:
            continue
        want = reverse_complement(
            choice[NODE_LENGTH:] + option_seqs[opt.label][:OVERHANG_LENGTH]
        )
        _expect(
            [(s == want, "derivation", [role],
              "linker does not complement the choice-to-option junction")],
            v,
        )
    for opt in matrix.options:
        for out in matrix.outcomes:
            role = role_chance(opt.label, out.label)
            s = seg(role)
            if s is None or opt.label not in option_seqs or out.label not in prob_seqs:
                continue
            want = reverse_complement(
                option_seqs[opt.label][OVERHANG_LENGTH:]
                + prob_seqs[out.label][:OVERHANG_LENGTH]
            )
            _expect(
                [(s == want, "derivation", [role],
                  "chance strand does not complement the option-to-probability junction")],
                v,
            )
    for out in matrix.outcomes:
        role = role_link_prob(out.label)
        s = seg(role)
        if s is not None and out.label in prob_seqs and out.label in util_seqs:
            want = reverse_complement(
                prob_seqs[out.label][-OVERHANG_LENGTH:]
                + util_seqs[out.label][:OVERHANG_LENGTH]
            )
            _expect(
                [(s == want, "derivation", [role],
                  "linker does not complement the probability-to-utility junction")],
                v,
            )
        role = role_link_util(out.label)
        s = seg(role)
        if s is not None and out.label in util_seqs and term is not None:
            want = reverse_complement(
                util_seqs[out.label][OVERHANG_LENGTH:] + term[:NODE_LENGTH]
            )
            _expect(
                [(s == want, "derivation", [role],
                  "linker does not complement the utility-to-termination junction")],
                v,
            )
    for role, source, piece in (
        (ROLE_PRIMER_LEFT, choice, lambda c: c[:OVERHANG_LENGTH]),
        (ROLE_PRIMER_RIGHT, term, lambda t: t[-OVERHANG_LENGTH:]),
    ):
        s = seg(role)
        if s is not None and source is not None:
            _expect(
                [(s == reverse_complement(piece(source)), "derivation", [role],
                  "primer does not match its construct end")],
                v,
            )

    # stray sites across assembled constructs (junction-spanning included)
    assigned = {s.site: s.enzyme for s in plan.option_sites.values()}
    assigned.update({s.site: s.enzyme for s in plan.outcome_sites.values()})
    for opt in matrix.options:
        for out in matrix.outcomes:
            if opt.label not in option_seqs or out.label not in prob_seqs:
                continue
            if out.label not in util_seqs or choice is None or term is None:
                continue
            top = (
                choice
                + option_seqs[opt.label]
                + prob_seqs[out.label]
                + util_seqs[out.label]
                + term
            )
            m = plan.middle_lengths[out.label]
            expected = {
                ARM_LENGTH + SITE_OFFSET: plan.option_sites[opt.label].site,
                ARM_LENGTH + NODE_LENGTH + 2 * OVERHANG_LENGTH + m + SITE_OFFSET:
                    plan.outcome_sites[out.label].site,
            }
            for site, enzyme in assigned.items():
                for i in range(len(top) - 5):
                    if top[i : i + 6] == site and expected.get(i) != site:
                        v.append(
                            EncodingViolation(
                                "stray-site",
                                (role_option(opt.label), role_util(out.label)),
                                f"{enzyme} site {site} at construct position {i} "
                                f"of path {opt.label}/{out.label}",
                            )
                        )

    # window uniqueness over independent material
    loci: dict[str, list[tuple[str, int]]] = {}
    site_span_by_role: dict[str, tuple[int, int]] = {}
    independent: list[tuple[str, str]] = []
    if choice is not None:
        independent.append((ROLE_CHOICE, choice))
    if term is not None:
        independent.append((ROLE_TERM, term))
    for opt in matrix.options:
        if opt.label in option_seqs:
            role = role_option(opt.label)
            independent.append((role, option_seqs[opt.label]))
            site_span_by_role[role] = (SITE_OFFSET, SITE_OFFSET + 6)
    for out in matrix.outcomes:
        if out.label in prob_seqs:
            independent.append((role_prob(out.label), prob_seqs[out.label]))
        if out.label in util_seqs:
            role = role_util(out.label)
            independent.append((role, util_seqs[out.label]))
            site_span_by_role[role] = (SITE_OFFSET, SITE_OFFSET + 6)
    for out in matrix.outcomes:
        if out.label in thresh_tops:
            independent.append((role_thresh(out.label), thresh_tops[out.label]))

    designed_toeholds = {p[:OVERHANG_LENGTH] for p in prob_seqs.values()}
    designed_toeholds |= {o[OVERHANG_LENGTH:] for o in option_seqs.values()}
    for role, s in independent:
        for i in range(len(s) - WINDOW + 1):
            w = s[i : i + WINDOW]
            if role.startswith("thresh:") and i == 0 and w in designed_toeholds:
                continue  # designed copy, paired by construction
            loci.setdefault(w, []).append((role, i))

    for w, places in sorted(loci.items()):
        if len(places) > 1:
            v.append(
                EncodingViolation(
                    "duplicate-window",
                    tuple(r for r, _ in places),
                    f"window {w} occurs at {places}",
                )
            )
        rc = reverse_complement(w)
        if rc == w:
            role, i = places[0]
            span = site_span_by_role.get(role)
            covers = span is not None and i <= span[0] and span[1] <= i + WINDOW
            if not covers:
                v.append(
                    EncodingViolation(
                        "self-complement-window",
                        (role,),
                        f"window {w} at offset {i} is its own reverse complement",
                    )
                )
        elif rc in loci and w < rc:
            v.append(
                EncodingViolation(
                    "complement-window",
                    tuple(r for r, _ in loci[w] + loci[rc]),
                    f"windows {w} and {rc} are reverse complements",
                )
            )

    # GC bounds over every physical strand
    for role, item in sorted(strands.items()):
        parts = (
            [(role + ".top", item.top.seq), (role + ".bottom", item.bottom.seq)]
            if isinstance(item, Duplex)
            else [(role, item.seq)]
        )
        for name, s in parts:
            frac = gc_fraction(s)
            if not Fraction(2, 5) <= frac <= Fraction(3, 5):
                v.append(
                    EncodingViolation(
                        "gc-range", (role,),
                        f"{name} GC fraction {frac} outside [2/5, 3/5]",
                    )
                )
    return v


# -- plan containers -----------------------------------------------------------

@dataclass
class EncodingPlan:
    """Everything the bench needs to realize one decision problem."""

    matrix: DecisionMatrix
    seed: int
    strands: dict[str, Strand | Duplex]
    middle_lengths: dict[str, int]
    threshold_ratios: dict[str, Fraction]
    option_sites: dict[str, RecognitionSite]
    outcome_sites: dict[str, RecognitionSite]
    tube_enzymes: tuple[frozenset[str], ...]
    base_length: int = BASE_CONSTRUCT_LENGTH
    fixture_notes: tuple[str, ...] = ()

    @property
    def primers(self) -> tuple[Strand, Strand]:
        return (self.strands[ROLE_PRIMER_LEFT], self.strands[ROLE_PRIMER_RIGHT])

    def construct_top(self, option_label: str, outcome_label: str) -> str:
        choice = self.strands[ROLE_CHOICE].top.seq
        term = self.strands[ROLE_TERM].top.seq
        return (
            choice
            + self.strands[role_option(option_label)].seq
            + self.strands[role_prob(outcome_label)].top.seq
            + self.strands[role_util(outcome_label)].seq
            + term
        )

    def construct_length(self, outcome_label: str) -> int:
        return self.base_length + self.middle_lengths[outcome_label]

    def intensity_scale(self) -> int:
        return math.lcm(*(out.probability.denominator for out in self.matrix.outcomes))

    def predicted_bands(self) -> list[list[tuple[int, int]]]:
        """Per option: (construct length, relative count) for surviving paths."""
        scale = self.intensity_scale()
        table = []
        for opt in self.matrix.options:
            rows = []
            for out, pay in zip(self.matrix.outcomes, opt.payoffs):
                if pay is Payoff.FAVORABLE:
                    count = out.probability * scale
                    rows.append((self.construct_length(out.label), int(count)))
            rows.sort()
            table.append(rows)
        return table

    def all_strands(self) -> list[Strand]:
        flat: list[Strand] = []
        for role in sorted(self.strands):
            item = self.strands[role]
            if isinstance(item, Duplex):
                flat.append(Strand(item.top.seq, role + ".top"))
                flat.append(Strand(item.bottom.seq, role + ".bottom"))
            else:
                flat.append(item)
        return flat

    def to_fasta(self) -> str:
        return write_fasta(self.all_strands())

    def describe(self) -> str:
        lines = [
            "encoding plan",
            "=============",
            f"options: {len(self.matrix.options)}   outcomes: {len(self.matrix.outcomes)}",
            f"seed: {self.seed}",
            f"base construct length: {self.base_length} bp",
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
            fav = [
                out.label
                for out, pay in zip(self.matrix.outcomes, opt.payoffs)
                if pay is Payoff.FAVORABLE
            ]
            band_text = ", ".join(f"{length} bp x{count}" for length, count in bands)
            lines.append(
                f"  {opt.label}: enzyme {site.enzyme} ({site.site}), "
                f"favorable [{', '.join(fav)}], predicted bands [{band_text}]"
            )
            lines.append(f"    tube digested with: {', '.join(sorted(enzymes))}")
        left, right = self.primers
        lines.append(f"primers: {left.seq} / {right.seq}")
        lines.append(f"species: {len(self.all_strands())} strands")
        if self.fixture_notes:
            lines.append("reference-material notes:")
            for note in self.fixture_notes:
                lines.append(f"  - {note}")
        return "\n".join(lines) + "\n"


@dataclass
class ProtocolPlan:
    """Ordered bench steps realizing the encoding."""

    tube_labels: tuple[str, ...]
    tube_enzymes: tuple[tuple[str, ...], ...]
    threshold_doses: dict[str, Fraction]
    primer_seqs: tuple[str, str]
    pcr_cycles: int = 5
    incubation_celsius: int = 37
    ligase: str = "T4 DNA ligase"
    stock_note: str = "0.1 ml of each strand stock at 0.1 ug/ul"
    gel_agarose_percent: str = "2.5-3"
    gel_dye_bp: int = 100
    gel_dye_stop: Fraction = Fraction(2, 3)

    def describe(self) -> str:
        doses = ", ".join(f"{k}={v}" for k, v in self.threshold_doses.items())
        lines = [
            "protocol plan",
            "=============",
            f"1. pool stocks ({self.stock_note}) for every encoding strand",
            f"2. add threshold duplexes at ratios {doses} and let displacement complete",
            f"3. anneal and ligate surviving junctions with {self.ligase}",
            f"4. split the pool into {len(self.tube_labels)} tubes, one per option",
        ]
        for label, enzymes in zip(self.tube_labels, self.tube_enzymes):
            lines.append(
                f"   {label}: digest with {', '.join(enzymes)} "
                f"at {self.incubation_celsius} C"
            )
        left, right = self.primer_seqs
        lines.append(
            f"5. amplify {self.pcr_cycles} PCR cycles with primers {left} and {right}"
        )
        lines.append("6. purify, keeping amplified full-length constructs")
        lines.append(
            f"7. run a {self.gel_agarose_percent}% agarose gel; "
            f"stop when the {self.gel_dye_bp} bp dye front reaches "
            f"{self.gel_dye_stop} of the lane"
        )
        lines.append("8. read band lengths and intensities, then decide")
        return "\n".join(lines) + "\n"


def compile_problem(
    matrix: DecisionMatrix,
    seed: int = 0,
    library: tuple[RecognitionSite, ...] = CORE_BLUNT_CUTTERS,
    use_fixture: bool = False,
    pcr_cycles: int = 5,
    resolution: int = 9,
) -> tuple[EncodingPlan, ProtocolPlan]:
    """Full translation: matrix -> sequences, tube schedule, bench steps."""
    validate_matrix(matrix)
    ratios = {out.label: threshold_ratio(out.probability) for out in matrix.outcomes}
    lengths = probability_lengths(
        [out.probability for out in matrix.outcomes], resolution=resolution
    )
    middles = {out.label: m for out, m in zip(matrix.outcomes, lengths)}
    option_sites, outcome_sites = assign_enzymes(matrix, library)
    tubes = tube_schedule(matrix, option_sites, outcome_sites)

    pins: dict[str, str] = {}
    notes: tuple[str, ...] = ()
    if use_fixture:
        from .fixture import screened_pins

        pins, notes = screened_pins(matrix, option_sites, outcome_sites, middles)

    strands = generate_sequences(
        matrix, option_sites, outcome_sites, middles, seed=seed, pins=pins
    )
    plan = EncodingPlan(
        matrix=matrix,
        seed=seed,
        strands=strands,
        middle_lengths=middles,
        threshold_ratios=ratios,
        option_sites=option_sites,
        outcome_sites=outcome_sites,
        tube_enzymes=tubes,
        fixture_notes=notes,
    )
    protocol = ProtocolPlan(
        tube_labels=tuple(f"tube-{i + 1}" for i in range(len(matrix.options))),
        tube_enzymes=tuple(tuple(sorted(t)) for t in tubes),
        threshold_doses=dict(ratios),
        primer_seqs=(plan.primers[0].seq, plan.primers[1].seq),
        pcr_cycles=pcr_cycles,
    )
    return plan, protocol
