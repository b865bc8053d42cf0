"""Translate a decision matrix into strand sequences and a bench protocol.

The encoding realizes each root-to-termination path of the decision network
(`construct_roles`) as one ligatable construct: a shared choice arm, a
20-base option strand carrying that option's recognition site, a
probability duplex whose core length encodes the outcome's rank, a 20-base
utility strand carrying the outcome's site, and a shared termination arm.
Short linker strands complement every junction so ligation yields fully
double-stranded constructs. Probability weighting is done before assembly
by threshold duplexes dosed at one minus the outcome probability.

One rule sheet (`_top_rules`) yields a `Top` record per independent top, in
design order: its designed length, designed site and ligated neighbours. The
geometry table (`_GEOMETRY`, spelled out by `derivations`) derives every
other strand (duplex bottoms, linkers, chance strands, primers) from slices
of the tops. The sequence rules live in `violations`, which walks each
candidate's windows once and records them with their places; the designer
places a clean top, and the validator each judged top, from that record.
Sequence generation is rejection sampling of each top under its record and
is deterministic for a given seed. The designer and the validator
(`validate_encoding`) read the same records, table and rules. Every derived
strand is built without the checks of `Strand` and `Duplex`: it is the
reverse complement of slices of tops that passed `Strand`.

Each strand is named by a role key (`role_*`) that spells the slugs of the
labels it serves; `derivations` refuses labels that would share a name.
Every name is a pure function of the labels, so each is spelled once per
label set and cached: the namers by their labels, the geometry table by the
label tuples, shared by every caller as a read-only mapping.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .decision import DecisionMatrix, DuplicateLabelError, InputError, Payoff, validate_matrix
from .strands import (
    _COMPLEMENT,
    CORE_BLUNT_CUTTERS,
    EXTENDED_BLUNT_CUTTERS,
    Duplex,
    RecognitionSite,
    Strand,
    _derived,
    reverse_complement,
    site_hits,
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


@lru_cache(maxsize=64)
def role_option(label: str) -> str:
    return f"option:{_slug(label)}"


@lru_cache(maxsize=256)
def role_chance(option_label: str, outcome_label: str) -> str:
    return f"chance:{_slug(option_label)}:{_slug(outcome_label)}"


@lru_cache(maxsize=64)
def role_prob(outcome_label: str) -> str:
    return f"prob:{_slug(outcome_label)}"


@lru_cache(maxsize=64)
def role_util(outcome_label: str) -> str:
    return f"util:{_slug(outcome_label)}"


@lru_cache(maxsize=64)
def role_thresh(outcome_label: str) -> str:
    return f"thresh:{_slug(outcome_label)}"


# One root-to-sink path of the decision network, its nine role names spelled
# as `_GEOMETRY` spells them: {o} is the option's slug and {u} the outcome's.
# A slug holds no whitespace, so one format and a split give the nine names.
_PATH = ("choice link:choice:{o} option:{o} chance:{o}:{u} prob:{u} "
         "link:prob:{u} util:{u} link:util:{u} term")


@lru_cache(maxsize=256)
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


@lru_cache(maxsize=256)
def construct_key(option_label: str, outcome_label: str) -> str:
    """The ligated construct of one path; unique whenever its chance strand's key is."""
    return f"construct:{_slug(option_label)}:{_slug(outcome_label)}"


class CompileError(InputError):
    """The problem has no realisation: too many outcomes for the gel, too
    few enzymes in the library, or no sequence the rules accept."""


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
            raise CompileError(
                f"outcomes[{j}].probability: rank {rank} needs a {m} bp core, "
                f"beyond the {MAX_CORE_LENGTH} bp ladder range"
            )
        lengths[j] = m
    return lengths


def assign_enzymes(
    matrix: DecisionMatrix,
    library: tuple[RecognitionSite, ...] = CORE_BLUNT_CUTTERS,
) -> dict[str, RecognitionSite]:
    """The plan's site map: one catalog enzyme, in catalog order, per top that
    carries a site, keyed by the top's role: each option top (`option:{o}`)
    in option order, then each utility top (`util:{u}`) in outcome order."""
    roles = [role_option(opt.label) for opt in matrix.options]
    roles += [role_util(out.label) for out in matrix.outcomes]
    if len(roles) > len(library):
        extended = len(EXTENDED_BLUNT_CUTTERS)
        raise CompileError(
            f"options and outcomes: {len(matrix.options)} + {len(matrix.outcomes)} "
            f"need {len(roles)} distinct enzymes, library provides {len(library)}"
            + (f" (the extended library provides {extended})" if len(library) < extended else "")
        )
    return dict(zip(roles, library))


# -- construct geometry --------------------------------------------------------

class Derivation(NamedTuple):
    """A derived strand: the reverse complement of its source slices joined,
    each slice (independent top, start, stop). A duplex bottom pairs its own
    role's top from column `offset`; a free strand has no offset."""

    slices: tuple[tuple[str, int | None, int | None], ...]
    what: str
    offset: int | None = None

    def derive(self, tops: dict[str, str]) -> str:
        return "".join([tops[r][a:b] for r, a, b in self.slices])[::-1].translate(_COMPLEMENT)

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


def derivations(options: Iterable[str], outcomes: Iterable[str]) -> Mapping[str, Derivation]:
    """The geometry table spelled out for these option and outcome labels.

    Every other key (an option or utility top, a construct) spells its
    labels' slugs as a row here does, so a key spelled twice here is the one
    check that refuses labels, or label pairs, that would share a strand.

    The table depends on the labels alone: it is spelled once per label set
    and every caller shares it, read-only. A refusal is raised again on every
    call, since an exception is never cached. `compile_problem` refuses an
    oversized problem (too many outcomes or enzymes) before spelling it.
    """
    return _derivations(tuple(options), tuple(outcomes))


@lru_cache(maxsize=32)
def _derivations(options: tuple[str, ...], outcomes: tuple[str, ...]) -> Mapping[str, Derivation]:
    table: dict[str, Derivation] = {}
    named_options = [(f"options[{i}].label", o, _slug(o)) for i, o in enumerate(options)]
    named_outcomes = [(f"outcomes[{j}].label", u, _slug(u)) for j, u in enumerate(outcomes)]
    for role, offset, slices, what in _GEOMETRY:
        row = (named_options if "{o}" in role else [("", "", "")],
               named_outcomes if "{u}" in role else [("", "", "")])
        for o in row[0]:
            for u in row[1]:
                name = {"o": o[2], "u": u[2]}
                key = role.format(**name)
                if key in table:
                    raise _collision(role, key, row, (o, u))
                table[key] = Derivation(
                    tuple((r.format(**name), a, b) for r, a, b in slices), what, offset
                )
    return MappingProxyType(table)


def _collision(role: str, key: str, row, pair) -> DuplicateLabelError:
    """Name `pair`'s fields, then the first (option, outcome) of `row`'s
    (field, label, slug) lists whose `role` spells `key`, and `pair`."""
    first = next((o, u) for o in row[0] for u in row[1]
                 if role.format(o=o[2], u=u[2]) == key)
    fields = " and ".join(field for field, _, _ in pair if field)
    if "{o}" in role and "{u}" in role:
        names = (f"option {first[0][1]!r} with outcome {first[1][1]!r} and "
                 f"option {pair[0][1]!r} with outcome {pair[1][1]!r}")
    else:
        family, k = ("option", 0) if "{o}" in role else ("outcome", 1)
        names = f"{family} labels {first[k][1]!r} and {pair[k][1]!r}"
    return DuplicateLabelError(f"{fields}: {names} collide: both name their strands {key!r}")


class Top(NamedTuple):
    """One independent top as the rule sheet states it: its designed length,
    its designed site at `SITE_OFFSET` ("" for none), its ligated neighbours,
    the copied toehold of a threshold (None for every other top) and the
    breaks of its GC blocking."""

    role: str
    length: int
    site: str = ""
    lefts: tuple[str, ...] = ()
    rights: tuple[str, ...] = ()
    prefix: str | None = None
    breaks: tuple[int, ...] = ()


def _top_rules(options: list[str], middle_lengths: dict[str, int],
               sites: dict[str, RecognitionSite], tops: dict[str, str]):
    """The rule sheet: one `Top` per independent top, in design order, which
    the designer designs and the validator judges. A neighbour is read from
    `tops` when its top is reached, so the designer sees every top placed
    before; a missing one reads as ""."""
    yield Top(ROLE_CHOICE, ARM_LENGTH)
    yield Top(ROLE_TERM, ARM_LENGTH)
    for opt in options:
        role = role_option(opt)
        yield Top(role, _N, sites[role].site, (tops.get(ROLE_CHOICE, ""),))
    option_tops = tuple(tops.get(role_option(opt), "") for opt in options)
    for out, m in middle_lengths.items():
        yield Top(role_prob(out), 2 * _H + m, lefts=option_tops, breaks=(_H, _H + m))
    for out in middle_lengths:
        role, left, right = role_util(out), tops.get(role_prob(out), ""), tops.get(ROLE_TERM, "")
        yield Top(role, _N, sites[role].site, (left,), (right,))
    for out in middle_lengths:
        yield Top(role_thresh(out), _N, prefix=tops.get(role_prob(out), "")[:_H])


# -- sequence rules ------------------------------------------------------------

class EncodingViolation(NamedTuple):
    kind: str
    roles: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {', '.join(self.roles)}: {self.detail}"


_Places = dict[str, list[tuple[str, int]]]  # each placed window's (role, offset) places


def _gc_violations(role: str, seq: str) -> list[EncodingViolation]:
    """The GC rule: the GC fraction stays within [2/5, 3/5]."""
    gc = seq.count("G") + seq.count("C")
    if 2 * len(seq) <= 5 * gc <= 3 * len(seq):
        return []
    detail = f"GC fraction {Fraction(gc, len(seq))} outside [2/5, 3/5]"
    return [EncodingViolation("gc-range", (role,), detail)]


def violations(
    top: Top, seq: str, fresh_from: int, sites: tuple[str, ...], placed: _Places
) -> tuple[list[EncodingViolation], _Places]:
    """Every rule `seq`, as `top`, breaks (none means it may be placed), and
    the places of the windows it judged, each walked once, which its caller
    (the designer, or the validator) places from.

    Windows starting before `fresh_from` are designed copies of placed
    material, neither judged nor placed. `sites` are the assigned sites (the
    top's own among them) and `placed` every placed window's places.
    (a) window: each 10-base window from `fresh_from` on is new: it was not
        placed before, in `placed` or earlier in `seq`, it is not the
        reverse complement of such a window, and it is not its own reverse
        complement unless it covers the designed site.
    (b) site: the designed site occurs exactly once, at `SITE_OFFSET`, and
        no assigned site occurs anywhere else.
    (c) junction: no assigned site spans the 5 + 5 bases where `seq` meets
        a left or right neighbour.
    (d) gc: `_gc_violations`.
    """
    role, own = top.role, top.site
    found: list[EncodingViolation] = []

    def flag(kind: str, detail: str, roles: tuple[str, ...] = (role,)) -> None:
        found.append(EncodingViolation(kind, roles, detail))

    local: _Places = {}
    n, rc_seq = len(seq), reverse_complement(seq)
    for i in range(fresh_from, n - WINDOW + 1):
        w = seq[i : i + WINDOW]
        if w in placed or w in local:
            loci = placed.get(w, []) + local.get(w, []) + [(role, i)]
            flag("duplicate-window", f"window {w} occurs at {loci}", tuple(r for r, _ in loci))
            local.setdefault(w, []).append((role, i))
            continue
        local[w] = [(role, i)]
        rc = rc_seq[n - WINDOW - i : n - i]
        if w == rc:
            if not (own and i <= SITE_OFFSET and SITE_OFFSET + len(own) <= i + WINDOW):
                flag("self-complement-window",
                     f"window {w} at offset {i} is its own reverse complement", (role,))
        elif rc in placed or rc in local:
            pair = sorted([(w, [(role, i)]), (rc, placed.get(rc, []) + local.get(rc, []))])
            flag("complement-window",
                 f"windows {pair[0][0]} and {pair[1][0]} are reverse complements",
                 tuple(r for _, loci in pair for r, _ in loci))
    hits = site_hits(seq, [site for site in sites if site in seq], 0, n)
    if own and hits.get(own) != [SITE_OFFSET]:
        flag("site-extra" if own in hits else "site-missing",
             f"designed site {own} not exactly once at offset {SITE_OFFSET}")
    for site, at in hits.items():
        for i in at:
            if i != SITE_OFFSET or site != own:
                flag("stray-site", f"stray site {site} at {i}")
    joints = [left[-5:] + seq[:5] for left in top.lefts]
    joints += [seq[-5:] + right[:5] for right in top.rights]
    joined = "|".join(joints)  # no site spans a "|": one test per site first
    if any(site in joined for site in sites):
        for joint in joints:
            for site in sites:
                if site in joint:
                    flag("junction-site", f"site {site} spans the junction {joint}")
    return found + _gc_violations(role, seq), local


# -- sequence generation -------------------------------------------------------

MAX_TRIES = 500  # candidates sampled for one segment before the designer gives up


class _Designer:
    """Stateful rejection sampler for fresh segments, noting its verdict on each pin."""

    def __init__(self, rng, assigned_sites: list[str]):
        self.rng = rng
        self.sites = tuple(assigned_sites)
        self.windows: _Places = {}
        self.notes: list[str] = []

    def _block(self, length: int, fixed: dict[int, str]) -> str:
        """A GC-balanced block, drawn through `getrandbits` exactly as
        `randint`, `sample` and `choice` would, so a seed's FASTA stays put.
        Each bounded draw inlines `Random._randbelow_with_getrandbits`: k =
        n.bit_length() bits, drawn again while the value is not below n."""
        bits = self.rng.getrandbits
        fixed_gc = sum(1 for b in fixed.values() if b in "GC")
        free = [i for i in range(length) if i not in fixed]
        n = len(free)
        lo = max(-(-2 * length // 5), fixed_gc)
        hi = min(3 * length // 5, fixed_gc + n)
        if lo > hi:
            raise CompileError(f"no GC-balanced fill for a {length}-base block")
        # randint(lo, hi), then sample's pool walk (a block's <= 10 free
        # positions never reach sample's set-based branch); `out` holds the
        # fixed bases and each free position's alphabet, "GC" where drawn
        span = hi - lo + 1
        k = span.bit_length()
        r = bits(k)
        while r >= span:
            r = bits(k)
        target, out, pool = lo + r - fixed_gc, ["AT"] * length, free[:]
        for i, b in fixed.items():
            out[i] = b
        for m in range(n, n - target, -1):  # sample's i-th draw is below n - i
            k = m.bit_length()
            j = bits(k)
            while j >= m:
                j = bits(k)
            out[pool[j]] = "GC"
            pool[j] = pool[m - 1]
        for i in free:  # choice of a 2-letter alphabet, in position order
            r = bits(2)
            while r >= 2:
                r = bits(2)
            out[i] = out[i][r]
        return "".join(out)

    def fresh(self, top: Top, pin: tuple[str, str] | None = None) -> str:
        """Sample a sequence for `top` that `violations` passes, keeping its
        prefix and designed site bases verbatim; prefix windows copy placed
        material, so only windows that add new bases are judged.

        The top's `breaks` restart the 10-base GC blocking at interior
        positions so that functionally distinct regions (overhangs, duplex
        cores) are GC-balanced on their own. Running out of tries names each
        kind of finding the candidates drew, with how many drew it.

        A `pin`, (printed label, piece), is the first candidate: the piece
        behind the prefix, judged like any other and also by its length. It
        is placed verbatim if it passes; either verdict goes to `notes`.
        """
        role, prefix = top.role, top.prefix or ""
        fixed: dict[int, str] = dict(enumerate(prefix))
        fixed.update((SITE_OFFSET + k, b) for k, b in enumerate(top.site))
        bounds = [0, *top.breaks, top.length]
        blocks = []  # (width, fixed bases by block offset) per 10-base block
        for lo, hi in zip(bounds, bounds[1:]):
            for start in range(lo, hi, 10):
                end = min(start + 10, hi)
                local = {i - start: b for i, b in fixed.items() if start <= i < end}
                blocks.append((end - start, local))
        fresh_from = max(0, len(prefix) - WINDOW + 1)
        if pin is not None:
            label, piece = pin
            seq, want = prefix + piece, top.length - len(prefix)
            reasons = [] if len(piece) == want else [f"{len(piece)} bases, expected {want}"]
            found, walked = violations(top, seq, fresh_from, self.sites, self.windows)
            reasons += [v.detail for v in found]
            if not reasons:
                self.notes.append(f"kept reference {label} verbatim")
                self.windows.update(walked)
                return seq
            self.notes.append(f"rejected reference {label}: {'; '.join(reasons)}")
        rejected: Counter[str] = Counter()
        for _ in range(MAX_TRIES):
            seq = "".join([self._block(width, local) for width, local in blocks])
            found, walked = violations(top, seq, fresh_from, self.sites, self.windows)
            if not found:
                self.windows.update(walked)  # a clean top repeats no placed window
                return seq
            rejected.update({v.kind for v in found})
        tally = ", ".join(f"{kind} {n}" for kind, n in sorted(rejected.items()))
        raise CompileError(f"could not place segment {role!r}: {tally}")


def generate_sequences(
    matrix: DecisionMatrix,
    sites: dict[str, RecognitionSite],
    middle_lengths: dict[str, int],
    seed: int = 0,
    pins: dict[str, tuple[str, str]] | None = None,
) -> tuple[dict[str, Strand | Duplex], tuple[str, ...]]:
    """Build every strand and duplex of the encoding, deterministically, and
    return them with the designer's verdicts on the pinned pieces.

    The designer samples the independent tops and the geometry table
    (`derivations` of the labels) derives the rest. `pins` maps a top's
    role to a reference piece, (printed label, sequence), that the designer
    judges in place as the first candidate for that top (a threshold's
    piece is its pad alone); the verdicts come one per pin, in design order.
    """
    pins = pins or {}
    d = _Designer(random.Random(seed), [s.site for s in sites.values()])
    options = [opt.label for opt in matrix.options]
    tops: dict[str, str] = {}
    for top in _top_rules(options, middle_lengths, sites, tops):
        tops[top.role] = d.fresh(top, pins.get(top.role))

    # a derived strand reverse-complements slices of checked tops, so it is
    # ACGT, non-empty and pairs its top at its offset: none is checked again
    plan: dict[str, Strand | Duplex] = {role: Strand(top) for role, top in tops.items()}
    for role, rule in derivations(options, middle_lengths).items():
        strand = rule.derive(tops)
        plan[role] = (str.__new__(Strand, strand) if rule.offset is None
                      else _derived(plan[role], strand, rule.offset))
    return plan, tuple(d.notes)


# -- validation ----------------------------------------------------------------

def check_pieces(
    options: list[str],
    middle_lengths: dict[str, int],
    sites: dict[str, RecognitionSite],
    pieces: dict[str, str],
) -> list[tuple[str, EncodingViolation]]:
    """Walk the rule sheet and the geometry table over an encoding's pieces.

    `pieces` maps strand names to sequences: a top or a free strand under
    its role, a duplex bottom under its role and a prime. `sites` gives the
    option and utility tops their designed sites; the geometry table is
    `derivations` of these labels. Each top is judged as the
    designer placed it, by its `Top` from `_top_rules`, with its neighbours
    read from `pieces`; every junction is judged on the top to its right
    (the utility top also judges its right one). Each finding comes with its
    strand, in this order: missing roles; lengths; on each top in design
    order, the toehold copy of a threshold and the rules (windows, sites,
    junctions, GC); on each derived strand, GC and the derivation.
    """
    tops = list(_top_rules(options, middle_lengths, sites, pieces))
    table = derivations(options, middle_lengths)
    lengths = {top.role: top.length for top in tops}
    parts = [(top.role, top.role, top.length, top) for top in tops]
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
    assigned, windows = tuple(s.site for s in sites.values()), {}
    for name, role, _, rule in parts:
        seq = pieces[name]
        if isinstance(rule, Derivation):
            found += [(name, v) for v in _gc_violations(role, seq)]
            if all(r in pieces for r, _, _ in rule.slices) and seq != rule.derive(pieces):
                detail = f"not the {rule.what}"
                found.append((name, EncodingViolation("derivation", (role,), detail)))
            continue
        copied = rule.prefix is not None and seq[:_H] in toeholds
        if rule.prefix is not None and not copied:
            detail = "toehold copies neither the option rear nor the probability front"
            found.append((name, EncodingViolation("derivation", (role,), detail)))
        fresh_from = _H - WINDOW + 1 if copied else 0
        judged, walked = violations(rule, seq, fresh_from, assigned, windows)
        found += [(name, v) for v in judged]
        # a transcribed top may repeat placed windows: each keeps all its places
        for w in walked.keys() & windows.keys():
            walked[w] = windows[w] + walked[w]
        windows.update(walked)
    return found


def validate_encoding(plan: "EncodingPlan") -> list[EncodingViolation]:
    """Check a plan against the geometry table and the sequence rules.

    Violations are returned as data, never raised (labels that would share a
    strand are, as in `derivations`); a freshly compiled plan must come back
    clean, a transcribed reference may not.
    """
    matrix, strands, sites = plan.matrix, plan.strands, plan.sites
    options = [opt.label for opt in matrix.options]
    table = derivations(options, plan.middle_lengths)
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
    return found + [v for _, v in check_pieces(options, plan.middle_lengths, sites, pieces)]


# -- plan containers -----------------------------------------------------------

class EncodingPlan(NamedTuple):
    """Everything the bench needs to realize one decision problem."""

    matrix: DecisionMatrix
    seed: int
    strands: dict[str, Strand | Duplex]
    middle_lengths: dict[str, int]
    sites: dict[str, RecognitionSite]  # by the role of the top carrying it, see `assign_enzymes`
    fixture_notes: tuple[str, ...] = ()

    @property
    def tube_enzymes(self) -> tuple[tuple[str, ...], ...]:
        """Enzyme names per option tube, in name order, read from `sites` by role: each
        tube cuts every rival option and every outcome its own option finds unfavorable."""
        rivals = [self.sites[role_option(opt.label)].enzyme for opt in self.matrix.options]
        outcomes = [self.sites[role_util(out.label)].enzyme for out in self.matrix.outcomes]
        return tuple(
            tuple(sorted(rivals[:i] + rivals[i + 1 :] + [
                e for e, pay in zip(outcomes, opt.payoffs) if pay is Payoff.UNFAVORABLE
            ]))
            for i, opt in enumerate(self.matrix.options)
        )

    @property
    def threshold_ratios(self) -> dict[str, Fraction]:
        """Threshold dose per unit of chance material, by outcome label: one
        minus the outcome's probability. `intensity_scale()` is the lcm of the
        probability denominators, so each dose is a whole number of its units."""
        return {out.label: 1 - out.probability for out in self.matrix.outcomes}

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
        scale = self.intensity_scale()
        rows = [(self.construct_length(out.label),
                 out.probability.numerator * (scale // out.probability.denominator))
                for out in self.matrix.outcomes]
        return [sorted(rows[j] for j in opt.favorable_indices()) for opt in self.matrix.options]

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
        ratios = self.threshold_ratios
        for out in self.matrix.outcomes:
            site = self.sites[role_util(out.label)]
            lines.append(
                f"  {out.label}: probability {out.probability}, "
                f"threshold ratio {ratios[out.label]}, "
                f"core {self.middle_lengths[out.label]} bp, "
                f"construct {self.construct_length(out.label)} bp, "
                f"enzyme {site.enzyme} ({site.site})"
            )
        lines.append("options:")
        for opt, enzymes, bands in zip(
            self.matrix.options, self.tube_enzymes, self.predicted_bands()
        ):
            site = self.sites[role_option(opt.label)]
            fav = [self.matrix.outcomes[j].label for j in opt.favorable_indices()]
            band_text = ", ".join(f"{length} bp x{count}" for length, count in bands)
            lines.append(
                f"  {opt.label}: enzyme {site.enzyme} ({site.site}), "
                f"favorable [{', '.join(fav)}], predicted bands [{band_text}]"
            )
            lines.append(f"    tube digested with: {', '.join(enzymes) or 'none'}")
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
                step = f"digest with {', '.join(enzymes)} at 37 C"
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
    # size first, so an oversized problem is refused before its table is spelled
    lengths = probability_lengths([out.probability for out in matrix.outcomes])
    sites = assign_enzymes(matrix, library)
    # the geometry table refuses labels that would share a strand
    derivations([o.label for o in matrix.options], [o.label for o in matrix.outcomes])
    middles = {out.label: m for out, m in zip(matrix.outcomes, lengths)}

    pins = {}
    if use_fixture:
        from .fixture import reference_pins

        pins = reference_pins(matrix)
    strands, notes = generate_sequences(matrix, sites, middles, seed=seed, pins=pins)
    plan = EncodingPlan(
        matrix=matrix,
        seed=seed,
        strands=strands,
        middle_lengths=middles,
        sites=sites,
        fixture_notes=notes,
    )
    return plan, ProtocolPlan(plan, pcr_cycles)
