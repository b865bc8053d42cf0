"""Deterministic simulation of the bench protocol.

A species is named by its key in a tube's mapping alone. Its amount is an
integer count of 1/`plan.intensity_scale()` of a stock (one pooled dose =
scale counts): every dose is a whole number of them and PCR only doubles,
so counting stays exact rational arithmetic. Audit records spell each
amount as a reduced ratio (`_ratio`, one gcd); a `Fraction` is built only
for the gel's bands. Operations never mutate a tube; each returns a fresh
TubeState with an audit record appended, so a run is reproducible from its
log. Thresholding follows pairwise dose semantics: a threshold dosed at
ratio r holds back min(r, c) from EACH chance species it targets, the
ratio being defined against that species' own stock.

Assembly uses limiting-reagent accounting against the counts at entry:
every path yields construct at the minimum of its nine constituents
(`construct_roles`, all pooled by `mix`, so a missing one is a KeyError),
and shared constituents are debited by total demand (floored at zero).
Yields are nominal per-path numbers, as a within-lane band comparison reads.

`digest`, `pcr` and `purify` are the single steps, each walking its own
tube. `run_protocol` does not call them: its option tubes share the pool's
species mapping (no step edits a mapping in place) and the pool's
`DigestTable`, which walks the pool once, scans each active duplex for the
library's sites once and cuts it once per distinct set of enzymes that
hits it. Each tube's digest, pcr and purify then run as one pass over that
table, writing the records the single steps write and building a species
only for a fragment that survives purify. Purify's record names nothing:
it keeps exactly what pcr's record lists as amplified.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .compiler import (
    ROLE_PRIMER_LEFT,
    ROLE_PRIMER_RIGHT,
    EncodingPlan,
    ProtocolPlan,
    construct_key,
    construct_roles,
    role_chance,
    role_thresh,
    tube_label,
)
from .strands import (
    _COMPLEMENT,
    Duplex,
    RecognitionSite,
    Strand,
    _derived,
    cut,
    reverse_complement,
    site_hits,
)

ACTIVE = "active"
WASTE = "waste"

# A bench PCR runs a few dozen cycles at most; past this the simulated
# product is meaningless and `count << cycles` only grows the integer counts.
MAX_PCR_CYCLES = 40


class UnknownEnzymeError(ValueError):
    pass


class CycleCountError(ValueError):
    pass


class DoseError(ValueError):
    pass


class Species(NamedTuple):
    structure: Strand | Duplex
    count: int  # amount, in units of 1/plan.intensity_scale() stock
    status: str = ACTIVE
    amplified: bool = False

    @property
    def length(self) -> int:
        if isinstance(self.structure, Duplex):
            return self.structure.span_length
        return len(self.structure)

    @property
    def is_duplex(self) -> bool:
        return isinstance(self.structure, Duplex)


class TubeState(NamedTuple):
    label: str
    plan: EncodingPlan
    species: dict[str, Species]
    log: tuple[dict, ...] = ()
    pcr_cycles: int = 0

    def _with(self, species: dict[str, Species], record: dict) -> "TubeState":
        return self._replace(species=species, log=self.log + (record,))


def _ratio(count: int, unit: int) -> str:
    """`str(Fraction(count, unit))` for audit text, without building the Fraction."""
    g = gcd(count, unit)
    return f"{count // g}" if g == unit else f"{count // g}/{unit // g}"


def mix(plan: EncodingPlan) -> TubeState:
    """Pool every encoding species; thresholds go in at their dose ratios,
    each a whole number of units (`DoseError` otherwise: never rounded)."""
    unit = plan.intensity_scale()
    doses = {
        role_thresh(out.label): plan.threshold_ratios[out.label]
        for out in plan.matrix.outcomes
    }
    species: dict[str, Species] = {}
    for role in plan.strands:
        if role in (ROLE_PRIMER_LEFT, ROLE_PRIMER_RIGHT):
            continue  # primers join at amplification, not in the pool
        count = doses.get(role, 1) * unit
        if count.denominator != 1:
            raise DoseError(f"{role}: dose {doses[role]} is not a whole number of 1/{unit} units")
        species[role] = Species(plan.strands[role], int(count))
    record = {
        "op": "mix",
        "species": len(species),
        "thresholds": {role: str(dose) for role, dose in doses.items()},
    }
    return TubeState("pool", plan, species, (record,))


def apply_thresholds(tube: TubeState) -> TubeState:
    """Let each threshold sequester its outcome's chance strands.

    Per chance species: consumed = min(dose, count); the consumed
    amount moves into an inert waste complex keyed by the chance species
    alone (chance keys are distinct, thresh+chance joins need not be).
    Material is conserved per chance species (active + waste before ==
    after).
    """
    plan = tube.plan
    unit = plan.intensity_scale()
    species = dict(tube.species)
    detail: dict[str, dict] = {}
    for out in plan.matrix.outcomes:
        th_key = role_thresh(out.label)
        dose = species[th_key].count
        max_consumed = 0
        for opt in plan.matrix.options:
            ch_key = role_chance(opt.label, out.label)
            c = species[ch_key].count
            consumed = min(dose, c)
            max_consumed = max(max_consumed, consumed)
            if consumed == 0:
                continue
            species[ch_key] = species[ch_key]._replace(count=c - consumed)
            species[f"waste:{ch_key}"] = Species(species[th_key].structure, consumed, WASTE)
            detail[ch_key] = {
                "dose": _ratio(dose, unit),
                "consumed": _ratio(consumed, unit),
                "remaining": _ratio(c - consumed, unit),
            }
        species[th_key] = species[th_key]._replace(count=max(0, dose - max_consumed))
    return tube._with(species, {"op": "thresholds", "displaced": detail})


def assemble(tube: TubeState) -> TubeState:
    """Ligate every path into its full blunt construct at limiting yield.

    Each construct's strands are joined from checked pooled strands, so
    they are built through `strands`' trusted path without re-checking.
    """
    plan = tube.plan
    unit = plan.intensity_scale()
    species = dict(tube.species)
    paths = []  # (key, roles, yield) per construct
    demand: dict[str, int] = {}
    for opt in plan.matrix.options:
        for out in plan.matrix.outcomes:
            roles = construct_roles(opt.label, out.label)
            amount = min(tube.species[r].count for r in roles)
            paths.append((construct_key(opt.label, out.label), roles, amount))
            for r in roles:
                demand[r] = demand.get(r, 0) + amount
    for key, used in demand.items():
        species[key] = species[key]._replace(count=max(0, species[key].count - used))
    for key, roles, amount in paths:
        top = plan.construct_top(roles)
        bottom = top[::-1].translate(_COMPLEMENT)
        species[key] = Species(_derived(top, bottom, 0), amount)
    yields = {key: _ratio(amount, unit) for key, _, amount in paths}
    return tube._with(species, {"op": "assemble", "yields": yields})


def split_tubes(tube: TubeState) -> list[TubeState]:
    """One aliquot per option; per-volume counts carry over unchanged, so
    every aliquot shares the pool's own species mapping."""
    tubes = []
    for i, opt in enumerate(tube.plan.matrix.options):
        label = tube_label(i)
        record = {"op": "split", "tube": label, "option": opt.label}
        tubes.append(TubeState(label, tube.plan, tube.species, tube.log + (record,)))
    return tubes


def _library(plan: EncodingPlan) -> dict[str, RecognitionSite]:
    """The plan's library: each enzyme's site, by enzyme name in name order."""
    sites = (*plan.option_sites.values(), *plan.outcome_sites.values())
    return {site.enzyme: site for site in sorted(sites)}


def _ordered(library: dict[str, RecognitionSite], enzyme_names) -> list[str]:
    """The named enzymes in name order, each checked to be in the library."""
    ordered = sorted(enzyme_names)
    for name in ordered:
        if name not in library:
            raise UnknownEnzymeError(f"{name} is not in this plan's library: {list(library)}")
    return ordered


def _primer_rule(plan: EncodingPlan):
    """Whether pcr amplifies a duplex: blunt, long enough to hold both
    primers, and flanked by them (a primer at each end, read on either strand)."""
    p1, p2 = plan.primers
    e1, e2 = (p1, reverse_complement(p1)), (p2, reverse_complement(p2))
    ends = {(left, right) for x, y in ((e1, e2), (e2, e1)) for left in x for right in y}
    n1, n2 = len(p1), len(p2)

    def primed(duplex: Duplex) -> bool:
        top = duplex.top
        return duplex.is_blunt and len(top) >= 2 * n1 and (top[:n1], top[-n2:]) in ends

    return primed


def _check_cycles(cycles: int) -> None:
    if cycles < 0:
        raise CycleCountError(f"cycle count must be non-negative, got {cycles}")
    if cycles > MAX_PCR_CYCLES:
        raise CycleCountError(f"cycle count must be at most {MAX_PCR_CYCLES}, got {cycles}")


def digest(tube: TubeState, enzyme_names) -> TubeState:
    """Cut every active duplex with all named enzymes at once, to completion.

    Each duplex is cut in one `cut` call with the named enzymes in name
    order (which only matters where two sites overlap); its fragments
    replace it, after the tube's other species.
    """
    library = _library(tube.plan)
    ordered = _ordered(library, enzyme_names)
    sites = [library[name] for name in ordered]
    species = dict(tube.species)
    cuts: dict[str, list[int]] = {}
    for key, sp in tube.species.items():
        if sp.status != ACTIVE or not sp.is_duplex:
            continue
        pieces = cut(sp.structure, *sites)
        if len(pieces) == 1:
            continue
        del species[key]
        for i, piece in enumerate(pieces):
            species[f"fragment:{key}:{i}"] = Species(piece, sp.count)
        cuts[key] = [piece.span_length for piece in pieces]
    return tube._with(species, {"op": "digest", "enzymes": ordered, "fragments": cuts})


def pcr(tube: TubeState, cycles: int) -> TubeState:
    """Exponential amplification of blunt duplexes whose ends match the plan's primers."""
    _check_cycles(cycles)
    primed = _primer_rule(tube.plan)
    species = dict(tube.species)
    amplified = []
    for key, sp in tube.species.items():
        if sp.status == ACTIVE and sp.is_duplex and primed(sp.structure):
            species[key] = sp._replace(count=sp.count << cycles, amplified=True)
            amplified.append(key)
    record = {"op": "pcr", "cycles": cycles, "amplified": sorted(amplified)}
    return tube._replace(
        species=species, log=tube.log + (record,), pcr_cycles=tube.pcr_cycles + cycles
    )


def purify(tube: TubeState) -> TubeState:
    """Keep amplified material only; leftovers, fragments and waste wash out."""
    kept = {key: sp for key, sp in tube.species.items() if sp.amplified and sp.status == ACTIVE}
    return tube._with(kept, {"op": "purify"})


class _Fate:
    """What digest, pcr and purify do to one active duplex of a pool, worked out once."""

    __slots__ = ("key", "species", "primed", "hits", "mask", "cuts")

    def __init__(self, key: str, species: Species, primed: bool, hits, mask: int) -> None:
        self.key, self.species, self.primed = key, species, primed
        self.hits = hits  # the library's site instances in it (`site_hits`)
        self.mask = mask  # the enzymes with a site in it, as a bit mask
        self.cuts: dict[int, tuple] = {}  # enzyme mask -> (span lengths, primed fragments)


class DigestTable:
    """The fate table of one pool: what digest, pcr and purify do to it.

    Built from the pool in one walk: every active duplex gets a fate (its
    pcr primer verdict, and the library's site instances in it, from one
    `site_hits` scan in enzyme name order); every other species is only
    ever washed out. Each distinct set of enzymes that hits a duplex cuts it
    once, and what the fragments come to is kept: their span lengths and the
    primer-flanked ones pcr amplifies. Cutting with only the enzymes that
    hit a duplex gives the same fragments as cutting with all of a tube's
    enzymes, so tubes with different enzyme sets share cuts.
    """

    def __init__(self, pool: TubeState) -> None:
        plan = self.plan = pool.plan
        self._species = pool.species
        self._library = _library(plan)
        sites = list(self._library.values())
        # enzyme sets are bit masks over the library in name order
        self._bits = {name: 1 << i for i, name in enumerate(self._library)}
        self._primed = _primer_rule(plan)
        self.fates = []
        for key, sp in pool.species.items():
            if sp.status != ACTIVE or not sp.is_duplex:
                continue
            hits = site_hits(sp.structure, sites)
            mask = sum(self._bits[site.enzyme] for site in hits)
            self.fates.append(_Fate(key, sp, self._primed(sp.structure), hits, mask))

    def fragments(self, fate: _Fate, hit: int) -> tuple:
        """(span lengths, (key, piece) of each primed one) of the fragments
        that `hit`, a non-empty part of the fate's mask, cuts its duplex
        into; kept in the fate's `cuts`."""
        sites = [site for site in fate.hits if self._bits[site.enzyme] & hit]
        pieces = cut(fate.species.structure, *sites, hits=fate.hits)
        lengths = [piece.span_length for piece in pieces]
        primed = [(f"fragment:{fate.key}:{i}", p) for i, p in enumerate(pieces) if self._primed(p)]
        fate.cuts[hit] = result = (lengths, primed)
        return result

    def purified(self, tube: TubeState, enzyme_names, cycles: int) -> TubeState:
        """`purify(pcr(digest(tube, enzyme_names), cycles))` of an aliquot of
        the table's pool (from `split_tubes`), in one pass over its fates.

        The pass reads the pool's fates, not the tube's species, so it
        refuses a tube of another plan or with species other than the pool's.

        The same audit records come out, and the survivors in the same
        order: the uncut primed duplexes in pool order, then the primed
        fragments; all else washes out. No fragment key can be a pool key
        (those are role, `construct:` and `waste:` keys), so no fragment
        replaces a species.
        """
        if tube.plan is not self.plan or tube.species != self._species:
            raise ValueError("digest table was built for another plan or other species")
        ordered = _ordered(self._library, enzyme_names)
        _check_cycles(cycles)
        mask = sum(self._bits[name] for name in ordered)
        kept, frags, cuts = {}, {}, {}
        for fate in self.fates:
            hit = fate.mask & mask
            if not hit:
                if fate.primed:
                    sp = fate.species
                    kept[fate.key] = sp._replace(count=sp.count << cycles, amplified=True)
                continue
            lengths, primed = fate.cuts.get(hit) or self.fragments(fate, hit)
            cuts[fate.key] = lengths[:]  # each audit record owns its lists
            if primed:
                count = fate.species.count << cycles
                for key, piece in primed:
                    frags[key] = Species(piece, count, ACTIVE, True)
        kept.update(frags)
        log = tube.log + (
            {"op": "digest", "enzymes": ordered, "fragments": cuts},
            {"op": "pcr", "cycles": cycles, "amplified": sorted(kept)},
            {"op": "purify"},
        )
        return tube._replace(species=kept, log=log, pcr_cycles=tube.pcr_cycles + cycles)


def run_protocol(
    plan: EncodingPlan, protocol: ProtocolPlan, cycles: int | None = None
) -> list[TubeState]:
    """mix -> thresholds -> assemble -> split -> (digest, pcr, purify) per tube.

    `plan` must be the protocol's own plan; `cycles` overrides its PCR
    cycles. The tubes share the pool's `DigestTable`, which runs each
    tube's last three steps in one pass.
    """
    if plan is not protocol.plan:
        raise ValueError("protocol was compiled for another plan")
    n = cycles if cycles is not None else protocol.pcr_cycles
    pool = assemble(apply_thresholds(mix(plan)))
    table = DigestTable(pool)
    return [
        table.purified(tube, enzymes, n)
        for tube, enzymes in zip(split_tubes(pool), plan.tube_enzymes)
    ]
