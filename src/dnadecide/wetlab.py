"""Deterministic simulation of the bench protocol.

Each species' amount is an integer count of 1/`plan.intensity_scale()`
of a stock (one pooled dose = scale counts): every dose is a whole number
of them and PCR only doubles, so counting stays exact rational arithmetic.
Audit records spell each amount as a reduced ratio (`_ratio`, one gcd); a
`Fraction` is built only for `TubeState.concentration` and the gel's bands.
Operations never mutate a tube; each returns a fresh TubeState with an
audit record appended, so a whole run is reproducible from its log.
Thresholding follows pairwise dose semantics: a threshold dosed at ratio r
holds back min(r, c) from EACH chance species it targets, the ratio being
defined against that species' own stock.

Assembly uses limiting-reagent accounting against the counts at entry:
every root-to-termination path yields construct at the minimum of
its nine constituents, and shared constituents are debited by total demand
(floored at zero). Yields are nominal per-path numbers, which is exactly
what a within-lane band comparison measures.

The option tubes split from one pool share one `DigestTable`, the fate
table of the pool's active duplexes. Each is scanned for the library's
sites once and cut once per distinct set of enzymes that hit it (each
distinct column interval sliced once); one pass over a cut's fragments
builds each one's species, span length and primer verdict. Per tube,
digest and pcr run over those duplexes, not over every species of the
tube; digest reads each one's enzyme mask and cut memo from its fate.
"""

from __future__ import annotations

from fractions import Fraction
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
    key: str
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

    def concentration(self, key: str) -> Fraction:
        """The species' amount in stock units (0 if it is not in the tube)."""
        sp = self.species.get(key)
        return Fraction(sp.count, self.plan.intensity_scale()) if sp else Fraction(0)

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
        species[role] = Species(role, plan.strands[role], int(count))
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
        if th_key not in species:
            continue
        dose = species[th_key].count
        max_consumed = 0
        for opt in plan.matrix.options:
            ch_key = role_chance(opt.label, out.label)
            if ch_key not in species:
                continue
            c = species[ch_key].count
            consumed = min(dose, c)
            max_consumed = max(max_consumed, consumed)
            if consumed == 0:
                continue
            species[ch_key] = species[ch_key]._replace(count=c - consumed)
            waste_key = f"waste:{ch_key}"
            species[waste_key] = Species(waste_key, species[th_key].structure, consumed, WASTE)
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
    have = {k: s.count for k, s in species.items() if s.status == ACTIVE}
    paths = []  # (key, roles, yield) per construct
    demand: dict[str, int] = {}
    for opt in plan.matrix.options:
        for out in plan.matrix.outcomes:
            roles = construct_roles(opt.label, out.label)
            amount = min(have.get(r, 0) for r in roles)
            paths.append((construct_key(opt.label, out.label), roles, amount))
            for r in roles:
                demand[r] = demand.get(r, 0) + amount
    for key, used in demand.items():
        species[key] = species[key]._replace(count=max(0, have[key] - used))
    for key, roles, amount in paths:
        top = plan.construct_top(roles)
        bottom = top[::-1].translate(_COMPLEMENT)
        species[key] = Species(key, _derived(top, bottom, 0), amount)
    yields = {key: _ratio(amount, unit) for key, _, amount in paths}
    return tube._with(species, {"op": "assemble", "yields": yields})


def split_tubes(tube: TubeState) -> list[TubeState]:
    """One aliquot per option; per-volume counts carry over unchanged."""
    tubes = []
    for i, opt in enumerate(tube.plan.matrix.options):
        label = tube_label(i)
        record = {"op": "split", "tube": label, "option": opt.label}
        tubes.append(
            TubeState(label, tube.plan, dict(tube.species), tube.log + (record,))
        )
    return tubes


class _Fate:
    """What digest and pcr do to one active duplex, worked out once."""

    __slots__ = ("species", "primed", "hits", "mask", "cuts", "pieces")

    def __init__(self, species: Species, primed: bool) -> None:
        self.species = species
        self.primed = primed  # both ends match the plan's primers: pcr amplifies it
        # the library's site instances in it; `DigestTable.scan` sets them on the
        # first digest, with `mask` (the enzymes with a site in it), `cuts`
        # (enzyme mask -> `DigestTable.fragments`) and `pieces` (`cut`'s slices)
        self.hits: dict[RecognitionSite, list[int]] | None = None


class _View(NamedTuple):
    values: list[Species]  # a species dict's values, in order
    duplexes: list[tuple[str, _Fate]]  # (key, fate) of its active duplexes, in order


class DigestTable:
    """The fate table: what digest and pcr do to the species of one pool.

    The tubes of one `run_protocol` split share one table. Every active
    duplex it meets gets a fate: whether pcr amplifies it (both ends match
    the plan's primers), and from the first digest that reaches it, the
    library's site instances in it (one `site_hits` scan, in enzyme name
    order). Each distinct set of enzymes that hits it is cut once, with
    that scan and one memo of slices; one pass over the fragments builds
    each one's species, length and fate. Cutting with only the enzymes
    that hit a duplex gives the same fragments as cutting with all of a
    tube's enzymes, so tubes with different enzyme sets share entries.

    The fates are found through views: a species dict's active duplexes,
    listed once. A view is keyed by the dict's keys in order and holds its
    values, which a lookup checks (identity first, then equality), so a
    changed species misses. Every tube split from the pool matches the
    pool's view, and `digest` lists its own result's duplexes for `pcr`, so
    per tube the steps run over the duplexes of the pool, not over all of
    its species.
    """

    def __init__(self, plan: EncodingPlan) -> None:
        self.plan = plan
        sites = (*plan.option_sites.values(), *plan.outcome_sites.values())
        self.catalog = {site.enzyme: site for site in sites}
        self._library = [self.catalog[name] for name in sorted(self.catalog)]
        # enzyme sets are bit masks over the library in name order
        self._bits = {site.enzyme: 1 << i for i, site in enumerate(self._library)}
        # the (left, right) ends pcr amplifies: a primer at each, read on either strand
        p1, p2 = plan.primers
        e1, e2 = (p1, reverse_complement(p1)), (p2, reverse_complement(p2))
        self._ends = {(left, right) for x, y in ((e1, e2), (e2, e1)) for left in x for right in y}
        self._n1, self._n2 = len(p1), len(p2)
        self._views: dict[tuple[str, ...], _View] = {}

    def _primed(self, duplex: Duplex) -> bool:
        """Blunt, long enough to hold both primers, and flanked by them."""
        top, bottom, offset = duplex
        n1, n2 = self._n1, self._n2
        blunt = offset == 0 and len(top) == len(bottom)
        return blunt and len(top) >= 2 * n1 and (top[:n1], top[-n2:]) in self._ends

    def duplexes(self, species: dict[str, Species]) -> list[tuple[str, _Fate]]:
        """(key, fate) of every active duplex in `species`, in order: from
        its view where it has one, else by walking it (which adds one)."""
        keys = tuple(species)
        values = list(species.values())
        view = self._views.get(keys)
        if view is not None and view.values == values:
            return view.duplexes
        found = [
            (key, _Fate(sp, self._primed(sp.structure)))
            for key, sp in species.items()
            if sp.status == ACTIVE and sp.is_duplex
        ]
        self._views[keys] = _View(values, found)
        return found

    def remember(self, species: dict[str, Species], duplexes: list[tuple[str, _Fate]]) -> None:
        """Record `duplexes` as the view of `species`, which the caller built."""
        self._views[tuple(species)] = _View(list(species.values()), duplexes)

    def mask(self, enzyme_names) -> int:
        """The named enzymes (all in this plan's library) as a bit mask."""
        return sum(self._bits[name] for name in set(enzyme_names))

    def scan(self, fate: _Fate) -> None:
        """Find the library's sites in a fate's duplex, once."""
        fate.hits = site_hits(fate.species.structure, self._library)
        fate.mask = sum(self._bits[site.enzyme] for site in fate.hits)
        fate.cuts, fate.pieces = {}, {}

    def fragments(self, fate: _Fate, hit: int) -> tuple:
        """(fragments by key, their lengths, (key, fate) of each) that `hit`, a
        non-empty part of a scanned fate's `mask`, cuts its duplex into; kept in `cuts`."""
        sp = fate.species
        sites = [site for site in fate.hits if self._bits[site.enzyme] & hit]
        frags, lengths, fates = {}, [], []
        for i, piece in enumerate(cut(sp.structure, *sites, hits=fate.hits, pieces=fate.pieces)):
            top, bottom, offset = piece
            key = f"fragment:{sp.key}:{i}"
            frags[key] = frag = Species(key, piece, sp.count)
            lengths.append(max(len(top), offset + len(bottom)) - min(0, offset))
            fates.append((key, _Fate(frag, self._primed(piece))))
        fate.cuts[hit] = result = (frags, lengths, fates)
        return result


def _table(tube: TubeState, table: DigestTable | None) -> DigestTable:
    if table is None:
        return DigestTable(tube.plan)
    if table.plan is not tube.plan:
        raise ValueError("digest table was built for another plan")
    return table


def digest(
    tube: TubeState, enzyme_names, table: DigestTable | None = None
) -> TubeState:
    """Cut every active duplex with all named enzymes at once, to completion.

    Each duplex is cut in one `cut` call with the named enzymes that have
    a site in it, in name order (which only matters where two sites
    overlap). `table` holds the fates of the tube's pool: the tubes of one
    `run_protocol` split share one, so a duplex is scanned once and cut
    once per distinct set of enzymes that hit it. Without it the call
    starts a fresh table.
    """
    table = _table(tube, table)
    catalog = table.catalog
    ordered = sorted(enzyme_names)
    for name in ordered:
        if name not in catalog:
            raise UnknownEnzymeError(
                f"{name} is not in this plan's library: {sorted(catalog)}"
            )
    mask = table.mask(ordered)
    species = dict(tube.species)
    cuts: dict[str, list[int]] = {}
    uncut, added = [], []
    for entry in table.duplexes(tube.species):
        key, fate = entry
        if fate.hits is None:
            table.scan(fate)
        hit = fate.mask & mask
        if not hit:
            uncut.append(entry)
            continue
        frags, lengths, fates = fate.cuts.get(hit) or table.fragments(fate, hit)
        del species[key]
        species.update(frags)
        cuts[key] = list(lengths)
        added += fates
    if len(species) == len(tube.species) - len(cuts) + len(added):
        # no fragment took the key of another species, so these are the
        # new tube's duplexes in its order
        table.remember(species, uncut + added)
    return tube._with(species, {"op": "digest", "enzymes": ordered, "fragments": cuts})


def pcr(tube: TubeState, cycles: int, table: DigestTable | None = None) -> TubeState:
    """Exponential amplification of blunt duplexes whose ends match the plan's primers.

    `table` holds each duplex's primer verdict, as for `digest`; without
    it the call starts a fresh table.
    """
    if cycles < 0:
        raise CycleCountError(f"cycle count must be non-negative, got {cycles}")
    if cycles > MAX_PCR_CYCLES:
        raise CycleCountError(
            f"cycle count must be at most {MAX_PCR_CYCLES}, got {cycles}"
        )
    table = _table(tube, table)
    species = dict(tube.species)
    amplified = []
    for key, fate in table.duplexes(tube.species):
        if fate.primed:
            sp = species[key]
            species[key] = sp._replace(count=sp.count << cycles, amplified=True)
            amplified.append(key)
    record = {"op": "pcr", "cycles": cycles, "amplified": sorted(amplified)}
    return tube._replace(
        species=species, log=tube.log + (record,), pcr_cycles=tube.pcr_cycles + cycles
    )


def purify(tube: TubeState) -> TubeState:
    """Keep amplified material only; leftovers, fragments and waste wash out."""
    kept, removed = {}, []
    for key, sp in tube.species.items():
        if sp.amplified and sp.status == ACTIVE:
            kept[key] = sp
        else:
            removed.append(key)
    removed.sort()
    return tube._with(kept, {"op": "purify", "removed": removed})


def run_protocol(
    plan: EncodingPlan, protocol: ProtocolPlan, cycles: int | None = None
) -> list[TubeState]:
    """mix -> thresholds -> assemble -> split -> (digest, pcr, purify) per tube.

    `plan` must be the protocol's own plan; `cycles` overrides its PCR cycles.
    """
    if plan is not protocol.plan:
        raise ValueError("protocol was compiled for another plan")
    n = cycles if cycles is not None else protocol.pcr_cycles
    pool = assemble(apply_thresholds(mix(plan)))
    tubes = split_tubes(pool)
    table = DigestTable(plan)
    out = []
    for tube, enzymes in zip(tubes, plan.tube_enzymes):
        out.append(purify(pcr(digest(tube, enzymes, table), n, table)))
    return out
