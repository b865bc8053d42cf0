"""Deterministic simulation of the bench protocol.

Each species' amount is an integer count of 1/`plan.intensity_scale()`
of a stock (one pooled dose = scale counts): every dose is a whole number
of them and PCR only doubles, so counting stays exact rational arithmetic.
A `Fraction` is built only where an amount leaves the simulation: audit
record text, `TubeState.concentration` and the gel's bands. Operations
never mutate a tube; each returns a fresh TubeState with an audit record
appended, so a whole run is reproducible from its log. Thresholding
follows pairwise dose semantics: a threshold dosed at ratio r holds back
min(r, c) from EACH chance species it targets, the ratio being defined
against that species' own stock.

Assembly uses limiting-reagent accounting against the counts at entry:
every root-to-termination path yields construct at the minimum of
its nine constituents, and shared constituents are debited by total demand
(floored at zero). Yields are nominal per-path numbers, which is exactly
what a within-lane band comparison measures.

The option tubes split from one pool share one `DigestTable`, the fate
table of the pool's active duplexes. Each is scanned for the library's
sites once, cut once per distinct set of enzymes that hit it (each
distinct column interval sliced once), and judged primer-flanked once, as
is each of its fragments, however many tubes digest and amplify it. Per
tube, digest and pcr run over those duplexes, not over every species of
the tube, and build the tube's species and audit records from the table.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .compiler import (
    ROLE_PRIMER_LEFT,
    ROLE_PRIMER_RIGHT,
    EncodingPlan,
    ProtocolPlan,
    construct_roles,
    role_thresh,
    tube_label,
)
from .decision import _slug, role_chance
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
            waste_structure = species[th_key].structure
            species[waste_key] = Species(
                waste_key, waste_structure, consumed, status=WASTE
            )
            detail[ch_key] = {
                "dose": str(Fraction(dose, unit)),
                "consumed": str(Fraction(consumed, unit)),
                "remaining": str(Fraction(c - consumed, unit)),
            }
        species[th_key] = species[th_key]._replace(count=max(0, dose - max_consumed))
    return tube._with(species, {"op": "thresholds", "displaced": detail})


def construct_key(option_label: str, outcome_label: str) -> str:
    return f"construct:{_slug(option_label)}:{_slug(outcome_label)}"


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
    record = {
        "op": "assemble",
        "yields": {key: str(Fraction(amount, unit)) for key, _, amount in paths},
    }
    return tube._with(species, record)


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


def _site_catalog(plan: EncodingPlan) -> dict[str, RecognitionSite]:
    catalog = {s.enzyme: s for s in plan.option_sites.values()}
    catalog.update({s.enzyme: s for s in plan.outcome_sites.values()})
    return catalog


class _Fate:
    """What digest and pcr do to one active duplex, worked out once."""

    __slots__ = ("species", "primed", "hits", "mask", "cuts", "pieces")

    def __init__(self, species: Species, primed: bool) -> None:
        self.species = species
        self.primed = primed  # both ends match the plan's primers: pcr amplifies it
        self.hits: dict[RecognitionSite, list[int]] | None = None  # scanned on first digest
        self.mask = 0  # the enzymes with a site in it
        # enzyme mask -> (fragments by key, their lengths, (key, fate) of each)
        self.cuts: dict[int, tuple] = {}
        self.pieces: dict[tuple[int, int], Duplex] = {}  # `cut`'s slices, shared by its cuts


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
    that scan and one memo of slices, and the fragments get fates of their
    own. Cutting with only the enzymes that hit a duplex gives the same
    fragments as cutting with all of a tube's enzymes, so tubes with
    different enzyme sets share entries.

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
        self.catalog = _site_catalog(plan)
        self._library = [self.catalog[name] for name in sorted(self.catalog)]
        # enzyme sets are bit masks over the library in name order
        self._bits = {site.enzyme: 1 << i for i, site in enumerate(self._library)}
        # an end matches a primer read on either strand
        p1, p2 = plan.primers
        self._ends = ((p1, reverse_complement(p1)), (p2, reverse_complement(p2)))
        self._views: dict[tuple[str, ...], _View] = {}

    def _fate(self, sp: Species) -> _Fate:
        ends1, ends2 = self._ends
        n1, n2 = len(ends1[0]), len(ends2[0])
        duplex = sp.structure
        top = duplex.top
        # blunt, and long enough to hold both primers
        if not duplex.is_blunt or len(top) < 2 * n1:
            return _Fate(sp, False)
        left, right = top[:n1], top[-n2:]
        return _Fate(sp, (left in ends1 and right in ends2) or (left in ends2 and right in ends1))

    def duplexes(self, species: dict[str, Species]) -> list[tuple[str, _Fate]]:
        """(key, fate) of every active duplex in `species`, in order: from
        its view where it has one, else by walking it (which adds one)."""
        keys = tuple(species)
        values = list(species.values())
        view = self._views.get(keys)
        if view is not None and view.values == values:
            return view.duplexes
        found = [
            (key, self._fate(sp))
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

    def fragments(self, fate: _Fate, mask: int) -> tuple | None:
        """(fragments by key, their lengths, (key, fate) of each) that the
        enzymes in `mask` cut a duplex into; None if none has a site in it.

        The first enzyme with a site cuts every instance of it, so a
        non-empty set always yields at least two fragments.
        """
        if fate.hits is None:
            fate.hits = site_hits(fate.species.structure, self._library)
            fate.mask = self.mask(site.enzyme for site in fate.hits)
        hit = fate.mask & mask
        if not hit:
            return None
        if hit in fate.cuts:
            return fate.cuts[hit]
        sp = fate.species
        sites = [site for site in fate.hits if self._bits[site.enzyme] & hit]
        pieces = cut(sp.structure, *sites, hits=fate.hits, pieces=fate.pieces)
        frags = {}
        fates = []
        for i, piece in enumerate(pieces):
            frag = Species(f"fragment:{sp.key}:{i}", piece, sp.count)
            frags[frag.key] = frag
            fates.append((frag.key, self._fate(frag)))
        result = fate.cuts[hit] = (frags, tuple(p.span_length for p in pieces), fates)
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
    for key, fate in table.duplexes(tube.species):
        result = table.fragments(fate, mask)
        if result is None:
            uncut.append((key, fate))
            continue
        frags, lengths, fates = result
        del species[key]
        species.update(frags)
        cuts[key] = list(lengths)
        added += fates
    if len(species) == len(tube.species) - len(cuts) + len(added):
        # no fragment took the key of another species, so these are the
        # new tube's duplexes in its order
        table.remember(species, uncut + added)
    record = {
        "op": "digest",
        "enzymes": ordered,
        "fragments": cuts,
    }
    return tube._with(species, record)


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
    kept = {k: s for k, s in tube.species.items() if s.amplified and s.status == ACTIVE}
    removed = sorted(tube.species.keys() - kept.keys())
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
