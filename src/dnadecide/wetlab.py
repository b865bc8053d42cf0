"""Deterministic simulation of the bench protocol.

Species concentrations are exact rationals in relative stock units (one
pooled dose = 1). Operations never mutate a tube; each returns a fresh
TubeState with an audit record appended, so a whole run is reproducible
from its log. Thresholding follows pairwise dose semantics: a threshold
dosed at ratio r holds back min(r, c) from EACH chance species it targets,
the ratio being defined against that species' own stock.

Assembly uses limiting-reagent accounting against the concentrations at
entry: every root-to-termination path yields construct at the minimum of
its nine constituents, and shared constituents are debited by total demand
(floored at zero). Yields are nominal per-path numbers, which is exactly
what a within-lane band comparison measures.

The option tubes split from one pool share a `DigestTable`: each pooled
duplex is scanned for the library's sites once, and cut once per distinct
set of enzymes that hit it, however many tubes digest it.
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
    Duplex,
    RecognitionSite,
    Strand,
    cut,
    present_sites,
    reverse_complement,
)

ACTIVE = "active"
WASTE = "waste"

# A bench PCR runs a few dozen cycles at most; past this the simulated
# product is meaningless and 2**cycles only grows the exact rationals.
MAX_PCR_CYCLES = 40


class UnknownEnzymeError(ValueError):
    pass


class CycleCountError(ValueError):
    pass


class Species(NamedTuple):
    key: str
    structure: Strand | Duplex
    concentration: Fraction
    status: str = ACTIVE
    amplified: bool = False

    @property
    def length(self) -> int:
        if isinstance(self.structure, Duplex):
            return self.structure.span_length
        return len(self.structure.seq)

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
        sp = self.species.get(key)
        return sp.concentration if sp else Fraction(0)

    def _with(self, species: dict[str, Species], record: dict) -> "TubeState":
        return self._replace(species=species, log=self.log + (record,))


def mix(plan: EncodingPlan) -> TubeState:
    """Pool every encoding species; thresholds go in at their dose ratios."""
    doses = {
        role_thresh(out.label): plan.threshold_ratios[out.label]
        for out in plan.matrix.outcomes
    }
    species: dict[str, Species] = {}
    for role in plan.strands:
        if role in (ROLE_PRIMER_LEFT, ROLE_PRIMER_RIGHT):
            continue  # primers join at amplification, not in the pool
        conc = doses.get(role, Fraction(1))
        species[role] = Species(role, plan.strands[role], conc)
    record = {
        "op": "mix",
        "species": len(species),
        "thresholds": {role: str(dose) for role, dose in doses.items()},
    }
    return TubeState("pool", plan, species, (record,))


def apply_thresholds(tube: TubeState) -> TubeState:
    """Let each threshold sequester its outcome's chance strands.

    Per chance species: consumed = min(dose, concentration); the consumed
    amount moves into an inert waste complex keyed by the chance species
    alone (chance keys are distinct, thresh+chance joins need not be).
    Material is conserved per chance species (active + waste before ==
    after).
    """
    plan = tube.plan
    species = dict(tube.species)
    detail: dict[str, dict] = {}
    for out in plan.matrix.outcomes:
        th_key = role_thresh(out.label)
        if th_key not in species:
            continue
        dose = species[th_key].concentration
        max_consumed = Fraction(0)
        for opt in plan.matrix.options:
            ch_key = role_chance(opt.label, out.label)
            if ch_key not in species:
                continue
            c = species[ch_key].concentration
            consumed = min(dose, c)
            max_consumed = max(max_consumed, consumed)
            if consumed == 0:
                continue
            species[ch_key] = species[ch_key]._replace(concentration=c - consumed)
            waste_key = f"waste:{ch_key}"
            waste_structure = species[th_key].structure
            species[waste_key] = Species(
                waste_key, waste_structure, consumed, status=WASTE
            )
            detail[ch_key] = {
                "dose": str(dose),
                "consumed": str(consumed),
                "remaining": str(c - consumed),
            }
        species[th_key] = species[th_key]._replace(
            concentration=max(Fraction(0), dose - max_consumed)
        )
    return tube._with(species, {"op": "thresholds", "displaced": detail})


def construct_key(option_label: str, outcome_label: str) -> str:
    return f"construct:{_slug(option_label)}:{_slug(outcome_label)}"


def assemble(tube: TubeState) -> TubeState:
    """Ligate every path into its full blunt construct at limiting yield."""
    plan = tube.plan
    species = dict(tube.species)
    snapshot = {k: s.concentration for k, s in species.items() if s.status == ACTIVE}
    yields: dict[tuple[str, str], Fraction] = {}
    demand: dict[str, Fraction] = {}
    for opt in plan.matrix.options:
        for out in plan.matrix.outcomes:
            roles = construct_roles(opt.label, out.label)
            amount = min(snapshot.get(r, Fraction(0)) for r in roles)
            yields[(opt.label, out.label)] = amount
            for r in roles:
                demand[r] = demand.get(r, Fraction(0)) + amount
    for key, used in demand.items():
        left = max(Fraction(0), snapshot[key] - used)
        species[key] = species[key]._replace(concentration=left)
    for (opt_label, out_label), amount in yields.items():
        top = plan.construct_top(opt_label, out_label)
        key = construct_key(opt_label, out_label)
        structure = Duplex(
            Strand(top, key + ".top"),
            Strand(reverse_complement(top), key + ".bottom"),
            0,
        )
        species[key] = Species(key, structure, amount)
    record = {
        "op": "assemble",
        "yields": {construct_key(o, u): str(a) for (o, u), a in yields.items()},
    }
    return tube._with(species, record)


def split_tubes(tube: TubeState) -> list[TubeState]:
    """One aliquot per option; per-volume concentrations carry over unchanged."""
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


class DigestTable:
    """Digest results shared by the tubes split from one pool.

    For each duplex species it records which of the plan's enzymes have a
    site in it (one scan over the whole catalog, in name order), and the
    fragments each set of those enzymes cuts it into. Cutting with only
    the enzymes that hit a duplex gives the same fragments as cutting with
    all of a tube's enzymes, so tubes with different enzyme sets share
    entries. Entries are keyed by the frozen species they were computed
    from, so a hit is always what a fresh digest would build.
    """

    def __init__(self, plan: EncodingPlan) -> None:
        self.plan = plan
        self.catalog = _site_catalog(plan)
        self._library = [self.catalog[name] for name in sorted(self.catalog)]
        # species -> (library sites present in it, enzymes -> (fragments, lengths))
        self._entries: dict[Species, tuple[tuple[RecognitionSite, ...], dict]] = {}

    def fragments(
        self, sp: Species, names: frozenset[str]
    ) -> tuple[tuple[Species, ...], tuple[int, ...]] | None:
        """The fragments the named enzymes cut `sp` into; None if none has a site.

        The first enzyme with a site cuts every instance of it, so a
        non-empty set always yields at least two fragments.
        """
        entry = self._entries.get(sp)
        if entry is None:
            present = present_sites(sp.structure, self._library)
            entry = self._entries[sp] = (present, {})
        present, memo = entry
        sites = tuple(site for site in present if site.enzyme in names)
        if not sites:
            return None
        enzymes = tuple(site.enzyme for site in sites)
        result = memo.get(enzymes)
        if result is None:
            pieces = cut(sp.structure, *sites)
            frags = tuple(
                Species(f"fragment:{sp.key}:{i}", piece, sp.concentration)
                for i, piece in enumerate(pieces)
            )
            result = memo[enzymes] = (frags, tuple(p.span_length for p in pieces))
        return result


def digest(
    tube: TubeState, enzyme_names, table: DigestTable | None = None
) -> TubeState:
    """Cut every active duplex with all named enzymes at once, to completion.

    Each duplex is cut in one `cut` call with the named enzymes that have
    a site in it, in name order (which only matters where two sites
    overlap). `table` holds the site scans and fragments of the tube's
    pool: the tubes of one `run_protocol` split share one, so a duplex is
    scanned once and cut once per distinct set of enzymes that hit it.
    Without it the call starts a fresh table.
    """
    if table is None:
        table = DigestTable(tube.plan)
    elif table.plan is not tube.plan:
        raise ValueError("digest table was built for another plan")
    catalog = table.catalog
    ordered = sorted(enzyme_names)
    for name in ordered:
        if name not in catalog:
            raise UnknownEnzymeError(
                f"{name} is not in this plan's library: {sorted(catalog)}"
            )
    names = frozenset(ordered)
    species = dict(tube.species)
    cuts: dict[str, list[int]] = {}
    for key, sp in list(species.items()):
        if sp.status != ACTIVE or not sp.is_duplex:
            continue
        result = table.fragments(sp, names)
        if result is None:
            continue
        frags, lengths = result
        del species[key]
        for frag in frags:
            species[frag.key] = frag
        cuts[key] = list(lengths)
    record = {
        "op": "digest",
        "enzymes": ordered,
        "fragments": cuts,
    }
    return tube._with(species, record)


def pcr(tube: TubeState, cycles: int) -> TubeState:
    """Exponential amplification of blunt duplexes whose ends match the plan's primers."""
    if cycles < 0:
        raise CycleCountError(f"cycle count must be non-negative, got {cycles}")
    if cycles > MAX_PCR_CYCLES:
        raise CycleCountError(
            f"cycle count must be at most {MAX_PCR_CYCLES}, got {cycles}"
        )
    p1, p2 = (primer.seq for primer in tube.plan.primers)
    factor = Fraction(2) ** cycles
    # an end matches a primer read on either strand
    ends1 = (p1, reverse_complement(p1))
    ends2 = (p2, reverse_complement(p2))

    species = dict(tube.species)
    amplified = []
    for key, sp in list(species.items()):
        if sp.status != ACTIVE or not sp.is_duplex:
            continue
        duplex = sp.structure
        if not duplex.is_blunt or duplex.span_length < 2 * len(p1):
            continue
        top = duplex.top.seq
        left, right = top[: len(p1)], top[-len(p2) :]
        if (left in ends1 and right in ends2) or (left in ends2 and right in ends1):
            species[key] = sp._replace(concentration=sp.concentration * factor, amplified=True)
            amplified.append(key)
    record = {"op": "pcr", "cycles": cycles, "amplified": sorted(amplified)}
    return tube._replace(
        species=species, log=tube.log + (record,), pcr_cycles=tube.pcr_cycles + cycles
    )


def purify(tube: TubeState) -> TubeState:
    """Keep amplified material only; leftovers, fragments and waste wash out."""
    kept = {k: s for k, s in tube.species.items() if s.status == ACTIVE and s.amplified}
    removed = sorted(set(tube.species) - set(kept))
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
        out.append(purify(pcr(digest(tube, enzymes, table), n)))
    return out
