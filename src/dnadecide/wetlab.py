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

Assembly uses limiting-reagent accounting against the counts at entry. Path
(o, u) ligates o's front to u's back (`construct_parts`) over its chance
strand and yields at the least of its nine constituents (`construct_roles`,
all pooled by `mix`, so a missing one is a KeyError). The arms are debited by
the total, o's two roles by their row's sum, u's four by their column's and
the chance strand by its yield, each floored at zero. Yields are nominal
per-path numbers, as a within-lane band comparison reads.

`digest`, `pcr` and `purify` are the single steps, each walking its own
tube (`digest` with `strands.cut`). `run_protocol` does not call them: it
develops the option tubes in one scan of the pool and one pass per tube
that writes the single steps' records. Zero is not material: pcr, the
single step and the pass alike, amplifies only a species of positive
count. Purify's record names nothing: it keeps exactly what pcr's record
lists as amplified.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from math import gcd
from typing import NamedTuple

from .compiler import (
    ROLE_CHOICE,
    ROLE_PRIMER_LEFT,
    ROLE_PRIMER_RIGHT,
    ROLE_TERM,
    EncodingPlan,
    ProtocolError,
    ProtocolPlan,
    check_cycles,
    construct_key,
    construct_parts,
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
    cut_columns,
    fragment,
    reverse_complement,
    site_hits,
)

# A species' lifecycle state: ACTIVE as pooled, assembled or cut by digest;
# WASTE once apply_thresholds sequesters it, and no later step touches it;
# AMPLIFIED once pcr or run_protocol's pass grows it, the only state purify keeps.
ACTIVE = "active"
WASTE = "waste"
AMPLIFIED = "amplified"

class Species(NamedTuple):
    structure: Strand | Duplex
    count: int  # amount, in units of 1/plan.intensity_scale() stock
    state: str = ACTIVE  # ACTIVE, WASTE or AMPLIFIED: see above

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
    """Pool every encoding species at one stock each; thresholds go in at
    their dose ratios (`EncodingPlan.threshold_ratios`), which the plan's
    unit, 1/`intensity_scale()` of a stock, makes whole counts."""
    unit = plan.intensity_scale()
    doses = {role_thresh(label): ratio for label, ratio in plan.threshold_ratios.items()}
    species: dict[str, Species] = {}
    for role in plan.strands:
        if role in (ROLE_PRIMER_LEFT, ROLE_PRIMER_RIGHT):
            continue  # primers join at amplification, not in the pool
        species[role] = Species(plan.strands[role], int(doses.get(role, 1) * unit))
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
        th = species[th_key]
        dose, dose_text = th.count, _ratio(th.count, unit)
        max_consumed = 0
        for opt in plan.matrix.options:
            ch_key = role_chance(opt.label, out.label)
            ch = species[ch_key]
            consumed = min(dose, ch.count)
            if consumed == 0:
                continue
            max_consumed = max(max_consumed, consumed)
            left = ch.count - consumed
            species[ch_key] = Species(ch.structure, left, ch.state)
            species[f"waste:{ch_key}"] = Species(th.structure, consumed, WASTE)
            detail[ch_key] = {
                "dose": dose_text,
                "consumed": _ratio(consumed, unit),
                "remaining": _ratio(left, unit),
            }
        spare = max(0, dose - max_consumed)
        species[th_key] = Species(th.structure, spare, th.state)
    return tube._with(species, {"op": "thresholds", "displaced": detail})


def _parts(plan: EncodingPlan):
    """Each path's roles by option and outcome, each option's front and each outcome's back."""
    paths = [[construct_roles(o.label, u.label) for u in plan.matrix.outcomes]
             for o in plan.matrix.options]
    fronts = [construct_parts(plan.strands, row[0])[0] for row in paths]
    return paths, fronts, [construct_parts(plan.strands, roles)[1] for roles in paths[0]]


def assemble(tube: TubeState, parts=None) -> TubeState:
    """Ligate every path into its full blunt construct at limiting yield.

    Each construct is its option's front and its outcome's back, built from
    checked pooled strands through `strands`' trusted path without
    re-checking, each part reverse-complemented once; the constructs follow
    every pool species, option by option. `parts` is `_parts(tube.plan)`.
    """
    plan, pool, species = tube.plan, tube.species, dict(tube.species)
    unit = plan.intensity_scale()
    paths, fronts, backs = parts or _parts(plan)
    arms = min(pool[ROLE_CHOICE].count, pool[ROLE_TERM].count)
    rows = [min(pool[r].count for r in row[0][1:3]) for row in paths]
    cols = [min(pool[r].count for r in roles[4:8]) for roles in paths[0]]
    amounts = [[min(arms, a, b, pool[roles[3]].count) for b, roles in zip(cols, row)]
               for a, row in zip(rows, paths)]
    used = dict.fromkeys((ROLE_CHOICE, ROLE_TERM), sum(map(sum, amounts)))
    for row, amount in zip(paths, amounts):
        used |= dict.fromkeys(row[0][1:3], sum(amount)) | {r[3]: a for r, a in zip(row, amount)}
    for roles, column in zip(paths[0], zip(*amounts)):
        used |= dict.fromkeys(roles[4:8], sum(column))
    for role, debit in used.items():
        sp = species[role]
        species[role] = Species(sp.structure, max(0, sp.count - debit), sp.state)
    yields = {}
    back_rcs = [back[::-1].translate(_COMPLEMENT) for back in backs]
    for opt, front, amount in zip(plan.matrix.options, fronts, amounts):
        front_rc = front[::-1].translate(_COMPLEMENT)
        for out, back, back_rc, a in zip(plan.matrix.outcomes, backs, back_rcs, amount):
            key = construct_key(opt.label, out.label)
            species[key] = Species(_derived(front + back, back_rc + front_rc, 0), a)
            yields[key] = _ratio(a, unit)
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
    return {site.enzyme: site for site in sorted(plan.sites.values())}


def _primer_rule(plan: EncodingPlan):
    """Whether pcr amplifies a blunt duplex whose top strand is `top[a:b]` (it
    amplifies no other duplex): long enough to hold both primers, and flanked
    by them (a primer at each end, read on either strand). The interval is
    read in place; one shorter than a primer holds no primer."""
    p1, p2 = plan.primers
    e1, e2 = (p1, reverse_complement(p1)), (p2, reverse_complement(p2))
    ends = {(left, right) for x, y in ((e1, e2), (e2, e1)) for left in x for right in y}
    n1, n2 = len(p1), len(p2)
    shortest = max(2 * n1, n2)

    def flanked(top: str, a: int, b: int) -> bool:
        return b - a >= shortest and (top[a : a + n1], top[b - n2 : b]) in ends

    return flanked


def digest(tube: TubeState, enzyme_names) -> TubeState:
    """Cut every duplex that is not waste with all named enzymes at once, to completion.

    Each duplex is cut in one `cut` call with the named enzymes in name
    order (which only matters where two sites overlap); its fragments
    replace it, after the tube's other species. The record names each enzyme
    once and holds each cut duplex's fragment span lengths as a tuple.
    """
    library = _library(tube.plan)
    ordered = sorted(set(enzyme_names))
    for name in ordered:
        if name not in library:
            raise ProtocolError(f"{name} is not in this plan's library: {list(library)}")
    sites = [library[name] for name in ordered]
    species = dict(tube.species)
    cuts: dict[str, tuple[int, ...]] = {}
    for key, sp in tube.species.items():
        if sp.state == WASTE or not sp.is_duplex:
            continue
        pieces = cut(sp.structure, *sites)
        if len(pieces) == 1:
            continue
        del species[key]
        for i, piece in enumerate(pieces):
            species[f"fragment:{key}:{i}"] = Species(piece, sp.count)
        cuts[key] = tuple(piece.span_length for piece in pieces)
    return tube._with(species, {"op": "digest", "enzymes": ordered, "fragments": cuts})


def pcr(tube: TubeState, cycles: int) -> TubeState:
    """Exponential amplification of blunt duplexes whose ends match the plan's
    primers; a species with count 0 is no template, so it is not amplified."""
    check_cycles(cycles)
    flanked = _primer_rule(tube.plan)
    species = dict(tube.species)
    amplified = []
    for key, sp in tube.species.items():
        d = sp.structure
        grows = sp.count and sp.state != WASTE and sp.is_duplex and d.is_blunt
        if grows and flanked(d.top, 0, len(d.top)):
            species[key] = Species(d, sp.count << cycles, AMPLIFIED)
            amplified.append(key)
    record = {"op": "pcr", "cycles": cycles, "amplified": sorted(amplified)}
    return tube._replace(
        species=species, log=tube.log + (record,), pcr_cycles=tube.pcr_cycles + cycles
    )


def purify(tube: TubeState) -> TubeState:
    """Keep what pcr amplified; leftovers, fragments, waste and count-0 species wash out."""
    kept = {key: sp for key, sp in tube.species.items() if sp.state == AMPLIFIED}
    return tube._with(kept, {"op": "purify"})


def run_protocol(
    plan: EncodingPlan, protocol: ProtocolPlan, cycles: int | None = None
) -> list[TubeState]:
    """mix -> thresholds -> assemble -> split -> (digest, pcr, purify) per tube.

    `plan` must be the protocol's own plan; `cycles` overrides its PCR
    cycles. One `site_hits` call scans the dsDNA of every active duplex but
    the constructs, then each front, back and seam (a path's 5 + 5 bases
    where front meets back, which hold every site that spans it), joined by
    a `|` that no site string holds; a hit goes back to its piece by
    bisecting the slice starts. A construct's hits are its front's, its
    seam's and its back's in its columns, by site in library order (which
    decides `cut_columns`' blocking) wherever two pieces' instances may
    overlap. A duplex's bounds, its amplified species if it is kept uncut
    and its fragment species are built once and shared by the tubes.
    Each tube's last three steps run as one pass over the duplexes that a
    site hits or the primers flank, writing the single steps' records. The
    pass takes a duplex's `cut_columns` (top-strand columns) once per
    distinct set of sites that hits it, and the intervals of
    `[span_start, *cut columns, span_end]` give the digest record's span
    lengths, one tuple per duplex and set of hitters that every tube's record
    shares. Only a blunt interval (one inside the parent's dsDNA) that
    passes the primer rule pcr also uses, read in place on the parent's top
    strand, becomes a fragment, the duplex `cut` would make: the only kind
    that survives purify. Tubes share kept species and span tuples, never a
    mapping or a record's list. The survivors come in the single steps'
    order: the uncut primed duplexes in pool order, then the primed
    fragments. No fragment key can be a pool key (those are role,
    `construct:` and `waste:` keys), so no fragment replaces a species.
    """
    if plan is not protocol.plan:
        raise ProtocolError("protocol was compiled for another plan")
    n = cycles if cycles is not None else protocol.pcr_cycles
    check_cycles(n)
    parts = _, fronts, backs = _parts(plan)
    tube = apply_thresholds(mix(plan))
    pool = assemble(tube, parts)
    library = _library(plan)
    sites = [site.site for site in library.values()]
    bits = {site: 1 << i for i, site in enumerate(sites)}  # sets of site strings as bit masks
    flanked = _primer_rule(plan)
    # each active duplex but the constructs and its (span_start, ds_start, ds_end,
    # span_end), as `Duplex`'s properties give them, read without a call each
    duplexes, edges = [], []
    for key in tube.species:
        sp = pool.species[key]
        if sp.state != WASTE and sp.is_duplex:
            d = sp.structure
            top, bottom, offset = d
            end = offset + len(bottom)
            duplexes.append((key, d, sp.count << n))
            edges.append((min(0, offset), max(0, offset), min(len(top), end), max(len(top), end)))
    m, nf, nb = len(edges), len(fronts), len(backs)
    pieces = [d.top[lo:hi] for (_, d, _), (_, lo, hi, _) in zip(duplexes, edges)]
    pieces += fronts + backs + [front[-5:] + back[:5] for front in fronts for back in backs]
    starts = [0, *accumulate(len(piece) + 1 for piece in pieces)]
    text = "|".join(pieces)
    hits: list[dict[str, list[int]]] = [{} for _ in pieces]
    for site, found in site_hits(text, sites, 0, len(text)).items():
        for p in found:
            i = bisect_right(starts, p) - 1
            hits[i].setdefault(site, []).append(p - starts[i] + (edges[i][1] if i < m else 0))
    found_by, shifted = hits[:m], {}  # the backs' hits in construct columns, by front width
    for k, (key, sp) in enumerate(list(pool.species.items())[len(tube.species) :]):
        i, j = divmod(k, nb)
        width = len(fronts[i])
        if width not in shifted:
            shifted[width] = [{s: [p + width for p in at] for s, at in h.items()}
                              for h in hits[m + nf : m + nf + nb]]
        front, back, seam = hits[m + i], shifted[width][j], hits[m + nf + nb + k]
        found = {**front, **back}  # no front instance overlaps a back one: no blocking
        if seam or len(found) < len(front) + len(back):  # instances may overlap
            seam = {s: [p + width - 5 for p in at] for s, at in seam.items()}
            found = {s: [*front.get(s, ()), *seam.get(s, ()), *back.get(s, ())]
                     for s in sites if s in front or s in seam or s in back}
        duplexes.append((key, sp.structure, sp.count << n))
        edges.append((0, 0, len(sp.structure.top), len(sp.structure.top)))
        found_by.append(found)
    # a fate per duplex that a site hits or the primers flank: key, structure,
    # count after pcr, its species if kept uncut, bounds, site hits, the mask
    # of the enzymes that hit it, and its cuts by the mask of the hitters
    fates = []
    for (key, d, count), bounds, found in zip(duplexes, edges, found_by):
        primed = count and d.is_blunt and flanked(d.top, 0, len(d.top))
        grown = Species(d, count, AMPLIFIED) if primed else None
        mask = sum(bits[site] for site in found)
        if mask or grown:
            fates.append((key, d, count, grown, bounds, found, mask, {}))
    tubes = []
    for tube, enzymes in zip(split_tubes(pool), plan.tube_enzymes):
        tube_mask = sum(bits[library[name].site] for name in enzymes)
        kept, frags, cuts = {}, {}, {}
        for key, d, count, grown, bounds, found, fate_mask, memo in fates:
            hit = fate_mask & tube_mask
            if not hit:
                if grown:
                    kept[key] = grown
                continue
            done = memo.get(hit)
            if done is None:
                # cutting with only the enzymes that hit a duplex gives the
                # same cut columns as with all of a tube's, so tubes share cuts
                cols = cut_columns(found, [site for site in found if bits[site] & hit])
                # an interval is blunt where it lies in the parent's dsDNA:
                # between two cuts, or at an end where the parent is blunt
                a, lo, hi, end = bounds
                lengths, survivors = [], []
                for i, b in enumerate([*cols, end]):
                    lengths.append(b - a)
                    if count and lo <= a and b <= hi and flanked(d.top, a, b):
                        piece = Species(fragment(d, a, b), count, AMPLIFIED)
                        survivors.append((f"fragment:{key}:{i}", piece))
                    a = b
                done = memo[hit] = tuple(lengths), survivors
            lengths, survivors = done
            cuts[key] = lengths  # a tuple, shared by every tube this mask hits
            if survivors:
                frags.update(survivors)
        kept.update(frags)
        log = tube.log + (
            {"op": "digest", "enzymes": list(enzymes), "fragments": cuts},
            {"op": "pcr", "cycles": n, "amplified": sorted(kept)},
            {"op": "purify"},
        )
        tubes.append(tube._replace(species=kept, log=log, pcr_cycles=tube.pcr_cycles + n))
    return tubes
