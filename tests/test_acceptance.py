"""Acceptance gate: eight binding criteria, one reported line each.

Each criterion records a PASS or FAIL verdict; conftest prints the
collected lines in a terminal summary section after every run.
Tolerances are pinned here: rational quantities match exactly (zero
tolerance), the gel dye anchor is bit-exact in floating point, ladder
round-trips stay within 1 bp, the canonical run must finish in under
1 second, and the 200-trial soundness sweep in under 30.
"""

import functools
import random
import time
from fractions import Fraction

from conftest import concentration, make_ball_game

from dnadecide.compiler import DYE_FRONT_BP, compile_problem, role_chance
from dnadecide.decision import best_options
from dnadecide.gel import GEL_LENGTH, _merge_bands, decode_length, ladder, migrate, readout, run_gel
from dnadecide.strands import (
    CORE_BLUNT_CUTTERS,
    Duplex,
    cut,
    reverse_complement,
)
from dnadecide.soundness import verify_soundness
from dnadecide.wetlab import (
    apply_thresholds,
    assemble,
    digest,
    mix,
    pcr,
    run_protocol,
    split_tubes,
)


_VERDICTS: list[str] = []


def verdict_lines() -> list[str]:
    return list(_VERDICTS)


def criterion(number: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                extra = fn(*args, **kwargs)
            except BaseException:
                _VERDICTS.append(f"criterion {number}: FAIL  {title}")
                raise
            note = f"  ({extra})" if extra else ""
            _VERDICTS.append(f"criterion {number}: PASS  {title}{note}")

        return wrapper

    return deco


@functools.lru_cache(maxsize=None)
def _canonical():
    matrix = make_ball_game()
    plan, protocol = compile_problem(matrix, seed=0)
    tubes = run_protocol(plan, protocol)
    return matrix, plan, protocol, tubes


@criterion(1, "canonical band table matches exactly")
def test_criterion_1_canonical_band_table():
    started = time.perf_counter()
    matrix = make_ball_game()
    plan, protocol = compile_problem(matrix, seed=0)
    tubes = run_protocol(plan, protocol)
    gel = run_gel(tubes)
    elapsed = time.perf_counter() - started

    lanes = {
        lane.label: [(b.length, b.intensity) for b in lane.bands]
        for lane in gel.sample_lanes()
    }
    assert {l for l, _ in lanes["tube-1"]} == {147, 156}
    assert {l for l, _ in lanes["tube-2"]} == {147, 174}
    assert {l for l, _ in lanes["tube-3"]} == {156, 174}

    def ratio(label):
        (_, a), (_, b) = lanes[label]
        return Fraction(a, b)

    assert ratio("tube-1") == Fraction(4, 3)
    assert ratio("tube-2") == Fraction(4, 2)
    assert ratio("tube-3") == Fraction(3, 2)
    assert elapsed < 1.0, f"canonical run took {elapsed:.3f}s"
    return f"{elapsed:.3f}s"


@criterion(2, "readout picks option-1 and agrees with the exact oracle")
def test_criterion_2_decision_reproduction():
    matrix, plan, _, tubes = _canonical()
    report = readout(run_gel(tubes), plan)
    assert report.chosen_labels == ("option-1",)
    assert best_options(matrix) == [0]
    assert report.agreement


@criterion(3, "threshold ratios are exactly 5/9, 6/9, 7/9")
def test_criterion_3_threshold_ratios():
    _, plan, _, _ = _canonical()
    ratios = [plan.threshold_ratios[o.label] for o in plan.matrix.outcomes]
    assert ratios == [Fraction(5, 9), Fraction(6, 9), Fraction(7, 9)]


@criterion(4, "five PCR cycles turn a 1-unit difference into exactly 32")
def test_criterion_4_pcr_arithmetic():
    matrix, plan, _, _ = _canonical()
    pooled = assemble(apply_thresholds(mix(plan)))
    tube1 = split_tubes(pooled)[0]
    digested = digest(tube1, plan.tube_enzymes[0])

    unit = Fraction(1, plan.intensity_scale())
    survivors = sorted(
        concentration(digested, key) for key in digested.species
        if key.startswith("construct:")
    )
    assert survivors[1] - survivors[0] == unit

    after = pcr(digested, 5)
    grown = sorted(
        concentration(after, key) for key in after.species
        if key.startswith("construct:")
    )
    assert grown[1] - grown[0] == 32 * unit

    for n in range(11):
        staged = pcr(digested, n)
        for key in staged.species:
            if key.startswith("construct:"):
                assert concentration(staged, key) == concentration(digested, key) * 2**n


@criterion(5, "each designed 20 bp duplex cuts into two 10 bp blunt halves")
def test_criterion_5_digestion_geometry():
    _, plan, _, _ = _canonical()
    assignments = [(plan.strands[role], site) for role, site in plan.sites.items()]
    assert len(assignments) == 6
    assert {site.enzyme for _, site in assignments} == {
        s.enzyme for s in CORE_BLUNT_CUTTERS
    }
    for seq, site in assignments:
        duplex = Duplex(top=_strand(seq), bottom=_strand(reverse_complement(seq)))
        halves = cut(duplex, site)
        assert len(halves) == 2
        assert all(h.span_length == 10 and h.is_blunt for h in halves)


def _strand(seq):
    from dnadecide.strands import Strand

    return Strand(seq)


@criterion(6, "200 random problems all agree with the exact oracle")
def test_criterion_6_end_to_end_soundness():
    result = verify_soundness(trials=200, seed=0, cycles=3)
    assert result.trials == 200
    assert result.ok, result.describe()
    assert result.elapsed < 30.0, f"sweep took {result.elapsed:.1f}s"
    return f"{result.elapsed:.1f}s"


@criterion(7, "conservation holds on 1000 randomized instances per law")
def test_criterion_7_conservation_suite():
    matrix, plan, _, _ = _canonical()
    rng = random.Random(7)

    # displacement: per chance species, active + waste is unchanged; counts
    # are of 1/scale units, drawn over 0 to 24 stock units
    pool = mix(plan)
    scale = plan.intensity_scale()
    chance_keys = [k for k in pool.species if k.startswith("chance:")]
    thresh_keys = [k for k in pool.species if k.startswith("thresh:")]
    for _ in range(1000):
        species = dict(pool.species)
        doses = {}
        for key in chance_keys + thresh_keys:
            count = rng.randint(0, 24 * scale)
            species[key] = species[key]._replace(count=count)
            doses[key] = count
        settled = apply_thresholds(pool._replace(species=species))
        for out in matrix.outcomes:
            for opt in matrix.options:
                ch = role_chance(opt.label, out.label)
                waste = settled.species.get(f"waste:{ch}")
                total = settled.species[ch].count + (waste.count if waste else 0)
                assert total == doses[ch]

    # digestion: fragment lengths partition the parent span
    bases = "ACGT"
    for _ in range(1000):
        site = rng.choice(CORE_BLUNT_CUTTERS)
        seq = "".join(
            rng.choice(bases) for _ in range(rng.randint(10, 50))
        ) + site.site + "".join(rng.choice(bases) for _ in range(rng.randint(10, 50)))
        duplex = Duplex(top=_strand(seq), bottom=_strand(reverse_complement(seq)))
        pieces = cut(duplex, site)
        assert len(pieces) >= 2
        assert sum(p.span_length for p in pieces) == duplex.span_length

    # band merging: total intensity is preserved; counts of 1/9 units,
    # intensities from 1/9 to 40
    for _ in range(1000):
        raw = [
            (rng.randint(20, 300), rng.randint(1, 40 * 9))
            for _ in range(rng.randint(1, 15))
        ]
        merged = _merge_bands(raw, 200, 9, {})
        assert sum(b.intensity for b in merged) == Fraction(sum(c for _, c in raw), 9)


@criterion(8, "gel calibration: dye at 2/3, monotone, 1 bp round trip")
def test_criterion_8_gel_calibration():
    rungs = ladder(200)
    top = rungs[-1]
    assert migrate(DYE_FRONT_BP, top) == float(Fraction(2, 3)) * GEL_LENGTH
    distances = [migrate(l, top) for l in range(10, 201)]
    assert all(a > b for a, b in zip(distances, distances[1:]))
    for rung in rungs:
        assert abs(decode_length(migrate(rung, top), top) - rung) <= 1.0
