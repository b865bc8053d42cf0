"""Gel migration model, band merging, rendering, and the final readout."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnadecide.compiler import DYE_FRONT_BP, DYE_STOP, GEL_RESOLUTION, compile_problem
from dnadecide.decision import build_matrix, expected_utility
from dnadecide.gel import (
    GEL_LENGTH,
    Band,
    GelRun,
    GelError,
    Lane,
    band_table,
    decode_length,
    ladder,
    ladder_lane,
    migrate,
    readout,
    render,
    run_gel,
)
from dnadecide.soundness import random_matrix, run_end_to_end
from dnadecide.strands import Duplex
from dnadecide.wetlab import WASTE, Species, run_protocol
from conftest import make_ball_game, make_widest

# the stock ladder, 10 to 200 bp, and its top rung
STOCK = ladder(200)
TOP = STOCK[-1]


@pytest.fixture(scope="module")
def ball_lanes():
    from conftest import make_ball_game

    plan, protocol = compile_problem(make_ball_game(), seed=0)
    tubes = run_protocol(plan, protocol)
    return plan, run_gel(tubes)


# -- migration model -----------------------------------------------------------


def test_dye_lands_exactly_at_stop_fraction():
    assert migrate(DYE_FRONT_BP, TOP) == float(DYE_STOP) * GEL_LENGTH


def test_migration_strictly_decreases_across_ladder():
    distances = [migrate(l, TOP) for l in STOCK]
    assert all(a > b for a, b in zip(distances, distances[1:]))


def test_longest_rung_stays_at_well():
    assert migrate(TOP, TOP) == 0.0
    # anything longer is clipped at the well rather than running backwards
    assert migrate(500, TOP) == 0.0


def test_short_fragments_run_past_the_dye():
    assert migrate(50, TOP) > migrate(DYE_FRONT_BP, TOP)


def test_ladder_round_trip_within_one_basepair():
    rungs = ladder(290)
    for rung in rungs:
        recovered = decode_length(migrate(rung, rungs[-1]), rungs[-1])
        assert abs(recovered - rung) <= 1.0


def test_ladder_reaches_requested_length():
    assert ladder(282)[-1] == 290
    assert ladder(150)[-1] == 200


def test_nonpositive_length_rejected():
    from dnadecide.gel import GelError

    with pytest.raises(GelError):
        migrate(0, TOP)


@settings(deadline=None)
@given(st.integers(min_value=10, max_value=200), st.integers(min_value=10, max_value=200))
def test_migration_order_reverses_length_order(a, b):
    if a < b:
        assert migrate(a, TOP) > migrate(b, TOP)
    elif a == b:
        assert migrate(a, TOP) == migrate(b, TOP)


# -- band merging ---------------------------------------------------------------


def _lane_of(pairs, unit=1):
    from dnadecide.gel import _merge_bands

    return _merge_bands(pairs, TOP, unit, {})


def test_bands_a_full_resolution_apart_stay_separate():
    bands = _lane_of([(147, 4), (156, 3)])
    assert [b.length for b in bands] == [147, 156]


def test_close_bands_fuse_to_weighted_mean():
    bands = _lane_of([(150, 1), (154, 3)])
    assert len(bands) == 1
    assert bands[0].length == Fraction(150 + 154 * 3, 4)
    assert bands[0].intensity == 4


def test_merge_conserves_total_intensity():
    pairs = [(100, 2), (104, 5), (106, 1), (140, 7), (260, 3)]
    bands = _lane_of(pairs)
    assert sum(b.intensity for b in bands) == sum(i for _, i in pairs)


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=20, max_value=300),
            st.integers(min_value=1, max_value=36),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_merged_bands_respect_resolution_gap(pairs):
    # counts of 1/9 units: intensities from 1/9 to 4
    bands = _lane_of(pairs, 9)
    assert sum(b.intensity for b in bands) == Fraction(sum(c for _, c in pairs), 9)
    gaps = [b2.length - b1.length for b1, b2 in zip(bands, bands[1:])]
    assert all(g >= GEL_RESOLUTION for g in gaps)


def test_run_gel_shares_each_band_as_unshared_merges_build_it():
    # run_gel builds each distinct band once per call: hand-built tubes from
    # plans of units 9 and 2 show the same (length, count) clusters, and
    # every lane must equal a merge that shares nothing with any other lane
    from dnadecide.gel import _merge_bands
    from dnadecide.wetlab import TubeState

    nine, _ = compile_problem(make_ball_game(), seed=0)
    halves, _ = compile_problem(
        build_matrix([("heads", Fraction(1, 2)), ("tails", Fraction(1, 2))], [("call", ["heads"])]),
        seed=0,
    )
    assert (nine.intensity_scale(), halves.intensity_scale()) == (9, 2)

    def tube(label, plan, *pairs):
        species = {f"d{i}": Species(Duplex("A" * n, "T" * n), count)
                   for i, (n, count) in enumerate(pairs)}
        return TubeState(label, plan, species)

    tubes = [
        tube("t1", nine, (147, 4), (150, 3), (174, 2)),
        tube("t2", halves, (147, 4), (150, 3), (174, 2)),
        tube("t3", nine, (174, 2), (120, 1)),
        tube("t4", halves, (120, 1), (147, 4), (150, 3)),
    ]
    run = run_gel(tubes)
    for lane, t in zip(run.lanes, tubes):
        raw = [(sp.structure.span_length, sp.count) for sp in t.species.values()]
        assert lane.bands == _merge_bands(raw, run.ladder[-1], t.plan.intensity_scale(), {})
    assert run.lanes[0].bands[0].intensity == Fraction(7, 9)
    assert run.lanes[1].bands[0].intensity == Fraction(7, 2)
    # the same cluster at the same unit is one band, shared by both lanes
    assert run.lanes[0].bands[1] is run.lanes[2].bands[1]
    # a table shared across ladder tops still builds each top's own band
    built = {}
    for top in (200, 260, 200):
        raw = [(147, 4), (150, 3)]
        assert _merge_bands(raw, top, 9, built) == _merge_bands(raw, top, 9, {})


# -- imaging the canonical run ----------------------------------------------


def test_canonical_run_has_three_sample_lanes_and_ladder(ball_lanes):
    _, run = ball_lanes
    assert [lane.label for lane in run.lanes] == [
        "tube-1",
        "tube-2",
        "tube-3",
        "ladder",
    ]
    assert all(len(lane.bands) == 2 for lane in run.sample_lanes())


def test_canonical_band_lengths_and_intensities(ball_lanes):
    _, run = ball_lanes
    seen = {
        lane.label: [(b.length, b.intensity) for b in lane.bands]
        for lane in run.sample_lanes()
    }
    assert seen == {
        "tube-1": [(147, Fraction(128, 9)), (156, Fraction(96, 9))],
        "tube-2": [(147, Fraction(128, 9)), (174, Fraction(64, 9))],
        "tube-3": [(156, Fraction(96, 9)), (174, Fraction(64, 9))],
    }


def test_lane_scale_records_amplification(ball_lanes):
    _, run = ball_lanes
    assert all(lane.scale == 32 for lane in run.sample_lanes())


def test_band_table_is_exact_and_ordered(ball_lanes):
    _, run = ball_lanes
    lines = band_table(run).splitlines()
    assert lines[0] == "lane\tlength_bp\trelative_intensity\tmigration_fraction"
    assert lines[1].startswith("tube-1\t147\t128/9\t")
    body = [l.split("\t") for l in lines[1:]]
    ladder_rows = [r for r in body if r[0] == "ladder"]
    assert len(ladder_rows) == len(run.ladder)
    fractions = [float(r[3]) for r in body if r[0] == "tube-1"]
    assert fractions == sorted(fractions, reverse=True)


# -- rendering -------------------------------------------------------------


def test_svg_render_is_deterministic(ball_lanes):
    plan, run = ball_lanes
    first = render(run, "svg")
    second = render(run, "svg")
    assert first == second
    assert first.startswith("<svg ")
    assert first.count("<rect") >= 6 + len(run.lanes)


def test_svg_gray_levels_monotone_in_intensity(ball_lanes):
    import re

    _, run = ball_lanes
    svg = render(run, "svg")
    grays = [int(g) for g in re.findall(r"rgb\((\d+),", svg)]
    # three distinct intensities in the canonical run: 128/9 > 96/9 > 64/9
    assert len(set(grays)) == 3
    # the heaviest band is the darkest
    assert min(grays) == grays[0]


def test_text_render_marks_every_lane(ball_lanes):
    _, run = ball_lanes
    art = render(run, "text")
    lines = art.splitlines()
    assert len(lines) == len(run.lanes)
    assert lines[0].lstrip().startswith("tube-1")
    assert "|" in lines[-1] and "#" in lines[0]


def test_unknown_render_format_rejected(ball_lanes):
    _, run = ball_lanes
    with pytest.raises(GelError, match="unknown render format 'png'"):
        render(run, "png")


# -- readout ---------------------------------------------------------------


def test_readout_recovers_exact_expected_utilities(ball_lanes):
    plan, run = ball_lanes
    report = readout(run, plan)
    assert report.estimates == (
        Fraction(7, 9),
        Fraction(6, 9),
        Fraction(5, 9),
    )
    assert report.chosen == (0,)
    assert report.chosen_labels == ("option-1",)
    assert report.agreement


def test_readout_totals_keep_seven_six_five_proportion(ball_lanes):
    plan, run = ball_lanes
    lanes = run.sample_lanes()
    totals = tuple(sum((b.intensity for b in lane.bands), Fraction(0)) for lane in lanes)
    assert totals == (
        Fraction(224, 9),
        Fraction(192, 9),
        Fraction(160, 9),
    )
    base = totals[0] / 7
    assert [t / base for t in totals] == [7, 6, 5]


def test_empty_lanes_tie_at_zero(ball_lanes):
    plan, run = ball_lanes
    hollow = GelRun(
        run.ladder,
        tuple(Lane(l.label, (), l.scale) for l in run.sample_lanes())
        + (run.lanes[-1],),
    )
    report = readout(hollow, plan)
    assert report.estimates == (0, 0, 0)
    assert report.chosen == (0, 1, 2)


def test_readout_decodes_band_identities(ball_lanes):
    plan, run = ball_lanes
    report = readout(run, plan)
    assert report.decoded == (
        ("red", "black"),
        ("red", "white"),
        ("black", "white"),
    )


def test_readout_description_names_the_winner(ball_lanes):
    plan, run = ball_lanes
    text = readout(run, plan).describe()
    assert "chosen: option-1" in text
    assert "matches the exact oracle" in text


def test_alien_band_is_undecodable(ball_lanes):
    plan, run = ball_lanes
    # 60 bp is far from every construct; 141.5 and 179.5 bp sit 5.5 bp outside
    # the shortest (147 bp) and the longest (174 bp), beyond the 4.5 bp match
    # window but within a 6.5 bp one
    for length in (Fraction(60), Fraction(283, 2), Fraction(359, 2)):
        stray = Lane(
            "tube-1",
            (Band(length, Fraction(1), migrate(length, run.ladder[-1])),),
            scale=Fraction(32),
        )
        doctored = GelRun(run.ladder, (stray,) + run.lanes[1:])
        with pytest.raises(GelError, match="matches 0 predicted constructs"):
            readout(doctored, plan)


def test_lane_count_mismatch_is_an_error(ball_lanes):
    plan, run = ball_lanes
    short = GelRun(run.ladder, run.lanes[1:])
    from dnadecide.gel import GelError

    with pytest.raises(GelError):
        readout(short, plan)


def test_readout_refuses_another_matrix(ball_lanes):
    # the plan's construct lengths decode the bands, so another matrix (here
    # the options in reverse order) would be read silently against them
    plan, run = ball_lanes
    from dnadecide.gel import GelError

    reordered = plan.matrix._replace(options=plan.matrix.options[::-1])
    with pytest.raises(GelError, match="matrix"):
        readout(run, plan, reordered)
    assert readout(run, plan, plan.matrix) == readout(run, plan)


@pytest.mark.parametrize("scale", [Fraction(0), Fraction(-1)])
def test_readout_refuses_a_lane_of_nonpositive_scale(ball_lanes, scale):
    # a lane's scale divides its estimate: 0 would divide by zero and a
    # negative scale would negate the estimate, so either is refused by name
    plan, run = ball_lanes
    lanes = list(run.lanes)
    lanes[1] = lanes[1]._replace(scale=scale)
    with pytest.raises(GelError, match=f"lane {lanes[1].label}: scale {scale} is not positive"):
        readout(GelRun(run.ladder, tuple(lanes)), plan)


def test_readout_is_exact_on_any_lane():
    # a hand-built run whose intensities share no denominator with the plan's
    # unit (9) and whose lane scales are no powers of two: every estimate is
    # u_unfavorable + span * (the lane's summed intensity) / scale, exactly
    matrix = make_ball_game()._replace(u_favorable=Fraction(5, 2), u_unfavorable=Fraction(-1, 3))
    plan, _ = compile_problem(matrix, seed=0)
    assert plan.intensity_scale() == 9

    def band(label, intensity):
        length = plan.construct_length(label)
        return Band(Fraction(length), intensity, migrate(length, TOP))

    lanes = (
        Lane("tube-1", (band("red", Fraction(5, 7)), band("black", Fraction(3, 11))), Fraction(3)),
        Lane("tube-2", (band("red", Fraction(1, 4)), band("white", Fraction(2, 13))), Fraction(5, 7)),
        Lane("tube-3", (band("black", Fraction(9, 8)),), Fraction(1)),
    )
    report = readout(GelRun(STOCK, lanes + (ladder_lane(STOCK),)), plan)
    span = matrix.u_favorable - matrix.u_unfavorable
    assert report.estimates == tuple(
        matrix.u_unfavorable
        + span * sum((b.intensity for b in lane.bands), Fraction(0)) / lane.scale
        for lane in lanes
    )
    assert report.estimates[0] == Fraction(-1, 3) + Fraction(17, 6) * Fraction(76, 231)
    assert report.chosen == (2,)


@functools.lru_cache(maxsize=None)
def _ball_plan(u_favorable, u_unfavorable):
    matrix = make_ball_game()._replace(u_favorable=u_favorable, u_unfavorable=u_unfavorable)
    return compile_problem(matrix, seed=0)[0]


_BALL_OUTCOMES = ("black", "red", "white")
_INTENSITIES = st.fractions(min_value=0, max_value=20, max_denominator=30)


@settings(deadline=None, max_examples=60)
@given(
    utilities=st.sampled_from([
        (Fraction(1), Fraction(0)),
        (Fraction(5, 2), Fraction(-1, 3)),  # affine
        (Fraction(-2, 7), Fraction(-4)),  # both negative
        (Fraction(3, 4), Fraction(3, 4)),  # equal: every estimate is u
    ]),
    lanes=st.lists(
        st.tuples(
            st.dictionaries(st.sampled_from(_BALL_OUTCOMES), _INTENSITIES, max_size=3),
            st.one_of(
                st.sampled_from([Fraction(3, 2), Fraction(5, 7), Fraction(1), Fraction(32)]),
                st.fractions(min_value=Fraction(1, 20), max_value=50, max_denominator=20),
            ),
        ),
        min_size=3,
        max_size=3,
    ),
)
def test_readout_estimates_any_hand_built_lane_exactly(utilities, lanes):
    # whatever a lane shows and whatever its scale, each estimate is
    # u_unfavorable + span * (the lane's summed intensity) / scale
    plan = _ball_plan(*utilities)

    def band(label, intensity):
        length = plan.construct_length(label)
        return Band(Fraction(length), intensity, migrate(length, TOP))

    built = tuple(
        Lane(f"tube-{i + 1}", tuple(band(label, shown[label]) for label in sorted(shown)), scale)
        for i, (shown, scale) in enumerate(lanes)
    )
    report = readout(GelRun(STOCK, built + (ladder_lane(STOCK),)), plan)
    u_favorable, u_unfavorable = utilities
    span = u_favorable - u_unfavorable
    assert report.estimates == tuple(
        u_unfavorable + span * sum((b.intensity for b in lane.bands), Fraction(0)) / lane.scale
        for lane in built
    )


def test_ladder_lane_has_unit_intensities():
    lane = ladder_lane(STOCK)
    assert lane.label == "ladder"
    assert len(lane.bands) == len(STOCK)
    assert all(b.intensity == 1 for b in lane.bands)


def test_each_ladder_gets_its_own_lane_as_its_rungs_build_it():
    # `ladder_lane` is cached per rung tuple: the lane `run_gel` returns is
    # the one an uncached build gives, on the canonical run and a 13x5 draw
    _, _, _, wide = run_end_to_end(make_widest(random.Random("wide:0")), seed=0, cycles=5)
    plan, protocol = compile_problem(make_ball_game(), seed=0)
    tubes = run_protocol(plan, protocol)
    canonical = run_gel(tubes)
    for run in (canonical, wide):
        assert run.lanes[-1] == ladder_lane.__wrapped__(run.ladder)
    # a 260 bp duplex after the 200 bp ladder: a new ladder and its own lane,
    # and the 200 bp ladder's lane again after that
    long = "ACGT" * 65
    doctored = tubes[0]._replace(species={**tubes[0].species, "long": Species(Duplex(long, long), 9)})
    longer = run_gel([doctored, *tubes[1:]])
    assert (canonical.ladder, longer.ladder) == (ladder(200), ladder(260))
    assert longer.lanes[-1] == ladder_lane.__wrapped__(ladder(260)) != canonical.lanes[-1]
    assert run_gel(tubes).lanes[-1] == ladder_lane.__wrapped__(ladder(200))


def test_svg_annotates_ladder_rungs(ball_lanes):
    _, run = ball_lanes
    svg = render(run, "svg")
    assert ">200</text>" in svg
    assert ">100</text>" in svg


def _assert_exact(matrix, plan, run, report, name):
    scale = plan.intensity_scale()
    bands = [
        [(band.length, band.intensity / lane.scale * scale) for band in lane.bands]
        for lane in run.sample_lanes()
    ]
    predicted = [[row for row in rows if row[1]] for rows in plan.predicted_bands()]
    assert bands == predicted, name
    exact = tuple(expected_utility(matrix, i) for i in range(len(matrix.options)))
    assert report.estimates == exact, name
    # `readout` matches a band within half the gel resolution, so a drift of
    # several bp would still decode: each band must decode to its construct
    # length up to float round-off (the largest seen is 5.7e-14 bp)
    for lane, labels in zip(run.sample_lanes(), report.decoded):
        for band, label in zip(lane.bands, labels, strict=True):
            apparent = decode_length(band.migration, run.ladder[-1])
            residual = apparent - plan.construct_length(label)
            assert abs(residual) <= 1e-6, (name, lane.label, label, residual)


def _tamper(run, lane, bands):
    """`run` with one lane's bands replaced by `bands(old bands)`."""
    lanes = list(run.lanes)
    lanes[lane] = lanes[lane]._replace(bands=bands(lanes[lane].bands))
    return run._replace(lanes=tuple(lanes))


@pytest.mark.parametrize("lane, bands, disagreement", [
    # tube-2 reads 6/9 and loses to tube-1's 7/9: with its second band, the
    # 174 bp white one at 64/9, at half its intensity it still loses
    (1, lambda b: (b[0], b[1]._replace(intensity=b[1].intensity / 2)),
     "lane tube-2: band 2 is 174 bp x32/9, predicted 174 bp x64/9"),
    # tube-3 reads 5/9 and loses with or without its second band
    (2, lambda b: b[:1], "lane tube-3: 1 band(s), predicted 2"),
], ids=["halved", "dropped"])
def test_a_losing_band_off_its_prediction_disagrees(ball_lanes, lane, bands, disagreement):
    # the argmax still agrees, so only the band gate can catch either
    plan, run = ball_lanes
    report = readout(_tamper(run, lane, bands), plan)
    assert report.chosen == report.oracle == (0,)
    assert not report.agreement
    assert report.disagreement == disagreement
    assert f"\nDISAGREES with the exact oracle: {disagreement}\n" in report.describe()


def test_an_agreeing_report_has_no_disagreement(ball_lanes):
    plan, run = ball_lanes
    report = readout(run, plan)
    assert report.agreement and report.disagreement == report.mismatch == ""
    skewed = report._replace(oracle=(1,))
    assert not skewed.agreement
    assert skewed.disagreement == "chose (0,), oracle says (1,)"


def test_only_what_a_lane_shows_sizes_the_ladder():
    # a 300 bp duplex of count 0, or one gone to waste, shows no band; were it
    # to size the ladder, tube-1's 147 bp band would move from 0.296123 of the
    # lane to 0.432879
    plan, protocol = compile_problem(make_ball_game(), seed=0)
    tubes = run_protocol(plan, protocol)
    canonical = run_gel(tubes)
    assert "tube-1\t147\t128/9\t0.296123\n" in band_table(canonical)
    long = "ACGT" * 75
    for unshown in (Species(Duplex(long, long), 0), Species(Duplex(long, long), 9, WASTE)):
        doctored = tubes[0]._replace(species={**tubes[0].species, "unshown": unshown})
        assert run_gel([doctored, *tubes[1:]]) == canonical


def test_every_band_and_estimate_is_exact():
    # what `readout`'s gate holds every run to, restated here apart from it:
    # every band, as (length, count of 1/intensity_scale units before
    # amplification), must be a predicted band with a non-zero count that
    # decodes to its own length, and every estimate the exact expected utility
    matrix = make_ball_game()
    plan, protocol = compile_problem(matrix, seed=0)  # the canonical `dnadecide run`
    run = run_gel(run_protocol(plan, protocol))
    _assert_exact(matrix, plan, run, readout(run, plan), "canonical")

    # the reading pinned for a favorable outcome that never happens:
    # `predicted_bands` keeps it as a count-0 row, and the lane shows no
    # band for it
    matrix = build_matrix(
        outcomes=[("never", Fraction(0)), ("heads", Fraction(2, 3)), ("tails", Fraction(1, 3))],
        options=[("bet-never", ["never", "heads"]), ("bet-tails", ["tails"])],
    )
    report, plan, _, run = run_end_to_end(matrix, seed=0, cycles=3)
    assert (plan.construct_length("never"), 0) in plan.predicted_bands()[0]
    assert [band.length for band in run.sample_lanes()[0].bands] == [plan.construct_length("heads")]
    _assert_exact(matrix, plan, run, report, "zero probability")

    rng = random.Random(11)
    problems = [(random_matrix(rng), 3) for _ in range(200)]
    problems.append((make_widest(random.Random("wide:0")), 5))
    for seed, (matrix, cycles) in enumerate(problems):
        report, plan, _, run = run_end_to_end(matrix, seed=seed, cycles=cycles)
        _assert_exact(matrix, plan, run, report, f"problem {seed}")


def test_readout_ignores_the_design_seed_and_follows_the_option_order():
    # two metamorphic relations: the design seed changes strand sequences,
    # never the gel or the reading; reversing the options reverses every
    # per-option output and maps the chosen indices to their mirror
    rng = random.Random(1)
    for trial in range(20):
        matrix = random_matrix(rng)
        report, _, _, run = run_end_to_end(matrix, seed=trial, cycles=3)
        other, _, _, other_run = run_end_to_end(matrix, seed=trial + 10**6, cycles=3)
        assert band_table(other_run) == band_table(run), trial
        assert other.describe() == report.describe(), trial

        flipped, _, _, _ = run_end_to_end(
            matrix._replace(options=matrix.options[::-1]), seed=trial, cycles=3
        )
        last = len(matrix.options) - 1
        assert flipped.estimates == report.estimates[::-1], trial
        assert flipped.decoded == report.decoded[::-1], trial
        assert flipped.chosen == tuple(sorted(last - i for i in report.chosen)), trial


def test_readout_ignores_the_outcome_order_and_follows_affine_utilities():
    # two more metamorphic relations: where the probabilities are distinct,
    # they alone rank the outcomes' cores, so reversing the outcomes (and
    # every option's payoffs with them) moves no band and no reading; the
    # positive affine map u -> 3/2 u - 7/5 of both utilities maps every
    # estimate the same way and keeps the choice
    def affine(u):
        return Fraction(3, 2) * u - Fraction(7, 5)

    rng = random.Random(1)
    for trial in range(20):
        matrix = random_matrix(rng)
        report, _, _, run = run_end_to_end(matrix, seed=trial, cycles=3)
        if len({out.probability for out in matrix.outcomes}) == len(matrix.outcomes):
            reversed_outcomes = matrix._replace(
                outcomes=matrix.outcomes[::-1],
                options=tuple(opt._replace(payoffs=opt.payoffs[::-1]) for opt in matrix.options),
            )
            other, _, _, other_run = run_end_to_end(reversed_outcomes, seed=trial, cycles=3)
            assert band_table(other_run) == band_table(run), trial
            assert other.describe() == report.describe(), trial

        scaled = matrix._replace(
            u_favorable=affine(matrix.u_favorable), u_unfavorable=affine(matrix.u_unfavorable)
        )
        mapped, _, _, _ = run_end_to_end(scaled, seed=trial, cycles=3)
        assert mapped.estimates == tuple(affine(e) for e in report.estimates), trial
        assert mapped.chosen == report.chosen, trial
