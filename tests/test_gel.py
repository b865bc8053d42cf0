"""Gel migration model, band merging, rendering, and the final readout."""

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
    Lane,
    UndecodableBandError,
    UnsupportedFormatError,
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
from dnadecide.wetlab import run_protocol
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

    return _merge_bands(pairs, TOP, unit)


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
    with pytest.raises(UnsupportedFormatError):
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
    stray = Lane(
        "tube-1",
        (Band(Fraction(60), Fraction(1), migrate(60, run.ladder[-1])),),
        scale=Fraction(32),
    )
    doctored = GelRun(run.ladder, (stray,) + run.lanes[1:])
    with pytest.raises(UndecodableBandError):
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


def test_ladder_lane_has_unit_intensities():
    lane = ladder_lane(STOCK)
    assert lane.label == "ladder"
    assert len(lane.bands) == len(STOCK)
    assert all(b.intensity == 1 for b in lane.bands)


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


def test_every_band_and_estimate_is_exact():
    # the readout checks only the argmax against the oracle, so a simulation
    # that scaled, dropped or swapped a losing band would still agree there:
    # every band, as (length, count of 1/intensity_scale units before
    # amplification), must be a predicted band with a non-zero count, and
    # every estimate the exact expected utility
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
