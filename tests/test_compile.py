import hashlib
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dnadecide import compiler
from dnadecide.compiler import (
    BASE_CONSTRUCT_LENGTH,
    CompileError,
    EncodingPlan,
    Top,
    _Designer,
    assign_enzymes,
    check_pieces,
    compile_problem,
    construct_roles,
    derivations,
    generate_sequences,
    middle_length_for_rank,
    probability_lengths,
    role_thresh,
    validate_encoding,
    violations,
)
from dnadecide.compiler import _slug, construct_key, role_chance, role_option, role_prob, role_util
from dnadecide.decision import (
    DecisionMatrix,
    DuplicateLabelError,
    MatrixError,
    Option,
    Outcome,
    Payoff,
    build_matrix,
)
from dnadecide.fixture import _RAW, printed_pieces, reference_pins
from dnadecide.strands import (
    CORE_BLUNT_CUTTERS,
    EXTENDED_BLUNT_CUTTERS,
    Duplex,
    Strand,
    reverse_complement,
)
from dnadecide.soundness import random_matrix
from conftest import gc_fraction, make_ball_game, make_five_by_five, make_widest

F = Fraction


def test_threshold_ratios_of_ball_game(ball_game):
    plan, _ = compile_problem(ball_game, seed=0)
    ratios = [plan.threshold_ratios[o.label] for o in ball_game.outcomes]
    assert ratios == [F(5, 9), F(2, 3), F(7, 9)]


def test_threshold_ratio_bounds():
    m = build_matrix([("sure", F(1)), ("never", F(0))], [("go", ["sure"])])
    plan, _ = compile_problem(m, seed=0)
    assert plan.threshold_ratios["sure"] == 0
    assert plan.threshold_ratios["never"] == 1


def test_middle_length_table():
    assert [middle_length_for_rank(k) for k in range(5)] == [7, 16, 34, 70, 142]


def test_probability_lengths_ball_game(ball_game):
    lengths = probability_lengths([o.probability for o in ball_game.outcomes])
    assert lengths == [7, 16, 34]


def test_probability_lengths_rank_by_probability():
    # least probable outcome gets the longest core, declaration breaks ties
    assert probability_lengths([F(1, 6), F(1, 2), F(1, 3)]) == [34, 7, 16]
    assert probability_lengths([F(1, 4), F(1, 4), F(1, 2)]) == [16, 34, 7]


def test_probability_lengths_unresolvable_beyond_ladder():
    probs = [F(1, 6)] * 6
    with pytest.raises(CompileError, match="ladder range"):
        probability_lengths(probs)


def test_enzyme_assignment_ball_game(ball_game):
    sites = assign_enzymes(ball_game)
    assert {role: site.enzyme for role, site in sites.items()} == {
        "option:option-1": "PvuII",
        "option:option-2": "HpaI",
        "option:option-3": "StuI",
        "util:red": "PmlI",
        "util:black": "EcoRV",
        "util:white": "ScaI",
    }
    assert list(sites.values()) == list(CORE_BLUNT_CUTTERS)


def test_enzyme_assignment_exhausts_library():
    m = build_matrix(
        outcomes=[("a", F(1, 2)), ("b", F(1, 2))],
        options=[(f"opt{i}", ["a"]) for i in range(5)],
    )
    with pytest.raises(CompileError, match="distinct enzymes"):
        assign_enzymes(m, CORE_BLUNT_CUTTERS)
    assert assign_enzymes(m, EXTENDED_BLUNT_CUTTERS)


def test_tube_schedule_ball_game(ball_plan):
    plan, _ = ball_plan
    assert plan.tube_enzymes == (
        ("HpaI", "ScaI", "StuI"),
        ("EcoRV", "PvuII", "StuI"),
        ("HpaI", "PmlI", "PvuII"),
    )


def test_the_tube_schedule_does_not_read_the_site_map_order():
    # each enzyme is looked up by its top's role, so a site map that lists
    # the same roles in another order schedules every tube alike
    for plan, _ in (
        compile_problem(make_ball_game(), seed=0),
        compile_problem(make_widest(random.Random(0)), library=EXTENDED_BLUNT_CUTTERS),
    ):
        reordered = plan._replace(sites=dict(reversed(plan.sites.items())))
        assert reordered.tube_enzymes == plan.tube_enzymes


# -- whole-plan compilation ----------------------------------------------------

@pytest.fixture(scope="module")
def ball_plan():
    return compile_problem(make_ball_game(), seed=0)


def test_compiled_plan_validates_clean(ball_plan):
    plan, _ = ball_plan
    assert validate_encoding(plan) == []


def test_construct_lengths(ball_plan):
    plan, _ = ball_plan
    assert BASE_CONSTRUCT_LENGTH == 140
    assert [plan.construct_length(o.label) for o in plan.matrix.outcomes] == [
        147,
        156,
        174,
    ]
    for opt in plan.matrix.options:
        for out in plan.matrix.outcomes:
            top = plan.construct_top(construct_roles(opt.label, out.label))
            assert len(top) == plan.construct_length(out.label)


def test_construct_roles_follow_the_geometry(ball_plan):
    # tops at the even positions, and between each two the junction strand
    # the geometry table derives from exactly those two neighbours
    plan, _ = ball_plan
    options = [o.label for o in plan.matrix.options]
    outcomes = [o.label for o in plan.matrix.outcomes]
    table = derivations(options, outcomes)
    tops = {r: s.top if isinstance(s, Duplex) else s for r, s in plan.strands.items()}
    junctions = set()
    for opt in options:
        for out in outcomes:
            roles = construct_roles(opt, out)
            assert roles[::2] == ("choice", role_option(opt), role_prob(out), role_util(out), "term")
            top = plan.construct_top(roles)
            assert top == "".join(tops[r] for r in roles[::2])
            for left, role, right in zip(roles[::2], roles[1::2], roles[2::2]):
                rule = table[role]
                assert rule.offset is None
                assert [r for r, _, _ in rule.slices] == [left, right]
                assert reverse_complement(plan.strands[role]) in top
                junctions.add(role)
    assert junctions == {role for role, rule in table.items() if len(rule.slices) == 2}


def test_predicted_band_table(ball_plan):
    plan, _ = ball_plan
    assert plan.intensity_scale() == 9
    assert plan.predicted_bands() == [
        [(147, 4), (156, 3)],
        [(147, 4), (174, 2)],
        [(156, 3), (174, 2)],
    ]


def test_compile_is_deterministic():
    a, _ = compile_problem(make_ball_game(), seed=7)
    b, _ = compile_problem(make_ball_game(), seed=7)
    assert {k: v for k, v in a.strands.items()} == {k: v for k, v in b.strands.items()}
    c, _ = compile_problem(make_ball_game(), seed=8)
    assert a.strands["choice"] != c.strands["choice"]


def test_option_strands_carry_their_sites(ball_plan):
    plan, _ = ball_plan
    for opt in plan.matrix.options:
        seq = plan.strands[role_option(opt.label)]
        site = plan.sites[role_option(opt.label)].site
        assert seq.find(site) == 7
        assert len(seq) == 20
    for out in plan.matrix.outcomes:
        seq = plan.strands[role_util(out.label)]
        assert seq.find(plan.sites[role_util(out.label)].site) == 7


def test_gc_fractions_in_range(ball_plan):
    plan, _ = ball_plan
    for name, seq in plan.all_strands():
        assert F(2, 5) <= gc_fraction(seq) <= F(3, 5), name


def test_threshold_toehold_copies_probability_front(ball_plan):
    plan, _ = ball_plan
    for out in plan.matrix.outcomes:
        th = plan.strands[role_thresh(out.label)]
        front = plan.strands[role_prob(out.label)].top[:10]
        assert th.top[:10] == front
        assert th.offset == 10
        assert th.bottom == reverse_complement(th.top[10:])


def test_primers_match_construct_ends(ball_plan):
    plan, _ = ball_plan
    left, right = plan.primers
    assert left == reverse_complement(plan.strands["choice"].top[:10])
    assert right == reverse_complement(plan.strands["term"].top[-10:])


def test_protocol_text_mentions_all_steps(ball_plan):
    plan, protocol = ball_plan
    text = protocol.describe()
    assert "tube-1: digest with HpaI, ScaI, StuI" in text
    assert "tube-2: digest with EcoRV, PvuII, StuI" in text
    assert "tube-3: digest with HpaI, PmlI, PvuII" in text
    assert "37 C" in text
    assert "5 PCR cycles" in text
    assert "2.5-3% agarose" in text
    assert "2/3" in text


def test_plan_text_is_deterministic(ball_plan):
    plan, _ = ball_plan
    again, _ = compile_problem(make_ball_game(), seed=0)
    assert plan.describe() == again.describe()
    assert plan.to_fasta() == again.to_fasta()


def test_duplicated_option_sequence_is_flagged(ball_plan):
    plan, _ = ball_plan
    broken = EncodingPlan(
        matrix=plan.matrix,
        seed=plan.seed,
        strands=dict(plan.strands),
        middle_lengths=plan.middle_lengths,
        sites=plan.sites,
    )
    one = broken.strands[role_option("option-1")]
    broken.strands[role_option("option-2")] = one
    kinds = {v.kind for v in validate_encoding(broken)}
    assert "duplicate-window" in kinds
    # option-2's designed site is gone too, replaced by option-1's
    assert "site-missing" in kinds or "stray-site" in kinds


def _flip_last(seq: str) -> str:
    return seq[:-1] + ("A" if seq[-1] != "A" else "C")


_BALL_DERIVED = list(
    derivations(
        [o.label for o in make_ball_game().options],
        [o.label for o in make_ball_game().outcomes],
    )
)


@pytest.mark.parametrize("role", _BALL_DERIVED)
def test_flipped_derived_base_is_flagged(ball_plan, role):
    plan, _ = ball_plan
    item = plan.strands[role]
    strands = dict(plan.strands)
    if isinstance(item, Duplex):
        # the constructor refuses a mispaired bottom, which a transcribed
        # plan may still hold, so build this one around the pairing check
        bottom = Strand(_flip_last(item.bottom))
        strands[role] = tuple.__new__(Duplex, (item.top, bottom, item.offset))
    else:
        strands[role] = Strand(_flip_last(item))
    broken = EncodingPlan(
        matrix=plan.matrix,
        seed=plan.seed,
        strands=strands,
        middle_lengths=plan.middle_lengths,
        sites=plan.sites,
    )
    found = validate_encoding(broken)
    assert any(v.kind == "derivation" and v.roles == (role,) for v in found), found


def _plan_text(plan, protocol) -> str:
    return plan.to_fasta() + plan.describe() + protocol.describe()


# sha256 of the FASTA, plan text and protocol text; a designer that accepts
# or rejects one candidate differently moves the RNG stream and every digest
@pytest.mark.parametrize(
    "case, digest",
    [
        ("core", "7b4a3ac2916fbc80d1ee0166a01e36f7818765f8dd5f945d84a5c3aa576ae147"),
        ("extended-5x5", "8480ced02cf08d36e7cbae6eeca08efcddb43b6a50511858885834c74eb1acf0"),
        ("fixture", "eaceff3275f3e73f7e133678d8288076b93414584118ac332397a5a5b8b33a35"),
        ("extended-13x5", "da698cc2c489ca29e94f37bf72219c8862caf86efdf539cd74b645586b1c9ff1"),
    ],
    ids=["core", "extended-5x5", "fixture", "extended-13x5"],
)
def test_outputs_are_byte_identical_to_reference(case, digest):
    if case == "core":  # the ball game on the core library, seeds 0-9
        text = "".join(
            _plan_text(*compile_problem(make_ball_game(), seed=s)) for s in range(10)
        )
    elif case == "extended-5x5":  # a fixed 5x5 on the extended library, seeds 0-9
        text = "".join(
            _plan_text(*compile_problem(
                make_five_by_five(), seed=s, library=EXTENDED_BLUNT_CUTTERS
            ))
            for s in range(10)
        )
    elif case == "extended-13x5":  # every extended enzyme in use, seeds 0-3
        text = "".join(
            _plan_text(*compile_problem(
                make_widest(random.Random(s)), seed=s, library=EXTENDED_BLUNT_CUTTERS
            ))
            for s in range(4)
        )
    else:  # the ball game seeded from the screened reference pieces
        text = _plan_text(*compile_problem(make_ball_game(), use_fixture=True))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _copy_option_twice(matrix, tops):
    """The first option top copied onto the next two (a window placed three times)."""
    first, *others = [role_option(opt.label) for opt in matrix.options]
    for role in others[:2]:
        tops[role] = tops[first]


def _swap_utilities(matrix, tops):
    a, b = role_util(matrix.outcomes[0].label), role_util(matrix.outcomes[1].label)
    tops[a], tops[b] = tops[b], tops[a]


def _copy_probability(matrix, tops):
    tops[role_prob(matrix.outcomes[1].label)] = tops[role_prob(matrix.outcomes[0].label)]


def test_findings_are_byte_identical_to_reference():
    # every finding of validate_encoding, in order, on 90 extended-library
    # sweep plans (every other one seeded from the reference pieces), each
    # clean and again with one edit; a judge that words, orders or places a
    # finding differently moves the digest
    rng, digest, count = random.Random(29), hashlib.sha256(), 0
    edits = (_copy_option_twice, _swap_utilities, _copy_probability)
    for i in range(90):
        matrix = random_matrix(rng)
        plan, _ = compile_problem(
            matrix, seed=i, library=EXTENDED_BLUNT_CUTTERS, use_fixture=i % 2 == 1
        )
        edit = edits[i // 2 % 3]
        for p in (plan, _with_tops(plan, lambda tops: edit(matrix, tops))):
            for v in validate_encoding(p):
                digest.update(f"{i} {v}\n".encode())
                count += 1
    assert (count, digest.hexdigest()) == (
        2044, "02a8febb0520c21a04cc8af856aba522e4abf43ad13a9364bc2999e9157ce49d"
    )


def test_planted_complement_windows_are_found_in_order(ball_plan):
    # the two window rules no edit above reaches: option-2 set to option-1's
    # reverse complement, and a window that is its own reverse complement at
    # the start of the termination arm
    plan, _ = ball_plan

    def edit(tops):
        tops[role_option("option-2")] = reverse_complement(tops[role_option("option-1")])
        tops["term"] = "AACCGCGGTT" + tops["term"][10:]

    found = [str(v) for v in validate_encoding(_with_tops(plan, edit))]
    assert found[0] == ("[self-complement-window] term: "
                        "window AACCGCGGTT at offset 0 is its own reverse complement")
    assert [v.startswith("[complement-window] ") for v in found[1:]] == [True] * 11 + [False] * 2
    assert hashlib.sha256("\n".join(found).encode()).hexdigest() == (
        "70376ca8c4581be05036243c8058765848cf660ec07ba09a46b7c2ebab236163"
    )


def test_trusted_derivations_equal_checked_rebuilds():
    # generate_sequences builds every derived strand and duplex without the
    # public constructors' checks; each must come out of Strand and Duplex,
    # checks and all, as the same value, and each bottom must pair its top
    problems = [
        (make_ball_game(), CORE_BLUNT_CUTTERS),
        (make_ball_game(), EXTENDED_BLUNT_CUTTERS),
    ]
    rng = random.Random(29)
    problems += [(random_matrix(rng), EXTENDED_BLUNT_CUTTERS) for _ in range(50)]
    checked = 0
    for seed, (matrix, library) in enumerate(problems):
        for use_fixture in (False, True):
            plan, _ = compile_problem(matrix, seed=seed, library=library, use_fixture=use_fixture)
            for role, item in plan.strands.items():
                if isinstance(item, Duplex):
                    rebuilt = Duplex(Strand(item.top), Strand(item.bottom), item.offset)
                    assert (type(item.top), type(item.bottom)) == (Strand, Strand), role
                    paired = item.top[item.ds_start : item.ds_end]
                    assert item.bottom == reverse_complement(paired), role
                else:
                    rebuilt = Strand(item)
                assert rebuilt == item and type(rebuilt) is type(item), role
                checked += 1
    assert checked > 4_000


def test_five_by_five_compiles_clean():
    plan, _ = compile_problem(make_five_by_five(), seed=3, library=EXTENDED_BLUNT_CUTTERS)
    assert validate_encoding(plan) == []
    assert sorted(plan.middle_lengths.values()) == [7, 16, 34, 70, 142]


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_random_seeds_generate_clean_ball_game_plans(seed):
    plan, _ = compile_problem(make_ball_game(), seed=seed)
    assert validate_encoding(plan) == []


# -- reference material --------------------------------------------------------

# the designed sites of the transcribed option and utility strands, PvuII's
# and PmlI's, as the ball game assigns them
_SITES = {"option:option-1": CORE_BLUNT_CUTTERS[0], "util:red": CORE_BLUNT_CUTTERS[3]}


def assess_printed() -> list[str]:
    """Findings on the reference set: every deviation from the geometry of
    its path with a 7-base core, each named by its printed piece."""
    names = {strand: key for key, (strand, _, _) in _RAW.items()}
    pieces = {_RAW[key][0]: seq for key, seq in printed_pieces().items()}
    found = check_pieces(["option-1"], {"red": middle_length_for_rank(0)}, _SITES, pieces)
    findings = []
    for strand, v in found:
        if v.kind == "site-missing":
            findings.append(f"{names[strand]}: designed site {_SITES[strand].site} not present")
        elif v.kind in ("geometry", "derivation", "site-extra"):
            findings.append(f"{names[strand]}: {v.detail}")
    return findings


def test_printed_reference_findings():
    findings = "\n".join(assess_printed())
    assert "choice.top: 39 bases, expected 40" in findings
    assert "prob.top: 25 bases, expected 27" in findings
    assert "util: 21 bases, expected 20" in findings
    assert "util: designed site CACGTG not present" in findings
    assert "term.bottom: 19 bases, expected 20" in findings
    assert "link.util: 29 bases, expected 30" in findings
    assert "chance: not the complement of the option-to-probability junction" in findings
    # the intact pieces stay clean
    assert "option:" not in findings
    assert "term.top" not in findings
    assert "primer" not in findings
    assert "thresh.top" not in findings


def test_printed_option_strand_is_kept_in_place(ball_game):
    pieces = printed_pieces()
    pins = reference_pins(ball_game)
    assert pins[role_option("option-1")] == ("option", pieces["option"])
    assert pins[role_thresh("red")] == ("thresh pad", pieces["thresh.top"][10:])
    plan, _ = compile_problem(ball_game, seed=0, use_fixture=True)
    tops = {role: s.top if isinstance(s, Duplex) else s for role, s in plan.strands.items()}
    assert tops[role_option("option-1")] == pieces["option"]
    assert tops["term"] == pieces["term.top"]
    assert tops[role_thresh("red")][10:] == pieces["thresh.top"][10:]
    assert tops["choice"] != pieces["choice.top"]
    assert tops[role_prob("red")] != pieces["prob.top"]
    assert tops[role_util("red")] != pieces["util"]
    # one verdict per piece, in the order the designer places them
    assert plan.fixture_notes == (
        "rejected reference choice: 39 bases, expected 40",
        "kept reference term verbatim",
        "kept reference option verbatim",
        "rejected reference prob.top: 25 bases, expected 27",
        "rejected reference util: 21 bases, expected 20; "
        "designed site CACGTG not exactly once at offset 7",
        "kept reference thresh pad verbatim",
    )


def test_fixture_compile_repairs_and_reports(ball_game):
    plan, _ = compile_problem(ball_game, seed=0, use_fixture=True)
    assert validate_encoding(plan) == []
    assert plan.strands[role_option("option-1")] == printed_pieces()["option"]
    assert plan.strands["term"].top == printed_pieces()["term.top"]
    assert plan.strands[role_thresh("red")].top[10:] == printed_pieces()["thresh.top"][10:]
    # defective pieces were regenerated, not copied
    assert plan.strands["choice"].top != printed_pieces()["choice.top"]
    assert len(plan.strands["choice"].top) == 40
    notes = "\n".join(plan.fixture_notes)
    assert "rejected reference" in notes and "kept reference" in notes


def test_generation_failure_is_raised_not_looped(monkeypatch):
    # an impossibly tight designer budget must fail loudly
    m = make_ball_game()
    sites = assign_enzymes(m)
    middles = {o.label: l for o, l in zip(m.outcomes, [7, 16, 34])}
    import dnadecide.compiler as compiler

    monkeypatch.setattr(compiler, "MAX_TRIES", 0)
    with pytest.raises(CompileError, match="could not place segment"):
        generate_sequences(m, sites, middles, seed=0)


def test_generation_failure_names_the_rule_that_ran_out():
    # the prefix holds an assigned site, so every candidate draws a stray-site finding
    designer = _Designer(random.Random(0), ["CAGCTG"])
    with pytest.raises(CompileError) as failure:
        designer.fresh(Top("x", 20, prefix="CAGCTG"))
    message = str(failure.value)
    assert message.startswith("could not place segment 'x': ")
    assert "stray-site 500" in message.split(": ", 1)[1].split(", ")


# -- the designer's random stream ----------------------------------------------

def _reference_block(rng, length, fixed):
    """The designer's block as `randint`, `sample` and `choice` draw it."""
    fixed_gc = sum(1 for b in fixed.values() if b in "GC")
    free = [i for i in range(length) if i not in fixed]
    lo = max(math.ceil(Fraction(2, 5) * length), fixed_gc)
    hi = min(math.floor(Fraction(3, 5) * length), fixed_gc + len(free))
    target = rng.randint(lo, hi) - fixed_gc
    gc_positions = set(rng.sample(free, target))
    out = []
    for i in range(length):
        if i in fixed:
            out.append(fixed[i])
        elif i in gc_positions:
            out.append(rng.choice("GC"))
        else:
            out.append(rng.choice("AT"))
    return "".join(out)


# each shape is the run of (width, fixed bases) blocks one segment draws in turn
_BLOCK_SHAPES = {
    "free 10-base block": [(10, {})],
    "block holding part of a 6-base site": [
        (10, {7: "C", 8: "A", 9: "G"}), (10, {0: "C", 1: "T", 2: "G"})
    ],
    "fully fixed prefix block": [(10, dict(enumerate("ACATCAGGAG")))],
    "short tail block": [(7, {})],
    # a 162-base probability top with breaks (10, 152): the 2-base block
    # closes the core and the last block starts at the break
    "block starting at a break": [(10, {})] * 15 + [(2, {}), (10, {})],
    # randint(6, 6), an empty pool walk, then 4 AT letters
    "fixed bases fill the GC range": [(10, dict(enumerate("GCGCGC")))],
    "fixed bases between free ones": [(10, {1: "G", 3: "A", 4: "T", 8: "C"})],
}


@pytest.mark.parametrize("shape", list(_BLOCK_SHAPES))
def test_block_draws_the_stream_of_randint_sample_and_choice(shape):
    for seed in range(200):
        designer, reference = _Designer(random.Random(seed), []), random.Random(seed)
        for width, fixed in _BLOCK_SHAPES[shape]:
            block = designer._block(width, fixed)
            assert block == _reference_block(reference, width, fixed), (
                f"seed {seed}: the designer's block no longer matches randint/sample/"
                "choice; this Python's random module draws differently, so every "
                "seed's FASTA moves"
            )
            assert designer.rng.getstate() == reference.getstate(), (
                f"seed {seed}: the designer's block consumed a different number of "
                "random bits than randint/sample/choice"
            )


class _NoDraws(random.Random):
    """A stream that fails the test on any `getrandbits` call, so a block
    that draws before refusing fails, and does not loop on 0-bit draws."""

    def getrandbits(self, k):
        raise AssertionError(f"the block drew {k} bits before refusing")


def test_a_block_beyond_the_gc_range_is_refused_before_any_draw():
    # 7 fixed G/C bases in a 10-base block exceed the 6 the GC range allows
    for rng in (_NoDraws(0), random.Random(0)):
        state = rng.getstate()
        with pytest.raises(CompileError) as refusal:
            _Designer(rng, [])._block(10, dict(enumerate("GCGCGCG")))
        assert str(refusal.value) == "no GC-balanced fill for a 10-base block"
        assert rng.getstate() == state


# -- site rules ----------------------------------------------------------------

def _util_findings(seq, left=None, right=None):
    """`violations` on util:red of the seed-0 ball game (GAGGAGT CACGTG
    TAACTTG) between its probability top and the termination arm, against
    all six assigned sites; None keeps the designed neighbour."""
    plan, _ = compile_problem(make_ball_game(), seed=0)
    tops = {role: s.top if isinstance(s, Duplex) else s for role, s in plan.strands.items()}
    assert tops[role_util("red")] == "GAGGAGTCACGTGTAACTTG"
    left = tops[role_prob("red")] if left is None else left(tops[role_prob("red")])
    right = tops["term"] if right is None else right(tops["term"])
    sites = tuple(s.site for s in plan.sites.values())
    top = Top("util:red", 20, "CACGTG", (left,), (right,))
    return [tuple(v) for v in violations(top, seq, 0, sites, {})[0]]


_ROLES = ("util:red",)
_EXTRA = ("site-extra", _ROLES, "designed site CACGTG not exactly once at offset 7")


@pytest.mark.parametrize(
    "seq, left, right, expected",
    [
        ("GAGGAGTCACGTGTAACTTG", None, None, []),
        ("CAGCTGTCACGTGTAACTTG", None, None,
         [("stray-site", _ROLES, "stray site CAGCTG at 0")]),
        ("GAGGAGTCAGCTGTAACTTG", None, None, [
            ("site-missing", _ROLES, "designed site CACGTG not exactly once at offset 7"),
            ("stray-site", _ROLES, "stray site CAGCTG at 7"),
        ]),
        ("GAGGAGTCACGTGTCAGCTG", None, None,
         [("stray-site", _ROLES, "stray site CAGCTG at 14")]),
        ("CAGCTGTCACGTGTGTTAAC", None, None, [
            ("stray-site", _ROLES, "stray site CAGCTG at 0"),
            ("stray-site", _ROLES, "stray site GTTAAC at 14"),
        ]),
        ("CACGTGTCACGTGTAACTTG", None, None,
         [_EXTRA, ("stray-site", _ROLES, "stray site CACGTG at 0")]),
        ("GAGGAGTCACGTGTCACGTG", None, None,
         [_EXTRA, ("stray-site", _ROLES, "stray site CACGTG at 14")]),
        ("CTGGAGTCACGTGTAACTTG", lambda top: top[:-3] + "CAG", None,
         [("junction-site", _ROLES, "site CAGCTG spans the junction AACAGCTGGA")]),
        ("GAGGAGTCACGTGTAACCAG", None, lambda top: "CTG" + top[3:],
         [("junction-site", _ROLES, "site CAGCTG spans the junction ACCAGCTGAG")]),
    ],
    ids=["clean", "rival-at-0", "rival-in-the-middle", "rival-at-the-end",
         "two-rivals", "own-at-0", "own-at-the-end", "left-junction", "right-junction"],
)
def test_planted_sites_give_exact_findings(seq, left, right, expected):
    assert _util_findings(seq, left, right) == expected


# -- one rule sheet: validation judges each top as the designer placed it ------

def _with_tops(plan, edit):
    """`plan` with its independent tops edited in place by `edit` and every
    other strand derived again, so that only the edited tops break a rule."""
    table = derivations([o.label for o in plan.matrix.options], list(plan.middle_lengths))
    tops = {role: s.top if isinstance(s, Duplex) else s for role, s in plan.strands.items()
            if role not in table or table[role].offset is not None}
    edit(tops)
    strands = {role: Strand(top) for role, top in tops.items()}
    for role, d in table.items():
        strand = Strand(d.derive(tops))
        strands[role] = strand if d.offset is None else Duplex(strands[role], strand, d.offset)
    return plan._replace(strands=strands)


_BALL_TOPS = [
    "choice", "term", *(role_option(f"option-{i}") for i in (1, 2, 3)),
    *(family(out) for family in (role_prob, role_util, role_thresh)
      for out in ("red", "black", "white")),
]


@pytest.mark.parametrize("role", _BALL_TOPS)
def test_a_planted_stray_site_is_found_once_on_its_top(ball_plan, role):
    # offset 14 is clear of a node's designed site (7-12) and of a
    # threshold's toehold (0-9); a shared top used to be blamed once per
    # construct through it, and a threshold top was never judged for sites
    plan, _ = ball_plan
    assigned = [s.site for s in plan.sites.values()]
    strand = plan.strands[role]
    top = strand.top if isinstance(strand, Duplex) else strand
    rival = next(site for site in assigned if site not in top)

    def plant(tops):
        tops[role] = tops[role][:14] + rival + tops[role][20:]

    found = validate_encoding(_with_tops(plan, plant))
    assert [str(v) for v in found if v.kind in ("stray-site", "junction-site")] == [
        f"[stray-site] {role}: stray site {rival} at 14"
    ]


def test_a_planted_junction_site_is_found_once_on_the_judged_top(ball_plan):
    # the choice | option-1 junction is judged on option-1, its right side
    plan, _ = ball_plan
    rival = plan.sites[role_util("white")].site

    def plant(tops):
        tops["choice"] = tops["choice"][:-3] + rival[:3]
        tops["option:option-1"] = rival[3:] + tops["option:option-1"][3:]

    edited = _with_tops(plan, plant)
    joint = edited.strands["choice"].top[-5:] + edited.strands["option:option-1"][:5]
    found = validate_encoding(edited)
    assert [str(v) for v in found if v.kind in ("stray-site", "junction-site")] == [
        f"[junction-site] option:option-1: site {rival} spans the junction {joint}"
    ]


def test_planted_junction_sites_are_found_on_each_joint_in_joint_order(ball_plan):
    # prob:red's left joints meet option-1, -2 and -3; two of them are
    # planted with AGTACT, while prob:black and prob:white, whose joints
    # meet the same option tops, hold no site and draw no finding
    plan, _ = ball_plan
    rival = plan.sites[role_util("white")].site

    def plant(tops):
        for opt in ("option-1", "option-3"):
            tops[role_option(opt)] = tops[role_option(opt)][:-3] + rival[:3]
        tops[role_prob("red")] = rival[3:] + tops[role_prob("red")][3:]

    found = validate_encoding(_with_tops(plan, plant))
    assert [str(v) for v in found if v.kind in ("stray-site", "junction-site")] == [
        "[junction-site] prob:red: site AGTACT spans the junction AGAGTACTCG",
        "[junction-site] prob:red: site AGTACT spans the junction GAAGTACTCG",
    ]


def test_a_derived_strand_is_judged_by_gc_and_derivation_alone(ball_plan):
    # the linker holds PvuII's CAGCTG, yet a derived strand draws no site finding
    plan, _ = ball_plan
    linker = Strand("AAAAAAAAAACAGCTGAAAA")
    found = validate_encoding(plan._replace(strands={**plan.strands, "link:prob:red": linker}))
    assert [str(v) for v in found] == [
        "[gc-range] link:prob:red: GC fraction 1/5 outside [2/5, 3/5]",
        "[derivation] link:prob:red: not the complement of the probability-to-utility junction",
    ]


def test_an_at_rich_threshold_pad_breaks_gc_on_top_and_bottom(ball_plan):
    plan, _ = ball_plan

    def pad(tops):
        tops[role_thresh("red")] = tops[role_thresh("red")][:10] + "ATATTATAAT"

    found = validate_encoding(_with_tops(plan, pad))
    assert [str(v) for v in found] == [
        "[gc-range] thresh:red: GC fraction 3/10 outside [2/5, 3/5]",
        "[gc-range] thresh:red: GC fraction 0 outside [2/5, 3/5]",
    ]


def test_a_threshold_toehold_copied_from_nowhere_is_its_only_finding(ball_plan):
    # a toehold that is neither a probability front nor an option rear; its
    # windows are then judged as fresh, and these ten bases break no other rule
    plan, _ = ball_plan
    toehold = "TCGCCTGATA"
    fronts = {plan.strands[role_prob(out.label)].top[:10] for out in plan.matrix.outcomes}
    rears = {plan.strands[role_option(opt.label)][10:] for opt in plan.matrix.options}
    assert toehold not in fronts | rears

    def plant(tops):
        tops[role_thresh("red")] = toehold + tops[role_thresh("red")][10:]

    found = validate_encoding(_with_tops(plan, plant))
    assert [str(v) for v in found] == [
        "[derivation] thresh:red: toehold copies neither the option rear nor the probability front"
    ]


@pytest.mark.parametrize("role", ["option:option-1", "link:prob:red"])
def test_duplex_at_a_single_strand_role_is_flagged(ball_plan, role):
    plan, _ = ball_plan
    strand = plan.strands[role]
    duplexed = {**plan.strands, role: Duplex(strand, reverse_complement(strand), 0)}
    findings = validate_encoding(plan._replace(strands=duplexed))
    assert [str(v) for v in findings] == [f"[geometry] {role}: must be a single strand"]


# -- label collisions: distinct labels that would name one strand ---------------

def test_labels_with_colliding_slugs_rejected():
    # "red ball" and "red_ball" would key the same strands
    with pytest.raises(DuplicateLabelError, match="'red ball' and 'red_ball'"):
        compile_problem(build_matrix(
            outcomes=[("red ball", F(1, 2)), ("red_ball", F(1, 2))],
            options=[("x", ["red ball"])],
        ))
    with pytest.raises(DuplicateLabelError, match="option labels 'go  left' and 'go left'"):
        compile_problem(build_matrix(
            outcomes=[("a", F(1))],
            options=[("go  left", ["a"]), ("go left", [])],
        ))
    # the same slug in different namespaces is fine
    compile_problem(build_matrix(outcomes=[("a b", F(1))], options=[("a_b", ["a b"])]))


def test_pairs_with_colliding_role_keys_rejected():
    # "a:b" x "c" and "a" x "b:c" would both key chance:a:b:c
    with pytest.raises(
        DuplicateLabelError,
        match="option 'a:b' with outcome 'c' and option 'a' with outcome 'b:c'",
    ):
        compile_problem(build_matrix(
            outcomes=[("c", F(2, 3)), ("b:c", F(1, 3))],
            options=[("a:b", ["c"]), ("a", ["b:c"])],
        ))
    # a ':' that makes no two keys equal is fine
    compile_problem(build_matrix(outcomes=[("c", F(1))], options=[("a:b", ["c"]), ("a", [])]))


def test_size_is_refused_before_colliding_labels():
    # six outcomes need a core beyond the ladder; that is refused before the collision
    distinct = [(u, F(1, 6)) for u in ["red ball", "c", "d", "e", "f", "g"]]
    with pytest.raises(CompileError, match="ladder range"):
        compile_problem(build_matrix(distinct, [("x", [])]))
    colliding = [*distinct[:5], ("red_ball", F(1, 6))]
    with pytest.raises(CompileError, match="ladder range") as refusal:
        compile_problem(build_matrix(colliding, [("x", [])]))
    assert not isinstance(refusal.value, DuplicateLabelError)
    # too many enzymes is a size refusal too
    fifths = [(u, F(1, 5)) for u in ["red ball", "c", "d", "e", "red_ball"]]
    with pytest.raises(CompileError, match="need 6 distinct enzymes, library provides 5"):
        compile_problem(build_matrix(fifths, [("x", [])]), library=CORE_BLUNT_CUTTERS[:5])
    # within both limits the collision is named
    with pytest.raises(DuplicateLabelError, match="outcome labels 'red ball' and 'red_ball'"):
        compile_problem(build_matrix(fifths, [("x", [])]))


def test_a_matrix_built_without_validation_is_refused_by_compile():
    # build_matrix validates every parsed problem, but a caller may build a
    # DecisionMatrix directly: compile_problem's own validate_matrix is what
    # refuses one whose probabilities do not sum to 1
    fav, unfav = Payoff.FAVORABLE, Payoff.UNFAVORABLE
    m = DecisionMatrix((Outcome("a", F(1, 3)), Outcome("b", F(1, 3))), (Option("x", (fav, unfav)),))
    with pytest.raises(MatrixError) as refusal:
        compile_problem(m)
    assert str(refusal.value) == "outcomes: probabilities sum to 2/3, expected 1"


def test_oversized_problem_is_refused_without_spelling_its_table(monkeypatch):
    def spelled(*labels):
        raise AssertionError("the geometry table was spelled")

    monkeypatch.setattr(compiler, "derivations", spelled)
    six = [(f"o{j}", F(1, 6)) for j in range(6)]
    with pytest.raises(CompileError, match="rank 5 needs a 286 bp core"):
        compile_problem(build_matrix(six, [("x", [])]))


_LABELS = st.text(alphabet="ab _:", min_size=1, max_size=3)
_ONE_LABEL = re.compile(
    r"(option|outcome)s\[(\d+)\]\.label: \1 labels '([^']*)' and '([^']*)' collide: "
    r"both name their strands '([^']*)'"
)
_ONE_PAIR = re.compile(
    r"options\[(\d+)\]\.label and outcomes\[(\d+)\]\.label: "
    r"option '([^']*)' with outcome '([^']*)' and option '([^']*)' with outcome '([^']*)' "
    r"collide: both name their strands '([^']*)'"
)


@st.composite
def _label_soup_problems(draw):
    outcomes = draw(st.lists(_LABELS, min_size=1, max_size=4, unique=True))
    options = draw(st.lists(_LABELS, min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(outcomes), max_size=len(outcomes)))
    favorable = [draw(st.lists(st.sampled_from(outcomes), unique=True)) for _ in options]
    total = sum(weights)
    return [(u, F(w, total)) for u, w in zip(outcomes, weights)], list(zip(options, favorable))


@settings(deadline=None, max_examples=60)
@given(_label_soup_problems())
@example(([("a b", F(1, 2)), ("a_b", F(1, 2))], [("a", ["a b"])]))
@example(([("a", F(1))], [(" a", ["a"]), ("a", [])]))
@example(([("b", F(1, 2)), ("b:b", F(1, 2))], [("a:b", ["b"]), ("a", [])]))
def test_every_strand_key_is_distinct_or_the_labels_are_named(problem):
    outcomes, options = problem
    matrix = build_matrix(outcomes, options)  # distinct labels always make a matrix
    try:
        plan, _ = compile_problem(matrix, library=EXTENDED_BLUNT_CUTTERS)
    except DuplicateLabelError as exc:
        one = _ONE_LABEL.fullmatch(str(exc))
        if one:
            family, index, first, second, key = one.groups()
            assert first != second and _slug(first) == _slug(second)
            family_labels = [lbl for lbl, _ in (outcomes if family == "outcome" else options)]
            assert first in family_labels and family_labels[int(index)] == second
            assert key.endswith(":" + _slug(first))
        else:
            i, j, o1, u1, o2, u2, key = _ONE_PAIR.fullmatch(str(exc)).groups()
            assert (o1, u1) != (o2, u2) and role_chance(o1, u1) == role_chance(o2, u2) == key
            assert (options[int(i)][0], outcomes[int(j)][0]) == (o2, u2)
        return
    n, m = len(options), len(outcomes)
    assert len(plan.strands) == 4 + 2 * n + 5 * m + n * m
    assert len({construct_key(o, u) for o, _ in options for u, _ in outcomes}) == n * m


# -- names spelled once per label set: the caches cannot change an answer ------

_CACHED = ("_derivations", "role_option", "role_chance", "role_prob", "role_util",
           "role_thresh", "construct_roles", "construct_key")


def test_colliding_labels_are_refused_on_every_call():
    # a refusal is raised, never cached, so a repeated call is refused again
    for _ in range(2):
        with pytest.raises(DuplicateLabelError, match="'a b' and 'a_b'"):
            derivations(["x"], ["a b", "a_b"])
        with pytest.raises(DuplicateLabelError, match="'a b' and 'a_b'"):
            compile_problem(build_matrix([("a b", F(1, 2)), ("a_b", F(1, 2))], [("x", ["a b"])]))


def test_the_shared_geometry_table_is_read_only():
    table = derivations(["option-1"], ["red"])
    assert derivations(("option-1",), ("red",)) is table
    with pytest.raises(TypeError):
        table["chance:option-1:red"] = table["choice"]
    with pytest.raises(TypeError):
        del table["choice"]
    assert table["chance:option-1:red"].offset is None


def _design_outputs(matrix):
    """FASTA, plan and protocol text, and the findings on the plan and on
    the plan with a stray site planted on one option top."""
    plan, protocol = compile_problem(matrix, seed=7, library=EXTENDED_BLUNT_CUTTERS)
    rival = plan.sites[role_util(matrix.outcomes[-1].label)].site

    def plant(tops):
        role = role_option(matrix.options[0].label)
        tops[role] = tops[role][:14] + rival + tops[role][20:]

    findings = [str(v) for p in (plan, _with_tops(plan, plant)) for v in validate_encoding(p)]
    return plan.to_fasta(), plan.describe() + protocol.describe(), findings


def test_cached_names_cannot_change_an_answer():
    # the verify trial stream's 16 label sets, 2x2 to 5x5: P, the other 15,
    # then P again, and P once more after every cache is emptied
    def problem(n_opt, n_out):
        outcomes = [(f"outcome-{j + 1}", F(1, n_out)) for j in range(n_out)]
        options = [(f"option-{i + 1}", [f"outcome-{1 + i % n_out}"]) for i in range(n_opt)]
        return build_matrix(outcomes, options)

    first = _design_outputs(problem(3, 4))
    assert first[2], "the planted site draws a finding"
    for size in [(o, u) for o in range(2, 6) for u in range(2, 6) if (o, u) != (3, 4)]:
        _design_outputs(problem(*size))
    assert _design_outputs(problem(3, 4)) == first
    for name in _CACHED:
        getattr(compiler, name).cache_clear()
    assert _design_outputs(problem(3, 4)) == first
