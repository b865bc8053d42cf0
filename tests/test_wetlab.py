import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from dnadecide.compiler import (
    ProtocolPlan,
    compile_problem,
    construct_roles,
    derivations,
    role_chance,
    role_thresh,
)
from dnadecide.decision import Payoff, best_options, build_matrix
from dnadecide.gel import band_table, readout, render, run_gel
from dnadecide.soundness import random_matrix
from dnadecide.strands import (
    CORE_BLUNT_CUTTERS,
    EXTENDED_BLUNT_CUTTERS,
    Duplex,
    Strand,
    reverse_complement,
)
from dnadecide.wetlab import (
    MAX_PCR_CYCLES,
    WASTE,
    CycleCountError,
    DigestTable,
    DoseError,
    Species,
    UnknownEnzymeError,
    _ratio,
    apply_thresholds,
    assemble,
    construct_key,
    digest,
    mix,
    pcr,
    purify,
    run_protocol,
    split_tubes,
)
from conftest import concentration, make_ball_game, make_five_by_five, make_widest

F = Fraction


@pytest.fixture(scope="module")
def ball_setup():
    matrix = make_ball_game()
    plan, protocol = compile_problem(matrix, seed=0)
    return matrix, plan, protocol


def test_mix_doses(ball_setup):
    _, plan, _ = ball_setup
    pool = mix(plan)
    assert concentration(pool, "choice") == 1
    assert concentration(pool, "chance:option-2:white") == 1
    assert concentration(pool, "thresh:red") == F(5, 9)
    assert concentration(pool, "thresh:black") == F(2, 3)
    assert concentration(pool, "thresh:white") == F(7, 9)
    assert "primer:left" not in pool.species
    assert len(pool.species) == 32


def test_mix_rejects_a_dose_of_part_units(ball_setup):
    # 1/7 is no whole number of the ball game's 1/9 units: mix names the
    # species instead of rounding its count
    _, plan, _ = ball_setup
    ratios = dict(plan.threshold_ratios, black=F(1, 7))
    with pytest.raises(DoseError, match="thresh:black: dose 1/7"):
        mix(plan._replace(threshold_ratios=ratios))


def _every_stage(plan, cycles):
    """The pool after each pooled step, each tube split, digested, amplified
    and purified by the single steps, then `run_protocol`'s tubes."""
    states = [mix(plan)]
    states.append(apply_thresholds(states[-1]))
    states.append(assemble(states[-1]))
    for tube, enzymes in zip(split_tubes(states[-1]), plan.tube_enzymes):
        cut = digest(tube, enzymes)
        grown = pcr(cut, cycles)
        states += [tube, cut, grown, purify(grown)]
    return states + run_protocol(plan, ProtocolPlan(plan, cycles))


def test_every_count_is_an_int():
    # a Fraction that slipped into a count would still compare equal to the
    # int it should be, so the type is checked
    problems = [
        (make_ball_game(), CORE_BLUNT_CUTTERS),
        (make_widest(random.Random("wide:0")), EXTENDED_BLUNT_CUTTERS),
    ]
    for matrix, library in problems:
        plan, protocol = compile_problem(matrix, seed=0, library=library)
        for state in _every_stage(plan, protocol.pcr_cycles):
            assert all(type(sp.count) is int for sp in state.species.values()), state.log[-1]


def test_trusted_duplexes_equal_checked_rebuilds():
    # assemble and cut build constructs and fragments without the public
    # constructors' checks; each must come out of Strand and Duplex, checks
    # and all, as the same value, and a duplex's fragments must tile it
    problems = [
        (make_ball_game(), CORE_BLUNT_CUTTERS),
        (make_ball_game(), EXTENDED_BLUNT_CUTTERS),
    ]
    rng = random.Random(12)
    problems += [(random_matrix(rng), EXTENDED_BLUNT_CUTTERS) for _ in range(50)]
    checked = 0
    for seed, (matrix, library) in enumerate(problems):
        plan, protocol = compile_problem(matrix, seed=seed, library=library)
        states = _every_stage(plan, protocol.pcr_cycles)
        for before, state in zip(states, states[1:]):
            record = state.log[-1]
            if record["op"] not in ("assemble", "digest", "purify"):
                continue
            for key, lengths in record.get("fragments", {}).items():
                frags = (f"fragment:{key}:{i}" for i in range(len(lengths)))
                pieces = [state.species[frag].structure for frag in frags]
                parent = before.species[key].structure
                assert "".join(p.top for p in pieces) == parent.top, key
                assert "".join(p.bottom for p in pieces[::-1]) == parent.bottom, key
            for key, sp in state.species.items():
                if not sp.is_duplex:
                    continue
                d = sp.structure
                rebuilt = Duplex(Strand(d.top), Strand(d.bottom), d.offset)
                assert rebuilt == d and (type(d), type(d.top), type(d.bottom)) == (
                    Duplex, Strand, Strand
                ), key
                if key.startswith("construct:"):
                    assert d.offset == 0 and d.bottom == reverse_complement(d.top), key
                checked += 1
    assert checked > 10_000


def test_thresholds_displace_chance_strands(ball_setup):
    _, plan, _ = ball_setup
    tube = apply_thresholds(mix(plan))
    for opt in plan.matrix.options:
        assert concentration(tube, role_chance(opt.label, "red")) == F(4, 9)
        assert concentration(tube, role_chance(opt.label, "black")) == F(1, 3)
        assert concentration(tube, role_chance(opt.label, "white")) == F(2, 9)
    assert concentration(tube, "waste:chance:option-1:red") == F(5, 9)
    assert concentration(tube, "thresh:red") == 0


def test_threshold_conservation_per_chance_species(ball_setup):
    _, plan, _ = ball_setup
    before = mix(plan)
    after = apply_thresholds(before)
    for opt in plan.matrix.options:
        for out in plan.matrix.outcomes:
            key = role_chance(opt.label, out.label)
            waste = concentration(after, f"waste:{key}")
            assert concentration(after, key) + waste == concentration(before, key)


def test_one_waste_species_per_consumed_chance_species():
    # with ':' and '+' in the labels, threshold and chance keys joined by
    # '+' collide although every chance key is distinct
    m = build_matrix(
        outcomes=[("x", F(1, 2)), ("x+chance:y:x", F(1, 2))],
        options=[("y:x+chance:z:x+chance:y", ["x"]), ("z", ["x+chance:y:x"])],
    )
    plan, _ = compile_problem(m, seed=0)
    before = mix(plan)
    after = apply_thresholds(before)
    chance = [role_chance(o.label, u.label) for o in m.options for u in m.outcomes]
    consumed = [k for k in chance if concentration(after, k) < concentration(before, k)]
    assert len(set(chance)) == len(consumed) == 4
    waste = {k for k, sp in after.species.items() if sp.status == WASTE}
    assert waste == {f"waste:{k}" for k in consumed}
    for key in chance:
        total = concentration(after, key) + concentration(after, f"waste:{key}")
        assert total == concentration(before, key)


def test_assemble_yields_probability_weighted_constructs(ball_setup):
    _, plan, _ = ball_setup
    tube = assemble(apply_thresholds(mix(plan)))
    expected = {"red": F(4, 9), "black": F(1, 3), "white": F(2, 9)}
    for opt in plan.matrix.options:
        for out in plan.matrix.outcomes:
            assert concentration(tube, construct_key(opt.label, out.label)) == expected[out.label]


@pytest.mark.parametrize(
    "make", [make_ball_game, lambda: make_widest(random.Random(7))], ids=["ball", "widest"]
)
def test_mix_pools_every_role_of_every_path(make):
    # assemble reads each path's nine roles straight from the pool
    matrix = make()
    plan, _ = compile_problem(matrix, seed=0, library=EXTENDED_BLUNT_CUTTERS)
    pool = mix(plan).species
    table = derivations([o.label for o in matrix.options], [o.label for o in matrix.outcomes])
    for opt in matrix.options:
        for out in matrix.outcomes:
            roles = construct_roles(opt.label, out.label)
            assert set(roles) <= set(pool)
            assert all(table[role].offset is None for role in roles[1::2])


def test_assemble_refuses_a_pool_missing_a_path_role(ball_setup):
    # a missing role is an error, never a count of 0 that yields empty constructs
    _, plan, _ = ball_setup
    tube = apply_thresholds(mix(plan))
    species = dict(tube.species)
    del species["link:prob:red"]
    with pytest.raises(KeyError, match="link:prob:red"):
        assemble(tube._replace(species=species))


def test_split_gives_one_tube_per_option(ball_setup):
    _, plan, _ = ball_setup
    pool = assemble(apply_thresholds(mix(plan)))
    tubes = split_tubes(pool)
    assert [t.label for t in tubes] == ["tube-1", "tube-2", "tube-3"]
    for t in tubes:
        assert concentration(t, construct_key("option-1", "red")) == F(4, 9)


def tube_states(plan, protocol, cycles=5):
    pool = assemble(apply_thresholds(mix(plan)))
    return split_tubes(pool), protocol


def test_digest_leaves_only_favorable_constructs(ball_setup):
    _, plan, protocol = ball_setup
    tubes, _ = tube_states(plan, protocol)
    survivors_by_tube = []
    for tube, enzymes in zip(tubes, plan.tube_enzymes):
        digested = digest(tube, enzymes)
        survivors = {
            k for k in digested.species if k.startswith("construct:")
        }
        survivors_by_tube.append(survivors)
    assert survivors_by_tube[0] == {
        construct_key("option-1", "red"),
        construct_key("option-1", "black"),
    }
    assert survivors_by_tube[1] == {
        construct_key("option-2", "red"),
        construct_key("option-2", "white"),
    }
    assert survivors_by_tube[2] == {
        construct_key("option-3", "black"),
        construct_key("option-3", "white"),
    }


def test_digest_fragment_lengths_conserve_parent(ball_setup):
    _, plan, protocol = ball_setup
    tubes, _ = tube_states(plan, protocol)
    digested = digest(tubes[0], plan.tube_enzymes[0])
    cut_record = digested.log[-1]["fragments"]
    assert cut_record  # seven of the nine constructs were cut
    for parent_key, lengths in cut_record.items():
        if parent_key.startswith("construct:"):
            out_label = parent_key.split(":")[-1]
            assert sum(lengths) == plan.construct_length(out_label)
    # fragment concentration equals parent concentration
    frag = next(k for k in digested.species if k.startswith("fragment:construct:"))
    parent = frag[len("fragment:") :].rsplit(":", 1)[0]
    out_label = parent.split(":")[-1]
    assert concentration(digested, frag) == concentration(tubes[0], parent)


def test_digest_unknown_enzyme(ball_setup):
    _, plan, protocol = ball_setup
    tubes, _ = tube_states(plan, protocol)
    with pytest.raises(UnknownEnzymeError):
        digest(tubes[0], ["BamHI"])


def test_pcr_doubles_per_cycle(ball_setup):
    _, plan, protocol = ball_setup
    tubes, _ = tube_states(plan, protocol)
    digested = digest(tubes[0], plan.tube_enzymes[0])
    amplified = pcr(digested, 5)
    assert concentration(amplified, construct_key("option-1", "red")) == F(128, 9)
    assert concentration(amplified, construct_key("option-1", "black")) == F(96, 9)
    # fragments carry no primer ends, so they are untouched
    for key, sp in amplified.species.items():
        if key.startswith("fragment:"):
            assert not sp.amplified
            assert sp.count == digested.species[key].count


def test_pcr_zero_cycles_still_marks_amplifiable(ball_setup):
    _, plan, protocol = ball_setup
    tubes, _ = tube_states(plan, protocol)
    digested = digest(tubes[0], plan.tube_enzymes[0])
    amplified = pcr(digested, 0)
    key = construct_key("option-1", "red")
    assert amplified.species[key].amplified and concentration(amplified, key) == F(4, 9)


def test_pcr_negative_cycles_rejected(ball_setup):
    _, plan, protocol = ball_setup
    tubes, _ = tube_states(plan, protocol)
    with pytest.raises(CycleCountError):
        pcr(tubes[0], -1)


def test_pcr_cycle_ceiling(ball_setup):
    _, plan, protocol = ball_setup
    tubes, _ = tube_states(plan, protocol)
    digested = digest(tubes[0], plan.tube_enzymes[0])
    top = pcr(digested, MAX_PCR_CYCLES)
    assert top.pcr_cycles == MAX_PCR_CYCLES
    with pytest.raises(CycleCountError, match=f"at most {MAX_PCR_CYCLES}"):
        pcr(digested, MAX_PCR_CYCLES + 1)


def test_pcr_with_foreign_primers_amplifies_nothing(ball_setup):
    _, plan, protocol = ball_setup
    tubes, _ = tube_states(plan, protocol)
    digested = digest(tubes[0], plan.tube_enzymes[0])
    foreign = {"primer:left": Strand("ACGTACGTAC"), "primer:right": Strand("TGCATGCATG")}
    amplified = pcr(digested._replace(plan=plan._replace(strands=plan.strands | foreign)), 5)
    assert all(not sp.amplified for sp in amplified.species.values())


def test_digest_and_pcr_judge_any_duplex_geometry(ball_setup):
    # the run's constructs are blunt and read primer-first; the same molecule
    # read from its other strand is amplified too, and an overhanging duplex
    # is cut into fragments whose recorded lengths are their spans
    _, plan, protocol = ball_setup
    tubes, _ = tube_states(plan, protocol)
    tube, enzymes = tubes[0], plan.tube_enzymes[0]
    cut_key = next(iter(digest(tube, enzymes).log[-1]["fragments"]))
    d = tube.species[construct_key("option-1", "red")].structure
    c = tube.species[cut_key].structure
    added = {
        "flipped": Species(Duplex(d.bottom, d.top, 0), 9),
        "overhung": Species(Duplex(c.top, reverse_complement("GA" + c.top[:-4]), -2), 9),
    }
    digested = digest(tube._replace(species=tube.species | added), enzymes)
    assert pcr(digested, 1).species["flipped"].amplified
    lengths = digested.log[-1]["fragments"]["overhung"]
    frags = [digested.species[f"fragment:overhung:{i}"] for i in range(len(lengths))]
    assert lengths == [sp.length for sp in frags] and len(lengths) > 1
    assert sum(lengths) == added["overhung"].length == len(c.top) + 2


def test_purify_keeps_amplified_only_and_is_idempotent(ball_setup):
    _, plan, protocol = ball_setup
    tubes, _ = tube_states(plan, protocol)
    done = purify(pcr(digest(tubes[0], plan.tube_enzymes[0]), 5))
    assert set(done.species) == {
        construct_key("option-1", "red"),
        construct_key("option-1", "black"),
    }
    again = purify(done)
    assert again.species == done.species


def test_run_protocol_reproduces_band_concentrations(ball_setup):
    _, plan, protocol = ball_setup
    tubes = run_protocol(plan, protocol, cycles=5)
    final = [
        sorted((sp.length, concentration(t, key)) for key, sp in t.species.items())
        for t in tubes
    ]
    assert final == [
        [(147, F(128, 9)), (156, F(96, 9))],
        [(147, F(128, 9)), (174, F(64, 9))],
        [(156, F(96, 9)), (174, F(64, 9))],
    ]
    totals = [sum(c for _, c in lane) for lane in final]
    assert totals == [F(224, 9), F(192, 9), F(160, 9)]
    # per-tube totals stand in the same proportion as the expected utilities
    assert [t / totals[0] for t in totals] == [F(1), F(6, 7), F(5, 7)]


def test_single_option_certain_outcome():
    m = build_matrix(outcomes=[("only", F(1))], options=[("go", ["only"])])
    plan, protocol = compile_problem(m, seed=1)
    tubes = run_protocol(plan, protocol)
    assert len(tubes) == 1
    ((key, sp),) = tubes[0].species.items()
    assert sp.length == 147
    assert concentration(tubes[0], key) == 32


def test_audit_log_is_deterministic(ball_setup):
    _, plan, protocol = ball_setup
    a = run_protocol(plan, protocol)
    b = run_protocol(plan, protocol)
    for ta, tb in zip(a, b):
        assert ta.log == tb.log
    ops = [r["op"] for r in a[0].log]
    assert ops == ["mix", "thresholds", "assemble", "split", "digest", "pcr", "purify"]


def test_random_matrices_survivors_match_favorability():
    rng = random.Random(42)
    for trial in range(15):
        n_out = rng.randint(2, 4)
        n_opt = rng.randint(2, 4)
        weights = [rng.randint(1, 9) for _ in range(n_out)]
        total = sum(weights)
        outcomes = [(f"o{j}", F(weights[j], total)) for j in range(n_out)]
        options = []
        for i in range(n_opt):
            fav = [f"o{j}" for j in range(n_out) if rng.random() < 0.5]
            options.append((f"a{i}", fav))
        m = build_matrix(outcomes, options)
        plan, protocol = compile_problem(m, seed=trial, library=EXTENDED_BLUNT_CUTTERS)
        tubes = run_protocol(plan, protocol, cycles=3)
        for tube, opt in zip(tubes, m.options):
            want = {
                construct_key(opt.label, out.label): out.probability * 8
                for out, pay in zip(m.outcomes, opt.payoffs)
                if pay is Payoff.FAVORABLE and out.probability > 0
            }
            have = {k: concentration(tube, k) for k in tube.species}
            assert have == want, f"trial {trial}, {opt.label}"


def _single_steps(plan, cycles):
    """Each option tube of `plan` through digest, pcr and purify, one step
    at a time and with nothing shared between tubes."""
    pool = assemble(apply_thresholds(mix(plan)))
    return [purify(pcr(digest(t, e), cycles)) for t, e in zip(split_tubes(pool), plan.tube_enzymes)]


def _assert_run_equals_single_steps(plan, protocol, cycles):
    """`run_protocol`'s tubes equal the single steps' (species in order,
    log and cycle count), and every audit record owns its lists."""
    got, want = run_protocol(plan, protocol, cycles), _single_steps(plan, cycles)
    assert len(got) == len(want) == len(plan.matrix.options)
    for a, b in zip(got, want):
        assert list(a.species.items()) == list(b.species.items())
        assert (a.label, a.log, a.pcr_cycles) == (b.label, b.log, b.pcr_cycles)
    lists = []
    for tube in got:
        cut, grown = tube.log[-3:-1]
        lists += [cut["enzymes"], *cut["fragments"].values(), grown["amplified"]]
    # even where tubes share a duplex's fragments
    assert len({id(lst) for lst in lists}) == len(lists)
    return got


@pytest.mark.parametrize("draw", range(6))
def test_shared_digest_table_equals_fresh_digests(draw):
    # run_protocol's tubes share one DigestTable and run digest, pcr and
    # purify as one pass over it; the single steps on each tube, with
    # nothing shared, must give the same species in the same order and the
    # same log
    rng = random.Random("wide:9973" if draw == 5 else 2024 + draw)
    m = random_matrix(rng) if draw < 4 else make_widest(rng)
    plan, protocol = compile_problem(m, seed=draw, library=EXTENDED_BLUNT_CUTTERS)
    got = _assert_run_equals_single_steps(plan, protocol, protocol.pcr_cycles)
    if draw >= 4:
        assert readout(run_gel(got), plan, m).chosen == tuple(best_options(m))


@pytest.mark.parametrize(
    "make, library",
    [
        (make_ball_game, CORE_BLUNT_CUTTERS),
        (make_five_by_five, EXTENDED_BLUNT_CUTTERS),
        (lambda: make_widest(random.Random("wide:0")), EXTENDED_BLUNT_CUTTERS),
    ],
    ids=["core", "extended-5x5", "extended-13x5"],
)
def test_purify_keeps_exactly_what_pcr_amplified(make, library):
    # purify's record names nothing: what it keeps is pcr's amplified list,
    # and all else in the tube washed out
    plan, protocol = compile_problem(make(), seed=0, library=library)
    tubes = run_protocol(plan, protocol) + _single_steps(plan, protocol.pcr_cycles)
    assert len(tubes) == 2 * len(plan.matrix.options)
    for tube in tubes:
        assert tube.log[-1] == {"op": "purify"}
        assert sorted(tube.species) == tube.log[-2]["amplified"]


def test_digest_table_misses_on_changed_species(ball_setup):
    # the same plan's strands at other threshold doses: the pools share
    # every structure, site and cut but not their counts, and each run must
    # match the single steps on its own pool
    _, plan, protocol = ball_setup
    changed = plan._replace(threshold_ratios={"red": F(1, 3), "black": F(4, 9), "white": F(1, 9)})
    key = construct_key("option-1", "red")
    for p, survivor in ((plan, F(4, 9) * 32), (changed, F(2, 3) * 32)):
        tubes = _assert_run_equals_single_steps(p, protocol._replace(plan=p), 5)
        assert concentration(tubes[0], key) == survivor


def test_digest_table_rejects_another_plan(ball_setup):
    _, plan, protocol = ball_setup
    other, other_protocol = compile_problem(make_ball_game(), seed=1)
    table = DigestTable(assemble(apply_thresholds(mix(plan))))
    # primers join at pcr, not in the pool: another right primer leaves the
    # pool's species equal, but not what the pass would amplify
    primed = plan._replace(strands=plan.strands | {"primer:right": plan.strands["primer:left"]})
    for p in (other, primed):
        foreign = split_tubes(assemble(apply_thresholds(mix(p))))[0]
        with pytest.raises(ValueError, match="another plan"):
            table.purified(foreign, plan.tube_enzymes[0], 5)
    for p, proto in ((plan, protocol), (other, other_protocol)):
        _assert_run_equals_single_steps(p, proto, 5)


def test_digest_table_rejects_a_tube_with_other_species(ball_setup):
    # the pass reads the pool's fates, not the tube's species: a tube of the
    # same plan with option-1/red doubled would come back developed as the
    # pool (128/9) where the single steps keep 256/9
    _, plan, _ = ball_setup
    pool = assemble(apply_thresholds(mix(plan)))
    tube, key = split_tubes(pool)[0], construct_key("option-1", "red")
    species = dict(tube.species)
    species[key] = species[key]._replace(count=2 * species[key].count)
    doubled = tube._replace(species=species)
    assert concentration(purify(pcr(digest(doubled, plan.tube_enzymes[0]), 5)), key) == F(256, 9)
    with pytest.raises(ValueError, match="other species"):
        DigestTable(pool).purified(doubled, plan.tube_enzymes[0], 5)


def test_digest_table_accepts_an_equal_copy_of_the_pool_species(ball_setup):
    _, plan, _ = ball_setup
    pool = assemble(apply_thresholds(mix(plan)))
    table, tube = DigestTable(pool), split_tubes(pool)[0]
    assert tube.species is pool.species  # aliquots share the pool's mapping
    copied = tube._replace(species=dict(tube.species))
    got = table.purified(copied, plan.tube_enzymes[0], 5)
    want = purify(pcr(digest(tube, plan.tube_enzymes[0]), 5))
    assert list(got.species.items()) == list(want.species.items())
    assert got.log == want.log


def test_run_protocol_keeps_primed_fragments_as_the_single_steps_do(ball_setup):
    # a right primer on the first 10 bases of option-1's top flanks fragment
    # 0 of every option-1 construct, so the rival tubes, which cut at
    # option-1's site, keep fragments through purify
    _, plan, protocol = ball_setup
    primer = Strand(plan.strands["option:option-1"][:10])
    primed = plan._replace(strands=plan.strands | {"primer:right": primer})
    tubes = _assert_run_equals_single_steps(primed, protocol._replace(plan=primed), 5)
    kept = [[k for k in t.species if k.startswith("fragment:")] for t in tubes]
    assert [len(k) for k in kept[1:]] == [3, 3]
    assert all(k.endswith(":0") and ":option-1:" in k for k in kept[1] + kept[2])
    assert all(t.species[k].amplified for t, ks in zip(tubes, kept) for k in ks)


def test_run_protocol_rejects_another_plan(ball_setup):
    # the ball game's plan with the 5x5's protocol: three tubes would be run
    # at the other protocol's cycle count and read as agreeing
    _, plan, _ = ball_setup
    _, other = compile_problem(make_five_by_five(), library=EXTENDED_BLUNT_CUTTERS, pcr_cycles=2)
    with pytest.raises(ValueError, match="another plan"):
        run_protocol(plan, other)


def _run_text(matrix, seed, library) -> str:
    plan, protocol = compile_problem(matrix, seed=seed, library=library)
    tubes = run_protocol(plan, protocol)
    gel = run_gel(tubes)
    logs = [json.dumps(list(t.log), default=str, sort_keys=True) for t in tubes]
    report = readout(gel, plan, matrix).describe()
    return "".join(logs) + band_table(gel) + render(gel, "svg") + render(gel, "text") + report


# sha256 of every tube's audit log, the band table, the SVG, the text gel and
# the readout, over the given compile seeds; a construct assembled in another
# order or from other roles moves the log and the bands. The 13x5 draws (one
# per seed) run 13 tubes with all 18 extended enzymes.
@pytest.mark.parametrize(
    "make, library, seeds, sha",
    [
        (lambda seed: make_ball_game(), CORE_BLUNT_CUTTERS, range(10),
         "35c23bee6986943f7ad7f386c2c2a0bb24794eec0b888633f4149b853a3b7f94"),
        (lambda seed: make_five_by_five(), EXTENDED_BLUNT_CUTTERS, range(10),
         "32bf7cebe40c036542d6015d08bb8685fd8cb6d1ad11bf318af1a5e1ef3a65ce"),
        (lambda seed: make_widest(random.Random(seed)), EXTENDED_BLUNT_CUTTERS, range(4),
         "8f33c5d8d63454dfb52699d0ece9d87ab6bdeca9b8d5680221d6521f7495e102"),
    ],
    ids=["core", "extended-5x5", "extended-13x5"],
)
def test_run_outputs_are_byte_identical_to_reference(make, library, seeds, sha):
    text = "".join(_run_text(make(seed), seed, library) for seed in seeds)
    assert hashlib.sha256(text.encode()).hexdigest() == sha


def test_audit_ratio_text_equals_the_fraction_text():
    for d in range(1, 61):
        for n in range(241):
            assert _ratio(n, d) == str(Fraction(n, d)), (n, d)


@pytest.mark.parametrize(
    "make, library, cycles",
    [(make_ball_game, CORE_BLUNT_CUTTERS, 5), (make_five_by_five, EXTENDED_BLUNT_CUTTERS, 3)],
    ids=["core", "extended-5x5"],
)
def test_simulator_runs_the_printed_protocol(make, library, cycles):
    plan, protocol = compile_problem(make(), seed=0, library=library, pcr_cycles=cycles)
    tubes = run_protocol(plan, protocol)
    text = protocol.describe()
    doses = re.search(r"^2\. add threshold duplexes at ratios (.*) and let ", text, re.M)[1]
    printed_doses = [pair.rsplit("=", 1) for pair in doses.split(", ")]
    digests = re.findall(r"^   (\S+): digest with (.*) at 37 C$", text, re.M)
    amplify = re.search(r"^5\. amplify (\d+) PCR cycles with primers (\w+) and (\w+)$", text, re.M)
    assert [amplify[2], amplify[3]] == list(plan.primers)
    assert len(digests) == len(tubes) == len(plan.matrix.options)
    for (label, enzymes), tube in zip(digests, tubes):
        records = {record["op"]: record for record in tube.log}
        assert list(records["mix"]["thresholds"].items()) == [
            (role_thresh(outcome), dose) for outcome, dose in printed_doses
        ]
        assert label == records["split"]["tube"] == tube.label
        assert enzymes.split(", ") == records["digest"]["enzymes"]
        assert int(amplify[1]) == records["pcr"]["cycles"] == cycles
