"""Value semantics of the record types.

Every record type is a `typing.NamedTuple`: its fields cannot be set, and
equality and hashing are those of the tuple of its fields. The site scan
(`strands.site_hits`) keys its hits by site string, not by a
`RecognitionSite`, so no hit lookup leans on a record's hash. A `Strand` is no
record: it is a `str` that checks its alphabet. That the validating types
still refuse bad values on construction is pinned where each type is tested
(`test_non_acgt_rejected`, `test_mismatch_rejected`,
`test_invalid_sites_rejected`).
"""

import pytest
from conftest import make_ball_game

from dnadecide import compiler, gel, soundness, wetlab
from dnadecide.strands import Duplex, RecognitionSite, Strand, StrandError


def _run():
    matrix = make_ball_game()
    plan, protocol = compiler.compile_problem(matrix, seed=0)
    tubes = wetlab.run_protocol(plan, protocol)
    run = gel.run_gel(tubes)
    return plan, protocol, tubes[0], run, gel.readout(run, plan)


# class name -> a factory that builds the same value afresh on every call
EXAMPLES = {
    "Strand": lambda: Strand("ACGTTG"),
    "Duplex": lambda: Duplex(Strand("GGACGT"), Strand("ACGT"), 2),
    "RecognitionSite": lambda: RecognitionSite("PvuII", "CAGCTG"),
    "Outcome": lambda: make_ball_game().outcomes[0],
    "Option": lambda: make_ball_game().options[0],
    "DecisionMatrix": make_ball_game,
    # built directly: `derivations` shares one cached table per label set
    "Derivation": lambda: compiler.Derivation(
        (("option:a", 10, None), ("prob:b", 0, 10)), "complement of a junction"
    ),
    "EncodingViolation": lambda: compiler.EncodingViolation("gc-range", ("x",), "low"),
    "Top": lambda: compiler.Top("util:x", 20, "CACGTG", ("ACGT",), ("TTGA",), None, (10,)),
    "EncodingPlan": lambda: _run()[0],
    "ProtocolPlan": lambda: _run()[1],
    "Species": lambda: next(iter(_run()[2].species.values())),
    "TubeState": lambda: _run()[2],
    "Band": lambda: _run()[3].lanes[0].bands[0],
    "Lane": lambda: _run()[3].lanes[0],
    "GelRun": lambda: _run()[3],
    "DecisionReport": lambda: _run()[4],
    "SoundnessResult": lambda: soundness.SoundnessResult(
        2, 0.5, ((1, "{}", "chose (0,), oracle says (1,)"),)
    ),
}

# these hold a dict, so they have no hash
UNHASHABLE = {"EncodingPlan", "ProtocolPlan", "TubeState"}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_fields_and_new_attributes_cannot_be_set(name):
    value = EXAMPLES[name]()
    assert type(value).__name__ == name
    if name != "Strand":  # a Strand is a str: its sequence is its only content
        field = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.note = "extra"


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_equal_fields_give_equal_values_and_hashes(name):
    a, b = EXAMPLES[name](), EXAMPLES[name]()
    assert a is not b and a == b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_hash_is_the_hash_of_the_field_tuple():
    # set order, and so any output built from iterating a set of these
    # values, depends on this hash
    site = RecognitionSite("PvuII", "CAGCTG")
    assert hash(site) == hash(("PvuII", "CAGCTG"))
    species = wetlab.Species(Strand("ACGT"), 3)
    assert hash(species) == hash(("ACGT", 3, wetlab.ACTIVE))
    assert species != species._replace(count=2)


def test_replace_keeps_the_type_and_the_other_fields():
    plan, _, tube, _, _ = _run()
    species = next(iter(tube.species.values()))
    doubled = species._replace(count=2 * species.count)
    assert type(doubled) is wetlab.Species
    assert doubled[:1] + doubled[2:] == species[:1] + species[2:]
    emptied = tube._replace(species={})
    assert type(emptied) is wetlab.TubeState and emptied.plan is plan and not emptied.species


def test_no_mutable_default_is_shared():
    assert soundness.SoundnessResult(0, 0.0).failures == ()


def test_strand_length_is_its_sequence_length():
    assert len(Strand("ACGTACGTAC")) == 10


def test_strand_is_its_sequence():
    strand = Strand("ACGTTG")
    assert isinstance(strand, str) and strand == "ACGTTG" and hash(strand) == hash("ACGTTG")
    assert str(strand) == f"{strand}" == "ACGTTG"
    with pytest.raises(StrandError):
        Strand("ACGN")
    with pytest.raises(StrandError):
        Strand("")


def test_plan_describe_methods_live_on_their_own_classes():
    # the benchmark's tracer wraps them by name in each class's namespace
    assert "describe" in vars(compiler.EncodingPlan)
    assert "describe" in vars(compiler.ProtocolPlan)
