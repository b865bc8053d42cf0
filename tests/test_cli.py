"""CLI behaviour: exit codes, outputs, and error reporting."""

import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_ball_game

import dnadecide
from dnadecide.cli import main
from dnadecide.compiler import CompileError, EncodingViolation, compile_problem
from dnadecide.decision import DuplicateLabelError, InputError, MatrixError, build_matrix
from dnadecide.formats import (
    ProblemFormatError,
    dump_problem,
    load_problem,
    parse_problem,
)
from dnadecide.gel import GelError, readout, run_gel
from dnadecide.strands import CORE_BLUNT_CUTTERS, EXTENDED_BLUNT_CUTTERS, StrandError
from dnadecide.wetlab import ProtocolError, run_protocol


# -- problem files ------------------------------------------------------------


# any label the parser accepts: non-empty, of any characters but lone surrogates
_LABELS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)


@st.composite
def _problems(draw):
    """A matrix from the whole space the parser accepts: zero weights, empty
    favorable lists, one option or one outcome, and affine utilities (negative
    or equal ones too)."""
    outcomes = draw(st.lists(_LABELS, min_size=1, max_size=4, unique=True))
    options = draw(st.lists(_LABELS, min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(0, 5), min_size=len(outcomes), max_size=len(outcomes)))
    weights[draw(st.sampled_from(range(len(outcomes))))] += 1  # the weights sum above 0
    favorable = [draw(st.lists(st.sampled_from(outcomes), unique=True)) for _ in options]
    lo, hi = sorted(draw(st.fractions(-9, 9, max_denominator=12)) for _ in range(2))
    total = sum(weights)
    return build_matrix([(u, Fraction(w, total)) for u, w in zip(outcomes, weights)],
                        list(zip(options, favorable)), u_favorable=hi, u_unfavorable=lo)


@given(_problems())
@example(make_ball_game())
def test_bundled_problem_round_trips(matrix):
    assert parse_problem(dump_problem(matrix)) == matrix


@settings(deadline=None, max_examples=100)
@given(_problems(), st.sampled_from([CORE_BLUNT_CUTTERS, EXTENDED_BLUNT_CUTTERS]))
def test_every_parsed_problem_is_refused_or_agrees(matrix, library):
    # the whole space the parser accepts, end to end on either library: a
    # problem is refused by name or its readout matches the exact oracle
    try:
        plan, protocol = compile_problem(matrix, seed=0, library=library)
    except InputError:
        return
    report = readout(run_gel(run_protocol(plan, protocol)), plan)
    assert report.agreement, report.disagreement


def test_load_problem_reads_a_file(tmp_path, ball_game):
    path = tmp_path / "problem.json"
    path.write_text(dump_problem(ball_game))
    assert load_problem(path) == ball_game


def test_zero_denominator_names_the_field():
    bad = json.dumps(
        {
            "outcomes": [
                {"label": "red", "probability": "4/0"},
                {"label": "black", "probability": "5/9"},
            ],
            "options": [{"label": "option-1", "favorable": ["red"]}],
        }
    )
    with pytest.raises(ProblemFormatError, match=r"outcomes\[0\].probability"):
        parse_problem(bad)


def test_float_probability_rejected():
    bad = json.dumps(
        {
            "outcomes": [{"label": "red", "probability": 0.5}],
            "options": [{"label": "o", "favorable": ["red"]}],
        }
    )
    with pytest.raises(ProblemFormatError, match="rational written as a string"):
        parse_problem(bad)


@pytest.mark.parametrize("written", ["0.5", " 1/2 ", "5e-1", "1/2"])
def test_decimal_and_rational_strings_parse_exactly(written):
    doc = {
        "outcomes": [
            {"label": "heads", "probability": written},
            {"label": "tails", "probability": "1/2"},
        ],
        "options": [{"label": "o", "favorable": ["heads"]}],
        "utilities": {"favorable": written, "unfavorable": "0"},
    }
    matrix = parse_problem(json.dumps(doc))
    assert matrix.outcomes[0].probability == Fraction(1, 2)
    assert matrix.u_favorable == Fraction(1, 2)


def test_missing_options_key_rejected():
    with pytest.raises(ProblemFormatError, match="'options'"):
        parse_problem('{"outcomes": [{"label": "a", "probability": "1"}]}')


def test_unknown_top_level_key_rejected():
    doc = {
        "outcomes": [{"label": "a", "probability": "1"}],
        "options": [{"label": "o", "favorable": ["a"]}],
        "extra": 1,
    }
    with pytest.raises(ProblemFormatError, match="'extra'"):
        parse_problem(json.dumps(doc))


def test_utilities_keys_must_be_exact():
    doc = {
        "outcomes": [{"label": "a", "probability": "1"}],
        "options": [{"label": "o", "favorable": ["a"]}],
        "utilities": {"favorable": "1"},
    }
    with pytest.raises(ProblemFormatError, match="utilities"):
        parse_problem(json.dumps(doc))


def test_probability_sum_failure_surfaces():
    doc = {
        "outcomes": [
            {"label": "a", "probability": "1/2"},
            {"label": "b", "probability": "1/3"},
        ],
        "options": [{"label": "o", "favorable": ["a"]}],
    }
    with pytest.raises(MatrixError, match="sum to 5/6, expected 1"):
        parse_problem(json.dumps(doc))


# -- subcommands -------------------------------------------------------------


def test_run_defaults_to_bundled_problem(capsys):
    assert main(["run"]) == 0
    out = capsys.readouterr().out
    assert "chosen: option-1" in out
    assert "matches the exact oracle" in out


def test_run_emits_band_table(capsys):
    assert main(["run", "--format", "tsv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("lane\tlength_bp\trelative_intensity\tmigration_fraction")
    assert "tube-1\t147\t128/9\t" in out


def test_run_writes_svg_to_file(tmp_path, capsys):
    target = tmp_path / "gel.svg"
    assert main(["run", "--format", "svg", "--out", str(target)]) == 0
    assert target.read_text().startswith("<svg ")
    assert f"wrote {target}" in capsys.readouterr().out


def test_run_honors_cycle_count(capsys):
    assert main(["run", "--format", "tsv", "--cycles", "0"]) == 0
    out = capsys.readouterr().out
    assert "tube-1\t147\t4/9\t" in out


def test_unamplified_run_reaches_same_decision(capsys):
    assert main(["run", "--cycles", "0"]) == 0
    assert "chosen: option-1" in capsys.readouterr().out


def test_compile_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "plan"
    assert main(["compile", "--out", str(out_dir)]) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert names == {"encoding.fasta", "plan.txt", "protocol.txt", "problem.json"}
    assert "construct 147 bp" in (out_dir / "plan.txt").read_text()
    fasta = (out_dir / "encoding.fasta").read_text()
    assert fasta.startswith(">")


def test_compile_rejects_oversized_problem_with_core_library(tmp_path, capsys):
    doc = {
        "outcomes": [
            {"label": "a", "probability": "1/2"},
            {"label": "b", "probability": "1/4"},
            {"label": "c", "probability": "1/4"},
        ],
        "options": [
            {"label": f"option-{i}", "favorable": ["a"]} for i in range(1, 5)
        ],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["compile", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "enzyme" in err


def test_extended_library_rescues_oversized_problem(tmp_path, capsys):
    doc = {
        "outcomes": [
            {"label": "a", "probability": "1/2"},
            {"label": "b", "probability": "1/4"},
            {"label": "c", "probability": "1/4"},
        ],
        "options": [
            {"label": f"option-{i}", "favorable": ["a"]} for i in range(1, 5)
        ],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["compile", "--input", str(path), "--enzymes", "extended"]) == 0


def test_malformed_input_exits_one_and_names_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "outcomes": [{"label": "red", "probability": "4/0"}],
                "options": [{"label": "o", "favorable": ["red"]}],
            }
        )
    )
    assert main(["run", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert "outcomes[0].probability" in err


def test_input_that_is_not_utf8_exits_one_naming_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark
    with pytest.raises(ProblemFormatError, match="bad.json: not UTF-8"):
        load_problem(path)
    assert main(["run", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.json: not UTF-8" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_missing_input_file_exits_one(capsys):
    assert main(["run", "--input", "/no/such/file.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    # code 2 is reserved for oracle disagreement, so flag misuse is an
    # input error like any other
    assert main([]) == 1
    capsys.readouterr()
    assert main(["run", "--format", "png"]) == 1
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main(["--help"]) == 0


def test_fixture_mode_reports_screening(capsys):
    assert main(["compile", "--fixture"]) == 0
    out = capsys.readouterr().out
    assert "kept reference" in out
    assert "rejected reference" in out


# seeds 0-9, then every seed below 1000 whose kept pieces broke a rule next
# to designed material when pinned pieces were screened on their own
@pytest.mark.parametrize("library", ["core", "extended"])
def test_fixture_compile_is_clean_for_every_seed(library, capsys):
    redesigned = []
    for seed in [*range(10), 237, 307, 374, 380, 539, 671, 736, 884]:
        assert main(["compile", "--fixture", "--seed", str(seed), "--enzymes", library]) == 0
        out, err = capsys.readouterr()
        assert "encoding validation: 0 warning(s)" in out, seed
        # one verdict on the pad, echoed once on stderr and listed once in the plan
        echoed = [line for line in err.splitlines() if "reference thresh pad" in line]
        listed = [line for line in out.splitlines() if "reference thresh pad" in line]
        assert len(echoed) == 1 and listed == ["  - " + echoed[0]], seed
        if seed < 10 and echoed[0].startswith("rejected reference thresh pad: window"):
            redesigned.append(seed)
    # joined to these seeds' toeholds, the pad repeats a probability window
    assert redesigned == [1, 4, 6, 9]


def test_fixture_run_agrees_where_a_kept_piece_met_a_designed_junction(capsys):
    # the printed option piece behind this seed's choice arm spells a StuI
    # site across the junction; kept, it cut option-1's constructs away
    assert main(["run", "--fixture", "--seed", "380"]) == 0
    err = capsys.readouterr().err
    assert "rejected reference option: site AGGCCT spans the junction AGGCCTCTGA" in err


@pytest.mark.parametrize("fmt", ["svg", "tsv", "text"])
def test_fixture_run_stdout_is_the_artifact_alone(tmp_path, capsys, fmt):
    # the six verdicts used to come first on stdout, ahead of the artifact
    assert main(["run", "--fixture", "--format", fmt]) == 0
    out, err = capsys.readouterr()
    path = tmp_path / f"gel.{fmt}"
    assert main(["run", "--fixture", "--format", fmt, "--out", str(path)]) == 0
    assert out == path.read_text(encoding="utf-8")
    verdicts = [line for line in err.splitlines() if " reference " in line]
    assert len(verdicts) == 6 and all(v.startswith(("kept ", "rejected ")) for v in verdicts)


def test_fixture_fasta_carries_kept_reference_sequence(tmp_path, capsys):
    out_dir = tmp_path / "pinned"
    assert main(["compile", "--fixture", "--out", str(out_dir)]) == 0
    fasta = (out_dir / "encoding.fasta").read_text()
    assert "TCTGACTCAGCTGAGATCCA" in fasta
    header = next(
        line for line, nxt in zip(fasta.splitlines(), fasta.splitlines()[1:])
        if nxt == "TCTGACTCAGCTGAGATCCA"
    )
    assert "option-1" in header


def test_compile_reports_zero_warnings_on_clean_plan(capsys):
    assert main(["compile"]) == 0
    out = capsys.readouterr().out
    assert "encoding validation: 0 warning(s)" in out


def test_compile_prints_each_warning_and_still_exits_zero(monkeypatch, capsys):
    # a warning is data about the plan, not a refusal: compile prints it and goes on
    import dnadecide.cli as cli_mod

    found = EncodingViolation("gc-range", ("util:red",), "GC fraction 1/4 outside [2/5, 3/5]")
    monkeypatch.setattr(cli_mod, "validate_encoding", lambda plan: [found])
    assert main(["compile"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "warning: gc-range: GC fraction 1/4 outside [2/5, 3/5]",
        "encoding validation: 1 warning(s)",
        "encoding plan",
    ]


def test_run_writes_full_artifact_set(tmp_path, capsys):
    outdir = tmp_path / "artifacts"
    assert main(["run", "--outdir", str(outdir)]) == 0
    names = {p.name for p in outdir.iterdir()}
    assert names == {"report.txt", "bands.tsv", "gel.svg", "gel.txt"}
    assert "chosen: option-1" in (outdir / "report.txt").read_text()


_RUN_FILES = {"report": "report.txt", "tsv": "bands.tsv", "svg": "gel.svg", "text": "gel.txt"}


@pytest.mark.parametrize("extra", [[], ["--fixture", "--cycles", "0"]])
def test_run_prints_the_file_its_outdir_writes_for_each_format(extra, tmp_path, capsys):
    outdir = tmp_path / "artifacts"
    assert main(["run", *extra, "--outdir", str(outdir)]) == 0
    files = {name: (outdir / name).read_bytes().decode("utf-8") for name in _RUN_FILES.values()}
    wrote = f"wrote report.txt, bands.tsv, gel.svg, gel.txt to {outdir}\n"
    assert capsys.readouterr().out == wrote + files["report.txt"]
    for fmt, name in _RUN_FILES.items():
        assert main(["run", *extra, "--format", fmt]) == 0
        assert capsys.readouterr().out == files[name], fmt


@pytest.mark.parametrize("extra", [[], ["--fixture", "--enzymes", "extended", "--seed", "3"]])
def test_compile_prints_the_plan_and_protocol_it_writes(extra, tmp_path, capsys):
    assert main(["compile", *extra]) == 0
    printed = capsys.readouterr().out
    out_dir = tmp_path / "plan"
    assert main(["compile", *extra, "--out", str(out_dir)]) == 0
    wrote = f"wrote encoding.fasta, plan.txt, protocol.txt, problem.json to {out_dir}\n"
    assert capsys.readouterr().out == printed + wrote
    validation, rest = printed.split("\n", 1)
    assert validation == "encoding validation: 0 warning(s)"
    files = [(out_dir / name).read_bytes().decode("utf-8") for name in ("plan.txt", "protocol.txt")]
    assert rest == "".join(files)


def test_one_option_problem_says_its_tube_has_no_digest(tmp_path, capsys):
    # with no rival and no unfavorable outcome, the one tube gets no enzyme
    doc = {
        "outcomes": [{"label": "a", "probability": "1/2"}, {"label": "b", "probability": "1/2"}],
        "options": [{"label": "x", "favorable": ["a", "b"]}],
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    assert main(["compile", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "    tube digested with: none\n" in out
    assert "4. split the pool into 1 tube, one per option\n" in out
    assert "   tube-1: no digest (no enzyme cuts this tube)\n" in out
    assert not re.search(r"digest(ed)? with:? *(,|at 37 C|$)", out, re.MULTILINE)
    assert main(["run", "--input", str(path)]) == 0
    assert "matches the exact oracle" in capsys.readouterr().out
    plan, protocol = compile_problem(load_problem(path))
    (tube,) = run_protocol(plan, protocol)
    assert tube.log[-3] == {"op": "digest", "enzymes": [], "fragments": {}}
    assert readout(run_gel([tube]), plan).agreement


def test_uniform_tie_reported_and_exits_zero(tmp_path, capsys):
    doc = {
        "outcomes": [
            {"label": f"out-{i}", "probability": "1/3"} for i in range(1, 4)
        ],
        "options": [
            {"label": "option-1", "favorable": ["out-1", "out-2"]},
            {"label": "option-2", "favorable": ["out-2", "out-3"]},
        ],
    }
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "chosen: option-1, option-2" in out


def test_colliding_label_slugs_exit_one(tmp_path, capsys):
    # both labels slug to red_ball; accepted, they overwrote each other's
    # strands and the run disagreed with the oracle (exit 2)
    doc = {
        "outcomes": [
            {"label": "red ball", "probability": "1/2"},
            {"label": "red_ball", "probability": "1/2"},
        ],
        "options": [
            {"label": "option-1", "favorable": ["red ball"]},
            {"label": "option-2", "favorable": ["red_ball"]},
        ],
    }
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert "'red ball'" in err and "'red_ball'" in err


def test_colliding_role_keys_exit_one(tmp_path, capsys):
    # both pairs key chance:a:b:c; accepted, the run disagreed with the
    # oracle (exit 2)
    doc = {
        "outcomes": [
            {"label": "c", "probability": "2/3"},
            {"label": "b:c", "probability": "1/3"},
        ],
        "options": [
            {"label": "a:b", "favorable": ["c"]},
            {"label": "a", "favorable": ["b:c"]},
        ],
    }
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--input", str(path), "--enzymes", "extended"]) == 1
    err = capsys.readouterr().err
    assert "'a:b'" in err and "'b:c'" in err and "chance:a:b:c" in err


def test_artifacts_are_utf8_under_an_ascii_locale(tmp_path):
    # with UTF-8 mode off, the C locale's codec is ASCII; labels reach plan.txt,
    # report.txt and the gel, and writing them used to raise UnicodeEncodeError
    doc = {
        "outcomes": [
            {"label": "rouge é", "probability": "1/3"},
            {"label": "noir", "probability": "2/3"},
        ],
        "options": [
            {"label": "choix α", "favorable": ["rouge é"]},
            {"label": "b", "favorable": ["noir"]},
        ],
    }
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    src = Path(dnadecide.__file__).resolve().parents[1]
    env = dict(
        os.environ, PYTHONPATH=str(src), LC_ALL="C", PYTHONUTF8="0", PYTHONIOENCODING="utf-8"
    )
    for argv in (
        ["compile", "--out", str(tmp_path / "design")],
        ["run", "--outdir", str(tmp_path / "run")],
        ["run", "--out", str(tmp_path / "report.txt")],
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "dnadecide.cli", *argv, "--input", str(path)],
            env=env, capture_output=True, text=True, encoding="utf-8",
        )
        assert proc.returncode == 0, proc.stderr
    assert "rouge é" in (tmp_path / "design" / "plan.txt").read_text(encoding="utf-8")
    report = (tmp_path / "run" / "report.txt").read_text(encoding="utf-8")
    assert "choix α" in report
    assert (tmp_path / "report.txt").read_text(encoding="utf-8") == report


@pytest.mark.parametrize("command", ["compile", "run"])
def test_stdout_is_utf8_under_an_ascii_locale(tmp_path, command):
    # with no PYTHONIOENCODING the C locale's stdout codec is ASCII; printing
    # the plan or the report used to die in a UnicodeEncodeError traceback
    doc = {
        "outcomes": [
            {"label": "rouge é", "probability": "1/3"},
            {"label": "noir", "probability": "2/3"},
        ],
        "options": [
            {"label": "choix α", "favorable": ["rouge é"]},
            {"label": "b", "favorable": ["noir"]},
        ],
    }
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    src = Path(dnadecide.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(PYTHONPATH=str(src), LC_ALL="C", PYTHONUTF8="0")
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "dnadecide.cli", command, "--input", str(path)],
        env=env, capture_output=True, text=True, encoding="utf-8",
    )
    assert proc.returncode == 0, proc.stderr
    assert "choix α" in proc.stdout


@pytest.mark.parametrize("command", ["compile", "run"])
@pytest.mark.parametrize(
    "field, outcome, favorable",
    [("outcomes[0].label", "r\ud800", "r\ud800"), ("options[1].favorable[0]", "r", "b\udfff")],
    ids=["outcome-label", "favorable-entry"],
)
def test_a_lone_surrogate_exits_one_naming_the_field(tmp_path, command, field, outcome, favorable):
    # JSON may escape half of a surrogate pair; such a label parsed, then died
    # in a UnicodeEncodeError traceback at the first print or artifact write
    doc = {
        "outcomes": [{"label": outcome, "probability": "1/2"}, {"label": "b", "probability": "1/2"}],
        "options": [{"label": "x", "favorable": [outcome]}, {"label": "y", "favorable": [favorable]}],
    }
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # ASCII, with the \ud800 escape
    src = Path(dnadecide.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "dnadecide.cli", command, "--input", str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr and f"{field}: not encodable as UTF-8" in proc.stderr


def test_input_nested_too_deep_exits_one_without_a_traceback(tmp_path):
    # json.loads raises RecursionError, not JSONDecodeError, past about 1,000
    # levels; it escaped parse_problem as a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    src = Path(dnadecide.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "dnadecide.cli", "run", "--input", str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "not valid JSON" in proc.stderr


@pytest.mark.parametrize(
    "field, value",
    [
        ("outcomes[0].probability", "1e-5000"),
        ("outcomes[0].probability", "1e-10000000"),
        ("utilities.favorable", "1e-5000"),
    ],
    ids=["probability", "probability-huge", "utility"],
)
def test_an_exponent_past_the_digit_limit_exits_one_naming_the_field(
    tmp_path, capsys, field, value
):
    # 1e-5000 parsed, then died in a ValueError traceback where the run
    # printed a number of more than 4300 digits; 1e-10000000 first spent
    # seconds inside Fraction()
    doc = {
        "outcomes": [{"label": "r", "probability": "1/2"}, {"label": "b", "probability": "1/2"}],
        "options": [{"label": "x", "favorable": ["r"]}, {"label": "y", "favorable": ["b"]}],
        "utilities": {"favorable": "1", "unfavorable": "0"},
    }
    if field == "utilities.favorable":
        doc["utilities"]["favorable"] = value
    else:
        doc["outcomes"][0]["probability"] = value
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["run", "--input", str(path)]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["utilities.unfavorable", "outcomes[1].probability"])
def test_numbers_too_long_to_print_together_exit_one_naming_the_field(tmp_path, capsys, field):
    # 1/a and 1/b each print, but with a and b coprime their estimates
    # (as utilities) or their sum (as probabilities) have some 4400 digits;
    # both died in a ValueError traceback
    a, b = 10**2200 + 1, 10**2200 + 3
    doc = {
        "outcomes": [{"label": "r", "probability": "1/2"}, {"label": "b", "probability": "1/2"}],
        "options": [{"label": "x", "favorable": ["r"]}, {"label": "y", "favorable": ["b"]}],
    }
    if field.startswith("utilities"):
        doc["utilities"] = {"favorable": f"1/{a}", "unfavorable": f"1/{b}"}
    else:
        doc["outcomes"][0]["probability"], doc["outcomes"][1]["probability"] = f"1/{a}", f"1/{b}"
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    for command in ("compile", "run"):
        assert main([command, "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert field in err and "too long to print" in err and "Traceback" not in err


def test_run_rejects_cycle_count_above_ceiling(capsys):
    # 2**100000 used to surface as an uncaught ValueError from Fraction.__str__
    assert main(["run", "--cycles", "100000"]) == 1
    assert "cycle count must be at most" in capsys.readouterr().err


def test_run_rejects_a_negative_cycle_count(capsys):
    assert main(["run", "--cycles", "-1"]) == 1
    err = capsys.readouterr().err
    assert "non-negative" in err and "Traceback" not in err


def test_verify_rejects_cycle_count_above_ceiling(capsys):
    assert main(["verify", "--count", "1", "--cycles", "100000"]) == 1
    assert "cycle count must be at most" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "1", "200"])
@pytest.mark.parametrize("cycles, refusal", [
    ("41", "error: cycle count must be at most 40, got 41\n"),
    ("-7", "error: cycle count must be non-negative, got -7\n"),
])
def test_verify_refuses_a_cycle_count_before_any_trial(count, cycles, refusal, monkeypatch, capsys):
    import dnadecide.soundness as soundness

    def no_trial(*args, **kwargs):
        raise AssertionError("verify compiled a trial before checking the cycle count")

    monkeypatch.setattr(soundness, "compile_problem", no_trial)
    assert main(["verify", "--count", count, "--cycles", cycles]) == 1
    assert capsys.readouterr() == ("", refusal)


@pytest.mark.parametrize("cycles, refusal", [
    ("41", "error: cycle count must be at most 40, got 41\n"),
    ("-1", "error: cycle count must be non-negative, got -1\n"),
], ids=["41", "-1"])
def test_run_refuses_a_cycle_count_before_it_designs(cycles, refusal, monkeypatch, capsys):
    import dnadecide.compiler as compiler

    calls = []
    design = compiler.generate_sequences
    monkeypatch.setattr(compiler, "generate_sequences",
                        lambda *args, **kwargs: calls.append(args) or design(*args, **kwargs))
    assert main(["run", "--cycles", cycles]) == 1
    assert capsys.readouterr() == ("", refusal)
    assert calls == []


def _halve_a_losing_band(gel):
    """`gel` with tube-2's second band at half its intensity: a band off its
    prediction, while tube-2 still loses to tube-1 on the ball game."""
    lanes = list(gel.lanes)
    first, second = lanes[1].bands
    lanes[1] = lanes[1]._replace(bands=(first, second._replace(intensity=second.intensity / 2)))
    return gel._replace(lanes=tuple(lanes))


def test_disagreement_exits_two(monkeypatch, capsys):
    import dnadecide.gel as gel_mod  # `run` imports readout from here when it runs

    real = gel_mod.readout

    def skewed(gel, plan, matrix=None):
        return real(gel, plan, matrix)._replace(oracle=(1,))

    with monkeypatch.context() as patch:
        patch.setattr(gel_mod, "readout", skewed)
        assert main(["run"]) == 2
        assert "disagrees" in capsys.readouterr().err

    # the argmax still agrees, but one band is off its prediction
    unpatched = gel_mod.run_gel
    monkeypatch.setattr(gel_mod, "run_gel", lambda tubes: _halve_a_losing_band(unpatched(tubes)))
    assert main(["run"]) == 2
    captured = capsys.readouterr()
    assert ("chosen: option-1\nDISAGREES with the exact oracle: "
            "lane tube-2: band 2 is 174 bp x32/9, predicted 174 bp x64/9\n") in captured.out
    assert captured.err == (
        "readout disagrees with the exact oracle: "
        "lane tube-2: band 2 is 174 bp x32/9, predicted 174 bp x64/9\n"
    )


def test_verify_names_the_band_that_disagrees(monkeypatch, capsys):
    # a sweep that draws the ball game, with tube-2's second band halved: the
    # trial fails by that band, since the argmax still agrees
    import dnadecide.soundness as soundness_mod

    real = soundness_mod.run_gel
    monkeypatch.setattr(soundness_mod, "run_gel", lambda tubes: _halve_a_losing_band(real(tubes)))
    monkeypatch.setattr(soundness_mod, "random_matrix", lambda rng: make_ball_game())
    assert main(["verify", "--count", "1"]) == 2
    out = capsys.readouterr().out
    assert "0/1 agree" in out
    assert "  trial 0: lane tube-2: band 2 is 174 bp x8/9, predicted 174 bp x16/9\n" in out
    assert "oracle says" not in out


def test_verify_counts_report_agreement(monkeypatch, capsys):
    # the sweep judges each trial by `DecisionReport.agreement` alone, so a
    # stricter agreement reaches `verify` with no second edit
    import dnadecide.gel as gel_mod

    monkeypatch.setattr(gel_mod.DecisionReport, "agreement", property(lambda report: False))
    assert main(["verify", "--count", "2"]) == 2
    assert "0/2 agree" in capsys.readouterr().out


def test_verify_small_sweep_passes(capsys):
    assert main(["verify", "--count", "8", "--seed", "3", "--cycles", "2"]) == 0
    out = capsys.readouterr().out
    assert "8/8 agree" in out


def test_verify_zero_trials_passes_vacuously(capsys):
    assert main(["verify", "--count", "0"]) == 0
    assert "0/0 agree" in capsys.readouterr().out


@pytest.mark.parametrize("count", ["-3", "three"])
def test_verify_rejects_a_bad_trial_count(count, capsys):
    # -3 used to print "0/-3 agree" and exit 2, the code for oracle disagreement
    assert main(["verify", "--count", count]) == 1
    captured = capsys.readouterr()
    assert "--count" in captured.err and "agree" not in captured.out


def _sum_off(doc):
    doc["outcomes"][1]["probability"] = "1/2"


def _colliding(doc):
    doc["outcomes"][1]["label"] = "red_ball"
    doc["outcomes"][0]["label"] = "red ball"
    for option in doc["options"]:
        option["favorable"] = []


def _six_outcomes(doc):
    doc["outcomes"] = [{"label": u, "probability": "1/6"} for u in "abcdef"]
    for option in doc["options"]:
        option["favorable"] = ["a"]


def _unreadable_gel(gel, plan, matrix=None):
    raise GelError("lane tube-1: band at 60.0 bp matches 0 predicted constructs")


# one refusal per layer, each its layer's own class: (class, edit of the
# ball game's file or raw text, extra arguments, stand-in for gel.readout)
_REFUSALS = {
    "format": (ProblemFormatError, '{"outcomes": [', [], None),
    "matrix": (MatrixError, _sum_off, [], None),
    "labels": (DuplicateLabelError, _colliding, [], None),
    "compile": (CompileError, _six_outcomes, [], None),
    "protocol": (ProtocolError, None, ["--cycles", "-1"], None),
    "gel": (GelError, None, [], _unreadable_gel),
}


@pytest.mark.parametrize("layer", sorted(_REFUSALS))
def test_each_layer_refuses_with_exit_one_and_one_error_line(layer, tmp_path, monkeypatch, capsys):
    import dnadecide.cli as cli
    import dnadecide.gel as gel_mod

    cls, edit, extra, readout_stub = _REFUSALS[layer]
    assert issubclass(cls, InputError)
    argv = ["run", *extra]
    if edit is not None:
        path = tmp_path / "problem.json"
        if isinstance(edit, str):
            path.write_text(edit, encoding="utf-8")
        else:
            doc = json.loads(dump_problem(make_ball_game()))
            edit(doc)
            path.write_text(json.dumps(doc), encoding="utf-8")
        argv += ["--input", str(path)]
    if readout_stub is not None:
        monkeypatch.setattr(gel_mod, "readout", readout_stub)
    with pytest.raises(cls) as refusal:
        cli._cmd_run(cli._build_parser().parse_args(argv))
    assert type(refusal.value) is cls
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {refusal.value}\n" and captured.out == ""


def _ball_game_with(*changes):
    """The ball game's problem file with each (key or index, ..., value)
    change applied: the value replaces the entry at that path."""
    doc = json.loads(dump_problem(make_ball_game()))
    for *path, value in changes:
        *parents, last = path
        entry = doc
        for key in parents:
            entry = entry[key]
        entry[last] = value
    return json.dumps(doc)


# malformed problem files, each with its one refusal
_FIELD_REFUSALS = {
    # the parser
    "rational": (
        _ball_game_with(("outcomes", 0, "probability", "four ninths")),
        "outcomes[0].probability: cannot parse 'four ninths' as a rational",
    ),
    "empty-label": (
        _ball_game_with(("options", 1, "label", "")),
        "options[1].label: expected a non-empty string",
    ),
    "surrogate-label": (
        _ball_game_with(("outcomes", 2, "label", "white\ud800")),
        "outcomes[2].label: not encodable as UTF-8: surrogates not allowed",
    ),
    "top-level": ("[]", "top level: expected an object"),
    "empty-options": (_ball_game_with(("options", [])), "options: expected a non-empty list"),
    "outcome-entry": (
        _ball_game_with(("outcomes", 1, "black")), "outcomes[1]: expected an object",
    ),
    "option-entry": (
        _ball_game_with(("options", 2, ["black"])), "options[2]: expected an object",
    ),
    "favorable-type": (
        _ball_game_with(("options", 0, "favorable", "red")),
        "options[0].favorable: expected a list",
    ),
    # the decision matrix
    "probability-range": (
        _ball_game_with(("outcomes", 1, "probability", "-1/9")),
        "outcomes[1].probability ('black'): outside [0, 1]",
    ),
    "probability-sum": (
        _ball_game_with(("outcomes", 0, "probability", "7/9")),
        "outcomes: probabilities sum to 4/3, expected 1",
    ),
    "duplicate-outcome": (
        _ball_game_with(
            ("outcomes", 2, "label", "red"),
            ("options", 1, "favorable", ["red"]),
            ("options", 2, "favorable", ["black"]),
        ),
        "outcomes[2].label: duplicate outcome label 'red'",
    ),
    "duplicate-option": (
        _ball_game_with(("options", 2, "label", "option-1")),
        "options[2].label: duplicate option label 'option-1'",
    ),
    "unknown-favorable": (
        _ball_game_with(("options", 1, "favorable", ["red", "green"])),
        "options[1].favorable[1]: option 'option-2' marks unknown outcome 'green' favorable",
    ),
    "utility-order": (
        _ball_game_with(("utilities", {"favorable": "0", "unfavorable": "1"})),
        "utilities: favorable utility must be at least the unfavorable utility",
    ),
    # the compiler's label collisions
    "label-collision": (
        json.dumps({
            "outcomes": [
                {"label": "red ball", "probability": "1/2"},
                {"label": "red_ball", "probability": "1/2"},
            ],
            "options": [{"label": "option-1", "favorable": ["red ball"]}],
        }),
        "outcomes[1].label: outcome labels 'red ball' and 'red_ball' collide: "
        "both name their strands 'prob:red_ball'",
    ),
    "pair-collision": (
        json.dumps({
            "outcomes": [
                {"label": "b:c", "probability": "1/3"},
                {"label": "c", "probability": "2/3"},
            ],
            "options": [
                {"label": "a", "favorable": ["b:c"]},
                {"label": "a:b", "favorable": ["c"]},
            ],
        }),
        "options[1].label and outcomes[1].label: option 'a' with outcome 'b:c' and "
        "option 'a:b' with outcome 'c' collide: both name their strands 'chance:a:b:c'",
    ),
    # the compiler's size limits
    "ladder": (
        _ball_game_with(
            ("outcomes", [{"label": u, "probability": "1/6"} for u in "abcdef"]),
            *(("options", i, "favorable", ["a"]) for i in range(3)),
        ),
        "outcomes[5].probability: rank 5 needs a 286 bp core, beyond the 200 bp ladder range",
    ),
    "enzymes": (
        _ball_game_with(("options", [
            {"label": f"option-{i}", "favorable": ["white"]} for i in range(1, 5)
        ])),
        "options and outcomes: 4 + 3 need 7 distinct enzymes, library provides 6"
        " (the extended library provides 18)",
    ),
}


# a field as the parser spells it: a top-level key, or a path into one
_FIELD = re.compile(r"(top level|options and outcomes|(outcomes|options|utilities)"
                    r"(\[\d+\])?(\.\w+(\[\d+\])?)?)[: ]")


@pytest.mark.parametrize("case", list(_FIELD_REFUSALS))
def test_a_malformed_problem_is_refused_leading_with_its_field(case, tmp_path, capsys):
    text, message = _FIELD_REFUSALS[case]
    path = tmp_path / "problem.json"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert _FIELD.match(message)


def test_a_strand_fault_keeps_its_traceback(monkeypatch):
    # an internal sequence fault is no refusal of the input: main lets it through
    import dnadecide.wetlab as wetlab_mod

    def faulty(plan, protocol, cycles=None):
        raise StrandError("mismatched pair at column 3: A/A")

    monkeypatch.setattr(wetlab_mod, "run_protocol", faulty)
    assert not issubclass(StrandError, InputError)
    with pytest.raises(StrandError, match="mismatched pair"):
        main(["run"])


_IMPORT_PROBE = """
import sys
import dnadecide.cli
heavy = (
    "dataclasses", "inspect", "dnadecide.soundness", "dnadecide.fixture",
    "dnadecide.wetlab", "dnadecide.gel", "importlib.resources", "tempfile",
)
print([name for name in heavy if name in sys.modules])
import dnadecide.soundness  # binds the submodule on the package, as any import does
before = set(vars(dnadecide))
print([name for name in dnadecide.__all__ if getattr(dnadecide, name, None) is None])
print(sorted(set(vars(dnadecide)) - before))
"""


def test_cli_import_loads_neither_dataclasses_nor_the_sweep():
    # every `dnadecide` process pays for this import before it does any work;
    # -S, since site .pth files may import some of these before any test code
    src = Path(dnadecide.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded, unresolved, added = proc.stdout.splitlines()
    assert loaded == "[]"
    assert unresolved == "[]"
    assert added == "[]"
