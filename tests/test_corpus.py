"""Every command of the CLI corpus emits the bytes and exit code `corpus.json` pins.

Here each command runs in process through `cli.main`; `corpus.py`, run as a
script, runs the same table as child processes, and one test below runs a
command that way too. To re-pin after an intended change:
`PYTHONPATH=src python tests/corpus.py --write`, which prints each
(command, artifact) entry that moved. The relations below must hold through
any re-pin.
"""

import pytest

import corpus

PINNED = corpus.load()


def test_the_corpus_pins_exactly_the_command_table():
    assert list(PINNED) == list(corpus.COMMANDS)


@pytest.mark.parametrize("command", corpus.COMMANDS)
def test_each_command_emits_its_pinned_bytes(command, tmp_path):
    entry = corpus.record(command, tmp_path)
    assert corpus.moved({command: PINNED.get(command, {})}, {command: entry}) == []


def test_pins_that_must_be_equal_are_equal():
    # the design seed moves the strands only, never the gel or the reading
    seeds = [PINNED[f"run {corpus.WIDE} --seed {seed} --outdir out"] for seed in (0, 1)]
    for artifact in ("out/bands.tsv", "out/report.txt"):
        assert seeds[0][artifact] == seeds[1][artifact], artifact
    # the problem file `compile --out` writes is the bundled problem as
    # `dump_problem` spells it, and it runs to the bundled problem's bytes
    written = corpus.GENERATED["problem.json"]().encode("utf-8")
    assert corpus.digest(written) == PINNED["compile --out design"]["design/problem.json"]
    assert PINNED["run --input problem.json"]["stdout"] == PINNED["run"]["stdout"]
    # verify refuses a cycle count before its first trial, however many it runs
    assert PINNED["verify --count 0 --cycles 41"] == PINNED["verify --cycles 41"]


def test_a_child_process_under_an_ascii_locale_emits_its_pinned_bytes(tmp_path, monkeypatch):
    # the runner the script uses: a real `python -m dnadecide.cli` whose
    # streams default to ASCII, writing UTF-8 labels to stdout and to files
    monkeypatch.delenv("PYTHONIOENCODING", raising=False)
    monkeypatch.setenv("LC_ALL", "C")
    monkeypatch.setenv("PYTHONUTF8", "0")
    command = "run --input labels.json --outdir out"
    entry = corpus.record(command, tmp_path, corpus.in_child)
    assert corpus.moved({command: PINNED[command]}, {command: entry}) == []


def test_a_traceback_on_stderr_fails_even_a_prefix_pin(tmp_path):
    def crashed(argv, workdir):
        return 1, b"", b"error: not valid JSON\nTraceback (most recent call last):\n"

    with pytest.raises(AssertionError, match="run --input deep.json: Traceback on stderr"):
        corpus.record("run --input deep.json", tmp_path, crashed)
