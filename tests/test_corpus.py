"""Every command of the CLI corpus emits the bytes and exit code `corpus.json` pins.

To re-pin after an intended change: `PYTHONPATH=src python tests/corpus.py --write`,
which prints each (command, artifact) entry that moved.
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
