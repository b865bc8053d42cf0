"""The CLI corpus: a fixed table of commands and the sha256 of every byte each
one emits, so a change that moves an output names the command and artifact.

Each command runs in process through `cli.main`, in its own empty working
directory that holds only its `--input` file, so the paths stdout names are
the same relative paths on every run. `corpus.json` maps each command to its
exit code and the digest of its stdout, its stderr and each file it wrote.
A refusal worded by the interpreter or by `json` pins only its exit code and
its `error: <field>` prefix, and `verify`'s elapsed seconds are masked.

    PYTHONPATH=src python tests/corpus.py          # check; print each moved entry
    PYTHONPATH=src python tests/corpus.py --write  # rewrite corpus.json; print each moved entry

The check needs no pytest, so it runs on any CPython the project supports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from dnadecide.cli import main

CORPUS = Path(__file__).with_name("corpus.json")
PROBLEMS = Path(__file__).with_name("problems")

WIDE = "--input wide.json --enzymes extended"
COMMANDS = (
    "run",
    "run --format tsv",
    "run --format svg",
    "run --format text",
    "run --format svg --out gel.svg",
    "run --outdir out",
    "run --fixture",
    "run --fixture --format tsv --out bands.tsv",
    "run --cycles 0",
    "run --cycles -1",
    "run --cycles 41",
    "compile",
    "compile --out design",
    "compile --fixture",
    "compile --fixture --enzymes extended",
    f"run {WIDE} --seed 0 --outdir out",
    f"run {WIDE} --seed 1 --outdir out",
    f"compile {WIDE} --seed 0 --out design",
    f"compile {WIDE} --seed 1 --out design",
    "run --input five-by-five.json --enzymes extended --outdir out",
    "verify --count 20",
    "compile --input labels.json --out design",
    "run --input labels.json --outdir out",
    "run --input collide.json",
    "run --input surrogate.json",
    "run --input exponent.json",
    "run --input long.json",
    "run --input enzymes.json",
    "run --input enzymes.json --enzymes extended",
    "run --input ladder.json --enzymes extended",
    "run --input deep.json",
    "run --input missing.json",
)

# refusals whose wording comes from the interpreter or `json`: only the
# exit code and the `error: <field>` prefix are pinned
PREFIX_ONLY = frozenset({"run --input deep.json", "run --input missing.json"})


def _long_utilities() -> str:
    a, b = 10**2200 + 1, 10**2200 + 3
    return json.dumps({
        "outcomes": [{"label": "r", "probability": "1/2"}, {"label": "b", "probability": "1/2"}],
        "options": [{"label": "x", "favorable": ["r"]}, {"label": "y", "favorable": ["b"]}],
        "utilities": {"favorable": f"1/{a}", "unfavorable": f"1/{b}"},
    }) + "\n"


# inputs written here rather than committed: 200 kB of brackets, and two
# numbers of 2,201 digits
GENERATED = {
    "deep.json": lambda: "[" * 100000 + "]" * 100000 + "\n",
    "long.json": _long_utilities,
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(command: str, workdir: Path) -> dict[str, object]:
    """Run `command` in the empty directory `workdir`; return its corpus entry."""
    argv = command.split()
    source = argv[argv.index("--input") + 1] if "--input" in argv else None
    if source in GENERATED:
        (workdir / source).write_text(GENERATED[source](), encoding="utf-8")
    elif source is not None and (PROBLEMS / source).exists():
        (workdir / source).write_bytes((PROBLEMS / source).read_bytes())
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    stdout = out.getvalue()
    if argv[0] == "verify":
        stdout = re.sub(r"\(\d+\.\d\ds\)", "(elapsed)", stdout)
    entry: dict[str, object] = {"exit": code, "stdout": _digest(stdout.encode("utf-8"))}
    if command in PREFIX_ONLY:
        entry["stderr prefix"] = ":".join(err.getvalue().split(":", 2)[:2])
    else:
        entry["stderr"] = _digest(err.getvalue().encode("utf-8"))
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        name = path.relative_to(workdir).as_posix()
        if name != source:
            entry[name] = _digest(path.read_bytes())
    return entry


def record_all() -> dict[str, dict[str, object]]:
    with tempfile.TemporaryDirectory() as root:
        corpus = {}
        for i, command in enumerate(COMMANDS):
            workdir = Path(root, str(i))
            workdir.mkdir()
            corpus[command] = record(command, workdir)
        return corpus


def load() -> dict[str, dict[str, object]]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def moved(old: dict, new: dict) -> list[str]:
    """Each `command: artifact` whose value differs, or that one side lacks."""
    lines = []
    for command in dict.fromkeys([*old, *new]):
        before, after = old.get(command, {}), new.get(command, {})
        for artifact in dict.fromkeys([*before, *after]):
            if before.get(artifact) != after.get(artifact):
                lines.append(f"{command}: {artifact}: {before.get(artifact)} -> {after.get(artifact)}")
    return lines


def _main(argv: list[str]) -> int:
    old = load() if CORPUS.exists() else {}
    new = record_all()
    changes = moved(old, new)
    for line in changes:
        print(line)
    if argv == ["--write"]:
        CORPUS.write_text(json.dumps(new, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
        print(f"wrote {len(new)} commands to {CORPUS.name}, {len(changes)} entries moved")
        return 0
    print(f"{len(new)} commands, {len(changes)} entries moved")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
