"""The CLI corpus: a fixed table of commands and the sha256 of every byte each
one emits, so a change that moves an output names the command and artifact.

Each command runs in its own empty working directory that holds only its
`--input` file, so the paths stdout names are the same relative paths on
every run. `corpus.json` maps each command to its exit code and the digest of
its stdout, its stderr and each file it wrote. A refusal worded by the
interpreter or by `json` pins only its exit code and its `error: <field>`
prefix, and `verify`'s elapsed seconds are masked. A `Traceback` on stderr
fails the command, whatever its pin.

The script runs each command as a `python -m dnadecide.cli` child process,
in the script's own environment, so the locale, the UTF-8 mode and the hash
seed it checks under are the ones it is started with:

    PYTHONPATH=src python tests/corpus.py          # check; print each moved entry
    PYTHONPATH=src python tests/corpus.py --write  # rewrite corpus.json; print each moved entry
    LC_ALL=C PYTHONUTF8=0 PYTHONPATH=src python tests/corpus.py  # check under an ASCII locale
    PYTHONHASHSEED=1 PYTHONPATH=src python tests/corpus.py       # check under another hash seed

`test_corpus.py` runs the same table in process through `cli.main`. The check
needs no pytest, so it runs on any CPython the project supports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import dnadecide
from dnadecide.cli import main
from dnadecide.formats import dump_problem, load_problem

CORPUS = Path(__file__).with_name("corpus.json")
PROBLEMS = Path(__file__).with_name("problems")
# the directory the imported `dnadecide` sits in, absolute, so a child that
# starts in its workdir imports the same code
SOURCE = str(Path(dnadecide.__file__).resolve().parent.parent)

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
    f"compile {WIDE} --fixture --seed 0",
    f"compile {WIDE} --fixture --seed 1",
    f"run --fixture {WIDE}",
    "run --input tie.json",
    "run --input negative.json",
    "run --input problem.json",
    "verify --count 20",
    "verify --count 200",
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


# inputs written here rather than committed: 200 kB of brackets, two
# numbers of 2,201 digits, and the bundled problem as `dump_problem` spells it
GENERATED = {
    "deep.json": lambda: "[" * 100000 + "]" * 100000 + "\n",
    "long.json": _long_utilities,
    "problem.json": lambda: dump_problem(
        load_problem(Path(dnadecide.__file__).with_name("data") / "ballgame.json")),
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def in_process(argv: list[str], workdir: Path) -> tuple[int, bytes, bytes]:
    """Run `cli.main(argv)` in `workdir`; return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def in_child(argv: list[str], workdir: Path) -> tuple[int, bytes, bytes]:
    """Run `python -m dnadecide.cli` on `argv` in `workdir`, in this process's
    environment with `PYTHONPATH` at `SOURCE`; return its exit code, stdout and stderr."""
    done = subprocess.run(
        [sys.executable, "-m", "dnadecide.cli", *argv],
        cwd=workdir, env={**os.environ, "PYTHONPATH": SOURCE}, capture_output=True,
    )
    return done.returncode, done.stdout, done.stderr


def record(command: str, workdir: Path, run=in_process) -> dict[str, object]:
    """Run `command` through `run` in the empty directory `workdir`; return its corpus entry."""
    argv = command.split()
    source = argv[argv.index("--input") + 1] if "--input" in argv else None
    if source in GENERATED:
        (workdir / source).write_text(GENERATED[source](), encoding="utf-8")
    elif source is not None and (PROBLEMS / source).exists():
        (workdir / source).write_bytes((PROBLEMS / source).read_bytes())
    code, stdout, stderr = run(argv, workdir)
    if b"Traceback" in stderr:
        raise AssertionError(f"{command}: Traceback on stderr\n{stderr.decode(errors='replace')}")
    if argv[0] == "verify":
        stdout = re.sub(rb"\(\d+\.\d\ds\)", b"(elapsed)", stdout)
    entry: dict[str, object] = {"exit": code, "stdout": digest(stdout)}
    if command in PREFIX_ONLY:
        entry["stderr prefix"] = b":".join(stderr.split(b":", 2)[:2]).decode("utf-8")
    else:
        entry["stderr"] = digest(stderr)
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        name = path.relative_to(workdir).as_posix()
        if name != source:
            entry[name] = digest(path.read_bytes())
    return entry


def record_all() -> dict[str, dict[str, object]]:
    """Every command's entry, each run in a child process."""
    with tempfile.TemporaryDirectory() as root:
        corpus = {}
        for i, command in enumerate(COMMANDS):
            workdir = Path(root, str(i))
            workdir.mkdir()
            corpus[command] = record(command, workdir, in_child)
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
