"""Every function in `src/dnadecide` is reached by a CLI corpus command, or it
is listed below with the reason it stays.

One child process starts `sys.settrace` before it imports `dnadecide`, so the
functions that run at import count too, then runs each command of
`corpus.COMMANDS` in process, in its own empty working directory. The trace
keeps only call events, so it never traces a line. A function that becomes
unreached fails this test until it is deleted or listed here with its reason.
The audit sees functions only: a parameter or a branch that only tests reach
is invisible to it.
"""

import json
import os
import subprocess
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

import dnadecide

SRC = Path(dnadecide.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# each unreached function, by module and qualified name, with why it stays
UNREACHED = {
    "dnadecide.__getattr__": "public API: the lazy names; the CLI imports its modules directly",
    "cli.entrypoint": "console entry point",
    "compiler.EncodingViolation.__str__": "public API: `compile` prints a finding's kind and detail",
    "compiler.check_pieces": "negative-control branch: it words findings, and no corpus plan has one",
    "compiler.Derivation.length": "negative-control branch: only `check_pieces` reads it",
    "decision.expected_utility": "definitional reference for `best_options`",
    "strands.Duplex.__new__": "public checked constructor: `src` builds each duplex with `_derived`",
    "strands.Duplex.ds_start": "public API of the checked duplex",
    "strands.Duplex.ds_end": "public API of the checked duplex",
    "strands.Duplex.bottom_base": "public API of the checked duplex",
    "strands.find_sites": "single-step physics: the benchmark traces it (ROADMAP items 1, 9)",
    "strands.cut": "single-step physics: `wetlab.digest` cuts with it (ROADMAP items 1, 9)",
    "strands.fragment": "physics only planted plans reach: a compiled plan keeps no fragment",
    "wetlab.digest": "single step: the benchmark traces it (ROADMAP items 1, 9)",
    "wetlab.pcr": "single step: the benchmark traces it (ROADMAP items 1, 9)",
    "wetlab.purify": "single step: the benchmark traces it (ROADMAP items 1, 9)",
}

# the child: trace every call into `src`, import, run the corpus, print what ran
_CHILD = r"""
import json, os, sys, tempfile
from pathlib import Path

src, called = sys.argv[1], set()

def trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(src):
        called.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))

sys.settrace(trace)
import corpus

with tempfile.TemporaryDirectory() as root:
    for i, command in enumerate(corpus.COMMANDS):
        workdir = Path(root, str(i))
        workdir.mkdir()
        corpus.record(command, workdir)
sys.settrace(None)
print(json.dumps(sorted(called)))
"""


def _functions() -> dict[tuple[str, int, str], str]:
    """Each function defined in `src/dnadecide`, keyed as the trace keys a
    call, named by its module and qualified name (lambdas and comprehensions
    aside)."""
    found = {}

    def walk(code, file, module, prefix):
        for const in code.co_consts:
            if isinstance(const, CodeType) and not const.co_name.startswith("<"):
                function = bool(const.co_flags & CO_OPTIMIZED)  # else a class body
                if function:
                    found[(file, const.co_firstlineno, const.co_name)] = (
                        f"{module}.{prefix}{const.co_name}")
                inner = f"{prefix}{const.co_name}" + (".<locals>." if function else ".")
                walk(const, file, module, inner)

    for path in sorted(SRC.glob("*.py")):
        module = "dnadecide" if path.stem == "__init__" else path.stem
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.name, module, "")
    return found


def test_every_function_the_corpus_never_calls_is_listed_with_a_reason():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(TESTS)])}
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(SRC) + os.sep],
        env=env, capture_output=True, text=True, check=True,
    )
    called = {tuple(key) for key in json.loads(done.stdout.splitlines()[-1])}
    functions = _functions()
    unreached = {name for key, name in functions.items() if key not in called}
    assert sorted(unreached - UNREACHED.keys()) == [], "unreached and not listed"
    assert sorted(UNREACHED.keys() - unreached) == [], "listed but reached"
