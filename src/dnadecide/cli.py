"""Command line front end: compile problems, run the pipeline, verify soundness."""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

from .compiler import compile_problem, validate_encoding
from .decision import InputError
from .formats import dump_problem, load_problem
from .strands import CORE_BLUNT_CUTTERS, EXTENDED_BLUNT_CUTTERS

_LIBRARIES = {"core": CORE_BLUNT_CUTTERS, "extended": EXTENDED_BLUNT_CUTTERS}
# each `run --format` and the `run --outdir` file that holds its text
_FORMAT_FILES = {"report": "report.txt", "tsv": "bands.tsv", "svg": "gel.svg", "text": "gel.txt"}


def _trial_count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a whole number of trials, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnadecide",
        description="Compile decision problems into DNA encoding plans, "
        "simulate the wet protocol, and read the answer off a gel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--input",
            metavar="FILE",
            default=None,
            help="problem JSON (default: the bundled three-option ball game)",
        )
        p.add_argument("--seed", type=int, default=0, help="sequence design seed")
        p.add_argument(
            "--enzymes",
            choices=sorted(_LIBRARIES),
            default="core",
            help="restriction enzyme library to draw from",
        )
        p.add_argument(
            "--fixture",
            action="store_true",
            help="offer each reference piece as the designer's first candidate "
            "for its top, judged in place",
        )

    p_compile = sub.add_parser(
        "compile", help="design sequences and print the encoding and protocol plans"
    )
    common(p_compile)
    p_compile.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write encoding.fasta, plan.txt, protocol.txt, problem.json here",
    )

    p_run = sub.add_parser(
        "run", help="simulate the full protocol and read the decision off the gel"
    )
    common(p_run)
    p_run.add_argument("--cycles", type=int, default=5, help="PCR cycles")
    p_run.add_argument(
        "--format",
        choices=list(_FORMAT_FILES),
        default="report",
        help="what to emit: readout report, band table, or a gel image",
    )
    p_run.add_argument(
        "--out", metavar="FILE", default=None, help="write the output here instead of stdout"
    )
    p_run.add_argument(
        "--outdir",
        metavar="DIR",
        default=None,
        help=f"write the full artifact set ({', '.join(_FORMAT_FILES.values())}) here",
    )

    p_verify = sub.add_parser(
        "verify", help="sweep random problems end to end against the exact oracle"
    )
    p_verify.add_argument("--count", type=_trial_count, default=200, help="number of trials")
    p_verify.add_argument("--seed", type=int, default=0, help="sweep seed")
    p_verify.add_argument("--cycles", type=int, default=3, help="PCR cycles per trial")

    return parser


def _compile(args, **kwargs):
    """Compile the problem the common options name, echoing any fixture notes on stderr."""
    bundled = Path(__file__).with_name("data") / "ballgame.json"  # shipped as package data
    plan, protocol = compile_problem(
        load_problem(bundled if args.input is None else args.input),
        seed=args.seed,
        library=_LIBRARIES[args.enzymes],
        use_fixture=args.fixture,
        **kwargs,
    )
    for note in plan.fixture_notes:
        print(note, file=sys.stderr)
    return plan, protocol


def _write_artifacts(outdir: str, artifacts: dict[str, str]) -> None:
    """Write each artifact, by file name, into `outdir`, made if missing."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        (out / name).write_text(text, encoding="utf-8")
    print(f"wrote {', '.join(artifacts)} to {out}")


def _cmd_compile(args) -> int:
    plan, protocol = _compile(args)
    violations = validate_encoding(plan)
    for v in violations:
        print(f"warning: {v.kind}: {v.detail}")
    print(f"encoding validation: {len(violations)} warning(s)")
    artifacts = {"encoding.fasta": plan.to_fasta(), "plan.txt": plan.describe(),
                 "protocol.txt": protocol.describe(), "problem.json": dump_problem(plan.matrix)}
    sys.stdout.write(artifacts["plan.txt"] + artifacts["protocol.txt"])
    if args.out is not None:
        _write_artifacts(args.out, artifacts)
    return 0


def _cmd_run(args) -> int:
    from .gel import band_table, readout, render, run_gel  # only run loads the simulator
    from .wetlab import run_protocol

    plan, protocol = _compile(args, pcr_cycles=args.cycles)
    tubes = run_protocol(plan, protocol)
    gel = run_gel(tubes)
    report = readout(gel, plan)
    artifacts = {"report.txt": report.describe(), "bands.tsv": band_table(gel),
                 "gel.svg": render(gel, "svg"), "gel.txt": render(gel, "text")}
    if args.outdir is not None:
        _write_artifacts(args.outdir, artifacts)
    text = artifacts[_FORMAT_FILES[args.format]]
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    if not report.agreement:
        print(f"readout disagrees with the exact oracle: {report.disagreement}", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args) -> int:
    from .soundness import verify_soundness  # only verify pays for loading the sweep

    result = verify_soundness(trials=args.count, seed=args.seed, cycles=args.cycles)
    print(result.describe(), end="")
    return 0 if result.ok else 2


def main(argv: list[str] | None = None) -> int:
    """Exit codes: 0 success or agreement, 1 input or internal error,
    2 verification disagreement. Stdout is UTF-8, as the artifacts are."""
    if isinstance(sys.stdout, io.TextIOWrapper):  # not a caller's own text buffer
        sys.stdout.reconfigure(encoding="utf-8")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; fold those into the
        # input-error code so 2 stays reserved for oracle disagreement
        return 0 if not exc.code else 1
    handler = {"compile": _cmd_compile, "run": _cmd_run, "verify": _cmd_verify}[
        args.command
    ]
    try:
        return handler(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
