"""dnadecide benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from its
``src/``. Each job waits for the previous one (one client, no threads, at
most one child process at a time) and is checked against the exact
expected-utility oracle. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` times the untraced program and reports the end-to-end
metrics. ``--trace 1`` alternates untraced and traced passes over a fixed
list of jobs and reports per-layer self times and counts (see tracing.py)
plus the tracing overhead. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from hostspeed import NOMINAL_S, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
# Claims made on DEFAULT_SEED must also hold on this seed, which is not
# used while a change is being written.
HELD_OUT_SEED = 9973

SETUP_SAMPLES = 21  # fresh interpreters timed per run for setup_s
FINGERPRINT_JOBS = 16  # the first jobs of every timed run, always run

# Times `import dnadecide.cli` in a fresh interpreter, then the host's
# speed in that same interpreter (argv[1] is this directory).
_SETUP_CHILD = """\
import sys, time
began = time.perf_counter()
import dnadecide.cli
took = time.perf_counter() - began
sys.path.insert(0, sys.argv[1])
from hostspeed import sample_speed
print(took, sample_speed())
"""


@dataclass
class Tally:
    jobs: int
    failed: int
    wall: float  # seconds for the whole loop
    fingerprint: str  # sha256 over the outputs of the first FINGERPRINT_JOBS jobs


def run_jobs(jobs, seconds: float, min_jobs: int, block: int = 1, tracer=None, host=None) -> Tally:
    """Run jobs one after another until `seconds` pass and `min_jobs` are done.

    The run stops only after a whole number of blocks of `block` jobs. A
    `HostSpeed` runs each job, so that it can rescale the job's time later.
    """
    digest = hashlib.sha256()
    done = failed = 0
    start = time.perf_counter()
    for job in jobs:
        if done >= min_jobs and done % block == 0 and time.perf_counter() - start >= seconds:
            break
        try:
            output = job() if host is None else host.timed(job)
        except Exception:  # a failed job is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
            output = b"failed"
        done += 1
        if tracer is not None:
            tracer.end_job()
        if done <= FINGERPRINT_JOBS:
            digest.update(hashlib.sha256(output).digest())
    return Tally(done, failed, time.perf_counter() - start, digest.hexdigest())


def setup_seconds(ctx) -> float:
    """Median time for a fresh interpreter to `import dnadecide.cli`.

    Each import time is rescaled by the reference time measured in the
    same interpreter right after it (see hostspeed.py).
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(HERE)],
            cwd=ctx.workdir,
            env=ctx.env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        took, reference_s = map(float, proc.stdout.split())
        samples.append(took * NOMINAL_S / reference_s)
    return statistics.median(samples)


def timed(workload: str, spec, seed: int, seconds: float, ctx) -> dict:
    setup = setup_seconds(ctx)
    with HostSpeed(during_jobs=not spec.in_child) as host:
        tally = run_jobs(spec.jobs(seed, ctx), seconds, FINGERPRINT_JOBS, spec.block, host=host)
    ms = [1000 * t for t in host.adjusted()]
    print(
        f"perfbench: {workload} seed {seed}: {len(ms)} jobs in {tally.wall:.2f} s "
        f"({len(ms) / tally.wall:.2f} jobs/s unadjusted), {tally.failed} failed; "
        f"fingerprint of the first {FINGERPRINT_JOBS} jobs {tally.fingerprint}"
    )
    metrics = {
        "jobs_per_s": (1000 * len(ms) / sum(ms), "1/s"),
        "job_ms_p50": (statistics.median(ms), "ms"),
        "job_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(spec.rusage).ru_maxrss / 1024, "MB"),
        "setup_s": (setup, "s"),
    }
    return {
        "correct": tally.failed == 0,
        "attempted": len(ms),
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def traced(workload: str, spec, seed: int, seconds: float, ctx) -> dict:
    from tracing import Tracer, layer_metrics

    n = spec.trace_jobs
    # Drawn before any wrapper is installed, so only the jobs are traced.
    jobs = list(itertools.islice(spec.jobs(seed, ctx), n))
    tracer = Tracer()
    plain_s = traced_s = 0.0
    same_outputs = True
    warm = run_jobs(jobs, 0, n)  # first calls pay for caches; not compared
    attempted, failed = n, warm.failed
    start = time.perf_counter()
    while attempted == n or time.perf_counter() - start < seconds:
        plain = run_jobs(jobs, 0, n)
        ctx.tracer = tracer
        try:
            with tracer.installed():
                spanned = run_jobs(jobs, 0, n, tracer=tracer)
        finally:
            ctx.tracer = None
        plain_s += plain.wall
        traced_s += spanned.wall
        attempted += 2 * n
        failed += plain.failed + spanned.failed
        same_outputs = same_outputs and warm.fingerprint == plain.fingerprint == spanned.fingerprint
    print(
        f"perfbench: {workload} seed {seed} traced: {tracer.jobs} traced jobs, "
        f"{failed} of {attempted} failed; fingerprint of the first "
        f"{min(n, FINGERPRINT_JOBS)} jobs {spanned.fingerprint}"
        + ("" if same_outputs else "; traced outputs DIFFER from untraced")
    )
    return {
        "correct": failed == 0 and same_outputs,
        "attempted": attempted,
        "failed": failed,
        "metrics": layer_metrics(tracer, traced_s / plain_s - 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="cli-run, verify-sweep, wide or design")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dnadecide" / "cli.py").is_file():
        print(f"perfbench: no dnadecide source under {SRC}", file=sys.stderr)
        return 2
    # The benchmark's own modules import dnadecide, so they load only now,
    # from this checkout's source.
    sys.path.insert(0, str(SRC))
    import dnadecide

    if Path(dnadecide.__file__).resolve().parent != SRC / "dnadecide":
        print(f"perfbench: imported dnadecide from {dnadecide.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        ctx = Context(Path(workdir), dict(os.environ, PYTHONPATH=str(SRC)))
        measure = traced if args.trace else timed
        result = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, ctx)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
