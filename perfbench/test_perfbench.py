"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dnadecide import cli, compiler, soundness, strands, wetlab  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from run import run_jobs  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, Context  # noqa: E402

FEW_JOBS = {"cli-run": 2, "verify-sweep": 4, "wide": 1, "design": 6}


@pytest.fixture
def ctx(tmp_path):
    return Context(tmp_path, dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def _jobs(workload, seed, ctx, n):
    return list(itertools.islice(WORKLOADS[workload].jobs(seed, ctx), n))


def _snapshot():
    bound = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "dnadecide" or name.startswith("dnadecide.")
        for attr, value in vars(module).items()
    }
    bound["describe"] = (compiler.EncodingPlan.describe, compiler.ProtocolPlan.describe)
    return bound


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_outputs(workload, ctx):
    n = FEW_JOBS[workload]
    first = run_jobs(_jobs(workload, 3, ctx, n), 0, n)
    second = run_jobs(_jobs(workload, 3, ctx, n), 0, n)
    other = run_jobs(_jobs(workload, 4, ctx, n), 0, n)
    assert (first.failed, second.failed, other.failed) == (0, 0, 0)
    assert first.jobs == n
    assert first.fingerprint == second.fingerprint
    if workload != "cli-run":  # the seed moves only sequences, which `run` does not print
        assert first.fingerprint != other.fingerprint


def test_verify_sweep_blocks_hold_every_size_once(ctx):
    sizes = []
    for job in _jobs("verify-sweep", 7, ctx, 2 * len(SIZES)):
        rng = random.Random()
        rng.setstate(job.args[0])
        matrix = soundness.random_matrix(rng)
        sizes.append((len(matrix.options), len(matrix.outcomes)))
    assert sizes == 2 * list(SIZES)


def test_run_ends_on_a_block_boundary():
    tally = run_jobs(itertools.repeat(lambda: b""), 0, 5, block=4)
    assert tally.jobs == 8


@pytest.mark.parametrize("workload", ["cli-run", "verify-sweep"])
def test_traced_counts_repeat_and_outputs_match(workload, ctx):
    n = FEW_JOBS[workload]
    jobs = _jobs(workload, 5, ctx, n)
    plain = run_jobs(jobs, 0, n)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        ctx.tracer = tracer
        with tracer.installed():
            tally = run_jobs(jobs, 0, n, tracer=tracer)
        ctx.tracer = None
        assert tally.failed == 0 and tally.fingerprint == plain.fingerprint
        runs.append((tracer.jobs, tracer.calls, tracer.counts))
    assert runs[0] == runs[1]
    jobs, calls, counts = runs[0]
    assert jobs == n and calls["wetlab.digest"] > 0 and counts["gel.bands"] > 0
    assert calls["strands.cut"] == calls["strands.find_sites"] > counts["strands.cut.useful"] > 0


def test_tracing_restores_every_binding():
    before = _snapshot()
    original_cut = strands.cut
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert wetlab.cut is not original_cut and strands.cut is wetlab.cut
            assert cli.main is not before[("dnadecide.cli", "main")]
            raise RuntimeError("leave the traced region early")
    assert _snapshot() == before


def test_failed_jobs_are_counted_and_the_run_goes_on():
    def wrong():
        raise ValueError("wrong answer")

    tally = run_jobs(iter([lambda: b"a", wrong, lambda: b"b"]), 0, 3)
    assert tally.jobs == 3 and tally.failed == 1


@pytest.mark.parametrize("during_jobs", [True, False])
def test_host_speed_rescales_every_job_and_stops_its_timer(during_jobs):
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed(during_jobs) as host:
        for _ in range(5):
            assert host.timed(lambda: len([i * i for i in range(100_000)])) == 100_000
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    adjusted = host.adjusted()
    assert len(adjusted) == 5 and all(t > 0 for t in adjusted)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design", "--seconds", "0.1"]
        + ["--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
