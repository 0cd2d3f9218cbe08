"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at its shortest length, traced and untraced, and checks
that each prints every metric BENCHMARK.json names; checks that a corrupted,
a re-signed and a missing verdict each count as one failed operation; and
checks that the benchmark refuses to run under a ``REPRO_*`` variable or
without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from batches import WORKLOADS, build_settings, load_batch  # noqa: E402
from verdicts import reference_of, score_pass  # noqa: E402


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def check_metrics_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for name in WORKLOADS:
        for trace in (0, 1):
            done = bench("--workload", name, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace))
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, done.stdout
            assert result["attempted"] >= 1
            for metric in wanted[trace]:
                emitted = result["metrics"][metric["name"]]
                assert emitted["unit"] == metric["unit"], (name, metric)
                assert isinstance(emitted["value"], (int, float))
            assert len(result["metrics"]) == len(wanted[trace]), (name, trace)
            print(f"ok: {name} --trace {trace}: {result['attempted']} attempted, "
                  f"{result['failed']} failed")


def check_corrupted_verdicts_fail() -> None:
    from repro.core.categories import RaceClass
    from repro.engine import AnalysisEngine

    config, options, _ = build_settings(False, None)
    workloads = load_batch(["ocean", "RW"])
    runs = AnalysisEngine(config, options).analyze_workloads(workloads)
    reference = reference_of(runs)
    clean = score_pass(workloads, runs, reference)
    # ocean's phase_done is the paper's own miss: failed, but expected.
    assert (clean.failed, clean.unexpected) == (1, 0), clean.failures

    result = runs[1].result
    original = list(result.classified)
    item = original[0]
    wrong = next(c for c in RaceClass if c is not item.classification)
    for corrupted in (
        [dataclasses.replace(item, classification=wrong)] + original[1:],
        [dataclasses.replace(item, k=item.k + 1)] + original[1:],
        original[1:],
    ):
        result.classified = corrupted
        score = score_pass(workloads, runs, reference)
        assert score.attempted == clean.attempted
        assert (score.failed, score.unexpected) == (2, 1), score.failures
    result.classified = original
    print("ok: a wrong class, a changed signature and a missing verdict each fail once")


def check_refusals() -> None:
    env = dict(os.environ, REPRO_PARALLEL="2")
    done = bench("--workload", "table1_serial", "--seed", "1", "--seconds", "1", env=env)
    assert done.returncode != 0 and not done.stdout.strip(), done.stdout

    bare = ROOT / ".bench_build" / "perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "table1_serial", "--seed", "1", "--seconds", "1",
                     cwd=bare)
        assert done.returncode != 0 and not done.stdout.strip(), done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: refuses under REPRO_PARALLEL and without the sources")


if __name__ == "__main__":
    check_corrupted_verdicts_fail()
    check_refusals()
    check_metrics_emitted()
    print("selftest passed")
