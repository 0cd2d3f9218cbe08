"""``python -m repro.experiments profile <workload>``: one workload under
cProfile.

Runs the complete serial analysis of one registry workload (record + detect
+ classify, the same work a ``table3`` row does) inside ``cProfile`` and
reports the interpreter's counters and the top-N functions by cumulative
time.  This is the repo's standing answer to "where do the cycles go?" --
the interpreter hot-path work (copy-on-write state forking and spin
fast-forward) was scoped from exactly this view.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass


@dataclass
class ProfileReport:
    """The outcome of one profiled analysis run."""

    workload: str
    seconds: float
    races: int
    statements: int
    forks: int
    cow_copies: int
    spin_steps_skipped: int
    table: str


def run_profile(workload_name: str, top: int = 25) -> ProfileReport:
    """Profile one workload's full serial analysis."""
    from repro.core.config import PortendConfig
    from repro.core.portend import Portend
    from repro.workloads import load_workload

    workload = load_workload(workload_name)
    portend = Portend(
        workload.program, config=PortendConfig(), predicates=workload.predicates
    )

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    trace = portend.record(inputs=dict(workload.inputs))
    result = portend.classify_trace(trace)
    profiler.disable()
    seconds = time.perf_counter() - started

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)

    counters = portend.executor.counters
    return ProfileReport(
        workload=workload_name,
        seconds=seconds,
        races=len(result.classified),
        statements=counters.statements,
        forks=counters.forks,
        cow_copies=counters.cow_copies,
        spin_steps_skipped=counters.spin_steps_skipped,
        table=buffer.getvalue().rstrip(),
    )


def render_profile(report: ProfileReport) -> str:
    lines = [
        f"profile: {report.workload} ({report.seconds:.3f}s wall)",
        f"  races classified: {report.races}",
        f"  interpreter: statements={report.statements} "
        f"forks={report.forks} cow_copies={report.cow_copies} "
        f"spin_steps_skipped={report.spin_steps_skipped}",
        "",
        report.table,
    ]
    return "\n".join(lines)
