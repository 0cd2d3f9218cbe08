"""The benchmark's workloads, and the engine settings every one of them pins.

Every workload runs the paper's default configuration (Mp=5, Ma=2, seed
2012) over registry builds of its programs.  The benchmark's ``--seed`` only
permutes the order of programs within the batch, so it can never change a
verdict.
"""

from __future__ import annotations

import dataclasses
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: the 11 programs of the paper's Table 1 (93 distinct races)
TABLE1 = (
    "SQLite", "ocean", "fmm", "memcached", "pbzip2", "ctrace", "bbuf",
    "AVV", "DCL", "DBM", "RW",
)
#: the synthetic engine-scaling family (292 distinct races)
STRESS = ("stress", "stress_harmful", "stress_deep")


@dataclass(frozen=True)
class BenchWorkload:
    name: str
    programs: Tuple[str, ...]
    #: run on the persistent pool with one worker per CPU (else serially)
    pooled: bool = False
    #: run against a cache directory primed during set-up
    warm_cache: bool = False


WORKLOADS: Dict[str, BenchWorkload] = {
    workload.name: workload
    for workload in (
        # The paper's own evaluation set; alternate enforcement dominates it.
        BenchWorkload("table1_serial", TABLE1),
        # Table 1 plus the stress family on the pool: the only workload that
        # runs dispatch, IPC and the scheduler.  Three quarters of its races
        # are stress races, where redundant primary replay dominates.  (A
        # serial stress-only workload was dropped: too slow a pass for
        # enough passes per run, so it was the least steady one.)
        BenchWorkload("full_pool", TABLE1 + STRESS, pooled=True),
        # The union again, served from a primed cache: the only workload
        # that reads the caches (and writes their hit sidecars).
        BenchWorkload("warm_rerun", TABLE1 + STRESS, warm_cache=True),
    )
}

#: every PortendConfig field, pinned to the paper's defaults
PINNED_CONFIG = {
    "mp": 5,
    "ma": 2,
    "symbolic_inputs": 2,
    "timeout_factor": 5,
    "max_steps_per_execution": 200_000,
    "max_explored_states": 256,
    "seed": 2012,
    "solver_backend": "default",
    "interp": "tree",
    "enable_adhoc_detection": True,
    "enable_multi_path": True,
    "enable_multi_schedule": True,
    "symbolic_output_comparison": True,
}

#: every EngineOptions field except ``parallel`` and ``cache_dir``, which
#: each workload sets
PINNED_OPTIONS = {
    "use_semantic_predicates": False,
    "granularity": "auto",
    "ship_primaries": True,
    "cache_max_entries": None,
    "dispatch": "streaming",
    "chunk_target_ms": 500,
    "events_path": None,
    "warm_tier": True,
    "speculate": False,
    "fault_plan": None,
    "max_pool_respawns": 2,
    "max_task_retries": 2,
    "task_deadline_ms": 0,
}


def pool_workers() -> int:
    """One worker per CPU this process may run on (``nproc``), at least 2."""
    return max(2, len(os.sched_getaffinity(0)))


def program_order(workload: BenchWorkload, seed: int) -> List[str]:
    """The batch's programs in the order the seed picks."""
    return random.Random(seed).sample(list(workload.programs), len(workload.programs))


def pinned(cls, values: Dict) -> Tuple[object, List[str], List[str]]:
    """Build ``cls`` from ``values``; also return the pinned names the class
    no longer has and the class's fields left unpinned.

    A later change may delete an option (the code behind it is gone) or add
    one; neither should stop the benchmark, but both are reported.
    """
    names = {field.name for field in dataclasses.fields(cls)}
    instance = cls(**{key: value for key, value in values.items() if key in names})
    return instance, sorted(set(values) - names), sorted(names - set(values))


def build_settings(pooled: bool, cache_dir: Optional[str]):
    """``(PortendConfig, EngineOptions, notes)``: serial, or on a pool of
    :func:`pool_workers` workers."""
    from repro.core.config import PortendConfig
    from repro.engine import EngineOptions

    config, gone_c, free_c = pinned(PortendConfig, PINNED_CONFIG)
    options_values = dict(PINNED_OPTIONS)
    options_values["parallel"] = pool_workers() if pooled else 0
    options_values["cache_dir"] = cache_dir
    options, gone_o, free_o = pinned(EngineOptions, options_values)
    notes = [f"PortendConfig.{name} no longer exists" for name in gone_c]
    notes += [f"PortendConfig.{name} is not pinned" for name in free_c]
    notes += [f"EngineOptions.{name} no longer exists" for name in gone_o]
    notes += [f"EngineOptions.{name} is not pinned" for name in free_o]
    return config, options, notes


def load_batch(names: Sequence[str]):
    """Registry builds of ``names`` (``load_workload`` finalizes each program)."""
    from repro.workloads import load_workload

    return [load_workload(name) for name in names]
