"""Fig. 10: classification accuracy as a function of k = Mp x Ma."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config import PortendConfig
from repro.experiments.metrics import score_workload
from repro.experiments.runner import analyze_workload
from repro.workloads import load_workload

PROGRAMS = ("pbzip2", "ctrace", "memcached", "bbuf")
DEFAULT_K_VALUES = (1, 3, 5, 7, 9, 11)


@dataclass
class Fig10Result:
    #: accuracy[program][k] in [0, 1]
    accuracy: Dict[str, Dict[int, float]] = field(default_factory=dict)


def run(
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    programs: Sequence[str] = PROGRAMS,
    base_config: Optional[PortendConfig] = None,
    parallel: int = 0,
    cache_dir: Optional[str] = None,
    granularity: str = "auto",
    dispatch: str = "streaming",
    solver: Optional[str] = None,
    events: Optional[str] = None,
    chunk_target_ms: int = 500,
    warm_tier: Optional[bool] = None,
    speculate: Optional[bool] = None,
) -> Fig10Result:
    base = base_config or PortendConfig()
    result = Fig10Result()
    for name in programs:
        result.accuracy[name] = {}
        for k in k_values:
            workload = load_workload(name)
            config = base.with_k(k)
            run_ = analyze_workload(
                workload,
                config=config,
                parallel=parallel,
                cache_dir=cache_dir,
                granularity=granularity,
                dispatch=dispatch,
                solver=solver,
                events=events,
                chunk_target_ms=chunk_target_ms,
                warm_tier=warm_tier,
                speculate=speculate,
            )
            score = score_workload(workload, run_.result.classified)
            result.accuracy[name][k] = score.accuracy
    return result


def render(result: Fig10Result) -> str:
    k_values = sorted({k for series in result.accuracy.values() for k in series})
    header = f"{'Program':<12} " + " ".join(f"k={k:<4}" for k in k_values)
    lines = ["Fig. 10: accuracy with increasing values of k", header, "-" * len(header)]
    for program, series in result.accuracy.items():
        lines.append(
            f"{program:<12} "
            + " ".join(f"{100 * series.get(k, 0.0):>4.0f}%" for k in k_values)
        )
    return "\n".join(lines)
