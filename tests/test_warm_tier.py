"""Tests for the persistent solver warm tier, cost-aware granularity, and
speculative path submission.

Covers the cold-start work: sidecar round-trip/versioning/corruption units
for ``solver_warm/<fingerprint>.json``, warm-load bit-equivalence of a
second engine run, the cost model's primary-count history and capped
eviction, the cost-aware ``choose_granularity`` refinement, and hit/miss
determinism of speculative path submission under the shuffled-completion
fake-pool harness.
"""

import glob
import json
import os
import random

import pytest

from repro.core.config import PortendConfig
from repro.engine import AnalysisEngine, EngineOptions, PoolDispatcher
from repro.engine.cache import collect_cache_info, render_cache_info
from repro.engine.engine import (
    _SPECULATION_CAP,
    _prune_warm_tier_dir,
    choose_granularity,
)
from repro.engine.costmodel import SIDECAR_MAX_ENTRIES, CostModel, prune_scored
from repro.engine.events import fold_events, make_event, render_events_info
from repro.symex.expr import Op, SymVar, make_binary
from repro.symex.solver import (
    WARM_TIER_VERSION,
    Solver,
    WorkerSolverCache,
    load_warm_tier,
    reset_worker_caches,
    save_warm_tier,
    set_warm_tier_dir,
    warm_tier_path,
    worker_solver_cache,
)

from test_streaming import _DeferredPool, _full_signature, _shuffled_wait


def _constraints(seed: int):
    x = SymVar(f"wt{seed}", 0, 10)
    return [make_binary(Op.GE, x, seed % 4), make_binary(Op.LT, x, 7)]


def _populated_cache(queries=3):
    """A worker-lifetime cache filled by real solver queries."""
    cache = WorkerSolverCache()
    solver = Solver(shared_cache=cache)
    answers = {}
    for seed in range(queries):
        answers[seed] = solver.check(_constraints(seed))
    return cache, answers


class TestWarmTierSidecar:
    def test_round_trip_preserves_verdicts_and_models(self, tmp_path):
        cache, answers = _populated_cache()
        assert save_warm_tier(str(tmp_path), "prog-rt", cache)
        path = warm_tier_path(str(tmp_path), "prog-rt")
        assert os.path.isfile(path)

        fresh = WorkerSolverCache()
        loaded = load_warm_tier(str(tmp_path), "prog-rt", fresh)
        assert loaded == len(cache.check)
        assert fresh.warm_loaded == loaded
        # Rebuilt keys are structurally equal to the live ones, entries carry
        # owner 0 (no attached solver's id), and verdict/model are intact.
        for key, (owner, verdict, model) in cache.check.items():
            assert key in fresh.check
            warm_owner, warm_verdict, warm_model = fresh.check[key]
            assert warm_owner == 0
            assert warm_verdict == verdict
            assert warm_model == model

    def test_warm_hit_is_bit_identical_and_counts_worker_hit(self, tmp_path):
        cache, answers = _populated_cache()
        save_warm_tier(str(tmp_path), "prog-hit", cache)
        fresh = WorkerSolverCache()
        load_warm_tier(str(tmp_path), "prog-hit", fresh)
        solver = Solver(shared_cache=fresh)
        for seed, cold_answer in answers.items():
            assert solver.check(_constraints(seed)) == cold_answer
        assert solver.stats.worker_cache_hits == len(answers)
        assert solver.stats.cache_misses == 0

    def test_missing_sidecar_loads_nothing(self, tmp_path):
        fresh = WorkerSolverCache()
        assert load_warm_tier(str(tmp_path), "absent", fresh) == 0
        assert fresh.check == {} and fresh.warm_loaded == 0

    def test_wrong_version_is_ignored(self, tmp_path):
        cache, _ = _populated_cache()
        save_warm_tier(str(tmp_path), "prog-v", cache)
        path = warm_tier_path(str(tmp_path), "prog-v")
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["version"] = WARM_TIER_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        fresh = WorkerSolverCache()
        assert load_warm_tier(str(tmp_path), "prog-v", fresh) == 0

    def test_corrupt_sidecar_is_ignored(self, tmp_path):
        path = warm_tier_path(str(tmp_path), "prog-c")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        fresh = WorkerSolverCache()
        assert load_warm_tier(str(tmp_path), "prog-c", fresh) == 0

    def test_entry_cap_keeps_hottest(self, tmp_path):
        cache, _ = _populated_cache(queries=4)
        # Re-query one constraint set so it has strictly more hits.
        solver = Solver(shared_cache=cache)
        hot = solver.check(_constraints(2))
        save_warm_tier(str(tmp_path), "prog-cap", cache, max_entries=1)
        fresh = WorkerSolverCache()
        assert load_warm_tier(str(tmp_path), "prog-cap", fresh) == 1
        survivor = Solver(shared_cache=fresh)
        assert survivor.check(_constraints(2)) == hot
        assert survivor.stats.worker_cache_hits == 1

    def test_save_is_deterministic_bytes(self, tmp_path):
        cache, _ = _populated_cache()
        save_warm_tier(str(tmp_path), "prog-d", cache)
        with open(warm_tier_path(str(tmp_path), "prog-d"), "rb") as handle:
            first = handle.read()
        save_warm_tier(str(tmp_path), "prog-d", cache)
        with open(warm_tier_path(str(tmp_path), "prog-d"), "rb") as handle:
            assert handle.read() == first

    def test_worker_cache_loads_tier_when_armed(self, tmp_path):
        cache, answers = _populated_cache()
        save_warm_tier(str(tmp_path), "prog-arm", cache)
        reset_worker_caches()
        previous = set_warm_tier_dir(str(tmp_path))
        try:
            state = worker_solver_cache("prog-arm")
            assert state.warm_loaded == len(answers)
        finally:
            set_warm_tier_dir(previous)
            reset_worker_caches()

    def test_prune_warm_tier_dir_keeps_most_recent(self, tmp_path):
        directory = tmp_path / "solver_warm"
        directory.mkdir()
        for index in range(6):
            path = directory / f"fp{index}.json"
            path.write_text("{}")
            stamp = 1_000_000 + index
            os.utime(path, (stamp, stamp))
        _prune_warm_tier_dir(str(tmp_path), limit=2)
        assert sorted(p.name for p in directory.iterdir()) == ["fp4.json", "fp5.json"]


class TestWarmTierEngine:
    def _analyze(self, cache_dir, warm_tier=True, backend=None):
        config = None if backend is None else PortendConfig(solver_backend=backend)
        engine = AnalysisEngine(
            config=config,
            options=EngineOptions(
                parallel=0,
                cache_dir=cache_dir,
                granularity="path",
                warm_tier=warm_tier,
            ),
        )
        runs = engine.analyze(names=["stress_deep"])
        return _full_signature(runs), engine.last_run_stats

    def _cold_then_warm(self, cache_dir, backend):
        cold_signature, cold = self._analyze(cache_dir, backend=backend)
        assert os.path.isdir(os.path.join(cache_dir, "solver_warm"))
        # Drop the classification cache so the second run re-classifies and
        # actually queries the solver -- against warm-loaded entries.
        for path in glob.glob(os.path.join(cache_dir, "*-cls-*.json")):
            os.unlink(path)
        warm_signature, warm = self._analyze(cache_dir, backend=backend)
        assert warm_signature == cold_signature
        assert warm.worker_cache_hits > 0
        return cold, warm

    def test_warm_second_run_is_bit_identical_and_cheaper(self, tmp_path):
        cold, warm = self._cold_then_warm(str(tmp_path), backend="default")
        assert warm.solver_assignments_enumerated < cold.solver_assignments_enumerated

    def test_warm_second_run_under_the_portfolio_backend(self, tmp_path):
        # The portfolio's interval fast path answers every stress_deep query
        # without enumerating, cold or warm, so there is no enumeration for
        # the warm tier to save; its entries are still hit.
        cold, warm = self._cold_then_warm(str(tmp_path), backend="portfolio")
        assert cold.solver_assignments_enumerated == 0
        assert warm.solver_assignments_enumerated == 0

    def test_disabled_tier_stays_cold(self, tmp_path):
        cache_dir = str(tmp_path)
        _signature, cold = self._analyze(cache_dir, warm_tier=False)
        assert not os.path.isdir(os.path.join(cache_dir, "solver_warm"))
        for path in glob.glob(os.path.join(cache_dir, "*-cls-*.json")):
            os.unlink(path)
        _signature, second = self._analyze(cache_dir, warm_tier=False)
        assert (
            second.solver_assignments_enumerated == cold.solver_assignments_enumerated
        )

    def test_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_WARM_TIER", raising=False)
        monkeypatch.delenv("REPRO_SPECULATE", raising=False)
        assert EngineOptions().warm_tier is True
        assert EngineOptions().speculate is False
        monkeypatch.setenv("REPRO_WARM_TIER", "0")
        monkeypatch.setenv("REPRO_SPECULATE", "1")
        assert EngineOptions().warm_tier is False
        assert EngineOptions().speculate is True

    def test_cache_info_reports_sidecar_tiers(self, tmp_path):
        cache_dir = str(tmp_path)
        self._analyze(cache_dir)
        rows = collect_cache_info(cache_dir)
        kinds = {row["kind"] for row in rows}
        assert "costmodel" in kinds
        assert "solver_warm" in kinds
        costmodel_rows = [row for row in rows if row["kind"] == "costmodel"]
        assert costmodel_rows[0]["file"] == "costmodel.json"
        assert costmodel_rows[0]["hits"] > 0  # total recorded observations
        rendered = render_cache_info(rows)
        assert "costmodel" in rendered and "solver_warm" in rendered


class TestCostAwareGranularity:
    def test_shape_rules_unchanged_when_cold(self):
        assert choose_granularity(1, 0) == "race"
        assert choose_granularity(1, 4) == "path"
        assert choose_granularity(8, 4) == "race"
        assert choose_granularity(1, 4, race_cost=0.0, split_cost=0.0) == "path"

    def test_expensive_split_downgrades_to_race(self):
        assert choose_granularity(1, 4, race_cost=0.1, split_cost=0.2) == "race"
        assert choose_granularity(1, 4, race_cost=0.1, split_cost=0.1) == "race"

    def test_cheap_split_keeps_path(self):
        assert choose_granularity(1, 4, race_cost=0.2, split_cost=0.1) == "path"

    def test_many_races_win_over_costs(self):
        assert choose_granularity(8, 4, race_cost=0.2, split_cost=0.1) == "race"

    def test_split_costs_cold_and_warm(self):
        model = CostModel()
        assert model.split_costs("fp") == (0.0, 0.0)
        model.observe("classify", "fp", 0.4)
        race_cost, split_cost = model.split_costs("fp")
        assert race_cost == pytest.approx(0.4)
        assert split_cost == 0.0  # no plan/path history yet: no opinion
        model.observe("plan", "fp", 0.1)
        model.observe("path", "fp", 0.05)
        race_cost, split_cost = model.split_costs("fp")
        assert split_cost == pytest.approx(0.15)


class TestPrimariesHistory:
    def test_predict_prefers_race_key_then_fingerprint(self):
        model = CostModel()
        assert model.predict_primaries("fp", 1) == 0
        model.observe_plan("fp", 1, 4)
        model.observe_plan("fp", 2, 8)
        assert model.predict_primaries("fp", 1) == 4
        assert model.predict_primaries("fp", 2) == 8
        # Unseen race falls back to the per-fingerprint aggregate.
        assert model.predict_primaries("fp", 3) > 0

    def test_conclusive_races_learn_zero(self):
        model = CostModel()
        for _ in range(5):
            model.observe_plan("fp", 7, 0)
        assert model.predict_primaries("fp", 7) == 0

    def test_snapshot_is_frozen(self):
        model = CostModel()
        model.observe_plan("fp", 1, 4)
        snapshot = model.primaries_snapshot()
        model.observe_plan("fp", 1, 40)
        model.observe_plan("fp", 1, 40)
        assert model.predict_primaries("fp", 1, table=snapshot) == 4
        assert model.predict_primaries("fp", 1) > 4

    def test_sidecar_round_trip_includes_primaries(self, tmp_path):
        path = str(tmp_path / "costmodel.json")
        model = CostModel(sidecar_path=path)
        model.observe("classify", "fp", 0.2)
        model.observe_plan("fp", 3, 6)
        assert model.save()
        reloaded = CostModel(sidecar_path=path)
        assert reloaded.predict_primaries("fp", 3) == 6
        assert reloaded.estimate("classify", "fp") == pytest.approx(0.2)

    def test_save_applies_capped_eviction(self, tmp_path):
        path = str(tmp_path / "costmodel.json")
        model = CostModel(sidecar_path=path)
        for index in range(SIDECAR_MAX_ENTRIES + 40):
            model.observe_plan(f"fp{index}", 1, 2)
        assert model.save()
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert len(payload["primaries"]) <= SIDECAR_MAX_ENTRIES

    def test_prune_scored_keeps_top_by_score(self):
        items = {"a": 1, "b": 5, "c": 3}
        kept = prune_scored(items, 2, lambda _key, value: float(value))
        assert kept == {"b": 5, "c": 3}
        assert prune_scored(items, 0, lambda _key, value: 0.0) == {}
        assert prune_scored(items, 9, lambda _key, value: 0.0) == items


def _shuffled_engine_run(monkeypatch, seed, options, names):
    """One streaming engine run under the shuffled fake-pool harness."""
    rng = random.Random(seed)
    pool = _DeferredPool()
    monkeypatch.setattr(PoolDispatcher, "warm", lambda self: None)
    monkeypatch.setattr(PoolDispatcher, "acquire_for", lambda self, payloads: pool)
    monkeypatch.setattr(
        PoolDispatcher,
        "map",
        lambda self, payloads, worker: [worker(p) for p in payloads],
    )
    monkeypatch.setattr("repro.engine.engine.wait", _shuffled_wait(pool, rng))
    engine = AnalysisEngine(options=options)
    runs = engine.analyze(names=names)
    return _full_signature(runs), engine.last_run_stats


class TestSpeculation:
    def _warm_history(self, cache_dir, names):
        """Serial path-granularity run: records traces, learns the per-race
        primary counts into costmodel.json, and fills the caches."""
        engine = AnalysisEngine(
            options=EngineOptions(parallel=0, cache_dir=cache_dir, granularity="path")
        )
        runs = engine.analyze(names=names)
        return _full_signature(runs)

    def _drop_classifications(self, cache_dir):
        for path in glob.glob(os.path.join(cache_dir, "*-cls-*.json")):
            os.unlink(path)

    def test_speculation_is_deterministic_under_shuffled_completion(
        self, monkeypatch, tmp_path
    ):
        # Each seed runs against an identical starting state (its own warm
        # cache directory): the prediction inputs are frozen at drain start,
        # so hit/waste counts cannot depend on the completion interleaving
        # -- every seed must land on the same counters and verdicts.
        names = ["bbuf", "RW"]
        counters = set()
        for seed in (0, 1, 7):
            cache_dir = str(tmp_path / f"seed{seed}")
            reference = self._warm_history(cache_dir, names)
            self._drop_classifications(cache_dir)
            signature, stats = _shuffled_engine_run(
                monkeypatch,
                seed,
                EngineOptions(
                    parallel=2,
                    cache_dir=cache_dir,
                    granularity="path",
                    dispatch="streaming",
                    speculate=True,
                ),
                names,
            )
            assert signature == reference
            assert stats.speculation_hits > 0
            counters.add((stats.speculation_hits, stats.speculation_wasted))
        assert len(counters) == 1

    def test_misprediction_is_discarded_not_merged(self, monkeypatch, tmp_path):
        cache_dir = str(tmp_path)
        names = ["bbuf"]
        reference = self._warm_history(cache_dir, names)
        # Inflate every recorded primary count so each race predicts more
        # primaries than its plan will confirm: the overshoot must be
        # discarded (counted as waste) without touching the verdicts.
        model = CostModel(sidecar_path=os.path.join(cache_dir, "costmodel.json"))
        assert model.primaries_snapshot()  # the warm run recorded history
        for key in model.primaries_snapshot():
            model._primaries[key] = [float(_SPECULATION_CAP), 8]
        assert model.save()
        self._drop_classifications(cache_dir)
        signature, stats = _shuffled_engine_run(
            monkeypatch,
            3,
            EngineOptions(
                parallel=2,
                cache_dir=cache_dir,
                granularity="path",
                dispatch="streaming",
                speculate=True,
            ),
            names,
        )
        assert signature == reference
        assert stats.speculation_wasted > 0

    def test_speculation_off_by_default(self, monkeypatch, tmp_path):
        cache_dir = str(tmp_path)
        names = ["bbuf"]
        reference = self._warm_history(cache_dir, names)
        self._drop_classifications(cache_dir)
        signature, stats = _shuffled_engine_run(
            monkeypatch,
            0,
            EngineOptions(
                parallel=2,
                cache_dir=cache_dir,
                granularity="path",
                dispatch="streaming",
            ),
            names,
        )
        assert signature == reference
        assert stats.speculation_hits == 0
        assert stats.speculation_wasted == 0

    def test_speculation_event_folds_into_stats(self):
        events = [
            make_event("speculation", workload="w", race=1, predicted=4, hits=3, wasted=1),
            make_event("speculation", workload="w", race=2, predicted=2, hits=2, wasted=0),
        ]
        stats = fold_events(events)
        assert stats.speculation_hits == 5
        assert stats.speculation_wasted == 1
        rendered = render_events_info(events)
        assert "speculation:" in rendered
        assert "hits=5" in rendered and "wasted=1" in rendered
