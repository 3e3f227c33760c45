"""Tests for repeated-seed replication."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.obs import Probe
from repro.sim import replication as replication_mod
from repro.sim.replication import (
    ReplicationSpec,
    execute_replication,
    run_replications,
)

SMALL_NETWORK = (
    ("num_base_stations", 3),
    ("num_clusters", 2),
    ("servers_per_cluster", 2),
    ("num_macro_stations", 1),
)


def small_spec(**overrides) -> ReplicationSpec:
    fields = dict(
        num_devices=8,
        horizon=6,
        z=1,
        network_overrides=SMALL_NETWORK,
    )
    fields.update(overrides)
    return ReplicationSpec(**fields)


class TestSpec:
    def test_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            ReplicationSpec(solver="gurobi")
        with pytest.raises(ConfigurationError):
            ReplicationSpec(horizon=0)
        with pytest.raises(ConfigurationError):
            ReplicationSpec(engine_backend="cuda")

    def test_spec_is_hashable_and_picklable(self) -> None:
        import pickle

        spec = small_spec()
        assert hash(spec)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestExecution:
    def test_single_replication_outcome(self) -> None:
        outcome = execute_replication((small_spec(), 3))
        assert outcome.seed == 3
        assert outcome.mean_latency > 0.0
        assert outcome.mean_cost > 0.0
        assert outcome.budget > 0.0

    def test_deterministic_per_seed(self) -> None:
        a = execute_replication((small_spec(), 5))
        b = execute_replication((small_spec(), 5))
        assert a.mean_latency == pytest.approx(b.mean_latency)
        assert a.mean_cost == pytest.approx(b.mean_cost)

    def test_solvers_run(self) -> None:
        for solver in ("bdma", "ropt", "mcba"):
            outcome = execute_replication((small_spec(solver=solver), 1))
            assert np.isfinite(outcome.mean_latency)


class TestAggregation:
    def test_sequential_report(self) -> None:
        report = run_replications(small_spec(), seeds=(0, 1, 2))
        assert len(report.outcomes) == 3
        assert report.latency is not None
        assert report.latency.num_runs == 3
        assert report.latency.ci_low <= report.latency.mean <= report.latency.ci_high
        assert 0.0 <= report.budget_satisfaction_rate() <= 1.0

    def test_parallel_matches_sequential(self) -> None:
        seeds = (0, 1)
        sequential = run_replications(small_spec(), seeds=seeds)
        parallel = run_replications(small_spec(), seeds=seeds, processes=2)
        for a, b in zip(sequential.outcomes, parallel.outcomes):
            assert a.seed == b.seed
            assert a.mean_latency == pytest.approx(b.mean_latency)

    def test_empty_seeds_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            run_replications(small_spec(), seeds=())

    def test_bdma_beats_ropt_across_seeds(self) -> None:
        seeds = (0, 1, 2)
        bdma = run_replications(small_spec(horizon=12), seeds=seeds)
        ropt = run_replications(
            small_spec(horizon=12, solver="ropt"), seeds=seeds
        )
        assert bdma.latency is not None and ropt.latency is not None
        assert bdma.latency.mean < ropt.latency.mean


class ListSink:
    def __init__(self) -> None:
        self.items: list[dict] = []

    def emit(self, event: dict) -> None:
        self.items.append(event)

    def close(self) -> None:
        pass

    def events(self, name: str) -> list[dict]:
        return [
            e["data"]
            for e in self.items
            if e["kind"] == "event" and e["name"] == name
        ]

    def counter(self, name: str) -> float:
        return sum(
            e["value"]
            for e in self.items
            if e["kind"] == "counter" and e["name"] == name
        )


class TestFailureSalvage:
    def test_crashing_seed_lands_in_failed_seeds(self) -> None:
        sink = ListSink()
        report = run_replications(
            small_spec(fail_seeds=(2,)),
            seeds=(1, 2, 3),
            max_retries=1,
            retry_backoff_seconds=0.0,
            tracer=Probe([sink]),
        )
        assert report.failed_seeds == [2]
        assert [o.seed for o in report.outcomes] == [1, 3]
        assert report.latency is not None and report.latency.num_runs == 2
        # One retry was attempted and recorded before giving up.
        retries = sink.events("replication.retry")
        assert [r["seed"] for r in retries] == [2]
        failed = sink.events("replication.seed_failed")
        assert failed == [
            {"seed": 2, "attempts": 2, "error": failed[0]["error"]}
        ]
        assert "injected failure" in failed[0]["error"]
        assert sink.counter("resilience.retries") == 1
        assert sink.counter("resilience.seed_failures") == 1

    def test_parallel_pool_salvages_around_a_crashing_seed(self) -> None:
        report = run_replications(
            small_spec(fail_seeds=(2,)),
            seeds=(1, 2, 3),
            processes=2,
            max_retries=0,
            retry_backoff_seconds=0.0,
        )
        assert report.failed_seeds == [2]
        assert [o.seed for o in report.outcomes] == [1, 3]

    def test_flaky_seed_succeeds_on_retry(self) -> None:
        replication_mod._FLAKY_ATTEMPTS.clear()
        sink = ListSink()
        report = run_replications(
            small_spec(flaky_seeds=(5,)),
            seeds=(4, 5),
            max_retries=2,
            retry_backoff_seconds=0.0,
            tracer=Probe([sink]),
        )
        assert report.failed_seeds == []
        assert [o.seed for o in report.outcomes] == [4, 5]
        assert [r["attempt"] for r in sink.events("replication.retry")] == [1]
        assert sink.events("replication.seed_failed") == []

    def test_all_seeds_failing_yields_an_empty_report(self) -> None:
        report = run_replications(
            small_spec(fail_seeds=(1, 2)),
            seeds=(1, 2),
            max_retries=0,
            retry_backoff_seconds=0.0,
        )
        assert report.outcomes == []
        assert report.failed_seeds == [1, 2]
        assert report.budget == 0.0
        assert report.latency is None and report.cost is None
        assert report.budget_satisfaction_rate() == 0.0
        with pytest.raises(ConfigurationError, match="all 2 seeds failed"):
            report.summary()

    def test_summary_counts_failed_runs(self) -> None:
        report = run_replications(
            small_spec(fail_seeds=(9,)),
            seeds=(1, 9),
            max_retries=0,
            retry_backoff_seconds=0.0,
        )
        summary = report.summary()
        assert summary.runs == 1
        assert summary.failed_runs == 1
        assert summary.to_dict()["failed_runs"] == 1

    def test_retry_knob_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            run_replications(small_spec(), seeds=(0,), max_retries=-1)
        with pytest.raises(ConfigurationError):
            run_replications(small_spec(), seeds=(0,), timeout_seconds=0.0)

    def test_resilient_path_matches_plain_outcomes(self) -> None:
        seeds = (0, 1)
        plain = run_replications(small_spec(), seeds=seeds)
        resilient = run_replications(
            small_spec(), seeds=seeds, max_retries=1,
            retry_backoff_seconds=0.0,
        )
        for a, b in zip(plain.outcomes, resilient.outcomes):
            assert a.seed == b.seed
            assert a.mean_latency == pytest.approx(b.mean_latency)
