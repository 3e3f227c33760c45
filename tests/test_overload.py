"""Tests for the overload-protection layer.

Covers the :class:`~repro.core.overload.OverloadPolicy` unit behaviour
(watermark validation, hysteresis, deterministic shed selection), the
shed algebra on slot states, and the controller integration: a run
driven past its budget keeps the virtual-queue backlog bounded, every
shed task is accounted on the :class:`~repro.core.controller.SlotRecord`
and the ``repro_shed_tasks_total`` telemetry counter, the
:class:`~repro.obs.monitors.OverloadMonitor` raises the health alert,
and overloaded sharded runs stay bit-identical across runtimes (the
hysteresis flag rides the controller's ``state_dict``).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import sharding
from repro.core.overload import OverloadPolicy, shed_tasks
from repro.exceptions import ConfigurationError
from repro.obs import MetricsRegistry


def overload_scenario(seed: int = 11) -> repro.Scenario:
    """A scenario with a starved budget, so the queue grows fast."""
    return repro.make_paper_scenario(
        seed,
        config=repro.ScenarioConfig(num_devices=24, budget_fraction=0.02),
    )


class TestOverloadPolicy:
    def test_invalid_watermarks_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="high_watermark"):
            OverloadPolicy(high_watermark=0.0)
        with pytest.raises(ConfigurationError, match="low_watermark"):
            OverloadPolicy(high_watermark=1.0, low_watermark=1.0)
        with pytest.raises(ConfigurationError, match="low_watermark"):
            OverloadPolicy(high_watermark=1.0, low_watermark=-0.5)

    def test_invalid_shed_fraction_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="shed_fraction"):
            OverloadPolicy(high_watermark=1.0, shed_fraction=0.0)
        with pytest.raises(ConfigurationError, match="shed_fraction"):
            OverloadPolicy(high_watermark=1.0, shed_fraction=1.5)

    def test_low_watermark_defaults_to_half(self) -> None:
        assert OverloadPolicy(high_watermark=8.0).low_watermark == 4.0

    def test_hysteresis_band(self) -> None:
        policy = OverloadPolicy(high_watermark=10.0, low_watermark=4.0)
        assert not policy.engaged(False, 9.9)
        assert policy.engaged(False, 10.0)
        # Once engaged the controller stays overloaded inside the band
        # and recovers only below the low watermark.
        assert policy.engaged(True, 9.9)
        assert policy.engaged(True, 4.1)
        assert not policy.engaged(True, 4.0)

    def test_select_heaviest_first_ties_by_index(self) -> None:
        policy = OverloadPolicy(high_watermark=1.0, shed_fraction=0.5)
        cycles = np.array([2.0, 5.0, 0.0, 5.0, 1.0])
        # Four active devices -> ceil(0.5 * 4) = 2 shed; the tied
        # heaviest (devices 1 and 3) resolve by index, stably.
        np.testing.assert_array_equal(policy.select(cycles), [1, 3])

    def test_select_ignores_idle_devices(self) -> None:
        policy = OverloadPolicy(high_watermark=1.0, shed_fraction=1.0)
        np.testing.assert_array_equal(
            policy.select(np.array([0.0, 3.0, 0.0])), [1]
        )
        assert policy.select(np.zeros(4)).size == 0

    def test_shed_tasks_zeroes_demand_keeps_coverage(self) -> None:
        scenario = overload_scenario()
        state = next(iter(scenario.fresh_states(1)))
        out = shed_tasks(state, np.array([0, 2]))
        assert out.cycles[0] == 0.0 and out.bits[2] == 0.0
        untouched = np.setdiff1d(np.arange(len(state.cycles)), [0, 2])
        np.testing.assert_array_equal(
            out.cycles[untouched], state.cycles[untouched]
        )
        np.testing.assert_array_equal(out.coverage(), state.coverage())
        # Empty shed is the identity, not a copy.
        assert shed_tasks(state, np.array([], dtype=int)) is state


class TestControllerIntegration:
    POLICY = OverloadPolicy(high_watermark=10.0, shed_fraction=0.5)

    def test_backlog_bounded_and_fully_accounted(self) -> None:
        horizon = 40
        baseline = repro.api.run(
            scenario=overload_scenario(), horizon=horizon
        )
        registry = MetricsRegistry()
        result = repro.api.run(
            scenario=overload_scenario(),
            horizon=horizon,
            overload=self.POLICY,
            keep_records=True,
            metrics_registry=registry,
            monitors=True,
        )
        # The starved baseline queue keeps climbing; admission control
        # caps the overloaded run well below it.
        assert baseline.backlog[-1] > 2 * self.POLICY.high_watermark
        assert result.backlog.max() < baseline.backlog.max()
        # Every shed task is accounted on the slot records and the
        # records agree exactly with the telemetry counter.
        shed_total = sum(len(record.shed) for record in result.records)
        assert shed_total > 0
        assert registry.counter(
            "repro_shed_tasks_total"
        ).value() == float(shed_total)
        assert not np.isnan(
            registry.gauge("repro_overload_state").value()
        )
        # The health report carries the overload warning.
        assert result.health is not None
        overload_status = {
            s.name: s for s in result.health.statuses
        }["overload"]
        assert overload_status.status == "warning"
        assert any(
            alert.monitor == "overload" for alert in result.health.alerts
        )

    def test_clean_run_stays_ok(self) -> None:
        result = repro.api.run(
            horizon=6,
            seed=3,
            overload=OverloadPolicy(high_watermark=1e9),
            keep_records=True,
            monitors=True,
        )
        assert all(not record.shed for record in result.records)
        status = {s.name: s for s in result.health.statuses}["overload"]
        assert status.status == "ok"
        assert status.detail == "no overload activity"

    def test_records_omit_shed_when_empty(self) -> None:
        result = repro.api.run(horizon=2, seed=3, keep_records=True)
        assert "shed" not in result.records[0].to_dict()

    def test_state_dict_round_trips_hysteresis(self) -> None:
        scenario = overload_scenario()
        controller = repro.api.make_controller(
            "dpp", scenario, overload=self.POLICY
        )
        controller._overloaded = True
        state = controller.state_dict()
        assert state["overload_active"] is True
        fresh = repro.api.make_controller(
            "dpp", overload_scenario(), overload=self.POLICY
        )
        fresh.load_state_dict(state)
        assert fresh._overloaded is True
        # Old snapshots without the key load as not-overloaded.
        state.pop("overload_active")
        fresh.load_state_dict(state)
        assert fresh._overloaded is False


class TestShardedOverload:
    def test_sequential_and_resident_match_under_overload(self) -> None:
        policy = OverloadPolicy(high_watermark=10.0, shed_fraction=0.5)

        def run(**extra):
            return sharding.run_sharded(
                overload_scenario(),
                horizon=6,
                cells=2,
                epoch=2,
                overload=policy,
                **extra,
            )

        sequential = run()
        resident = run(processes=2)
        for left, right in zip(
            (
                sequential.merged.latency,
                sequential.merged.cost,
                sequential.merged.backlog,
            ),
            (
                resident.merged.latency,
                resident.merged.cost,
                resident.merged.backlog,
            ),
        ):
            np.testing.assert_array_equal(left, right)

    def test_overload_policy_survives_run_config(self) -> None:
        policy = OverloadPolicy(high_watermark=5.0)
        config = repro.RunConfig(
            controller="dpp", horizon=4, controller_params={"overload": policy}
        )
        out = config.to_dict()["controller_params"]["overload"]
        assert out == {
            "high_watermark": 5.0,
            "low_watermark": 2.5,
            "shed_fraction": 0.25,
        }
