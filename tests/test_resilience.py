"""Tests for degraded-mode execution (repro.core.resilience)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro
from repro.core.resilience import (
    ResiliencePolicy,
    SolverChaos,
    fallback_decision,
    find_infeasible_devices,
    quarantine_state,
)
from repro.core.state import SlotState, validate_decision
from repro.exceptions import ConfigurationError, InfeasibleError, SolverError
from repro.network.connectivity import StrategySpace
from repro.obs import Probe

from conftest import make_tiny_network, make_tiny_state


class ListSink:
    def __init__(self) -> None:
        self.items: list[dict] = []

    def emit(self, event: dict) -> None:
        self.items.append(event)

    def close(self) -> None:
        pass

    def counters(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for e in self.items:
            if e["kind"] == "counter":
                out[e["name"]] = out.get(e["name"], 0.0) + e["value"]
        return out

    def events(self, name: str) -> list[dict]:
        return [
            e["data"]
            for e in self.items
            if e["kind"] == "event" and e["name"] == name
        ]


def stranded_state() -> SlotState:
    """Tiny state where device 2 covers nothing: empty strategy set."""
    base = make_tiny_state()
    h = base.spectral_efficiency.copy()
    h[2, :] = 0.0
    return dataclasses.replace(base, spectral_efficiency=h)


class TestSolverChaos:
    def test_validation(self) -> None:
        with pytest.raises(ConfigurationError):
            SolverChaos(failure_rate=1.5)
        with pytest.raises(ConfigurationError):
            SolverChaos(failure_rate=-0.1)

    def test_fail_slots_always_trip(self) -> None:
        chaos = SolverChaos(fail_slots=(3, 7))
        assert chaos.trips(3) and chaos.trips(7)
        assert not chaos.trips(4)

    def test_rate_is_deterministic_and_roughly_calibrated(self) -> None:
        chaos = SolverChaos(failure_rate=0.25, seed=5)
        first = [chaos.trips(t) for t in range(400)]
        second = [chaos.trips(t) for t in range(400)]
        assert first == second  # stateless in t: checkpoint-safe
        assert 0.15 < np.mean(first) < 0.35

    def test_zero_rate_never_trips(self) -> None:
        chaos = SolverChaos(failure_rate=0.0)
        assert not any(chaos.trips(t) for t in range(100))


class TestPolicyValidation:
    def test_bad_deadline_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(deadline_seconds=0.0)

    def test_bad_iteration_cap_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(max_engine_iter=0)


class TestQuarantine:
    def test_find_infeasible_devices(self) -> None:
        network = make_tiny_network()
        assert find_infeasible_devices(network, make_tiny_state()).size == 0
        bad = find_infeasible_devices(network, stranded_state())
        assert bad.tolist() == [2]

    def test_quarantine_state_is_feasible_and_inert(self) -> None:
        network = make_tiny_network()
        state = quarantine_state(
            network, stranded_state(), np.array([2], dtype=np.int64)
        )
        assert state.cycles[2] == 0.0 and state.bits[2] == 0.0
        # The placeholder link keeps the strategy space constructible.
        space = StrategySpace(network, state.coverage(), state.available_servers)
        ks, _ = space.pairs(2)
        assert ks.size > 0

    def test_noop_without_quarantined_devices(self) -> None:
        state = make_tiny_state()
        out = quarantine_state(
            make_tiny_network(), state, np.array([], dtype=np.int64)
        )
        assert out is state

    def test_controller_quarantines_and_records(self) -> None:
        network = make_tiny_network()
        sink = ListSink()
        probe = Probe([sink])
        controller = repro.DPPController(
            network, np.random.default_rng(0), v=50.0, budget=20.0, z=1,
            resilience=ResiliencePolicy(), tracer=probe,
        )
        record = controller.step(stranded_state())
        assert record.quarantined == (2,)
        assert sink.events("quarantine") == [{"t": 0, "devices": [2]}]
        assert sink.counters()["resilience.quarantined"] == 1
        # Healthy slots carry the default empty tuple.
        healthy = controller.step(make_tiny_state(t=1))
        assert healthy.quarantined == ()

    def test_without_policy_stays_fail_fast(self) -> None:
        controller = repro.DPPController(
            make_tiny_network(), np.random.default_rng(0),
            v=50.0, budget=20.0, z=1,
        )
        with pytest.raises(InfeasibleError):
            controller.step(stranded_state())


class TestFallbackChain:
    def _space(self, network, state) -> StrategySpace:
        return StrategySpace(network, state.coverage(), state.available_servers)

    def test_greedy_tier_wins_and_validates(self) -> None:
        network = make_tiny_network()
        state = make_tiny_state()
        sink = ListSink()
        result, tier = fallback_decision(
            network, state, self._space(network, state),
            np.random.default_rng(0),
            queue_backlog=1.0, v=50.0, budget=20.0, tracer=Probe([sink]),
        )
        assert tier == "greedy"
        validate_decision(
            network, state,
            repro.Decision(
                assignment=result.assignment,
                allocation=repro.optimal_allocation(
                    network, state, result.assignment
                ),
                frequencies=result.frequencies,
            ),
        )
        assert sink.counters()["resilience.fallback.greedy"] == 1
        assert sink.events("fallback") == [{"t": 0, "tier": "greedy"}]

    def test_last_good_tier_reuses_previous_slot(self, monkeypatch) -> None:
        network = make_tiny_network()
        state = make_tiny_state()
        space = self._space(network, state)
        previous, _ = fallback_decision(
            network, state, space, np.random.default_rng(0),
            queue_backlog=1.0, v=50.0, budget=20.0,
        )
        # Break both the greedy P2-A and its P2-B follow-up.
        import repro.baselines.greedy as greedy_mod

        def boom(*args, **kwargs):
            raise SolverError("greedy down")

        monkeypatch.setattr(greedy_mod, "solve_p2a_greedy", boom)
        result, tier = fallback_decision(
            network, state, space, np.random.default_rng(0),
            queue_backlog=1.0, v=50.0, budget=20.0,
            previous=previous.assignment,
            previous_frequencies=previous.frequencies,
        )
        assert tier == "last_good"
        np.testing.assert_array_equal(
            result.assignment.bs_of, previous.assignment.bs_of
        )

    def test_random_tier_is_the_floor(self, monkeypatch) -> None:
        network = make_tiny_network()
        state = make_tiny_state()
        import repro.baselines.greedy as greedy_mod

        def boom(*args, **kwargs):
            raise SolverError("greedy down")

        monkeypatch.setattr(greedy_mod, "solve_p2a_greedy", boom)
        # No previous slot: last_good is skipped, random must serve.
        result, tier = fallback_decision(
            network, state, self._space(network, state),
            np.random.default_rng(0),
            queue_backlog=1.0, v=50.0, budget=20.0,
        )
        assert tier == "random"
        np.testing.assert_allclose(result.frequencies, network.freq_min)


class TestControllerUnderChaos:
    def test_injected_failures_fall_back_every_slot(self) -> None:
        scenario = repro.make_paper_scenario(
            seed=13, config=repro.ScenarioConfig(num_devices=10)
        )
        sink = ListSink()
        probe = Probe([sink])
        controller = repro.DPPController(
            scenario.network,
            scenario.controller_rng(),
            v=100.0,
            budget=scenario.budget,
            z=1,
            resilience=ResiliencePolicy(
                chaos=SolverChaos(failure_rate=0.2, seed=3)
            ),
            tracer=probe,
        )
        result = repro.run_simulation(
            controller,
            scenario.fresh_states(30, tracer=probe),
            budget=scenario.budget,
            tracer=probe,
        )
        assert result.horizon == 30  # never-abort: every slot decided
        assert np.isfinite(result.latency).all()
        counters = sink.counters()
        fallbacks = counters["resilience.fallbacks"]
        assert fallbacks >= 3  # 20% of 30 slots, whp
        assert counters["resilience.fallback.greedy"] == fallbacks
        assert len(sink.events("solver_failure")) == fallbacks
        slots = sink.events("slot")
        degraded = [s for s in slots if s.get("fallback", "primary") != "primary"]
        assert len(degraded) == fallbacks

    def test_fail_slots_mark_the_exact_slots(self) -> None:
        scenario = repro.make_paper_scenario(
            seed=13, config=repro.ScenarioConfig(num_devices=10)
        )
        sink = ListSink()
        probe = Probe([sink])
        controller = repro.DPPController(
            scenario.network,
            scenario.controller_rng(),
            v=100.0,
            budget=scenario.budget,
            z=1,
            resilience=ResiliencePolicy(chaos=SolverChaos(fail_slots=(2, 5))),
            tracer=probe,
        )
        repro.run_simulation(
            controller, scenario.fresh_states(8, tracer=probe),
            budget=scenario.budget, tracer=probe,
        )
        assert [e["t"] for e in sink.events("fallback")] == [2, 5]

    def test_chaos_without_policy_raises(self) -> None:
        scenario = repro.make_paper_scenario(
            seed=13, config=repro.ScenarioConfig(num_devices=10)
        )
        controller = repro.DPPController(
            scenario.network,
            scenario.controller_rng(),
            v=100.0,
            budget=scenario.budget,
            z=1,
            resilience=ResiliencePolicy(
                fallback=False, chaos=SolverChaos(fail_slots=(0,))
            ),
        )
        state = next(iter(scenario.fresh_states(1)))
        with pytest.raises(SolverError):
            controller.step(state)


class TestWatchdog:
    def test_iteration_cap_accepts_partial_results(self) -> None:
        scenario = repro.make_paper_scenario(
            seed=17, config=repro.ScenarioConfig(num_devices=12)
        )
        sink = ListSink()
        probe = Probe([sink])
        controller = repro.DPPController(
            scenario.network,
            scenario.controller_rng(),
            v=100.0,
            budget=scenario.budget,
            z=1,
            resilience=ResiliencePolicy(max_engine_iter=2, accept_partial=True),
            tracer=probe,
        )
        result = repro.run_simulation(
            controller, scenario.fresh_states(4, tracer=probe),
            budget=scenario.budget, tracer=probe,
        )
        assert result.horizon == 4
        assert np.isfinite(result.latency).all()
        assert sink.counters().get("resilience.partial_accepts", 0) >= 1

    def test_tight_deadline_still_decides_every_slot(self) -> None:
        scenario = repro.make_paper_scenario(
            seed=17, config=repro.ScenarioConfig(num_devices=12)
        )
        controller = repro.DPPController(
            scenario.network,
            scenario.controller_rng(),
            v=100.0,
            budget=scenario.budget,
            z=3,
            resilience=ResiliencePolicy(deadline_seconds=1e-9),
        )
        result = repro.run_simulation(
            controller, scenario.fresh_states(3), budget=scenario.budget
        )
        assert result.horizon == 3
        assert np.isfinite(result.latency).all()
