"""Equality suites for the compiled slot pipeline and batched P2-B.

Three families of guarantees, each asserted bitwise unless noted:

* ``StateGenerator.compile_states`` yields states bit-identical to the
  per-slot :meth:`StateGenerator.states` path for every model
  composition (all three tiers: chunk-blocked, slot-fused, fallback),
  for any chunk size, and end to end through ``repro.api.run``.
* Batched P2-B (``method="batch"``) matches the scalar-loop oracle
  (``method="scalar"``) bit for bit, including every fast-path edge
  case.
* The warm-start family's semantics: the BDMA fixed-point short-circuit
  is a bit-exact accounting optimisation, and ``carry_over`` /
  ``warm_start`` are bit-exact given the same rng draws.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api import run
from repro.core.p2b import solve_p2b
from repro.core.bdma import cgba_p2a_solver, solve_p2_bdma
from repro.core.state import (
    Assignment,
    Decision,
    ResourceAllocation,
    SlotState,
    validate_decision,
)
from repro.exceptions import ConfigurationError, ValidationError
from repro.network.connectivity import StrategySpace
from repro.radio.mobility import RandomWaypointMobility
from repro.radio.fronthaul import ScintillatingFronthaul
from repro.sim.faults import MarkovOutages
from repro.solvers.scalar import minimize_convex_scalar

from conftest import make_tiny_network, make_tiny_state


# -- compiled states ---------------------------------------------------------


def _small_scenario(**kwargs) -> repro.Scenario:
    defaults = dict(
        config=repro.ScenarioConfig(num_devices=10),
        num_base_stations=3,
        num_clusters=2,
        servers_per_cluster=2,
        num_macro_stations=1,
    )
    defaults.update(kwargs)
    return repro.make_paper_scenario(seed=42, **defaults)


def _assert_states_identical(reference, compiled) -> None:
    reference = list(reference)
    compiled = list(compiled)
    assert len(reference) == len(compiled)
    for ref, got in zip(reference, compiled):
        assert ref.t == got.t
        # tobytes comparison: bit-identity, not just value equality.
        assert ref.cycles.tobytes() == got.cycles.tobytes()
        assert ref.bits.tobytes() == got.bits.tobytes()
        assert (
            ref.spectral_efficiency.tobytes()
            == got.spectral_efficiency.tobytes()
        )
        assert ref.price == got.price
        if ref.fronthaul_se is None:
            assert got.fronthaul_se is None
        else:
            assert ref.fronthaul_se.tobytes() == got.fronthaul_se.tobytes()
        if ref.available_servers is None:
            assert got.available_servers is None
        else:
            assert np.array_equal(ref.available_servers, got.available_servers)


class TestCompiledStates:
    """compile_states is bit-identical to states() on every tier.

    Two *fresh* scenario objects per comparison: stateful models
    (waypoint mobility, AR(1) fronthaul) persist across ``fresh_states``
    calls, so reusing one object would compare different streams.
    """

    @pytest.mark.parametrize("chunk", [1, 7, 32, 100])
    def test_default_scenario_slot_fused_tier(self, chunk: int) -> None:
        # Periodic prices with noise draw rng per slot: slot-fused tier.
        _assert_states_identical(
            _small_scenario().fresh_states(40),
            _small_scenario().fresh_compiled_states(40, chunk=chunk),
        )

    def test_zero_price_noise_chunk_blocked_tier(self) -> None:
        config = repro.ScenarioConfig(num_devices=10, price_noise_std=0.0)
        _assert_states_identical(
            _small_scenario(config=config).fresh_states(40),
            _small_scenario(config=config).fresh_compiled_states(40),
        )

    def test_mobility_fallback_tier(self) -> None:
        _assert_states_identical(
            _small_scenario(
                mobility=RandomWaypointMobility(3000.0)
            ).fresh_states(30),
            _small_scenario(
                mobility=RandomWaypointMobility(3000.0)
            ).fresh_compiled_states(30),
        )

    def test_fronthaul_and_faults_interleaved(self) -> None:
        # Models are stateful: build a fresh set for each scenario.
        def kwargs():
            return dict(
                fronthaul=ScintillatingFronthaul(), faults=MarkovOutages()
            )

        _assert_states_identical(
            _small_scenario(**kwargs()).fresh_states(30),
            _small_scenario(**kwargs()).fresh_compiled_states(30, chunk=8),
        )

    def test_full_composition(self) -> None:
        def kwargs():
            return dict(
                config=repro.ScenarioConfig(num_devices=8, workload="diurnal"),
                mobility=RandomWaypointMobility(3000.0),
                fronthaul=ScintillatingFronthaul(),
                faults=MarkovOutages(),
            )

        _assert_states_identical(
            _small_scenario(**kwargs()).fresh_states(24),
            _small_scenario(**kwargs()).fresh_compiled_states(24),
        )

    def test_start_offset(self) -> None:
        a = _small_scenario()
        b = _small_scenario()
        ref = list(a.generator.states(20, a.state_rng(), start=5))
        got = list(b.generator.compile_states(20, b.state_rng(), start=5))
        _assert_states_identical(ref, got)

    def test_empty_horizon_and_bad_chunk(self) -> None:
        scenario = _small_scenario()
        assert list(scenario.fresh_compiled_states(0)) == []
        with pytest.raises(ConfigurationError):
            list(scenario.fresh_compiled_states(10, chunk=0))

    def test_end_to_end_run_bit_identical(self) -> None:
        compiled = run(
            scenario=_small_scenario(), controller="dpp", horizon=24
        )
        per_slot = run(
            scenario=_small_scenario(),
            controller="dpp",
            horizon=24,
            compiled_states=False,
        )
        for name in ("latency", "cost", "theta", "backlog", "price"):
            assert np.array_equal(
                getattr(compiled, name), getattr(per_slot, name)
            ), name

    def test_trusted_constructor_skips_validation(self) -> None:
        # trusted() is the compiled pipeline's contract: no checks, no
        # conversions -- the arrays land on the state untouched.
        cycles = np.array([1.0, 2.0])
        state = SlotState.trusted(
            t=3,
            cycles=cycles,
            bits=np.array([1.0, 1.0]),
            spectral_efficiency=np.array([[1.0], [2.0]]),
            price=0.5,
        )
        assert state.t == 3
        assert state.cycles is cycles
        assert state.fronthaul_se is None
        assert state.available_servers is None


# -- batched P2-B vs the scalar oracle ---------------------------------------


class TestBatchedP2B:
    def _network_state_assignment(self):
        network = make_tiny_network()
        state = make_tiny_state()
        assignment = Assignment(
            bs_of=np.array([0, 0, 1, 1]), server_of=np.array([0, 1, 2, 2])
        )
        return network, state, assignment

    def _assert_methods_agree(self, network, state, assignment, *, q, v) -> None:
        scalar = solve_p2b(
            network, state, assignment, queue_backlog=q, v=v, method="scalar"
        )
        batch = solve_p2b(
            network, state, assignment, queue_backlog=q, v=v, method="batch"
        )
        assert scalar.tobytes() == batch.tobytes()

    def test_random_loads(self) -> None:
        network, _, _ = self._network_state_assignment()
        rng = np.random.default_rng(7)
        for trial in range(20):
            state = SlotState(
                t=trial,
                cycles=rng.uniform(1e6, 5e8, size=4),
                bits=rng.uniform(1e5, 1e7, size=4),
                spectral_efficiency=make_tiny_state().spectral_efficiency,
                price=float(rng.uniform(0.0, 2.0)),
            )
            assignment = Assignment(
                bs_of=np.array([0, 0, 1, 1]),
                server_of=np.array(
                    [rng.integers(0, 2), rng.integers(0, 2), 2, 2]
                ),
            )
            self._assert_methods_agree(
                network,
                state,
                assignment,
                q=float(rng.uniform(0.0, 100.0)),
                v=float(rng.uniform(0.1, 500.0)),
            )

    def test_all_idle(self) -> None:
        network, state, assignment = self._network_state_assignment()
        idle = SlotState(
            t=0,
            cycles=np.zeros(4),
            bits=state.bits,
            spectral_efficiency=state.spectral_efficiency,
            price=state.price,
        )
        self._assert_methods_agree(network, idle, assignment, q=5.0, v=10.0)
        freqs = solve_p2b(network, idle, assignment, queue_backlog=5.0, v=10.0)
        assert freqs.tobytes() == network.freq_min.tobytes()

    def test_zero_energy_pressure(self) -> None:
        network, state, assignment = self._network_state_assignment()
        self._assert_methods_agree(network, state, assignment, q=0.0, v=10.0)

    def test_offline_servers(self) -> None:
        network, state, assignment = self._network_state_assignment()
        offline = SlotState(
            t=0,
            cycles=state.cycles,
            bits=state.bits,
            spectral_efficiency=state.spectral_efficiency,
            price=state.price,
            available_servers=np.array([True, False, True]),
        )
        self._assert_methods_agree(network, offline, assignment, q=8.0, v=25.0)
        freqs = solve_p2b(
            network, offline, assignment, queue_backlog=8.0, v=25.0
        )
        assert freqs[1] == network.servers[1].freq_min

    def test_inline_quadratic_matches_generic_search(self) -> None:
        # The scalar loop's fused golden-section specialisation must
        # replay minimize_convex_scalar on the model's power() bit for
        # bit.
        network, state, assignment = self._network_state_assignment()
        q, v, tol = 20.0, 50.0, 1e-8
        from repro.core.latency import server_load_roots

        roots = server_load_roots(network, state, assignment)
        demand = roots * roots
        pressure = q * state.price
        got = solve_p2b(
            network, state, assignment, queue_backlog=q, v=v, method="scalar"
        )
        for n, server in enumerate(network.servers):
            if demand[n] <= 0.0:
                continue
            scale = v * demand[n] / server.speed(1.0)
            model = server.energy_model

            def objective(freq: float) -> float:
                return scale / freq + pressure * model.power(freq)

            expected = minimize_convex_scalar(
                objective, server.freq_min, server.freq_max, tol=tol
            ).x
            assert got[n] == expected


# -- warm-start semantics ----------------------------------------------------


class TestWarmStartSemantics:
    def _solve(self, solver, *, warm_start: bool = True, z: int = 4):
        network = make_tiny_network()
        state = make_tiny_state()
        space = StrategySpace(network, state.coverage())
        return solve_p2_bdma(
            network,
            state,
            space,
            np.random.default_rng(3),
            queue_backlog=10.0,
            v=50.0,
            budget=1.0,
            z=z,
            p2a_solver=solver,
            warm_start=warm_start,
        )

    def test_fixed_point_short_circuit_is_bit_exact(self) -> None:
        # Wrapping the CGBA solver in a plain function strips the
        # supports_fixed_point marker, so BDMA runs every round; the
        # short-circuit path must return the identical decision and
        # objective history anyway.
        with_exit = self._solve(cgba_p2a_solver())

        inner = cgba_p2a_solver()

        def no_marker(*args, **kwargs):
            return inner(*args, **kwargs)

        without_exit = self._solve(no_marker)
        assert np.array_equal(
            with_exit.assignment.bs_of, without_exit.assignment.bs_of
        )
        assert np.array_equal(
            with_exit.assignment.server_of, without_exit.assignment.server_of
        )
        assert (
            with_exit.frequencies.tobytes()
            == without_exit.frequencies.tobytes()
        )
        assert with_exit.objective == without_exit.objective
        assert with_exit.objective_history == without_exit.objective_history

    def test_run_is_reproducible_for_both_warm_settings(self) -> None:
        for warm in (True, False):
            first = run(
                scenario=_small_scenario(),
                controller="dpp",
                horizon=16,
                warm_start=warm,
            )
            second = run(
                scenario=_small_scenario(),
                controller="dpp",
                horizon=16,
                warm_start=warm,
            )
            assert np.array_equal(first.latency, second.latency)
            assert np.array_equal(first.cost, second.cost)


# -- vectorized validate_decision --------------------------------------------


def _reference_validate(network, state, decision, *, atol: float = 1e-9):
    """The original per-device loop, kept verbatim as the oracle."""
    assignment = decision.assignment
    allocation = decision.allocation
    num_devices = network.num_devices
    if assignment.num_devices != num_devices or state.num_devices != num_devices:
        raise ValidationError("device-count mismatch between network/state/decision")
    for i in range(num_devices):
        k = int(assignment.bs_of[i])
        n = int(assignment.server_of[i])
        if not 0 <= k < network.num_base_stations:
            raise ValidationError(f"device {i}: base station {k} out of range")
        if not 0 <= n < network.num_servers:
            raise ValidationError(f"device {i}: server {n} out of range")
        if state.spectral_efficiency[i, k] <= 0.0:
            raise ValidationError(
                f"device {i}: selected base station {k} does not cover it"
            )
        if state.available_servers is not None and not state.available_servers[n]:
            raise ValidationError(
                f"device {i}: selected server {n} is offline this slot"
            )
        if n not in network.servers_reachable_from(k):
            raise ValidationError(
                f"device {i}: server {n} unreachable through base station {k} "
                "(constraint (3))"
            )
    for k in range(network.num_base_stations):
        members = assignment.devices_on_bs(k)
        if np.sum(allocation.access_share[members]) > 1.0 + atol:
            raise ValidationError(f"base station {k}: access shares exceed 1")
        if np.sum(allocation.fronthaul_share[members]) > 1.0 + atol:
            raise ValidationError(f"base station {k}: fronthaul shares exceed 1")
    for n in range(network.num_servers):
        members = assignment.devices_on_server(n)
        if np.sum(allocation.compute_share[members]) > 1.0 + atol:
            raise ValidationError(f"server {n}: compute shares exceed 1")
    freqs = decision.frequencies
    if freqs.size != network.num_servers:
        raise ValidationError("one frequency per server is required")
    if np.any(freqs < network.freq_min - atol) or np.any(
        freqs > network.freq_max + atol
    ):
        raise ValidationError("a frequency lies outside [F^L, F^U]")


def _decision(
    bs=(0, 0, 1, 1),
    server=(0, 1, 2, 2),
    access=(0.2, 0.2, 0.2, 0.2),
    fronthaul=(0.2, 0.2, 0.2, 0.2),
    compute=(0.3, 0.3, 0.3, 0.3),
    freqs=(2.0, 2.0, 2.0),
) -> Decision:
    return Decision(
        assignment=Assignment(
            bs_of=np.array(bs), server_of=np.array(server)
        ),
        allocation=ResourceAllocation(
            access_share=np.array(access),
            fronthaul_share=np.array(fronthaul),
            compute_share=np.array(compute),
        ),
        frequencies=np.array(freqs),
    )


class TestValidateDecisionVectorized:
    CASES = {
        "valid": _decision(),
        "bs_out_of_range": _decision(bs=(0, 5, 1, 1)),
        "bs_negative": _decision(bs=(-1, 0, 1, 1)),
        "server_out_of_range": _decision(server=(0, 1, 9, 2)),
        "uncovered_bs": _decision(bs=(1, 0, 1, 1)),  # device 0 not on BS1
        "unreachable_server": _decision(server=(2, 1, 2, 2)),
        "access_over": _decision(access=(0.9, 0.9, 0.2, 0.2)),
        "fronthaul_over": _decision(fronthaul=(0.9, 0.9, 0.2, 0.2)),
        "compute_over": _decision(server=(0, 0, 2, 2),
                                  compute=(0.8, 0.8, 0.3, 0.3)),
        "multi_violation_first_device_wins": _decision(
            bs=(0, 5, 1, 1), server=(0, 1, 9, 2)
        ),
        "bad_freq": _decision(freqs=(2.0, 9.0, 2.0)),
        "freq_count": _decision(freqs=(2.0, 2.0)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_reference_loop(self, name: str) -> None:
        network = make_tiny_network()
        state = make_tiny_state()
        decision = self.CASES[name]
        try:
            _reference_validate(network, state, decision)
            expected: str | None = None
        except ValidationError as err:
            expected = str(err)
        if expected is None:
            validate_decision(network, state, decision)
        else:
            with pytest.raises(ValidationError) as got:
                validate_decision(network, state, decision)
            assert str(got.value) == expected

    def test_offline_server_matches_reference(self) -> None:
        network = make_tiny_network()
        base = make_tiny_state()
        state = SlotState(
            t=0,
            cycles=base.cycles,
            bits=base.bits,
            spectral_efficiency=base.spectral_efficiency,
            price=base.price,
            available_servers=np.array([True, False, True]),
        )
        decision = _decision()  # device 1 sits on offline server 1
        with pytest.raises(ValidationError) as ref:
            _reference_validate(network, state, decision)
        with pytest.raises(ValidationError) as got:
            validate_decision(network, state, decision)
        assert str(got.value) == str(ref.value)


# -- surfaced counters -------------------------------------------------------


class TestSurfacedCounters:
    def test_trace_summary_names_engine_counters(self) -> None:
        from repro.obs.trace import Trace

        trace = Trace()
        trace.counters["engine.warm_start_hits"] = 12.0
        trace.counters["p2b.batch_iters"] = 340.0
        summary = trace.summary()
        assert "warm_start_hits=12" in summary
        assert "batch_iters=340" in summary

    def test_dashboard_engine_panel_prefers_perf_counters(self) -> None:
        from repro.obs.dashboard import Dashboard

        dash = Dashboard(ascii_only=True)
        for name in (
            "engine.warm_start_hits",
            "p2b.batch_iters",
            "aaa.filler1",
            "aab.filler2",
            "aac.filler3",
            "aad.filler4",
            "aae.filler5",
            "aaf.filler6",
        ):
            dash.emit({"kind": "counter", "name": name, "value": 3.0})
        frame = dash.render()
        assert "engine.warm_start_hits=3" in frame
        assert "p2b.batch_iters=3" in frame
