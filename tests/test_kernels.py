"""Cross-backend parity: jit kernels must be bit-identical to NumPy.

The kernel contract (:mod:`repro.kernels.interface`) promises that
selecting ``backend="jit"`` changes wall-clock, never results.  These
tests enforce it end to end: slot-record streams, trajectory
fingerprints, engine counters, and replication outcomes must all match
the NumPy oracle bit for bit --
including under injected faults and chaos, where the resilience
fallback chain runs on top of the kernels.

Tests that exercise the real jit provider are skipped when no C
compiler is available (``available_backends()["jit"]`` is then
``False`` and ``jit`` would silently alias the oracle).
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

import repro
from repro.api import run
from repro.core.congestion_game import OffloadingCongestionGame
from repro.core.p2b import solve_p2b
from repro.core.resilience import ResiliencePolicy, SolverChaos
from repro.core.state import Assignment, SlotState
from repro.energy.models import QuadraticEnergyModel
from repro.exceptions import ConfigurationError, ConvergenceError
from repro.kernels import (
    BACKEND_NAMES,
    KernelBackend,
    available_backends,
    get_kernels,
    jit_provider,
)
from repro.network.connectivity import StrategySpace
from repro.network.topology import (
    BaseStation,
    EdgeServer,
    FronthaulType,
    MECNetwork,
    MobileDevice,
    ServerCluster,
)
from repro.obs import Probe
from repro.sim.faults import (
    ChannelStaleness,
    FaultPlan,
    FronthaulDegradation,
    PriceFeedDropouts,
    ScriptedIncident,
)
from repro.sim.replication import ReplicationSpec, run_replications
from repro.solvers.fast_engine import FastBestResponseEngine
from repro.solvers.scalar import minimize_convex_scalar_batch

from conftest import make_tiny_network, make_tiny_state

requires_jit = pytest.mark.skipif(
    not available_backends()["jit"],
    reason="backend 'jit' has no real provider (needs a C compiler)",
)

#: Mirror of the pin in benchmarks/bench_slot_pipeline.py: the
#: paper-scale medium preset (seed 7, I=40, 240 slots) must reproduce
#: this trajectory stream on EVERY backend.
MEDIUM_FINGERPRINT = (
    "21d380f5230daf38751e1c04951c28466fde49023e1f3986efd1c8e59a801e04"
)


def fingerprint(result) -> str:
    digest = hashlib.sha256()
    for arr in (
        result.latency,
        result.cost,
        result.theta,
        result.backlog,
        result.price,
    ):
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()


def assert_records_identical(a, b) -> None:
    """Every SlotRecord field, arrays included, must match bitwise."""
    assert len(a) == len(b)
    for rec_a, rec_b in zip(a, b):
        da = rec_a.to_dict(include_arrays=True)
        db = rec_b.to_dict(include_arrays=True)
        assert set(da) == set(db)
        for key in da:
            if isinstance(da[key], (list, np.ndarray)):
                np.testing.assert_array_equal(da[key], db[key], err_msg=key)
            elif key not in ("solve_seconds", "engine_stats"):
                assert da[key] == db[key], key


class TestRegistry:
    def test_numpy_is_always_available(self) -> None:
        availability = available_backends()
        assert set(availability) == set(BACKEND_NAMES)
        assert availability["numpy"] is True

    def test_unknown_backend_rejected(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            get_kernels("cuda")

    def test_resolved_backends_pass_through_and_cache(self) -> None:
        numpy_kernels = get_kernels("numpy")
        assert get_kernels("numpy") is numpy_kernels
        assert get_kernels(numpy_kernels) is numpy_kernels
        assert get_kernels(None).name == "numpy"
        assert isinstance(numpy_kernels, KernelBackend)

    def test_manifest_surfaces_backend_availability(self) -> None:
        from repro.obs.manifest import RunManifest, config_hash

        manifest = RunManifest(config={"horizon": 4}, seed=1)
        plain = manifest.to_dict()
        assert plain["backends"] == dict(
            available_backends(), jit_provider=jit_provider()
        )
        # Availability is machine-dependent provenance, not configuration:
        # it must not perturb the config hash.
        assert plain["config_hash"] == config_hash({"horizon": 4})

    @requires_jit
    def test_jit_backend_resolves_to_real_provider(self) -> None:
        kernels = get_kernels("jit")
        assert kernels.name == "jit"
        assert kernels.provider == "cc"
        assert kernels.golden_quad is not None
        assert kernels.run_dynamics is not None


def make_tie_game(seed: int, num_pairs: int = 6):
    """A small game built to stress the exact incremental refresh of the
    native ``run_dynamics``: ``(network, state, space, initial)``.

    * Devices come in identical pairs; servers 0 and 1 are duplicates
      (same hardware, equal suitability for every device), and so are
      BS0 and BS3 (same bandwidths, same clusters, equal channels for
      most pairs).  With odd seeds each pair starts mirrored -- the
      twins on swapped duplicates -- so loads and costs tie exactly.
    * BS0/BS3 reach clusters 0 and 1, BS1 cluster 1 and BS4 cluster 0:
      every server sits in two distinct menus.
    * BS2 reaches only cluster 2, whose one server is offline: an empty
      menu.
    * Every pair misses BS1, BS3 or BS4 (``+inf`` access weights).
    """
    energy = QuadraticEnergyModel(a=5.0, b=2.0, c=10.0)

    def station(index, clusters, bandwidth):
        return BaseStation(
            index=index, position=(0.0, 0.0), coverage_radius=1_000.0,
            access_bandwidth=bandwidth, fronthaul_bandwidth=0.8e9,
            fronthaul_spectral_efficiency=10.0,
            fronthaul_type=(
                FronthaulType.WIRED if len(clusters) == 1
                else FronthaulType.WIRELESS
            ),
            connected_clusters=clusters,
        )

    def server(index, cluster, cores):
        return EdgeServer(index=index, cluster=cluster, cores=cores,
                          freq_min=1.8, freq_max=3.6, energy_model=energy)

    network_parts = (
        (station(0, (0, 1), 80e6), station(1, (1,), 60e6),
         station(2, (2,), 60e6), station(3, (0, 1), 80e6),
         station(4, (0,), 50e6)),
        (ServerCluster(index=0, servers=(0, 1)),
         ServerCluster(index=1, servers=(2, 3)),
         ServerCluster(index=2, servers=(4,))),
        (server(0, 0, 64), server(1, 0, 64), server(2, 1, 32),
         server(3, 1, 128), server(4, 2, 64)),
    )
    rng = np.random.default_rng(seed)
    suitability = rng.uniform(0.5, 1.0, (num_pairs, 5))
    suitability[:, 1] = suitability[:, 0]
    h = rng.uniform(5.0, 40.0, (num_pairs, 5))
    h[:, 3] = np.where(rng.random(num_pairs) < 0.7, h[:, 0], h[:, 3])
    h[np.arange(num_pairs), rng.choice([1, 3, 4], num_pairs)] = 0.0
    num_devices = 2 * num_pairs
    network = MECNetwork(
        *network_parts,
        tuple(MobileDevice(index=i, position=(0.0, 0.0))
              for i in range(num_devices)),
        np.repeat(suitability, 2, axis=0),
    )
    state = SlotState(
        t=0,
        cycles=np.repeat(rng.uniform(50e6, 200e6, num_pairs), 2),
        bits=np.repeat(rng.uniform(2e6, 9e6, num_pairs), 2),
        spectral_efficiency=np.repeat(h, 2, axis=0),
        price=0.5,
    )
    space = StrategySpace(
        network, state.coverage(),
        available_servers=np.array([True, True, True, True, False]),
    )
    bs_of, server_of = space.random_assignment(rng)
    if seed % 2:
        twin_bs = np.array([3, 1, 2, 0, 4])[bs_of[::2]]
        bs_of[1::2] = np.where(
            state.coverage()[1::2][np.arange(num_pairs), twin_bs],
            twin_bs, bs_of[::2],
        )
        server_of[1::2] = np.array([1, 0, 2, 3, 4])[server_of[::2]]
    initial = Assignment(bs_of=bs_of, server_of=server_of)
    return network, state, space, initial


@requires_jit
class TestRunDynamicsMoveByMove:
    """The native loop's incremental refresh vs the NumPy full refresh,
    compared after every move of whole trajectories."""

    #: Every array either engine mutates, read from the kernel state.
    MUTATED = (
        "loads", "sub", "wcur", "cur_idx", "bs_of", "server_of", "pa_cur",
        "pc_cur", "sq_access", "sq_front", "sq_compute", "nidx", "kbest",
    )

    @staticmethod
    def _run(seed, backend, slack, cutoff):
        network, state, space, initial = make_tie_game(seed)
        game = OffloadingCongestionGame(
            network, state, space, np.full(5, 2.5), initial=initial,
            kernels=backend,
        )
        engine = FastBestResponseEngine(game, slack=slack)
        try:
            result = engine.run(max_iter=cutoff)
        except ConvergenceError as exc:
            result = exc.best_so_far
        ks = game.kernel_state()
        arrays = {name: getattr(ks, name).copy() for name in
                  TestRunDynamicsMoveByMove.MUTATED}
        arrays["gaps"] = engine.gaps.copy()
        return result, arrays, ks

    @pytest.mark.parametrize("slack", (0.0, 0.08))
    def test_every_prefix_matches_numpy(self, slack: float) -> None:
        kinds = set()
        for seed in range(12):
            total, _, ks = self._run(seed, "numpy", slack, 10_000)
            assert total.converged
            # The game really has the features the incremental path
            # must handle exactly.
            assert np.isinf(ks.p).any()
            assert (ks.menu_of_bs == len(ks.cols)).any()
            assert np.bincount(ks.menu_servers).max() >= 2

            previous = None
            for cutoff in range(total.iterations + 2):
                want, expected, _ = self._run(seed, "numpy", slack, cutoff)
                got, actual, _ = self._run(seed, "jit", slack, cutoff)
                assert (got.iterations, got.converged) == (
                    want.iterations, want.converged
                ), (seed, cutoff)
                for name, value in expected.items():
                    np.testing.assert_array_equal(
                        actual[name], value,
                        err_msg=f"{name}, seed {seed}, {cutoff} moves",
                    )
                if previous is not None:
                    kinds.update(self._move_kinds(previous, expected))
                previous = expected
        # Moves that keep the base station and moves that keep the
        # server both occurred (a rounding-level gap can even move a
        # player onto its own strategy).
        assert {"same_bs", "same_server"} <= kinds

    @staticmethod
    def _move_kinds(before, after) -> set:
        moved = np.flatnonzero(
            (before["bs_of"] != after["bs_of"])
            | (before["server_of"] != after["server_of"])
        )
        assert moved.size <= 1
        kinds = set()
        for i in moved:
            if before["bs_of"][i] == after["bs_of"][i]:
                kinds.add("same_bs")
            if before["server_of"][i] == after["server_of"][i]:
                kinds.add("same_server")
        return kinds


@requires_jit
class TestGoldenQuadKernel:
    """The native golden-section kernel vs the NumPy batch search."""

    def _lanes(self, size: int, seed: int):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0.5, 1.5, size)
        hi = lo + rng.uniform(0.0, 2.5, size)
        latency_scale = rng.uniform(0.1, 50.0, size)
        ep = rng.uniform(1e-6, 2e-4, size)
        scale = np.where(rng.random(size) < 0.5, 1.0, rng.uniform(0.5, 2.0, size))
        qa = rng.uniform(0.5, 4.0, size)
        qb = rng.uniform(0.0, 2.0, size)
        qc = rng.uniform(0.0, 10.0, size)
        return lo, hi, latency_scale, ep, scale, qa, qb, qc

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_bit_identical_to_numpy_batch_search(self, seed: int) -> None:
        lo, hi, ls, ep, scale, qa, qb, qc = self._lanes(64, seed)
        tol = 1e-8

        def objective(freq):
            return ls / freq + ep * (scale * (qa * freq * freq + qb * freq + qc))

        reference = minimize_convex_scalar_batch(objective, lo, hi, tol=tol)
        x, evals = get_kernels("jit").golden_quad(
            lo, hi, ls, ep, scale, qa, qb, qc, tol
        )
        np.testing.assert_array_equal(x, reference.x)
        np.testing.assert_array_equal(evals, reference.iterations)

    def test_degenerate_lane_counts_one_eval(self) -> None:
        lo, hi, ls, ep, scale, qa, qb, qc = self._lanes(4, 3)
        hi[2] = lo[2]  # pinned bracket: hi == lo

        def objective(freq):
            return ls / freq + ep * (scale * (qa * freq * freq + qb * freq + qc))

        reference = minimize_convex_scalar_batch(objective, lo, hi, tol=1e-8)
        x, evals = get_kernels("jit").golden_quad(
            lo, hi, ls, ep, scale, qa, qb, qc, 1e-8
        )
        assert evals[2] == 1 == reference.iterations[2]
        assert x[2] == lo[2]
        np.testing.assert_array_equal(x, reference.x)
        np.testing.assert_array_equal(evals, reference.iterations)


@requires_jit
class TestSlotStreamParity:
    """Full pipeline runs must be bit-identical across backends."""

    def _run(self, backend: str, *, seed: int, horizon: int, devices: int,
             **kwargs):
        probe = Probe()
        result = run(
            controller="dpp",
            seed=seed,
            horizon=horizon,
            scenario_config=repro.ScenarioConfig(num_devices=devices),
            engine_backend=backend,
            keep_records=True,
            tracer=probe,
            **kwargs,
        )
        return result, dict(probe.phases.counters)

    def test_small_preset_records_and_counters(self) -> None:
        base, counters_np = self._run("numpy", seed=11, horizon=24, devices=12)
        fast, counters_jit = self._run("jit", seed=11, horizon=24, devices=12)
        assert fingerprint(fast) == fingerprint(base)
        assert_records_identical(base.records, fast.records)
        assert counters_jit == counters_np

    def test_medium_preset_matches_pinned_fingerprint(self) -> None:
        """Paper-scale run hits the committed fingerprint on both backends."""
        for backend in ("numpy", "jit"):
            result = run(
                controller="dpp", seed=7, horizon=240, engine_backend=backend
            )
            assert fingerprint(result) == MEDIUM_FINGERPRINT, backend

    def test_parity_under_faults_and_chaos(self) -> None:
        """Fault-injected states + chaos-driven fallbacks stay identical."""

        def scenario():
            return repro.make_paper_scenario(
                seed=17,
                config=repro.ScenarioConfig(num_devices=10),
                fault_plan=FaultPlan(
                    faults=(
                        FronthaulDegradation(
                            mtbf_slots=8.0, mttr_slots=4.0, factor=0.4
                        ),
                        PriceFeedDropouts(mtbf_slots=9.0, mttr_slots=3.0),
                        ChannelStaleness(prob=0.2),
                    ),
                    schedule=[
                        ScriptedIncident(at=5, duration=3, kind="price_freeze")
                    ],
                ),
            )

        def chaos_run(backend: str):
            return run(
                scenario=scenario(),
                controller="dpp",
                horizon=20,
                engine_backend=backend,
                keep_records=True,
                resilience=ResiliencePolicy(
                    chaos=SolverChaos(fail_slots=(2, 7))
                ),
            )

        base = chaos_run("numpy")
        fast = chaos_run("jit")
        assert fingerprint(fast) == fingerprint(base)
        assert_records_identical(base.records, fast.records)


class TestBatchedReplication:
    """Seed replication after lockstep batching was removed: every seed
    runs on its own, and the spec refuses the removed option."""

    def test_spec_validation(self) -> None:
        with pytest.raises(TypeError, match="batch_seeds"):
            ReplicationSpec(num_devices=8, horizon=6, batch_seeds=2)
        with pytest.raises(ConfigurationError):
            ReplicationSpec(num_devices=8, horizon=6, engine_backend="cuda")


class TestReplicationParity:
    @requires_jit
    def test_jit_replications_match_numpy(self) -> None:
        seeds = [1, 2, 3]
        spec = ReplicationSpec(num_devices=8, horizon=6)
        base = run_replications(spec, seeds)
        fast = run_replications(
            dataclasses.replace(spec, engine_backend="jit"), seeds
        )

        # mean_solve_seconds is wall-clock; every other field is
        # arithmetic and must match bitwise.
        def arithmetic(report):
            return [
                dataclasses.replace(o, mean_solve_seconds=0.0)
                for o in report.outcomes
            ]

        assert fast.failed_seeds == []
        assert arithmetic(fast) == arithmetic(base)
