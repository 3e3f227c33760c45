"""The benchmark's three workloads and one execution of each (a *rep*).

A rep runs the workload end to end through the public API, from a cold
scenario build to the merged result:

* ``paper-medium`` and ``dense-cell`` -- :func:`repro.api.run`;
* ``giant-fleet`` -- :func:`repro.sharding.partition_cells` and
  :class:`repro.sharding.ShardedController` on the resident runtime.

Inputs: each workload has a fixed deployment (its topology is drawn
from the workload's own ``topology_seed``); the benchmark's ``--seed``
drives everything that varies from run to run -- task, channel and
price streams, controller randomness and the cell partition's k-means
restarts.  The program only ever sees the generated scenario.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import resource
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from layers import Mailbox, Recorder, StepClock, instrument, merge_aggregates, perf


@dataclass(frozen=True)
class Workload:
    name: str
    devices: int
    horizon: int
    topology_seed: int
    network: dict = field(default_factory=dict)
    #: ``None`` runs unsharded through ``repro.api.run``.
    cells: "int | None" = None
    epoch: int = 4
    processes: int = 2
    restarts: int = 2
    #: Registry + health monitors attached (the operator's observed path).
    observed: bool = False
    #: Fewest reps one run measures, however long they take.
    min_reps: int = 3
    #: Each rep's times are scaled by (reference / host probe) to this
    #: power, the probe being the mean of those taken just before and
    #: after the rep.  1 on short reps; 0.5 where a rep is long (~12 s)
    #: and runs on both cores, so two instants of one core track it only
    #: in part (the exponent that steadied 30-s windows of its traces).
    host_exponent: float = 1.0

    #: Overrides giving the pinned-fingerprint canary: the same
    #: configuration on a fixed seed, shortened (and for the fleet,
    #: shrunk) so every run can afford it.
    canary: dict = field(default_factory=dict)
    canary_sha256: str = ""

    @property
    def decisions(self) -> int:
        """(Cell-)slot decisions one rep makes."""
        return self.horizon * (self.cells or 1)


_FLEET_NETWORK = {
    "num_base_stations": 128,
    "num_macro_stations": 128,
    "wireless_fronthaul_fraction": 1.0,
    "num_clusters": 128,
    "servers_per_cluster": 1,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-medium",
            devices=40,
            horizon=400,
            topology_seed=2023,
            observed=True,
            min_reps=5,
            canary={"seed": 0, "horizon": 48},
            canary_sha256="9f50878e34e849f252b0efe134f7caa29295018a4391ff0104e36260b0d4fba7",
        ),
        Workload(
            name="dense-cell",
            devices=640,
            horizon=200,
            topology_seed=640,
            min_reps=3,
            canary={"seed": 0, "horizon": 6},
            canary_sha256="2afb8d65e625f57395783a6add1984a52260cd4e18c1b7406619d620f0898031",
        ),
        Workload(
            name="giant-fleet",
            devices=102_400,
            horizon=16,
            topology_seed=11,
            network=_FLEET_NETWORK,
            cells=128,
            observed=True,
            min_reps=2,
            host_exponent=0.5,
            canary={
                "seed": 0,
                "devices": 4096,
                "horizon": 8,
                "cells": 8,
                "network": {**_FLEET_NETWORK, "num_base_stations": 16,
                            "num_macro_stations": 16, "num_clusters": 16},
            },
            canary_sha256="aa06c791f50459aadf627b5a7cbf28ec53f4510c0c19d8c24cb7074bc8061786",
        ),
    )
}


def canary_of(workload: Workload) -> "tuple[Workload, int]":
    overrides = dict(workload.canary)
    seed = overrides.pop("seed")
    return dataclasses.replace(workload, **overrides), seed


def build_scenario(workload: Workload, seed: int):
    import repro
    from repro.sim.seeding import SeedBank

    deployment = repro.make_paper_scenario(
        workload.topology_seed,
        config=repro.ScenarioConfig(num_devices=workload.devices),
        **workload.network,
    )
    return dataclasses.replace(deployment, seeds=SeedBank(seed))


def fingerprint(result) -> str:
    """sha256 over the merged trajectories, as the repo's benches pin them."""
    digest = hashlib.sha256()
    for arr in (result.latency, result.cost, result.theta, result.backlog, result.price):
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _series_count(registry) -> int:
    if registry is None:
        return 0
    snapshot = registry.snapshot()
    return sum(len(fam["series"]) for kind in snapshot.values() for fam in kind.values())


def _shm_bytes(cell_scenarios, epoch: int) -> int:
    """Bytes the resident runtime's double-buffered state blocks hold:
    cycles, bits, spectral efficiency and price per slot of an epoch."""
    total = 0
    for sc in cell_scenarios:
        i, b = sc.network.num_devices, sc.network.num_base_stations
        total += 2 * epoch * (2 * i + i * b + 1) * 8
    return total


@dataclass
class Rep:
    """One measured execution of a workload."""

    wall: float
    setup: float
    slots: int
    step_seconds: np.ndarray
    fingerprint: str
    mean_latency: float
    cost_budget_ratio: float
    attempted: int
    failed: int
    problems: list
    layers: "dict | None" = None
    workers: "dict | None" = None
    spans: "list | None" = None
    extras: dict = field(default_factory=dict)
    #: Host-speed factor from the probes around the rep (set by the caller).
    scale: float = 1.0

    @property
    def slots_per_s(self) -> float:
        return self.slots / (self.wall - self.setup)


def execute(workload: Workload, seed: int, *, traced: bool = False) -> Rep:
    """Run *workload* once; with *traced* also record every layer span."""
    from repro import api, sharding
    from repro.obs.telemetry import MetricsRegistry

    cells = workload.cells or 1
    clock = StepClock(workload.horizon * cells + 16)
    recorder = None
    tracer = None
    if traced:
        recorder = Recorder(keep_spans=True)
        recorder.worker_mailbox = Mailbox()
    span = recorder.span if recorder is not None else (lambda _name: nullcontext())
    respawns: list = []
    problems: list = []
    extras: dict = {}

    try:
        with instrument(clock, recorder, respawns) as hooks:
            if traced:
                from layers import make_layer_probe

                tracer = make_layer_probe()()
            started = perf()
            with span("rep"):
                with span("scenario.build"):
                    scenario = build_scenario(workload, seed)
                registry = MetricsRegistry() if workload.observed else None
                if workload.cells is None:
                    with span("api"):
                        result = api.run(
                            scenario=scenario,
                            horizon=workload.horizon,
                            engine_backend="jit",
                            monitors=True if workload.observed else None,
                            metrics_registry=registry,
                            tracer=tracer,
                        )
                    merged = result
                    cells_run = 1
                else:
                    with span("partition"):
                        plan = sharding.partition_cells(
                            scenario.network,
                            workload.cells,
                            rng=scenario.seeds.rng("cell-partition"),
                            restarts=workload.restarts,
                        )
                    with span("shard"):
                        controller = sharding.ShardedController(
                            scenario,
                            plan,
                            epoch=workload.epoch,
                            processes=workload.processes,
                            runtime="resident",
                            engine_backend="jit",
                            registry=registry,
                            monitors=workload.observed,
                            tracer=tracer,
                        )
                    with span("sharded.run"):
                        result = controller.run(workload.horizon)
                    merged = result.merged
                    cells_run = plan.num_cells
                    rows = np.asarray(result.budgets).sum(axis=1)
                    if not np.allclose(rows, merged.budget, rtol=1e-12, atol=1e-9):
                        problems.append("per-epoch budget split does not conserve Cbar")
                    extras["shm_bytes"] = _shm_bytes(
                        controller.cell_scenarios, workload.epoch
                    )
            finished = perf()
            missing = list(hooks.missing)
        steps = clock.samples()
        first = clock.first_start()
        decisions = clock.decisions()
        workers = None
        if recorder is not None:
            workers = merge_aggregates(
                recorder.worker_mailbox.collect(range(1, clock.regions_used))
            )
            recorder.worker_mailbox.close()
    finally:
        clock.close()

    horizon = int(merged.latency.shape[0])
    attempted = workload.horizon * cells_run
    if horizon != workload.horizon:
        problems.append(f"result covers {horizon} slots, expected {workload.horizon}")
    arrays = (merged.latency, merged.cost, merged.theta, merged.backlog, merged.price)
    if not all(np.isfinite(a).all() for a in arrays):
        problems.append("non-finite values in the merged trajectories")
    if decisions != attempted:
        problems.append(f"{decisions} slot decisions timed, expected {attempted}")
    if traced and missing:
        problems.append(f"layer hooks not found: {', '.join(missing)}")
    # No workload sets a resilience or overload policy, so a solver
    # failure raises instead of falling back; the slots a rep can lose
    # are those of the cells on a respawned worker.
    failed = workload.epoch * sum(respawns)
    extras["registry_series"] = _series_count(registry)
    rep = Rep(
        wall=finished - started,
        setup=(first - started) if math.isfinite(first) else float("nan"),
        slots=workload.horizon,
        step_seconds=steps,
        fingerprint=fingerprint(merged),
        mean_latency=float(merged.time_average_latency()),
        cost_budget_ratio=float(merged.time_average_cost() / merged.budget),
        attempted=attempted,
        failed=min(failed, attempted),
        problems=problems,
        layers=recorder.aggregate() if recorder is not None else None,
        workers=workers,
        spans=recorder.spans if recorder is not None else None,
        extras=extras,
    )
    del result, merged, scenario, registry
    gc.collect()
    return rep


def peak_rss_mb(*, children: bool) -> float:
    """Peak resident set of this process, plus with *children* its
    largest reaped child (a resident worker), in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


#: Per-layer metrics of the traced run: (name, unit, better).  Times
#: are *self* times -- a layer's span minus the spans of other layers
#: inside it -- summed over the parent and the resident workers.
PER_LAYER = [
    ("scenario.build_s", "s", "lower"),
    ("partition.busy_s", "s", "lower"),
    ("shard.extract_s", "s", "lower"),
    ("shard.validate_s", "s", "lower"),
    ("shard.validate_calls", "count", "lower"),
    ("shard.self_s", "s", "lower"),
    ("controller.build_s", "s", "lower"),
    ("strategy_space.busy_s", "s", "lower"),
    ("strategy_space.builds", "count", "lower"),
    ("strategy_space.cache_hits", "count", "higher"),
    ("state.compile_s", "s", "lower"),
    ("p2a.busy_s", "s", "lower"),
    ("p2a.kernel_s", "s", "lower"),
    ("p2a.python_s", "s", "lower"),
    ("p2a.moves", "count", "lower"),
    ("p2a.gap_recomputations", "count", "lower"),
    ("p2a.candidate_evals", "count", "lower"),
    ("p2a.evals_per_move", "ratio", "lower"),
    ("bdma.self_s", "s", "lower"),
    ("bdma.rounds", "count", "lower"),
    ("bdma.warm_start_hits", "count", "higher"),
    ("p2b.busy_s", "s", "lower"),
    ("p2b.kernel_s", "s", "lower"),
    ("p2b.scalar_solves", "count", "lower"),
    ("allocation.busy_s", "s", "lower"),
    ("queue.busy_s", "s", "lower"),
    ("controller.self_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("api.self_s", "s", "lower"),
    ("sharded.self_s", "s", "lower"),
    ("shard.merge_s", "s", "lower"),
    ("coordinator.busy_s", "s", "lower"),
    ("coordinator.epochs", "count", "lower"),
    ("runtime.spawn_s", "s", "lower"),
    ("runtime.planner_s", "s", "lower"),
    ("runtime.parent_wait_s", "s", "lower"),
    ("runtime.stop_s", "s", "lower"),
    ("runtime.cell_init_s", "s", "lower"),
    ("runtime.worker_busy_s", "s", "lower"),
    ("runtime.shm_bytes", "bytes", "lower"),
    ("runtime.respawns", "count", "lower"),
    ("obs.monitor_s", "s", "lower"),
    ("obs.sink_s", "s", "lower"),
    ("obs.merge_s", "s", "lower"),
    ("obs.snapshot_s", "s", "lower"),
    ("obs.merges", "count", "lower"),
    ("obs.series", "count", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage_ratio", "ratio", "higher"),
    ("share.setup_ratio", "ratio", "lower"),
    ("share.p2a_slot_ratio", "ratio", "lower"),
    ("share.p2a_wall_ratio", "ratio", "lower"),
]


def layer_metrics(rep: Rep, untraced_wall: float) -> dict:
    """The per-layer metrics of one traced rep."""
    both = merge_aggregates([rep.layers, rep.workers or {}])
    own, kernel, counts, total = (
        both["self"], both["kernel"], both["counts"], both["total"]
    )

    def s(layer):
        return own.get(layer, 0.0)

    def c(name):
        return counts.get(name, 0.0)

    workers_busy = sum((rep.workers or {}).get("self", {}).values())
    bench_self = rep.layers["self"].get("rep", 0.0)
    # Time inside the benchmark's catch-all wrappers but in no named layer.
    unattributed = bench_self + s("api") + s("sharded.run")
    moves = c("p2a.moves")
    slot_time = total.get("engine", 0.0)
    return {
        "scenario.build_s": s("scenario.build"),
        "partition.busy_s": s("partition"),
        "shard.extract_s": s("shard.extract"),
        "shard.validate_s": s("shard.validate"),
        "shard.validate_calls": c("shard.validate_calls"),
        "shard.self_s": s("shard"),
        "controller.build_s": s("controller.build"),
        "strategy_space.busy_s": s("strategy_space"),
        "strategy_space.builds": c("strategy_space.builds"),
        "strategy_space.cache_hits": c("strategy_space.cache_hits"),
        "state.compile_s": s("state.compile"),
        "p2a.busy_s": s("p2a"),
        "p2a.kernel_s": kernel.get("p2a", 0.0),
        "p2a.python_s": s("p2a") - kernel.get("p2a", 0.0),
        "p2a.moves": moves,
        "p2a.gap_recomputations": c("p2a.gap_recomputations"),
        "p2a.candidate_evals": c("p2a.candidate_evals"),
        "p2a.evals_per_move": c("p2a.candidate_evals") / moves if moves else 0.0,
        "bdma.self_s": s("bdma"),
        "bdma.rounds": c("bdma.rounds"),
        "bdma.warm_start_hits": c("bdma.warm_start_hits"),
        "p2b.busy_s": s("p2b"),
        "p2b.kernel_s": kernel.get("p2b", 0.0),
        "p2b.scalar_solves": c("p2b.scalar_solves"),
        "allocation.busy_s": s("allocation"),
        "queue.busy_s": s("queue"),
        "controller.self_s": s("controller"),
        "engine.self_s": s("engine"),
        "api.self_s": s("api"),
        "sharded.self_s": s("sharded.run"),
        "shard.merge_s": s("shard.merge"),
        "coordinator.busy_s": s("coordinator"),
        "coordinator.epochs": c("coordinator.epochs"),
        "runtime.spawn_s": s("runtime.spawn"),
        "runtime.planner_s": s("runtime.planner"),
        "runtime.parent_wait_s": s("runtime.wait"),
        "runtime.stop_s": s("runtime.stop"),
        "runtime.cell_init_s": s("runtime.cell_init"),
        "runtime.worker_busy_s": workers_busy,
        "runtime.shm_bytes": float(rep.extras.get("shm_bytes", 0)),
        "runtime.respawns": c("runtime.respawns"),
        "obs.monitor_s": s("obs.monitor"),
        "obs.sink_s": s("obs.sink"),
        "obs.merge_s": s("obs.merge"),
        "obs.snapshot_s": s("obs.snapshot"),
        "obs.merges": c("obs.merges"),
        "obs.series": float(rep.extras.get("registry_series", 0)),
        "bench.self_s": bench_self,
        "trace.wall_s": rep.wall,
        "trace.overhead_ratio": rep.wall / untraced_wall - 1.0,
        "trace.coverage_ratio": 1.0 - unattributed / rep.wall,
        "share.setup_ratio": rep.setup / rep.wall,
        "share.p2a_slot_ratio": s("p2a") / slot_time if slot_time else 0.0,
        "share.p2a_wall_ratio": rep.layers["self"].get("p2a", 0.0) / rep.wall,
    }
