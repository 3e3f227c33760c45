"""Sharded multi-cell simulation: one DPP controller per cell.

The monolithic slot solve costs superlinearly in the device count
``I``, so one controller over a metro-scale deployment is hopeless.
This module runs an independent :class:`~repro.core.controller.DPPController`
(own virtual queue, own rng streams, own state stream) inside each cell
of a :class:`~repro.network.partition.CellPlan`, while a
:class:`~repro.core.budget.BudgetCoordinator` splits the global energy
budget ``Cbar`` across cells every *epoch* -- proportional pacing on
observed per-cell spend, conserving the total exactly, so the sum of
the per-cell virtual-queue constraints is the global constraint.

Execution is epoch-segmented exactly like checkpoint/resume: each cell
keeps one continuing state rng and draws its compiled states segment by
segment (``compile_states(count, rng, start=completed)``), which is
bit-identical to one uninterrupted pass.  Cells run either sequentially
in-process (``processes`` ``None``/1, the oracle) or, with ``processes >
1``, on the resident runtime, which pins each cell's carry state inside
a long-lived worker process (:mod:`repro.sim.shard_runtime`):
controllers advance in place for the whole run, the parent ships only
``(slot range, budget shares)`` per epoch and receives compact metric /
telemetry deltas back, compiled slot states travel through
double-buffered shared-memory struct-of-arrays blocks (epoch ``e + 1``
compiles while epoch ``e`` solves), and carry state crosses the process
boundary only for checkpoints and salvage.
``benchmarks/bench_shard_runtime.py`` gates the two paths' fingerprints
against each other.

Fault tolerance: a resident worker that dies or times out is killed,
respawned, and *replayed* -- its cells re-run from slot 0 (or from the
last pulled carry) under the recorded per-epoch budget shares, which
lands bit-identically in the state the dead worker held, so the merged
trajectories match an undisturbed run exactly.  ``checkpoint=`` /
``resume=`` on :meth:`ShardedController.run` extend the same carry
machinery to on-disk snapshots
(:class:`~repro.sim.checkpoint.ShardCheckpoint`).

The one-cell plan degenerates to the unsharded pipeline: the original
scenario object is reused verbatim, the coordinator's single share is
the whole budget, and the merged trajectories are bit-identical to
``repro.api.run`` without sharding (asserted by
``benchmarks/bench_scale_sweep.py`` and ``tests/test_sharding.py``) --
including a scenario-level :class:`~repro.sim.faults.FaultPlan`, which
every execution path applies from the plan's own stream with its cursor
(plan state + plan rng) carried across epochs.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.budget import BudgetCoordinator
from repro.exceptions import CheckpointError, ConfigurationError, SolverError
from repro.network.partition import CellPlan, extract_subnetwork, partition_cells
from repro.obs.monitors import (
    Alert,
    HealthReport,
    MonitorStatus,
    MonitorSuite,
)
from repro.obs.probe import Probe, Tracer, as_tracer
from repro.obs.telemetry import MetricsRegistry, TelemetrySink
from repro.radio.mobility import StaticMobility
from repro.sim.checkpoint import ShardCheckpoint
from repro.sim.results import SimulationResult, SimulationSummary
from repro.sim.scenario import Scenario, StateGenerator
from repro.sim.shard_runtime import (
    CellRuntime,
    ResidentWorker,
    SharedStatePlanner,
    WorkerFailure,
    _mp_context,
)

logger = logging.getLogger(__name__)

__all__ = [
    "ShardedController",
    "ShardedResult",
    "merge_cell_metrics",
    "run_sharded",
    "shard_scenarios",
]

class _HaltRequested(RuntimeError):
    """Test seam: the run was asked to stop right after a checkpoint
    write (set ``ShardedController._halt_after_slots``)."""


@dataclass
class _CheckpointPlan:
    """Where and how often :meth:`ShardedController.run` snapshots."""

    path: Path
    every: int

_METRIC_KEYS = ("latency", "cost", "theta", "backlog", "solve_seconds", "price")


def _check_shardable(scenario: Scenario) -> None:
    """One structured capability check for multi-cell sharding.

    Collects *every* unsupported feature of the scenario and raises a
    single :class:`ConfigurationError` naming each offending feature
    and the flag combination that would work -- the did-you-mean style
    of ``make_controller`` -- instead of failing one bare check at a
    time.
    """
    problems: list[str] = []
    generator = scenario.generator
    if type(generator.mobility) is not StaticMobility:
        problems.append(
            f"mobility={type(generator.mobility).__name__} -- sharded runs "
            "require static mobility (devices must stay in their cell); "
            "drop the mobility model or run unsharded (cells=1)"
        )
    if not hasattr(generator.tasks, "subset"):
        problems.append(
            f"tasks={type(generator.tasks).__name__} -- the task generator "
            "has no subset() projection, so devices cannot be split across "
            "cells; implement subset() or run unsharded (cells=1)"
        )
    if problems:
        raise ConfigurationError(
            "this scenario cannot be sharded across multiple cells: "
            + "; ".join(problems)
        )


def shard_scenarios(scenario: Scenario, plan: CellPlan) -> list[Scenario]:
    """Carve one scenario into an independent scenario per cell.

    The one-cell plan returns ``[scenario]`` -- the *same object*, same
    seed bank, same stream labels, fault plan included -- which is what
    makes the one-cell sharded run bit-identical to the unsharded
    pipeline.  Multi-cell plans give each cell its own sub-topology
    (:func:`~repro.network.partition.extract_subnetwork`), a sliced
    task generator, deep-copied channel/price/fronthaul/outage models,
    a child seed bank (independent streams per cell), a fair share of
    the budget, and -- when the scenario carries one -- the
    :class:`~repro.sim.faults.FaultPlan` projected onto the cell
    (:meth:`~repro.sim.faults.FaultPlan.subset`: independent per-cell
    chains from the cell's own fault stream, scripted incidents split
    by target with local indices).

    Raises:
        ConfigurationError: A *multi-cell* plan was requested for a
            scenario using features the sharded engine cannot split
            (mobility, an unsliceable task generator); the message
            names every offending feature and the working alternative.
    """
    if plan.num_cells == 1:
        return [scenario]
    _check_shardable(scenario)
    generator = scenario.generator
    total_devices = scenario.network.num_devices
    out = []
    for cell in plan.cells:
        subnetwork, maps = extract_subnetwork(scenario.network, cell)
        tasks = generator.tasks.subset(maps.devices)
        cell_generator = StateGenerator(
            subnetwork,
            tasks,
            copy.deepcopy(generator.channel),
            copy.deepcopy(generator.prices),
            price_scale=generator.price_scale,
            fronthaul=copy.deepcopy(generator.fronthaul),
            faults=copy.deepcopy(generator.faults),
        )
        fault_plan = (
            scenario.fault_plan.subset(
                maps.devices, maps.base_stations, maps.servers
            )
            if scenario.fault_plan
            else None
        )
        out.append(
            Scenario(
                network=subnetwork,
                generator=cell_generator,
                seeds=scenario.seeds.child(f"cell{cell.index}"),
                budget=scenario.budget * cell.num_devices / total_devices,
                fault_plan=fault_plan,
            )
        )
    return out


def merge_cell_metrics(
    metrics_by_cell: "list[dict[str, list[float]]]", budget: float
) -> SimulationResult:
    """Fold per-cell trajectories into one cross-cell result.

    Latency, cost, theta, backlog, and solve time are *totals* across
    devices/queues, so they sum across cells per slot; the price is
    averaged (cells draw their own price noise).  Budget conservation
    makes the merged theta exactly ``C_t - Cbar`` -- the same semantics
    as an unsharded run against the global budget.
    """
    if not metrics_by_cell:
        raise ConfigurationError("nothing to merge")
    horizons = {len(m["latency"]) for m in metrics_by_cell}
    if len(horizons) != 1:
        raise ConfigurationError(
            f"cells disagree on the simulated horizon: {sorted(horizons)}"
        )
    stacked = {
        key: np.array([m[key] for m in metrics_by_cell], dtype=np.float64)
        for key in _METRIC_KEYS
    }
    return SimulationResult(
        latency=stacked["latency"].sum(axis=0),
        cost=stacked["cost"].sum(axis=0),
        theta=stacked["theta"].sum(axis=0),
        backlog=stacked["backlog"].sum(axis=0),
        solve_seconds=stacked["solve_seconds"].sum(axis=0),
        price=stacked["price"].mean(axis=0),
        budget=budget,
    )


@dataclass
class ShardedResult:
    """Outcome of one sharded run.

    Attributes:
        merged: The cross-cell :class:`~repro.sim.results.SimulationResult`
            (global totals per slot; drop-in comparable to an unsharded
            run against the global budget).
        cells: Per-cell summaries, in cell order.
        budgets: ``(epochs, cells)`` budget references applied per
            epoch; every row sums to the global budget.
        plan: The cell plan the run executed.
        health: Combined per-cell :class:`~repro.obs.monitors.HealthReport`
            when monitors were requested (statuses are named
            ``cell<N>/<monitor>``; every alert carries a ``cell`` label
            in its data), ``None`` otherwise.
    """

    merged: SimulationResult
    cells: list[SimulationSummary] = field(default_factory=list)
    budgets: "np.ndarray | None" = None
    plan: CellPlan | None = None
    health: "HealthReport | None" = None

    def speedup_basis(self) -> int:
        """Total devices simulated (for slots/s-per-device accounting)."""
        return int(sum(c.num_devices for c in self.plan.cells)) if self.plan else 0


class ShardedController:
    """Runs one controller per cell under a shared budget coordinator.

    Args:
        scenario: The global scenario to shard.
        cells: A prebuilt :class:`~repro.network.partition.CellPlan` or
            a target cell count (partitioned with
            :func:`~repro.network.partition.partition_cells` from the
            scenario's ``"cell-partition"`` seed stream).
        controller: Controller family name (any DPP-family name from
            :data:`repro.api.CONTROLLER_NAMES`; ``"fixed"`` has no
            budget-tracking queue and is rejected).
        v: DPP trade-off parameter ``V`` (every cell shares it).
        z: BDMA alternation rounds.
        budget: Global time-average budget ``Cbar``; the scenario's
            when omitted.
        epoch: Slots between budget re-splits.
        coordinator: ``"proportional"`` or ``"static"``
            (:class:`~repro.core.budget.BudgetCoordinator` modes).
        floor_fraction / smoothing: Coordinator pacing knobs.
        engine_backend: Kernel backend for every cell, or one entry per
            cell (heterogeneous shards).
        processes: Worker processes; ``None``/1 runs cells sequentially
            in-process (no pickling), which on a single core is just as
            fast.  With more, cells run on resident workers that pin
            each cell's carry state in a long-lived process and receive
            only slot ranges and budget shares per epoch; bit-identical
            to the sequential path.
        runtime: Must be ``"resident"`` (the default); any other value
            raises :class:`~repro.exceptions.ConfigurationError`.
        shared_states: Ship compiled slot states to resident workers
            through double-buffered shared-memory blocks, compiling
            epoch ``e + 1`` while epoch ``e`` solves.  ``None`` (auto)
            enables it whenever the scenario's states fit the fixed
            layout (no fronthaul/outage models, no fault plan);
            ``True`` insists and raises when they do not.
        carry_every: Pull per-cell carry state from resident workers
            every N epochs so salvage replays at most N epochs instead
            of the whole run.  ``None`` (default) skips the periodic
            pull; a checkpoint write always pulls.
        timeout_seconds: Per-epoch heartbeat *silence* deadline on the
            resident runtime: workers heartbeat as they progress through
            their cells, each heartbeat resets the timer, and a worker
            silent past the deadline -- hung, not just dead -- is killed
            and salvaged through the replay path, burning one retry
            (``shard.worker_hung`` event, ``resilience.worker_hangs``
            counter).
        max_retries: Extra attempts per epoch, per resident worker,
            after the first failure.
        tracer: Parent observability tracer; per-cell probes are merged
            into it (``shard.*`` events mark epochs and re-splits).
        registry: A live :class:`~repro.obs.telemetry.MetricsRegistry`
            the run streams into -- per-cell gauges and per-kernel /
            per-phase histograms, labelled ``cell="<index>"``.  On the
            resident runtime each worker ships a telemetry delta back
            with every epoch reply and the parent merges it as soon as
            the reply arrives, so a scrape *during* the run sees every
            finished epoch, not just the final merge.
        monitors: Attach the default health monitors per cell
            (:func:`repro.obs.monitors.default_monitors` wired to each
            cell's budget share and sub-network).  Alerts carry a
            ``cell`` label, are re-emitted on the parent tracer, and the
            combined report lands on ``ShardedResult.health``.  Each
            cell's suite lives for the whole run on either path (in the
            resident worker that owns the cell), so windowed detectors
            see the cell's full trajectory; resident workers ship new
            alerts with each epoch reply and their final statuses at
            the end.
        **controller_params: Extra family knobs, validated by
            :func:`repro.api.make_controller`.
    """

    def __init__(
        self,
        scenario: Scenario,
        cells: "CellPlan | int" = 1,
        *,
        controller: str = "dpp",
        v: float = 100.0,
        z: "int | None" = None,
        budget: "float | None" = None,
        epoch: int = 24,
        coordinator: str = "proportional",
        floor_fraction: float = 0.1,
        smoothing: float = 0.5,
        engine_backend: "str | list | tuple | None" = None,
        processes: "int | None" = None,
        runtime: str = "resident",
        shared_states: "bool | None" = None,
        carry_every: "int | None" = None,
        timeout_seconds: "float | None" = None,
        max_retries: int = 2,
        tracer: "Tracer | None" = None,
        registry: "MetricsRegistry | None" = None,
        monitors: bool = False,
        **controller_params: object,
    ) -> None:
        if controller == "fixed":
            raise ConfigurationError(
                "sharded runs need a budget-tracking controller; "
                "'fixed' has no virtual queue to coordinate"
            )
        if epoch < 1:
            raise ConfigurationError(f"epoch must be >= 1, got {epoch}")
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if runtime != "resident":
            raise ConfigurationError(
                f"unknown sharded runtime {runtime!r}: the legacy per-epoch "
                "process pool was removed; use the default 'resident'"
            )
        if carry_every is not None and int(carry_every) < 1:
            raise ConfigurationError(
                f"carry_every must be >= 1, got {carry_every}"
            )
        if isinstance(cells, CellPlan):
            plan = cells
        else:
            plan = partition_cells(
                scenario.network, int(cells), rng=scenario.seeds.rng("cell-partition")
            )
        self.plan = plan
        self.scenario = scenario
        self.cell_scenarios = shard_scenarios(scenario, plan)
        self.controller_name = controller
        self.v = v
        self.z = z
        self.total_budget = float(
            scenario.budget if budget is None else budget
        )
        self.epoch = int(epoch)
        self.processes = processes
        self.shared_states = shared_states
        self.carry_every = None if carry_every is None else int(carry_every)
        self.timeout_seconds = timeout_seconds
        self.max_retries = int(max_retries)
        self.tracer = as_tracer(tracer)
        self.registry = registry
        self.monitors = bool(monitors)
        self._health: "HealthReport | None" = None
        # Test seams (chaos/resilience suites set these post-construction):
        # kill worker w right after dispatching epoch e; make worker w
        # hang (sleep in its command loop) on epoch e so only the
        # watchdog can catch it; halt the run right after the first
        # checkpoint write at/after a slot count.
        self._chaos_kill: "tuple[int, int] | None" = None
        self._chaos_hang: "tuple[int, int] | None" = None
        self._chaos_fired = False
        self._halt_after_slots: "int | None" = None
        self.controller_params = dict(controller_params)
        self.backends = self._resolve_backends(engine_backend)
        self.coordinator = BudgetCoordinator(
            self.total_budget,
            np.maximum(plan.device_counts().astype(np.float64), 1.0),
            mode=coordinator,
            floor_fraction=floor_fraction,
            smoothing=smoothing,
        )

    def _resolve_backends(self, engine_backend) -> list:
        if engine_backend is None or isinstance(engine_backend, str):
            return [engine_backend] * self.plan.num_cells
        backends = list(engine_backend)
        if len(backends) != self.plan.num_cells:
            raise ConfigurationError(
                f"engine_backend lists one backend per cell: got "
                f"{len(backends)} for {self.plan.num_cells} cells"
            )
        return backends

    # -- sequential path -------------------------------------------------

    def _run_sequential(
        self,
        horizon: int,
        *,
        compiled: bool,
        chunk: int,
        ckpt: "_CheckpointPlan | None" = None,
        resume_state: "ShardCheckpoint | None" = None,
    ) -> "tuple[list[dict], list]":
        trace = self.tracer.enabled
        if resume_state is not None:
            self.coordinator.load_state_dict(resume_state.coordinator)
        # Per-cell probes exist whenever anything consumes events: the
        # parent tracer, the live metrics registry, or the monitors.
        want_probe = trace or self.registry is not None or self.monitors
        initial = self.coordinator.budgets()
        runtimes: "list[CellRuntime]" = []
        for c, sc in enumerate(self.cell_scenarios):
            probe = Probe() if want_probe else None
            if self.registry is not None:
                probe.add_sink(TelemetrySink(self.registry, labels={"cell": c}))
            # The same CellRuntime objects the resident workers hold:
            # state advances in place, no state_dict()/load_state_dict()
            # round-trip between epochs (asserted by test_sharding).
            runtimes.append(
                CellRuntime(
                    c,
                    sc,
                    controller=self.controller_name,
                    v=self.v,
                    z=self.z,
                    backend=self.backends[c],
                    controller_params=self.controller_params,
                    budget=float(initial[c]),
                    compiled=compiled,
                    chunk=chunk,
                    probe=probe,
                    registry=self.registry,
                    monitors=self.monitors,
                    schedule=self.coordinator.schedules[c],
                )
            )
        metrics = [
            {k: [] for k in _METRIC_KEYS} for _ in self.cell_scenarios
        ]
        budgets_applied: list = []
        completed = 0
        if resume_state is not None:
            completed = int(resume_state.completed)
            metrics = [
                {k: list(m.get(k, [])) for k in _METRIC_KEYS}
                for m in resume_state.metrics
            ]
            budgets_applied = [
                np.asarray(b, dtype=np.float64) for b in resume_state.budgets
            ]
            for c, runtime in enumerate(runtimes):
                runtime.load_carry(resume_state.carries[c])
        last_ckpt = completed
        while completed < horizon:
            count = min(self.epoch, horizon - completed)
            budgets = self.coordinator.budgets()
            budgets_applied.append(budgets)
            spends = np.zeros(len(self.cell_scenarios))
            for c, runtime in enumerate(runtimes):
                out, spends[c] = runtime.run_epoch(
                    completed, count, float(budgets[c])
                )
                for key in _METRIC_KEYS:
                    metrics[c][key].extend(out[key])
            completed += count
            new_budgets = self.coordinator.update(spends)
            self._publish_epoch(completed, new_budgets)
            if trace:
                self.tracer.event(
                    "shard.epoch",
                    {
                        "completed": completed,
                        "spends": spends.tolist(),
                        "budgets": new_budgets.tolist(),
                    },
                )
            if ckpt is not None and completed - last_ckpt >= ckpt.every:
                self._write_shard_checkpoint(
                    ckpt.path,
                    horizon,
                    completed,
                    {c: rt.carry() for c, rt in enumerate(runtimes)},
                    metrics,
                    budgets_applied,
                )
                last_ckpt = completed
        if trace and isinstance(self.tracer, Probe):
            for c, runtime in enumerate(runtimes):
                self.tracer.merge_phase_state(
                    runtime.probe.phases.state_dict(), order=(0, c)
                )
        if self.monitors:
            self._health = self._assemble_health_sequential(
                [rt.suite for rt in runtimes]
            )
        return metrics, budgets_applied

    # -- resident path -----------------------------------------------------

    def _run_resident(
        self,
        horizon: int,
        *,
        compiled: bool,
        chunk: int,
        ckpt: "_CheckpointPlan | None" = None,
        resume_state: "ShardCheckpoint | None" = None,
    ) -> "tuple[list[dict], list]":
        """The resident-worker epoch loop (``processes > 1``).

        Cells are pinned round-robin onto long-lived workers at spawn;
        each epoch the parent ships only ``(slot range, budget shares,
        shared-buffer index)`` and receives metric/telemetry deltas
        back.  While the workers solve epoch ``e`` the parent compiles
        epoch ``e + 1``'s slot states into the shared-memory double
        buffer (when :class:`SharedStatePlanner` supports the scenario)
        and the coordinator's spends arrive just in time for the next
        split.  A dead or hung worker is killed, respawned, restored
        from the last pulled carry (or slot 0), and *replayed* through
        the recorded budget history -- bit-identical, so the merged
        trajectories match an undisturbed run exactly.
        """
        trace = self.tracer.enabled
        num_cells = len(self.cell_scenarios)
        workers_n = max(1, min(int(self.processes), num_cells))
        if resume_state is not None:
            self.coordinator.load_state_dict(resume_state.coordinator)
        shared_ok = SharedStatePlanner.supported(self.cell_scenarios)
        if self.shared_states is True and not shared_ok:
            raise ConfigurationError(
                "shared_states=True needs plain state streams "
                "(no fronthaul/outage models, no fault plan)"
            )
        use_shared = shared_ok if self.shared_states is None else bool(self.shared_states)
        planner = (
            SharedStatePlanner(
                self.cell_scenarios, epoch=self.epoch, compiled=compiled, chunk=chunk
            )
            if use_shared
            else None
        )
        ctx = _mp_context()
        initial = self.coordinator.budgets()
        descriptors = planner.descriptors() if planner is not None else {}
        workers: "list[ResidentWorker]" = []
        metrics = [{k: [] for k in _METRIC_KEYS} for _ in range(num_cells)]
        budgets_applied: list = []
        completed = 0
        if resume_state is not None:
            completed = int(resume_state.completed)
            metrics = [
                {k: list(m.get(k, [])) for k in _METRIC_KEYS}
                for m in resume_state.metrics
            ]
            budgets_applied = [
                np.asarray(b, dtype=np.float64) for b in resume_state.budgets
            ]
        last_ckpt = completed
        # Salvage bookkeeping: the recorded per-epoch budget shares of
        # *this* session, and the most recent full carry pull a rebuilt
        # worker can restart from (None = replay from slot 0).
        budget_history: "list[tuple[int, int, dict]]" = []
        base_carries: "dict | None" = None
        base_epoch = 0
        if resume_state is not None:
            base_carries = {
                c: resume_state.carries[c] for c in range(num_cells)
            }
        attempts: dict[int, int] = {}

        def rebuild(worker, exc, replay_to, epoch_data):
            """Respawn a failed worker and replay it to *replay_to*
            session epochs; re-dispatch *epoch_data* when given."""
            while True:
                if not self._note_worker_failure(attempts, worker, exc):
                    raise SolverError(
                        f"worker {worker.index} (cells {worker.cells}) "
                        f"failed permanently: {exc}"
                    ) from exc
                worker.respawn()
                history = budget_history[
                    base_epoch if base_carries is not None else 0 : replay_to
                ]
                deadline = self.timeout_seconds
                try:
                    if base_carries is not None:
                        worker.call(
                            "load",
                            {
                                "carries": {
                                    c: base_carries[c] for c in worker.cells
                                }
                            },
                            timeout=deadline,
                        )
                    if history:
                        worker.call(
                            "replay",
                            {"epochs": history},
                            timeout=(
                                None
                                if deadline is None
                                else deadline * max(1, len(history))
                            ),
                        )
                    if epoch_data is not None:
                        worker.send("epoch", epoch_data(worker))
                except WorkerFailure as next_exc:
                    exc = next_exc
                    continue
                if trace:
                    self.tracer.event(
                        "shard.worker_rebuilt",
                        {"worker": worker.index, "cells": worker.cells},
                    )
                return

        epochs: "list[tuple[int, int]]" = []
        s = completed
        while s < horizon:
            n = min(self.epoch, horizon - s)
            epochs.append((s, n))
            s += n

        try:
            for w in range(workers_n):
                cells_w = list(range(w, num_cells, workers_n))
                payload = {
                    "cells": cells_w,
                    "scenarios": {c: self.cell_scenarios[c] for c in cells_w},
                    "controller": self.controller_name,
                    "v": self.v,
                    "z": self.z,
                    "backends": {c: self.backends[c] for c in cells_w},
                    "controller_params": self.controller_params,
                    "initial_budgets": {c: float(initial[c]) for c in cells_w},
                    "compiled": compiled,
                    "chunk": chunk,
                    "trace_phases": trace,
                    "telemetry": self.registry is not None,
                    "monitors": self.monitors,
                    "shared": (
                        {c: descriptors[c] for c in cells_w}
                        if planner is not None
                        else None
                    ),
                }
                workers.append(ResidentWorker(w, cells_w, payload, ctx=ctx))
            if resume_state is not None:
                for worker in workers:
                    worker.call(
                        "load",
                        {
                            "carries": {
                                c: resume_state.carries[c]
                                for c in worker.cells
                            }
                        },
                        timeout=self.timeout_seconds,
                    )
                if planner is not None:
                    for c in range(num_cells):
                        planner.load_stream_state(c, resume_state.carries[c])
            if planner is not None and epochs:
                buffer = planner.fill(0, *epochs[0])
            else:
                buffer = None
            next_buffer = None
            for e, (start, count) in enumerate(epochs):
                budgets = self.coordinator.budgets()
                budgets_applied.append(budgets)
                shares = {c: float(budgets[c]) for c in range(num_cells)}
                budget_history.append((start, count, shares))
                attempts.clear()

                def epoch_data(worker, _start=start, _count=count,
                               _buffer=buffer, _shares=shares):
                    return {
                        "start": _start,
                        "count": _count,
                        "buffer": _buffer,
                        "budgets": {c: _shares[c] for c in worker.cells},
                    }

                for worker in workers:
                    data = epoch_data(worker)
                    if (
                        self._chaos_hang is not None
                        and not self._chaos_fired
                        and self._chaos_hang[0] == e
                        and worker is workers[self._chaos_hang[1] % len(workers)]
                    ):
                        # Chaos seam: this worker sleeps through the
                        # epoch instead of answering; only the
                        # heartbeat watchdog can catch it.  Fired once,
                        # so the salvage re-dispatch runs clean.
                        self._chaos_fired = True
                        data = dict(data, hang=True)
                    try:
                        worker.send("epoch", data)
                    except WorkerFailure as exc:
                        rebuild(worker, exc, e, epoch_data)
                # Pipelining: compile the next epoch's states into the
                # other buffer while the workers are solving this one.
                if planner is not None and e + 1 < len(epochs):
                    next_buffer = planner.fill(e + 1, *epochs[e + 1])
                if (
                    self._chaos_kill is not None
                    and not self._chaos_fired
                    and self._chaos_kill[0] == e
                ):
                    self._chaos_fired = True
                    victim = workers[self._chaos_kill[1] % len(workers)]
                    if victim.process is not None:
                        victim.process.kill()
                spends = np.zeros(num_cells)
                for worker in workers:
                    while True:
                        try:
                            reply = worker.recv(self.timeout_seconds)
                            break
                        except WorkerFailure as exc:
                            rebuild(worker, exc, e, epoch_data)
                    for c, out in reply["cells"].items():
                        for key in _METRIC_KEYS:
                            metrics[c][key].extend(out["metrics"][key])
                        spends[c] = out["spend"]
                        for data in out.get("alerts", ()):
                            if trace:
                                self.tracer.event("alert", data)
                    if self.registry is not None:
                        self.registry.merge_snapshot(
                            reply.get("telemetry"), generation=start + 1
                        )
                buffer = next_buffer
                completed = start + count
                session_done = e + 1
                new_budgets = self.coordinator.update(spends)
                self._publish_epoch(completed, new_budgets)
                if trace:
                    self.tracer.event(
                        "shard.epoch",
                        {
                            "completed": completed,
                            "spends": spends.tolist(),
                            "budgets": new_budgets.tolist(),
                        },
                    )
                pull_due = (
                    self.carry_every is not None
                    and session_done % self.carry_every == 0
                    and completed < horizon
                )
                ckpt_due = (
                    ckpt is not None and completed - last_ckpt >= ckpt.every
                )
                if pull_due or ckpt_due:
                    carries: dict = {}
                    for worker in workers:
                        while True:
                            try:
                                carries.update(
                                    worker.call(
                                        "pull", timeout=self.timeout_seconds
                                    )
                                )
                                break
                            except WorkerFailure as exc:
                                rebuild(worker, exc, session_done, None)
                    if planner is not None:
                        # The parent owns the live state stream in
                        # shared mode; patch this epoch's boundary
                        # snapshot into the carries so a restore
                        # re-creates both sides consistently.
                        for c in range(num_cells):
                            carries[c] = dict(carries[c])
                            carries[c].update(planner.stream_state(c, e))
                    base_carries = carries
                    base_epoch = session_done
                    if ckpt_due:
                        self._write_shard_checkpoint(
                            ckpt.path,
                            horizon,
                            completed,
                            carries,
                            metrics,
                            budgets_applied,
                        )
                        last_ckpt = completed
            finish_out: dict = {}
            for worker in workers:
                while True:
                    try:
                        reply = worker.call(
                            "finish", timeout=self.timeout_seconds
                        )
                        break
                    except WorkerFailure as exc:
                        rebuild(worker, exc, len(budget_history), None)
                finish_out.update(reply["cells"])
                if self.registry is not None:
                    self.registry.merge_snapshot(
                        reply.get("telemetry"), generation=horizon + 1
                    )
            if trace and isinstance(self.tracer, Probe):
                for c in range(num_cells):
                    state = finish_out.get(c, {}).get("phase_state")
                    if state is not None:
                        self.tracer.merge_phase_state(state, order=(0, c))
            if self.monitors:
                self._health = self._assemble_health_resident(finish_out)
        finally:
            for worker in workers:
                worker.stop()
            if planner is not None:
                planner.close()
        return metrics, budgets_applied

    def _note_worker_failure(
        self, attempts: dict, worker: "ResidentWorker", exc: Exception
    ) -> bool:
        attempts[worker.index] = attempts.get(worker.index, 0) + 1
        retry = attempts[worker.index] <= self.max_retries
        logger.warning(
            "resident worker %d (cells %s) failed (attempt %d/%d): %s",
            worker.index,
            worker.cells,
            attempts[worker.index],
            self.max_retries + 1,
            exc,
        )
        hung = bool(getattr(exc, "hung", False))
        if self.tracer.enabled:
            self.tracer.counter("resilience.shard_retries", 1)
            if hung:
                # The watchdog (heartbeat silence past the per-epoch
                # deadline) caught a live-but-stuck worker; distinguish
                # it from a plain death in traces and telemetry.
                self.tracer.counter("resilience.worker_hangs", 1)
                self.tracer.event(
                    "shard.worker_hung",
                    {
                        "worker": worker.index,
                        "cells": worker.cells,
                        "deadline_seconds": self.timeout_seconds,
                    },
                )
            self.tracer.event(
                "shard.retry",
                {
                    "worker": worker.index,
                    "cells": worker.cells,
                    "attempt": attempts[worker.index],
                    "error": str(exc),
                },
            )
            # Keep the partial trace whole-record durable before the
            # salvage replay: a parent killed mid-rebuild must not leave
            # a JSONL record truncated mid-line.
            self.tracer.flush()
        if self.registry is not None:
            counter = self.registry.counter(
                "repro_shard_retries_total",
                "Sharded epoch jobs that failed and were retried",
            )
            for c in worker.cells:
                counter.inc(1.0, cell=c)
        return retry

    def _assemble_health_resident(self, finish_out: dict) -> HealthReport:
        statuses: list[MonitorStatus] = []
        alerts: list[Alert] = []
        for c in sorted(finish_out):
            cell = finish_out[c]
            for s in cell.get("statuses", ()):
                statuses.append(
                    MonitorStatus(
                        name=f"cell{c}/{s['name']}",
                        status=s["status"],
                        detail=s["detail"],
                        alerts=s["alerts"],
                    )
                )
            for data in cell.get("alerts", ()):
                alerts.append(
                    Alert(
                        monitor=data["monitor"],
                        severity=data["severity"],
                        message=data["message"],
                        t=data.get("t"),
                        data=dict(data.get("data", {})),
                    )
                )
        return HealthReport(statuses=tuple(statuses), alerts=tuple(alerts))

    # -- checkpoint plumbing -----------------------------------------------

    def _config_hash(self, horizon: int) -> str:
        config = {
            "seed": self.scenario.seeds.seed,
            "horizon": int(horizon),
            "budget": float(self.total_budget),
            "controller": self.controller_name,
            "devices": self.scenario.network.num_devices,
            "cells": self.plan.num_cells,
            "epoch": self.epoch,
            "coordinator": self.coordinator.mode,
        }
        return hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest()[:16]

    def _write_shard_checkpoint(
        self, path, horizon, completed, carries, metrics, budgets_applied
    ) -> None:
        ShardCheckpoint(
            config_hash=self._config_hash(horizon),
            horizon=int(horizon),
            completed=int(completed),
            coordinator=self.coordinator.state_dict(),
            carries=[carries[c] for c in range(len(self.cell_scenarios))],
            metrics=[{k: list(m[k]) for k in _METRIC_KEYS} for m in metrics],
            budgets=[list(map(float, b)) for b in budgets_applied],
        ).write(path)
        if self.tracer.enabled:
            self.tracer.counter("resilience.checkpoints", 1)
            self.tracer.event(
                "checkpoint", {"slot": int(completed), "path": str(path)}
            )
        if (
            self._halt_after_slots is not None
            and completed >= self._halt_after_slots
        ):
            raise _HaltRequested(
                f"halted after checkpoint at slot {completed}"
            )

    def _load_shard_checkpoint(self, path: Path, horizon: int) -> ShardCheckpoint:
        ck = ShardCheckpoint.load(path)
        if ck.config_hash != self._config_hash(horizon):
            raise CheckpointError(
                f"checkpoint {path} belongs to a different sharded run "
                f"(hash {ck.config_hash} != {self._config_hash(horizon)}); "
                "pass resume=False to overwrite it"
            )
        if ck.horizon != horizon:
            raise CheckpointError(
                f"checkpoint {path} was taken for horizon {ck.horizon}, "
                f"requested {horizon}"
            )
        return ck

    # -- telemetry / monitor plumbing --------------------------------------

    def _publish_epoch(self, completed: int, budgets: np.ndarray) -> None:
        """Parent-side epoch gauges: progress and the per-cell splits."""
        if self.registry is None:
            return
        self.registry.gauge(
            "repro_shard_completed_slots",
            "Slots completed by the sharded run so far",
        ).set(float(completed))
        budget_gauge = self.registry.gauge(
            "repro_cell_budget",
            "Per-cell budget share applied for the next epoch ($/slot)",
        )
        for c, value in enumerate(budgets):
            budget_gauge.set(float(value), cell=c)

    def _assemble_health_sequential(
        self, suites: "list[MonitorSuite | None]"
    ) -> HealthReport:
        statuses: list[MonitorStatus] = []
        alerts: list[Alert] = []
        for c, suite in enumerate(suites):
            if suite is None:
                continue
            report = suite.finish()
            statuses.extend(
                MonitorStatus(
                    name=f"cell{c}/{s.name}",
                    status=s.status,
                    detail=s.detail,
                    alerts=s.alerts,
                )
                for s in report.statuses
            )
            alerts.extend(report.alerts)
        return HealthReport(statuses=tuple(statuses), alerts=tuple(alerts))

    # -- public ------------------------------------------------------------

    def run(
        self,
        horizon: int,
        *,
        compiled_states: bool = True,
        state_chunk: int = 32,
        checkpoint: "str | Path | None" = None,
        checkpoint_every: "int | None" = None,
        resume: bool = False,
    ) -> ShardedResult:
        """Simulate *horizon* slots across every cell and merge.

        Cells advance in lockstep epochs; after each epoch the budget
        coordinator re-splits ``Cbar`` from the observed spends.  The
        resident and sequential runtimes produce bit-identical
        trajectories: both advance the same :class:`CellRuntime`
        objects, and a rebuilt resident worker replays the carry-state
        arithmetic the checkpoint layer proved exact.

        Args:
            checkpoint: Snapshot the run to this path at epoch
                boundaries (a :class:`~repro.sim.checkpoint.ShardCheckpoint`,
                resumable on either runtime).
            checkpoint_every: Minimum slots between snapshots; defaults
                to the epoch length (one snapshot per epoch).
            resume: Continue from a matching snapshot at *checkpoint*;
                without one the run starts fresh.  Resumed trajectories
                are bit-identical to an uninterrupted run's.
        """
        if horizon < 0:
            raise ConfigurationError(f"horizon must be >= 0, got {horizon}")
        self._health = None
        self._chaos_fired = False
        pooled = self.processes is not None and self.processes > 1
        ckpt = None
        resume_state = None
        if checkpoint is not None:
            every = self.epoch if checkpoint_every is None else int(checkpoint_every)
            if every < 1:
                raise ConfigurationError(
                    f"checkpoint interval must be >= 1, got {checkpoint_every}"
                )
            path = Path(checkpoint)
            ckpt = _CheckpointPlan(path=path, every=every)
            if resume and path.exists():
                resume_state = self._load_shard_checkpoint(path, horizon)
        run_cells = self._run_resident if pooled else self._run_sequential
        metrics, budgets = run_cells(
            horizon,
            compiled=compiled_states,
            chunk=state_chunk,
            ckpt=ckpt,
            resume_state=resume_state,
        )
        merged = merge_cell_metrics(metrics, self.total_budget)
        cell_summaries = [
            SimulationResult(
                **{k: np.asarray(m[k], dtype=np.float64) for k in _METRIC_KEYS},
                budget=float(b),
            ).summary()
            for m, b in zip(metrics, self.coordinator.budgets())
        ]
        if self._health is not None:
            merged.health = self._health
        return ShardedResult(
            merged=merged,
            cells=cell_summaries,
            budgets=np.array(budgets) if budgets else None,
            plan=self.plan,
            health=self._health,
        )


def run_sharded(
    scenario: Scenario,
    *,
    horizon: int,
    cells: "CellPlan | int",
    controller: str = "dpp",
    v: float = 100.0,
    z: "int | None" = None,
    budget: "float | None" = None,
    epoch: int = 24,
    coordinator: str = "proportional",
    floor_fraction: float = 0.1,
    smoothing: float = 0.5,
    engine_backend: "str | list | tuple | None" = None,
    processes: "int | None" = None,
    shared_states: "bool | None" = None,
    carry_every: "int | None" = None,
    timeout_seconds: "float | None" = None,
    max_retries: int = 2,
    tracer: "Tracer | None" = None,
    registry: "MetricsRegistry | None" = None,
    monitors: bool = False,
    compiled_states: bool = True,
    state_chunk: int = 32,
    checkpoint: "str | Path | None" = None,
    checkpoint_every: "int | None" = None,
    resume: bool = False,
    **controller_params: object,
) -> ShardedResult:
    """One-call sharded run: partition, coordinate, execute, merge.

    See :class:`ShardedController` for the knobs.  Returns the
    :class:`ShardedResult`; ``result.merged`` is the drop-in
    cross-cell :class:`~repro.sim.results.SimulationResult`.
    """
    sharded = ShardedController(
        scenario,
        cells,
        controller=controller,
        v=v,
        z=z,
        budget=budget,
        epoch=epoch,
        coordinator=coordinator,
        floor_fraction=floor_fraction,
        smoothing=smoothing,
        engine_backend=engine_backend,
        processes=processes,
        shared_states=shared_states,
        carry_every=carry_every,
        timeout_seconds=timeout_seconds,
        max_retries=max_retries,
        tracer=tracer,
        registry=registry,
        monitors=monitors,
        **controller_params,
    )
    return sharded.run(
        horizon,
        compiled_states=compiled_states,
        state_chunk=state_chunk,
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        resume=resume,
    )
