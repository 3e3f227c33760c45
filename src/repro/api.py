"""The unified run facade: one entry point for every controller.

Before this module existed, the CLI, the experiments, the examples, and
the replication workers each re-implemented the same wiring: map a
solver name to a P2-A solver and a ``z``, derive the rng stream,
optionally warm-start the virtual queue at its equilibrium, then drive
:func:`repro.sim.engine.run_simulation`.  :func:`make_controller` and
:func:`run` are that wiring, once.

As the facade grew (checkpoints, kernels, monitors, and now multi-cell
sharding) the flat keyword list did too, so the knobs are grouped into
a frozen :class:`RunConfig` of cohesive blocks -- :class:`EngineConfig`,
:class:`CheckpointConfig`, :class:`ObsConfig`, :class:`CellConfig`.
``run(config=...)`` accepts one, bare keywords keep working and
*override* the config, and :meth:`RunConfig.to_dict` feeds
:class:`repro.obs.manifest.RunManifest` so provenance captures the full
configuration.

Quickstart::

    import repro

    config = repro.api.RunConfig(controller="dpp", horizon=48, seed=7)
    result = repro.api.run(config=config)
    print(result.summary())

    # Bare keywords still work, and override the config:
    result = repro.api.run(config=config, horizon=96)

    # Or with an explicit scenario, tracer, and baseline controller:
    scenario = repro.make_paper_scenario(seed=7)
    probe = repro.obs.Probe()
    result = repro.api.run(
        scenario=scenario, controller="mcba", horizon=48, tracer=probe
    )
    print(probe.phases.table())
"""

from __future__ import annotations

import difflib
from dataclasses import asdict, dataclass, field, is_dataclass

from repro.analysis.equilibrium import estimate_equilibrium_backlog
from repro.baselines.fixed_frequency import FixedFrequencyController
from repro.baselines.greedy import greedy_p2a_solver
from repro.baselines.mcba import mcba_p2a_solver
from repro.baselines.ropt import ropt_p2a_solver
from repro.config import DEFAULT_PERIOD, ScenarioConfig, make_paper_scenario
from repro.core.bdma import P2ASolver
from repro.core.budget import BudgetSchedule
from repro.core.controller import DPPController, OnlineController
from repro.exceptions import ConfigurationError
from repro.network.topology import MECNetwork
from repro.obs.probe import Tracer
from repro.sim.engine import run_simulation
from repro.sim.results import SimulationResult
from repro.sim.scenario import Scenario
from repro.types import Rng

__all__ = [
    "CONTROLLER_NAMES",
    "CellConfig",
    "CheckpointConfig",
    "EngineConfig",
    "ObsConfig",
    "RunConfig",
    "make_controller",
    "run",
]

#: Controller names :func:`make_controller` understands.  ``"bdma"`` is
#: an alias of ``"dpp"`` (the paper's BDMA-based DPP); ``"mcba"`` and
#: ``"ropt"`` are the paper's baselines as DPP P2-A solvers;
#: ``"greedy"`` is the one-pass ablation solver; ``"fixed"`` pins every
#: server clock (``fraction=`` selects where in the range).
CONTROLLER_NAMES = ("dpp", "bdma", "mcba", "ropt", "greedy", "fixed")

#: Default BDMA alternation rounds per controller name.  Single-shot
#: P2-A solvers (MCBA, ROPT, greedy) gain nothing from re-alternation,
#: mirroring the paper's baseline setups.
_DEFAULT_Z = {"dpp": 3, "bdma": 3, "mcba": 1, "ropt": 1, "greedy": 1, "fixed": 1}

#: Extra construction knobs each controller family accepts via
#: ``**params`` (beyond :func:`make_controller`'s named keywords).
_DPP_KNOBS = frozenset(
    {"warm_start", "carry_over", "resilience", "overload"}
)
_FAMILY_KNOBS: "dict[str, frozenset[str]]" = {
    "dpp": _DPP_KNOBS,
    "bdma": _DPP_KNOBS,
    "ropt": _DPP_KNOBS,
    "mcba": _DPP_KNOBS | {"iterations", "initial_temperature_fraction", "cooling"},
    "greedy": _DPP_KNOBS | {"joint", "shuffle"},
    "fixed": frozenset({"fraction", "slack"}),
}


def _validate_params(name: str, params: dict) -> None:
    """Reject unknown family knobs with a did-you-mean message."""
    allowed = _FAMILY_KNOBS[name]
    unknown = sorted(set(params) - allowed)
    if not unknown:
        return
    described = []
    for key in unknown:
        close = difflib.get_close_matches(key, sorted(allowed), n=1)
        described.append(f"{key!r} (did you mean {close[0]!r}?)" if close else repr(key))
    raise ConfigurationError(
        f"unknown parameter(s) for controller {name!r}: {', '.join(described)}; "
        f"accepted knobs: {sorted(allowed)}"
    )


def _p2a_solver_for(name: str, params: dict) -> P2ASolver | None:
    """The P2-A solver behind a controller name (``None`` = CGBA)."""
    if name in ("dpp", "bdma"):
        return None
    if name == "mcba":
        keys = ("iterations", "initial_temperature_fraction", "cooling")
        return mcba_p2a_solver(**{k: params.pop(k) for k in keys if k in params})
    if name == "ropt":
        return ropt_p2a_solver()
    if name == "greedy":
        keys = ("joint", "shuffle")
        return greedy_p2a_solver(**{k: params.pop(k) for k in keys if k in params})
    raise ConfigurationError(
        f"unknown controller {name!r}; expected one of {CONTROLLER_NAMES}"
    )


def make_controller(
    name: str,
    scenario: Scenario | None = None,
    *,
    v: float = 100.0,
    z: int | None = None,
    budget: "float | BudgetSchedule | None" = None,
    network: MECNetwork | None = None,
    rng: Rng | None = None,
    rng_label: str | None = None,
    equilibrium_rng_label: str | None = None,
    initial_backlog: float = 0.0,
    warm_start_queue: bool = False,
    tracer: "Tracer | None" = None,
    engine_backend: str | None = None,
    **params: object,
) -> OnlineController:
    """Build a named controller wired to a scenario (or a bare network).

    Args:
        name: One of :data:`CONTROLLER_NAMES`.
        scenario: The scenario supplying network, rng streams, and the
            default budget.  May be omitted when ``network``, ``rng``,
            and ``budget`` are all given explicitly (e.g. hand-built
            topologies).
        v: DPP trade-off parameter ``V`` (ignored by ``"fixed"``).
        z: BDMA alternation rounds; defaults to 3 for ``"dpp"`` and 1
            for the single-shot baselines.
        budget: Energy-cost budget ``Cbar`` -- a number or, for the DPP
            family, any :class:`~repro.core.budget.BudgetSchedule`;
            defaults to ``scenario.budget``.
        network: Topology override when no scenario is given.
        rng: Controller rng override; defaults to
            ``scenario.controller_rng(rng_label or name)``.
        rng_label: Name of the scenario rng stream to draw (so callers
            can keep historical stream names for reproducibility).
        equilibrium_rng_label: Stream name for the warm-start
            equilibrium estimate (default ``"<rng_label>-equilibrium"``).
        initial_backlog: ``Q(1)``; overridden by ``warm_start_queue``.
        warm_start_queue: Start the virtual queue at its estimated
            equilibrium backlog (requires a scenario).
        tracer: Observability tracer threaded into the controller.
        engine_backend: Array-kernel backend (``"numpy"`` or ``"jit"``)
            for the DPP family's hot loops; see :mod:`repro.kernels`.
            Bit-identical across backends -- wall-clock only.  The
            ``"fixed"`` controller has no array hot loop and ignores it.
        **params: Controller-family extras -- e.g. ``iterations=`` for
            MCBA, ``joint=`` for greedy, ``fraction=``/``slack=`` for
            fixed, ``warm_start=``/``carry_over=`` for DPP.  Unknown
            keys are rejected up front with the family's accepted list
            (and a did-you-mean hint).

    Returns:
        A ready-to-run :class:`~repro.core.controller.OnlineController`.

    Raises:
        ConfigurationError: On an unknown name, a missing scenario where
            one is required, or unknown ``params`` keys.
    """
    if name not in CONTROLLER_NAMES:
        raise ConfigurationError(
            f"unknown controller {name!r}; expected one of {CONTROLLER_NAMES}"
        )
    _validate_params(name, params)
    if scenario is None and (network is None or rng is None or budget is None):
        raise ConfigurationError(
            "make_controller needs a scenario, or explicit network+rng+budget"
        )
    if network is None:
        assert scenario is not None
        network = scenario.network
    if budget is None:
        assert scenario is not None
        budget = scenario.budget
    if rng is None:
        assert scenario is not None
        rng = scenario.controller_rng(rng_label or name)
    if warm_start_queue:
        if scenario is None:
            raise ConfigurationError("warm_start_queue requires a scenario")
        label = equilibrium_rng_label or f"{rng_label or name}-equilibrium"
        initial_backlog = estimate_equilibrium_backlog(
            network,
            list(scenario.fresh_states(DEFAULT_PERIOD)),
            scenario.controller_rng(label),
            v=v,
            budget=budget.average if isinstance(budget, BudgetSchedule) else budget,
        )

    if name == "fixed":
        if isinstance(budget, BudgetSchedule):
            budget = budget.average
        controller: OnlineController = FixedFrequencyController(
            network,
            rng,
            fraction=float(params.pop("fraction", 1.0)),  # type: ignore[arg-type]
            budget=budget,
            slack=float(params.pop("slack", 0.0)),  # type: ignore[arg-type]
            tracer=tracer,
        )
    else:
        solver = _p2a_solver_for(name, params)
        controller = DPPController(
            network,
            rng,
            v=v,
            budget=budget,
            z=_DEFAULT_Z[name] if z is None or name not in ("dpp", "bdma") else z,
            p2a_solver=solver,
            initial_backlog=initial_backlog,
            tracer=tracer,
            engine_backend=engine_backend,
            **params,  # type: ignore[arg-type]
        )
    return controller


# -- the RunConfig blocks ------------------------------------------------


@dataclass(frozen=True)
class EngineConfig:
    """How states are drawn and kernels executed.

    Attributes:
        backend: Array-kernel backend for the controller's hot loops
            (``"numpy"``/``"jit"``; ``None`` = default).  Bit-identical
            across backends -- wall-clock only.
        compiled_states: Feed the controller through the compiled state
            pipeline (bit-identical states, drawn in chunks).
        state_chunk: Slots per compiled chunk.
    """

    backend: str | None = None
    compiled_states: bool = True
    state_chunk: int = 32


@dataclass(frozen=True)
class CheckpointConfig:
    """Snapshot/resume policy (see :mod:`repro.sim.checkpoint`).

    Attributes:
        path: Checkpoint file; ``None`` disables checkpointing.
        every: Slots between snapshots.
        resume: Continue from an existing matching snapshot.
    """

    path: str | None = None
    every: int = 16
    resume: bool = False


@dataclass(frozen=True)
class ObsConfig:
    """Observability defaults carried by the config.

    Attributes:
        monitors: Attach :func:`repro.obs.monitors.default_monitors`.
        keep_records: Retain full per-slot records on the result.
        metrics_port: Serve live OpenMetrics on this local port for the
            duration of the run (``0`` picks an ephemeral port; ``None``
            disables the endpoint).  See :mod:`repro.obs.server`.
    """

    monitors: bool = False
    keep_records: bool = False
    metrics_port: int | None = None


@dataclass(frozen=True)
class CellConfig:
    """Multi-cell sharding block (see :mod:`repro.sim.sharded`).

    Attributes:
        count: Number of cells to partition the network into (1 runs
            the sharded engine over the whole network -- bit-identical
            to an unsharded run).
        epoch: Slots between budget-coordinator re-splits.
        coordinator: ``"proportional"`` or ``"static"`` pacing.
        floor_fraction: Per-cell budget floor (fraction of fair share).
        smoothing: Exponential smoothing on observed per-cell spends.
        processes: Worker processes for cell execution (``None``/1 =
            sequential in-process).
        backends: Per-cell kernel backends (``None`` = the engine
            block's backend everywhere).
        partition_restarts: K-means restarts when partitioning.
        balance_weight: Weight of the workload-balance term in the
            partition score.
        timeout_seconds: Per-epoch worker silence deadline with
            ``processes > 1`` (the hung-worker watchdog).
        max_retries: Retries per worker and epoch after a failure.
        shared_states: Ship compiled slot states to resident workers
            through shared memory (``None`` = automatic: on whenever
            the scenario's state stream supports parent-side
            compilation).
        carry_every: Pull worker carry state back to the parent every
            N epochs as a salvage base (``None`` = only at the end and
            at checkpoints).
    """

    count: int = 1
    epoch: int = 24
    coordinator: str = "proportional"
    floor_fraction: float = 0.1
    smoothing: float = 0.5
    processes: int | None = None
    backends: "tuple[str | None, ...] | None" = None
    partition_restarts: int = 8
    balance_weight: float = 1.0
    timeout_seconds: float | None = None
    max_retries: int = 2
    shared_states: bool | None = None
    carry_every: int | None = None


def _as_pairs(params: "dict | tuple") -> "tuple[tuple[str, object], ...]":
    if isinstance(params, dict):
        return tuple(sorted(params.items()))
    return tuple((str(k), v) for k, v in params)


@dataclass(frozen=True)
class RunConfig:
    """Everything :func:`run` needs, as one frozen value.

    Scalar knobs stay top-level; cohesive groups live in blocks
    (:attr:`engine`, :attr:`checkpoint`, :attr:`obs`, :attr:`cells`).
    Bare keywords passed to :func:`run` override the corresponding
    config fields, so a config can serve as a base profile.

    Attributes:
        controller: Name from :data:`CONTROLLER_NAMES`.
        seed: Root seed for the default scenario.
        scenario_config: Knobs for the default scenario.
        horizon: Number of slots to simulate.
        v: DPP trade-off parameter ``V``.
        z: BDMA alternation rounds.
        budget: Energy budget override (``None`` = scenario's).
        warm_start_queue: Start the queue at its estimated equilibrium.
        engine: State-pipeline and kernel block.
        checkpoint: Snapshot/resume block.
        obs: Observability block.
        cells: Sharding block; ``None`` runs unsharded.
        controller_params: Extra family knobs as ``(key, value)`` pairs
            (kept as a tuple so the config stays hashable); a dict is
            accepted and normalised.
    """

    controller: str = "dpp"
    seed: int = 7
    scenario_config: ScenarioConfig | None = None
    horizon: int = 48
    v: float = 100.0
    z: int | None = None
    budget: float | None = None
    warm_start_queue: bool = False
    engine: EngineConfig = field(default_factory=EngineConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    cells: CellConfig | None = None
    controller_params: "tuple[tuple[str, object], ...]" = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "controller_params", _as_pairs(self.controller_params)
        )

    def to_dict(self) -> dict:
        """JSON-ready nested view, for :class:`~repro.obs.manifest.RunManifest`.

        Field names mirror the dataclass structure so a manifest diff
        reads like a config diff.
        """
        out: dict = {
            "controller": self.controller,
            "seed": self.seed,
            "scenario_config": (
                asdict(self.scenario_config) if self.scenario_config else None
            ),
            "horizon": self.horizon,
            "v": self.v,
            "z": self.z,
            "budget": self.budget,
            "warm_start_queue": self.warm_start_queue,
            "engine": asdict(self.engine),
            "checkpoint": asdict(self.checkpoint),
            "obs": asdict(self.obs),
            "cells": asdict(self.cells) if self.cells else None,
            "controller_params": {
                # Policy knobs (resilience, overload, ...) are frozen
                # dataclasses; expand them so the manifest stays JSON.
                key: asdict(value) if is_dataclass(value) else value
                for key, value in self.controller_params
            },
        }
        if out["cells"] and out["cells"]["backends"] is not None:
            out["cells"]["backends"] = list(out["cells"]["backends"])
        return out


class _Unset:
    """Sentinel distinguishing 'not passed' from an explicit ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unset>"


_UNSET = _Unset()


def _pick(value, fallback):
    return fallback if value is _UNSET else value


def _run_sharded_path(
    scenario: Scenario,
    cfg: CellConfig,
    *,
    controller: str,
    horizon: int,
    v: float,
    z: "int | None",
    budget: "float | None",
    tracer: "Tracer | None",
    engine_backend: "str | None",
    compiled_states: bool,
    state_chunk: int,
    controller_params: dict,
    registry=None,
    monitors: bool = False,
    checkpoint: "str | None" = None,
    checkpoint_every: "int | None" = None,
    resume: bool = False,
) -> SimulationResult:
    from repro.network.partition import partition_cells
    from repro.sim.sharded import run_sharded

    plan = partition_cells(
        scenario.network,
        cfg.count,
        rng=scenario.seeds.rng("cell-partition"),
        restarts=cfg.partition_restarts,
        balance_weight=cfg.balance_weight,
    )
    sharded = run_sharded(
        scenario,
        horizon=horizon,
        cells=plan,
        controller=controller,
        v=v,
        z=z,
        budget=budget,
        epoch=cfg.epoch,
        coordinator=cfg.coordinator,
        floor_fraction=cfg.floor_fraction,
        smoothing=cfg.smoothing,
        engine_backend=(
            cfg.backends if cfg.backends is not None else engine_backend
        ),
        processes=cfg.processes,
        timeout_seconds=cfg.timeout_seconds,
        max_retries=cfg.max_retries,
        shared_states=cfg.shared_states,
        carry_every=cfg.carry_every,
        tracer=tracer,
        registry=registry,
        monitors=monitors,
        compiled_states=compiled_states,
        state_chunk=state_chunk,
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        resume=resume,
        **controller_params,
    )
    return sharded.merged


def run(
    *,
    config: RunConfig | None = None,
    scenario: Scenario | None = None,
    seed: "int | _Unset" = _UNSET,
    scenario_config: "ScenarioConfig | None | _Unset" = _UNSET,
    controller: "str | OnlineController | _Unset" = _UNSET,
    horizon: "int | _Unset" = _UNSET,
    v: "float | _Unset" = _UNSET,
    z: "int | None | _Unset" = _UNSET,
    budget: "float | None | _Unset" = _UNSET,
    tracer: "Tracer | None" = None,
    engine_backend: "str | None | _Unset" = _UNSET,
    monitors: "object | None" = None,
    metrics_port: "int | None | _Unset" = _UNSET,
    metrics_registry=None,
    keep_records: "bool | _Unset" = _UNSET,
    on_slot=None,
    warm_start_queue: "bool | _Unset" = _UNSET,
    compiled_states: "bool | _Unset" = _UNSET,
    state_chunk: "int | _Unset" = _UNSET,
    checkpoint: "str | None | _Unset" = _UNSET,
    checkpoint_every: "int | _Unset" = _UNSET,
    resume: "bool | _Unset" = _UNSET,
    cells: "int | CellConfig | None | _Unset" = _UNSET,
    **controller_params: object,
) -> SimulationResult:
    """Run one simulation end to end and return its result.

    The single public entry point: builds the scenario (unless given),
    the controller (unless an instance is given), threads the tracer
    through both the controller and the simulation loop, and runs
    ``horizon`` slots.  All knobs can come from a :class:`RunConfig`
    (``config=``); bare keywords override its fields.

    Args:
        config: Base configuration; any bare keyword below overrides
            the corresponding field/block entry.
        scenario: Scenario to simulate; built from ``seed`` /
            ``scenario_config`` via
            :func:`repro.config.make_paper_scenario` when omitted.
        seed: Root seed for the default scenario.
        scenario_config: Knobs for the default scenario.
        controller: A name from :data:`CONTROLLER_NAMES` or an already
            built :class:`~repro.core.controller.OnlineController`.
        horizon: Number of slots to simulate.
        v: DPP trade-off parameter ``V``.
        z: BDMA alternation rounds (see :func:`make_controller`).
        budget: Energy budget; ``scenario.budget`` when omitted.
        tracer: Observability tracer (e.g. :class:`repro.obs.Probe`).
        engine_backend: Array-kernel backend for the controller's hot
            loops (``"numpy"``/``"jit"``; see :mod:`repro.kernels`).
            Results are bit-identical across backends -- only the slot
            throughput changes.  Incompatible with an already built
            ``controller`` instance (configure the backend at
            construction instead).
        monitors: Health monitors to watch the run -- a
            :class:`repro.obs.monitors.MonitorSuite`, an iterable of
            :class:`~repro.obs.monitors.Monitor`, or ``True`` for
            :func:`repro.obs.monitors.default_monitors` wired to the
            run's budget and network.  A recording tracer is created
            automatically when none was given; the finished
            :class:`~repro.obs.monitors.HealthReport` lands on
            ``result.health``.
        metrics_port: Serve live OpenMetrics at
            ``http://127.0.0.1:<port>/metrics`` for the duration of the
            run (``0`` = ephemeral port).  A
            :class:`~repro.obs.telemetry.MetricsRegistry` is created
            (unless ``metrics_registry`` is given) and fed by the run:
            slot counters, queue/budget gauges, per-phase and per-kernel
            latency histograms.  The endpoint is torn down before the
            call returns.
        metrics_registry: Publish the run's telemetry into this
            :class:`~repro.obs.telemetry.MetricsRegistry` (created
            automatically when only ``metrics_port`` is given).  Pass
            your own to scrape/inspect after the run, e.g. via
            :meth:`~repro.obs.telemetry.MetricsRegistry.render_openmetrics`.
        keep_records: Retain full per-slot records on the result.
        on_slot: Per-slot progress callback.
        warm_start_queue: Start the queue at its estimated equilibrium.
        compiled_states: Feed the controller through the compiled state
            pipeline
            (:meth:`~repro.sim.scenario.Scenario.fresh_compiled_states`).
            Bit-identical states either way; the compiled path draws
            them in chunks.  Disable to exercise the per-slot path.
        state_chunk: Slots per compiled chunk (with ``compiled_states``).
        checkpoint: Path of a run-checkpoint file.  When given, the run
            snapshots its full cross-slot state there every
            ``checkpoint_every`` slots (atomically) via
            :func:`repro.sim.checkpoint.run_checkpointed`, or -- with
            ``cells=`` -- via the sharded runtime's epoch-boundary
            :class:`~repro.sim.checkpoint.ShardCheckpoint` snapshots.
        checkpoint_every: Slots between snapshots.
        resume: With ``checkpoint=``, continue from an existing matching
            snapshot instead of starting fresh; resumed trajectories are
            bit-identical to an uninterrupted run's.
        cells: Shard the run across cells -- a cell count or a full
            :class:`CellConfig`.  Returns the merged cross-cell result;
            one cell is bit-identical to the unsharded path.  Sharded
            runs combine with ``monitors=True`` (per-cell default
            monitor suites, folded into ``result.health`` with
            ``cell<i>/`` status names) and with telemetry
            (``metrics_port=`` / ``metrics_registry=`` stream live
            per-cell metrics) and with ``checkpoint=`` (epoch-boundary
            shard snapshots, resumable across runtimes), but not with
            custom monitor suites, per-slot callbacks, record keeping,
            queue warm starts, or prebuilt controller instances.
        **controller_params: Passed to :func:`make_controller`
            (``rng_label=``, ``fraction=``, ``iterations=``, ...),
            merged over ``config.controller_params``.

    Returns:
        The :class:`~repro.sim.results.SimulationResult`.
    """
    cfg = config if config is not None else RunConfig()
    seed = _pick(seed, cfg.seed)
    scenario_config = _pick(scenario_config, cfg.scenario_config)
    controller = _pick(controller, cfg.controller)
    horizon = _pick(horizon, cfg.horizon)
    v = _pick(v, cfg.v)
    z = _pick(z, cfg.z)
    budget = _pick(budget, cfg.budget)
    engine_backend = _pick(engine_backend, cfg.engine.backend)
    keep_records = _pick(keep_records, cfg.obs.keep_records)
    warm_start_queue = _pick(warm_start_queue, cfg.warm_start_queue)
    compiled_states = _pick(compiled_states, cfg.engine.compiled_states)
    state_chunk = _pick(state_chunk, cfg.engine.state_chunk)
    checkpoint = _pick(checkpoint, cfg.checkpoint.path)
    checkpoint_every = _pick(checkpoint_every, cfg.checkpoint.every)
    resume = _pick(resume, cfg.checkpoint.resume)
    cells = _pick(cells, cfg.cells)
    metrics_port = _pick(metrics_port, cfg.obs.metrics_port)
    if monitors is None and cfg.obs.monitors:
        monitors = True
    merged_params = dict(cfg.controller_params)
    merged_params.update(controller_params)

    registry = metrics_registry
    server = None
    if registry is None and metrics_port is not None:
        from repro.obs.telemetry import MetricsRegistry

        registry = MetricsRegistry()
    if metrics_port is not None:
        from repro.obs.server import MetricsServer

        server = MetricsServer(registry, port=metrics_port)
        server.start()
    try:
        return _run_resolved(
            scenario=scenario,
            seed=seed,
            scenario_config=scenario_config,
            controller=controller,
            horizon=horizon,
            v=v,
            z=z,
            budget=budget,
            tracer=tracer,
            engine_backend=engine_backend,
            monitors=monitors,
            registry=registry,
            keep_records=keep_records,
            on_slot=on_slot,
            warm_start_queue=warm_start_queue,
            compiled_states=compiled_states,
            state_chunk=state_chunk,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            resume=resume,
            cells=cells,
            merged_params=merged_params,
        )
    finally:
        if server is not None:
            server.close()


def _run_resolved(
    *,
    scenario,
    seed,
    scenario_config,
    controller,
    horizon,
    v,
    z,
    budget,
    tracer,
    engine_backend,
    monitors,
    registry,
    keep_records,
    on_slot,
    warm_start_queue,
    compiled_states,
    state_chunk,
    checkpoint,
    checkpoint_every,
    resume,
    cells,
    merged_params,
) -> SimulationResult:
    """The body of :func:`run` after config resolution.

    Split out so the metrics endpoint in :func:`run` can wrap the whole
    execution in one ``try/finally`` regardless of which path returns.
    """
    from repro.obs.telemetry import telemetry_context

    if scenario is None:
        scenario = make_paper_scenario(seed, config=scenario_config)
    if budget is None:
        budget = scenario.budget

    if isinstance(controller, OnlineController) and engine_backend is not None:
        raise ConfigurationError(
            "engine_backend cannot be applied to an already built controller "
            "instance; pass it to the controller's constructor instead"
        )

    if cells is not None:
        if isinstance(cells, int):
            cells = CellConfig(count=cells)
        if isinstance(controller, OnlineController):
            raise ConfigurationError(
                "sharded runs build one controller per cell; pass a "
                "controller name, not an instance"
            )
        conflicts = {
            # monitors=True shards fine (per-cell default suites);
            # custom suites/iterables cannot be split across cells.
            "monitors": monitors not in (None, False, True),
            "keep_records": bool(keep_records),
            "on_slot": on_slot is not None,
            "warm_start_queue": bool(warm_start_queue),
        }
        active = sorted(k for k, bad in conflicts.items() if bad)
        if active:
            raise ConfigurationError(
                f"cells= does not combine with: {', '.join(active)}"
            )
        return _run_sharded_path(
            scenario,
            cells,
            controller=controller,
            horizon=horizon,
            v=v,
            z=z,
            budget=budget,
            tracer=tracer,
            engine_backend=engine_backend,
            compiled_states=compiled_states,
            state_chunk=state_chunk,
            controller_params=merged_params,
            registry=registry,
            monitors=monitors is True,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            resume=resume,
        )

    if registry is not None:
        from repro.obs.probe import Probe
        from repro.obs.telemetry import TelemetrySink

        if tracer is None or not tracer.enabled:
            tracer = Probe()
        add_sink = getattr(tracer, "add_sink", None)
        if add_sink is not None:
            add_sink(TelemetrySink(registry))

    suite = None
    if monitors is not None and monitors is not False:
        from repro.obs.monitors import MonitorSuite, default_monitors
        from repro.obs.probe import Probe

        if isinstance(monitors, MonitorSuite):
            suite = monitors
        elif monitors is True:
            suite = MonitorSuite(
                default_monitors(budget=budget, network=scenario.network)
            )
        else:
            suite = MonitorSuite(monitors)  # type: ignore[arg-type]
        if tracer is None or not tracer.enabled:
            tracer = Probe()
        suite.attach(tracer)  # type: ignore[arg-type]

    if isinstance(controller, OnlineController):
        ctrl = controller
    else:
        with telemetry_context(registry):
            ctrl = make_controller(
                controller,
                scenario,
                v=v,
                z=z,
                budget=budget,
                warm_start_queue=warm_start_queue,
                tracer=tracer,
                engine_backend=engine_backend,
                **merged_params,  # type: ignore[arg-type]
            )
    if checkpoint is not None:
        from repro.sim.checkpoint import run_checkpointed

        result = run_checkpointed(
            scenario,
            ctrl,
            horizon=horizon,
            path=checkpoint,
            budget=budget,
            every=checkpoint_every,
            resume=resume,
            tracer=tracer,
            keep_records=keep_records,
            on_slot=on_slot,
            compiled=compiled_states,
            chunk=state_chunk,
        )
        if suite is not None:
            result.health = suite.finish()
        return result
    states = (
        scenario.fresh_compiled_states(horizon, chunk=state_chunk, tracer=tracer)
        if compiled_states
        else scenario.fresh_states(horizon, tracer=tracer)
    )
    result = run_simulation(
        ctrl,
        states,
        budget=budget,
        keep_records=keep_records,
        on_slot=on_slot,
        tracer=tracer,
    )
    if suite is not None:
        result.health = suite.finish()
    return result
