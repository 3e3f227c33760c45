"""Repeated-seed replication of simulation runs.

Single simulation runs are noisy; claims in the paper are about
averages.  :func:`run_replications` executes the same experimental
configuration under several root seeds -- optionally across processes --
and aggregates the headline metrics with bootstrap confidence
intervals.

The unit of work is a :class:`ReplicationSpec`: a plain, picklable
description (scenario knobs + controller knobs) from which each worker
rebuilds everything.  This is what makes multiprocessing safe -- no
controller or network objects ever cross process boundaries.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.analysis.aggregate import RunStatistics, summarize_runs
from repro.exceptions import ConfigurationError, SolverError
from repro.obs.probe import Probe, Tracer, as_tracer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReplicationSpec:
    """A picklable description of one simulation configuration.

    Attributes:
        num_devices: Devices ``I``.
        horizon: Slots per run.
        v: DPP parameter ``V``.
        z: BDMA alternation rounds.
        solver: A controller name understood by
            :func:`repro.api.make_controller` (``"bdma"``/``"dpp"``,
            ``"mcba"``, ``"ropt"``, ``"greedy"``, or ``"fixed"``).
        workload: ``"uniform"`` or ``"diurnal"``.
        budget_fraction: Budget position in the feasible range.
        warm_start_queue: Start the queue at its estimated equilibrium.
        network_overrides: Extra :class:`~repro.network.builder.NetworkBuilder`
            fields (must be picklable).
        fail_seeds: Seeds whose runs always raise (failure injection for
            testing the retry/salvage machinery; never use in real
            experiments).
        flaky_seeds: Seeds whose runs fail on their first attempt in
            each process and succeed on retry (transient-failure
            injection).
        engine_backend: Array-kernel backend (``"numpy"``/``"jit"``) for
            every run's controller; bit-identical across backends.
    """

    num_devices: int = 30
    horizon: int = 96
    v: float = 100.0
    z: int = 3
    solver: str = "bdma"
    workload: str = "uniform"
    budget_fraction: float = 0.5
    warm_start_queue: bool = False
    network_overrides: tuple[tuple[str, object], ...] = ()
    fail_seeds: tuple[int, ...] = ()
    flaky_seeds: tuple[int, ...] = ()
    engine_backend: str = "numpy"

    def __post_init__(self) -> None:
        if self.solver not in ("bdma", "dpp", "mcba", "ropt", "greedy", "fixed"):
            raise ConfigurationError(f"unknown solver {self.solver!r}")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.engine_backend not in ("numpy", "jit"):
            raise ConfigurationError(
                f"unknown engine backend {self.engine_backend!r}"
            )


@dataclass(frozen=True)
class ReplicationOutcome:
    """Headline metrics of one seed's run.

    Attributes:
        seed: Root seed of the run.
        mean_latency: Time-average latency.
        mean_cost: Time-average energy cost.
        mean_backlog: Time-average virtual-queue backlog.
        budget: The scenario's budget.
        mean_solve_seconds: Average per-slot decision time.
        phase_state: The worker tracer's aggregated phase state
            (:meth:`repro.obs.PhaseAggregator.state_dict`) when tracing
            was requested; the parent merges these.
    """

    seed: int
    mean_latency: float
    mean_cost: float
    mean_backlog: float
    budget: float
    mean_solve_seconds: float = float("nan")
    phase_state: dict | None = None


@dataclass
class ReplicationReport:
    """Aggregated statistics across seeds.

    Attributes:
        outcomes: Per-seed results for the seeds that *succeeded*, in
            seed order.
        latency: Bootstrap statistics of the time-average latency.
        cost: Bootstrap statistics of the time-average cost.
        budget: The (first successful seed's) budget for reference;
            ``0.0`` when every seed failed.
        failed_seeds: Seeds that produced no outcome after all retry
            attempts (empty on a healthy run).
    """

    outcomes: list[ReplicationOutcome] = field(default_factory=list)
    latency: RunStatistics | None = None
    cost: RunStatistics | None = None
    budget: float = 0.0
    failed_seeds: list[int] = field(default_factory=list)

    def budget_satisfaction_rate(self) -> float:
        """Fraction of *successful* seeds whose realised cost met their
        budget; ``0.0`` when no seed succeeded."""
        if not self.outcomes:
            return 0.0
        hits = sum(
            1 for o in self.outcomes if o.mean_cost <= o.budget * (1 + 1e-9)
        )
        return hits / len(self.outcomes)

    def summary(self) -> "ReplicationSummary":
        """Condense the report into a :class:`ReplicationSummary`.

        Field names deliberately mirror
        :class:`repro.sim.results.SimulationSummary` so both result
        flavours serialise and compare uniformly.

        Raises:
            ConfigurationError: The report has no successful outcomes to
                average (e.g. every seed landed in ``failed_seeds``).
        """
        if not self.outcomes:
            raise ConfigurationError(
                "cannot summarise an empty report"
                + (
                    f" (all {len(self.failed_seeds)} seeds failed)"
                    if self.failed_seeds
                    else ""
                )
            )
        return ReplicationSummary(
            runs=len(self.outcomes),
            failed_runs=len(self.failed_seeds),
            mean_latency=float(np.mean([o.mean_latency for o in self.outcomes])),
            mean_cost=float(np.mean([o.mean_cost for o in self.outcomes])),
            mean_backlog=float(np.mean([o.mean_backlog for o in self.outcomes])),
            budget_satisfied=self.budget_satisfaction_rate() >= 1.0,
            mean_solve_seconds=float(
                np.mean([o.mean_solve_seconds for o in self.outcomes])
            ),
            latency_ci=(
                (self.latency.ci_low, self.latency.ci_high)
                if self.latency is not None
                else None
            ),
            cost_ci=(
                (self.cost.ci_low, self.cost.ci_high)
                if self.cost is not None
                else None
            ),
        )


@dataclass(frozen=True)
class ReplicationSummary:
    """Headline statistics across seeds.

    Shares ``mean_latency`` / ``mean_cost`` / ``mean_backlog`` /
    ``budget_satisfied`` / ``mean_solve_seconds`` field names with
    :class:`repro.sim.results.SimulationSummary`; adds the seed count
    and bootstrap confidence intervals.
    """

    runs: int
    mean_latency: float
    mean_cost: float
    mean_backlog: float
    budget_satisfied: bool | None
    mean_solve_seconds: float
    latency_ci: tuple[float, float] | None = None
    cost_ci: tuple[float, float] | None = None
    failed_runs: int = 0

    def to_dict(self) -> dict:
        """JSON-ready view, uniform with ``SimulationSummary.to_dict``."""
        return {
            "runs": self.runs,
            "failed_runs": self.failed_runs,
            "mean_latency": self.mean_latency,
            "mean_cost": self.mean_cost,
            "mean_backlog": self.mean_backlog,
            "budget_satisfied": self.budget_satisfied,
            "mean_solve_seconds": self.mean_solve_seconds,
            "latency_ci": list(self.latency_ci) if self.latency_ci else None,
            "cost_ci": list(self.cost_ci) if self.cost_ci else None,
        }


def execute_replication(
    args: "tuple[ReplicationSpec, int] | tuple[ReplicationSpec, int, bool]",
) -> ReplicationOutcome:
    """Run one seed of a spec in this process.

    Accepts ``(spec, seed)`` or ``(spec, seed, trace_phases)``; with
    ``trace_phases`` the run records into its own
    :class:`~repro.obs.Probe` and the aggregated phase state comes back
    in the outcome.  Pooled :func:`run_replications` workers do not call
    this: they run :func:`_execute_seed` against the spec their pool
    initializer pinned.
    """
    spec, seed = args[0], args[1]
    trace_phases = bool(args[2]) if len(args) > 2 else False
    return _run_one(spec, seed, trace_phases)


#: Per-worker replication context installed once by :func:`_init_worker`,
#: so :func:`run_replications` ships the spec with each worker process
#: instead of pickling it into every seed's job tuple.
_WORKER_CONTEXT: "tuple[ReplicationSpec, bool] | None" = None


def _init_worker(spec: ReplicationSpec, trace_phases: bool) -> None:
    """Pool initializer: pin the spec in the worker process."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (spec, trace_phases)


def _execute_seed(seed: int) -> ReplicationOutcome:
    """Worker entry point: run one seed against the pinned spec."""
    assert _WORKER_CONTEXT is not None, "worker pool was not initialised"
    spec, trace_phases = _WORKER_CONTEXT
    return _run_one(spec, seed, trace_phases)


#: Per-process attempt counts for ``flaky_seeds`` injection.  Worker
#: processes each get their own copy, so "fails once then succeeds"
#: holds per process -- exactly the transient crash being simulated.
_FLAKY_ATTEMPTS: dict[int, int] = {}


def _run_one(
    spec: ReplicationSpec, seed: int, trace_phases: bool
) -> ReplicationOutcome:
    """Run one seed of a spec and condense its outcome."""
    from repro.api import make_controller

    if seed in spec.fail_seeds:
        raise SolverError(f"injected failure for seed {seed}")
    if seed in spec.flaky_seeds:
        _FLAKY_ATTEMPTS[seed] = _FLAKY_ATTEMPTS.get(seed, 0) + 1
        if _FLAKY_ATTEMPTS[seed] == 1:
            raise SolverError(f"injected transient failure for seed {seed}")

    scenario = repro.make_paper_scenario(
        seed=seed,
        config=repro.ScenarioConfig(
            num_devices=spec.num_devices,
            workload=spec.workload,
            budget_fraction=spec.budget_fraction,
        ),
        **dict(spec.network_overrides),
    )
    probe = Probe() if trace_phases else None
    controller = make_controller(
        spec.solver,
        scenario,
        v=spec.v,
        z=spec.z,
        rng_label="replication",
        equilibrium_rng_label="replication-eq",
        warm_start_queue=spec.warm_start_queue,
        tracer=probe,
        engine_backend=spec.engine_backend,
    )
    result = repro.run_simulation(
        controller,
        scenario.fresh_states(spec.horizon),
        budget=scenario.budget,
        tracer=probe,
    )
    summary = result.summary()
    return ReplicationOutcome(
        seed=seed,
        mean_latency=result.time_average_latency(),
        mean_cost=result.time_average_cost(),
        mean_backlog=float(np.mean(result.backlog)),
        budget=scenario.budget,
        mean_solve_seconds=summary.mean_solve_seconds,
        phase_state=probe.phases.state_dict() if probe is not None else None,
    )


class _SeedTracker:
    """Retry bookkeeping shared by the sequential and pooled paths.

    With ``propagate`` (no retries, timeouts or injected seeds) the
    first failure is re-raised unchanged instead of being recorded.
    """

    def __init__(
        self,
        max_retries: int,
        backoff_seconds: float,
        tracer: Tracer,
        *,
        propagate: bool = False,
    ) -> None:
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.tracer = tracer
        self.propagate = propagate
        self.attempts: dict[int, int] = {}
        self.failed: list[int] = []

    def note_failure(self, seed: int, error: Exception) -> bool:
        """Record a failed attempt; return ``True`` when *seed* should
        be retried (after the backoff sleep), ``False`` when it is
        permanently failed."""
        if self.propagate:
            raise error
        self.attempts[seed] = self.attempts.get(seed, 0) + 1
        attempt = self.attempts[seed]
        if attempt <= self.max_retries:
            logger.warning(
                "seed %d failed (attempt %d/%d): %s; retrying",
                seed,
                attempt,
                self.max_retries + 1,
                error,
            )
            if self.tracer.enabled:
                self.tracer.counter("resilience.retries", 1)
                self.tracer.event(
                    "replication.retry",
                    {"seed": seed, "attempt": attempt, "error": str(error)},
                )
            if self.backoff_seconds > 0.0:
                time.sleep(self.backoff_seconds * attempt)
            return True
        logger.error(
            "seed %d failed permanently after %d attempts: %s",
            seed,
            attempt,
            error,
        )
        if self.tracer.enabled:
            self.tracer.counter("resilience.seed_failures", 1)
            self.tracer.event(
                "replication.seed_failed",
                {"seed": seed, "attempts": attempt, "error": str(error)},
            )
        self.failed.append(seed)
        return False


def _run_pool_resilient(
    spec: ReplicationSpec,
    seeds: list[int],
    *,
    processes: int,
    trace_phases: bool,
    timeout_seconds: float | None,
    tracker: _SeedTracker,
) -> dict[int, ReplicationOutcome]:
    """The pooled path.

    Submits every pending seed, collects results in order, and survives
    the three ways a worker can die: an exception inside the run
    (retried per seed), a per-seed timeout, and a crashed worker
    process (``BrokenProcessPool``).  The latter two poison the whole
    pool, so the pool is torn down, rebuilt, and the not-yet-collected
    seeds are resubmitted -- the run finishes with a ``failed_seeds``
    list instead of a dead pool.  Terminates because every round either
    resolves at least the first pending seed or consumes one of its
    bounded retry attempts.
    """
    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=processes,
            initializer=_init_worker,
            initargs=(spec, trace_phases),
        )

    results: dict[int, ReplicationOutcome] = {}
    pending = list(seeds)
    pool = make_pool()
    try:
        while pending:
            futures = {seed: pool.submit(_execute_seed, seed) for seed in pending}
            next_pending: list[int] = []
            rebuild = False
            for position, seed in enumerate(pending):
                try:
                    results[seed] = futures[seed].result(timeout=timeout_seconds)
                except (FuturesTimeout, BrokenProcessPool) as exc:
                    # The pool itself is now unusable (a hung seed's
                    # worker keeps running; a crashed worker breaks the
                    # executor).  Fail this seed's attempt, salvage the
                    # rest into the next round on a fresh pool.
                    if tracker.note_failure(seed, exc):
                        next_pending.append(seed)
                    next_pending.extend(pending[position + 1 :])
                    rebuild = True
                    break
                except Exception as exc:  # worker raised inside the run
                    if tracker.note_failure(seed, exc):
                        next_pending.append(seed)
            if rebuild:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = make_pool()
                if tracker.tracer.enabled:
                    tracker.tracer.event(
                        "replication.pool_rebuilt",
                        {"pending": len(next_pending)},
                    )
            pending = next_pending
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return results


def run_replications(
    spec: ReplicationSpec,
    seeds: tuple[int, ...] | list[int],
    *,
    processes: int | None = None,
    tracer: "Tracer | None" = None,
    timeout_seconds: float | None = None,
    max_retries: int = 0,
    retry_backoff_seconds: float = 0.25,
) -> ReplicationReport:
    """Run *spec* under every seed and aggregate.

    Args:
        spec: The configuration to replicate.  Shipped to each worker
            process once, through the pool initializer, rather than
            pickled into every seed's job.
        seeds: Root seeds; each yields an independent topology and
            state stream.
        processes: Worker processes; ``None`` or 1 runs sequentially
            (no pickling, easier debugging).  Pooled runs submit one
            job per seed; outcomes keep the order of *seeds*.
        tracer: Observability tracer.  Each run (worker) records into
            its own probe; the per-phase aggregations are merged into
            *tracer* when it is a :class:`repro.obs.Probe`, so the
            parent sees one profile across all seeds.  Retry and
            seed-failure events land here too.
        timeout_seconds: Per-seed wall-clock deadline for collecting a
            pooled result; a seed that blows it burns one attempt and
            the pool is rebuilt (a hung worker cannot be cancelled).
            ``None`` disables the watchdog.
        max_retries: Extra attempts per seed after its first failure.
            With the default 0, no timeout and no injected seeds, the
            first failing seed's exception propagates unchanged.
        retry_backoff_seconds: Base sleep before attempt ``n``'s retry
            (linear backoff: ``base * n``).

    Returns:
        A :class:`ReplicationReport` with per-seed outcomes, bootstrap
        statistics of the headline metrics, and ``failed_seeds`` for
        any seed that never produced an outcome.  All seeds failing
        yields an empty report (``summary()`` then raises), not an
        exception here.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if max_retries < 0:
        raise ConfigurationError("max_retries must be >= 0")
    if timeout_seconds is not None and timeout_seconds <= 0.0:
        raise ConfigurationError("timeout_seconds must be positive")
    trace_phases = tracer is not None and tracer.enabled
    resilient = (
        timeout_seconds is not None
        or max_retries > 0
        or bool(spec.fail_seeds)
        or bool(spec.flaky_seeds)
    )
    tracker = _SeedTracker(
        max_retries,
        retry_backoff_seconds,
        as_tracer(tracer),
        propagate=not resilient,
    )
    if processes is None or processes <= 1:
        results: dict[int, ReplicationOutcome] = {}
        for seed in seeds:
            while True:
                try:
                    results[seed] = _run_one(spec, seed, trace_phases)
                    break
                except Exception as exc:
                    if not tracker.note_failure(seed, exc):
                        break
    else:
        results = _run_pool_resilient(
            spec,
            seeds,
            processes=processes,
            trace_phases=trace_phases,
            timeout_seconds=timeout_seconds,
            tracker=tracker,
        )
    outcomes = [results[s] for s in seeds if s in results]
    if isinstance(tracer, Probe):
        for outcome in outcomes:
            tracer.merge_phase_state(outcome.phase_state, order=(outcome.seed,))

    report = ReplicationReport(
        outcomes=outcomes,
        budget=outcomes[0].budget if outcomes else 0.0,
        failed_seeds=sorted(tracker.failed),
    )
    if outcomes:
        report.latency = summarize_runs(
            np.array([o.mean_latency for o in outcomes])
        )
        report.cost = summarize_runs(np.array([o.mean_cost for o in outcomes]))
    return report
