"""BDMA (Algorithm 2): alternating minimisation for P2.

P2 couples the NP-hard discrete selection ``(x, y)`` with the convex
frequency decision ``Omega``.  Motivated by Benders' decomposition, BDMA
alternates: starting from ``Omega = Omega^L`` (all servers at their
lowest clock), it solves P2-A for ``(x, y)`` under the current ``Omega``
(via a pluggable P2-A solver, CGBA by default), then P2-B for ``Omega``
under the new ``(x, y)``, for ``z`` rounds, returning the best
``f(x, y, Omega)`` seen.  Theorem 3 gives the
``R = 2.62 R_F / (1 - 8 lambda)`` guarantee already for ``z = 1``;
larger ``z`` can only improve the returned objective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.core.cgba import solve_p2a_cgba
from repro.core.drift_penalty import energy_cost
from repro.core.latency import optimal_total_latency
from repro.core.p2b import solve_p2b
from repro.core.state import Assignment, SlotState
from repro.exceptions import ConfigurationError, DeadlineError
from repro.kernels import KernelBackend
from repro.network.connectivity import StrategySpace
from repro.network.topology import MECNetwork
from repro.obs.probe import Tracer, as_tracer
from repro.solvers.potential_game import EngineStats
from repro.types import FloatArray, Rng


class P2ASolver(Protocol):
    """Anything that produces an assignment for P2-A under fixed ``Omega``.

    Implementations: CGBA (the paper's algorithm), ROPT (uniform random),
    MCBA (Markov-chain Monte Carlo), and the exact branch-and-bound
    baseline; the DPP controller composes with any of them.
    """

    def __call__(
        self,
        network: MECNetwork,
        state: SlotState,
        space: StrategySpace,
        frequencies: FloatArray,
        rng: Rng,
        *,
        initial: Assignment | None,
    ) -> Assignment: ...


def cgba_p2a_solver(
    *,
    slack: float = 0.0,
    max_iter: int = 100_000,
    engine: str = "fast",
    tracer: "Tracer | None" = None,
    reuse_game: bool = True,
    accept_partial: bool = False,
    backend: "KernelBackend | str | None" = None,
) -> P2ASolver:
    """The default P2-A solver: CGBA(lambda) (Algorithm 3).

    The returned callable accumulates the best-response engine's work
    counters across calls; BDMA drains them via ``pop_stats()`` so each
    slot's :class:`BDMAResult` reports the engine work it caused.

    With ``reuse_game`` (the default), consecutive calls on the same
    ``(network, state, space)`` triple -- BDMA's alternation rounds --
    reuse one :class:`OffloadingCongestionGame` instead of rebuilding
    its candidate arrays every round.  Reuse is bit-identical to fresh
    construction (``update_frequencies`` + ``reset_profile`` reproduce
    the constructor's arithmetic and rng consumption exactly).

    ``accept_partial`` forwards to :func:`solve_p2a_cgba`: a run that
    exhausts ``max_iter`` returns its best-so-far profile (with a
    ``resilience.partial_accepts`` counter) instead of raising
    :class:`~repro.exceptions.ConvergenceError` -- the iteration-cap
    half of degraded-mode execution.

    ``backend`` selects the array-kernel backend for the congestion
    game's hot loops (bit-identical across backends; wall-clock only).
    """
    accumulated = EngineStats()
    cache: dict = {"key": None, "game": None}

    def solve(
        network: MECNetwork,
        state: SlotState,
        space: StrategySpace,
        frequencies: FloatArray,
        rng: Rng,
        *,
        initial: Assignment | None,
    ) -> Assignment:
        game = None
        if reuse_game and cache["key"] is not None:
            # Identity comparison is the point: the cache holds strong
            # references, so matching ids mean the same live objects.
            net0, state0, space0 = cache["key"]
            if net0 is network and state0 is state and space0 is space:
                game = cache["game"]
        result = solve_p2a_cgba(
            network,
            state,
            space,
            frequencies,
            rng,
            slack=slack,
            initial=initial,
            max_iter=max_iter,
            engine=engine,
            tracer=tracer,
            game=game,
            accept_partial=accept_partial,
            backend=backend,
        )
        if reuse_game:
            cache["key"] = (network, state, space)
            cache["game"] = result.game
        if result.engine_stats is not None:
            accumulated.merge(result.engine_stats)
        return result.assignment

    def pop_stats() -> EngineStats:
        nonlocal accumulated
        stats, accumulated = accumulated, EngineStats()
        return stats

    solve.pop_stats = pop_stats  # type: ignore[attr-defined]
    # Warm-seeded CGBA is deterministic (max_gap selection, no rng once
    # an initial profile is given) and returns its seed at a fixed
    # point, which is what lets BDMA's fixed-point exit replay the
    # remaining rounds without running them.
    solve.supports_fixed_point = True  # type: ignore[attr-defined]
    return solve


@dataclass
class BDMAResult:
    """Outcome of one BDMA(z) run on P2.

    Attributes:
        assignment: Best discrete selections found.
        frequencies: Best clock frequencies found (GHz).
        objective: ``f(x, y, Omega)`` of the returned decision.
        latency: ``T_t`` of the returned decision -- the latency term
            already evaluated while scoring the round, so callers
            (the DPP controller) need not recompute it.
        cost: ``C_t`` of the returned decision, likewise.
        objective_history: Objective after each of the ``z`` rounds
            (non-increasing in its running minimum by construction).
        engine_stats: Aggregated best-response-engine counters across
            all ``z`` P2-A solves, when the solver reports them.
    """

    assignment: Assignment
    frequencies: FloatArray
    objective: float
    latency: float = 0.0
    cost: float = 0.0
    objective_history: list[float] = field(default_factory=list)
    engine_stats: EngineStats | None = None


def solve_p2_bdma(
    network: MECNetwork,
    state: SlotState,
    space: StrategySpace,
    rng: Rng,
    *,
    queue_backlog: float,
    v: float,
    budget: float,
    z: int = 5,
    p2a_solver: P2ASolver | None = None,
    warm_start: bool = True,
    initial: Assignment | None = None,
    tracer: "Tracer | None" = None,
    deadline: float | None = None,
    backend: "KernelBackend | str | None" = None,
) -> BDMAResult:
    """Solve P2 by alternating P2-A and P2-B for ``z`` rounds.

    Args:
        network: Static topology.
        state: The slot's system state ``beta_t``.
        space: Feasible strategy sets.
        rng: Randomness for the P2-A solver's initial profiles.
        queue_backlog: The virtual queue ``Q(t)``.
        v: DPP trade-off parameter ``V``.
        budget: The time-average cost budget ``Cbar``.
        z: Number of alternation rounds (Algorithm 2's tunable).
        p2a_solver: P2-A solver; CGBA(0) when omitted.
        warm_start: Seed each round's P2-A solve with the previous
            round's assignment.  Algorithm 3 as printed starts from a
            random profile every time; warm starting reaches the same
            fixed points in fewer moves and is the practical choice.
            Set ``False`` for the literal algorithm.
        initial: Seed the *first* round's P2-A solve with this
            assignment (e.g. the previous slot's decision); only used
            when ``warm_start`` is enabled.
        tracer: Observability tracer; when enabled, every round's P2-A
            and P2-B solve runs inside ``p2a``/``p2b`` spans, and the
            counters ``bdma.rounds`` (alternation rounds actually
            executed) and ``engine.warm_start_hits`` (rounds whose
            warm-seeded P2-A solve returned its seed, counting replayed
            rounds) are emitted.  The default CGBA solver is constructed
            with the same tracer so engine counters flow through;
            externally supplied ``p2a_solver`` callables are timed but
            not internally instrumented.
        deadline: Optional wall-clock deadline as a ``time.perf_counter``
            value (the solver-watchdog half of degraded-mode execution).
            Checked between alternation rounds: once expired, the best
            decision so far is returned immediately (with a
            ``resilience.deadline_truncations`` counter).  If the
            deadline expires before even one round finished, a
            :class:`~repro.exceptions.DeadlineError` is raised for the
            caller's fallback chain.  ``None`` (the default) never
            truncates, so healthy runs are bit-identical.
        backend: Array-kernel backend (``"numpy"``/``"jit"``) used by
            the default CGBA solver's congestion game and by the P2-B
            frequency search.  Backends are bit-identical by contract,
            so this changes wall-clock only.  An externally supplied
            ``p2a_solver`` is not affected (configure its backend at
            construction); P2-B still honours the choice.

    Returns:
        The best decision by P2 objective across all rounds.

    Raises:
        DeadlineError: The ``deadline`` expired with zero completed
            rounds.

    Notes:
        **Fixed-point exit (bit-exact, always on when eligible).**  When
        ``warm_start`` is enabled and the solver advertises
        ``supports_fixed_point`` (the default CGBA solver does), a round
        whose P2-A solve returns its own seed ends the alternation
        early: P2-B depends only on the assignment, so it would return
        last round's frequencies bit for bit, the objective would
        repeat, and the next warm-seeded P2-A solve -- deterministic,
        consuming no randomness -- would return the same assignment
        again.  Every remaining round is therefore an exact replay; the
        returned decision and ``objective_history`` are bit-identical to
        running all ``z`` rounds, only the engine work counters shrink.
    """
    if z < 1:
        raise ConfigurationError(f"z must be a positive integer, got {z}")
    if v <= 0.0:
        raise ConfigurationError(f"V must be positive, got {v}")
    if queue_backlog < 0.0:
        raise ConfigurationError("queue backlog cannot be negative")
    tracer = as_tracer(tracer)
    solver = (
        p2a_solver
        if p2a_solver is not None
        else cgba_p2a_solver(tracer=tracer, backend=backend)
    )
    pop_stats = getattr(solver, "pop_stats", None)
    if callable(pop_stats):
        pop_stats()  # discard counters accumulated by earlier callers

    frequencies = network.freq_min.copy()  # Omega^L (Algorithm 2, line 1)
    best_objective = float("inf")
    best_assignment: Assignment | None = None
    best_frequencies = frequencies.copy()
    best_latency = 0.0
    best_cost = 0.0
    history: list[float] = []
    previous: Assignment | None = initial
    fixed_point_capable = warm_start and getattr(
        solver, "supports_fixed_point", False
    )
    warm_hits = 0
    rounds_run = 0

    truncated = False
    for round_idx in range(z):
        if deadline is not None and time.perf_counter() >= deadline:
            if best_assignment is None:
                raise DeadlineError(
                    "slot deadline expired before the first BDMA round finished"
                )
            truncated = True
            # Pad the history like the fixed-point exit does, so its
            # length stays z regardless of where the truncation hit.
            history.extend([history[-1]] * (z - round_idx))
            break
        with tracer.span("p2a"):
            assignment = solver(
                network,
                state,
                space,
                frequencies,
                rng,
                initial=previous if warm_start else None,
            )
        rounds_run += 1
        if (
            warm_start
            and previous is not None
            and np.array_equal(assignment.bs_of, previous.bs_of)
            and np.array_equal(assignment.server_of, previous.server_of)
        ):
            warm_hits += 1
            if fixed_point_capable and round_idx > 0:
                # Alternation fixed point: ``frequencies`` already holds
                # P2-B of this very assignment (computed last round), so
                # this round and every later one replay bit for bit --
                # see the fixed-point note in the docstring.
                remaining = z - round_idx
                warm_hits += remaining - 1
                history.extend([history[-1]] * remaining)
                break
        with tracer.span("p2b"):
            frequencies = solve_p2b(
                network,
                state,
                assignment,
                queue_backlog=queue_backlog,
                v=v,
                tracer=tracer,
                backend=backend,
            )
        # dpp_objective's arithmetic, with the latency and cost terms
        # kept so the winning round's values ride along in the result
        # (the controller reports both; recomputing them per slot would
        # double the work for identical floats).
        latency = optimal_total_latency(network, state, assignment, frequencies)
        cost = energy_cost(
            network,
            frequencies,
            state.price,
            available=state.available_servers,
        )
        objective = v * latency + queue_backlog * (cost - budget)
        history.append(objective)
        if objective < best_objective:
            best_objective = objective
            best_assignment = assignment
            best_frequencies = frequencies.copy()
            best_latency = latency
            best_cost = cost
        previous = assignment

    if tracer.enabled:
        tracer.counter("bdma.rounds", rounds_run)
        tracer.counter("engine.warm_start_hits", warm_hits)
        if truncated:
            tracer.counter("resilience.deadline_truncations", 1)
    assert best_assignment is not None
    return BDMAResult(
        assignment=best_assignment,
        frequencies=best_frequencies,
        objective=best_objective,
        latency=best_latency,
        cost=best_cost,
        objective_history=history,
        engine_stats=pop_stats() if callable(pop_stats) else None,
    )
