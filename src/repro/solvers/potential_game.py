"""Generic best-response dynamics over finite games.

The paper's CGBA (Algorithm 3) is best-response dynamics on a weighted
congestion game with a specific player-selection rule (the player with
the largest absolute improvement moves) and a relative stopping slack
``lambda``.  This module implements that engine over an abstract game
interface so the dynamics can be property-tested on small synthetic games
independently of the MEC model.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from repro.exceptions import ConvergenceError
from repro.types import Rng


class FiniteGame(abc.ABC):
    """A finite game with a mutable current strategy profile.

    Implementations keep the profile (and any incremental bookkeeping,
    e.g. congestion-game resource loads) internally; the engine only
    queries costs and applies moves.
    """

    @property
    @abc.abstractmethod
    def num_players(self) -> int:
        """Number of players in the game."""

    @abc.abstractmethod
    def player_cost(self, player: int) -> float:
        """Cost of *player* under the current profile."""

    @abc.abstractmethod
    def best_response(self, player: int) -> tuple[Hashable, float]:
        """Best strategy for *player* holding all other players fixed.

        Returns:
            ``(strategy, cost)`` -- the minimising strategy and the cost the
            player would incur after unilaterally deviating to it.
        """

    @abc.abstractmethod
    def move(self, player: int, strategy: Hashable) -> None:
        """Switch *player* to *strategy*, updating internal bookkeeping."""

    @abc.abstractmethod
    def strategy_of(self, player: int) -> Hashable:
        """Current strategy of *player*."""

    def total_cost(self) -> float:
        """Sum of all players' costs under the current profile.

        Subclasses with resource-level bookkeeping should override this
        with their cheaper closed form (e.g. the congestion game's
        O(K+N) load sum); this generic fallback is O(I) player-cost
        evaluations.
        """
        return float(sum(self.player_cost(i) for i in range(self.num_players)))

    def num_strategies(self, player: int) -> int | None:
        """Size of *player*'s strategy set, when cheaply known.

        Engines use this for work accounting (candidate evaluations per
        best-response call).  ``None`` (the default) means unknown.
        """
        return None


@dataclass
class EngineStats:
    """Work counters for one best-response-dynamics run.

    The point of these is that benchmarks can report *work done*, not
    just wall-clock: a faster engine should show fewer gap
    recomputations and candidate evaluations for the same move sequence.

    ``sweeps``, ``gap_recomputations`` and ``candidate_evaluations``
    count the logical work of the dynamics an engine replays, not the
    work of the kernel underneath.  For the decomposed evaluator's full refresh that
    is ``I`` players and all their candidates per move on every kernel
    backend -- the native ``run_dynamics`` refreshes incrementally yet
    reports the same numbers -- so the counters match across backends
    (the cross-backend parity tests and the benchmark's counter checks
    rely on it).

    Attributes:
        moves: Unilateral moves applied (same as the result's
            ``iterations``).
        sweeps: Gap-refresh passes performed (one per applied move plus
            the initial full sweep); both engines count them the same
            way, so sweep counts are comparable across engines.
        gap_recomputations: Player best-response evaluations of the
            replayed dynamics.  The naive engine recomputes every player
            each iteration (``I * (moves + 1)`` in total); the
            incremental engine only the players affected by the
            previous move, or every player when the game prefers a
            full refresh.
        candidate_evaluations: Candidate strategies those evaluations
            cover (``sum |Z_i|`` over recomputed players); 0 when the
            game cannot report strategy-set sizes.
        setup_seconds: Wall-clock spent building engine state (initial
            full gap sweep included).
        eval_seconds: Wall-clock spent recomputing gaps/best responses.
        move_seconds: Wall-clock spent selecting movers and applying
            moves (including history recording).
    """

    moves: int = 0
    sweeps: int = 0
    gap_recomputations: int = 0
    candidate_evaluations: int = 0
    setup_seconds: float = 0.0
    eval_seconds: float = 0.0
    move_seconds: float = 0.0

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Accumulate *other* into self (for multi-round aggregation)."""
        self.moves += other.moves
        self.sweeps += other.sweeps
        self.gap_recomputations += other.gap_recomputations
        self.candidate_evaluations += other.candidate_evaluations
        self.setup_seconds += other.setup_seconds
        self.eval_seconds += other.eval_seconds
        self.move_seconds += other.move_seconds
        return self

    def to_dict(self) -> dict[str, float]:
        """Plain-dict view for JSON reports and trace sinks."""
        return {
            "moves": self.moves,
            "sweeps": self.sweeps,
            "gap_recomputations": self.gap_recomputations,
            "candidate_evaluations": self.candidate_evaluations,
            "setup_seconds": self.setup_seconds,
            "eval_seconds": self.eval_seconds,
            "move_seconds": self.move_seconds,
        }


@dataclass
class BestResponseResult:
    """Outcome of :func:`best_response_dynamics`.

    Attributes:
        iterations: Number of unilateral moves performed.
        converged: ``True`` when no player passed the improvement test.
        total_cost: Total cost of the final profile.
        cost_history: Total cost after each move (index 0 is the initial
            profile), useful for convergence plots (paper Fig. 6).
        stats: Work counters for the run, when the engine collected them.
    """

    iterations: int
    converged: bool
    total_cost: float
    cost_history: list[float] = field(default_factory=list)
    stats: EngineStats | None = None


def _improvement_gaps(game: FiniteGame, slack: float) -> tuple[np.ndarray, list]:
    """Return per-player improvement gaps and cached best responses.

    A player is eligible to move when ``(1 - slack) * current > best``;
    the gap reported is ``current - best`` (Algorithm 3, line 3).
    """
    n = game.num_players
    gaps = np.full(n, -np.inf)
    responses: list = [None] * n
    for i in range(n):
        current = game.player_cost(i)
        strategy, best = game.best_response(i)
        responses[i] = strategy
        if (1.0 - slack) * current > best:
            gaps[i] = current - best
    return gaps, responses


def best_response_dynamics(
    game: FiniteGame,
    *,
    slack: float = 0.0,
    max_iter: int = 100_000,
    rng: Rng | None = None,
    selection: str = "max_gap",
    record_history: bool = False,
) -> BestResponseResult:
    """Run best-response dynamics until the ``slack``-equilibrium test holds.

    Args:
        game: The game; its current profile is the starting point and is
            mutated in place.
        slack: The paper's ``lambda``: stop once no player can improve its
            cost by more than the relative factor ``1 / (1 - slack)``.
            ``slack = 0`` demands an exact Nash equilibrium (CGBA(0)).
        max_iter: Safety cap on the number of moves.
        rng: Random generator, required for ``selection="random"``.
        selection: ``"max_gap"`` (Algorithm 3: the player with the largest
            absolute improvement moves), ``"round_robin"``, or ``"random"``.
        record_history: Record the total cost after every move.

    Returns:
        A :class:`BestResponseResult`.

    Raises:
        ConvergenceError: If ``max_iter`` moves did not reach the stopping
            condition.  For exact potential games with ``slack >= 0`` this
            only happens when ``max_iter`` is too small, since every move
            strictly decreases the potential.
        ValueError: On an unknown ``selection`` rule.
    """
    if selection not in ("max_gap", "round_robin", "random"):
        raise ValueError(f"unknown selection rule: {selection!r}")
    if selection == "random" and rng is None:
        raise ValueError("selection='random' requires an rng")
    if not 0.0 <= slack < 1.0:
        raise ValueError(f"slack must lie in [0, 1), got {slack}")

    history: list[float] = []
    if record_history:
        history.append(game.total_cost())
    stats = EngineStats()
    # Strategy sets are static, so the per-sweep candidate count is too.
    per_sweep_candidates = 0
    for i in range(game.num_players):
        size = game.num_strategies(i)
        if size is None:
            per_sweep_candidates = 0
            break
        per_sweep_candidates += size

    rr_cursor = 0
    for iteration in range(max_iter):
        started = time.perf_counter()
        gaps, responses = _improvement_gaps(game, slack)
        stats.eval_seconds += time.perf_counter() - started
        stats.sweeps += 1
        stats.gap_recomputations += game.num_players
        stats.candidate_evaluations += per_sweep_candidates
        eligible = np.flatnonzero(gaps > -np.inf)
        if eligible.size == 0:
            # history[-1] already holds the cost of the final profile, so
            # don't pay for a second total_cost() on the convergence path.
            final = history[-1] if history else game.total_cost()
            return BestResponseResult(
                iterations=iteration,
                converged=True,
                total_cost=final,
                cost_history=history,
                stats=stats,
            )
        started = time.perf_counter()
        if selection == "max_gap":
            player = int(eligible[np.argmax(gaps[eligible])])
        elif selection == "random":
            assert rng is not None
            player = int(rng.choice(eligible))
        else:  # round_robin: first eligible player at or after the cursor
            ordered = np.concatenate([eligible[eligible >= rr_cursor], eligible])
            player = int(ordered[0])
            rr_cursor = (player + 1) % game.num_players
        game.move(player, responses[player])
        stats.moves += 1
        if record_history:
            history.append(game.total_cost())
        stats.move_seconds += time.perf_counter() - started

    raise ConvergenceError(
        f"best-response dynamics did not converge within {max_iter} moves",
        best_so_far=BestResponseResult(
            iterations=max_iter,
            converged=False,
            total_cost=history[-1] if history else game.total_cost(),
            cost_history=history,
            stats=stats,
        ),
    )
