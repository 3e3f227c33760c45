"""The vectorized, incremental best-response engine.

:func:`repro.solvers.potential_game.best_response_dynamics` recomputes
*every* player's best response in a Python loop after *every* unilateral
move -- O(I * |Z|) scalar work per iteration even though a move touches
at most four resources.  This engine removes both costs for games that
expose the batch interface below:

* **Vectorized sweeps** -- all candidate strategies of all (relevant)
  players are scored in one numpy pass over concatenated index arrays
  (``game.batch_best_responses``), replacing the per-player loop.
* **Dirty-player tracking** -- after a move, only players whose strategy
  set touches one of the (at most four) changed resources can see a
  different gap (``game.affected_players``); everyone else's cached gap
  and best response are still exact, so the per-iteration cost drops
  from O(I * |Z|) to O(affected).

The engine replays the reference dynamics *exactly*: the batch evaluator
is required to be numerically identical to the scalar one (same IEEE
operation order, same first-minimum tie break), cached gaps of untouched
players equal what a fresh sweep would produce (their inputs are
untouched memory), and the selection rules consume randomness the same
way.  The equivalence tests assert bit-identical final assignments.

:class:`OffloadingCongestionGame` is the intended instance; any
:class:`~repro.solvers.potential_game.FiniteGame` with the three extra
methods works.
"""

from __future__ import annotations

import time
from typing import Protocol

import numpy as np

from repro.exceptions import ConvergenceError
from repro.solvers.potential_game import (
    BestResponseResult,
    EngineStats,
    FiniteGame,
)
from repro.types import FloatArray, Rng


class BatchGame(Protocol):
    """The extra interface the fast engine needs on top of FiniteGame."""

    @property
    def num_players(self) -> int: ...

    def batch_best_responses(
        self, players: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, FloatArray, FloatArray]:
        """``(best_bs, best_server, best_cost, current_cost)`` per player."""

    def affected_players(
        self, old: tuple[int, int], new: tuple[int, int]
    ) -> np.ndarray:
        """Players whose gap can change after a move ``old -> new``."""

    def candidate_count(self, players: np.ndarray | None = None) -> int:
        """Total candidate strategies across *players* (for accounting)."""


def supports_batch(game: FiniteGame) -> bool:
    """Whether *game* implements the :class:`BatchGame` interface."""
    return all(
        callable(getattr(game, name, None))
        for name in ("batch_best_responses", "affected_players", "candidate_count")
    )


class FastBestResponseEngine:
    """Incremental best-response dynamics over a :class:`BatchGame`.

    The engine owns per-player caches of the improvement gap and the
    cached best strategy; :meth:`step` applies one move and refreshes
    only the dirty players.  Exposed as a class (rather than only the
    :func:`fast_best_response_dynamics` wrapper) so property tests can
    drive it move by move and audit the caches.
    """

    def __init__(self, game: BatchGame, *, slack: float = 0.0) -> None:
        if not 0.0 <= slack < 1.0:
            raise ValueError(f"slack must lie in [0, 1), got {slack}")
        self.game = game
        self.slack = slack
        self.stats = EngineStats()
        n = game.num_players
        # Games exposing the deferred-argmin refresh (batch_gap_costs +
        # best_strategy_for) skip materialising every player's best
        # strategy per sweep; only the selected mover's is resolved.
        self._lazy = (
            callable(getattr(game, "batch_gap_costs", None))
            and callable(getattr(game, "best_strategy_for", None))
            and getattr(game, "supports_lazy_gaps", True)
        )
        # Games whose gap refresh is a dense full pass (the decomposed
        # product-form evaluator) gain nothing from dirty-player
        # tracking; skip the affected-set computation entirely.
        self._full_refresh = self._lazy and getattr(
            game, "prefers_full_refresh", False
        )
        if not self._lazy:
            self._best_bs = np.zeros(n, dtype=np.int64)
            self._best_server = np.zeros(n, dtype=np.int64)
        #: Improvement gaps ``current - best``; ``-inf`` marks players
        #: failing the eligibility test ``(1 - slack) * current > best``.
        self.gaps = np.full(n, -np.inf)
        self._inelig = np.empty(n, dtype=bool)
        # Full-sweep accounting constants, hoisted out of _refresh.
        self._n = n
        self._all_candidates = game.candidate_count(None)
        self._rr_cursor = 0
        started = time.perf_counter()
        self._refresh(None)
        self.stats.setup_seconds = time.perf_counter() - started

    def _refresh(self, players: np.ndarray | None) -> None:
        """Recompute gaps and cached best responses for *players*."""
        if self._lazy:
            best, current = self.game.batch_gap_costs(players)
        else:
            bs, server, best, current = self.game.batch_best_responses(players)
        self.stats.sweeps += 1
        if players is None and self.slack == 0.0:
            # Fused full-array path: for slack 0 the eligibility test
            # ``(1 - 0) * current > best`` is ``current > best``, which
            # in IEEE doubles holds iff ``current - best > 0`` -- so the
            # subtraction doubles as the test, in place, no temporaries.
            gaps = self.gaps
            np.subtract(current, best, out=gaps)
            np.less_equal(gaps, 0.0, out=self._inelig)
            np.copyto(gaps, -np.inf, where=self._inelig)
            if not self._lazy:
                self._best_bs[:] = bs
                self._best_server[:] = server
            self.stats.gap_recomputations += self._n
            self.stats.candidate_evaluations += self._all_candidates
            return
        eligible = (1.0 - self.slack) * current > best
        gaps = np.where(eligible, current - best, -np.inf)
        if players is None:
            if not self._lazy:
                self._best_bs[:] = bs
                self._best_server[:] = server
            self.gaps[:] = gaps
            self.stats.gap_recomputations += self.game.num_players
        else:
            if not self._lazy:
                self._best_bs[players] = bs
                self._best_server[players] = server
            self.gaps[players] = gaps
            self.stats.gap_recomputations += int(players.size)
        self.stats.candidate_evaluations += self.game.candidate_count(players)

    def eligible_players(self) -> np.ndarray:
        """Players currently passing the improvement test."""
        return np.flatnonzero(self.gaps > -np.inf)

    def select(self, rule: str, rng: Rng | None) -> int | None:
        """Pick the next mover under *rule*, or ``None`` at equilibrium.

        Implements the same tie-breaking (and randomness consumption) as
        the reference engine so trajectories coincide.
        """
        if rule == "max_gap":
            # Ineligible players carry -inf, so the global first-maximum
            # is the first-maximum over the eligible subset whenever one
            # exists -- same pick, no index materialisation.
            player = int(self.gaps.argmax())
            if self.gaps[player] == -np.inf:
                return None
            return player
        eligible = self.eligible_players()
        if eligible.size == 0:
            return None
        if rule == "random":
            assert rng is not None
            return int(rng.choice(eligible))
        # round_robin: first eligible player at or after the cursor.
        ordered = np.concatenate([eligible[eligible >= self._rr_cursor], eligible])
        player = int(ordered[0])
        self._rr_cursor = (player + 1) % self.game.num_players
        return player

    def step(self, player: int) -> None:
        """Move *player* to its cached best response and refresh caches."""
        if self._lazy:
            new = self.game.best_strategy_for(player)
        else:
            new = (int(self._best_bs[player]), int(self._best_server[player]))
        old = None if self._full_refresh else self.game.strategy_of(player)
        started = time.perf_counter()
        self.game.move(player, new)
        self.stats.moves += 1
        self.stats.move_seconds += time.perf_counter() - started
        started = time.perf_counter()
        if self._full_refresh:
            self._refresh(None)
        else:
            affected = self.game.affected_players(old, new)
            # When the move touches every player anyway, the dense
            # full-array refresh is cheaper than the subset gather; gaps
            # and every stats counter come out identical either way.
            self._refresh(
                None if affected.size == self.game.num_players else affected
            )
        self.stats.eval_seconds += time.perf_counter() - started

    def run(
        self,
        *,
        max_iter: int = 100_000,
        rng: Rng | None = None,
        selection: str = "max_gap",
        record_history: bool = False,
    ) -> BestResponseResult:
        """Run to the slack-equilibrium; mirrors the reference engine."""
        game = self.game
        history: list[float] = []
        if record_history:
            history.append(game.total_cost())
        if selection == "max_gap" and self._full_refresh and not record_history:
            # A kernel backend with a fused loop (the jit backend's
            # native run_dynamics) replaces the whole Python iteration:
            # same argmax pick, same move, same gaps and argmins after
            # every move, same final state.  The native loop refreshes
            # incrementally, but the stats count the dynamics' logical
            # work: one sweep, n gap recomputations and the full
            # candidate count per move, exactly what _refresh(None)
            # accumulates on the NumPy path, so counters stay equal
            # across backends.
            kernels = getattr(game, "kernels", None)
            if (
                kernels is not None
                and kernels.run_dynamics is not None
                and callable(getattr(game, "kernel_state", None))
            ):
                stats = self.stats
                started = time.perf_counter()
                moves, converged = kernels.run_dynamics(
                    game.kernel_state(), self.gaps, self.slack, max_iter
                )
                stats.eval_seconds += time.perf_counter() - started
                stats.moves += moves
                stats.sweeps += moves
                stats.gap_recomputations += moves * self._n
                stats.candidate_evaluations += moves * self._all_candidates
                if converged:
                    return BestResponseResult(
                        iterations=moves,
                        converged=True,
                        total_cost=game.total_cost(),
                        cost_history=history,
                        stats=stats,
                    )
                raise ConvergenceError(
                    f"best-response dynamics did not converge within "
                    f"{max_iter} moves",
                    best_so_far=BestResponseResult(
                        iterations=max_iter,
                        converged=False,
                        total_cost=game.total_cost(),
                        cost_history=history,
                        stats=stats,
                    ),
                )
            # The hot configuration (CGBA under the decomposed
            # evaluator): inline select + step with everything bound to
            # locals.  Same argmax pick, same move, same full refresh,
            # same stats -- only the per-iteration attribute lookups and
            # method dispatches are gone.
            gaps = self.gaps
            perf = time.perf_counter
            stats = self.stats
            refresh = self._refresh
            for iteration in range(max_iter):
                player = gaps.argmax()
                if gaps[player] == -np.inf:
                    return BestResponseResult(
                        iterations=iteration,
                        converged=True,
                        total_cost=game.total_cost(),
                        cost_history=history,
                        stats=stats,
                    )
                started = perf()
                game.move(player, game.best_strategy_for(player))
                stats.moves += 1
                stats.move_seconds += perf() - started
                started = perf()
                refresh(None)
                stats.eval_seconds += perf() - started
            raise ConvergenceError(
                f"best-response dynamics did not converge within {max_iter} moves",
                best_so_far=BestResponseResult(
                    iterations=max_iter,
                    converged=False,
                    total_cost=game.total_cost(),
                    cost_history=history,
                    stats=stats,
                ),
            )
        for iteration in range(max_iter):
            player = self.select(selection, rng)
            if player is None:
                return BestResponseResult(
                    iterations=iteration,
                    converged=True,
                    total_cost=history[-1] if history else game.total_cost(),
                    cost_history=history,
                    stats=self.stats,
                )
            self.step(player)
            if record_history:
                history.append(game.total_cost())
        raise ConvergenceError(
            f"best-response dynamics did not converge within {max_iter} moves",
            best_so_far=BestResponseResult(
                iterations=max_iter,
                converged=False,
                total_cost=history[-1] if history else game.total_cost(),
                cost_history=history,
                stats=self.stats,
            ),
        )


def fast_best_response_dynamics(
    game: BatchGame,
    *,
    slack: float = 0.0,
    max_iter: int = 100_000,
    rng: Rng | None = None,
    selection: str = "max_gap",
    record_history: bool = False,
) -> BestResponseResult:
    """Drop-in replacement for :func:`best_response_dynamics`.

    Same contract and semantics as the reference engine (identical move
    sequence, final profile, and convergence behaviour), with the
    per-iteration work reduced to one vectorized pass over the players
    affected by the previous move.

    Raises:
        ConvergenceError: If ``max_iter`` moves did not reach the
            stopping condition.
        ValueError: On an unknown ``selection`` rule, a missing ``rng``
            for ``selection="random"``, or a ``slack`` outside [0, 1).
    """
    if selection not in ("max_gap", "round_robin", "random"):
        raise ValueError(f"unknown selection rule: {selection!r}")
    if selection == "random" and rng is None:
        raise ValueError("selection='random' requires an rng")
    engine = FastBestResponseEngine(game, slack=slack)
    return engine.run(
        max_iter=max_iter,
        rng=rng,
        selection=selection,
        record_history=record_history,
    )
