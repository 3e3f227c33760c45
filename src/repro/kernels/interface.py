"""The kernel interface: a struct-of-arrays view plus pure array functions.

The hot loops of the slot pipeline (the CGBA gap sweep of
:class:`~repro.core.congestion_game.OffloadingCongestionGame`, the fused
best-response dynamics of
:class:`~repro.solvers.fast_engine.FastBestResponseEngine`, and the
golden-section search of P2-B) are expressed here as a narrow set of
pure array functions over a flat struct-of-arrays state.  Each backend
(:mod:`repro.kernels.numpy_backend`, the C-provided ``jit`` backend)
provides the same functions with bit-identical IEEE semantics; the NumPy
implementation is the oracle every other backend is tested against.

The contract every backend must honour:

* identical elementwise expression trees (same association, no FMA
  contraction, no reassociated reductions);
* first-occurrence tie breaks for every argmin/argmax (strict ``<`` /
  ``>`` scans), matching ``np.argmin``/``np.argmax``;
* in-place mutation of exactly the arrays the NumPy path mutates, so a
  run can switch backends mid-stream and the game state stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["DecomposedState", "KernelBackend"]


@dataclass
class DecomposedState:
    """Struct-of-arrays view of a congestion game's decomposed evaluator.

    All fields are *references* to the owning game's arrays (no copies):
    kernels mutate the game through this view, and the game refreshes
    the re-bindable references (profile arrays) whenever it resets.

    Shapes use ``I`` players, ``K`` base stations, ``N`` servers,
    ``G`` distinct server menus, ``W = 2K + N`` fused resources laid out
    ``[access | fronthaul | compute]``, and ``M`` total menu entries.
    """

    num_players: int
    num_bs: int
    num_servers: int
    #: ``(W,)`` fused resource loads ``p_r(z)``.
    loads: np.ndarray
    #: ``(I, W)`` static per-entry player weights ``p_{i,r}``.
    p: np.ndarray
    #: ``(I, W)`` static per-entry cost weights ``m_r * p_{i,r}``.
    w: np.ndarray
    #: ``(I, W)`` each player's own weight on its current resources.
    sub: np.ndarray
    #: ``(3, I)`` current-cost weights per player (access/front/compute).
    wcur: np.ndarray
    #: ``(3, I)`` int64 current resource indices into ``loads``.
    cur_idx: np.ndarray
    #: ``(K,)`` int64 menu group of every base station (``G`` = empty menu).
    menu_of_bs: np.ndarray
    #: ``(G + 1,)`` int64 offsets into ``menu_servers`` per group.
    menu_offsets: np.ndarray
    #: ``(M,)`` int64 concatenated server menus.
    menu_servers: np.ndarray
    #: Per-group compute-column spec (slice or index array); NumPy path only.
    cols: list
    #: ``(I, W)`` scratch: adjusted per-entry costs.
    adj: np.ndarray
    #: ``(I, K)`` scratch: access + fronthaul terms.
    t: np.ndarray
    #: ``(I, K)`` scratch: per-bs best compute term.
    bk: np.ndarray
    #: ``(I, G + 1)`` scratch: per-menu best compute term (col G = +inf).
    bvals: np.ndarray
    #: ``(G, I)`` intp: per-menu argmin server position.
    nidx: np.ndarray
    #: ``(I,)`` intp: per-player argmin base station.
    kbest: np.ndarray
    #: ``(I,)`` scratch: current costs.
    cc: np.ndarray
    #: ``(3, I)`` scratch: current cost terms.
    cc3: np.ndarray
    #: ``(I,)`` row index helper (``arange(I)``).
    rows: np.ndarray
    #: ``(I, K)`` access weights (+inf on uncovered links).
    p_access: np.ndarray
    #: ``(I,)`` fronthaul weights.
    p_front: np.ndarray
    #: ``(I, N)`` compute weights.
    p_compute: np.ndarray
    #: ``(K,)`` access resource weights ``1 / W^A_k``.
    m_access: np.ndarray
    #: ``(K,)`` fronthaul resource weights.
    m_front: np.ndarray
    #: ``(N,)`` compute resource weights ``1 / speed_n``.
    m_compute: np.ndarray
    #: ``(I,)`` int64 current base station per player.
    bs_of: np.ndarray
    #: ``(I,)`` int64 current server per player.
    server_of: np.ndarray
    #: ``(I,)`` current access weight per player.
    pa_cur: np.ndarray
    #: ``(I,)`` current compute weight per player.
    pc_cur: np.ndarray
    #: ``(K,)`` sum of squared access weights per base station.
    sq_access: np.ndarray
    #: ``(K,)`` sum of squared fronthaul weights per base station.
    sq_front: np.ndarray
    #: ``(N,)`` sum of squared compute weights per server.
    sq_compute: np.ndarray


@dataclass(frozen=True)
class KernelBackend:
    """One backend's implementation of the kernel functions.

    Attributes:
        name: Public backend name (``"numpy"`` or ``"jit"``).
        provider: What actually runs underneath: ``"numpy"`` or
            ``"cc"`` (ctypes-loaded C kernels compiled at first use).
        candidate_costs: ``(wa, wf, wc, pa, pf, pc, la, lf, lc) ->
            costs`` -- flat candidate-cost evaluation, the expression
            tree of the scalar best response.
        segment_first_min: ``(costs, offsets, counts) -> (best, first)``
            -- per-segment minimum and its first attaining index.
        gap_sweep: ``(state) -> (best_cost, current_cost)`` -- one full
            decomposed gap sweep; retains per-player argmins in
            ``state.nidx`` / ``state.kbest``.
        run_dynamics: ``(state, gaps, slack, max_iter) -> (moves,
            converged)`` -- the fused best-response loop (argmax pick,
            move, gap refresh per iteration), mutating the game through
            *state* and leaving ``gaps``, ``nidx`` and ``kbest`` as a
            full sweep after every move would.  How it refreshes is the
            backend's business (the C loop updates incrementally);
            the engine counts the reference dynamics' logical work
            either way.  ``None`` when the backend has no fused loop
            (the engine then drives ``gap_sweep`` from Python).
        golden_quad: ``(lo, hi, ls, ep, scale, qa, qb, qc, tol,
            max_iter) -> (x, evals)`` -- per-lane golden-section search
            on ``f(x) = ls/x + ep * (scale * (qa x^2 + qb x + qc))``,
            replaying :func:`repro.solvers.scalar.minimize_convex_scalar`
            lane by lane.  ``None`` when unavailable.
    """

    name: str
    provider: str
    candidate_costs: Callable
    segment_first_min: Callable
    gap_sweep: Callable
    run_dynamics: Callable | None = None
    golden_quad: Callable | None = None
