"""Glue adapting the raw flat-argument C kernels to the backend API.

The C provider exposes low-level entry points (flat positional argument
lists over contiguous arrays); this module wraps them into
:class:`~repro.kernels.interface.KernelBackend` callables, owning the
per-state scratch and cache buffers and delegating the flat candidate
path to the NumPy oracle (it is already one fused gather and off the
decomposed hot path).

Per-state argument caching: the kernels take raw data pointers
(``convert`` turns an array into a ``ctypes.c_void_p``), and converting
~30 arrays per kernel call dominates the adapter once the kernels
themselves are fast.  Kernels mutate arrays strictly in place, so a
conversion stays valid for as long as the state field references the
same array object; the cache is keyed by identity and any re-bound
field (profile reset, new game) reconverts transparently.

``run_dynamics`` refreshes gaps incrementally; its caches (per-player
cost terms and per-menu minima) and the server -> (menu, position) map
live here, allocated once per state and filled by the kernel at the
first move of each call.  The engine's work counters are
unaffected: they count the reference dynamics' logical work, the same
on every backend.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.interface import DecomposedState, KernelBackend
from repro.kernels.numpy_backend import candidate_costs, segment_first_min

__all__ = ["wrap_raw_backend"]

#: DecomposedState fields handed to the raw kernels, in no particular
#: order; the int64-typed ones are listed separately for validation.
_I64_FIELDS = frozenset(
    (
        "cur_idx", "menu_of_bs", "menu_offsets", "menu_servers",
        "nidx", "kbest", "bs_of", "server_of",
    )
)
_STATE_FIELDS = (
    "loads", "p", "w", "sub", "wcur", "cur_idx", "menu_of_bs",
    "menu_offsets", "menu_servers", "nidx", "kbest", "p_access",
    "p_front", "p_compute", "m_access", "m_front", "m_compute",
    "bs_of", "server_of", "pa_cur", "pc_cur", "sq_access",
    "sq_front", "sq_compute", "cc",
)


def _validate(arr: np.ndarray, field: str) -> None:
    if not arr.flags.c_contiguous:
        raise ValueError(f"kernel state field {field!r} is not C-contiguous")
    expected = np.int64 if field in _I64_FIELDS else np.float64
    if arr.dtype != expected:
        raise ValueError(
            f"kernel state field {field!r} has dtype {arr.dtype}, "
            f"expected {np.dtype(expected)}"
        )


class _StateCache:
    """Converted kernel arguments for one :class:`DecomposedState`.

    Holds identity-checked ``(array, converted)`` pairs per field plus
    the buffers whose shapes are fixed for the life of the state: the
    gap sweep's scratch (one adj row, one t row, per-menu best values)
    and ``run_dynamics``' caches (``dyn``: resource-major copies of
    ``p``/``w``/``sub`` and per-player access + fronthaul terms, compute
    terms and per-menu minima; ``server_map``: each server's (menu,
    position) entries).
    """

    __slots__ = (
        "convert", "table", "adj", "t", "bvals", "dyn", "server_map",
        "num_groups",
    )

    def __init__(self, state: DecomposedState, convert) -> None:
        self.convert = convert
        self.table: dict = {}
        self.num_groups = len(state.cols)
        num_bs, num_servers = state.num_bs, state.num_servers
        width = 2 * num_bs + num_servers
        self.adj = np.empty(width)
        self.t = np.empty(num_bs)
        # The trailing bvals slot stays +inf -- base stations with an
        # empty server menu map to it, so their totals never win the
        # argmin (mirrors the NumPy evaluator's sentinel column; the
        # kernel fills dyn's own sentinel row).
        self.bvals = np.empty(self.num_groups + 1)
        self.bvals[-1] = np.inf
        # Left unfilled: the kernel builds both at the first move of a
        # call, so calls converged on entry never touch them.
        self.dyn = np.empty(
            (3 * width + num_bs + num_servers + self.num_groups + 1)
            * state.num_players
        )
        self.server_map = np.empty(
            num_servers + 1 + 2 * state.menu_servers.size, dtype=np.int64
        )

    def field(self, state: DecomposedState, name: str):
        arr = getattr(state, name)
        entry = self.table.get(name)
        if entry is not None and entry[0] is arr:
            return entry[1]
        _validate(arr, name)
        converted = self.convert(arr)
        self.table[name] = (arr, converted)
        return converted

    def buffers(self, names: tuple[str, ...]) -> tuple:
        """Converted pointers of this cache's own buffers *names*."""
        entry = self.table.get(names)
        if entry is None:
            entry = tuple(self.convert(getattr(self, name)) for name in names)
            self.table[names] = entry
        return entry


def wrap_raw_backend(
    name: str,
    provider: str,
    raw_gap_sweep,
    raw_run_dynamics,
    raw_golden_quad,
    *,
    convert,
) -> KernelBackend:
    """Build a :class:`KernelBackend` from raw flat-argument kernels.

    Args:
        convert: Per-array argument conversion (array -> raw data
            pointer for the ctypes slots).
    """
    def _cache(state: DecomposedState) -> _StateCache:
        cache = getattr(state, "_kernel_arg_cache", None)
        if cache is None or cache.convert is not convert:
            cache = _StateCache(state, convert)
            state._kernel_arg_cache = cache
        return cache

    def gap_sweep(state: DecomposedState):
        cache = _cache(state)
        f = cache.field
        adj, t, bvals = cache.buffers(("adj", "t", "bvals"))
        best = np.empty(state.num_players)
        raw_gap_sweep(
            state.num_players, state.num_bs, state.num_servers,
            cache.num_groups,
            f(state, "loads"), f(state, "p"), f(state, "w"),
            f(state, "sub"), f(state, "wcur"), f(state, "cur_idx"),
            f(state, "menu_of_bs"), f(state, "menu_offsets"),
            f(state, "menu_servers"),
            f(state, "nidx"), f(state, "kbest"),
            convert(best), f(state, "cc"),
            adj, t, bvals,
        )
        return best, state.cc

    def run_dynamics(state: DecomposedState, gaps, slack, max_iter):
        cache = _cache(state)
        f = cache.field
        dyn, server_map = cache.buffers(("dyn", "server_map"))
        if not gaps.flags.c_contiguous:
            raise ValueError("gaps must be C-contiguous")
        converged = np.zeros(1, dtype=np.int64)
        moves = raw_run_dynamics(
            state.num_players, state.num_bs, state.num_servers,
            cache.num_groups,
            float(slack), int(max_iter),
            f(state, "loads"), f(state, "p"), f(state, "w"),
            f(state, "sub"), f(state, "wcur"), f(state, "cur_idx"),
            f(state, "menu_of_bs"), f(state, "menu_offsets"),
            f(state, "menu_servers"),
            f(state, "nidx"), f(state, "kbest"), convert(gaps),
            f(state, "p_access"), f(state, "p_front"),
            f(state, "p_compute"),
            f(state, "m_access"), f(state, "m_front"),
            f(state, "m_compute"),
            f(state, "bs_of"), f(state, "server_of"),
            f(state, "pa_cur"), f(state, "pc_cur"),
            f(state, "sq_access"), f(state, "sq_front"),
            f(state, "sq_compute"),
            dyn, server_map,
            convert(converged),
        )
        return int(moves), bool(converged[0])

    def golden_quad(lo, hi, ls, ep, scale, qa, qb, qc, tol, max_iter=200):
        lo = np.ascontiguousarray(lo, dtype=np.float64)
        hi = np.ascontiguousarray(hi, dtype=np.float64)
        ls = np.ascontiguousarray(ls, dtype=np.float64)
        ep = np.ascontiguousarray(ep, dtype=np.float64)
        scale = np.ascontiguousarray(scale, dtype=np.float64)
        qa = np.ascontiguousarray(qa, dtype=np.float64)
        qb = np.ascontiguousarray(qb, dtype=np.float64)
        qc = np.ascontiguousarray(qc, dtype=np.float64)
        x = np.empty(lo.size)
        evals = np.empty(lo.size, dtype=np.int64)
        raw_golden_quad(
            lo.size, convert(lo), convert(hi), float(tol), int(max_iter),
            convert(ls), convert(ep), convert(scale),
            convert(qa), convert(qb), convert(qc),
            convert(x), convert(evals),
        )
        return x, evals

    return KernelBackend(
        name=name,
        provider=provider,
        candidate_costs=candidate_costs,
        segment_first_min=segment_first_min,
        gap_sweep=gap_sweep,
        run_dynamics=run_dynamics,
        golden_quad=golden_quad,
    )
