"""P2-B: the convex frequency-scaling subproblem.

With the discrete selections fixed, P2-B separates per server into

    min_{omega in [F^L, F^U]}  V * A_n / speed_n(omega)
                               + Q(t) * p_t * g_n(omega),

where ``A_n = (sum_{i on n} sqrt(f_i / sigma_{i,n}))^2`` is the server's
aggregated demand and ``speed_n(omega) = cores_n * omega * 1e9``.  The
first term is convex decreasing, the second convex increasing (the
paper's convex-energy assumption), so each scalar problem is convex on a
box.  The paper hands this to CVX; we solve it with the golden-section
substitute in :mod:`repro.solvers.scalar` -- a *batched* search over all
servers that need it (``method="batch"``), with the original per-server
Python loop kept as the ``method="scalar"`` oracle.  Both are
bit-identical per lane, so the default ``method="auto"`` freely picks
whichever is faster for the fleet size (numpy dispatch overhead makes
the scalar loop win below ~64 servers: measured 320 us vs 1060 us per
call at N=16 on the paper scenario).
"""

from __future__ import annotations

import numpy as np

from repro.core.latency import server_load_roots
from repro.core.state import Assignment, SlotState
from repro.energy.models import QuadraticEnergyModel, ScaledEnergyModel
from repro.kernels import KernelBackend, get_kernels
from repro.network.topology import MECNetwork
from repro.obs.probe import Tracer, as_tracer
from repro.solvers.scalar import (
    _INVPHI,
    _INVPHI2,
    minimize_convex_scalar,
    minimize_convex_scalar_batch,
)
from repro.types import FloatArray

#: Fleet size above which the batched golden-section search beats the
#: scalar loop (numpy dispatch overhead amortises across lanes).
_BATCH_CUTOVER = 64


def solve_p2b(
    network: MECNetwork,
    state: SlotState,
    assignment: Assignment,
    *,
    queue_backlog: float,
    v: float,
    tol: float = 1e-8,
    method: str = "auto",
    tracer: "Tracer | None" = None,
    backend: "KernelBackend | str | None" = None,
) -> FloatArray:
    """Optimal clock frequencies ``Omega`` for P2-B.

    Args:
        network: Static topology (speeds, frequency bounds, energy models).
        state: Current system state (task sizes, electricity price).
        assignment: Fixed discrete selections ``(x_t, y_t)``.
        queue_backlog: The virtual queue ``Q(t)``.
        v: The DPP trade-off parameter ``V``.
        tol: Relative tolerance of the scalar search.
        method: ``"batch"`` (one vectorized golden-section over every
            server that needs the search), ``"scalar"`` (the original
            per-server Python loop, kept as the oracle the equality
            tests compare against), or ``"auto"`` (the default: batch
            for fleets of 64+ servers, scalar below, where Python loop
            overhead is smaller than numpy dispatch overhead).  All
            three produce bit-identical frequencies.
        tracer: Observability tracer; when enabled, emits
            ``p2b.scalar_solves`` / ``p2b.fastpath`` counters telling
            how many servers needed the golden-section search versus the
            closed-form shortcuts, plus ``p2b.batch_iters`` (total
            golden-section iterations across the batch) on the batch
            path.
        backend: Kernel backend for the golden-section search.  A
            backend providing a native ``golden_quad`` (the ``jit``
            backend) replaces the search core on lanes with quadratic
            energy models, bit-identically; method resolution and the
            emitted counters are unchanged, so traces diff clean across
            backends.  ``None`` keeps the NumPy search.

    Returns:
        ``(N,)`` array of frequencies in GHz, elementwise in
        ``[F^L, F^U]``.

    Raises:
        ValueError: On an unknown *method*.

    Notes:
        Two fast paths avoid the scalar search: with zero energy pressure
        (``Q p_t = 0``) latency alone drives the decision, so loaded
        servers run at ``F^U`` and idle ones at ``F^L``; an idle server
        (``A_n = 0``) always parks at ``F^L`` because only the energy
        term remains, and it is increasing.
    """
    if method not in ("auto", "batch", "scalar"):
        raise ValueError(f"unknown method: {method!r}")
    if method == "auto":
        method = "scalar" if network.num_servers < _BATCH_CUTOVER else "batch"
    roots = server_load_roots(network, state, assignment)
    demand = roots * roots  # A_n
    energy_pressure = queue_backlog * state.price
    tracer = as_tracer(tracer)
    kernels = get_kernels(backend)
    native = kernels.golden_quad is not None

    if method == "scalar":
        if native:
            solved = _solve_p2b_scalar_native(
                network, state, demand, energy_pressure, v, tol, kernels
            )
            if solved is not None:
                frequencies, searched = solved
                if tracer.enabled:
                    tracer.counter("p2b.scalar_solves", searched)
                    tracer.counter(
                        "p2b.fastpath", network.num_servers - searched
                    )
                return frequencies
        return _solve_p2b_scalar(
            network, state, demand, energy_pressure, v, tol, tracer
        )

    frequencies, servers, latency_scale = _search_lanes(
        network, state, demand, energy_pressure, v
    )
    batch_iters = 0
    if servers.size:
        best, batch_iters = _golden_search(
            kernels, network, servers, latency_scale, energy_pressure,
            network.freq_min[servers], network.freq_max[servers], tol,
        )
        frequencies[servers] = best

    if tracer.enabled:
        tracer.counter("p2b.scalar_solves", int(servers.size))
        tracer.counter("p2b.fastpath", network.num_servers - int(servers.size))
        tracer.counter("p2b.batch_iters", batch_iters)
    return frequencies


def _search_lanes(
    network: MECNetwork,
    state: SlotState,
    demand: FloatArray,
    energy_pressure: float,
    v: float,
) -> tuple[FloatArray, np.ndarray, FloatArray]:
    """The closed-form fast paths as masks, and the lanes left to search.

    Returns ``(frequencies, servers, latency_scale)``: frequencies with
    every fast path applied in the scalar loop's precedence order
    (offline -> F^L, idle -> F^L, zero energy pressure -> F^U), the
    indices of the servers that still need the golden-section search,
    and their latency coefficients ``V A_n / speed_n(1)``.
    """
    frequencies = network.freq_min.copy()
    if state.available_servers is None:
        online = np.ones(network.num_servers, dtype=bool)
    else:
        online = np.asarray(state.available_servers, dtype=bool)
    loaded = online & (demand > 0.0)
    if energy_pressure <= 0.0:
        frequencies[loaded] = network.freq_max[loaded]
        servers = np.empty(0, dtype=np.int64)
    else:
        servers = np.flatnonzero(loaded)
    # speed(omega) is linear in omega, so V A / speed = scale / omega.
    speed_one = network.speed_scale[servers] * 1.0 * 1e9
    return frequencies, servers, v * demand[servers] / speed_one


def _as_scaled_quadratic(model) -> tuple[float, float, float, float] | None:
    """``(scale, a, b, c)`` when *model* is a (possibly scaled) quadratic."""
    if type(model) is QuadraticEnergyModel:
        return (1.0, model.a, model.b, model.c)
    if type(model) is ScaledEnergyModel and type(model.base) is QuadraticEnergyModel:
        return (model.scale, model.base.a, model.base.b, model.base.c)
    return None


def _batch_objective(
    network: MECNetwork,
    servers: np.ndarray,
    latency_scale: FloatArray,
    energy_pressure: float,
):
    """The vectorized P2-B objective over the given server lanes.

    Elementwise identical to the scalar loop's closure: lanes sharing a
    :class:`QuadraticEnergyModel` family evaluate the quadratic directly
    on coefficient arrays; anything else falls back to each model's
    ``power_many`` (itself elementwise equal to ``power``).
    """
    models = [network.servers[int(n)].energy_model for n in servers]
    quads = [_as_scaled_quadratic(m) for m in models]
    if all(q is not None for q in quads):
        scale, a, b, c = (np.array(col) for col in zip(*quads))

        def objective(freq: FloatArray) -> FloatArray:
            # scale * (a f^2 + b f + c): ScaledEnergyModel's expression
            # tree; plain quadratics carry scale == 1.0, and multiplying
            # by exactly 1.0 is a bitwise identity.
            return latency_scale / freq + energy_pressure * (
                scale * (a * freq * freq + b * freq + c)
            )

        return objective

    groups: dict[int, tuple[object, list[int]]] = {}
    for lane, model in enumerate(models):
        groups.setdefault(id(model), (model, []))[1].append(lane)
    grouped = [(model, np.array(lanes)) for model, lanes in groups.values()]

    def objective(freq: FloatArray) -> FloatArray:
        out = latency_scale / freq
        for model, lanes in grouped:
            out[lanes] += energy_pressure * model.power_many(freq[lanes])
        return out

    return objective


def _quad_columns(
    network: MECNetwork, servers: np.ndarray
) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray] | None:
    """Per-lane ``(scale, a, b, c)`` arrays, or ``None`` on any non-quad."""
    quads = [
        _as_scaled_quadratic(network.servers[int(n)].energy_model)
        for n in servers
    ]
    if any(q is None for q in quads):
        return None
    scale, a, b, c = (np.array(col) for col in zip(*quads))
    return scale, a, b, c


def _golden_search(
    kernels: KernelBackend,
    network: MECNetwork,
    servers: np.ndarray,
    latency_scale: FloatArray,
    energy_pressure: float,
    lo: FloatArray,
    hi: FloatArray,
    tol: float,
) -> tuple[FloatArray, int]:
    """``(x, total_evals)`` for the per-lane golden-section search.

    Uses the kernel backend's native ``golden_quad`` when every lane has
    a (scaled) quadratic energy model -- bit-identical to the NumPy
    batch search, including the evaluation counts -- and the NumPy
    search otherwise.
    """
    if kernels.golden_quad is not None:
        cols = _quad_columns(network, servers)
        if cols is not None:
            scale, a, b, c = cols
            ep = np.full(servers.size, energy_pressure)
            x, evals = kernels.golden_quad(
                lo, hi, latency_scale, ep, scale, a, b, c, tol
            )
            return x, int(evals.sum())
    result = minimize_convex_scalar_batch(
        _batch_objective(network, servers, latency_scale, energy_pressure),
        lo,
        hi,
        tol=tol,
    )
    return result.x, int(result.iterations.sum())


def _solve_p2b_scalar_native(
    network: MECNetwork,
    state: SlotState,
    demand: FloatArray,
    energy_pressure: float,
    v: float,
    tol: float,
    kernels: "KernelBackend",
) -> tuple[FloatArray, int] | None:
    """The scalar method's result via the native golden kernel.

    Applies the scalar loop's fast paths as masks (:func:`_search_lanes`,
    itself bit-identical to the loop) and hands every lane that needs
    the search to ``golden_quad`` in one call.  Returns
    ``(frequencies, searched_lanes)``, or ``None`` when any searched
    lane has a non-quadratic energy model (the caller then runs the
    Python loop, which handles arbitrary models).
    """
    frequencies, servers, latency_scale = _search_lanes(
        network, state, demand, energy_pressure, v
    )
    if servers.size == 0:
        return frequencies, 0
    cols = _quad_columns(network, servers)
    if cols is None:
        return None
    scale, a, b, c = cols
    ep = np.full(servers.size, energy_pressure)
    x, _ = kernels.golden_quad(
        network.freq_min[servers], network.freq_max[servers],
        latency_scale, ep, scale, a, b, c, tol,
    )
    frequencies[servers] = x
    return frequencies, int(servers.size)


def _solve_p2b_scalar(
    network: MECNetwork,
    state: SlotState,
    demand: FloatArray,
    energy_pressure: float,
    v: float,
    tol: float,
    tracer: Tracer,
) -> FloatArray:
    """The original per-server loop -- the batch path's reference oracle."""
    scalar_solves = 0
    frequencies = np.empty(network.num_servers)
    for n, server in enumerate(network.servers):
        lo, hi = server.freq_min, server.freq_max
        if (
            state.available_servers is not None
            and not state.available_servers[n]
        ):
            # Offline server: parked; it neither serves nor draws power.
            frequencies[n] = lo
            continue
        if demand[n] <= 0.0:
            frequencies[n] = lo
            continue
        if energy_pressure <= 0.0:
            frequencies[n] = hi
            continue
        # speed(omega) is linear in omega, so V A / speed = scale / omega.
        latency_scale = v * demand[n] / server.speed(1.0)
        model = server.energy_model
        quad = _as_scaled_quadratic(model)

        if quad is not None and hi > lo:
            # Golden-section search with the (Scaled)QuadraticEnergyModel
            # objective fused into the loop: the same probe points,
            # branch rule, iteration cap, and endpoint-included
            # first-minimum tie break as minimize_convex_scalar, and the
            # same expression tree as the model's ``power`` --
            # scale * (a f^2 + b f + c), where multiplying by a scale of
            # exactly 1.0 (the unscaled model) is a bitwise identity.
            # Inlining removes a Python call per probe, the hottest
            # scalar-path cost.
            s, qa, qb, qc = quad
            ls, ep = latency_scale, energy_pressure
            threshold = tol * max(1.0, hi - lo)
            a, b = lo, hi
            c = a + _INVPHI2 * (b - a)
            d = a + _INVPHI * (b - a)
            fc = ls / c + ep * (s * (qa * c * c + qb * c + qc))
            fd = ls / d + ep * (s * (qa * d * d + qb * d + qc))
            for _ in range(200):
                if (b - a) <= threshold:
                    break
                if fc <= fd:
                    b, d, fd = d, c, fc
                    c = a + _INVPHI2 * (b - a)
                    fc = ls / c + ep * (s * (qa * c * c + qb * c + qc))
                else:
                    a, c, fc = c, d, fd
                    d = a + _INVPHI * (b - a)
                    fd = ls / d + ep * (s * (qa * d * d + qb * d + qc))
            best_value = ls / lo + ep * (s * (qa * lo * lo + qb * lo + qc))
            best_x = lo
            value_hi = ls / hi + ep * (s * (qa * hi * hi + qb * hi + qc))
            if value_hi < best_value:
                best_value, best_x = value_hi, hi
            if fc < best_value:
                best_value, best_x = fc, c
            if fd < best_value:
                best_value, best_x = fd, d
            frequencies[n] = best_x
        else:

            def objective(freq: float) -> float:
                return latency_scale / freq + energy_pressure * model.power(freq)

            result = minimize_convex_scalar(objective, lo, hi, tol=tol)
            frequencies[n] = result.x
        scalar_solves += 1
    if tracer.enabled:
        tracer.counter("p2b.scalar_solves", scalar_solves)
        tracer.counter("p2b.fastpath", network.num_servers - scalar_solves)
    return frequencies
