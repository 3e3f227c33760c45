"""Layer timing for the benchmark, installed from outside the program.

Two instruments live here, both attached by wrapping public functions
and methods of :mod:`repro` for the duration of one workload execution
(a *rep*) and removed afterwards:

* :class:`StepClock` -- always on.  Times every controller slot
  decision (``DPPController.step``) in whatever process runs it, and
  stamps when the first decision started, which ends the rep's set-up.
  Resident workers are ``fork`` children: each one is handed its own
  region of an anonymous shared mapping at spawn, so the parent reads
  every worker's samples without a pipe or a lock.
* :class:`Recorder` -- only in the traced run.  A span stack over the
  layer boundaries (the controller's own probe spans plus wrappers
  around the layers' public entry points), giving each layer's
  inclusive and self time, kernel time by enclosing layer, and the
  layer counters.  Workers publish their running aggregates through
  the same kind of shared mapping.

A missing hook target (a later refactor renamed it) is skipped and
listed in :attr:`Hooks.missing`, so the end-to-end run never depends
on a private name.
"""

from __future__ import annotations

import mmap
import pickle
import struct
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module

import numpy as np

perf = time.perf_counter

#: Most processes one rep can spread over: the parent, the resident
#: workers and any respawned replacements.
MAX_REGIONS = 16

#: Probe span name -> layer.  Spans not listed keep their own name.
SPAN_LAYERS = {
    "slot": "controller",
    "state": "controller",
    "bdma": "bdma",
    "p2a": "p2a",
    "cgba": "p2a",
    "p2b": "p2b",
    "allocation": "allocation",
    "queue": "queue",
}

#: Probe counter -> layer count name.
COUNTER_NAMES = {
    "engine.moves": "p2a.moves",
    "engine.gap_recomputations": "p2a.gap_recomputations",
    "engine.candidate_evaluations": "p2a.candidate_evals",
    "bdma.rounds": "bdma.rounds",
    "engine.warm_start_hits": "bdma.warm_start_hits",
    "p2b.scalar_solves": "p2b.scalar_solves",
}


class _Process:
    """The instruments the current process writes to.

    Module state on purpose: a forked worker inherits this object, and
    the spawn hook points it at the worker's own region just before the
    fork and back at the parent's right after.
    """

    clock: "StepClock | None" = None
    recorder: "Recorder | None" = None
    region = 0


PROCESS = _Process()


class StepClock:
    """Per-process slot decision times in one shared anonymous mapping.

    Region ``r`` holds ``[count, first_start, d_0, d_1, ...]``; region 0
    is the parent, regions 1.. are workers in spawn order.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._map = mmap.mmap(-1, MAX_REGIONS * (self.capacity + 2) * 8)
        self.rows = np.frombuffer(self._map, dtype=np.float64).reshape(
            MAX_REGIONS, self.capacity + 2
        )
        self.rows[:, 1] = np.inf
        self.regions_used = 1

    def record(self, start: float, seconds: float) -> None:
        row = self.rows[PROCESS.region]
        n = int(row[0])
        if n == 0:
            row[1] = start
        if n < self.capacity:
            row[2 + n] = seconds
        row[0] = n + 1

    def first_start(self) -> float:
        return float(self.rows[: self.regions_used, 1].min())

    def samples(self) -> np.ndarray:
        """Every decision's duration, region by region."""
        parts = [
            row[2 : 2 + min(int(row[0]), self.capacity)]
            for row in self.rows[: self.regions_used]
        ]
        return np.concatenate(parts).copy()

    def decisions(self) -> int:
        return int(self.rows[: self.regions_used, 0].sum())

    def close(self) -> None:
        self.rows = None
        self._map.close()


class Recorder:
    """Layer span stack: inclusive/self time, kernel time, counts.

    Nested spans of the same layer (``p2a`` around ``cgba``) count once.
    With *keep_spans* every closed span is kept as
    ``(id, parent_id, layer, start, end)`` for the trace file.
    """

    def __init__(self, *, keep_spans: bool = False, mailbox=None, region: int = 0):
        self.stack: list[list] = []  # [layer, start, child_seconds, id]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.kernel = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans: "list | None" = [] if keep_spans else None
        self._next_id = 1
        #: Where this (worker) recorder publishes its aggregate after
        #: every top-level span; the parent's stays ``None``.
        self.mailbox = mailbox
        self.region = region
        #: The parent's mailbox handed to the workers it spawns.
        self.worker_mailbox = None

    def enter(self, layer: str) -> bool:
        stack = self.stack
        if stack and stack[-1][0] == layer:
            return False
        stack.append([layer, perf(), 0.0, self._next_id])
        self._next_id += 1
        return True

    def exit(self) -> None:
        layer, start, child, sid = self.stack.pop()
        end = perf()
        seconds = end - start
        self.total[layer] += seconds
        self.self_time[layer] += seconds - child
        if self.stack:
            self.stack[-1][2] += seconds
        elif self.mailbox is not None:
            self.mailbox.post(self.region, self.aggregate())
        if self.spans is not None:
            parent = self.stack[-1][3] if self.stack else 0
            self.spans.append((sid, parent, layer, start, end))

    @contextmanager
    def span(self, layer: str):
        pushed = self.enter(layer)
        try:
            yield
        finally:
            if pushed:
                self.exit()

    def add_kernel(self, seconds: float) -> None:
        layer = self.stack[-1][0] if self.stack else "none"
        self.kernel[layer] += seconds

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def aggregate(self) -> dict:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "kernel": dict(self.kernel),
            "counts": dict(self.counts),
        }


class Mailbox:
    """Fixed-size slots in a shared anonymous mapping, one per worker;
    each holds the worker's latest pickled aggregate."""

    SLOT = 1 << 18

    def __init__(self) -> None:
        self._map = mmap.mmap(-1, MAX_REGIONS * self.SLOT)

    def post(self, region: int, payload: dict) -> None:
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        if len(data) + 8 > self.SLOT:
            raise RuntimeError("layer aggregate exceeds its mailbox slot")
        offset = region * self.SLOT
        self._map[offset + 8 : offset + 8 + len(data)] = data
        self._map[offset : offset + 8] = struct.pack("<q", len(data))

    def collect(self, regions: range) -> "list[dict]":
        out = []
        for region in regions:
            offset = region * self.SLOT
            (size,) = struct.unpack("<q", self._map[offset : offset + 8])
            if size:
                # Only this benchmark's own worker processes wrote here.
                out.append(pickle.loads(self._map[offset + 8 : offset + 8 + size]))
        return out

    def close(self) -> None:
        self._map.close()


def merge_aggregates(parts: "list[dict]") -> dict:
    merged = {key: defaultdict(float) for key in ("total", "self", "kernel", "counts")}
    for part in parts:
        for key, values in part.items():
            for name, value in values.items():
                merged[key][name] += value
    return {key: dict(values) for key, values in merged.items()}


# -- the traced tracer -------------------------------------------------------


def make_layer_probe():
    """A :class:`repro.obs.probe.Probe` whose spans and counters also
    feed the current process's :class:`Recorder`, and whose sinks are
    timed as the ``obs`` layers."""
    from repro.obs.monitors import MonitorSuite
    from repro.obs.probe import Probe

    class _LayeredSpan:
        __slots__ = ("_layer", "_inner", "_pushed")

        def __init__(self, layer, inner):
            self._layer = layer
            self._inner = inner

        def __enter__(self):
            self._pushed = PROCESS.recorder.enter(self._layer)
            self._inner.__enter__()
            return self

        def __exit__(self, *exc):
            if self._pushed:
                PROCESS.recorder.exit()
            return self._inner.__exit__(*exc)

    class _LayeredSink:
        def __init__(self, sink, layer):
            self._sink = sink
            self._layer = layer

        def emit(self, event):
            rec = PROCESS.recorder
            pushed = rec.enter(self._layer)
            try:
                self._sink.emit(event)
            finally:
                if pushed:
                    rec.exit()

        def __getattr__(self, name):
            return getattr(self._sink, name)

    class LayerProbe(Probe):
        __slots__ = ()

        def span(self, name):
            return _LayeredSpan(SPAN_LAYERS.get(name, name), super().span(name))

        def counter(self, name, value=1.0):
            mapped = COUNTER_NAMES.get(name)
            if mapped is not None:
                PROCESS.recorder.count(mapped, value)
            super().counter(name, value)

        def add_sink(self, sink):
            layer = "obs.monitor" if isinstance(sink, MonitorSuite) else "obs.sink"
            super().add_sink(_LayeredSink(sink, layer))

    return LayerProbe


# -- hook installation -------------------------------------------------------


class Hooks:
    """Patches attributes for one rep and restores them on exit."""

    def __init__(self) -> None:
        self._saved: list = []
        self.missing: list[str] = []

    def patch(self, module: str, path: str, make) -> None:
        owner = import_module(module)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                break
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{path}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _timed_step(step):
    def wrapper(self, state):
        start = perf()
        try:
            return step(self, state)
        finally:
            PROCESS.clock.record(start, perf() - start)

    return wrapper


def _region_per_spawn(spawn):
    """Fork each worker with its own region index (and, when tracing,
    a fresh recorder bound to that region)."""

    def wrapper(self):
        clock, parent_rec = PROCESS.clock, PROCESS.recorder
        region = clock.regions_used
        if region >= MAX_REGIONS:
            raise RuntimeError("more worker spawns than measurement regions")
        clock.regions_used += 1
        PROCESS.region = region
        if parent_rec is not None:
            PROCESS.recorder = Recorder(mailbox=parent_rec.worker_mailbox, region=region)
        try:
            if parent_rec is not None:
                with parent_rec.span("runtime.spawn"):
                    return spawn(self)
            return spawn(self)
        finally:
            PROCESS.region = 0
            PROCESS.recorder = parent_rec

    return wrapper


def _layer(name, count=None):
    def make(fn):
        def wrapper(*args, **kwargs):
            rec = PROCESS.recorder
            if count is not None:
                rec.count(count)
            with rec.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return make


def _strategy_space(fn):
    def wrapper(self, state):
        rec = PROCESS.recorder
        with rec.span("strategy_space"):
            space = fn(self, state)
        reused = getattr(self, "_space_reused", None)
        if reused is not None:
            rec.count("strategy_space.cache_hits" if reused else "strategy_space.builds")
        return space

    return wrapper


def _compiled_stream(fn):
    """``compile_states`` yields lazily; time each pull as compile work."""

    def wrapper(*args, **kwargs):
        rec = PROCESS.recorder
        with rec.span("state.compile"):
            stream = iter(fn(*args, **kwargs))

        def pulls():
            while True:
                with rec.span("state.compile"):
                    try:
                        state = next(stream)
                    except StopIteration:
                        return
                yield state

        return pulls()

    return wrapper


def _kernels(fn):
    from dataclasses import replace

    names = ("candidate_costs", "segment_first_min", "gap_sweep", "run_dynamics", "golden_quad")

    def wrapper(backend):
        backend = fn(backend)
        wrapped = {}
        for name in names:
            call = getattr(backend, name, None)
            if call is None:
                continue

            def timed(*args, _call=call):
                start = perf()
                out = _call(*args)
                PROCESS.recorder.add_kernel(perf() - start)
                return out

            wrapped[name] = timed
        return replace(backend, **wrapped)

    return wrapper


def _respawn(counter):
    def make(fn):
        def wrapper(self):
            counter.append(len(getattr(self, "cells", ())))
            if PROCESS.recorder is not None:
                PROCESS.recorder.count("runtime.respawns")
            return fn(self)

        return wrapper

    return make


@contextmanager
def instrument(clock: StepClock, recorder: "Recorder | None", respawns: list):
    """Attach the step clock (always) and the layer recorder (when
    given) for the duration of one rep."""
    hooks = Hooks()
    PROCESS.clock, PROCESS.recorder, PROCESS.region = clock, recorder, 0
    try:
        hooks.patch("repro.core.controller", "DPPController.step", _timed_step)
        hooks.patch("repro.sim.shard_runtime", "ResidentWorker.spawn", _region_per_spawn)
        hooks.patch("repro.sim.shard_runtime", "ResidentWorker.respawn", _respawn(respawns))
        if recorder is not None:
            probe_cls = make_layer_probe()
            hooks.patch("repro.sim.shard_runtime", "Probe", lambda _orig: probe_cls)
            for module, path, layer, count in (
                ("repro.api", "make_controller", "controller.build", None),
                ("repro.api", "run_simulation", "engine", None),
                ("repro.sim.shard_runtime", "run_simulation", "engine", None),
                ("repro.sim.sharded", "extract_subnetwork", "shard.extract", None),
                ("repro.network.partition", "validate_network", "shard.validate",
                 "shard.validate_calls"),
                ("repro.sim.sharded", "merge_cell_metrics", "shard.merge", None),
                ("repro.core.budget", "BudgetCoordinator.update", "coordinator",
                 "coordinator.epochs"),
                ("repro.sim.shard_runtime", "SharedStatePlanner.__init__",
                 "runtime.planner", None),
                ("repro.sim.shard_runtime", "SharedStatePlanner.fill", "runtime.planner", None),
                ("repro.sim.shard_runtime", "ResidentWorker.recv", "runtime.wait", None),
                ("repro.sim.shard_runtime", "ResidentWorker.stop", "runtime.stop", None),
                ("repro.sim.shard_runtime", "CellRuntime.__init__", "runtime.cell_init", None),
                ("repro.sim.shard_runtime", "CellRuntime.run_epoch", "runtime.cell_epoch",
                 None),
                ("repro.obs.monitors", "MonitorSuite.finish", "obs.monitor", None),
                ("repro.obs.telemetry", "MetricsRegistry.snapshot_delta", "obs.snapshot",
                 None),
                ("repro.obs.telemetry", "MetricsRegistry.merge_snapshot", "obs.merge",
                 "obs.merges"),
            ):
                hooks.patch(module, path, _layer(layer, count))
            hooks.patch("repro.core.controller", "DPPController.strategy_space", _strategy_space)
            hooks.patch("repro.sim.scenario", "StateGenerator.compile_states", _compiled_stream)
            hooks.patch("repro.core.controller", "maybe_instrument_kernels", _kernels)
        yield hooks
    finally:
        hooks.restore()
        PROCESS.clock, PROCESS.recorder = None, None
