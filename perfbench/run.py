"""The repository's benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-medium --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
``wall_s``, ``setup_s``, ``slots_per_s``, ``slot_p50_ms``,
``slot_p95_ms``, ``peak_rss_mb``, ``mean_latency`` and
``cost_budget_ratio``.  ``--trace 1`` alternates untraced and traced
reps and reports the per-layer metrics (self time per layer, kernel
time, layer counts, tracing overhead, layer shares); the traced spans
are written to ``.perfbench/trace-<workload>-seed<seed>.json``.

Every run first checks a pinned-fingerprint canary of its workload,
then repeats the workload from a cold scenario build until
``--seconds`` have passed (and at least the workload's ``min_reps``
times); every rep must reproduce the same trajectory fingerprint.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
and ``failed`` count (cell-)slot decisions.  The exit code is non-zero
when any check fails.  A rep that raises ends the measurement; all of
its slot decisions count as failed.  Every helper process is stopped
and reaped before the command exits.
"""

from __future__ import annotations

import os

# Host hygiene, before numpy is first imported: one BLAS/OpenMP thread.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "slots_per_s": "slots/s",
    "slot_p50_ms": "ms",
    "slot_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "mean_latency": "s",
    "cost_budget_ratio": "ratio",
}

#: Safety stop: no new rep starts after this many seconds of measuring.
MAX_MEASURE_SECONDS = 110.0

#: The host probe's reading in this host's fast state (ms): a fixed
#: scale, the same for every commit measured.
PROBE_REFERENCE_MS = 2.3

_PROBE_INPUTS: dict = {}


def _probe_inputs() -> dict:
    """Fixed inputs of the probe parts, drawn once from a fixed seed."""
    import numpy as np

    if not _PROBE_INPUTS:
        rng = np.random.default_rng(0)
        _PROBE_INPUTS.update(
            small=rng.random((40, 6)),
            table=rng.random(2_000_000),  # 16 MB, larger than the L2 cache
            index=rng.integers(0, 2_000_000, 200_000),
        )
    return _PROBE_INPUTS


def host_probe() -> float:
    """The host's speed state when it was taken: the geometric mean, in
    ms, of three fixed parts, each best of 3 -- a pure-Python loop, a
    loop of small-array NumPy calls and a random gather from a 16 MB
    array.

    The program's slot decisions mix interpreter work, small NumPy calls
    and memory-bound kernels, and the host's slow state slows each of
    them by a different amount; on traces of paper-medium and dense-cell
    the mix tracked the reps' times better than any one part (see
    ``LAYERS.md``).  The probe is printed with every run so an unsteady
    set can be traced to the host.  It is never a metric itself, but it
    sets each rep's host factor (see :func:`measure`).
    """
    from time import perf_counter

    inputs = _probe_inputs()
    small, table, index = inputs["small"], inputs["table"], inputs["index"]

    def interpreter():
        total = 0
        for i in range(100_000):
            total += i * i

    def small_arrays():
        for _ in range(300):
            (small * small + small).argmin(axis=1).sum()

    def gather():
        table.take(index).sum()

    log_sum = 0.0
    for part in (interpreter, small_arrays, gather):
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            part()
            best = min(best, perf_counter() - start)
        log_sum += math.log(best * 1e3)
    return math.exp(log_sum / 3)


def machine_tag() -> str:
    import numpy as np

    return (
        f"{platform.machine()}-{os.cpu_count()}cpu-{platform.system().lower()}"
        f"-py{platform.python_version()}-numpy{np.__version__}"
    )


def warm_kernels() -> str:
    """Build (or load) the content-addressed C kernel cache now, outside
    every timed region; returns the jit provider."""
    from repro.kernels import get_kernels, jit_provider

    provider = jit_provider()
    if provider is None:
        raise SystemExit("no jit provider (numba or a C compiler) is available")
    get_kernels("jit")
    return provider


def measure(workload, seed: int, seconds: float, *, traced: bool):
    """Repeat the workload until *seconds* have passed, with a host probe
    between reps; with *traced*, alternate untraced and traced reps.

    Stops at the first rep that raises and returns its traceback as
    *crash* (``None`` when every rep completed).
    """
    import multiprocessing
    import threading

    from layers import perf
    from workloads import execute

    plain, traced_reps = [], []
    probes = [host_probe()]
    crash = None
    started = perf()
    while True:
        elapsed = perf() - started
        enough = len(plain) >= workload.min_reps and (
            not traced or len(traced_reps) >= 1
        )
        if enough and (elapsed >= seconds or elapsed >= MAX_MEASURE_SECONDS):
            break
        trace_next = traced and len(traced_reps) < len(plain)
        try:
            rep = execute(workload, seed, traced=trace_next)
        except Exception:
            crash = traceback.format_exc()
            break
        # Anything the program left running would slow the probe.
        if multiprocessing.active_children() or threading.active_count() > 1:
            rep.problems.append("the program left processes or threads running")
        probes.append(host_probe())
        around = (probes[-2] + probes[-1]) / 2
        rep.scale = (PROBE_REFERENCE_MS / around) ** workload.host_exponent
        (traced_reps if trace_next else plain).append(rep)
    return plain, traced_reps, probes, crash


def end_to_end(workload, reps, *, adjusted: bool = True) -> "tuple[dict, dict]":
    """The end-to-end metrics: medians over a run's untraced reps.

    The host switches between speed states up to 2x apart, from under a
    second to over a minute at a time, so a run can fall mostly in one
    of them.  Each rep's times are scaled by its host factor,
    ``PROBE_REFERENCE_MS`` over the mean of the probes taken just before
    and after it, to the workload's ``host_exponent`` (unless *adjusted*
    is false): the rep's time at the host's fast speed.  Slot
    percentiles are taken within each rep, over its own slot decisions
    (at least 200), then the median over reps.
    """
    import numpy as np

    from workloads import peak_rss_mb

    def median(per_rep) -> float:
        return statistics.median(
            per_rep(rep) * (rep.scale if adjusted else 1.0) for rep in reps
        )

    values = {
        "wall_s": median(lambda rep: rep.wall),
        "setup_s": median(lambda rep: rep.setup),
        "slots_per_s": statistics.median(
            rep.slots_per_s / (rep.scale if adjusted else 1.0) for rep in reps
        ),
        "slot_p50_ms": median(lambda rep: np.percentile(rep.step_seconds, 50) * 1e3),
        "slot_p95_ms": median(lambda rep: np.percentile(rep.step_seconds, 95) * 1e3),
        "peak_rss_mb": peak_rss_mb(children=workload.cells is not None),
        "mean_latency": reps[0].mean_latency,
        "cost_budget_ratio": reps[0].cost_budget_ratio,
    }
    samples = {name: len(reps) for name in ("wall_s", "setup_s", "slots_per_s")}
    samples["slot_p50_ms"] = samples["slot_p95_ms"] = sum(
        rep.step_seconds.size for rep in reps
    )
    return values, samples


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ["REPRO_KERNEL_CACHE"] = str(OUT_DIR / "kernels")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, canary_of, execute, layer_metrics

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    provider = warm_kernels()
    problems: list[str] = []

    small, canary_seed = canary_of(workload)
    canary_fingerprint = None
    try:
        canary = execute(small, canary_seed)
    except Exception:
        crash = traceback.format_exc()
        print(crash, file=sys.stderr, end="")
        problems.append(f"canary crashed: {crash.strip().splitlines()[-1]}")
    else:
        canary_fingerprint = canary.fingerprint
        problems += [f"canary: {p}" for p in canary.problems]
        if canary_fingerprint != workload.canary_sha256:
            problems.append(
                f"canary fingerprint {canary_fingerprint} != pinned {workload.canary_sha256}"
            )

    plain, traced, probes, crash = measure(
        workload, args.seed, args.seconds, traced=bool(args.trace)
    )
    reference = plain[0].fingerprint if plain else None
    attempted = failed = 0
    for index, rep in enumerate(plain + traced):
        attempted += rep.attempted
        problems += [f"rep {index}: {p}" for p in rep.problems]
        if rep.fingerprint != reference:
            problems.append(f"rep {index}: fingerprint {rep.fingerprint} != {reference}")
            failed += rep.attempted
        else:
            failed += rep.failed
    if crash is not None:
        print(crash, file=sys.stderr, end="")
        problems.append(
            f"rep {len(plain) + len(traced)} crashed: {crash.strip().splitlines()[-1]}"
        )
        attempted += workload.decisions
        failed += workload.decisions
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "machine": machine_tag(),
        "jit_provider": provider,
        "host_probe_ms": probes,
        "reps": len(plain),
        "traced_reps": len(traced),
        "fingerprint": reference,
        "canary": {"seed": canary_seed, "fingerprint": canary_fingerprint},
        "failed_slot_share": failed / attempted if attempted else 1.0,
        "samples": {},
    }
    metrics: dict = {}
    if plain:
        values, report["samples"] = end_to_end(workload, plain)
        raw, _ = end_to_end(workload, plain, adjusted=False)
        report["unadjusted"] = {
            k: raw[k] for k in ("wall_s", "setup_s", "slots_per_s", "slot_p50_ms", "slot_p95_ms")
        }
    if args.trace and traced:
        untraced_wall = statistics.median(rep.wall for rep in plain)
        per_rep = [layer_metrics(rep, untraced_wall) for rep in traced]
        counts = [
            {k: v for k, v in m.items() if not k.endswith(("_s", "_ratio")) and
             not k.startswith("share.")}
            for m in per_rep
        ]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("per-layer counts differ between traced reps")
        metrics = {
            name: {"value": statistics.median(m[name] for m in per_rep), "unit": unit}
            for name, unit in _per_layer_units().items()
        }
        coverage = metrics["trace.coverage_ratio"]["value"]
        if coverage < 0.95:
            problems.append(f"layer self times cover only {coverage:.1%} of traced wall")
        _write_trace(workload, args.seed, traced[-1], metrics)
    elif not args.trace and plain:
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    report["problems"] = problems
    _print_report(report, metrics)
    correct = not problems and failed == 0 and bool(metrics)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def _per_layer_units() -> dict:
    from workloads import PER_LAYER

    return {name: unit for name, unit, _better in PER_LAYER}


def _write_trace(workload, seed: int, rep, metrics: dict) -> None:
    """Write the last traced rep's spans and layer aggregates."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    start = min((span[3] for span in rep.spans), default=0.0)
    payload = {
        "workload": workload.name,
        "seed": seed,
        "spans": [
            {"id": s[0], "parent": s[1], "layer": s[2],
             "start": s[3] - start, "end": s[4] - start}
            for s in rep.spans
        ],
        "parent_layers": rep.layers,
        "worker_layers": rep.workers,
        "metrics": {k: v["value"] for k, v in metrics.items()},
    }
    path.write_text(json.dumps(payload))


def _print_report(report: dict, metrics: dict) -> None:
    print(json.dumps(report, sort_keys=True))
    width = max((len(name) for name in metrics), default=0)
    for name, metric in metrics.items():
        count = report["samples"].get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name:<{width}}  {metric['value']:.6g} {metric['unit']}{suffix}")


def stop_helpers() -> None:
    """Stop every process the run started and wait for each to end.

    Resident workers are joined by the program itself; a worker left
    behind by a crashed rep is killed here.  Creating a shared-memory
    block starts :mod:`multiprocessing`'s resource tracker, a helper
    process that would otherwise outlive this one until it notices the
    closed pipe; it is stopped explicitly and reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_helpers()
    raise SystemExit(code)
