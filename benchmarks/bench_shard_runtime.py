"""Resident-worker runtime bench: resident shards vs in-process sequential.

The resident runtime (``repro.sim.shard_runtime``) pins each cell's
carry in a long-lived worker -- only slot ranges, budget shares, and
compact metric deltas cross the process boundary, with compiled slot
states shipped through double-buffered shared memory while the parent
precompiles epoch ``e + 1`` during epoch ``e``.  The fastest path with
the same fingerprint is the sequential in-process runtime, so that is
the baseline every floor here is measured against.

This bench is the evidence and the gate:

* **sweep** -- a 1024-device metro topology in 8 cells at the paper's
  natural ``epoch=1`` cadence, full observability on (telemetry
  registry + health monitors), sequential vs resident.  The gate
  requires resident throughput >= ``SWEEP_MIN_SPEEDUP`` x sequential
  with both fingerprints bit-identical.
* **giant** -- the 102,400-device completion run (128 cells):
  resident >= ``GIANT_MIN_SPEEDUP`` x sequential, same fingerprint.

Writes ``benchmarks/results/BENCH_shard_runtime.json``.  ``--smoke`` is
the CI job: a small 8-cell preset asserting fingerprint equality across
both execution paths, budget conservation, and resident throughput >=
``SMOKE_MIN_SPEEDUP`` x sequential.  It writes the ``_smoke`` JSON and
never touches the committed numbers.

Run directly (``python benchmarks/bench_shard_runtime.py [--smoke]``)
or via pytest (``pytest benchmarks/bench_shard_runtime.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from _common import RESULTS_DIR, emit  # noqa: E402

JSON_PATH = RESULTS_DIR / "BENCH_shard_runtime.json"
SMOKE_JSON_PATH = RESULTS_DIR / "BENCH_shard_runtime_smoke.json"

#: The two execution paths, baseline first.
MODES = ("sequential", "resident")

#: The sweep preset: metro topology at the paper's epoch=1 cadence,
#: where per-epoch coordination cost is fully exposed.
SWEEP = {
    "seed": 7,
    "devices": 1024,
    "base_stations": 8,
    "clusters": 8,
    "servers_per_cluster": 2,
    "horizon": 16,
    "epoch": 1,
    "cells": 8,
    "processes": 2,
    "observability": True,
}

#: The completion gate: >= 100k devices, both runtimes.
GIANT = {
    "seed": 11,
    "devices": 102_400,
    "base_stations": 128,
    "clusters": 128,
    "servers_per_cluster": 1,
    "horizon": 4,
    "epoch": 1,
    "cells": 128,
    "processes": 2,
    "partition_restarts": 2,
    "observability": False,
}

#: The CI smoke preset: small enough for every runner, with eight cells
#: at epoch=1 so the resident runtime's per-epoch round trips are
#: exercised on every slot.
SMOKE = {
    "seed": 5,
    "devices": 512,
    "base_stations": 8,
    "clusters": 4,
    "servers_per_cluster": 2,
    "horizon": 16,
    "epoch": 1,
    "cells": 8,
    "processes": 2,
    "observability": True,
}

#: Throughput floors, resident over sequential (``t_seq / t_resident``).
#: They replace floors of resident over the removed stateless process
#: pool (2x sweep, 2x giant, 1.25x smoke) and reject every resident time
#: those rejected: a floor ``f`` does so when ``f >= old_floor * t_seq /
#: t_pool``.  On a 2-vCPU x86_64 host the median paired ``t_seq /
#: t_pool`` was 0.666 on smoke (31 runs), 0.519 on sweep (16 runs) and
#: 0.441 on giant (3 runs), giving bounds of 0.833, 1.039 and 0.882.
#: A floor below 1.0 lets resident trail sequential: on two cores its
#: second process buys little over running the cells in-process.
SWEEP_MIN_SPEEDUP = 1.04
GIANT_MIN_SPEEDUP = 0.89
SMOKE_MIN_SPEEDUP = 0.84


def _scenario(config: dict):
    import repro

    return repro.make_paper_scenario(
        config["seed"],
        config=repro.ScenarioConfig(num_devices=config["devices"]),
        num_base_stations=config["base_stations"],
        num_macro_stations=config["base_stations"],
        wireless_fronthaul_fraction=1.0,
        num_clusters=config["clusters"],
        servers_per_cluster=config["servers_per_cluster"],
    )


def _fingerprint(result) -> str:
    digest = hashlib.sha256()
    for arr in (
        result.latency,
        result.cost,
        result.theta,
        result.backlog,
        result.price,
    ):
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _plan(scenario, config: dict):
    from repro import sharding

    return sharding.partition_cells(
        scenario.network,
        config["cells"],
        rng=scenario.seeds.rng("cell-partition"),
        restarts=config.get("partition_restarts", 8),
    )


def _row(config: dict, plan, mode: str) -> dict:
    """One timed run.  ``mode``: sequential / resident."""
    from repro import sharding

    scenario = _scenario(config)
    registry = None
    if config["observability"]:
        from repro.obs.telemetry import MetricsRegistry

        registry = MetricsRegistry()
    kwargs: dict = {}
    if mode == "resident":
        kwargs["processes"] = config["processes"]
    started = time.perf_counter()
    result = sharding.run_sharded(
        scenario,
        horizon=config["horizon"],
        cells=plan,
        epoch=config["epoch"],
        registry=registry,
        monitors=config["observability"],
        **kwargs,
    )
    seconds = time.perf_counter() - started
    row = {
        "mode": mode,
        "seconds": seconds,
        "slots_per_sec": config["horizon"] / seconds,
        "fingerprint": _fingerprint(result.merged),
        "mean_cost": result.merged.time_average_cost(),
        "budget": result.merged.budget,
        "budget_rows_sum": result.budgets.sum(axis=1).tolist(),
    }
    if registry is not None:
        row["telemetry_families"] = len(
            [line for line in registry.render_openmetrics().splitlines()
             if line.startswith("# TYPE")]
        )
    if result.merged.health is not None:
        row["health_statuses"] = len(result.merged.health.statuses)
    return row


def _speedup(seconds: dict) -> float:
    """Resident throughput over sequential throughput."""
    return seconds["sequential"] / seconds["resident"]


def _preset_report(config: dict) -> dict:
    scenario = _scenario(config)
    plan = _plan(scenario, config)
    rows = [_row(config, plan, mode) for mode in MODES]
    by_mode = {row["mode"]: row for row in rows}
    return {
        "devices": config["devices"],
        "cells": plan.num_cells,
        "horizon": config["horizon"],
        "epoch": config["epoch"],
        "processes": config["processes"],
        "observability": config["observability"],
        "rows": rows,
        "fingerprints_identical": len({r["fingerprint"] for r in rows}) == 1,
        "resident_speedup_vs_sequential": _speedup(
            {mode: row["seconds"] for mode, row in by_mode.items()}
        ),
    }


def run_shard_runtime() -> dict:
    """The full bench: observability-on sweep plus the 102k completion."""
    sweep = _preset_report(SWEEP)
    giant = _preset_report(GIANT)
    return {
        "bench": "shard_runtime",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "sweep": sweep,
        "giant": giant,
    }


def run_smoke() -> dict:
    """CI smoke: fingerprint equality + a resident/sequential floor.

    Each mode is timed twice and judged on its faster run -- best-of-two
    damps the scheduler noise of shared CI cores without loosening the
    floor itself.
    """
    scenario = _scenario(SMOKE)
    plan = _plan(scenario, SMOKE)
    report = _preset_report(SMOKE)
    retry = {mode: _row(SMOKE, plan, mode) for mode in MODES}
    best = {}
    for row in report["rows"]:
        best[row["mode"]] = min(row["seconds"], retry[row["mode"]]["seconds"])
        row["seconds_best_of_2"] = best[row["mode"]]
    speedup = report["resident_speedup_vs_sequential"] = _speedup(best)
    checks = {
        "fingerprints_identical": report["fingerprints_identical"],
        "budget_conserved": all(
            np.allclose(r["budget_rows_sum"], r["budget"], rtol=0, atol=1e-9)
            for r in report["rows"]
        ),
        "resident_at_floor_vs_sequential": speedup >= SMOKE_MIN_SPEEDUP,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise AssertionError(
            f"shard runtime smoke failed: {failed}; "
            f"speedup={speedup:.2f}x; rows={report['rows']}"
        )
    return {"bench": "shard_runtime_smoke", "checks": checks, **report}


def _table(report: dict) -> str:
    from repro.analysis.tables import format_table

    lines = []
    for title, preset in (("sweep", report["sweep"]), ("giant", report["giant"])):
        rows = [
            [r["mode"], r["seconds"], r["slots_per_sec"], r["fingerprint"][:12]]
            for r in preset["rows"]
        ]
        lines.append(
            format_table(
                ["mode", "seconds", "slots/s", "fingerprint"],
                rows,
                title=(
                    f"{title}: I={preset['devices']}, "
                    f"cells={preset['cells']}, epoch={preset['epoch']}, "
                    f"h={preset['horizon']} -- resident "
                    f"{preset['resident_speedup_vs_sequential']:.2f}x "
                    "sequential"
                ),
            )
        )
    return "\n\n".join(lines)


def _verify(report: dict) -> None:
    for name, preset, floor in (
        ("sweep", report["sweep"], SWEEP_MIN_SPEEDUP),
        ("giant", report["giant"], GIANT_MIN_SPEEDUP),
    ):
        assert preset["fingerprints_identical"], (
            f"{name}: execution paths diverged: "
            f"{[(r['mode'], r['fingerprint']) for r in preset['rows']]}"
        )
        speedup = preset["resident_speedup_vs_sequential"]
        assert speedup >= floor, (
            f"{name}: resident runtime fell below the {floor}x gate "
            f"({speedup:.2f}x over sequential)"
        )
        for row in preset["rows"]:
            sums = np.asarray(row["budget_rows_sum"])
            assert np.allclose(sums, row["budget"], rtol=0, atol=1e-9), (
                f"{name}/{row['mode']}: budget not conserved"
            )


def _emit(report: dict, *, smoke: bool) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = SMOKE_JSON_PATH if smoke else JSON_PATH
    path.write_text(json.dumps(report, indent=2) + "\n")
    if smoke:
        print(json.dumps(report["checks"], indent=2))
    else:
        emit("shard_runtime", _table(report))


def bench_shard_runtime(benchmark) -> None:
    report = benchmark.pedantic(run_shard_runtime, rounds=1, iterations=1)
    _emit(report, smoke=False)
    _verify(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke: small 8-cell preset, fingerprint equality across "
        "sequential/resident plus a resident-over-sequential throughput "
        "floor (does not touch the committed JSON)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        _emit(run_smoke(), smoke=True)
        return 0
    report = run_shard_runtime()
    _emit(report, smoke=False)
    _verify(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
