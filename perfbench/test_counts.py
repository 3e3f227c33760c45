"""The traced run's per-layer counts repeat exactly for a fixed seed.

Later changes cite these counts (moves, candidate evaluations, solves,
builds, epochs, ...) as evidence, which is only sound if two runs of
the same code on the same inputs count the same.  Run from the root of
a checkout::

    python3 -m pytest perfbench/test_counts.py -q
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import PER_LAYER, WORKLOADS, execute, layer_metrics  # noqa: E402

COUNTS = (
    "p2a.moves",
    "p2a.gap_recomputations",
    "p2a.candidate_evals",
    "p2a.evals_per_move",
    "bdma.rounds",
    "bdma.warm_start_hits",
    "p2b.scalar_solves",
    "strategy_space.builds",
    "strategy_space.cache_hits",
    "shard.validate_calls",
    "coordinator.epochs",
    "runtime.respawns",
)


@pytest.fixture(scope="module", autouse=True)
def kernel_cache():
    previous = os.environ.get("REPRO_KERNEL_CACHE")
    os.environ["REPRO_KERNEL_CACHE"] = str(ROOT / ".perfbench" / "kernels")
    yield
    if previous is None:
        os.environ.pop("REPRO_KERNEL_CACHE", None)
    else:
        os.environ["REPRO_KERNEL_CACHE"] = previous


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_counts_repeat(name):
    workload = WORKLOADS[name]
    first, second = (execute(workload, 7, traced=True) for _ in range(2))
    assert not first.problems and not second.problems
    assert first.fingerprint == second.fingerprint
    a = layer_metrics(first, first.wall)
    b = layer_metrics(second, second.wall)
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    assert a["p2a.moves"] > 0 and a["bdma.rounds"] > 0
    assert a["runtime.respawns"] == 0
    cells = workload.cells or 0
    assert a["shard.validate_calls"] == cells
    assert a["coordinator.epochs"] == (workload.horizon // workload.epoch if cells else 0)
    assert a["strategy_space.builds"] == max(cells, 1)


def test_benchmark_json_lists_every_metric():
    from run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit, _ in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
