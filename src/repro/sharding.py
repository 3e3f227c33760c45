"""Multi-cell scale-out, in one namespace.

The sharding layer spans three subpackages -- cell partitioning lives
with the topology code (:mod:`repro.network.partition`), budget
coordination with the budget algebra (:mod:`repro.core.budget`), and
the sharded engine with the simulation loop (:mod:`repro.sim.sharded`).
This module re-exports the public surface so scale-out reads as one
story::

    from repro import sharding

    scenario = repro.make_paper_scenario(seed=7)
    plan = sharding.partition_cells(scenario.network, 4)
    result = sharding.run_sharded(scenario, horizon=48, cells=plan)
    print(result.merged.summary(), result.budgets.sum(axis=1))
"""

from __future__ import annotations

from repro.core.budget import BudgetCoordinator, CoordinatedBudget
from repro.network.partition import (
    Cell,
    CellIndexMaps,
    CellPlan,
    extract_subnetwork,
    partition_cells,
)
from repro.sim.checkpoint import ShardCheckpoint
from repro.sim.shard_runtime import (
    CellRuntime,
    ResidentWorker,
    SharedStatePlanner,
    WorkerFailure,
)
from repro.sim.sharded import (
    ShardedController,
    ShardedResult,
    merge_cell_metrics,
    run_sharded,
    shard_scenarios,
)

__all__ = [
    "BudgetCoordinator",
    "Cell",
    "CellIndexMaps",
    "CellPlan",
    "CellRuntime",
    "CoordinatedBudget",
    "ResidentWorker",
    "ShardCheckpoint",
    "SharedStatePlanner",
    "ShardedController",
    "ShardedResult",
    "WorkerFailure",
    "extract_subnetwork",
    "merge_cell_metrics",
    "partition_cells",
    "run_sharded",
    "shard_scenarios",
]
