"""Process-to-tile mapping, pipeline metrics and rebalancing.

This package implements Sec. 3.5 of the paper: binding an annotated
process network to a linear pipeline of tile *stages* (each stage may be
instantiated on several tiles to pipeline a heavy process), the cost model
that turns a stage's process list into a per-block tile time, and the three
rebalancing algorithms:

* :func:`~repro.mapping.rebalance.rebalance_one` — Algorithm 1, greedy
  splitting/duplication of the heaviest tile;
* :func:`~repro.mapping.rebalance.rebalance_two` — Algorithm 2,
  average-time redistribution over the set surrounding the heaviest tile;
* :func:`~repro.mapping.rebalance.rebalance_opt` — exhaustive optimal
  redistribution over the surrounding set.
"""

from repro.mapping.cost import PinningPolicy, TileCostModel
from repro.mapping.placement import PipelineMapping, Stage
from repro.mapping.pipeline import PipelineMetrics, evaluate_mapping
from repro.mapping.rebalance import (
    RebalanceTrace,
    rebalance,
    rebalance_one,
    rebalance_opt,
    rebalance_two,
    surrounding_set,
)
from repro.mapping.copy_insertion import copy_overhead_ns, insert_copies
from repro.mapping.linkplan import LinkPlan, plan_links, snake_placement
from repro.mapping.optimal import OptimalResult, optimal_mapping
from repro.mapping.epochs import (
    FoldPoint,
    folded_epochs,
    folding_tradeoff,
    spatial_epochs,
)
from repro.mapping.spare import (
    free_coords,
    plan_remap,
    remap_epochs,
)

__all__ = [
    "FoldPoint",
    "LinkPlan",
    "OptimalResult",
    "PinningPolicy",
    "folded_epochs",
    "folding_tradeoff",
    "optimal_mapping",
    "spatial_epochs",
    "PipelineMapping",
    "PipelineMetrics",
    "RebalanceTrace",
    "Stage",
    "TileCostModel",
    "copy_overhead_ns",
    "evaluate_mapping",
    "free_coords",
    "insert_copies",
    "plan_links",
    "plan_remap",
    "remap_epochs",
    "rebalance",
    "rebalance_one",
    "rebalance_opt",
    "rebalance_two",
    "snake_placement",
    "surrounding_set",
]
