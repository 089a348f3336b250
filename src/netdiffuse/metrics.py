"""Per-iteration evaluation of diffusion traces.

Each iteration's cumulative active set induces a subgraph of the graph
the trace carries, the diffusion horizon, and every reported quantity
is a property of that horizon: coverage against the full graph, then
diameter, average distance, density and average degree within it. Each
horizon is induced from the parent graph's CSR adjacency, which the
graph builds once, and its distances come from one bit-packed
breadth-first search from all of its nodes at once. Distance metrics
skip disconnected pairs, and density is 0 below two nodes, so a
single-node horizon (the seed-only row) reports zeros across the board
through the same path as every other row.

An ``IterationMetrics`` row is the one record every output reads: its
``values()`` are the metric columns of ``METRICS_COLUMNS`` in order, and
``format_cell`` is the one rule for writing a metric cell (integers
bare, floats to six decimals).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Adjacency, distance_summary
from .models import DiffusionTrace

__all__ = [
    "IterationMetrics",
    "METRICS_COLUMNS",
    "evaluate_trace",
    "format_cell",
]

METRICS_COLUMNS = (
    "dataset",
    "model",
    "run",
    "seed_node",
    "iteration",
    "new_active",
    "cum_active",
    "coverage",
    "diameter",
    "avg_distance",
    "density",
    "avg_degree",
)


@dataclass(frozen=True)
class IterationMetrics:
    iteration: int
    new_active: int
    coverage: float
    horizon_nodes: int
    horizon_edges: int
    diameter: int
    avg_distance: float
    density: float
    avg_degree: float

    def values(self) -> tuple[int | float, ...]:
        """The metric columns, in ``METRICS_COLUMNS[5:]`` order."""
        return (self.new_active, self.horizon_nodes, self.coverage, self.diameter,
                self.avg_distance, self.density, self.avg_degree)


def _horizon_metrics(
    adjacency: Adjacency, iteration: int, new_active: int, members: np.ndarray
) -> IterationMetrics:
    n = len(members)
    horizon = adjacency.induced(members)
    edges = len(horizon.indices) // 2
    diameter, total, pairs = distance_summary(horizon)
    return IterationMetrics(
        iteration=iteration,
        new_active=new_active,
        coverage=n / adjacency.node_count,
        horizon_nodes=n,
        horizon_edges=edges,
        diameter=diameter,
        avg_distance=total / pairs if pairs else 0.0,
        density=2.0 * edges / (n * (n - 1)) if n > 1 else 0.0,
        avg_degree=2.0 * edges / n,
    )


def evaluate_trace(
    trace: DiffusionTrace, include_initial: bool = False
) -> list[IterationMetrics]:
    """One metrics row per trace iteration, computed on the horizon in
    ``trace.graph``.

    include_initial prepends an iteration-0 row for the seed-only state,
    with no new activations.
    """
    adjacency = trace.graph.adjacency
    active = np.zeros(adjacency.node_count, dtype=bool)
    active[trace.seed] = True
    rows: list[IterationMetrics] = []
    if include_initial:
        rows.append(_horizon_metrics(adjacency, 0, 0, np.flatnonzero(active)))
    for t, nodes in enumerate(trace.iterations, start=1):
        active[nodes] = True
        rows.append(_horizon_metrics(adjacency, t, len(nodes), np.flatnonzero(active)))
    return rows


def format_cell(value: int | float) -> str:
    """One metric cell: integers bare, floats to six decimals."""
    return str(value) if isinstance(value, int) else f"{value:.6f}"
