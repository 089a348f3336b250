"""Per-iteration evaluation of diffusion traces.

Each iteration's cumulative active set induces a subgraph, the diffusion
horizon, and every reported quantity is a property of that horizon:
coverage against the full graph, then diameter, average distance,
density and average degree within it. Each horizon is induced from the
parent graph's CSR adjacency, which the graph builds once, and its
distances come from one bit-packed breadth-first search from all of its
nodes at once. Distance metrics skip disconnected pairs; a single-node
horizon reports zeros across the board so pre-diffusion rows stay
representable.

An ``IterationMetrics`` row is the one record every output reads: its
``values()`` are the metric columns of ``METRICS_COLUMNS`` in order, and
``format_cell`` is the one rule for writing a metric cell (integers
bare, floats to six decimals).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownNodeError
from .graph import Adjacency, Graph, distance_summary
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
    coverage = n / adjacency.node_count
    if n == 1:
        return IterationMetrics(iteration, new_active, coverage, 1, 0, 0, 0.0, 0.0, 0.0)
    horizon = adjacency.induced(members)
    edges = len(horizon.indices) // 2
    diameter, total, pairs = distance_summary(horizon)
    return IterationMetrics(
        iteration=iteration,
        new_active=new_active,
        coverage=coverage,
        horizon_nodes=n,
        horizon_edges=edges,
        diameter=diameter,
        avg_distance=total / pairs if pairs else 0.0,
        density=2.0 * edges / (n * (n - 1)),
        avg_degree=2.0 * edges / n,
    )


def evaluate_trace(
    g: Graph, trace: DiffusionTrace, include_initial: bool = False
) -> list[IterationMetrics]:
    """One metrics row per trace iteration, computed on the horizon.

    include_initial prepends an iteration-0 row for the seed-only state,
    with no new activations. A trace recorded on a graph other than g
    (neither the same object nor an equal graph) raises
    UnknownNodeError.
    """
    if trace.graph is not g and trace.graph != g:
        raise UnknownNodeError("trace was recorded on a different graph")
    adjacency = g.adjacency
    active = np.zeros(g.node_count, dtype=bool)
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
