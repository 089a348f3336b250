"""Diffusion engines: strong-tie cascade, independent cascade, SI epidemic.

All three run in synchronous rounds against the start-of-round active
set, so activation order within a round never matters. Iteration t of a
trace records the state after round t; the seed alone is iteration 0 and
is never recorded as a row. Rounds that activate nothing are not
recorded, which keeps cumulative coverage strictly increasing.

The strong-tie cascade depends on the active set only through the final
subtraction, so each node's targets are fixed: its row of the reach
digraph ``TieStrengthTable.reach``, whose rule the ``ties`` module
states. It is the independent cascade at p = 1 on that digraph.

Every round of every model is one attempt step: lay the CSR rows of the
actors end to end, drop the targets already active and, for IC and SI,
take one uniform per (actor, target) attempt in one vector draw. Actors
and targets ascend by internal index, so the draw yields the same
numbers as one scalar draw per attempt in that order. Streams derive
from (rng_seed, run_index), so repetitions of one experiment are
independent but individually reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GraphError, InactiveNodeError, UnknownNodeError
from .graph import Adjacency, Graph, sorted_unique
from .ties import TieStrengthTable, build_tie_strength_table

__all__ = [
    "ModelParams",
    "DiffusionTrace",
    "cns_activate",
    "run_cns",
    "run_ic",
    "run_si",
]

SI_CAP_FACTOR = 10


@dataclass(frozen=True)
class ModelParams:
    """Knobs shared by the stochastic models."""

    ic_probability: float = 1.0
    si_beta: float = 0.5
    rng_seed: int = 42

    def __post_init__(self) -> None:
        # Written so that nan fails too.
        if not 0.0 <= self.ic_probability <= 1.0:
            raise ConfigError(f"ic probability not in [0, 1]: {self.ic_probability}")
        if not 0.0 <= self.si_beta <= 1.0:
            raise ConfigError(f"si beta not in [0, 1]: {self.si_beta}")


@dataclass(frozen=True, eq=False)
class DiffusionTrace:
    """One run of one model from one seed, as per-round node-index arrays.

    graph is the graph the run saw and seed the seed's index in it.
    iterations[t] holds the nodes round t + 1 activated, as an ascending
    int64 index array. truncated marks runs stopped by an iteration cap
    with spreadable or unreachable nodes left over. There is no
    field-wise equality: arrays have no single truth value.
    """

    graph: Graph
    seed: int
    iterations: tuple[np.ndarray, ...]
    truncated: bool = False


def _reach(g: Graph, table: TieStrengthTable) -> Adjacency:
    if table.graph != g:
        raise GraphError("tie table belongs to another graph")
    return table.reach


def cns_activate(
    g: Graph, table: TieStrengthTable, v: int, active: frozenset[int] | set[int]
) -> set[int]:
    """Targets one active node reaches in a single round: the row of v
    in ``TieStrengthTable.reach`` minus the active set. Raises
    UnknownNodeError for an index outside the graph, InactiveNodeError
    for an inactive v."""
    if not 0 <= v < g.node_count:
        raise UnknownNodeError(f"no node with index {v}")
    if v not in active:
        raise InactiveNodeError(f"node {g.label(v)!r} is not active")
    return set(_reach(g, table).rows(np.array([v])).tolist()) - set(active)


def _attempt(
    adjacency: Adjacency, actors: np.ndarray, active: np.ndarray,
    rng: np.random.Generator | None, p: float,
) -> np.ndarray:
    """The inactive nodes ``actors`` activate along their rows, ascending;
    with a stream each attempt succeeds with probability p, else always."""
    targets = adjacency.rows(actors)
    targets = targets[~active[targets]]
    if rng is not None:
        # random() lives in [0, 1), so p = 1 always succeeds.
        targets = targets[rng.random(len(targets)) < p]
    return sorted_unique(targets)


def _cascade(
    g: Graph, s: int, adjacency: Adjacency, max_iterations: int | None,
    rng: np.random.Generator | None = None, p: float = 1.0,
) -> DiffusionTrace:
    """A cascade from ``s`` along the arcs of ``adjacency`` in which only
    the last round's activations act, each attempting its row once."""
    active = np.zeros(g.node_count, dtype=bool)
    active[s] = True
    frontier = np.array([s])
    rounds: list[np.ndarray] = []
    while len(frontier):
        if max_iterations is not None and len(rounds) >= max_iterations:
            return DiffusionTrace(g, s, tuple(rounds), not active.all())
        frontier = _attempt(adjacency, frontier, active, rng, p)
        if len(frontier):
            rounds.append(frontier)
            active[frontier] = True
    return DiffusionTrace(g, s, tuple(rounds))


def run_cns(
    g: Graph,
    seed: str,
    table: TieStrengthTable | None = None,
    max_iterations: int | None = None,
) -> DiffusionTrace:
    """Deterministic strong-tie cascade from one seed label: the
    independent cascade at p = 1 on the reach digraph, so a round
    activates the reach rows of the last round's activations, minus the
    active set. Raises GraphError for a table built for another graph."""
    s = g.index(seed)
    if table is None:
        table = build_tie_strength_table(g)
    return _cascade(g, s, _reach(g, table), max_iterations)


def _stream(rng_seed: int, run_index: int) -> np.random.Generator:
    # Mask into uint64 so negative seeds stay legal and deterministic.
    seq = np.random.SeedSequence([rng_seed & (2**64 - 1), run_index])
    return np.random.Generator(np.random.PCG64(seq))


def run_ic(
    g: Graph,
    seed: str,
    params: ModelParams | None = None,
    run_index: int = 0,
    max_iterations: int | None = None,
) -> DiffusionTrace:
    """Independent cascade: each node attempts each neighbor once, the
    round after its own activation. With probability 1 the cumulative
    sets are exactly the seed's breadth-first balls."""
    if params is None:
        params = ModelParams()
    s = g.index(seed)
    rng = _stream(params.rng_seed, run_index)
    return _cascade(g, s, g.adjacency, max_iterations, rng, params.ic_probability)


def run_si(
    g: Graph,
    seed: str,
    params: ModelParams | None = None,
    run_index: int = 0,
    max_iterations: int | None = None,
) -> DiffusionTrace:
    """SI epidemic: every infected node attempts every susceptible
    neighbor every round, and infection is permanent.

    The clock cap (default 10x node count) counts rounds whether or not
    they infect anyone; only infecting rounds become trace iterations.
    Stopping with susceptible nodes left, for any reason, sets the
    truncated flag.
    """
    if params is None:
        params = ModelParams()
    s = g.index(seed)
    cap = max_iterations if max_iterations is not None else SI_CAP_FACTOR * g.node_count
    rng = _stream(params.rng_seed, run_index)
    infected = np.zeros(g.node_count, dtype=bool)
    infected[s] = True
    rounds: list[np.ndarray] = []
    for _ in range(cap):
        if infected.all():
            break
        actors = np.flatnonzero(infected)
        newly = _attempt(g.adjacency, actors, infected, rng, params.si_beta)
        if len(newly):
            rounds.append(newly)
            infected[newly] = True
        elif infected[g.adjacency.rows(actors)].all():
            # Remaining susceptibles are unreachable; no later round would
            # draw, so stop now with the outcome the cap would give.
            break
    return DiffusionTrace(g, s, tuple(rounds), not infected.all())
