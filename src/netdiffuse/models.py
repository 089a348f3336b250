"""Diffusion engines: strong-tie cascade, independent cascade, SI epidemic.

All three run in synchronous rounds against the start-of-round active
set, so activation order within a round never matters. Iteration t of a
trace records the state after round t; the seed alone is iteration 0 and
is never recorded as a row. Rounds that activate nothing are not
recorded, which keeps cumulative coverage strictly increasing.

The strong-tie cascade depends on the active set only through the final
subtraction, so each node's targets are fixed: row v of
``TieStrengthTable.reach``, whose rule the ``ties`` module states. A
round is then one OR over the reach rows of the last round's
activations.

Stochastic draws are ordered: actors by ascending internal index, then
targets by ascending internal index, one uniform per (actor, target)
attempt. IC and SI lay the CSR rows of a round's actors end to end,
drop the targets already active, and take the round's uniforms in one
vector draw, which yields the same numbers as one scalar draw per
attempt in that order. Streams derive from (rng_seed, run_index), so
repetitions of one experiment are independent but individually
reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, InactiveNodeError
from .graph import Graph, sorted_unique
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


def cns_activate(
    g: Graph, table: TieStrengthTable, v: int, active: frozenset[int] | set[int]
) -> set[int]:
    """Targets one active node reaches in a single round: row v of
    ``TieStrengthTable.reach`` minus the active set."""
    if v not in active:
        raise InactiveNodeError(f"node {g.label(v)!r} is not active")
    return set(np.flatnonzero(table.reach[v]).tolist()) - set(active)


def _cascade(
    g: Graph,
    s: int,
    spread: Callable[[np.ndarray, np.ndarray], np.ndarray],
    max_iterations: int | None,
) -> DiffusionTrace:
    """A cascade from ``s`` in which only the last round's activations
    act: ``spread(frontier, active)`` returns the inactive nodes they
    activate, ascending."""
    active = np.zeros(g.node_count, dtype=bool)
    active[s] = True
    frontier = np.array([s])
    rounds: list[np.ndarray] = []
    while len(frontier):
        if max_iterations is not None and len(rounds) >= max_iterations:
            return DiffusionTrace(g, s, tuple(rounds), not active.all())
        frontier = spread(frontier, active)
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
    """Deterministic strong-tie cascade from one seed label.

    A round activates the reach rows of the nodes the last round
    activated, minus the active set.
    """
    s = g.index(seed)
    if table is None:
        table = build_tie_strength_table(g)
    reach = table.reach

    def spread(frontier: np.ndarray, active: np.ndarray) -> np.ndarray:
        return np.flatnonzero(reach[frontier].any(axis=0) & ~active)

    return _cascade(g, s, spread, max_iterations)


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
    p = params.ic_probability
    rng = _stream(params.rng_seed, run_index)

    def spread(frontier: np.ndarray, active: np.ndarray) -> np.ndarray:
        targets = g.adjacency.rows(frontier)
        targets = targets[~active[targets]]
        # random() lives in [0, 1), so p = 1 always succeeds.
        return sorted_unique(targets[rng.random(len(targets)) < p])

    return _cascade(g, s, spread, max_iterations)


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
    beta = params.si_beta
    cap = max_iterations if max_iterations is not None else SI_CAP_FACTOR * g.node_count
    rng = _stream(params.rng_seed, run_index)
    infected = np.zeros(g.node_count, dtype=bool)
    infected[s] = True
    rounds: list[np.ndarray] = []
    clock = 0
    truncated = False
    while not infected.all():
        if clock >= cap:
            truncated = True
            break
        clock += 1
        targets = g.adjacency.rows(np.flatnonzero(infected))
        targets = targets[~infected[targets]]
        if not len(targets):
            # Remaining susceptibles are unreachable; the cap would never
            # trigger another draw, so stop now with the same outcome.
            truncated = True
            break
        newly = sorted_unique(targets[rng.random(len(targets)) < beta])
        if len(newly):
            rounds.append(newly)
            infected[newly] = True
    return DiffusionTrace(g, s, tuple(rounds), truncated)
