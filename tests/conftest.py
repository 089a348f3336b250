"""Shared fixtures and graph generators for the test suite."""
from __future__ import annotations

import functools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import netdiffuse
from netdiffuse.graph import Graph, graph_from_edges, load_edge_list_path

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def er_edges(n: int, p: float, rng: random.Random) -> list[tuple[str, str]]:
    """Erdos-Renyi edge list over labels '0'..'n-1'; never empty."""
    edges = [
        (str(i), str(j))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    if not edges:
        edges = [("0", "1")]
    return edges


def er_graph(n: int, p: float, rng: random.Random) -> Graph:
    return graph_from_edges(er_edges(n, p, rng))


@st.composite
def random_graphs(draw, max_nodes: int = 20, min_nodes: int = 2):
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    p = draw(st.sampled_from([0.1, 0.3, 0.6]))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return er_graph(n, p, random.Random(seed))


def complete_graph(n: int) -> Graph:
    return graph_from_edges(
        [(str(i), str(j)) for i in range(n) for j in range(i + 1, n)]
    )


def path_graph(n: int) -> Graph:
    return graph_from_edges([(str(i), str(i + 1)) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    edges = [(str(i), str((i + 1) % n)) for i in range(n)]
    return graph_from_edges(edges)


def star_graph(leaves: int) -> Graph:
    return graph_from_edges([("c", f"l{i}") for i in range(leaves)])


@functools.lru_cache(maxsize=64)
def neighbor_sets(g: Graph) -> tuple[frozenset[int], ...]:
    """The neighbor set of every node of ``g``, from its CSR rows, built
    once per graph. Each call hashes ``g`` and compares it with the cached
    key, so an oracle reads it once per call, not once per lookup."""
    flat, bounds = g.adjacency.indices.tolist(), g.adjacency.indptr.tolist()
    return tuple(frozenset(flat[a:b]) for a, b in zip(bounds, bounds[1:]))


def bfs_oracle(g: Graph, source: int) -> dict[int, int]:
    """Distance map via adjacency-matrix powers, no queue involved;
    unreachable nodes are absent."""
    n = g.node_count
    adj = np.zeros((n, n), dtype=np.int64)
    for v, u in g.edges():
        adj[v, u] = adj[u, v] = 1
    dist = {source: 0}
    reach = np.zeros(n, dtype=bool)
    reach[source] = True
    frontier = reach.copy()
    for step in range(1, n):
        frontier = (frontier.astype(np.int64) @ adj > 0) & ~reach
        if not frontier.any():
            break
        for v in np.flatnonzero(frontier):
            dist[int(v)] = step
        reach |= frontier
    return dist


def cumulative_sets(trace) -> list[set[int]]:
    """Active node indices of a trace: entry t is the set after round t,
    entry 0 the seed alone."""
    sets = [{trace.seed}]
    for nodes in trace.iterations:
        sets.append(sets[-1] | set(nodes.tolist()))
    return sets


def trace_key(trace) -> tuple:
    """Everything a run produced, comparable with ==: seed, rounds and
    truncated flag."""
    return trace.seed, [nodes.tolist() for nodes in trace.iterations], trace.truncated


def strong_pairs(table) -> set[tuple[int, int]]:
    """The strong ties of a tie table as ordered (v, u) index pairs."""
    sources, targets = table.graph.adjacency.sources(), table.graph.adjacency.indices
    return set(zip(sources[table.strong].tolist(), targets[table.strong].tolist()))


def traced_peak_mib(fn):
    """``fn()`` and the peak memory it allocated, in MiB, by tracemalloc,
    which sees numpy's array buffers as well as Python objects."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, (peak - base) / 2**20


def numpy_stream(rng_seed, run_index):
    """NumPy's generator for run ``run_index``: the oracle of the
    package's in-package stream ``models._stream``."""
    seq = np.random.SeedSequence([rng_seed & (2**64 - 1), run_index])
    return np.random.Generator(np.random.PCG64(seq))


def run_python(code, *args):
    """stdout of ``python -c code args`` in a fresh interpreter on this package."""
    src = str(Path(netdiffuse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


@pytest.fixture(scope="session")
def karate() -> Graph:
    return load_edge_list_path(DATA_DIR / "karate.txt")


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR
