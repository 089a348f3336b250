"""Immutable undirected simple graph with loading and distance primitives.

Nodes carry dense 0-based internal indices assigned in first-appearance
order; the original dataset labels are kept as opaque strings. All
functions here are pure and the graph is safe to share between threads.
"""
from __future__ import annotations

import io
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np
from scipy.sparse import csr_matrix

from .errors import (
    EdgeListParseError,
    EmptyInputError,
    UnknownNodeError,
)

__all__ = [
    "Graph",
    "decode_utf8",
    "load_edge_list",
    "load_edge_list_path",
    "serialize_edge_list",
    "largest_connected_component",
    "induced_subgraph",
    "bfs_distances",
    "adjacency_csr",
    "distance_summary",
    "all_pairs_distances",
    "diameter",
    "average_distance",
    "density",
    "average_degree",
]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: sorted adjacency lists plus a label map.

    ``labels[i]`` is the original label of internal node ``i`` and the map
    is a bijection. Adjacency is symmetric, has no self loops and no
    duplicate edges.
    """

    labels: tuple[str, ...]
    neighbors: tuple[tuple[int, ...], ...]
    _index_of: dict[str, int] = field(init=False, repr=False, compare=False)
    _neighbor_sets: tuple[frozenset[int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_index_of", {label: i for i, label in enumerate(self.labels)}
        )
        object.__setattr__(
            self, "_neighbor_sets", tuple(frozenset(ns) for ns in self.neighbors)
        )

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(len(ns) for ns in self.neighbors) // 2

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def neighbors_of(self, v: int) -> tuple[int, ...]:
        return self.neighbors[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        return self._neighbor_sets[v]

    def has_node(self, v: int) -> bool:
        return 0 <= v < len(self.labels)

    def has_edge(self, v: int, u: int) -> bool:
        return u in self._neighbor_sets[v]

    def label(self, v: int) -> str:
        return self.labels[v]

    def index(self, label: str) -> int:
        try:
            return self._index_of[label]
        except KeyError:
            raise UnknownNodeError(f"unknown node label {label!r}") from None

    def has_label(self, label: str) -> bool:
        return label in self._index_of

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as an index pair (v, u) with v < u."""
        for v, ns in enumerate(self.neighbors):
            for u in ns:
                if v < u:
                    yield v, u


def _build(labels: list[str], edge_indices: set[tuple[int, int]]) -> Graph:
    adjacency: list[list[int]] = [[] for _ in labels]
    for v, u in edge_indices:
        adjacency[v].append(u)
        adjacency[u].append(v)
    return Graph(
        labels=tuple(labels),
        neighbors=tuple(tuple(sorted(ns)) for ns in adjacency),
    )


def graph_from_edges(pairs: Iterable[tuple[str, str]]) -> Graph:
    """Build a graph from label pairs, dropping self loops and duplicates.

    Node indices follow first appearance of each label in the pair stream.
    """
    labels: list[str] = []
    index_of: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()
    for a, b in pairs:
        for token in (a, b):
            if token not in index_of:
                index_of[token] = len(labels)
                labels.append(token)
        if a == b:
            continue
        v, u = index_of[a], index_of[b]
        edges.add((min(v, u), max(v, u)))
    return _build(labels, edges)


def decode_utf8(raw: bytes) -> str:
    """UTF-8 text of ``raw``; EdgeListParseError names the first bad line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_number = raw.count(b"\n", 0, exc.start) + 1
        raise EdgeListParseError("not valid UTF-8", line_number) from None


def load_edge_list(source: IO[bytes] | IO[str]) -> Graph:
    """Parse a whitespace-separated edge-list stream into a Graph.

    One edge per line, exactly two tokens; lines whose first
    non-whitespace character is ``#`` are comments and blank lines are
    skipped. Self loops are dropped and duplicate edges (in either
    orientation) collapse to one. Raises EdgeListParseError with the
    offending line number, or EmptyInputError if no edges survive.
    """
    raw = source.read()
    text = decode_utf8(raw) if isinstance(raw, bytes) else raw
    pairs: list[tuple[str, str]] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"expected two tokens, got {len(tokens)}: {stripped!r}", line_number
            )
        pairs.append((tokens[0], tokens[1]))
    g = graph_from_edges(pairs)
    if g.edge_count == 0:
        raise EmptyInputError("edge list contains no usable edges")
    return g


def load_edge_list_path(path: str | Path) -> Graph:
    with open(path, "rb") as handle:
        return load_edge_list(handle)


def serialize_edge_list(g: Graph) -> str:
    """Canonical edge-list text: sorted ``u v`` lines with u < v by label."""
    lines = []
    for v, u in g.edges():
        a, b = sorted((g.label(v), g.label(u)))
        lines.append(f"{a} {b}")
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


def bfs_distances(g: Graph, source: int) -> dict[int, int]:
    """Hop counts from source; unreachable nodes are absent from the map."""
    if not g.has_node(source):
        raise UnknownNodeError(f"no node with index {source}")
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in g.neighbors_of(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted index lists, ordered by smallest member."""
    seen: set[int] = set()
    components = []
    for start in range(g.node_count):
        if start in seen:
            continue
        members = sorted(bfs_distances(g, start))
        seen.update(members)
        components.append(members)
    return components


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component.

    Ties between equal-size components go to the one containing the
    smallest internal index (the first one found scanning indices).
    """
    best: list[int] | None = None
    for component in connected_components(g):
        if best is None or len(component) > len(best):
            best = component
    if best is None:
        return g
    return induced_subgraph(g, best)


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> Graph:
    """Subgraph on ``nodes`` with exactly the edges internal to the set.

    Labels are preserved; new indices follow the old index order.
    """
    keep = sorted(set(nodes))
    for v in keep:
        if not g.has_node(v):
            raise UnknownNodeError(f"no node with index {v}")
    remap = {old: new for new, old in enumerate(keep)}
    labels = [g.label(v) for v in keep]
    edges = {
        (remap[v], remap[u])
        for v, u in g.edges()
        if v in remap and u in remap
    }
    return _build(labels, edges)


def adjacency_csr(g: Graph) -> csr_matrix:
    """Boolean adjacency matrix; row v holds the neighbors of v."""
    n = g.node_count
    indptr = np.zeros(n + 1, dtype=np.int64)
    for v in range(n):
        indptr[v + 1] = indptr[v] + g.degree(v)
    indices = np.fromiter(
        (u for v in range(n) for u in g.neighbors_of(v)),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    data = np.ones(len(indices), dtype=bool)
    return csr_matrix((data, indices, indptr), shape=(n, n))


def _bfs_levels(adjacency: csr_matrix) -> Iterator[tuple[int, np.ndarray]]:
    """Level-synchronous breadth-first search from every node at once.

    Yields ``(level, frontier)`` for levels 1, 2, ... while any pair is
    newly reached: ``frontier[v, s]`` is True iff v is exactly ``level``
    hops from s. ``adjacency`` is boolean: the product of boolean
    matrices ORs over neighbors, so no neighbor count can overflow.
    """
    visited = np.eye(adjacency.shape[0], dtype=bool)
    frontier = visited
    level = 0
    while True:
        frontier = adjacency @ frontier
        frontier &= ~visited
        if not frontier.any():
            return
        level += 1
        visited |= frontier
        yield level, frontier


def distance_summary(adjacency: csr_matrix) -> tuple[int, int, int]:
    """(diameter, distance sum, pair count) over unordered connected pairs.

    ``adjacency`` is a symmetric boolean adjacency matrix, as built by
    ``adjacency_csr`` or sliced from one. Unreachable pairs are
    left out of all three; the distance matrix is never built. The sum
    and the count are exact integers, so ``sum / count`` is the correctly
    rounded mean distance.
    """
    diameter = total = pairs = 0
    for level, frontier in _bfs_levels(adjacency):
        count = int(np.count_nonzero(frontier))
        diameter = level
        total += level * count
        pairs += count
    # Distances are symmetric: each unordered pair was reached twice.
    return diameter, total // 2, pairs // 2


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Dense hop-count matrix with ``inf`` for unreachable pairs."""
    out = np.full((g.node_count, g.node_count), np.inf)
    np.fill_diagonal(out, 0.0)
    for level, frontier in _bfs_levels(adjacency_csr(g)):
        out[frontier] = level
    return out


def diameter(g: Graph) -> int:
    """Longest shortest path over connected pairs; 0 for a single node.

    Disconnected inputs take the maximum within components (unreachable
    pairs are excluded).
    """
    if g.node_count == 0:
        raise UnknownNodeError("diameter of an empty graph is undefined")
    return distance_summary(adjacency_csr(g))[0]


def average_distance(g: Graph) -> float:
    """Mean shortest-path distance over unordered connected pairs.

    Disconnected pairs are excluded from both numerator and denominator;
    returns 0.0 if no connected pair exists.
    """
    if g.node_count < 2:
        raise UnknownNodeError("average distance needs at least 2 nodes")
    _, total, pairs = distance_summary(adjacency_csr(g))
    return total / pairs if pairs else 0.0


def density(g: Graph) -> float:
    """2m / (n(n-1))."""
    n = g.node_count
    if n < 2:
        raise UnknownNodeError("density needs at least 2 nodes")
    return 2.0 * g.edge_count / (n * (n - 1))


def average_degree(g: Graph) -> float:
    """2m / n."""
    n = g.node_count
    if n == 0:
        raise UnknownNodeError("average degree of an empty graph is undefined")
    return 2.0 * g.edge_count / n


def graph_from_text(text: str) -> Graph:
    """Convenience loader for inline edge-list strings (tests, scripts)."""
    return load_edge_list(io.StringIO(text))
