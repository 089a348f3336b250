"""Immutable undirected simple graph with loading and distance primitives.

A graph is its labels plus one CSR adjacency. Nodes carry dense 0-based
internal indices assigned in first-appearance order; the original
dataset labels are kept as opaque strings. Input files are read a line
at a time, and a line ends at ``\\n`` (``numbered_lines``). The label
map, all a graph caches, is built on first use, never on load. All
functions here are pure and the graph is safe to share between threads.
Packed bit rows, the one other form of an adjacency, are built and read
here only (``packed_rows``, ``unpack_rows``), for the ties and the BFS.
"""
from __future__ import annotations

import io
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    EdgeListParseError,
    EmptyInputError,
    GraphError,
    UnknownNodeError,
)

__all__ = [
    "Adjacency",
    "Graph",
    "packed_rows",
    "unpack_rows",
    "load_edge_list",
    "load_edge_list_path",
    "numbered_lines",
    "serialize_edge_list",
    "largest_connected_component",
    "induced_subgraph",
    "distance_summary",
    "all_pairs_distances",
    "average_degree",
]

# uint64 words per neighbor gather of the all-sources BFS (256 KiB). A word
# row of polblogs' 33,436 arcs is larger, so each of its slices is one row.
_GATHER_WORDS = 1 << 15


class Adjacency(NamedTuple):
    """Compressed sparse rows of a digraph without self arcs.

    Row v is ``indices[indptr[v]:indptr[v + 1]]``, the targets of v in
    ascending order; position k is the arc (sources()[k], indices[k]),
    so arcs ascend by source and then by target. Both arrays are int64.
    Rows may be directed: ``_bfs_levels`` reads row v as the nodes one
    hop before v. A ``Graph``'s adjacency is symmetric, as
    ``distance_summary`` needs.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_keys(cls, keys: np.ndarray, n: int) -> Adjacency:
        """The n-node adjacency of ascending distinct int64 keys v * n + u."""
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        return cls(indptr, keys % n)

    @property
    def node_count(self) -> int:
        return len(self.indptr) - 1

    def sources(self) -> np.ndarray:
        """The source node of every ordered edge."""
        return np.repeat(np.arange(self.node_count), np.diff(self.indptr))

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        """The rows of ``nodes`` laid end to end, in the order given."""
        starts = self.indptr[nodes]
        lengths = self.indptr[nodes + 1] - starts
        # Slot i of the result, in a row whose first slot is o, reads
        # indices[start + i - o].
        shift = starts - (np.cumsum(lengths) - lengths)
        return self.indices[np.repeat(shift, lengths) + np.arange(lengths.sum())]

    def induced(self, members: Sequence[int] | np.ndarray) -> Adjacency:
        """Rows and columns of ``members``, renumbered in ascending order:
        exactly the edges with both ends among the members, read from the
        members' rows alone; every node gives this adjacency itself.
        Raises UnknownNodeError for a member outside 0 .. node_count - 1."""
        keep = sorted_unique(np.asarray(members, dtype=np.int64))
        if len(keep) and (keep[0] < 0 or keep[-1] >= self.node_count):
            bad = keep[0] if keep[0] < 0 else keep[-1]
            raise UnknownNodeError(f"no node with index {bad}")
        if len(keep) == self.node_count:
            return self
        new_index = np.full(self.node_count, -1, dtype=np.int64)
        new_index[keep] = np.arange(len(keep))
        # Renumbering keeps the order, so each row still ascends.
        targets = new_index[self.rows(keep)]
        inside = targets >= 0
        sources = np.repeat(np.arange(len(keep)), self.indptr[keep + 1] - self.indptr[keep])
        indptr = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources[inside], minlength=len(keep)), out=indptr[1:])
        return Adjacency(indptr, targets[inside])


def packed_rows(adjacency: Adjacency) -> np.ndarray:
    """The rows of ``adjacency`` as an (n, 8 * ceil(n / 64)) uint8 array:
    in row v, bit u & 7 of byte u >> 3 is set iff (v, u) is an arc, the
    order of ``np.packbits(..., bitorder="little")``. Rows fill whole
    64-bit words, so ``.view(np.uint64)`` gives word-wise rows; setting
    bytes, not words, keeps each bit's place on any endianness. Nothing
    caches them: each caller builds its own and drops it."""
    n, targets = adjacency.node_count, adjacency.indices
    rows = np.zeros((n, 8 * -(-n // 64)), dtype=np.uint8)
    bits = (1 << (targets & 7)).astype(np.uint8)
    np.bitwise_or.at(rows, (adjacency.sources(), targets >> 3), bits)
    return rows


def unpack_rows(packed: np.ndarray, n: int) -> np.ndarray:
    """Bit rows of n nodes, packed as ``packed_rows`` packs them, as bool rows."""
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph: a label per node plus a CSR adjacency.

    The labels are unique. The adjacency is symmetric, has no self loops
    and no duplicate edges. Two graphs are equal when their labels and
    both adjacency arrays are.
    """

    labels: tuple[str, ...]
    adjacency: Adjacency

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and all(
            map(np.array_equal, self.adjacency, other.adjacency)
        )

    def __hash__(self) -> int:
        return hash((self.labels, len(self.adjacency.indices)))

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.adjacency.indices) // 2

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
        """Each edge once as an index pair (v, u) with v < u, ascending."""
        sources, targets = self.adjacency.sources(), self.adjacency.indices
        upper = sources < targets
        return zip(sources[upper].tolist(), targets[upper].tolist())

    @cached_property
    def _index_of(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending: ``np.unique(values)``.

    numpy 2.4's ``np.unique`` calls ``np.ma.is_masked``, which imports
    ``numpy.ma`` on first use: 14 ms (``-X importtime``) and 1.3 MiB of
    RSS in every process that loads a graph. A sort and one comparison
    of neighbors give the same array without it.
    """
    out = np.sort(values)
    keep = np.ones(len(out), dtype=bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def graph_from_edges(pairs: Iterable[tuple[str, str]]) -> Graph:
    """Build a graph from label pairs, dropping self loops and duplicates.

    Node indices follow first appearance of each label in the pair stream,
    from one ``dict.setdefault`` pass that consumes the pairs as they
    come, so no list of them is built.
    """
    index_of: dict[str, int] = {}
    ends = array("q")
    for a, b in pairs:
        ends.append(index_of.setdefault(a, len(index_of)))
        ends.append(index_of.setdefault(b, len(index_of)))
    v, u = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2).T
    n = len(index_of)
    # Both orientations of each edge but a self loop, each once, ascending.
    keys = np.concatenate([v * n + u, u * n + v])[np.tile(v != u, 2)]
    return Graph(tuple(index_of), Adjacency.from_keys(sorted_unique(keys), n))


def numbered_lines(stream: Iterable[bytes] | Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` for each line of an open stream, numbered
    from 1 and read as the stream yields it, so a line ends at ``\\n``
    only. A bytes line is decoded as UTF-8; EdgeListParseError names the
    first line that is not. A UTF-8 byte-order mark before line 1 is
    dropped; U+FEFF anywhere else is text."""
    lines = iter(stream)
    first = next(lines, None)
    if first is None:
        return
    first = first.removeprefix(b"\xef\xbb\xbf" if isinstance(first, bytes) else "\ufeff")
    for number, line in enumerate(chain([first], lines), start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                raise EdgeListParseError("not valid UTF-8", number) from None
        yield number, line


def load_edge_list(source: IO[bytes] | IO[str]) -> Graph:
    """Parse a whitespace-separated edge-list stream into a Graph.

    One edge per ``\\n``-ended line (``numbered_lines``), exactly two
    tokens; lines whose first non-whitespace character is ``#`` are
    comments and blank lines are skipped. Self loops are dropped and
    duplicate edges (in either orientation) collapse to one. Raises
    EdgeListParseError for the first offending line, before any later
    line is read, or EmptyInputError if no edges survive.
    """
    g = graph_from_edges(_edge_pairs(source))
    if g.edge_count == 0:
        raise EmptyInputError("edge list contains no usable edges")
    return g


def _edge_pairs(source: IO[bytes] | IO[str]) -> Iterator[list[str]]:
    """The two tokens of each edge line of ``source``, line by line."""
    for line_number, line in numbered_lines(source):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2:
            raise EdgeListParseError(
                f"expected two tokens, got {len(fields)}: {line.strip()!r}", line_number
            )
        yield fields


def load_edge_list_path(path: str | Path) -> Graph:
    with open(path, "rb") as handle:
        return load_edge_list(handle)


def serialize_edge_list(g: Graph) -> str:
    """Canonical edge-list text that loads back as ``g``'s edges: sorted
    ``u v`` lines with u < v by label, except that a ``#``-leading label
    goes second, so the line is not read as a comment.

    Raises GraphError for a label that is not one token (empty, or with
    whitespace) and for an edge whose labels both start with ``#``.
    """
    for label in g.labels:
        if label.split() != [label]:
            raise GraphError(f"label {label!r} cannot be written as one token")
    lines = []
    for v, u in g.edges():
        a, b = sorted((g.label(v), g.label(u)), key=lambda label: (label.startswith("#"), label))
        if a.startswith("#"):
            raise GraphError(f"edge ({a!r}, {b!r}) cannot be written: both labels start with #")
        lines.append(f"{a} {b}")
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


def _component_roots(adjacency: Adjacency) -> np.ndarray:
    """The smallest member of each node's component, by min-label propagation.

    A pass lowers each label to the smallest label among the node and its
    neighbors, then jumps one pointer (label of the label). Labels only
    fall and always name a member of the node's component, so when a pass
    changes nothing every component holds one label: its smallest member.
    """
    indptr, indices = adjacency
    root = np.arange(adjacency.node_count)
    if len(indices) == 0:
        return root
    # reduceat gives an empty segment its start element: skip isolated nodes.
    has = np.diff(indptr) > 0
    starts = indptr[:-1][has]
    while True:
        low = root.copy()
        low[has] = np.minimum(root[has], np.minimum.reduceat(root[indices], starts))
        low = low[low]
        if np.array_equal(low, root):
            return root
        root = low


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component; ``g`` itself if connected.

    Ties between equal-size components go to the one containing the
    smallest internal index.
    """
    root = _component_roots(g.adjacency)
    sizes = np.bincount(root, minlength=1)
    best = int(np.argmax(sizes))  # first maximum: the smallest root
    if sizes[best] == g.node_count:
        return g
    return induced_subgraph(g, np.flatnonzero(root == best))


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> Graph:
    """Subgraph on ``nodes`` with exactly the edges internal to the set.

    Labels are preserved; new indices follow the old index order.
    """
    keep = sorted(set(nodes))
    adjacency = g.adjacency.induced(keep)  # raises on a bad index, before any label is read
    return Graph(tuple(g.labels[v] for v in keep), adjacency)


def _gather_or(frontier: np.ndarray, columns: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """OR of ``frontier``'s ``columns`` over each run that begins at one of
    ``starts``: a (rows of frontier, len(starts)) array. The columns are
    gathered a slice of word rows at a time, each slice holding at most
    ``_GATHER_WORDS`` words, or one word row when that row alone is larger.
    """
    out = np.empty((len(frontier), len(starts)), dtype=np.uint64)
    step = max(1, _GATHER_WORDS // len(columns))
    for lo in range(0, len(frontier), step):
        rows = slice(lo, lo + step)
        out[rows] = np.bitwise_or.reduceat(frontier[rows].take(columns, axis=1), starts, axis=1)
    return out


def _bfs_levels(adjacency: Adjacency) -> Iterator[tuple[int, np.ndarray]]:
    """Level-synchronous breadth-first search from every node at once.

    Row v of ``adjacency`` lists the in-neighbors of v, the nodes one hop
    before it; a Graph's symmetric rows are their own in-neighbor rows.
    Yields ``(level, frontier)`` for levels 1, 2, ... while any pair is
    newly reached. ``frontier`` is a (ceil(n / 64), n) uint64 array:
    column v holds a bitset over sources, and bit s of that column's
    bytes (little bit order) is set iff v is exactly ``level`` hops from
    s: column v is row v of ``packed_rows`` as words, so level 1 is the
    packed adjacency, transposed. A later level ORs the columns of each
    node's in-neighbors, one contiguous run per word row (``_gather_or``),
    so the search is bitwise throughout. The yielded array is the next
    level's input and must not be changed.

    Column v is finished once it holds every source, or once a level
    reaches no new source of it: a source farther away would have a
    shortest path through a node exactly that many hops from v. Later
    levels gather only the rows of unfinished columns, and the search
    ends when none is left.
    """
    indptr, indices = adjacency
    n = adjacency.node_count
    if len(indices) == 0:
        return
    frontier = np.ascontiguousarray(packed_rows(adjacency).view(np.uint64).T)
    level = 1
    yield level, frontier
    # The unfinished columns, the sources each still misses and, as bits,
    # which: all but its level-1 sources and, cleared here, its own node.
    degree = indptr[1:] - indptr[:-1]
    missing = n - 1 - degree
    is_live = (degree > 0) & (missing > 0)
    live = np.flatnonzero(is_live)
    missing, unseen = missing[live], ~frontier.take(live, axis=1)
    unseen.view(np.uint8)[live >> 6, 8 * np.arange(len(live)) + ((live >> 3) & 7)] ^= (
        1 << (live & 7)
    ).astype(np.uint8)
    while len(live):
        lengths = degree[live]
        # The live columns' rows, end to end; no copy while every column is live.
        rows = indices if len(live) == n else indices[np.repeat(is_live, degree)]
        fresh = _gather_or(frontier, rows, np.cumsum(lengths) - lengths)
        fresh &= unseen
        counts = np.bitwise_count(fresh).sum(axis=0, dtype=np.int64)
        if not counts.any():
            return
        level += 1
        frontier = np.zeros_like(frontier)
        frontier[:, live] = fresh
        yield level, frontier
        unseen ^= fresh
        missing -= counts
        keep = (counts > 0) & (missing > 0)
        is_live[live] = keep
        live, missing, unseen = live[keep], missing[keep], unseen.compress(keep, axis=1)
        del fresh  # so the next gather does not hold this level's columns too


def distance_summary(adjacency: Adjacency) -> tuple[int, int, int]:
    """(diameter, distance sum, pair count) over unordered connected pairs.

    ``adjacency`` must be symmetric, as a graph holds it or induced from
    one: the search from every node then reaches each connected pair from
    both ends, and halving its counts takes each pair once. Unreachable
    pairs are left out of all three; the distance matrix is never built.
    The sum and the count are exact integers, so ``sum / count`` is the
    correctly rounded mean distance.
    """
    diameter = total = pairs = 0
    for level, frontier in _bfs_levels(adjacency):
        count = int(np.bitwise_count(frontier).sum())
        diameter = level
        total += level * count
        pairs += count
    # Distances are symmetric: each unordered pair was reached twice.
    return diameter, total // 2, pairs // 2


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Dense hop-count matrix with ``inf`` for unreachable pairs."""
    n = g.node_count
    out = np.full((n, n), np.inf)
    np.fill_diagonal(out, 0.0)
    for level, frontier in _bfs_levels(g.adjacency):
        out[unpack_rows(np.ascontiguousarray(frontier.T).view(np.uint8), n)] = level
    return out


def average_degree(g: Graph) -> float:
    """2m / n."""
    n = g.node_count
    if n == 0:
        raise UnknownNodeError("average degree of an empty graph is undefined")
    return 2.0 * g.edge_count / n


def graph_from_text(text: str) -> Graph:
    """Convenience loader for inline edge-list strings (tests, scripts)."""
    return load_edge_list(io.StringIO(text))
