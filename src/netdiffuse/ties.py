"""Common-neighborhood scoring and tie strength.

For a connected pair (v, u) the neighborhood score ``rho`` is an integer
built from five counts: the common neighbors themselves, each endpoint's
overlap with every common neighbor, the number of edges among common
neighbors, and the overlap of every connected common-neighbor pair. A
pair without common neighbors degenerates to 1 when either endpoint has
degree one (the edge is then the only interaction path) and 0 otherwise.

The terms come from one block per node. For node v let ``B`` be the
0/1 adjacency matrix among the neighbors N(v), and ``W`` the same
matrix with each edge weighted by its own common-neighbor count. Row i
of these identities holds the terms of the ordered edge (v, N(v)[i]):

    term_cn     = rowsum(B)
    term_v_side = B @ term_cn = rowsum(B @ B)
    term_u_side = rowsum(W)
    term_sigma  = rowsum(B @ B * B) / 2
    term_ww     = rowsum(B @ W * B) / 2

(the last two see each connected common-neighbor pair from both ends).
The common-neighbor count ``cn`` of every edge is a popcount of the AND
of its ends' packed adjacency rows, taken over bounded slices of edges.
One dense matrix ``marked`` holds ``cn + 1`` on every edge and 0
elsewhere, so ``B = marked > 0`` and ``W = marked - B`` on any block; its
extra row and column n belong to a padding node without edges. Its
dtype is the smallest unsigned integer type that holds the largest
``cn + 1``: uint8 on polblogs, whose largest is 75, half the bytes of
uint16. The nodes, sorted by degree, are cut into chunks of at most
``_BLOCK_CELLS`` block cells (m nodes of largest degree D hold m * D**2);
a node whose block alone is larger is a chunk by itself. A chunk pads
every neighbor list to width D with node n, gathers its blocks with one
index and evaluates the identities as stacked products; padding adds
only zeros. Every product and row sum of a chunk is an integer of at
most D**2 * max cn, so the chunk runs in float32 while that bound stays
below 2**24 (every chunk of polblogs) and in float64, exact below
2**53, above it; ``terms`` stays int64. An edge-wise kernel over (edge,
common neighbor) incidences gives the same terms but was measured 6x
slower on polblogs, so the blocks stay per node. Every score lives in
edge-indexed arrays in ``Graph.adjacency`` order: position k is the
ordered edge (v, indices[k]) for the row v that holds k, so rows ascend
by v and, within a row, by neighbor.

Tie strength ``phi`` normalizes ``rho`` by the maximum score on the
source node's row, making it asymmetric; the ordered pairs that reach
1.0 form the strong-tie set consumed by the diffusion models.

The strong-tie cascade reads one more product of the table, the reach
digraph, a CSR ``Adjacency``: row v is every node an active v activates,
before the active set is subtracted. It holds v's strong-tie targets u;
for each strong (v, u) with C = N(v) & N(u), the set
C | (N(w) & (N(v) | N(u))) for w in C, minus v and u; and each neighbor
whose own strong tie points at v. The middle part is the contributors
of (v, u) that either endpoint is adjacent to. The contributors found
through a connected pair (w, z) of common neighbors lie in N(w), so that
restriction leaves the pair-overlap term nothing to add, and a bitwise
OR over the packed rows N(w) of each tie's common neighbors computes it.
The rows are ORed into packed n-by-n/8 bit rows a slice of strong ties
at a time, and unpacked into the CSR a block of rows at a time, so no
(ties x n) unpacking, gather of all N(w) or n-by-n matrix exists whole.

Both builds keep every temporary bounded. When glibc frees a block of
128 KiB or more it raises its mmap threshold to that size, so later
arrays of that size come from the heap and stay resident: one large
temporary lifts the process's peak memory for the rest of the run.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterator, Sequence

import numpy as np

from .errors import NotAnEdgeError
from .graph import Adjacency, Graph

__all__ = [
    "TieStrengthTable",
    "contributors",
    "build_tie_strength_table",
    "dump_tie_table",
]

TIE_TABLE_COLUMNS = (
    "v",
    "u",
    "term_cn",
    "term_v_side",
    "term_u_side",
    "term_sigma",
    "term_ww",
    "rho",
    "phi",
)

_RHO = 5  # column of rho in TieStrengthTable.terms
_EDGE_SLICE = 1024  # edges per popcount slice of the common-neighbor counts
_BLOCK_CELLS = 1 << 15  # block cells per chunk of the term kernel
_FLOAT32_EXACT = 1 << 24  # float32 holds every integer below this exactly
_UNPACK_CELLS = 1 << 16  # bytes per unpacked slice of the reach build


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """Packed bit rows of n nodes as bool rows."""
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def _edge_index(adjacency: Adjacency, v: int, u: int) -> int:
    """Position of the arc (v, u) in ``adjacency``; raises NotAnEdgeError
    if it is not an arc."""
    indptr, indices = adjacency
    if 0 <= v < adjacency.node_count and 0 <= u < adjacency.node_count:
        start, stop = indptr[v], indptr[v + 1]
        k = int(start + np.searchsorted(indices[start:stop], u))
        if k < stop and indices[k] == u:
            return k
    raise NotAnEdgeError(f"({v}, {u}) is not an edge of the graph")


def contributors(g: Graph, v: int, u: int) -> frozenset[int]:
    """Every node that appears in some score term of (v, u), minus v and u.

    Empty for degenerate pairs: those score without any third party.
    """
    _edge_index(g.adjacency, v, u)
    indptr, indices = g.adjacency

    def row(x: int) -> set[int]:
        return set(indices[indptr[x] : indptr[x + 1]].tolist())

    nv, nu = row(v), row(u)
    common = sorted(nv & nu)
    rows = {w: row(w) for w in common}
    members = set(common)
    for i, w in enumerate(common):
        members |= rows[w] & (nv | nu)
        for z in common[i + 1 :]:
            if z in rows[w]:
                members |= rows[w] & rows[z]
    return frozenset(members - {v, u})


@dataclass(frozen=True, eq=False)
class TieStrengthTable:
    """Scores of every ordered edge, as arrays in ``graph.adjacency`` order.

    ``terms[k]`` holds term_cn, term_v_side, term_u_side, term_sigma,
    term_ww and rho of ordered edge k, ``phi[k]`` its tie strength,
    ``strong[k]`` whether it is a strong tie, and ``row_max[v]`` the
    largest rho on v's row (0 for an isolated node).
    """

    graph: Graph
    terms: np.ndarray
    phi: np.ndarray
    row_max: np.ndarray
    strong: np.ndarray

    @cached_property
    def reach(self) -> Adjacency:
        """The reach digraph: row v is what an active v activates.

        See the module docstring for the three parts of a row. Built on
        first use from the graph's packed adjacency rows.
        """
        n = self.graph.node_count
        rows = self.graph.bits
        sources = self.graph.adjacency.sources()[self.strong]
        targets = self.graph.adjacency.indices[self.strong]
        packed = np.zeros_like(rows)
        # Ties per slice and rows per block: each unpacks to at most
        # _UNPACK_CELLS bytes.
        step = max(1, _UNPACK_CELLS // max(n, 1))
        for lo in range(0, len(sources), step):
            source, target = sources[lo : lo + step], targets[lo : lo + step]
            common = rows[source] & rows[target]
            # The common neighbors w of each strong tie, tie by tie.
            tie, w = np.divmod(np.flatnonzero(_unpack(common, n)), n)
            counts = np.bincount(tie, minlength=len(source))
            # reduceat gives an empty segment its start element: skip those ties.
            has = counts > 0
            span = np.zeros_like(common)
            if has.any():
                starts = (np.cumsum(counts) - counts)[has]
                span[has] = np.bitwise_or.reduceat(rows[w], starts, axis=0)
            span &= rows[source] | rows[target]
            span |= common
            np.bitwise_or.at(packed, source, span)
        # Each strong tie and its reverse. A span can hold its own tie's
        # source, as a neighbor of some w: no row keeps its own node.
        for v, u in ((sources, targets), (targets, sources)):
            np.bitwise_or.at(packed, (v, u >> 3), (1 << (u & 7)).astype(np.uint8))
        nodes = np.arange(n)
        packed[nodes, nodes >> 3] &= ~(1 << (nodes & 7)).astype(np.uint8)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bitwise_count(packed.view(np.uint64)).sum(axis=1), out=indptr[1:])
        blocks = range(0, n, step)
        indices = [np.flatnonzero(_unpack(packed[lo : lo + step], n)) % n for lo in blocks]
        return Adjacency(indptr, np.concatenate(indices) if indices else indptr[:0])

    def edge(self, v: int, u: int) -> int:
        """Index of the ordered edge (v, u) in the edge arrays; raises
        NotAnEdgeError if (v, u) is not an edge."""
        return _edge_index(self.graph.adjacency, v, u)

    def contributor_members(self, v: int, u: int) -> frozenset[int]:
        return contributors(self.graph, v, u)


def _marked_dtype(top: int) -> np.dtype:
    """The smallest unsigned type that holds ``cn + 1`` when no edge has
    more than ``top`` common neighbors."""
    return np.min_scalar_type(top + 1)


def _block_dtype(width: int, top: int) -> type:
    """float32 if the block products of a chunk are exact in it, else float64.

    Every product and row sum of a block of width ``width`` is an integer
    of at most ``width**2 * top``, where ``top`` bounds ``cn``.
    """
    return np.float32 if width * width * top < _FLOAT32_EXACT else np.float64


def _degree_chunks(degree: np.ndarray) -> Iterator[np.ndarray]:
    """Nodes in stable ascending degree order, cut into chunks.

    A chunk of m nodes whose largest degree is D holds m * D**2 block
    cells; each chunk is the longest run that stays within
    ``_BLOCK_CELLS``, or a single node whose block alone is larger.
    """
    order = np.argsort(degree, kind="stable")
    cells = degree[order].astype(np.int64) ** 2
    start = 0
    while start < len(order):
        # Both factors grow along the run, so the sizes ascend.
        sizes = np.arange(1, len(order) - start + 1) * cells[start:]
        stop = start + max(1, int(np.searchsorted(sizes, _BLOCK_CELLS, side="right")))
        yield order[start:stop]
        start = stop


def build_tie_strength_table(g: Graph) -> TieStrengthTable:
    """Score both orientations of every edge, one chunk of blocks at a time.

    Row maxima are not tie-broken: every co-maximal neighbor of a node
    enters the strong-tie set.
    """
    indptr, indices = g.adjacency
    sources = g.adjacency.sources()
    n = g.node_count
    words = g.bits.view(np.uint64)
    terms = np.zeros((len(indices), 6), dtype=np.int64)
    cn = terms[:, 0]
    for lo in range(0, len(indices), _EDGE_SLICE):
        edges = slice(lo, lo + _EDGE_SLICE)
        common = words[sources[edges]] & words[indices[edges]]
        cn[edges] = np.bitwise_count(common).sum(axis=1)
    top = int(cn.max(initial=0))
    # cn + 1 on every edge, 0 elsewhere; row and column n pad the blocks.
    marked = np.zeros((n + 1, n + 1), dtype=_marked_dtype(top))
    marked[sources, indices] = cn + 1
    flat = marked.ravel()

    degree = np.diff(indptr)
    for chunk in _degree_chunks(degree):
        width = int(degree[chunk[-1]])
        slot = np.arange(width)
        filled = slot < degree[chunk, None]
        position = (indptr[chunk, None] + slot)[filled]
        nbrs = np.full((len(chunk), width), n)
        nbrs[filled] = indices[position]
        # x[k, i, j] = marked[nbrs[k, i], nbrs[k, j]], by flat index.
        x = flat.take(nbrs[:, :, None] * (n + 1) + nbrs[:, None, :])
        b = (x > 0).astype(_block_dtype(width, top))
        w = x - b
        bb = b @ b
        block_terms = np.stack(
            [
                bb.sum(axis=2),
                w.sum(axis=2),
                np.einsum("mij,mij->mi", bb, b) / 2,
                np.einsum("mij,mij->mi", b @ w, b) / 2,
            ],
            axis=2,
        )
        terms[position, 1:_RHO] = block_terms[filled]

    # A pair without common neighbors scores 1 iff an endpoint is a leaf.
    lone = (degree[sources] == 1) | (degree[indices] == 1)
    rho = np.where(terms[:, 0] > 0, terms[:, :_RHO].sum(axis=1), lone)
    terms[:, _RHO] = rho
    row_max = np.zeros(g.node_count, dtype=np.int64)
    np.maximum.at(row_max, sources, rho)
    source_max = row_max[sources]
    phi = np.divide(rho, source_max, out=np.zeros(len(rho)), where=source_max > 0)
    return TieStrengthTable(
        graph=g,
        terms=terms,
        phi=phi,
        row_max=row_max,
        strong=(rho == source_max) & (rho > 0),
    )


def _csv_fields(labels: Sequence[str]) -> list[str]:
    """Each label as ``csv.writer`` writes it among other fields of a row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = []
    for label in labels:
        buf.seek(0)
        buf.truncate()
        writer.writerow([label, ""])
        fields.append(buf.getvalue()[:-2])
    return fields


def dump_tie_table(table: TieStrengthTable, stream: IO[str]) -> None:
    """Write the debug CSV, one row per ordered edge, sorted by labels."""
    labels = table.graph.labels
    rank = np.empty(len(labels), dtype=np.int64)
    rank[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(len(labels))
    sources, targets = table.graph.adjacency.sources(), table.graph.adjacency.indices
    # Labels are unique, so this is the order of the (label_v, label_u) key.
    order = np.lexsort((rank[targets], rank[sources]))
    fields = np.array(_csv_fields(labels), dtype=object)
    stream.write(",".join(TIE_TABLE_COLUMNS) + "\n")
    row = "%s,%s,%d,%d,%d,%d,%d,%d,%.6f\n"
    stream.writelines(
        map(
            row.__mod__,
            zip(
                fields[sources[order]].tolist(),
                fields[targets[order]].tolist(),
                *table.terms[order].T.tolist(),
                table.phi[order].tolist(),
            ),
        )
    )
