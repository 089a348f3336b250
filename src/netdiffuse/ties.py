"""Common-neighborhood scoring and tie strength.

For a connected pair (v, u) the neighborhood score ``rho`` is an integer
built from five counts: the common neighbors themselves, each endpoint's
overlap with every common neighbor, the number of edges among common
neighbors, and the overlap of every connected common-neighbor pair. A
pair without common neighbors degenerates to 1 when either endpoint has
degree one (the edge is then the only interaction path) and 0 otherwise.

The terms are computed one node at a time. For node v let ``B`` be the
0/1 adjacency matrix among the neighbors N(v), and ``W`` the same
matrix with each edge weighted by its own common-neighbor count. Row i
of these identities holds the terms of the ordered edge (v, N(v)[i]):

    term_cn     = rowsum(B)
    term_v_side = B @ term_cn
    term_u_side = rowsum(W)
    term_sigma  = rowsum(B @ B * B) / 2
    term_ww     = rowsum(B @ W * B) / 2

(the last two see each connected common-neighbor pair from both ends).
The products run in float64 and are exact while every count stays below
2**53; the weights, at most n - 2, are held as float32, exact below
2**24. Every score lives in edge-indexed arrays in ``adjacency_csr``
order: position k is the ordered edge (v, indices[k]) for the row v that
holds k, so rows ascend by v and, within a row, by neighbor.

Tie strength ``phi`` normalizes ``rho`` by the maximum score on the
source node's row, making it asymmetric; the ordered pairs that reach
1.0 form the strong-tie set consumed by the diffusion models.

The strong-tie cascade reads one more product of the table, the reach
matrix: row v is every node an active v activates, before the active
set is subtracted. It holds v's strong-tie targets u; for each strong
(v, u) with C = N(v) & N(u), the set C | (N(w) & (N(v) | N(u))) for w
in C, minus v and u; and each neighbor whose own strong tie points at
v. The middle part is the contributors of (v, u) that either endpoint
is adjacent to. The contributors found through a connected pair (w, z)
of common neighbors lie in N(w), so that restriction leaves the
pair-overlap term nothing to add, and a bitwise OR over the packed rows
N(w) of each tie's common neighbors computes it.
"""
from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

from .errors import NotAnEdgeError
from .graph import Adjacency, Graph, adjacency_csr

__all__ = [
    "CommonNeighborhoodBreakdown",
    "ContributorSet",
    "TieStrengthTable",
    "contributors",
    "build_tie_strength_table",
    "tie_strength",
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


@dataclass(frozen=True)
class CommonNeighborhoodBreakdown:
    """Per-term decomposition of the neighborhood score for one ordered pair.

    When ``term_cn`` is zero the pair is degenerate: all term fields are
    zero and ``rho`` alone holds the 0-or-1 value.
    """

    v: int
    u: int
    term_cn: int
    term_v_side: int
    term_u_side: int
    term_sigma: int
    term_ww: int
    rho: int


@dataclass(frozen=True)
class ContributorSet:
    """Nodes whose membership in any score term counted for a pair."""

    v: int
    u: int
    members: frozenset[int]


def _require_edge(g: Graph, v: int, u: int) -> None:
    if not (g.has_node(v) and g.has_node(u) and g.has_edge(v, u)):
        raise NotAnEdgeError(f"({v}, {u}) is not an edge of the graph")


def contributors(g: Graph, v: int, u: int) -> ContributorSet:
    """Every node that appears in some score term of (v, u), minus v and u.

    Empty for degenerate pairs: those score without any third party.
    """
    _require_edge(g, v, u)
    nv = g.neighbor_set(v)
    nu = g.neighbor_set(u)
    common = sorted(nv & nu)
    members: set[int] = set()
    if common:
        members.update(common)
        for i, w in enumerate(common):
            nw = g.neighbor_set(w)
            members.update(nv & nw)
            members.update(nu & nw)
            for z in common[i + 1 :]:
                if z in nw:
                    members.update(nw & g.neighbor_set(z))
        members.discard(v)
        members.discard(u)
    return ContributorSet(v, u, frozenset(members))


@dataclass(frozen=True, eq=False)
class TieStrengthTable:
    """Scores of every ordered edge, as arrays in ``adjacency`` order.

    ``terms[k]`` holds term_cn, term_v_side, term_u_side, term_sigma,
    term_ww and rho of ordered edge k, ``phi[k]`` its tie strength,
    ``strong[k]`` whether it is a strong tie, and ``row_max[v]`` the
    largest rho on v's row (0 for an isolated node).
    """

    graph: Graph
    adjacency: Adjacency
    terms: np.ndarray
    phi: np.ndarray
    row_max: np.ndarray
    strong: np.ndarray

    @cached_property
    def strong_ties(self) -> frozenset[tuple[int, int]]:
        """The strong ties as ordered (v, u) index pairs."""
        sources = self.adjacency.sources()[self.strong]
        return frozenset(zip(sources.tolist(), self.adjacency.indices[self.strong].tolist()))

    @cached_property
    def reach(self) -> np.ndarray:
        """n-by-n bool matrix; row v is what an active v activates.

        See the module docstring for the three parts of a row. Built on
        first use from the adjacency rows packed 8 nodes a byte.
        """
        n = self.graph.node_count
        sources, targets = self.adjacency.sources(), self.adjacency.indices
        linked = np.zeros((n, n), dtype=bool)
        linked[sources, targets] = True
        rows = np.packbits(linked, axis=1, bitorder="little")
        source, target = sources[self.strong], targets[self.strong]
        common = rows[source] & rows[target]
        # The common neighbors w of each strong tie, tie by tie.
        tie, w = np.nonzero(np.unpackbits(common, axis=1, count=n, bitorder="little"))
        counts = np.bincount(tie, minlength=len(source))
        # reduceat gives an empty segment its start element: skip those ties.
        has = counts > 0
        span = np.zeros_like(common)
        if has.any():
            starts = (np.cumsum(counts) - counts)[has]
            span[has] = np.bitwise_or.reduceat(rows[w], starts, axis=0)
        span &= rows[source] | rows[target]
        span |= common
        packed = np.zeros_like(rows)
        np.bitwise_or.at(packed, source, span)
        reach = np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)
        # A span can hold its own tie's ends, as neighbors of some w: the
        # target belongs to the row anyway, the source never does.
        reach[source, target] = reach[target, source] = True
        np.fill_diagonal(reach, False)
        return reach

    def _position(self, v: int, u: int) -> int:
        """Index of the ordered edge (v, u) in the edge arrays."""
        _require_edge(self.graph, v, u)
        start = int(self.adjacency.indptr[v])
        return start + bisect_left(self.graph.neighbors_of(v), u)

    def breakdown(self, v: int, u: int) -> CommonNeighborhoodBreakdown:
        terms = self.terms[self._position(v, u)].tolist()
        return CommonNeighborhoodBreakdown(v, u, *terms)

    def rho(self, v: int, u: int) -> int:
        return int(self.terms[self._position(v, u), _RHO])

    def contributor_members(self, v: int, u: int) -> frozenset[int]:
        return contributors(self.graph, v, u).members


def build_tie_strength_table(g: Graph) -> TieStrengthTable:
    """Score both orientations of every edge, one neighborhood block per node.

    Row maxima are not tie-broken: every co-maximal neighbor of a node
    enters the strong-tie set.
    """
    adjacency = adjacency_csr(g)
    indptr, indices = adjacency
    sources = adjacency.sources()
    linked = np.zeros((g.node_count, g.node_count), dtype=bool)
    linked[sources, indices] = True
    neighborhoods = np.split(indices, indptr[1:-1])
    # Every edge's common-neighbor count: the weights of W.
    weight = np.zeros(linked.shape, dtype=np.float32)
    for v, nbrs in enumerate(neighborhoods):
        weight[v, nbrs] = linked[np.ix_(nbrs, nbrs)].sum(axis=1)

    terms = np.zeros((len(indices), 6), dtype=np.int64)
    for v, nbrs in enumerate(neighborhoods):
        block = np.ix_(nbrs, nbrs)
        b = linked[block].astype(np.float64)
        w = weight[block].astype(np.float64)
        cn = b.sum(axis=1)
        row = terms[indptr[v] : indptr[v + 1]]
        row[:, 0] = cn
        row[:, 1] = b @ cn
        row[:, 2] = w.sum(axis=1)
        row[:, 3] = ((b @ b) * b).sum(axis=1) / 2
        row[:, 4] = ((b @ w) * b).sum(axis=1) / 2

    degree = np.diff(indptr)
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
        adjacency=adjacency,
        terms=terms,
        phi=phi,
        row_max=row_max,
        strong=(rho == source_max) & (rho > 0),
    )


def tie_strength(table: TieStrengthTable, v: int, u: int) -> float:
    """Normalized score of the ordered edge (v, u); 0.0 when its score is 0."""
    return float(table.phi[table._position(v, u)])


def dump_tie_table(table: TieStrengthTable, stream: IO[str]) -> None:
    """Write the debug CSV, one row per ordered edge, sorted by labels."""
    labels = table.graph.labels
    sources = table.adjacency.sources().tolist()
    targets = table.adjacency.indices.tolist()
    terms = table.terms.tolist()
    phi = table.phi.tolist()
    order = sorted(
        range(len(targets)), key=lambda k: (labels[sources[k]], labels[targets[k]])
    )
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TIE_TABLE_COLUMNS)
    for k in order:
        writer.writerow(
            [labels[sources[k]], labels[targets[k]], *terms[k], f"{phi[k]:.6f}"]
        )
