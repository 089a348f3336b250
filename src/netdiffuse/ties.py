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
a node whose block alone is larger is a chunk by itself, and takes its
products a slice of rows at a time. A chunk pads every neighbor list to
width D with node n, gathers its blocks with one index and evaluates
the identities as stacked products; padding adds only zeros. Every
product and row sum of a chunk is an integer of at most D**2 * max cn,
so the chunk runs in float32 while that bound stays below 2**24 (every
chunk of polblogs) and in float64, exact below 2**53, above it. The
kernel returns the four block terms as one (E, 4) array in the dtype
of the widest chunk, which holds every chunk's terms exactly; the
table's ``terms`` are int64, copied from it and from ``cn``. An
edge-wise kernel over (edge, common neighbor) incidences gives the
same terms but was measured 6x slower on polblogs, so the blocks stay
per node. Every score lives in
edge-indexed arrays in ``Graph.adjacency`` order: position k is the
ordered edge (v, indices[k]) for the row v that holds k, so rows ascend
by v and, within a row, by neighbor.

Tie strength ``phi`` normalizes ``rho`` by the maximum score on the
source node's row, making it asymmetric; the ordered pairs that reach
1.0 form the strong-tie set consumed by the diffusion models.

The strong-tie cascade reads one product of the strong-tie mask, the
reach digraph that ``reach_digraph`` builds, a CSR ``Adjacency``: row v
is every node an active v activates, before the active set is
subtracted. It holds v's strong-tie targets u; for each strong (v, u)
with C = N(v) & N(u), the set C | (N(w) & (N(v) | N(u))) for w in C,
minus v and u; and each neighbor whose own strong tie points at v. The
middle part is the contributors of (v, u) that either endpoint is
adjacent to. The contributors found
through a connected pair (w, z) of common neighbors lie in N(w), so that
restriction leaves the pair-overlap term nothing to add, and a bitwise
OR over the packed rows N(w) of each tie's common neighbors computes it.
The rows are ORed into packed n-by-n/8 bit rows a slice of strong ties
at a time, and unpacked into the CSR a block of rows at a time, so no
(ties x n) unpacking, gather of all N(w) or n-by-n matrix exists whole.

The dump writes a slice of rows at a time. Sorted by label rank, a
slice is laid out as one fixed-width byte matrix of at most
``_DUMP_BYTES`` bytes, or one row when a row alone is wider: each label's
CSV field and each term right-aligned in a column of the widest one's
width, ``_PAD`` (a byte no UTF-8 text holds) before it, and the commas,
the point and the newline at fixed places. Terms take 4-digit groups
from two lookup tables, one zero-padded and one bare, so any int64
fits. ``phi`` lies in [0, 1] and is written as ``d.dddddd`` from
``np.rint(phi * 1e6)``, which rounds as ``"%.6f"`` does except where
``phi * 1e6`` lies within 1e-6 of a half-integer (the product itself is
off by at most 6e-11): those entries take the digits of ``"%.6f"``.
Deleting the padding leaves the slice's text, written with one
``stream.write``.

Both builds and the dump keep every temporary bounded. When glibc
frees a block of 128 KiB or more it raises its mmap threshold to that
size, so later arrays of that size come from the heap and stay
resident: one large temporary lifts the process's peak memory for the
rest of the run. So memory is allocated late and released in the
order the strong-tie cascade stops needing it: beside ``marked`` the
kernel holds only ``cn``, its float32 block terms and one chunk (one
slice of rows of a wide block); the int64 ``terms`` is allocated once
``marked`` and the last chunk's blocks are freed, and the block terms
go before rho, phi and the strong-tie mask are formed; ``run_cns``
keeps only that mask, so ``terms``, ``phi`` and ``row_max`` go before
the reach allocates; and the reach fills one index array block by
block instead of concatenating a list of blocks beside it.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cache
from typing import IO, Iterator, Sequence

import numpy as np

from .errors import NotAnEdgeError
from .graph import Adjacency, Graph

__all__ = [
    "TieStrengthTable",
    "contributors",
    "build_tie_strength_table",
    "dump_tie_table",
    "reach_digraph",
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
_DUMP_BYTES = 1 << 16  # bytes per row matrix of the tie-table dump
_PAD = 0xFF  # filler byte of the dump's row matrix: no UTF-8 text holds it
_PAD_BYTE = bytes([_PAD])
_PAD_WORD = _PAD * 0x0101_0101  # four filler bytes


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

    def edge(self, v: int, u: int) -> int:
        """Index of the ordered edge (v, u) in the edge arrays; raises
        NotAnEdgeError if (v, u) is not an edge."""
        return _edge_index(self.graph.adjacency, v, u)

    def contributor_members(self, v: int, u: int) -> frozenset[int]:
        return contributors(self.graph, v, u)


def reach_digraph(g: Graph, strong: np.ndarray) -> Adjacency:
    """The reach digraph of the strong ties ``strong``, a mask over
    ``g.adjacency``: row v is what an active v activates.

    See the module docstring for the three parts of a row. Built from the
    graph's packed adjacency rows.
    """
    n = g.node_count
    rows = g.bits
    sources = g.adjacency.sources()[strong]
    targets = g.adjacency.indices[strong]
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
    # Each block of rows fills its own stretch of the indices in place.
    indices = np.empty(indptr[-1], dtype=np.int64)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        block = np.flatnonzero(_unpack(packed[lo:hi], n))
        np.remainder(block, n, out=indices[indptr[lo] : indptr[hi]])
    return Adjacency(indptr, indices)


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


def _block_terms(g: Graph, sources: np.ndarray, cn: np.ndarray, top: int) -> np.ndarray:
    """term_v_side .. term_ww of every edge, an (E, 4) array in the block
    dtype of the widest chunk, which holds every chunk's terms exactly.

    Built one chunk of blocks at a time from the common-neighbor counts
    ``cn``, of which none exceeds ``top``; a block wider than
    ``_BLOCK_CELLS`` takes its products a slice of rows at a time.
    ``marked`` and the last chunk's blocks are freed on return."""
    indptr, indices = g.adjacency
    n = g.node_count
    # cn + 1 on every edge, 0 elsewhere; row and column n pad the blocks.
    marked = np.zeros((n + 1, n + 1), dtype=_marked_dtype(top))
    marked[sources, indices] = cn + 1
    flat = marked.ravel()

    degree = np.diff(indptr)
    out = np.empty((len(indices), 4), dtype=_block_dtype(int(degree.max(initial=0)), top))
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
        del x
        block = np.empty((len(chunk), width, 4), dtype=b.dtype)
        # Every row at once, unless the chunk is one block wider than the limit.
        step = max(1, _BLOCK_CELLS // max(len(chunk) * width, 1))
        for lo in range(0, width, step):
            rows = slice(lo, lo + step)
            left = b[:, rows]
            bb = left @ b
            block[:, rows, 0] = bb.sum(axis=2)
            block[:, rows, 1] = w[:, rows].sum(axis=2)
            block[:, rows, 2] = np.einsum("mij,mij->mi", bb, left) / 2
            block[:, rows, 3] = np.einsum("mij,mij->mi", left @ w, left) / 2
        out[position] = block[filled]
    return out


def build_tie_strength_table(g: Graph) -> TieStrengthTable:
    """Score both orientations of every edge, one chunk of blocks at a time.

    Row maxima are not tie-broken: every co-maximal neighbor of a node
    enters the strong-tie set.
    """
    indptr, indices = g.adjacency
    sources = g.adjacency.sources()
    words = g.bits.view(np.uint64)
    cn = np.empty(len(indices), dtype=np.int64)
    for lo in range(0, len(indices), _EDGE_SLICE):
        edges = slice(lo, lo + _EDGE_SLICE)
        common = words[sources[edges]] & words[indices[edges]]
        cn[edges] = np.bitwise_count(common).sum(axis=1)
    block = _block_terms(g, sources, cn, int(cn.max(initial=0)))
    # The int64 table comes after ``marked`` and the blocks are freed.
    terms = np.empty((len(indices), 6), dtype=np.int64)
    terms[:, 0] = cn
    terms[:, 1:_RHO] = block
    del block
    cn = terms[:, 0]

    # A pair without common neighbors scores 1 iff an endpoint is a leaf.
    degree = np.diff(indptr)
    lone = (degree[sources] == 1) | (degree[indices] == 1)
    rho = np.where(cn > 0, terms[:, :_RHO].sum(axis=1), lone)
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


@cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0 .. 9999 as '<u4' words, four bytes in reading
    order: zero-padded, and bare (``_PAD`` for each leading zero, 0 as
    "0"). Built on the first dump, not at import."""
    values = np.arange(10_000)[:, None]
    padded = (values // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    bare = np.where(values >= np.array([1000, 100, 10, 0]), padded, np.uint8(_PAD))
    return padded.view("<u4").ravel(), bare.view("<u4").ravel()


def _write_digits(out: np.ndarray, values: np.ndarray, padded: np.ndarray, bare: np.ndarray) -> None:
    """Write each non-negative int64 of ``values`` (R, C) into ``out``
    (R, C, 4 * groups) uint8 as right-aligned decimal digits, ``_PAD``
    before the first digit: one 4-digit group of the tables at a time,
    from the last. ``groups`` must cover the largest value."""
    words = out.view("<u4")
    last = words.shape[-1] - 1
    rest = values
    for g in range(last, -1, -1):
        above = rest // 10_000
        low = rest - 10_000 * above
        # Bare digits lead a number; a group after them keeps its zeros.
        word = np.where(above > 0, padded[low], bare[low]) if g else bare[low]
        if g < last:
            # A group above the leading digit is all padding.
            word[rest == 0] = _PAD_WORD
        words[..., g] = word
        rest = above


def _label_matrix(labels: Sequence[str]) -> np.ndarray:
    """Each label's ``_csv_fields`` bytes, right-aligned in a row of the
    longest field's width and ``_PAD`` before it."""
    fields = [field.encode("utf-8", "surrogatepass") for field in _csv_fields(labels)]
    lengths = np.array([len(field) for field in fields], dtype=np.int64)
    width = int(lengths.max(initial=0))
    out = np.full((len(fields), width), _PAD, dtype=np.uint8)
    # Byte j of field i goes to column width - lengths[i] + j.
    starts = np.cumsum(lengths) - lengths
    rows = np.repeat(np.arange(len(fields)), lengths)
    columns = np.arange(lengths.sum()) + np.repeat(width - lengths - starts, lengths)
    out[rows, columns] = np.frombuffer(b"".join(fields), dtype=np.uint8)
    return out


def _write_phi(out: np.ndarray, phi: np.ndarray, padded: np.ndarray) -> None:
    """Write each ``phi`` in [0, 1] into ``out`` (R, 8) as ``"%.6f"`` does,
    leaving column 1 (the point) alone.

    ``np.rint(phi * 1e6)`` rounds as ``"%.6f"`` does unless ``phi * 1e6``
    lies near a half-integer, where the product's own rounding can decide
    the digit: those entries take the digits of ``"%.6f"`` itself.
    """
    scaled = phi * 1e6
    micro = np.rint(scaled).astype(np.int64)
    out[:, 0] = micro // 1_000_000 + ord("0")
    out[:, 2:6] = padded[micro // 100 % 10_000].view(np.uint8).reshape(-1, 4)
    out[:, 6:8] = padded[micro % 100].view(np.uint8).reshape(-1, 4)[:, 2:]
    near = np.flatnonzero(np.abs(scaled - micro) > 0.5 - 1e-6)
    if len(near):
        text = "".join("%.6f" % value for value in phi[near].tolist())
        out[near] = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 8)


def dump_tie_table(table: TieStrengthTable, stream: IO[str]) -> None:
    """Write the debug CSV, one row per ordered edge, sorted by labels, a
    slice of rows at a time (see the module docstring)."""
    labels = table.graph.labels
    n = len(labels)
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=labels.__getitem__)] = np.arange(n)
    sources, targets = table.graph.adjacency.sources(), table.graph.adjacency.indices
    # Labels are unique, so this is the order of the (label_v, label_u) key.
    order = np.argsort(rank[sources] * n + rank[targets])
    stream.write(",".join(TIE_TABLE_COLUMNS) + "\n")
    padded, bare = _digit_words()
    fields = _label_matrix(labels)
    label = fields.shape[1]
    groups = -(-len(str(int(table.terms.max(initial=0)))) // 4)
    term = 4 * groups + 1
    # A row: v, u and the six terms, each and its comma, then d.dddddd and "\n".
    terms_at = 2 * label + 2
    phi_at = terms_at + 6 * term
    template = np.full(phi_at + 9, _PAD, dtype=np.uint8)
    template[[label, terms_at - 1, *range(terms_at + term - 1, phi_at, term)]] = ord(",")
    template[phi_at + 1], template[-1] = ord("."), ord("\n")
    step = max(1, _DUMP_BYTES // len(template))
    for lo in range(0, len(order), step):
        edges = order[lo : lo + step]
        block = np.empty((len(edges), len(template)), dtype=np.uint8)
        block[:] = template
        block[:, :label] = fields[sources[edges]]
        block[:, label + 1 : terms_at - 1] = fields[targets[edges]]
        cells = block[:, terms_at:phi_at].reshape(len(edges), 6, term)
        _write_digits(cells[..., :-1], table.terms[edges], padded, bare)
        _write_phi(block[:, phi_at : phi_at + 8], table.phi[edges], padded)
        stream.write(block.tobytes().translate(None, _PAD_BYTE).decode("utf-8", "surrogatepass"))
