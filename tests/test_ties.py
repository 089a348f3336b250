"""Common-neighborhood scoring, tie strength and the strong-tie set."""
from __future__ import annotations

import csv
import hashlib
import io
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdiffuse import ties
from netdiffuse.errors import NotAnEdgeError
from netdiffuse.graph import (
    graph_from_edges,
    graph_from_text,
    load_edge_list_path,
)
from netdiffuse.ties import (
    TIE_TABLE_COLUMNS,
    build_tie_strength_table,
    contributors,
    dump_tie_table,
)

from conftest import (
    DATA_DIR, complete_graph, er_edges, neighbor_sets, random_graphs, star_graph,
    strong_pairs, traced_peak_mib,
)

# sha256 of `netdiffuse tie-table` on each bundled edge list (whole file,
# no component reduction); any change to a score or its format moves it.
TIE_TABLE_SHA256 = {
    "karate": "98f727cd4c2d8f88562b6e25a13910c149b2980650aa9d01d545a29d90230811",
    "lesmis": "89f54a4f75924a41f0938a5e322acc5a2f4b44bd00ca940b23ef37217fb4d144",
    "jazz": "debc32f411d33f5fddd88c8b4938117c21124ada83737f65de11fe1291c7b854",
    "polblogs": "2d82c34a3e1debab4ee4d1d118ade1e7593c36c1ed84ff1f838470079dca960e",
}


def oracle_breakdown(g, v, u):
    """Literal enumeration of the five terms with membership tests only.

    Kept deliberately naive (scans every node, looks each pair up in the
    neighbor sets) so it shares no machinery with the block kernel.
    """
    n = g.node_count
    nbrs = neighbor_sets(g)
    common = [z for z in range(n) if z in nbrs[v] and z in nbrs[u]]
    if not common:
        rho = 1 if len(nbrs[v]) == 1 or len(nbrs[u]) == 1 else 0
        return (0, 0, 0, 0, 0, rho)
    term_cn = len(common)
    term_v_side = 0
    term_u_side = 0
    for z in common:
        for w in range(n):
            if w in nbrs[v] and w in nbrs[z]:
                term_v_side += 1
            if w in nbrs[u] and w in nbrs[z]:
                term_u_side += 1
    term_sigma = 0
    term_ww = 0
    for i in range(len(common)):
        for j in range(i + 1, len(common)):
            w, z = common[i], common[j]
            if z in nbrs[w]:
                term_sigma += 1
                for x in range(n):
                    if x in nbrs[w] and x in nbrs[z]:
                        term_ww += 1
    rho = term_cn + term_v_side + term_u_side + term_sigma + term_ww
    return (term_cn, term_v_side, term_u_side, term_sigma, term_ww, rho)


def contributors_oracle(g, v, u):
    """Contributors of (v, u) by membership alone: every node x other
    than v and u that lies in C = N(v) & N(u), in N(w) & (N(v) | N(u))
    for some w in C, or in N(w) & N(z) for some connected pair w, z of C.
    """
    n = g.node_count
    nbrs = neighbor_sets(g)
    common = [w for w in range(n) if w in nbrs[v] and w in nbrs[u]]
    pairs = [(w, z) for w in common for z in common if w < z and z in nbrs[w]]
    members = set()
    for x in range(n):
        if x in (v, u):
            continue
        near = x in nbrs[v] or x in nbrs[u]
        if (
            x in common
            or any(near and x in nbrs[w] for w in common)
            or any(x in nbrs[w] and x in nbrs[z] for w, z in pairs)
        ):
            members.add(x)
    return members


def edge_terms(table, v, u):
    """The five terms and rho of the ordered edge (v, u), as ints."""
    return tuple(table.terms[table.edge(v, u)].tolist())


def breakdown(g, v, u):
    return edge_terms(build_tie_strength_table(g), v, u)


class TestBreakdown:
    def test_two_node_degenerate(self):
        g = graph_from_text("a b")
        assert breakdown(g, 0, 1) == (0, 0, 0, 0, 0, 1)

    def test_degree_one_branch_wins(self):
        # leaf attached to a hub of degree 5: no common neighbors, one
        # endpoint degree 1, so the pair scores 1 rather than 0
        g = graph_from_text("h a\nh b\nh c\nh d\nh leaf\na b")
        assert breakdown(g, g.index("h"), g.index("leaf"))[-1] == 1

    def test_no_common_both_internal(self):
        g = graph_from_text("a b\nb c\nc d\nd a")  # 4-cycle
        table = build_tie_strength_table(g)
        for v, u in g.edges():
            assert edge_terms(table, v, u)[-1] == 0

    def test_k3(self):
        g = complete_graph(3)
        assert breakdown(g, 0, 1) == (1, 1, 1, 0, 0, 3)

    def test_k4(self):
        g = complete_graph(4)
        assert breakdown(g, 0, 1) == (2, 4, 4, 1, 2, 13)

    def test_non_edge_rejected(self):
        g = graph_from_text("a b\nb c")
        with pytest.raises(NotAnEdgeError):
            breakdown(g, g.index("a"), g.index("c"))

    def test_every_index_pair(self):
        # Ends of rows, an empty row (isolated d), self pairs and indices
        # outside the graph: an edge is found, anything else rejected.
        # ``contributors`` rejects exactly the pairs ``table.edge`` does.
        g = graph_from_text("a b\nb c\nc a\nd d\nc e\n")
        table = build_tie_strength_table(g)
        edges = {*g.edges(), *((u, v) for v, u in g.edges())}
        for v in range(-1, g.node_count + 1):
            for u in range(-1, g.node_count + 1):
                if (v, u) in edges:
                    assert edge_terms(table, v, u) == oracle_breakdown(g, v, u)
                    assert contributors(g, v, u) == contributors_oracle(g, v, u)
                else:
                    with pytest.raises(NotAnEdgeError):
                        table.edge(v, u)
                    with pytest.raises(NotAnEdgeError):
                        contributors(g, v, u)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_matches_naive_oracle(self, g):
        table = build_tie_strength_table(g)
        for v, u in g.edges():
            assert edge_terms(table, v, u) == oracle_breakdown(g, v, u)
            assert edge_terms(table, u, v) == oracle_breakdown(g, u, v)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_symmetry(self, g):
        table = build_tie_strength_table(g)
        for v, u in g.edges():
            assert edge_terms(table, v, u)[-1] == edge_terms(table, u, v)[-1]


def heavy_tailed_graph(n, hub_degrees, rng):
    """Preferential attachment, two links per new node, plus hubs.

    Hub i is an extra node linked to ``hub_degrees[i]`` nodes drawn
    uniformly, so a few blocks are far larger than all the others.
    """
    edges = [("0", "1"), ("1", "2"), ("2", "0")]
    ends = [0, 1, 1, 2, 2, 0]
    for v in range(3, n):
        targets = set()
        while len(targets) < 2:
            targets.add(rng.choice(ends))
        for u in targets:
            edges.append((str(v), str(u)))
            ends += [v, u]
    for i, degree in enumerate(hub_degrees):
        edges += [(f"hub{i}", str(u)) for u in rng.sample(range(n), degree)]
    return graph_from_edges(edges)


def star_with_chords(leaves, chords):
    """A star whose first ``chords + 1`` leaves also form a path."""
    edges = [("c", f"l{i}") for i in range(leaves)]
    edges += [(f"l{i}", f"l{i + 1}") for i in range(chords)]
    return graph_from_edges(edges)


def with_isolated_and_leaves(edges, isolated, leaves, rng):
    """``edges`` plus isolated nodes and pendant leaves on random hosts.

    Node 0 keeps its edges: the isolated nodes come after it.
    """
    hosts = sorted({label for edge in edges for label in edge})
    edges = list(edges)
    edges += [(f"iso{i}", f"iso{i}") for i in range(isolated)]
    edges += [(rng.choice(hosts), f"leaf{i}") for i in range(leaves)]
    return graph_from_edges(edges)


@st.composite
def mixed_shapes(draw):
    """Random, star-with-chords, heavy-tailed and leafy graphs."""
    seed = draw(st.integers(0, 2**20))
    rng = random.Random(seed)
    shape = draw(st.sampled_from(["random", "star", "heavy", "leafy"]))
    if shape == "random":
        return draw(random_graphs(max_nodes=24))
    if shape == "star":
        leaves = draw(st.integers(1, 30))
        return star_with_chords(leaves, draw(st.integers(0, leaves - 1)))
    if shape == "heavy":
        n = draw(st.integers(4, 30))
        hubs = draw(st.lists(st.integers(1, n), max_size=3))
        return heavy_tailed_graph(n, hubs, rng)
    n = draw(st.integers(2, 16))
    edges = er_edges(n, draw(st.sampled_from([0.2, 0.5])), rng)
    return with_isolated_and_leaves(
        edges, draw(st.integers(0, 4)), draw(st.integers(0, 6)), rng
    )


def assert_matches_oracle(g):
    table = build_tie_strength_table(g)
    for v, u in zip(g.adjacency.sources().tolist(), g.adjacency.indices.tolist()):
        assert edge_terms(table, v, u) == oracle_breakdown(g, v, u), (v, u)


def greedy_chunks(degree, limit):
    """The degree chunks cut one node at a time (Python's sort is stable)."""
    chunks, current = [], []
    for v in sorted(range(len(degree)), key=degree.__getitem__):
        if current and (len(current) + 1) * degree[v] ** 2 > limit:
            chunks.append(current)
            current = []
        current.append(v)
    return chunks + [current] if current else chunks


def degree_chunks(g):
    return [c.tolist() for c in ties._degree_chunks(np.diff(g.adjacency.indptr))]


class TestBlockKernel:
    """Every ordered edge against the oracle, on graphs whose neighborhood
    blocks differ widely in size."""

    def test_heavy_tailed(self):
        g = heavy_tailed_graph(220, [190, 70, 45], random.Random(5))
        chunks = degree_chunks(g)
        assert len(chunks) >= 4
        assert len(neighbor_sets(g)[chunks[-1][0]]) ** 2 > ties._BLOCK_CELLS
        assert_matches_oracle(g)

    @pytest.mark.parametrize("chords", [0, 40])
    def test_star_300_leaves(self, chords):
        g = star_with_chords(300, chords)
        hub = g.index("c")
        assert len(neighbor_sets(g)[hub]) ** 2 > ties._BLOCK_CELLS
        assert degree_chunks(g)[-1] == [hub]
        assert_matches_oracle(g)

    def test_isolated_nodes_and_leaves(self):
        rng = random.Random(11)
        edges = er_edges(40, 0.15, rng)
        assert_matches_oracle(with_isolated_and_leaves(edges, 5, 12, rng))

    @pytest.mark.parametrize("n", [255, 256, 257, 258])
    def test_complete_graphs_around_uint8(self, n):
        # cn + 1 = n - 1 on every edge: 254 to 257 around the uint8
        # maximum. Each block has width n - 1, so its bound (n - 1)**2 *
        # (n - 2) first passes 2**24 at K258. All ordered edges of K_n are
        # alike: one oracle call.
        g = complete_graph(n)
        table = build_tie_strength_table(g)
        assert (table.terms == oracle_breakdown(g, 0, 1)).all()
        top = int(table.terms[:, 0].max())
        assert ties._marked_dtype(top) == (np.uint8 if n <= 256 else np.uint16)
        assert ties._block_dtype(n - 1, top) == (np.float32 if n <= 257 else np.float64)

    def test_polblogs_memory(self):
        # Measured 3.73 MiB; 3.85 with the degree-224 hub's products
        # taken whole, 4.66 with that and the int64 ``terms`` filled
        # beside ``marked``, 5.1 with ``marked`` alive beside rho and phi,
        # 7.4 with ``marked`` in uint16 and the blocks in float64, 10.4
        # with ``cn + 1`` held in float32.
        g = load_edge_list_path(DATA_DIR / "polblogs.txt")
        _, peak = traced_peak_mib(lambda: build_tie_strength_table(g))
        assert peak < 4.3

    @settings(max_examples=120, deadline=None)
    @given(
        mixed_shapes(),
        st.sampled_from([1, 4, 30, 200, 1 << 15]),
        st.sampled_from([1, 40, 1 << 24]),
    )
    def test_mixed_shapes(self, g, limit, exact):
        # Small limits cut even small graphs into many chunks; small exact
        # bounds send some or all chunks to float64.
        with mock.patch.object(ties, "_BLOCK_CELLS", limit), mock.patch.object(
            ties, "_FLOAT32_EXACT", exact
        ):
            assert_matches_oracle(g)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 40), max_size=60),
        st.sampled_from([1, 4, 30, 200, 1 << 15]),
    )
    # A chunk that fills the limit exactly, and ties that an unstable
    # sort reorders (numpy sorts 16 elements or fewer stably either way).
    @example([1, 1, 1, 1, 1], 4)
    @example([2, 2, 2], 8)
    @example([1, 0] * 12, 1 << 15)
    def test_chunks_match_greedy_cut(self, degree, limit):
        with mock.patch.object(ties, "_BLOCK_CELLS", limit):
            chunks = list(ties._degree_chunks(np.array(degree, dtype=np.int64)))
        assert [c.tolist() for c in chunks] == greedy_chunks(degree, limit)


class TestContributors:
    def test_k3_single_common_neighbor(self):
        g = complete_graph(3)
        assert contributors(g, 0, 1) == {2}

    def test_two_node_empty(self):
        g = graph_from_text("a b")
        assert contributors(g, 0, 1) == frozenset()

    def test_k4(self):
        g = complete_graph(4)
        assert contributors(g, 0, 1) == {2, 3}

    def test_overlap_of_connected_common_pair(self):
        # x touches neither endpoint; it counts through the pair (2, 3)
        g = graph_from_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n2 x\n3 x")
        assert contributors(g, 0, 1) == {2, 3, g.index("x")}

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_excludes_endpoints_and_respects_degenerate_case(self, g):
        table = build_tie_strength_table(g)
        for v, u in g.edges():
            c = contributors(g, v, u)
            assert v not in c and u not in c
            if edge_terms(table, v, u)[0] == 0:
                assert c == frozenset()

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_table_members_match_contributors_on_strong_ties(self, g):
        table = build_tie_strength_table(g)
        for v, u in strong_pairs(table):
            assert table.contributor_members(v, u) == contributors(g, v, u)

    def test_karate_members_match_contributors_on_strong_ties(self, karate):
        table = build_tie_strength_table(karate)
        assert strong_pairs(table)
        for v, u in strong_pairs(table):
            assert table.contributor_members(v, u) == contributors(karate, v, u)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(random_graphs(), mixed_shapes()))
    def test_matches_membership_oracle(self, g):
        for a, b in g.edges():
            for v, u in ((a, b), (b, a)):
                assert contributors(g, v, u) == contributors_oracle(g, v, u), (v, u)

    @pytest.mark.parametrize("name", ["karate", "lesmis"])
    def test_dataset_strong_ties_match_membership_oracle(self, name):
        g = load_edge_list_path(DATA_DIR / f"{name}.txt")
        strong = strong_pairs(build_tie_strength_table(g))
        assert strong
        for v, u in strong:
            assert contributors(g, v, u) == contributors_oracle(g, v, u), (v, u)


class TestTieStrength:
    def test_k3_all_ones(self):
        g = complete_graph(3)
        table = build_tie_strength_table(g)
        for v, u in g.edges():
            assert table.phi[table.edge(v, u)] == 1.0
            assert table.phi[table.edge(u, v)] == 1.0
        assert len(strong_pairs(table)) == 6

    def test_star_both_directions(self):
        g = star_graph(3)
        table = build_tie_strength_table(g)
        c = g.index("c")
        for leaf in neighbor_sets(g)[c]:
            assert table.phi[table.edge(c, leaf)] == 1.0
            assert table.phi[table.edge(leaf, c)] == 1.0

    def test_zero_rho_gives_zero_phi(self):
        g = graph_from_text("a b\nb c\nc d\nd a")  # all rho 0
        table = build_tie_strength_table(g)
        assert all(phi == 0.0 for phi in table.phi)
        assert strong_pairs(table) == set()

    def test_two_node(self):
        g = graph_from_text("a b")
        table = build_tie_strength_table(g)
        assert strong_pairs(table) == {(0, 1), (1, 0)}

    def test_isolated_node_has_empty_row(self):
        g = graph_from_text("a a\nb c")  # the self loop leaves a isolated
        table = build_tie_strength_table(g)
        assert table.row_max[g.index("a")] == 0
        assert strong_pairs(table) == {(1, 2), (2, 1)}

    def test_non_edge_rejected(self):
        g = graph_from_text("a b\nb c")
        table = build_tie_strength_table(g)
        with pytest.raises(NotAnEdgeError):
            table.edge(g.index("a"), g.index("c"))

    def test_karate_hub_pair_is_strong(self, karate):
        table = build_tie_strength_table(karate)
        assert (karate.index("2"), karate.index("1")) in strong_pairs(table)

    @settings(max_examples=50, deadline=None)
    @given(random_graphs())
    def test_range_and_maximality(self, g):
        table = build_tie_strength_table(g)
        strong = strong_pairs(table)
        nbrs = neighbor_sets(g)
        for v in range(g.node_count):
            row = [edge_terms(table, v, u)[-1] for u in nbrs[v]]
            if not row:
                continue
            row_max = max(row)
            assert table.row_max[v] == row_max
            for u in nbrs[v]:
                phi = table.phi[table.edge(v, u)]
                assert 0.0 <= phi <= 1.0
                is_strong = (v, u) in strong
                rho = edge_terms(table, v, u)[-1]
                assert is_strong == (rho == row_max and row_max > 0)
            if row_max > 0:
                assert any((v, u) in strong for u in nbrs[v])

    @settings(max_examples=30, deadline=None)
    @given(random_graphs())
    def test_scale_invariance_of_argmax(self, g):
        # strong ties only depend on which rho is the row maximum, so a
        # positive rescaling of a row must select the same neighbors
        table = build_tie_strength_table(g)
        strong = strong_pairs(table)
        nbrs = neighbor_sets(g)
        for v in range(g.node_count):
            if table.row_max[v] == 0:
                continue
            scaled = {u: 7 * edge_terms(table, v, u)[-1] for u in nbrs[v]}
            top = max(scaled.values())
            winners = {u for u, s in scaled.items() if s == top}
            assert winners == {
                u for u in nbrs[v] if (v, u) in strong
            }


def oracle_dump(table, stream):
    """The row-by-row dump: a tuple-key sort and one writerow per edge."""
    labels = table.graph.labels
    sources = table.graph.adjacency.sources().tolist()
    targets = table.graph.adjacency.indices.tolist()
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


def dumped(table, dump=dump_tie_table):
    buf = io.StringIO()
    dump(table, buf)
    return buf.getvalue()


# Characters csv quoting reacts to, quote-like ones it does not, digits
# (label order differs from numeric order) and non-ASCII letters.
LABEL_ALPHABET = ',"\'0123456789abéßжλ'


@st.composite
def labelled_graphs(draw):
    labels = st.text(LABEL_ALPHABET, max_size=4)
    pairs = draw(st.lists(st.tuples(labels, labels), min_size=1, max_size=30))
    return graph_from_edges(pairs)


class TestDump:
    def test_format_and_sorting(self):
        g = graph_from_text("b a\nb c")
        table = build_tie_strength_table(g)
        buf = io.StringIO()
        dump_tie_table(table, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(TIE_TABLE_COLUMNS)
        assert len(lines) == 1 + 2 * g.edge_count
        pairs = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert pairs == sorted(pairs)

    def test_values_line_up(self):
        g = complete_graph(3)
        table = build_tie_strength_table(g)
        buf = io.StringIO()
        dump_tie_table(table, buf)
        first = buf.getvalue().splitlines()[1].split(",")
        assert first[:2] == ["0", "1"]
        assert first[2:8] == ["1", "1", "1", "0", "0", "3"]
        assert first[8] == "1.000000"

    def test_labels_quoted_like_csv_writer(self):
        g = graph_from_edges([("a,b", '"q"'), ('"q"', "x'y"), ("x'y", "a,b")])
        lines = dumped(build_tie_strength_table(g)).splitlines()[1:]
        assert [line.rsplit(",", 7)[0] for line in lines] == [
            '"""q""","a,b"',
            '"""q""",x\'y',
            '"a,b","""q"""',
            '"a,b",x\'y',
            'x\'y,"""q"""',
            'x\'y,"a,b"',
        ]

    @settings(max_examples=80, deadline=None)
    @given(labelled_graphs())
    # Empty labels, with edges and in an edgeless graph (the header alone).
    @example(graph_from_edges([("", "a"), ("a", "b"), ("b", "")]))
    @example(graph_from_edges([("", ""), ("a", "a")]))
    def test_matches_row_by_row_oracle(self, g):
        table = build_tie_strength_table(g)
        # The dump writes phi as d.dddddd.
        assert ((0 <= table.phi) & (table.phi <= 1)).all()
        assert dumped(table) == dumped(table, oracle_dump)

    def test_dense_graph_with_odd_labels(self):
        # Terms of 10**4 and more take two digit groups; the labels hold
        # quotes, commas, a newline, UTF-8, a NUL, a lone surrogate and
        # one of 300 characters.
        rng = random.Random(24)
        odd = ['a,"b"', "é ßж", "x" * 300, "nul\x00", "line\nbreak", "\ud800", "λ'"]
        names = {str(i): label for i, label in enumerate(odd)}
        edges = [(names.get(a, a), names.get(b, b)) for a, b in er_edges(260, 0.35, rng)]
        table = build_tie_strength_table(graph_from_edges(edges))
        assert table.terms.max() >= 10**4
        assert dumped(table) == dumped(table, oracle_dump)

    @pytest.mark.parametrize(
        "rows, budget",
        [(1, lambda width: 1), (7, lambda width: 7 * width), (7, lambda width: 8 * width - 1)],
    )
    def test_slice_boundaries(self, karate, rows, budget):
        # A row of the matrix: two label fields and six terms, each with
        # its comma, then d.dddddd and the newline. A budget below one
        # row still writes one.
        table = build_tie_strength_table(karate)
        field = max(len(label.encode()) for label in ties._csv_fields(karate.labels))
        groups = -(-len(str(table.terms.max())) // 4)
        width = 2 * (field + 1) + 6 * (4 * groups + 1) + 9
        writes = []
        stream = mock.Mock(write=writes.append)
        with mock.patch.object(ties, "_DUMP_BYTES", budget(width)):
            dump_tie_table(table, stream)
        edges = len(karate.adjacency.indices)
        assert [text.count("\n") for text in writes] == [1] + [rows] * (edges // rows) + (
            [edges % rows] if edges % rows else []
        )
        assert "".join(writes) == dumped(table, oracle_dump)

    @pytest.mark.parametrize("name", sorted(TIE_TABLE_SHA256))
    def test_bundled_datasets_byte_identical(self, name):
        g = load_edge_list_path(DATA_DIR / f"{name}.txt")
        buf = io.StringIO()
        dump_tie_table(build_tie_strength_table(g), buf)
        digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
        assert digest == TIE_TABLE_SHA256[name]


class TestPhiDigits:
    """The dump's phi digits against ``"%.6f"``."""

    @staticmethod
    def check(phi):
        phi = np.asarray(phi, dtype=np.float64)
        out = np.full((len(phi), 8), ord("."), dtype=np.uint8)
        ties._write_phi(out, phi, ties._digit_words()[0])
        assert out.tobytes().decode("ascii") == "".join("%.6f" % x for x in phi.tolist())

    def test_crafted(self):
        # Ends of the range, exact halves (2**-7 * 1e6 = 7812.5) and values
        # whose product with 1e6 lies within an ulp of a half-integer.
        self.check([0.0, 1.0, 2**-7, 1.5e-6, 0.9999995, np.nextafter(0.9999995, 0), 2.5e-6])

    def test_random_ratios(self):
        rng = np.random.default_rng(24)
        m = rng.integers(1, np.tile([2**12, 10**6], 100_000))
        self.check(rng.integers(0, m + 1) / m)
