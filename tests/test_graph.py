"""Graph construction, loading, traversal and whole-graph metrics."""
from __future__ import annotations

import dataclasses
import io
import math
import os
import random
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdiffuse import graph as graph_module
from netdiffuse.errors import (
    EdgeListParseError,
    EmptyInputError,
    GraphError,
    UnknownNodeError,
)
from netdiffuse.graph import (
    Adjacency,
    Graph,
    all_pairs_distances,
    average_degree,
    distance_summary,
    graph_from_edges,
    graph_from_text,
    induced_subgraph,
    largest_connected_component,
    load_edge_list,
    load_edge_list_path,
    packed_rows,
    serialize_edge_list,
    unpack_rows,
)
from netdiffuse.metrics import evaluate_trace
from netdiffuse.models import ModelParams, run_cns, run_ic
from netdiffuse.ties import build_tie_strength_table, dump_tie_table, reach_digraph

from conftest import (
    bfs_oracle, complete_graph, cycle_graph, er_graph, neighbor_sets, path_graph,
    random_graphs, run_python, traced_peak_mib,
)


def distance_summary_oracle(g):
    """(diameter, distance sum, pair count) from ``bfs_oracle``."""
    finite = [
        d for v in range(g.node_count) for u, d in bfs_oracle(g, v).items() if u > v
    ]
    return max(finite, default=0), sum(finite), len(finite)


def floyd_warshall_oracle(g):
    n = g.node_count
    inf = math.inf
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for v, u in g.edges():
        d[v][u] = d[u][v] = 1
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            for j in range(n):
                if dik + d[k][j] < d[i][j]:
                    d[i][j] = dik + d[k][j]
    return d


class TestLoading:
    def test_dedup_and_self_loop(self):
        g = graph_from_text("a b\nb a\na a")
        assert g.node_count == 2
        assert g.edge_count == 1

    def test_malformed_line_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            graph_from_text("1 2 3")
        assert exc.value.line_number == 1

    def test_malformed_later_line(self):
        with pytest.raises(EdgeListParseError) as exc:
            graph_from_text("a b\n# fine\nxyz")
        assert exc.value.line_number == 3

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            graph_from_text("# only a comment\n\n")

    def test_comments_and_blanks_skipped(self):
        g = graph_from_text("# header\n\na b\n\n# mid\nb c\n")
        assert g.node_count == 3
        assert g.edge_count == 2

    def test_first_appearance_order(self):
        g = graph_from_text("z y\na z\n")
        assert g.labels == ("z", "y", "a")

    def test_bytes_stream(self):
        g = load_edge_list(io.BytesIO(b"a b\nb c\n"))
        assert g.edge_count == 2

    def test_invalid_utf8_is_parse_error(self):
        with pytest.raises(EdgeListParseError, match="line 2: not valid UTF-8"):
            load_edge_list(io.BytesIO(b"a b\n\xff c\n"))

    @pytest.mark.parametrize(
        "lines, line_number",
        [([b"a b\n", b"x y z\n"], 2), ([b"a b\n", b"\xff c\n"], 2), (["# c\n", "x\n"], 2)],
    )
    def test_stops_reading_at_first_malformed_line(self, lines, line_number):
        def stream():
            yield from lines
            raise AssertionError("read past the first malformed line")

        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(stream())
        assert exc.value.line_number == line_number

    def test_label_roundtrip(self):
        g = graph_from_text("a b\nb c")
        for v in range(g.node_count):
            assert g.index(g.label(v)) == v
        with pytest.raises(UnknownNodeError):
            g.index("nope")

    def test_karate_counts(self, karate):
        assert karate.node_count == 34
        assert karate.edge_count == 78

    def test_labels_and_csr_only(self, data_dir):
        # Loading, components and induced graphs build no label map; that
        # view, the only one, appears on first use. The tie layer packs
        # its own adjacency rows and leaves nothing on the graph.
        assert [f.name for f in dataclasses.fields(Graph)] == ["labels", "adjacency"]
        g = largest_connected_component(load_edge_list_path(data_dir / "polblogs.txt"))
        induced_subgraph(g, range(0, g.node_count, 2))
        assert not set(vars(g)) - {"labels", "adjacency"}
        g.index(g.label(1))
        table = build_tie_strength_table(g)
        run_cns(g, g.label(0))
        reach_digraph(g, table.strong)
        dump_tie_table(table, io.StringIO())
        assert set(vars(g)) == {"labels", "adjacency", "_index_of"}


def as_stream(kind, text):
    return io.StringIO(text) if kind == "str" else io.BytesIO(text.encode())


@pytest.mark.parametrize("kind", ["str", "bytes"])
class TestLineRule:
    """A line ends at ``\\n`` and nowhere else: form feeds, bare carriage
    returns, NEL and the other characters ``str.splitlines`` also breaks
    at are whitespace inside a line."""

    @pytest.mark.parametrize(
        "text, line_number, message",
        [
            ("a b\x0cc\n", 1, "got 3: 'a b\\x0cc'"),
            ("a b\n\x85c d e\n", 2, "got 3"),
            ("a b\rb c\r", 1, "got 4: 'a b\\rb c'"),
        ],
    )
    def test_rejected_on_line(self, kind, text, line_number, message):
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(as_stream(kind, text))
        assert exc.value.line_number == line_number
        assert message in str(exc.value)

    @pytest.mark.parametrize(
        "text, edges",
        [
            ("a\x0cb\n", [("a", "b")]),
            ("a b\r\nb c\r\n", [("a", "b"), ("b", "c")]),
            ("a b\n b c\n", [("a", "b"), ("b", "c")]),
            # A byte-order mark before line 1 is dropped, one only; U+FEFF
            # anywhere else is label text.
            ("\ufeff# karate\na b\n", [("a", "b")]),
            ("\ufeffa b\n", [("a", "b")]),
            ("\ufeff\ufeffa b\n", [("\ufeffa", "b")]),
            ("a b\n\ufeffb c\n", [("a", "b"), ("\ufeffb", "c")]),
            ("a \ufeffb\n", [("a", "\ufeffb")]),
        ],
    )
    def test_loads(self, kind, text, edges):
        g = load_edge_list(as_stream(kind, text))
        assert [(g.label(v), g.label(u)) for v, u in g.edges()] == edges


class TestSerialize:
    def test_format(self):
        g = graph_from_text("b a\nc b")
        assert serialize_edge_list(g) == "a b\nb c\n"

    @settings(max_examples=50, deadline=None)
    @given(random_graphs())
    def test_roundtrip(self, g):
        back = graph_from_text(serialize_edge_list(g))
        assert {frozenset((g.label(v), g.label(u))) for v, u in g.edges()} == {
            frozenset((back.label(v), back.label(u))) for v, u in back.edges()
        }
        assert back.edge_count == g.edge_count

    def test_hash_leading_label_goes_second(self):
        # "#b a" would reload as a comment line.
        g = graph_from_text("a #b\nc ##\ne# #b\n")
        text = serialize_edge_list(g)
        assert text == "a #b\nc ##\ne# #b\n"
        assert graph_from_text(text) == g

    @pytest.mark.parametrize(
        "pair",
        [("#a", "#b"), ("", "b"), ("a b", "c"), ("a", "b\tc"), ("a", "b\x0cc")],
    )
    def test_label_not_one_token_rejected(self, pair):
        with pytest.raises(GraphError, match="cannot be written"):
            serialize_edge_list(graph_from_edges([pair]))


class TestTraversal:
    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_nodes=14))
    def test_all_pairs_matches_floyd_warshall(self, g):
        got = all_pairs_distances(g)
        want = floyd_warshall_oracle(g)
        for i in range(g.node_count):
            for j in range(g.node_count):
                if math.isinf(want[i][j]):
                    assert math.isinf(got[i][j])
                else:
                    assert got[i][j] == want[i][j]


def components_oracle(g):
    """Components by a dict-and-queue BFS over ``edges()``, as sorted
    lists ordered by smallest member."""
    adjacent = {v: [] for v in range(g.node_count)}
    for v, u in g.edges():
        adjacent[v].append(u)
        adjacent[u].append(v)
    seen = set()
    components = []
    for start in range(g.node_count):
        if start in seen:
            continue
        members = {start}
        queue = deque([start])
        while queue:
            for u in adjacent[queue.popleft()]:
                if u not in members:
                    members.add(u)
                    queue.append(u)
        seen |= members
        components.append(sorted(members))
    return components


@st.composite
def graphs_with_isolates(draw, max_nodes: int = 16):
    """Nodes 0..n-1 in index order (a self loop each registers the label),
    any edges among them: isolated nodes and equal-size components occur."""
    n = draw(st.integers(1, max_nodes))
    ends = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
    pairs = [(str(v), str(v)) for v in range(n)] + [(str(v), str(u)) for v, u in edges]
    return graph_from_edges(pairs)


class TestComponents:
    @settings(max_examples=200, deadline=None)
    @given(graphs_with_isolates())
    def test_label_propagation_matches_bfs_oracle(self, g):
        want = components_oracle(g)
        lcc = largest_connected_component(g)
        # max keeps the first largest: the one holding the smallest index.
        assert lcc == induced_subgraph(g, max(want, key=len))
        assert (lcc is g) == (len(want) == 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_long_shuffled_paths(self, seed):
        # A path whose indices zigzag needs many propagation passes.
        rng = random.Random(seed)
        order = list(range(300))
        rng.shuffle(order)
        pairs = [(str(v), str(v)) for v in range(300)]
        pairs += [(str(a), str(b)) for a, b in zip(order, order[1:]) if b != order[150]]
        g = graph_from_edges(pairs)
        assert largest_connected_component(g) == induced_subgraph(
            g, max(components_oracle(g), key=len)
        )

    def test_equal_sizes_smallest_index_wins(self):
        pairs = [(x, x) for x in "abcdef"] + [("b", "c"), ("a", "d"), ("e", "f")]
        g = graph_from_edges(pairs)
        assert components_oracle(g) == [[0, 3], [1, 2], [4, 5]]
        lcc = largest_connected_component(g)
        assert lcc == induced_subgraph(g, [0, 3])
        assert lcc.labels == ("a", "d")

    def test_single_isolated_node_is_connected(self):
        g = graph_from_edges([("a", "a")])
        assert largest_connected_component(g) is g

    def test_two_triangles_tie_break(self):
        g = graph_from_text("a b\nb c\nc a\nd e\ne f\nf d")
        lcc = largest_connected_component(g)
        assert sorted(lcc.labels) == ["a", "b", "c"]

    def test_size_dominance(self):
        g = graph_from_text("a b\na c\na d\nb c\nb d\nc d\nx y")
        lcc = largest_connected_component(g)
        assert set(lcc.labels) == {"a", "b", "c", "d"}
        assert lcc.edge_count == 6

    def test_connected_graph_unchanged(self, karate):
        lcc = largest_connected_component(karate)
        assert lcc.labels == karate.labels
        assert lcc.edge_count == karate.edge_count

    def test_connected_graph_returned_as_is(self, karate):
        assert largest_connected_component(karate) is karate

    @settings(max_examples=50, deadline=None)
    @given(random_graphs())
    def test_equals_induced_subgraph(self, g):
        components = components_oracle(g)
        lcc = largest_connected_component(g)
        assert lcc == induced_subgraph(g, max(components, key=len))
        assert (lcc is g) == (len(components) == 1)


class TestInducedSubgraph:
    def test_drops_outside_edges(self):
        g = graph_from_text("a b\nb c\nc a\nc d")
        sub = induced_subgraph(g, [g.index("a"), g.index("b"), g.index("d")])
        assert set(sub.labels) == {"a", "b", "d"}
        assert sub.edge_count == 1

    def test_unknown_node(self):
        g = graph_from_text("a b")
        with pytest.raises(UnknownNodeError):
            induced_subgraph(g, [0, 5])

    @settings(max_examples=100, deadline=None)
    @given(graphs_with_isolates(), st.data())
    def test_equals_graph_built_directly(self, g, data):
        members = data.draw(st.sets(st.integers(0, g.node_count - 1)))
        sub = induced_subgraph(g, members)
        # Self loops fix the label order; the edges follow in any order.
        pairs = [(x, x) for x in sub.labels]
        pairs += [(sub.label(u), sub.label(v)) for v, u in sub.edges()][::-1]
        direct = graph_from_edges(pairs)
        assert direct == sub
        assert hash(direct) == hash(sub)
        assert (sub == g) == (len(members) == g.node_count)


def independent_set(g):
    """Greedy set of pairwise non-adjacent nodes, in index order."""
    nbrs = neighbor_sets(g)
    members = []
    for v in range(g.node_count):
        if not any(u in nbrs[v] for u in members):
            members.append(v)
    return members


def induced_rows_oracle(g, members):
    """CSR arrays of the subgraph on ``members``, from ``edges()`` and lists."""
    remap = {old: new for new, old in enumerate(sorted(set(members)))}
    rows = [[] for _ in remap]
    for v, u in g.edges():
        if v in remap and u in remap:
            rows[remap[v]].append(remap[u])
            rows[remap[u]].append(remap[v])
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return indptr, [u for row in rows for u in sorted(row)]


@st.composite
def arc_key_sets(draw):
    """(n, ascending distinct keys v * n + u of arcs without self arcs)."""
    n = draw(st.integers(1, 12))
    arcs = [v * n + u for v in range(n) for u in range(n) if v != u]
    keys = draw(st.sets(st.sampled_from(arcs))) if arcs else set()
    return n, sorted(keys)


class TestAdjacencyFromKeys:
    """``Adjacency.from_keys`` against rows filled one key at a time."""

    @staticmethod
    def check(n, keys):
        rows = [[] for _ in range(n)]
        for key in keys:
            rows[key // n].append(key % n)
        got = Adjacency.from_keys(np.array(keys, dtype=np.int64), n)
        assert got.indptr.dtype == got.indices.dtype == np.int64
        assert got.indptr.tolist() == np.cumsum([0] + [len(row) for row in rows]).tolist()
        assert got.indices.tolist() == [u for row in rows for u in row]
        assert got.node_count == n

    @pytest.mark.parametrize(
        "n, keys",
        [(1, []), (3, []), (3, [5]), (4, [1, 2, 3, 14]), (4, [4, 6, 7, 9])],
    )
    def test_empty_rows(self, n, keys):
        # Empty first, middle and last rows, and a single node.
        self.check(n, keys)

    @settings(max_examples=100, deadline=None)
    @given(arc_key_sets())
    def test_any_key_set(self, n_keys):
        self.check(*n_keys)


class TestInducedAdjacency:
    """``g.adjacency.induced(members)`` and ``induced_subgraph`` both equal
    a list-built CSR of the subgraph, array for array."""

    @staticmethod
    def induced(g, members):
        indptr, indices = induced_rows_oracle(g, members)
        got = g.adjacency.induced(members)
        for csr in (got, induced_subgraph(g, members).adjacency):
            assert csr.indptr.tolist() == indptr.tolist()
            assert csr.indices.tolist() == indices
        return got

    def test_unsorted_members(self, karate):
        got = self.induced(karate, [30, 2, 0, 17, 33, 8, 1])
        assert got.node_count == 7

    def test_duplicate_members(self, karate):
        got = self.induced(karate, [5, 0, 5, 16, 6, 0, 6])
        assert got.node_count == 4

    def test_no_internal_edges(self, karate):
        members = independent_set(karate)
        got = self.induced(karate, members[::-1])
        assert got.node_count == len(members) > 1
        assert len(got.indices) == 0
        assert distance_summary(got) == (0, 0, 0)

    def test_empty_rows_between_edges(self):
        # Node a has no neighbor inside, so the first CSR row is empty.
        g = graph_from_text("a b\nb c\nc d\nd e\ne f")
        got = self.induced(g, [4, 0, 2, 3])
        assert got.indptr.tolist() == [0, 0, 1, 3, 4]
        assert distance_summary(got) == (2, 4, 3)

    def test_every_node_gives_the_adjacency_itself(self, karate):
        members = list(range(karate.node_count))[::-1]
        assert self.induced(karate, members) is karate.adjacency

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_nodes=30), st.data())
    def test_any_member_list(self, g, data):
        members = data.draw(
            st.lists(st.integers(0, g.node_count - 1), min_size=1, max_size=40)
        )
        self.induced(g, members)

    @pytest.mark.parametrize(
        "members, bad",
        [([-1, 1], -1), ([3], 3), ([2, 0, 3, 1], 3), ([1, -2, 2, 7], -2)],
    )
    def test_out_of_range_member(self, members, bad):
        g = graph_from_text("a b\nb c\n")
        for induce in (g.adjacency.induced, lambda m: induced_subgraph(g, m)):
            with pytest.raises(UnknownNodeError, match=f"^no node with index {bad}$"):
                induce(members)


def test_imports_load_no_scipy():
    """The package, the CLI and the graph layer start on numpy alone."""
    code = (
        "import sys, netdiffuse, netdiffuse.cli, netdiffuse.graph\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    assert run_python(code) == "[]"


def test_commands_do_not_import_numpy_ma(data_dir, tmp_path):
    """``reproduce`` and ``tie-table`` never import numpy.ma, which
    ``np.unique`` imports on first call."""
    code = (
        "import sys\n"
        "from netdiffuse.cli import main\n"
        "data, out = sys.argv[1:]\n"
        "assert main(['reproduce', '--data-dir', data, '--out-dir', out + '/repro',\n"
        "             '--seeds', data + '/seeds_example.txt']) == 0\n"
        "assert main(['tie-table', '--graph', data + '/polblogs.txt',\n"
        "             '--out', out + '/ties.csv']) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    assert run_python(code, data_dir, tmp_path).splitlines()[-1] == "False"


class TestMemoryBudget:
    """Peak traced memory of the polblogs graph kernels. Measured: the
    loader 1.18 MiB (1.42 with the whole text read and cut a slice at a
    time, 1.7 with a list of every line, 4.6 with a list of every token),
    the whole-graph BFS 0.89 MiB, its level 1 built by ``packed_rows``
    (0.95 with its own level-1 index expression, which held three int64
    temporaries of arc length at once where ``packed_rows`` holds two;
    2.47 with 2 MiB gather slices, 5.9 with one gather of all word rows,
    2.72 with a copy of the gathered row indices at every level): its
    gather slice, one word row of 33,436 words (0.26 MiB), plus the
    frontier, the unfinished columns' unseen bits and the gather's
    output. The tie-table dump 1.21 MiB, with the digit tables it builds
    on every call (0.83 without them, 4.33 with one ``%`` format per
    row, 5.44 with 1 MiB slices)."""

    def test_loader(self, data_dir):
        _, peak = traced_peak_mib(lambda: load_edge_list_path(data_dir / "polblogs.txt"))
        assert peak < 1.3

    def test_distance_summary(self, data_dir):
        g = load_edge_list_path(data_dir / "polblogs.txt")
        _, peak = traced_peak_mib(lambda: distance_summary(g.adjacency))
        assert peak < 1.2

    def test_tie_table_dump(self, data_dir):
        table = build_tie_strength_table(load_edge_list_path(data_dir / "polblogs.txt"))
        with open(os.devnull, "w", encoding="utf-8", newline="") as sink:
            _, peak = traced_peak_mib(lambda: dump_tie_table(table, sink))
        assert peak < 2.0


class TestWholeGraphMetrics:
    """``distance_summary`` is (diameter, distance sum, pair count) over
    unordered connected pairs."""

    def test_path_graph(self):
        g = path_graph(4)
        assert distance_summary(g.adjacency) == (3, 10, 6)

    def test_complete_graph(self):
        g = complete_graph(5)
        # all 10 pairs adjacent: diameter 1, density 1
        assert distance_summary(g.adjacency) == (1, 10, 10)
        assert average_degree(g) == 4.0

    def test_cycle(self):
        g = cycle_graph(6)
        # each node sees 1, 1, 2, 2, 3
        assert distance_summary(g.adjacency) == (3, 27, 15)

    def test_disconnected_pairs_excluded(self):
        # two triangles: every connected pair is at distance 1
        g = graph_from_text("a b\nb c\nc a\nd e\ne f\nf d")
        assert distance_summary(g.adjacency) == (1, 6, 6)

    def test_karate_table_values(self, karate):
        assert average_degree(karate) == pytest.approx(4.59, abs=0.01)
        # An ic run at p = 1 ends on the whole (connected) graph.
        whole = evaluate_trace(run_ic(karate, "1", ModelParams(1.0)))[-1]
        assert whole.coverage == 1.0
        assert whole.density == pytest.approx(0.1390, abs=0.0001)

    @settings(max_examples=50, deadline=None)
    @given(random_graphs())
    def test_degree_density_relation(self, g):
        # avg degree = density * (n - 1), density counted pair by pair:
        # the same identity the horizon metrics are later held to
        n = g.node_count
        nbrs = neighbor_sets(g)
        adjacent = sum(u in nbrs[v] for v in range(n) for u in range(n) if v != u)
        assert average_degree(g) == pytest.approx(adjacent / (n * (n - 1)) * (n - 1))

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_nodes=12))
    def test_diameter_is_max_finite_distance(self, g):
        assert distance_summary(g.adjacency) == distance_summary_oracle(g)


class TestGatherSlices:
    """``distance_summary`` against the BFS oracle with the neighbor
    gather cut into slices of one word row, of two (uneven on three
    rows), and of every row at once."""

    @staticmethod
    def check(g, rows):
        limit = rows * len(g.adjacency.indices)
        with mock.patch.object(graph_module, "_GATHER_WORDS", limit):
            assert distance_summary(g.adjacency) == distance_summary_oracle(g)

    @pytest.mark.parametrize("rows", [1, 2, 64])
    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    def test_word_boundaries(self, n, rows):
        self.check(er_graph(n, 3 / n, random.Random(n)), rows)

    @settings(max_examples=20, deadline=None)
    @given(random_graphs(max_nodes=140), st.sampled_from([1, 2, 64]))
    def test_random_graphs(self, g, rows):
        self.check(g, rows)


class TestGatherWork:
    """Words of neighbor columns the all-sources BFS gathers: level 1 is
    read from the CSR, and a finished column leaves the search."""

    @staticmethod
    def gathered_words(adjacency):
        words = []
        gather = graph_module._gather_or

        def counted(frontier, columns, starts):
            words.append(len(frontier) * len(columns))
            return gather(frontier, columns, starts)

        with mock.patch.object(graph_module, "_gather_or", counted):
            distance_summary(adjacency)
        return words

    def test_empty_sphere_finishes_a_column(self):
        # Triangle columns never hold the 70-node path's sources; level 2
        # reaches nothing new for them, so only it gathers their 6 row
        # entries. Path columns leave one level after their farthest
        # source, the ends after level 70, all without ever being full.
        path = [(f"p{v}", f"p{v + 1}") for v in range(69)]
        g = graph_from_edges([("a", "b"), ("b", "c"), ("c", "a"), *path])
        words = self.gathered_words(g.adjacency)  # 2 word rows of sources
        assert words[:3] == [2 * (6 + 138), 2 * 138, 2 * 138]
        assert len(words) == 69

    def test_complete_graph_gathers_nothing(self):
        # Every column holds every source after level 1.
        assert self.gathered_words(complete_graph(65).adjacency) == []

    def test_polblogs(self, data_dir):
        # Levels 2 and 3 gather every row. 1,214 of the 1,224 columns hold
        # every source after level 3, so level 4 gathers the 10 left and
        # no level 5 runs; a search that kept every column would gather 5.
        adjacency = load_edge_list_path(data_dir / "polblogs.txt").adjacency
        whole = -(-adjacency.node_count // 64) * len(adjacency.indices)
        assert sum(self.gathered_words(adjacency)) <= 2.1 * whole


@st.composite
def digraphs(draw, max_nodes: int = 140):
    """(n, arcs) of a random digraph without self arcs on 1..max_nodes
    nodes: dense ones reach every source, sparse ones stop short."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    p = draw(st.sampled_from([0.01, 0.05, 0.3]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**20)))
    return n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]


def in_rows(n, arcs):
    """The adjacency whose row v lists the tails u of the arcs u -> v."""
    keys = np.array(sorted(v * n + u for u, v in arcs), dtype=np.int64)
    return Adjacency.from_keys(keys, n)


def ring(n):
    """A cycle on n nodes (one node alone for n = 1): its rows end on and
    just past 64-bit word boundaries."""
    return graph_from_edges([(str(i), str(i + 1)) for i in range(n - 1)] + [("0", str(n - 1))])


class TestAdjacencyBits:
    """``packed_rows`` against ``np.packbits`` of the dense adjacency, and
    back through ``unpack_rows``; the all-sources BFS's first frontier is
    the same rows as words, transposed."""

    @staticmethod
    def check(g):
        n = g.node_count
        dense = np.zeros((n, 64 * -(-n // 64)), dtype=bool)
        for v, u in g.edges():
            dense[v, u] = dense[u, v] = True
        rows = packed_rows(g.adjacency)
        assert rows.dtype == np.uint8
        assert np.array_equal(rows, np.packbits(dense, axis=1, bitorder="little"))
        assert np.array_equal(unpack_rows(rows, n), dense[:, :n])

    @staticmethod
    def check_first_frontier(adjacency):
        first = next(graph_module._bfs_levels(adjacency), None)
        if len(adjacency.indices) == 0:
            assert first is None
            return
        level, frontier = first
        assert level == 1 and frontier.dtype == np.uint64
        assert np.array_equal(frontier, packed_rows(adjacency).view(np.uint64).T)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    def test_word_boundaries(self, n):
        self.check(ring(n))

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_nodes=70))
    def test_random_graphs(self, g):
        self.check(g)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    def test_first_frontier_word_boundaries(self, n):
        self.check_first_frontier(ring(n).adjacency)

    @settings(max_examples=40, deadline=None)
    @given(digraphs())
    def test_first_frontier_digraphs(self, digraph):
        self.check_first_frontier(in_rows(*digraph))


class TestDirectedRows:
    """``_bfs_levels`` on in-neighbor rows of a digraph, level by level,
    against a queue BFS along the arcs from each source."""

    @settings(max_examples=40, deadline=None)
    @given(digraphs())
    def test_levels_match_queue_bfs(self, digraph):
        n, arcs = digraph
        adjacency = in_rows(n, arcs)
        out = [[] for _ in range(n)]
        for u, v in arcs:
            out[u].append(v)
        want = {}
        for s in range(n):
            dist = {s: 0}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for v in out[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            for v, d in dist.items():
                if d:
                    want.setdefault(d, set()).add((s, v))
        got = {}
        for level, frontier in graph_module._bfs_levels(adjacency):
            bits = unpack_rows(np.ascontiguousarray(frontier.T).view(np.uint8), n)
            got[level] = {(int(s), int(v)) for v, s in zip(*np.nonzero(bits))}
        assert got == want


def test_er_generator_is_deterministic():
    a = er_graph(12, 0.3, random.Random(7))
    b = er_graph(12, 0.3, random.Random(7))
    assert serialize_edge_list(a) == serialize_edge_list(b)
