"""Per-iteration horizon metrics and their internal consistency."""
from __future__ import annotations

import io
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdiffuse.graph import (
    all_pairs_distances,
    average_degree,
    distance_summary,
    graph_from_edges,
    graph_from_text,
    induced_subgraph,
)
from netdiffuse.harness import ExperimentConfig, run_experiment, write_report_csv
from netdiffuse.metrics import METRICS_COLUMNS, evaluate_trace
from netdiffuse.models import (
    DiffusionTrace,
    ModelParams,
    run_cns,
    run_ic,
    run_si,
)

from conftest import complete_graph, cumulative_sets, neighbor_sets, random_graphs


def horizon_distance_oracle(g, members):
    """All finite pairwise distances inside the induced horizon, by a
    dict-and-queue BFS that shares nothing with the bit-packed CSR path."""
    members = sorted(members)
    nbrs = neighbor_sets(g)
    adj = {v: nbrs[v] & set(members) for v in members}
    out = []
    for src in members:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        out.extend(d for node, d in dist.items() if node > src)
    return out


def graph_on(n, edges):
    """Nodes '0'..'n-1' in index order (a self loop each registers the
    label, isolated nodes included) and the given index edges."""
    pairs = [(str(v), str(v)) for v in range(n)]
    return graph_from_edges(pairs + [(str(v), str(u)) for v, u in edges])


@st.composite
def any_graphs(draw, max_nodes: int = 14):
    """Any simple graph on 1..max_nodes nodes: isolated nodes, several
    components and the empty edge set included."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = [(v, u) for v in range(n) for u in range(v + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_on(n, [pair for pair, kept in zip(pairs, keep) if kept])


@st.composite
def sparse_graphs(draw, min_nodes: int = 60, max_nodes: int = 140):
    """Sparse random graphs that span two or three 64-bit words of sources;
    isolated nodes and several components are common."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    mean_degree = draw(st.sampled_from([0.5, 1.5, 3.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**20)))
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(int(mean_degree * n / 2))]
    edges = {(min(pair), max(pair)) for pair in pairs if pair[0] != pair[1]}
    return graph_on(n, sorted(edges))


def two_components_and_isolated(n):
    """A path over every other node, a cycle over the rest, and the
    isolated nodes 0, 63 and n - 1, which sit at word boundaries."""
    isolated = {0, 63 % n, n - 1}
    rest = [v for v in range(n) if v not in isolated]
    path, ring = rest[0::2], rest[1::2]
    edges = list(zip(path, path[1:])) + list(zip(ring, ring[1:] + ring[:1]))
    return graph_on(n, edges)


WORD_BOUNDARY_SHAPES = {
    "path": lambda n: graph_on(n, [(v, v + 1) for v in range(n - 1)]),
    "cycle": lambda n: graph_on(n, [(v, (v + 1) % n) for v in range(n)]),
    "star": lambda n: graph_on(n, [(0, v) for v in range(1, n)]),
    "two_components_and_isolated": two_components_and_isolated,
}


def assert_distances_match_oracles(g):
    """Every distance entry point against networkx and the queue BFS."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.node_count))
    h.add_edges_from(g.edges())
    want = np.full((g.node_count, g.node_count), np.inf)
    for s, lengths in nx.all_pairs_shortest_path_length(h):
        for t, d in lengths.items():
            want[s, t] = d
    finite = [int(want[s, t]) for s, t in zip(*np.triu_indices(g.node_count, 1))
              if np.isfinite(want[s, t])]
    assert sorted(finite) == sorted(horizon_distance_oracle(g, range(g.node_count)))

    assert np.array_equal(all_pairs_distances(g), want)
    summary = (max(finite, default=0), sum(finite), len(finite))
    assert distance_summary(g.adjacency) == summary


class TestDistanceKernel:
    @settings(max_examples=80, deadline=None)
    @given(any_graphs())
    @example(graph_on(1, []))
    @example(graph_on(4, []))
    @example(graph_on(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
    def test_matches_networkx_and_queue_bfs(self, g):
        assert_distances_match_oracles(g)

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
    @pytest.mark.parametrize("shape", sorted(WORD_BOUNDARY_SHAPES))
    def test_word_boundaries(self, shape, n):
        assert_distances_match_oracles(WORD_BOUNDARY_SHAPES[shape](n))

    @settings(max_examples=8, deadline=None)
    @given(sparse_graphs())
    def test_sparse_graphs_over_several_words(self, g):
        assert_distances_match_oracles(g)

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_nodes=16), st.data())
    def test_horizon_rows_match_induced_subgraph(self, g, data):
        joins = data.draw(
            st.lists(st.integers(0, 3), min_size=g.node_count, max_size=g.node_count)
        )
        rounds = [
            np.array([v for v in range(1, g.node_count) if joins[v] == k], dtype=np.int64)
            for k in (1, 2, 3)
        ]
        iterations = tuple(r for r in rounds if len(r))
        trace = DiffusionTrace(g, 0, iterations)
        rows = evaluate_trace(trace, include_initial=True)
        members = {0}
        added = [()] + [r.tolist() for r in iterations]
        assert rows[0].new_active == 0
        for row, nodes in zip(rows, added, strict=True):
            assert row.new_active == len(nodes)
            assert type(row.new_active) is int
            assert dict(zip(METRICS_COLUMNS[5:], row.values()))["cum_active"] == row.horizon_nodes
            members.update(nodes)
            horizon = induced_subgraph(g, members)
            assert row.horizon_nodes == horizon.node_count
            assert row.horizon_edges == horizon.edge_count
            n = horizon.node_count
            if n > 1:
                diameter, total, pairs = distance_summary(horizon.adjacency)
                assert row.density == 2.0 * horizon.edge_count / (n * (n - 1))
                assert row.avg_degree == average_degree(horizon)
                assert row.diameter == diameter
                assert row.avg_distance == (total / pairs if pairs else 0.0)


class TestEvaluateTrace:
    def test_k3_full_coverage_row(self):
        g = complete_graph(3)
        trace = run_cns(g, "0")
        rows = evaluate_trace(trace)
        assert len(rows) == 1
        row = rows[0]
        assert row.coverage == 1.0
        assert row.diameter == 1
        assert row.density == 1.0
        assert row.avg_degree == 2.0

    def test_initial_row_is_all_zeros(self):
        g = graph_from_text("a b\nb c")
        trace = run_cns(g, "a")
        row = evaluate_trace(trace, include_initial=True)[0]
        assert row.iteration == 0
        assert row.horizon_nodes == 1
        assert (row.diameter, row.avg_distance, row.density, row.avg_degree) == (
            0,
            0.0,
            0.0,
            0.0,
        )
        # format_cell writes ints bare and floats to six decimals, so the
        # seed-only row must carry the same types as every other row.
        ints = (row.iteration, row.new_active, row.horizon_nodes, row.horizon_edges,
                row.diameter)
        floats = (row.avg_distance, row.density, row.avg_degree)
        assert [type(v) for v in ints] == [int] * 5
        assert [type(v) for v in floats] == [float] * 3

    def test_karate_cns_horizons(self, karate):
        rows = evaluate_trace(run_cns(karate, "2"))
        assert [(r.horizon_nodes, r.horizon_edges) for r in rows] == [
            (11, 24),
            (27, 61),
            (33, 76),
        ]
        assert [r.diameter for r in rows] == [2, 4, 5]
        assert [round(r.avg_distance, 4) for r in rows] == [1.5636, 2.2906, 2.4148]

    @settings(max_examples=30, deadline=None)
    @given(random_graphs())
    def test_consistency_and_monotonicity(self, g):
        trace = run_si(g, g.label(0), ModelParams(si_beta=0.6, rng_seed=5))
        rows = evaluate_trace(trace)
        previous = None
        for row in rows:
            assert abs(row.avg_degree - row.density * (row.horizon_nodes - 1)) <= 1e-9
            assert row.coverage == row.horizon_nodes / g.node_count
            if previous is not None:
                assert row.horizon_nodes >= previous.horizon_nodes
                assert row.horizon_edges >= previous.horizon_edges
                assert row.coverage >= previous.coverage
            previous = row

    @settings(max_examples=20, deadline=None)
    @given(random_graphs(max_nodes=16))
    def test_distances_match_queue_bfs(self, g):
        trace = run_ic(g, g.label(0))
        members = cumulative_sets(trace)[-1]
        rows = evaluate_trace(trace)
        if not rows:
            return
        finite = horizon_distance_oracle(g, members)
        last = rows[-1]
        if finite:
            assert last.diameter == max(finite)
            assert last.avg_distance == pytest.approx(sum(finite) / len(finite))


class TestSummarizeSpeed:
    """Spreading speed as the trace reports it: rounds and final coverage."""

    def test_karate(self, karate):
        trace = run_cns(karate, "2")
        assert len(trace.iterations) == 3
        assert len(cumulative_sets(trace)[-1]) / karate.node_count == pytest.approx(33 / 34)

    def test_no_spread(self):
        g = graph_from_text("a b\nb c\nc d\nd a")
        trace = run_cns(g, "a")
        assert len(trace.iterations) == 0
        assert len(cumulative_sets(trace)[-1]) / g.node_count == 0.25


class TestCsvCells:
    def test_column_order_is_fixed(self):
        assert METRICS_COLUMNS == (
            "dataset",
            "model",
            "run",
            "seed_node",
            "iteration",
            "new_active",
            "cum_active",
            "coverage",
            "diameter",
            "avg_distance",
            "density",
            "avg_degree",
        )

    def test_formatting(self, data_dir):
        report = run_experiment(ExperimentConfig(data_dir / "karate.txt", "cns", "2"))
        out = io.StringIO()
        write_report_csv(report, out)
        cells = out.getvalue().splitlines()[1].split(",")
        assert cells == [
            "karate",
            "cns",
            "1",
            "2",
            "1",
            "10",
            "11",
            "0.323529",
            "2",
            "1.563636",
            "0.436364",
            "4.363636",
        ]
