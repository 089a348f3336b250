"""The strong-tie cascade against its set-based definition.

``SetCascade`` is the cascade written directly from the rule: an active
node activates its strong ties, the contributors of each strong tie that
either endpoint is adjacent to, and the neighbors whose strong tie points
back at it. It enumerates ``contributors`` per tie and shares nothing
with the bitset kernel behind ``reach_digraph``.
"""
from __future__ import annotations

import random
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdiffuse import models, ties
from netdiffuse.errors import InactiveNodeError
from netdiffuse.graph import Adjacency, graph_from_edges, load_edge_list_path
from netdiffuse.harness import DATASET_NAMES
from netdiffuse.models import cns_activate, run_cns
from netdiffuse.ties import build_tie_strength_table, contributors, reach_digraph

from conftest import (
    DATA_DIR, complete_graph, er_edges, neighbor_sets, random_graphs, star_graph, strong_pairs,
    traced_peak_mib,
)


class SetCascade:
    """Set-based cascade over one graph and its tie table."""

    def __init__(self, g, table):
        self.g = g
        self.nbrs = neighbor_sets(g)
        self.strong = strong_pairs(table)
        self._pulled = {}

    def pulled(self, v, u):
        """u and the contributors of the strong tie (v, u) adjacent to v or u."""
        if (v, u) not in self._pulled:
            nv, nu = self.nbrs[v], self.nbrs[u]
            members = contributors(self.g, v, u)
            self._pulled[(v, u)] = {u} | {z for z in members if z in nv or z in nu}
        return self._pulled[(v, u)]

    def activate(self, v, active):
        """What ``v`` activates in one round, minus the active set."""
        strong = self.strong
        targets = set()
        for u in self.nbrs[v]:
            if (v, u) in strong:
                targets |= self.pulled(v, u)
            if u not in active and (u, v) in strong:
                targets.add(u)
        return targets - set(active)

    def run(self, seed, max_iterations=None):
        """(label set of each recorded round, truncated)."""
        s = self.g.index(seed)
        active = {s}
        frontier = [s]
        rounds = []
        truncated = False
        while frontier:
            if max_iterations is not None and len(rounds) >= max_iterations:
                truncated = len(active) < self.g.node_count
                break
            start = frozenset(active)
            newly = set()
            for v in frontier:
                newly |= self.activate(v, start)
            newly -= active
            if not newly:
                break
            rounds.append(newly)
            active |= newly
            frontier = sorted(newly)
        return rounds, truncated


def reach_of(table):
    return reach_digraph(table.graph, table.strong)


def reach_row(reach, v):
    indptr, indices = reach
    return indices[indptr[v] : indptr[v + 1]]


def assert_reach_rows_match(g, reach, oracle):
    assert isinstance(reach, Adjacency)
    assert reach.node_count == g.node_count
    assert reach.indptr[0] == 0 and reach.indptr[-1] == len(reach.indices)
    for v in range(g.node_count):
        row = reach_row(reach, v)
        assert row.dtype == np.int64
        assert (np.diff(row) > 0).all(), v
        assert v not in row, v
        assert set(row.tolist()) == oracle.activate(v, {v}), v


def one_hop_arcs_in_two_hop_balls(g, reach):
    """The reach arcs that join neighbors, after checking that every reach
    arc (v, u) has u in v's two-hop ball: N(v) and N(N(v)), minus v."""
    nbrs = neighbor_sets(g)
    one_hop = 0
    for v in range(g.node_count):
        row = set(reach_row(reach, v).tolist())
        ball = nbrs[v].union(*(nbrs[w] for w in nbrs[v])) - {v}
        assert row <= ball, (v, row - ball)
        one_hop += len(row & nbrs[v])
    return one_hop


def assert_cascade_matches(g, oracle, seed, max_iterations=None):
    trace = run_cns(g, seed, max_iterations)
    rounds, truncated = oracle.run(seed, max_iterations)
    assert [set(nodes.tolist()) for nodes in trace.iterations] == rounds
    assert all((np.diff(nodes) > 0).all() for nodes in trace.iterations)
    assert trace.truncated == truncated


@st.composite
def graphs_with_leaves(draw):
    """A random graph with pendant nodes hung on some of its nodes."""
    g = draw(random_graphs(max_nodes=14))
    edges = [(g.label(v), g.label(u)) for v, u in g.edges()]
    hosts = draw(st.lists(st.integers(0, g.node_count - 1), min_size=1, max_size=5))
    edges += [(g.label(h), f"leaf{i}") for i, h in enumerate(hosts)]
    return graph_from_edges(edges)


cascade_graphs = st.one_of(
    random_graphs(),
    graphs_with_leaves(),
    st.integers(1, 8).map(star_graph),
    st.integers(2, 7).map(complete_graph),
)


class TestReachRows:
    @settings(max_examples=80, deadline=None)
    @given(cascade_graphs, st.sampled_from([1, 40, 1 << 16]))
    def test_rows_match_single_node_activation(self, g, cells):
        # Small unpack bounds build the reach a tie and a row at a time,
        # or a few at a time.
        table = build_tie_strength_table(g)
        with mock.patch.object(ties, "_UNPACK_CELLS", cells):
            assert_reach_rows_match(g, reach_of(table), SetCascade(g, table))

    @settings(max_examples=80, deadline=None)
    @given(cascade_graphs)
    def test_rows_lie_in_two_hop_balls(self, g):
        one_hop_arcs_in_two_hop_balls(g, reach_of(build_tie_strength_table(g)))

    def test_isolated_node_reaches_nothing(self):
        g = graph_from_edges([("a", "a"), ("b", "c")])  # a is isolated
        reach = reach_of(build_tie_strength_table(g))
        a = g.index("a")
        assert len(reach_row(reach, a)) == 0
        assert a not in reach.indices

    def test_word_boundaries(self):
        # rows are packed 8 nodes a byte: these sizes end a row on a
        # byte edge and part way into a byte
        for n in (63, 64, 65, 129):
            rng = random.Random(n)
            g = graph_from_edges(er_edges(n, 0.15, rng))
            table = build_tie_strength_table(g)
            assert_reach_rows_match(g, reach_of(table), SetCascade(g, table))

    def test_polblogs_memory(self):
        # Measured 1.06 MiB; 1.53 with the index blocks concatenated, 3.1
        # with the (ties x n) unpacking, the gather of every common
        # neighbor's row and the n-by-n rows built whole.
        g = load_edge_list_path(DATA_DIR / "polblogs.txt")
        table = build_tie_strength_table(g)
        reach, peak = traced_peak_mib(lambda: reach_of(table))
        assert peak < 1.8
        # Each block of rows fills its stretch of the indices in place, so
        # beyond the CSR and its packed rows only one block's unpacking is
        # alive: measured 0.22 MiB over. Concatenating a list of blocks
        # held them all beside the result, more than the indices' own
        # bytes (0.69 MiB over, with 0.65 MiB of indices).
        own = reach.indptr.nbytes + reach.indices.nbytes + g.bits.nbytes
        assert peak - own / 2**20 < reach.indices.nbytes / 2**20 / 2

    def test_run_cns_frees_scores_before_reach(self, karate):
        # run_cns keeps only the strong-tie mask of the table it builds:
        # no score table is alive while the reach is built.
        tables = []

        def build(g):
            table = build_tie_strength_table(g)
            tables.append(weakref.ref(table))
            return table

        alive = []

        def reach(g, strong):
            alive.extend(table() is not None for table in tables)
            return ties.reach_digraph(g, strong)

        with mock.patch.object(models, "build_tie_strength_table", build), \
                mock.patch.object(models, "reach_digraph", reach):
            run_cns(karate, "2")
        assert alive == [False]

    def test_polblogs_cascade_memory(self):
        # Tie build, reach and cascade together from a freshly loaded
        # graph: measured 3.77 MiB, 4.71 with the hub's block products
        # taken whole and the int64 ``terms`` filled beside ``marked``,
        # 5.2 while ``marked`` outlived its loop, 7.5 before the reach and
        # tie kernel kept their temporaries bounded.
        g = load_edge_list_path(DATA_DIR / "polblogs.txt")
        _, peak = traced_peak_mib(lambda: run_cns(g, "693"))
        assert peak < 4.3

    def test_activate_reads_reach_minus_active(self, karate):
        # cns_activate reads the graph, and the labels of its errors, off
        # the table.
        table = build_tie_strength_table(karate)
        reach = reach_of(table)
        for v in range(karate.node_count):
            row = set(reach_row(reach, v).tolist())
            active = {v, *sorted(row)[:3]}
            assert cns_activate(table, v, active) == row - active
            label = karate.label(v)
            with pytest.raises(InactiveNodeError, match=f"^node {label!r} is not active$"):
                cns_activate(table, v, active - {v})


class TestCascadeTraces:
    @settings(max_examples=80, deadline=None)
    @given(cascade_graphs, st.data())
    def test_matches_set_cascade(self, g, data):
        seed = g.label(data.draw(st.integers(0, g.node_count - 1)))
        max_iterations = data.draw(st.sampled_from([None, 1, 2, 3]))
        oracle = SetCascade(g, build_tie_strength_table(g))
        assert_cascade_matches(g, oracle, seed, max_iterations)


# Every node of the three small datasets seeds a cascade; polblogs gets
# its configured seed and every 97th node.
POLBLOGS_SEED_STEP = 97


@pytest.fixture(scope="module")
def dataset_tables():
    out = {}
    for name in DATASET_NAMES:
        g = load_edge_list_path(DATA_DIR / f"{name}.txt")
        table = build_tie_strength_table(g)
        out[name] = (g, reach_of(table), SetCascade(g, table))
    return out


REACH_ARCS = {"karate": 283, "lesmis": 744, "jazz": 16_677, "polblogs": 85_012}


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_dataset_reach_rows(dataset_tables, name):
    assert_reach_rows_match(*dataset_tables[name])
    assert len(dataset_tables[name][1].indices) == REACH_ARCS[name]


# The share of reach arcs that join neighbors; the rest skip a hop.
ONE_HOP_SHARE = {"karate": 0.48, "lesmis": 0.66, "jazz": 0.31, "polblogs": 0.21}


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_dataset_reach_lies_in_two_hop_balls(dataset_tables, name):
    g, reach, _ = dataset_tables[name]
    one_hop = one_hop_arcs_in_two_hop_balls(g, reach)
    assert round(one_hop / REACH_ARCS[name], 2) == ONE_HOP_SHARE[name]


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_dataset_cascades(dataset_tables, name):
    g, _, oracle = dataset_tables[name]
    if name == "polblogs":
        seeds = ["693"] + [g.label(v) for v in range(0, g.node_count, POLBLOGS_SEED_STEP)]
        caps = (None,)
    else:
        seeds = list(g.labels)
        caps = (None, 1, 2)
    for seed in seeds:
        for cap in caps:
            assert_cascade_matches(g, oracle, seed, cap)


class TestRestrictionIdentity:
    """Contributors adjacent to v or u need no pair-overlap term.

    For C = N(v) & N(u), the contributors of (v, u) that lie in
    N(v) | N(u) are C together with N(w) & (N(v) | N(u)) for w in C,
    minus v and u: a member found through a connected pair (w, z) of C
    lies in N(w), so the single-neighbor term already holds it.
    """

    @staticmethod
    def restricted(g, v, u):
        nbrs = neighbor_sets(g)
        nv, nu = nbrs[v], nbrs[u]
        common = nv & nu
        out = set(common)
        for w in common:
            out |= nbrs[w] & (nv | nu)
        return out - {v, u}

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(random_graphs(), graphs_with_leaves()))
    def test_identity(self, g):
        nbrs = neighbor_sets(g)
        for a, b in g.edges():
            for v, u in ((a, b), (b, a)):
                nvu = nbrs[v] | nbrs[u]
                filtered = contributors(g, v, u) & nvu
                assert filtered == self.restricted(g, v, u)

    def test_pair_overlap_member_outside_both_neighborhoods(self):
        # x counts through the connected pair (2, 3) but touches neither
        # endpoint, so the restriction drops it
        g = graph_from_edges(
            [("0", "1"), ("0", "2"), ("0", "3"), ("1", "2"), ("1", "3"),
             ("2", "3"), ("2", "x"), ("3", "x")]
        )
        x = g.index("x")
        assert x in contributors(g, 0, 1)
        assert self.restricted(g, 0, 1) == {2, 3}
