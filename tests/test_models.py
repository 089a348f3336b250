"""Diffusion model behavior: the cascade rules, RNG discipline, traces."""
from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdiffuse import models
from netdiffuse.errors import InactiveNodeError, UnknownNodeError
from netdiffuse.graph import Adjacency, graph_from_text
from netdiffuse.models import (
    ModelParams,
    cns_activate,
    run_cns,
    run_ic,
    run_si,
)
from netdiffuse.ties import build_tie_strength_table

from conftest import (
    bfs_oracle,
    complete_graph,
    cumulative_sets,
    cycle_graph,
    neighbor_sets,
    random_graphs,
    star_graph,
    strong_pairs,
    trace_key,
)


def check_monotone_and_closed(g, trace, same_round_ok=False):
    """Structural trace checks shared across models.

    Each round is an ascending int64 index array, cumulative sets must
    strictly grow, and every activation must touch the active region:
    strictly earlier nodes normally, same-round neighbors allowed for the
    strong-tie cascade (contributor targets can share a round with the
    pair that pulled them in).
    """
    assert trace.graph is g
    nbrs = neighbor_sets(g)
    seen = {trace.seed}
    counts = []
    for nodes in trace.iterations:
        assert nodes.dtype == np.int64
        assert (np.diff(nodes) > 0).all(), "round not strictly ascending"
        newly = set(nodes.tolist())
        assert newly, "recorded iteration with no activations"
        assert not (newly & seen)
        allowed = seen | newly if same_round_ok else seen
        for v in newly:
            assert any(u in allowed and u != v for u in nbrs[v])
        seen |= newly
        counts.append(len(seen))
    assert counts == sorted(set(counts)), "coverage not strictly increasing"


class TestCnsActivate:
    def test_two_node(self):
        g = graph_from_text("a b")
        table = build_tie_strength_table(g)
        assert cns_activate(table, 0, {0}) == {1}

    def test_all_active_k3(self):
        g = complete_graph(3)
        table = build_tie_strength_table(g)
        assert cns_activate(table, 0, {0, 1, 2}) == set()

    def test_inactive_actor_rejected(self):
        g = graph_from_text("a b")
        table = build_tie_strength_table(g)
        with pytest.raises(InactiveNodeError):
            cns_activate(table, 0, {1})

    # Past the end, and -1, which a label or CSR read would wrap to the
    # last node; active or not, the index is rejected first.
    @pytest.mark.parametrize("v, active", [(9, {0}), (9, {9}), (-1, {-1}), (-1, {0})])
    def test_index_outside_graph_rejected(self, v, active):
        g = graph_from_text("a b\nb c")
        table = build_tie_strength_table(g)
        with pytest.raises(UnknownNodeError, match=f"no node with index {v}$"):
            cns_activate(table, v, active)

    def test_karate_first_step_reaches_partner(self, karate):
        table = build_tie_strength_table(karate)
        v = karate.index("2")
        out = cns_activate(table, v, {v})
        assert karate.index("1") in out

    def test_reverse_strong_tie_pulls_neighbor(self):
        # leaf's only edge points at the hub, so once the hub is active
        # the leaf joins through the reverse direction even though the
        # hub's own strongest tie lies elsewhere
        g = graph_from_text("h a\nh b\nh leaf\na b")
        table = build_tie_strength_table(g)
        h = g.index("h")
        leaf = g.index("leaf")
        assert (h, leaf) not in strong_pairs(table)
        assert (leaf, h) in strong_pairs(table)
        assert leaf in cns_activate(table, h, {h})


class TestRunCns:
    def test_karate_golden_counts(self, karate):
        trace = run_cns(karate, "2")
        assert len(trace.iterations) == 3
        assert [len(s) for s in cumulative_sets(trace)[1:]] == [11, 27, 33]
        assert set(range(karate.node_count)) - cumulative_sets(trace)[-1] == {karate.index("10")}

    def test_two_node_full_coverage(self):
        trace = run_cns(graph_from_text("a b"), "a")
        assert len(trace.iterations) == 1
        assert cumulative_sets(trace)[-1] == {0, 1}

    def test_k3_one_round(self):
        trace = run_cns(complete_graph(3), "0")
        assert len(trace.iterations) == 1
        assert cumulative_sets(trace)[-1] == {0, 1, 2}

    def test_no_strong_ties_means_no_spread(self):
        trace = run_cns(cycle_graph(4), "0")
        assert len(trace.iterations) == 0
        assert cumulative_sets(trace)[-1] == {0}
        assert trace.graph.node_count == 4
        assert not trace.truncated

    def test_unknown_seed(self):
        with pytest.raises(UnknownNodeError):
            run_cns(graph_from_text("a b"), "zz")

    def test_deterministic(self, karate):
        a = run_cns(karate, "2")
        b = run_cns(karate, "2")
        assert trace_key(a) == trace_key(b)

    def test_max_iterations_truncates(self, karate):
        trace = run_cns(karate, "2", max_iterations=1)
        assert len(trace.iterations) == 1
        assert trace.truncated

    def test_third_positional_argument_is_max_iterations(self, karate):
        # The graph alone fixes the cascade: no tie table is passed in.
        assert list(inspect.signature(run_cns).parameters) == ["g", "seed", "max_iterations"]
        capped = run_cns(karate, "2", max_iterations=1)
        assert trace_key(run_cns(karate, "2", 1)) == trace_key(capped)

    @pytest.mark.parametrize("run", [run_cns, run_ic])
    def test_cap_reached_with_every_node_active_is_not_truncation(self, run):
        trace = run(complete_graph(3), "0", max_iterations=1)
        assert cumulative_sets(trace)[-1] == {0, 1, 2}
        assert not trace.truncated

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_structure_and_two_hop_containment(self, g):
        seed = g.label(0)
        trace = run_cns(g, seed)
        check_monotone_and_closed(g, trace, same_round_ok=True)
        # contributor activation can jump past direct neighbors, but
        # never further than two hops per round
        dist = bfs_oracle(g, 0)
        for t, active in enumerate(cumulative_sets(trace)):
            for v in active:
                assert dist[v] <= 2 * t


class TestRunIc:
    def test_karate_golden_counts(self, karate):
        trace = run_ic(karate, "2")
        assert len(trace.iterations) == 3
        assert [len(s) for s in cumulative_sets(trace)[1:]] == [10, 23, 34]

    def test_p1_draws_nothing(self, karate, monkeypatch):
        def no_stream(*args):
            raise AssertionError("ic at p = 1 built a stream")

        monkeypatch.setattr(models, "_stream", no_stream)
        trace = run_ic(karate, "2", ModelParams(ic_probability=1.0, rng_seed=-3), run_index=5)
        dist = bfs_oracle(karate, karate.index("2"))
        assert [set(nodes.tolist()) for nodes in trace.iterations] == [
            {v for v, d in dist.items() if d == t} for t in range(1, max(dist.values()) + 1)
        ]

    def test_zero_probability(self, karate):
        trace = run_ic(karate, "2", ModelParams(ic_probability=0.0))
        assert len(trace.iterations) == 0

    def test_star_center_one_round(self):
        trace = run_ic(star_graph(3), "c")
        assert len(trace.iterations) == 1
        assert cumulative_sets(trace)[-1] == {0, 1, 2, 3}

    def test_unknown_seed(self):
        with pytest.raises(UnknownNodeError):
            run_ic(graph_from_text("a b"), "zz")

    @settings(max_examples=50, deadline=None)
    @given(random_graphs(), st.integers(min_value=0, max_value=10))
    def test_p1_equals_bfs_balls(self, g, src):
        src = src % g.node_count
        trace = run_ic(g, g.label(src))
        dist = bfs_oracle(g, src)
        horizon = len(trace.iterations)
        sets = cumulative_sets(trace)
        for t in range(horizon + 1):
            ball = {v for v, d in dist.items() if d <= t}
            assert sets[t] == ball

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(), st.integers(min_value=0, max_value=3))
    def test_stochastic_reproducible_and_valid(self, g, run_index):
        params = ModelParams(ic_probability=0.5, rng_seed=7)
        a = run_ic(g, g.label(0), params, run_index=run_index)
        b = run_ic(g, g.label(0), params, run_index=run_index)
        assert trace_key(a) == trace_key(b)
        check_monotone_and_closed(g, a)


class TestRunSi:
    def test_beta1_matches_ic_p1(self, karate):
        si = run_si(karate, "2", ModelParams(si_beta=1.0))
        ic = run_ic(karate, "2")
        assert trace_key(si) == trace_key(ic)
        assert not si.truncated

    def test_beta1_draws_nothing(self, karate, monkeypatch):
        def no_stream(*args):
            raise AssertionError("si at beta = 1 built a stream")

        monkeypatch.setattr(models, "_stream", no_stream)
        trace = run_si(karate, "2", ModelParams(si_beta=1.0, rng_seed=-3), run_index=5)
        assert [len(nodes) for nodes in trace.iterations] == [9, 13, 11]

    def test_beta0_truncates_at_cap(self):
        g = graph_from_text("a b\nb c")
        trace = run_si(g, "a", ModelParams(si_beta=0.0))
        assert trace.iterations == ()
        assert trace.truncated
        assert cumulative_sets(trace)[-1] == {0}
        assert trace.graph.node_count == 3

    def test_unreachable_remainder_flags_truncation(self):
        g = graph_from_text("a b\nc d")
        trace = run_si(g, "a", ModelParams(si_beta=1.0))
        assert cumulative_sets(trace)[-1] == {g.index("a"), g.index("b")}
        assert trace.truncated

    @pytest.mark.parametrize("text, seed", [(None, "2"), ("a b\nc d", "a")])
    def test_stops_once_nothing_is_left_to_attempt(self, karate, monkeypatch, text, seed):
        # Neither run can infect anyone after its last recorded round; a
        # loop that went on to the cap would gather rows 10 n times.
        g = karate if text is None else graph_from_text(text)
        calls = 0
        rows = Adjacency.rows

        def counted(self, nodes):
            nonlocal calls
            calls += 1
            return rows(self, nodes)

        monkeypatch.setattr(Adjacency, "rows", counted)
        trace = run_si(g, seed, ModelParams(si_beta=1.0))
        assert calls <= len(trace.iterations) + 2

    def test_explicit_cap_overrides_default(self, karate):
        trace = run_si(karate, "2", ModelParams(si_beta=1.0), max_iterations=1)
        assert len(trace.iterations) == 1
        assert trace.truncated

    def test_unknown_seed(self):
        with pytest.raises(UnknownNodeError):
            run_si(graph_from_text("a b"), "zz")

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(), st.integers(min_value=0, max_value=3))
    def test_reproducible_and_valid(self, g, run_index):
        params = ModelParams(si_beta=0.5, rng_seed=11)
        a = run_si(g, g.label(0), params, run_index=run_index)
        b = run_si(g, g.label(0), params, run_index=run_index)
        assert trace_key(a) == trace_key(b)
        check_monotone_and_closed(g, a)

    def test_different_run_indices_diverge_somewhere(self, karate):
        params = ModelParams(si_beta=0.5, rng_seed=42)
        traces = [run_si(karate, "2", params, run_index=k) for k in range(8)]
        payloads = {repr(trace_key(t)) for t in traces}
        assert len(payloads) > 1

