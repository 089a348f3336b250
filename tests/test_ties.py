"""Common-neighborhood scoring, tie strength and the strong-tie set."""
from __future__ import annotations

import hashlib
import io

import pytest
from hypothesis import given, settings

from netdiffuse.errors import NotAnEdgeError
from netdiffuse.graph import graph_from_text, load_edge_list_path
from netdiffuse.ties import (
    TIE_TABLE_COLUMNS,
    build_tie_strength_table,
    contributors,
    dump_tie_table,
    tie_strength,
)

from conftest import DATA_DIR, complete_graph, random_graphs, star_graph

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

    Kept deliberately naive (scans every node, asks has_edge) so it
    shares no machinery with the set-intersection implementation.
    """
    n = g.node_count
    common = [z for z in range(n) if g.has_edge(v, z) and g.has_edge(u, z)]
    if not common:
        rho = 1 if g.degree(v) == 1 or g.degree(u) == 1 else 0
        return (0, 0, 0, 0, 0, rho)
    term_cn = len(common)
    term_v_side = 0
    term_u_side = 0
    for z in common:
        for w in range(n):
            if g.has_edge(v, w) and g.has_edge(z, w):
                term_v_side += 1
            if g.has_edge(u, w) and g.has_edge(z, w):
                term_u_side += 1
    term_sigma = 0
    term_ww = 0
    for i in range(len(common)):
        for j in range(i + 1, len(common)):
            w, z = common[i], common[j]
            if g.has_edge(w, z):
                term_sigma += 1
                for x in range(n):
                    if g.has_edge(w, x) and g.has_edge(z, x):
                        term_ww += 1
    rho = term_cn + term_v_side + term_u_side + term_sigma + term_ww
    return (term_cn, term_v_side, term_u_side, term_sigma, term_ww, rho)


def as_tuple(b):
    return (b.term_cn, b.term_v_side, b.term_u_side, b.term_sigma, b.term_ww, b.rho)


def breakdown(g, v, u):
    return build_tie_strength_table(g).breakdown(v, u)


class TestBreakdown:
    def test_two_node_degenerate(self):
        g = graph_from_text("a b")
        b = breakdown(g, 0, 1)
        assert as_tuple(b) == (0, 0, 0, 0, 0, 1)

    def test_degree_one_branch_wins(self):
        # leaf attached to a hub of degree 5: no common neighbors, one
        # endpoint degree 1, so the pair scores 1 rather than 0
        g = graph_from_text("h a\nh b\nh c\nh d\nh leaf\na b")
        b = breakdown(g, g.index("h"), g.index("leaf"))
        assert b.rho == 1

    def test_no_common_both_internal(self):
        g = graph_from_text("a b\nb c\nc d\nd a")  # 4-cycle
        table = build_tie_strength_table(g)
        for v, u in g.edges():
            assert table.rho(v, u) == 0

    def test_k3(self):
        g = complete_graph(3)
        b = breakdown(g, 0, 1)
        assert as_tuple(b) == (1, 1, 1, 0, 0, 3)

    def test_k4(self):
        g = complete_graph(4)
        b = breakdown(g, 0, 1)
        assert as_tuple(b) == (2, 4, 4, 1, 2, 13)

    def test_non_edge_rejected(self):
        g = graph_from_text("a b\nb c")
        with pytest.raises(NotAnEdgeError):
            breakdown(g, g.index("a"), g.index("c"))

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_matches_naive_oracle(self, g):
        table = build_tie_strength_table(g)
        for v, u in g.edges():
            assert as_tuple(table.breakdown(v, u)) == oracle_breakdown(g, v, u)
            assert as_tuple(table.breakdown(u, v)) == oracle_breakdown(g, u, v)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_symmetry(self, g):
        table = build_tie_strength_table(g)
        for v, u in g.edges():
            assert table.rho(v, u) == table.rho(u, v)


class TestContributors:
    def test_k3_single_common_neighbor(self):
        g = complete_graph(3)
        assert contributors(g, 0, 1).members == {2}

    def test_two_node_empty(self):
        g = graph_from_text("a b")
        assert contributors(g, 0, 1).members == frozenset()

    def test_k4(self):
        g = complete_graph(4)
        assert contributors(g, 0, 1).members == {2, 3}

    def test_overlap_of_connected_common_pair(self):
        # x touches neither endpoint; it counts through the pair (2, 3)
        g = graph_from_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n2 x\n3 x")
        assert contributors(g, 0, 1).members == {2, 3, g.index("x")}

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_excludes_endpoints_and_respects_degenerate_case(self, g):
        table = build_tie_strength_table(g)
        for v, u in g.edges():
            c = contributors(g, v, u).members
            assert v not in c and u not in c
            if table.breakdown(v, u).term_cn == 0:
                assert c == frozenset()

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_table_members_match_contributors_on_strong_ties(self, g):
        table = build_tie_strength_table(g)
        for v, u in table.strong_ties:
            assert table.contributor_members(v, u) == contributors(g, v, u).members

    def test_karate_members_match_contributors_on_strong_ties(self, karate):
        table = build_tie_strength_table(karate)
        assert table.strong_ties
        for v, u in table.strong_ties:
            assert table.contributor_members(v, u) == contributors(karate, v, u).members


class TestTieStrength:
    def test_k3_all_ones(self):
        g = complete_graph(3)
        table = build_tie_strength_table(g)
        for v, u in g.edges():
            assert tie_strength(table, v, u) == 1.0
            assert tie_strength(table, u, v) == 1.0
        assert len(table.strong_ties) == 6

    def test_star_both_directions(self):
        g = star_graph(3)
        table = build_tie_strength_table(g)
        c = g.index("c")
        for leaf in g.neighbors_of(c):
            assert tie_strength(table, c, leaf) == 1.0
            assert tie_strength(table, leaf, c) == 1.0

    def test_zero_rho_gives_zero_phi(self):
        g = graph_from_text("a b\nb c\nc d\nd a")  # all rho 0
        table = build_tie_strength_table(g)
        assert all(phi == 0.0 for phi in table.phi)
        assert table.strong_ties == frozenset()

    def test_two_node(self):
        g = graph_from_text("a b")
        table = build_tie_strength_table(g)
        assert table.strong_ties == {(0, 1), (1, 0)}

    def test_isolated_node_has_empty_row(self):
        g = graph_from_text("a a\nb c")  # the self loop leaves a isolated
        table = build_tie_strength_table(g)
        assert table.row_max[g.index("a")] == 0
        assert table.strong_ties == {(1, 2), (2, 1)}

    def test_non_edge_rejected(self):
        g = graph_from_text("a b\nb c")
        table = build_tie_strength_table(g)
        with pytest.raises(NotAnEdgeError):
            tie_strength(table, g.index("a"), g.index("c"))

    def test_karate_hub_pair_is_strong(self, karate):
        table = build_tie_strength_table(karate)
        assert (karate.index("2"), karate.index("1")) in table.strong_ties

    @settings(max_examples=50, deadline=None)
    @given(random_graphs())
    def test_range_and_maximality(self, g):
        table = build_tie_strength_table(g)
        for v in range(g.node_count):
            row = [table.rho(v, u) for u in g.neighbors_of(v)]
            if not row:
                continue
            row_max = max(row)
            assert table.row_max[v] == row_max
            for u in g.neighbors_of(v):
                phi = tie_strength(table, v, u)
                assert 0.0 <= phi <= 1.0
                is_strong = (v, u) in table.strong_ties
                rho = table.rho(v, u)
                assert is_strong == (rho == row_max and row_max > 0)
            if row_max > 0:
                assert any((v, u) in table.strong_ties for u in g.neighbors_of(v))

    @settings(max_examples=30, deadline=None)
    @given(random_graphs())
    def test_scale_invariance_of_argmax(self, g):
        # strong ties only depend on which rho is the row maximum, so a
        # positive rescaling of a row must select the same neighbors
        table = build_tie_strength_table(g)
        for v in range(g.node_count):
            if table.row_max[v] == 0:
                continue
            scaled = {u: 7 * table.rho(v, u) for u in g.neighbors_of(v)}
            top = max(scaled.values())
            winners = {u for u, s in scaled.items() if s == top}
            assert winners == {
                u for u in g.neighbors_of(v) if (v, u) in table.strong_ties
            }


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

    @pytest.mark.parametrize("name", sorted(TIE_TABLE_SHA256))
    def test_bundled_datasets_byte_identical(self, name):
        g = load_edge_list_path(DATA_DIR / f"{name}.txt")
        buf = io.StringIO()
        dump_tie_table(build_tie_strength_table(g), buf)
        digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
        assert digest == TIE_TABLE_SHA256[name]
