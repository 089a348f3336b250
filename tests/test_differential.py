"""The loader and the IC and SI rounds against set-based oracles.

The oracles are the tuple-and-set loader and the per-attempt draw loops
that the CSR loader and the vectorized rounds replaced, kept as they
were so that any change of labels, edges, error text or random draws
shows up as a difference. The loader oracle cuts the whole input at
every ``\\n`` and decodes each line on its own. The draw loops take
their uniforms from NumPy's own generator, not from the package's
stream.
"""
from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdiffuse.errors import EdgeListParseError, EmptyInputError, GraphError
from netdiffuse.graph import graph_from_edges, graph_from_text, load_edge_list
from netdiffuse.models import SI_CAP_FACTOR, ModelParams, _stream, run_ic, run_si

from conftest import numpy_stream, trace_key


class OracleGraph:
    """Labels plus sorted neighbor tuples, built through an edge set."""

    def __init__(self, labels, edge_indices):
        adjacency = [[] for _ in labels]
        for v, u in edge_indices:
            adjacency[v].append(u)
            adjacency[u].append(v)
        self.labels = tuple(labels)
        self.neighbors = tuple(tuple(sorted(ns)) for ns in adjacency)

    def edges(self):
        return [(v, u) for v, ns in enumerate(self.neighbors) for u in ns if v < u]


def oracle_graph_from_edges(pairs):
    labels = []
    index_of = {}
    edges = set()
    for a, b in pairs:
        for token in (a, b):
            if token not in index_of:
                index_of[token] = len(labels)
                labels.append(token)
        if a == b:
            continue
        v, u = index_of[a], index_of[b]
        edges.add((min(v, u), max(v, u)))
    return OracleGraph(labels, edges)


def oracle_load(source):
    raw = source.read()
    newline = b"\n" if isinstance(raw, bytes) else "\n"
    pairs = []
    for line_number, line in enumerate(raw.split(newline), start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                raise EdgeListParseError("not valid UTF-8", line_number) from None
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"expected two tokens, got {len(tokens)}: {stripped!r}", line_number
            )
        pairs.append((tokens[0], tokens[1]))
    g = oracle_graph_from_edges(pairs)
    if not g.edges():
        raise EmptyInputError("edge list contains no usable edges")
    return g


def oracle_key(s, rounds, truncated):
    """The oracle's run in the form of ``trace_key``."""
    return s, [sorted(nodes) for nodes in rounds], truncated


def oracle_ic(g, seed, params, run_index, max_iterations):
    s = g.labels.index(seed)
    p = params.ic_probability
    rng = numpy_stream(params.rng_seed, run_index)
    active = {s}
    frontier = [s]
    rounds = []
    truncated = False
    while frontier:
        if max_iterations is not None and len(rounds) >= max_iterations:
            truncated = len(active) < len(g.labels)
            break
        newly = set()
        for v in frontier:
            for u in g.neighbors[v]:
                if u in active:
                    continue
                if rng.random() < p:
                    newly.add(u)
        if not newly:
            break
        rounds.append(newly)
        active |= newly
        frontier = sorted(newly)
    return oracle_key(s, rounds, truncated)


def oracle_si(g, seed, params, run_index, max_iterations):
    s = g.labels.index(seed)
    n = len(g.labels)
    beta = params.si_beta
    cap = max_iterations if max_iterations is not None else SI_CAP_FACTOR * n
    rng = numpy_stream(params.rng_seed, run_index)
    infected = {s}
    rounds = []
    clock = 0
    truncated = False
    while len(infected) < n:
        if clock >= cap:
            truncated = True
            break
        clock += 1
        newly = set()
        attempted = False
        for v in sorted(infected):
            for u in g.neighbors[v]:
                if u in infected:
                    continue
                attempted = True
                if rng.random() < beta:
                    newly.add(u)
        if not attempted:
            truncated = True
            break
        if newly:
            rounds.append(newly)
            infected |= newly
    return oracle_key(s, rounds, truncated)


def outcome(load, data):
    """What a loader makes of ``data``, text or bytes: labels and edges,
    or the error."""
    try:
        g = load(io.StringIO(data) if isinstance(data, str) else io.BytesIO(data))
    except GraphError as exc:
        return type(exc), str(exc)
    return g.labels, list(g.edges())


# Tokens: comment marks, CSV quoting and a non-ASCII letter.
TOKENS = ["a", "b", "c", "1", "2", "#", "#x", "a,b", '"', '"q"', "é", "é#"]


@st.composite
def edge_texts(draw):
    # Every line break of str.splitlines. Only "\n" ends a line; the others
    # are whitespace that str.split cuts at inside a line.
    line_breaks = [
        "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
    ]
    inner = [brk for brk in line_breaks if "\n" not in brk]
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["edge", "edge", "edge", "comment", "blank", "junk"]))
        if kind == "edge":
            a, b = draw(st.sampled_from(TOKENS)), draw(st.sampled_from(TOKENS))
            sep = draw(st.sampled_from([" ", "\t", " \t ", *inner]))
            lines.append(draw(st.sampled_from(["", " ", "\t"])) + a + sep + b)
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["#", " # c", "\t#a b c"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", *inner])))
        else:
            pieces = TOKENS + [" ", "  ", "\t", *line_breaks]
            parts = draw(st.lists(st.sampled_from(pieces), max_size=6))
            lines.append("".join(parts))
    ends = draw(st.lists(
        st.sampled_from(["\n", "\r\n"]) | st.sampled_from(line_breaks),
        min_size=len(lines), max_size=len(lines),
    ))
    return "".join(line + end for line, end in zip(lines, ends))


class TestLoader:
    @settings(max_examples=400, deadline=None)
    @given(edge_texts(), st.data())
    def test_matches_oracle(self, text, data):
        assert outcome(load_edge_list, text) == outcome(oracle_load, text)
        raw = text.encode()
        # Sometimes one byte that is never valid UTF-8, anywhere.
        at = data.draw(st.none() | st.integers(0, len(raw)))
        if at is not None:
            raw = raw[:at] + b"\xff" + raw[at:]
        assert outcome(load_edge_list, raw) == outcome(oracle_load, raw)

    @pytest.mark.parametrize(
        "data",
        [
            "",
            "a a\n",
            "a b\n\x0bb c\n",
            "a b\x0cc\n",
            "a\x0cb\n",
            "a b\n\x85c d e\n",
            "a b\rb c\r",
            # A UTF-8 error after a malformed line is never read.
            b"a b\nx y z\n\xff\n",
            '"q" é\n# x\n é a,b\r\n',
            "a b\n1 2 3\n",
            "#a b c\n  # \n\t\na\tb\n",
        ],
    )
    def test_examples(self, data):
        assert outcome(load_edge_list, data) == outcome(oracle_load, data)

    def test_bytes_match_text(self):
        text = "é a\n# c\nb é\n"
        g = load_edge_list(io.BytesIO(text.encode()))
        assert (g.labels, list(g.edges())) == outcome(oracle_load, text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(TOKENS), st.sampled_from(TOKENS)), max_size=12))
    def test_graph_from_edges_matches_oracle(self, pairs):
        g = graph_from_edges(pairs)
        want = oracle_graph_from_edges(pairs)
        assert g.labels == want.labels
        assert list(g.edges()) == want.edges()
        indptr, indices = g.adjacency
        rows = [tuple(indices[a:b].tolist()) for a, b in zip(indptr[:-1], indptr[1:])]
        assert rows == list(want.neighbors)


@st.composite
def model_cases(draw):
    """Edge text with an isolated node ``iso`` (a self loop only) and a seed."""
    n = draw(st.integers(2, 12))
    pairs = [(v, u) for v in range(n) for u in range(v + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [f"n{v} n{u}" for (v, u), kept in zip(pairs, keep) if kept]
    edges.insert(draw(st.integers(0, len(edges))), "iso iso")
    text = "\n".join(edges + ["n0 n1"]) + "\n"
    seed = draw(st.sampled_from(graph_from_text(text).labels))
    return text, seed


PROBABILITIES = st.sampled_from([0.0, 0.1, 0.5, 1.0])
CAPS = st.sampled_from([None, 1, 2, 5])
RUNS = st.integers(0, 3)


class TestModels:
    @settings(max_examples=300, deadline=None)
    @given(model_cases(), PROBABILITIES, CAPS, RUNS)
    def test_ic_matches_oracle(self, case, p, cap, run_index):
        text, seed = case
        params = ModelParams(ic_probability=p, rng_seed=5)
        g = graph_from_text(text)
        oracle = oracle_load(io.StringIO(text))
        assert g.labels == oracle.labels
        got = run_ic(g, seed, params, run_index, cap)
        assert trace_key(got) == oracle_ic(oracle, seed, params, run_index, cap)

    @settings(max_examples=300, deadline=None)
    @given(model_cases(), PROBABILITIES, CAPS, RUNS)
    def test_si_matches_oracle(self, case, beta, cap, run_index):
        text, seed = case
        params = ModelParams(si_beta=beta, rng_seed=9)
        g = graph_from_text(text)
        oracle = oracle_load(io.StringIO(text))
        assert g.labels == oracle.labels
        got = run_si(g, seed, params, run_index, cap)
        assert trace_key(got) == oracle_si(oracle, seed, params, run_index, cap)

    @pytest.mark.parametrize("run", [(run_ic, oracle_ic), (run_si, oracle_si)])
    def test_karate(self, karate, data_dir, run):
        new, old = run
        with open(data_dir / "karate.txt", "rb") as handle:
            oracle = oracle_load(handle)
        assert karate.labels == oracle.labels
        params = ModelParams(ic_probability=0.3, si_beta=0.3, rng_seed=42)
        for run_index in range(3):
            got = new(karate, "2", params, run_index, None)
            assert trace_key(got) == old(oracle, "2", params, run_index, None)


class TestDrawStream:
    """The two stream facts a round's single vector draw rests on."""

    def test_vector_draw_equals_scalar_draws(self):
        vector, scalar = _stream(42, 3), _stream(42, 3)
        for k in (1, 2, 7, 100):
            assert vector.random(k).tolist() == [scalar.random(1)[0] for _ in range(k)]

    def test_empty_draw_leaves_stream(self):
        drawn, untouched = _stream(7, 0), _stream(7, 0)
        assert len(drawn.random(0)) == 0
        assert drawn.random(1)[0] == untouched.random(1)[0]
        assert np.array_equal(drawn.random(5), untouched.random(5))
