"""Acceptance gate: the eight end-to-end criteria, one test each.

Every test prints a single [PASS]/[FAIL] line naming its criterion
(visible with `pytest -s` or in failure output). Tolerances and time
budgets are stated inline next to each check.
"""
from __future__ import annotations

import random
import time

import numpy as np
import pytest

from netdiffuse.cli import main
from netdiffuse.graph import largest_connected_component, load_edge_list_path
from netdiffuse.harness import DATASET_NAMES, reproduce_paper
from netdiffuse.metrics import evaluate_trace
from netdiffuse.models import ModelParams, run_cns, run_ic, run_si
from netdiffuse.ties import build_tie_strength_table

from conftest import bfs_oracle, cumulative_sets, er_graph, trace_key
from test_models import check_monotone_and_closed
from test_ties import edge_terms, oracle_breakdown

SEEDS = {"karate": "2", "lesmis": "Myriel", "jazz": "68", "polblogs": "693"}


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def graphs(data_dir):
    return {
        name: largest_connected_component(load_edge_list_path(data_dir / f"{name}.txt"))
        for name in DATASET_NAMES
    }


@pytest.fixture(scope="module")
def repro(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_repro")
    seeds = {k: v for k, v in SEEDS.items() if k != "karate"}
    start = time.perf_counter()
    written = reproduce_paper(data_dir, out, seeds)
    elapsed = time.perf_counter() - start
    return out, written, elapsed


def test_criterion_1_rho_oracle_equivalence():
    # 200 Erdos-Renyi graphs, n <= 50, p cycling {0.1, 0.3, 0.6};
    # all five terms exactly equal to the naive enumerator; < 30 s
    rng = random.Random(1)
    start = time.perf_counter()
    checked = 0
    for i in range(200):
        g = er_graph(4 + (i % 47), (0.1, 0.3, 0.6)[i % 3], rng)
        table = build_tie_strength_table(g)
        for v, u in g.edges():
            assert edge_terms(table, v, u) == oracle_breakdown(g, v, u)
            checked += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 1: rho breakdown equals brute-force oracle",
        elapsed < 30.0,
        f"{checked} edges over 200 graphs in {elapsed:.1f}s",
    )


def test_criterion_2_ic_p1_is_bfs(graphs):
    # exact BFS-ball equality on all four datasets and 100 random
    # graphs; < 60 s including polblogs
    rng = random.Random(2)
    cases = [(g, g.labels[0]) for g in graphs.values()]
    cases += [(g, SEEDS[name]) for name, g in graphs.items()]
    for i in range(100):
        g = er_graph(3 + (i % 58), (0.1, 0.3, 0.6)[i % 3], rng)
        cases.append((g, g.labels[0]))
    start = time.perf_counter()
    for g, seed in cases:
        trace = run_ic(g, seed)
        dist = bfs_oracle(g, g.index(seed))
        sets = cumulative_sets(trace)
        for t in range(len(trace.iterations) + 1):
            ball = {v for v, d in dist.items() if d <= t}
            assert sets[t] == ball
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 2: IC(p=1) produces BFS balls",
        elapsed < 60.0,
        f"{len(cases)} graph/seed cases in {elapsed:.1f}s",
    )


def test_criterion_3_karate_ic_coverage(graphs):
    trace = run_ic(graphs["karate"], "2")
    coverage = [len(s) / graphs["karate"].node_count for s in cumulative_sets(trace)[1:]]
    expected = (0.2941, 0.6764, 1.0000)
    ok = len(trace.iterations) == 3 and all(
        abs(c - e) <= 0.0001 for c, e in zip(coverage, expected)
    )
    _verdict(
        "criterion 3: karate IC coverage (0.2941, 0.6764, 1.0000)",
        ok,
        f"got {[round(c, 4) for c in coverage]} in {len(trace.iterations)} iterations",
    )


def test_criterion_4_karate_cns_two_tier(graphs, repro):
    trace = run_cns(graphs["karate"], "2")
    rows = evaluate_trace(trace)
    final_nodes = len(cumulative_sets(trace)[-1])

    tier1 = abs(len(trace.iterations) - 3) <= 1 and abs(final_nodes - 33) <= 2
    out_dir, _, _ = repro
    deviations = (out_dir / "deviations.txt").read_text()
    enumerated = all(
        f"fig{n} karate cns" in deviations for n in (2, 3, 4, 5, 6, 7)
    )

    coverage = [r.coverage for r in rows]
    tier2 = (
        len(trace.iterations) == 3
        and all(abs(c - e) <= 0.0001 for c, e in zip(coverage, (0.3235, 0.7941, 0.9705)))
        and [r.diameter for r in rows] == [2, 4, 5]
        and all(
            abs(r.avg_distance - e) <= 0.02
            for r, e in zip(rows, (1.5636, 2.2905, 2.414))
        )
        and all(
            abs(r.density - e) <= 0.02 for r, e in zip(rows, (0.4363, 0.1737, 0.1439))
        )
        and all(
            abs(r.avg_degree - e) <= 0.02
            for r, e in zip(rows, (4.3636, 4.5185, 4.6060))
        )
    )
    _verdict(
        "criterion 4: karate CNS golden (tier 1 required, tier 2 target)",
        tier1 and enumerated and tier2,
        f"tier1={tier1} deviations_enumerated={enumerated} tier2={tier2}",
    )


def test_criterion_5_metric_internal_consistency(graphs):
    # |avg_degree - density*(nodes-1)| <= 1e-9 on every row of every
    # model on every dataset, plus the karate CNS horizon identities
    params = ModelParams(ic_probability=1.0, si_beta=0.5, rng_seed=42)
    worst = 0.0
    rows_checked = 0
    for name, g in graphs.items():
        seed = SEEDS[name]
        traces = (
            run_cns(g, seed),
            run_ic(g, seed, params),
            run_si(g, seed, params),
        )
        for trace in traces:
            for row in evaluate_trace(trace):
                gap = abs(row.avg_degree - row.density * (row.horizon_nodes - 1))
                worst = max(worst, gap)
                rows_checked += 1
    karate_rows = evaluate_trace(run_cns(graphs["karate"], "2"))
    triples = [(r.horizon_nodes, r.horizon_edges) for r in karate_rows]
    ok = worst <= 1e-9 and triples == [(11, 24), (27, 61), (33, 76)]
    _verdict(
        "criterion 5: consistency triple and karate horizons",
        ok,
        f"worst gap {worst:.2e} over {rows_checked} rows, horizons {triples}",
    )


def test_criterion_6_si_distribution(graphs):
    # 1000 runs, beta 0.5, rng_seed 42: all valid, completion spread
    # covers the reference value 5; beta=1 equals IC(p=1); < 30 s
    g = graphs["karate"]
    params = ModelParams(si_beta=0.5, rng_seed=42)
    start = time.perf_counter()
    totals = []
    for k in range(1000):
        trace = run_si(g, "2", params, run_index=k)
        check_monotone_and_closed(g, trace)
        assert not trace.truncated and len(cumulative_sets(trace)[-1]) == g.node_count
        totals.append(len(trace.iterations))
    elapsed = time.perf_counter() - start

    ic = run_ic(g, "2")
    identical = all(
        trace_key(run_si(g, "2", ModelParams(si_beta=1.0), run_index=k)) == trace_key(ic)
        for k in range(3)
    )
    lo, hi = np.percentile(totals, [5, 95])
    ok = identical and lo <= 5 <= hi and elapsed < 30.0
    _verdict(
        "criterion 6: SI distribution and beta=1 degeneracy",
        ok,
        f"central 90% [{lo:.0f}, {hi:.0f}], beta1==ic {identical}, {elapsed:.1f}s",
    )


def test_criterion_7_cli_determinism(data_dir, tmp_path):
    identical = True
    for dataset in ("karate", "polblogs"):
        for model in ("cns", "ic", "si"):
            outputs = []
            for tag in ("first", "second"):
                out = tmp_path / f"{dataset}_{model}_{tag}.csv"
                code = main(
                    ["run", "--graph", str(data_dir / f"{dataset}.txt"),
                     "--model", model, "--seed-node", SEEDS[dataset],
                     "--rng-seed", "42", "--out", str(out)]
                )
                assert code == 0
                outputs.append(out.read_bytes())
            identical = identical and outputs[0] == outputs[1]
    _verdict(
        "criterion 7: repeated runs are byte-identical (karate, polblogs)",
        identical,
    )


def test_criterion_8_reproduce_runtime(repro):
    out_dir, written, elapsed = repro
    names = sorted(p.name for p in written)
    expected = [
        "deviations.txt",
        "fig2_iterations.csv",
        "fig3_coverage.csv",
        "fig4_diameter.csv",
        "fig5_avg_distance.csv",
        "fig6_density.csv",
        "fig7_avg_degree.csv",
    ]
    ok = names == expected and all(p.exists() for p in written) and elapsed < 60.0
    _verdict(
        "criterion 8: full reproduction under the time budget",
        ok,
        f"{len(written)} files in {elapsed:.1f}s",
    )
