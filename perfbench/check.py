"""Output checker for the benchmark workloads.

It does not import netdiffuse. Edge lists are parsed here, components
and breadth-first balls come from this file's own BFS, and distance
oracles come from networkx. Each checker raises CheckError with a reason
when it rejects an output.

Label-based outputs (the tie table, the cns and ic series of reproduce)
do not depend on edge-line order, so they are compared with the digests
recorded in reference.json for every seed. The whole output of a
default-seed operation is compared byte for byte through its digest.
SI output depends on the random stream and the node order, so for other
seeds it is checked by oracles and by exact recomputation of everything
that follows from integers in the output: coverage, density and average
degree from node and edge counts, the mean rows from the per-run rows,
and the final horizon's diameter and average distance from networkx.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from collections import deque
from itertools import combinations
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

TIE_COLUMNS = "v,u,term_cn,term_v_side,term_u_side,term_sigma,term_ww,rho,phi"
RUN_COLUMNS = (
    "dataset,model,run,seed_node,iteration,new_active,cum_active,"
    "coverage,diameter,avg_distance,density,avg_degree"
)
DATASETS = ("karate", "lesmis", "jazz", "polblogs")
MODELS = ("cns", "ic", "si")
FIGURES = (
    ("fig3_coverage.csv", "coverage"),
    ("fig4_diameter.csv", "diameter"),
    ("fig5_avg_distance.csv", "avg_distance"),
    ("fig6_density.csv", "density"),
    ("fig7_avg_degree.csv", "avg_degree"),
)
REPRODUCE_FILES = ("fig2_iterations.csv",) + tuple(f for f, _ in FIGURES) + (
    "deviations.txt",
)
TIE_SAMPLE = 200


class CheckError(Exception):
    """An output failed a check; the message says which and where."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reproduce_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in REPRODUCE_FILES:
        h.update(name.encode() + b"\0")
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- graphs


def adjacency(path: Path) -> dict[str, set[str]]:
    """Label adjacency in first-appearance order; self loops dropped."""
    adj: dict[str, set[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.strip().startswith("#"):
            continue
        a, b = line.split()
        adj.setdefault(a, set())
        adj.setdefault(b, set())
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def bfs(adj: dict[str, set[str]], source: str) -> dict[str, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def largest_component(adj: dict[str, set[str]]) -> dict[str, set[str]]:
    """The largest component; a size tie goes to the first-appearing node."""
    best: set[str] = set()
    seen: set[str] = set()
    for v in adj:
        if v not in seen:
            members = set(bfs(adj, v))
            seen |= members
            if len(members) > len(best):
                best = members
    return {v: adj[v] for v in adj if v in best}


def edge_count(adj: dict[str, set[str]], nodes=None) -> int:
    if nodes is None:
        return sum(len(ns) for ns in adj.values()) // 2
    return sum(len(adj[v] & nodes) for v in nodes) // 2


def canonical_digest(adj: dict[str, set[str]]) -> str:
    lines = sorted(f"{a} {b}" for a in adj for b in adj[a] if a < b)
    return sha256("\n".join(lines).encode())


def networkx_distances(adj: dict[str, set[str]]) -> dict:
    """Diameter and sum of distances over unordered pairs of a connected graph."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(adj)
    graph.add_edges_from((a, b) for a in adj for b in adj[a] if a < b)
    diameter = 0
    ordered_sum = 0
    for _, dist in nx.all_pairs_shortest_path_length(graph):
        _require(len(dist) == len(adj), "oracle graph is not connected")
        diameter = max(diameter, max(dist.values()))
        ordered_sum += sum(dist.values())
    return {
        "nodes": len(adj),
        "edges": edge_count(adj),
        "diameter": diameter,
        "distance_sum": ordered_sum // 2,
    }


class DistanceOracle:
    """networkx distances of a whole component, recorded or computed live.

    reference.json holds networkx results keyed by the component's
    canonical edge-list digest, because networkx takes about 15 s on
    polblogs. A component missing from that table, or every component
    when live is set, is computed here and now.
    """

    def __init__(self, recorded: dict[str, dict], live: bool = False):
        self.recorded = {} if live else dict(recorded)

    def final_strings(self, adj: dict[str, set[str]]) -> tuple[str, str]:
        key = canonical_digest(adj)
        if key not in self.recorded:
            self.recorded[key] = networkx_distances(adj)
        d = self.recorded[key]
        n = d["nodes"]
        return str(d["diameter"]), f"{d['distance_sum'] / (n * (n - 1) // 2):.6f}"


# --------------------------------------------------------- horizon rows


def _int(text: str, what: str) -> int:
    _require(text.isdigit() and str(int(text)) == text, f"{what}: bad integer {text!r}")
    return int(text)


def _float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{what}: bad number {text!r}") from None
    _require(f"{value:.6f}" == text, f"{what}: not six-decimal {text!r}")
    return value


class Horizon:
    """Exact values of one metrics row, recovered from its printed cells.

    n is the node count; the edge count m and the distance sum s over
    unordered pairs are the only integers that print as the given
    average degree and average distance. Horizons of every workload are
    connected and have n <= 1415, so each recovery is unique.
    """

    def __init__(self, n: int, total: int, diameter: str, avg_distance: str, density: str,
                 avg_degree: str, where: str):
        _require(n >= 2, f"{where}: horizon of {n} node(s)")
        self.n = n
        self.diameter = _int(diameter, where)
        m = round(_float(avg_degree, where) * n / 2)
        _require(f"{2.0 * m / n:.6f}" == avg_degree, f"{where}: avg_degree {avg_degree}")
        _require(f"{2.0 * m / (n * (n - 1)):.6f}" == density, f"{where}: density {density}")
        _require(n - 1 <= m <= n * (n - 1) // 2, f"{where}: {m} edges on {n} nodes")
        pairs = n * (n - 1) // 2
        s = round(_float(avg_distance, where) * pairs)
        _require(f"{s / pairs:.6f}" == avg_distance, f"{where}: avg_distance {avg_distance}")
        _require(
            1 <= self.diameter <= n - 1 and pairs <= s <= pairs * self.diameter,
            f"{where}: diameter {diameter} and avg_distance {avg_distance} disagree",
        )
        self.m = m
        self.coverage = n / total
        self.avg_distance = s / pairs
        self.density = 2.0 * m / (n * (n - 1))
        self.avg_degree = 2.0 * m / n


# ------------------------------------------------------------ tie table


def naive_terms(adj: dict[str, set[str]], v: str, u: str) -> tuple[int, ...]:
    """Score terms of (v, u) enumerated straight from their definitions."""
    common = sorted(adj[v] & adj[u])
    if not common:
        rho = 1 if len(adj[v]) == 1 or len(adj[u]) == 1 else 0
        return (0, 0, 0, 0, 0, rho)
    v_side = sum(len(adj[v] & adj[z]) for z in common)
    u_side = sum(len(adj[u] & adj[z]) for z in common)
    linked = [(w, z) for w, z in combinations(common, 2) if z in adj[w]]
    ww = sum(len(adj[w] & adj[z]) for w, z in linked)
    terms = (len(common), v_side, u_side, len(linked), ww)
    return terms + (sum(terms),)


def check_tie_table(text: str, graph: Path, reference_digest: str, sample_seed: int) -> None:
    _require(sha256(text.encode()) == reference_digest, "tie table differs from the reference digest")
    adj = adjacency(graph)
    lines = text.split("\n")
    _require(lines[0] == TIE_COLUMNS and lines[-1] == "", "tie table header or final newline")
    rows = {}
    keys = []
    for line in lines[1:-1]:
        cells = line.split(",")
        _require(len(cells) == 9, f"tie row {line!r}")
        v, u = cells[0], cells[1]
        _require(v in adj and u in adj[v] and (v, u) not in rows, f"tie row ({v}, {u}) is no new edge")
        terms = tuple(_int(c, f"tie row ({v}, {u})") for c in cells[2:8])
        rows[(v, u)] = terms, cells[8]
        keys.append((v, u))
    _require(len(rows) == 2 * edge_count(adj), "tie table misses ordered edges")
    _require(keys == sorted(keys), "tie rows are not sorted by labels")
    row_max: dict[str, int] = {}
    for (v, u), (terms, _) in rows.items():
        cn, v_side, u_side, sigma, ww, rho = terms
        _require(cn == len(adj[v] & adj[u]), f"term_cn of ({v}, {u})")
        _require(rows[(u, v)][0] == (cn, u_side, v_side, sigma, ww, rho), f"({v}, {u}) is not symmetric")
        if cn:
            _require(rho == cn + v_side + u_side + sigma + ww, f"rho of ({v}, {u})")
        else:
            degenerate = 1 if len(adj[v]) == 1 or len(adj[u]) == 1 else 0
            _require(terms == (0, 0, 0, 0, 0, degenerate), f"degenerate ({v}, {u})")
        row_max[v] = max(row_max.get(v, 0), rho)
    for (v, u), (terms, phi) in rows.items():
        rho = terms[-1]
        want = 0.0 if rho == 0 or row_max[v] == 0 else rho / row_max[v]
        _require(phi == f"{want:.6f}", f"phi of ({v}, {u})")
    for v, u in random.Random(sample_seed).sample(keys, min(TIE_SAMPLE, len(keys))):
        _require(rows[(v, u)][0] == naive_terms(adj, v, u), f"naive rho disagrees on ({v}, {u})")


# ------------------------------------------------------------- si runs


def _mean_cells(runs: list[list[Horizon]], news: list[list[int]], t: int) -> list[str]:
    """The mean row for iteration t, summed in the harness's run order."""
    acc = dict.fromkeys(
        ("new_active", "cum_active", "coverage", "diameter", "avg_distance", "density",
         "avg_degree"),
        0.0,
    )
    for rows, new in zip(runs, news):
        if t < len(rows):
            row = rows[t]
            acc["new_active"] += new[t]
        else:
            row = rows[-1]
        acc["cum_active"] += row.n
        acc["coverage"] += row.coverage
        acc["diameter"] += row.diameter
        acc["avg_distance"] += row.avg_distance
        acc["density"] += row.density
        acc["avg_degree"] += row.avg_degree
    return [f"{value / len(runs):.6f}" for value in acc.values()]


def check_si_runs(text: str, graph: Path, seed_node: str, runs: int,
                  reference_digest: str | None, oracle: DistanceOracle) -> None:
    if reference_digest is not None:
        _require(sha256(text.encode()) == reference_digest, "run CSV differs from the reference digest")
    comp = largest_component(adjacency(graph))
    total = len(comp)
    final = oracle.final_strings(comp)
    dataset = graph.stem
    lines = text.split("\n")
    _require(lines[0] == RUN_COLUMNS and lines[-1] == "", "run CSV header or final newline")
    horizons: list[list[Horizon]] = [[] for _ in range(runs)]
    news: list[list[int]] = [[] for _ in range(runs)]
    means = []
    for line in lines[1:-1]:
        cells = line.split(",")
        _require(len(cells) == 12 and cells[:2] == [dataset, "si"] and cells[3] == seed_node,
                 f"run row {line!r}")
        if cells[2] == "mean":
            means.append(cells)
            continue
        _require(not means, "per-run row after the mean rows")
        k = _int(cells[2], "run") - 1
        _require(0 <= k < runs and all(not h for h in horizons[k + 1:]), f"run order at {line!r}")
        where = f"run {k + 1} iteration {cells[4]}"
        rows = horizons[k]
        _require(_int(cells[4], where) == len(rows) + 1, f"{where}: iteration number")
        new = _int(cells[5], where)
        cum = _int(cells[6], where)
        _require(new >= 1 and cum == (rows[-1].n if rows else 1) + new, f"{where}: counts")
        _require(cells[7] == f"{cum / total:.6f}", f"{where}: coverage")
        rows.append(Horizon(cum, total, *cells[8:12], where))
        news[k].append(new)
    for k, rows in enumerate(horizons):
        _require(bool(rows) and rows[-1].n == total, f"run {k + 1} does not reach all {total} nodes")
        last = f"run {k + 1} final row"
        _require(str(rows[-1].diameter) == final[0], f"{last}: diameter is not networkx's {final[0]}")
        _require(f"{rows[-1].avg_distance:.6f}" == final[1], f"{last}: avg_distance is not {final[1]}")
    longest = max(len(rows) for rows in horizons)
    _require(len(means) == (longest if runs > 1 else 0), "mean row count")
    for t, cells in enumerate(means):
        _require(cells[4] == str(t + 1), f"mean iteration {cells[4]}")
        _require(cells[5:] == _mean_cells(horizons, news, t), f"mean row {t + 1}")


# ------------------------------------------------------------ reproduce


def _group_key(name: str, line: str) -> str:
    if name == "deviations.txt":
        tokens = line.split()
        if len(tokens) < 3 or tokens[0] not in ("fig2", "table1") + tuple(
            f.split("_")[0] for f, _ in FIGURES
        ):
            return "header"
        return f"{tokens[1]}/table1" if tokens[0] == "table1" else f"{tokens[1]}/{tokens[2]}"
    cells = line.split(",")
    return "header" if cells[0] == "dataset" else f"{cells[0]}/{cells[1]}"


def reproduce_groups(out_dir: Path) -> dict[str, str]:
    """Digest per dataset/model group over all reproduce outputs, line order kept.

    A dataset/si-skeleton group covers the si deviation lines without
    their produced values, so it holds for every seed.
    """
    hashes: dict = {}
    for name in REPRODUCE_FILES:
        for line in (out_dir / name).read_text(encoding="utf-8").splitlines():
            key = _group_key(name, line)
            hashes.setdefault(key, hashlib.sha256()).update(f"{name}\t{line}\n".encode())
            if name == "deviations.txt" and key.endswith("/si"):
                skeleton = hashes.setdefault(key + "-skeleton", hashlib.sha256())
                skeleton.update(f"{_si_skeleton(line)}\n".encode())
    return {key: h.hexdigest() for key, h in sorted(hashes.items())}


def _series(out_dir: Path) -> dict[tuple[str, str], list[list[str]]]:
    """(dataset, model) -> per-iteration [coverage, diameter, avg_distance, density, avg_degree]."""
    series: dict[tuple[str, str], list[list[str]]] = {}
    for name, metric in FIGURES:
        rows = list(csv.reader(io.StringIO((out_dir / name).read_text(encoding="utf-8"))))
        _require(rows[0] == ["dataset", "model", "iteration", metric], f"{name} header")
        seen: dict[tuple[str, str], int] = {}
        for row in rows[1:]:
            _require(len(row) == 4, f"{name} row {row}")
            key = (row[0], row[1])
            seen[key] = seen.get(key, 0) + 1
            _require(row[2] == str(seen[key]), f"{name} {key} iteration {row[2]}")
            if name == FIGURES[0][0]:
                series.setdefault(key, []).append([row[3]])
            else:
                _require(key in series and seen[key] <= len(series[key]), f"{name} extra row {row}")
                series[key][seen[key] - 1].append(row[3])
        _require(all(seen.get(k, 0) == len(v) for k, v in series.items()), f"{name} row count")
    return series


def _check_series(cells: list[list[str]], total: int, where: str) -> list[Horizon]:
    out = []
    for t, (coverage, *rest) in enumerate(cells, start=1):
        n = round(_float(coverage, where) * total)
        _require(f"{n / total:.6f}" == coverage, f"{where} iteration {t}: coverage")
        _require(not out or n > out[-1].n, f"{where} iteration {t}: coverage does not grow")
        out.append(Horizon(n, total, *rest, f"{where} iteration {t}"))
    return out


def _si_skeleton(line: str) -> str:
    """A deviation line without its produced value and deviation."""
    head, _, rest = line.partition(" produced ")
    return head + " reference " + rest.partition(" reference ")[2].split(" deviation ")[0]


def _check_si_deviations(out_dir: Path, rows: dict[tuple[str, str], list[Horizon]]) -> None:
    """Each si line of deviations.txt, rebuilt from the exact series values.

    The reference values are taken from the line itself; the skeleton
    digest of the si groups pins them to the recorded reference.
    """
    metrics = {f.split("_")[0]: m for f, m in FIGURES}
    for line in (out_dir / "deviations.txt").read_text(encoding="utf-8").splitlines():
        tokens = line.split()
        if len(tokens) < 5 or tokens[2] != "si":
            continue
        series = rows[(tokens[1], "si")]
        head = line.partition(" produced ")[0]
        ref = line.partition(" reference ")[2].split(" deviation ")[0]
        if tokens[0] == "fig2":
            got = len(series)
            want = f"{head} produced {got} reference {ref} deviation {abs(got - int(ref))}"
        elif int(tokens[4].rstrip(":")) <= len(series):
            got = getattr(series[int(tokens[4].rstrip(":")) - 1], metrics[tokens[0]])
            want = (f"{head} produced {got:.6f} reference {ref} "
                    f"deviation {abs(got - float(ref)):.6f}")
        else:
            want = f"{head} produced absent (series ended at {len(series)}) reference {ref}"
        _require(line == want, f"deviation line {line!r}")


def check_reproduce(out_dir: Path, data_dir: Path, seeds: dict[str, str], reference: dict,
                    default_seed: bool, oracle: DistanceOracle) -> None:
    if default_seed:
        _require(reproduce_digest(out_dir) == reference["digest"], "outputs differ from the reference digest")
    groups = reproduce_groups(out_dir)
    _require(set(groups) == set(reference["groups"]), "dataset/model groups differ")
    for key, digest in groups.items():
        if not key.endswith("/si"):
            _require(digest == reference["groups"][key], f"label-based group {key} changed")
    series = _series(out_dir)
    counts = list(csv.reader(io.StringIO((out_dir / "fig2_iterations.csv").read_text(encoding="utf-8"))))
    _require(counts == [["dataset", "model", "iterations"]]
             + [[d, m, str(len(series.get((d, m), [])))] for d in DATASETS for m in MODELS],
             "fig2 iteration counts disagree with the series")
    horizons = {}
    for dataset in DATASETS:
        comp = largest_component(adjacency(data_dir / f"{dataset}.txt"))
        final = oracle.final_strings(comp)
        for model in MODELS:
            where = f"{dataset}/{model}"
            rows = horizons[(dataset, model)] = _check_series(series[(dataset, model)], len(comp), where)
            if model == "cns":
                continue
            _require(rows[-1].n == len(comp), f"{where} does not reach the whole component")
            _require(series[(dataset, model)][-1][1:3] == list(final),
                     f"{where}: final diameter/avg_distance are not networkx's {final}")
            if model == "ic":
                dist = bfs(comp, seeds[dataset])
                for t, h in enumerate(rows, start=1):
                    ball = {v for v, d in dist.items() if d <= t}
                    _require(h.n == len(ball) and h.m == edge_count(comp, ball),
                             f"{where} iteration {t} is not the BFS ball")
                _require(len(rows) == max(dist.values()), f"{where} stops before the BFS does")
    _check_si_deviations(out_dir, horizons)
