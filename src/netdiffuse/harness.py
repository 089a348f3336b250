"""Experiment orchestration: configs, multi-run aggregation, reproduction.

One experiment is one graph, one model, one seed node, N runs. Runs are
repetition only for stochastic models; everything is deterministic given
the config, including the mean-aggregated series for N > 1 (shorter
runs keep contributing their terminal state to later iterations, except
the new-activation count, which is zero once a run has finished).

reproduce_paper drives all four benchmark networks (``DATASETS``)
through all three models with the ``ModelParams()`` defaults and emits
the figure-equivalent CSV files plus a deviation report that covers
every reference value, line by line. Both entry points load a graph,
reduce it to its largest connected component and check the seed node
in one place, ``_load_run_graph``, and run and evaluate each model in
one place, ``_experiment``.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO

import numpy as np

from . import golden
from .errors import (
    ConfigError, EdgeListParseError, GraphError, MissingDatasetError, MissingSeedError,
    UnknownNodeError,
)
from .graph import (
    Graph, average_degree, largest_connected_component, load_edge_list_path, numbered_lines
)
from .metrics import METRICS_COLUMNS, IterationMetrics, evaluate_trace, format_cell
from .models import DiffusionTrace, ModelParams, run_cns, run_ic, run_si

__all__ = [
    "DATASETS",
    "DATASET_NAMES",
    "MODELS",
    "ExperimentConfig",
    "ModelResult",
    "ComparisonReport",
    "run_experiment",
    "write_report_csv",
    "parse_seeds_file",
    "reproduce_paper",
]

logger = logging.getLogger(__name__)

MODELS = ("cns", "ic", "si")

# The benchmark networks, each read from <data dir>/<name>.txt, with the
# expected (nodes, edges) after symmetrization, dedup and reduction to the
# largest connected component. A mismatch is logged, not fatal: edge-list
# provenance varies and the simulation only needs a valid graph.
DATASETS = {
    "karate": (34, 78),
    "lesmis": (77, 254),
    "jazz": (198, 2742),
    "polblogs": (1224, 16718),
}
DATASET_NAMES = tuple(DATASETS)


@dataclass(frozen=True)
class ExperimentConfig:
    graph_path: Path | str
    model: str
    seed_node: str
    params: ModelParams = ModelParams()
    runs: int = 1
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r} (choose from {MODELS})")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigError(f"max iterations must be >= 1, got {self.max_iterations}")
        if self.runs > 1 and not self.is_stochastic:
            raise ConfigError(
                "runs > 1 only makes sense for stochastic configurations "
                "(si, or ic with probability < 1)"
            )

    @property
    def is_stochastic(self) -> bool:
        if self.model == "si":
            return True
        return self.model == "ic" and self.params.ic_probability < 1.0

    @property
    def dataset(self) -> str:
        return Path(self.graph_path).stem


@dataclass
class ModelResult:
    """All runs of one model plus, when runs > 1, the mean series (rows in
    ``IterationMetrics.values()`` order) and the padded-run counts."""

    traces: list[DiffusionTrace]
    metrics: list[list[IterationMetrics]]
    mean_series: list[tuple[float, ...]] | None = None
    padded_runs: list[int] | None = None


@dataclass
class ComparisonReport:
    dataset: str
    seed_node: str
    results: dict[str, ModelResult]


def _load_run_graph(path: Path | str, seed_node: str) -> Graph:
    """The largest connected component of the graph at ``path``; raises
    UnknownNodeError unless it holds ``seed_node``."""
    full = load_edge_list_path(path)
    g = largest_connected_component(full)
    if not g.has_label(seed_node):
        if full.has_label(seed_node):
            raise UnknownNodeError(
                f"seed node {seed_node!r} was removed by the largest-connected-"
                f"component reduction ({full.node_count} -> {g.node_count} nodes)"
            )
        raise UnknownNodeError(f"seed node {seed_node!r} is not in the graph")
    return g


def _mean_series(
    metrics: list[list[IterationMetrics]], finals: list[IterationMetrics]
) -> tuple[list[tuple[float, ...]], list[int]]:
    """Per-iteration means across runs, terminal-value padded.

    A run shorter than the longest one keeps its final state (``finals``)
    for the missing iterations; its new-activation count is 0 there.
    Returns the series and, per iteration, how many runs needed padding.
    """
    longest = max(len(rows) for rows in metrics)
    table = np.array(
        [
            [row.values() for row in rows]
            + [replace(final, new_active=0).values()] * (longest - len(rows))
            for rows, final in zip(metrics, finals)
        ],
        dtype=np.float64,
    )
    # Summing over axis 0 adds the runs one at a time, in run order.
    means = table.sum(axis=0) / len(metrics)
    series = [tuple(row) for row in means.tolist()]
    padded = [sum(len(rows) <= t for rows in metrics) for t in range(longest)]
    return series, padded


def _experiment(
    g: Graph,
    model: str,
    seed: str,
    params: ModelParams,
    horizons: dict[bytes, tuple[int, ...]],
    runs: int = 1,
    max_iterations: int | None = None,
) -> ModelResult:
    """``runs`` evaluated runs of ``model`` from ``seed``; cns, which is
    deterministic, runs once and builds its own tie table. Every horizon
    is evaluated through ``horizons``, the caller's dict for ``g``
    (``evaluate_trace``), so one met in an earlier run or model is not
    evaluated again. The runners and ``evaluate_trace`` are read from
    this module's globals at call time, so a wrapper installed there
    sees every call."""
    if model == "cns":
        traces = [run_cns(g, seed, max_iterations=max_iterations)]
    else:
        run = run_ic if model == "ic" else run_si
        traces = [
            run(g, seed, params, run_index=r, max_iterations=max_iterations)
            for r in range(runs)
        ]
    metrics = [evaluate_trace(t, horizons=horizons) for t in traces]
    result = ModelResult(traces, metrics)
    if len(traces) > 1:
        # A run that activated nobody ends in its seed-only state.
        finals = [
            rows[-1] if rows else evaluate_trace(t, include_initial=True, horizons=horizons)[0]
            for t, rows in zip(traces, metrics)
        ]
        result.mean_series, result.padded_runs = _mean_series(metrics, finals)
    return result


def run_experiment(config: ExperimentConfig) -> ComparisonReport:
    """Execute one config end to end; see module docstring for aggregation."""
    g = _load_run_graph(config.graph_path, config.seed_node)
    result = _experiment(
        g, config.model, config.seed_node, config.params, {}, config.runs,
        config.max_iterations,
    )
    return ComparisonReport(config.dataset, config.seed_node, {config.model: result})


def write_report_csv(report: ComparisonReport, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    for name, result in report.results.items():
        runs = [
            (run, row.iteration, row.values())
            for run, rows in enumerate(result.metrics, start=1)
            for row in rows
        ]
        means = [
            ("mean", t, mean) for t, mean in enumerate(result.mean_series or (), start=1)
        ]
        writer.writerows(
            [report.dataset, name, run, report.seed_node, t, *map(format_cell, values)]
            for run, t, values in runs + means
        )


def parse_seeds_file(path: Path | str) -> dict[str, str]:
    """Read `dataset=seed label` lines; '#' comments and blanks skipped.
    Lines end at ``\\n``, as in an edge list (``numbered_lines``)."""
    seeds: dict[str, str] = {}
    try:
        with open(path, "rb") as handle:
            for number, raw in numbered_lines(handle):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                name, eq, label = line.partition("=")
                name, label = name.strip(), label.strip()
                if not eq or not name or not label:
                    raise EdgeListParseError("expected 'dataset=seed label'", number)
                if name not in DATASET_NAMES:
                    raise EdgeListParseError(
                        f"unknown dataset {name!r} (known: {', '.join(DATASET_NAMES)})", number
                    )
                seeds[name] = label
    except GraphError as exc:
        raise GraphError(f"seeds file {path}, {exc}") from None
    return seeds


def _resolve_seeds(seeds: dict[str, str]) -> dict[str, str]:
    resolved = dict(seeds)
    # The karate walkthrough fixes its origin; the other networks have no
    # defensible default, so they must be configured explicitly.
    resolved.setdefault("karate", "2")
    missing = [name for name in DATASET_NAMES if name not in resolved]
    if missing:
        raise MissingSeedError(missing)
    return resolved


def _figure_value(figure: str, row: IterationMetrics) -> float:
    return getattr(row, golden.FIGURE_METRICS[figure])


def reproduce_paper(
    data_dir: Path | str,
    output_dir: Path | str,
    seeds: dict[str, str] | None = None,
) -> list[Path]:
    """Run every benchmark through every model and emit figure CSVs.

    Writes fig2_iterations.csv, one CSV per per-iteration metric figure,
    and deviations.txt. Returns the written paths. Raises when datasets
    or seed configuration are missing, or a seed is not in its dataset's
    largest connected component; reference mismatch is reported, never
    raised.
    """
    data = Path(data_dir)
    missing = [name for name in DATASETS if not (data / f"{name}.txt").is_file()]
    if missing:
        raise MissingDatasetError(missing)
    resolved = _resolve_seeds(seeds or {})
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    produced: dict[tuple[str, str], list[IterationMetrics]] = {}
    avg_degrees: dict[str, float] = {}
    for name, expected in DATASETS.items():
        seed = resolved[name]
        try:
            g = _load_run_graph(data / f"{name}.txt", seed)
        except GraphError as exc:
            exc.args = (f"dataset {name}: {exc}",)
            raise
        if (g.node_count, g.edge_count) != expected:
            logger.warning(
                "dataset %s: loaded %d nodes / %d edges, registry expects %d / %d",
                name, g.node_count, g.edge_count, *expected,
            )
        avg_degrees[name] = average_degree(g)
        horizons: dict[bytes, tuple[int, ...]] = {}
        for model in MODELS:
            produced[(name, model)] = _experiment(
                g, model, seed, ModelParams(), horizons
            ).metrics[0]

    written: list[Path] = []

    def write_csv(path: Path, header: list[str], rows) -> None:
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        written.append(path)

    # produced holds (dataset, model) keys in DATASET_NAMES x MODELS order.
    write_csv(
        out / "fig2_iterations.csv",
        ["dataset", "model", "iterations"],
        ([*key, len(rows)] for key, rows in produced.items()),
    )
    for figure, metric in golden.FIGURE_METRICS.items():
        write_csv(
            out / f"{figure}_{metric}.csv",
            ["dataset", "model", "iteration", metric],
            (
                [*key, row.iteration, format_cell(_figure_value(figure, row))]
                for key, rows in produced.items()
                for row in rows
            ),
        )

    path = out / "deviations.txt"
    with path.open("w", encoding="utf-8") as fh:
        fh.write(_deviation_report(produced, avg_degrees))
    written.append(path)
    return written


def _deviation_report(
    produced: dict[tuple[str, str], list[IterationMetrics]],
    avg_degrees: dict[str, float],
) -> str:
    """One line per reference value: produced vs reference, no omissions."""
    lines = [
        "deviation report: produced value vs reference value per entry",
        "(synthetic stand-in files back the jazz and polblogs names; their",
        "deviations reflect that substitution and the unknown seed nodes)",
        "",
    ]
    for (dataset, model), total in golden.FIG2_ITERATIONS.items():
        count = len(produced[(dataset, model)])
        lines.append(
            f"fig2 {dataset} {model} total iterations: "
            f"produced {count} reference {total} deviation {abs(count - total)}"
        )
    for (figure, dataset, model), points in golden.SERIES.items():
        rows = produced[(dataset, model)]
        for iteration, value in points:
            head = f"{figure} {dataset} {model} iteration {iteration}:"
            if iteration > len(rows):
                lines.append(
                    f"{head} produced absent (series ended at {len(rows)}) "
                    f"reference {value:.6f}"
                )
            else:
                got = _figure_value(figure, rows[iteration - 1])
                lines.append(
                    f"{head} produced {got:.6f} reference {value:.6f} "
                    f"deviation {abs(got - value):.6f}"
                )
    for dataset, value in golden.TABLE1_AVG_DEGREE.items():
        got = avg_degrees[dataset]
        lines.append(
            f"table1 {dataset} average degree: "
            f"produced {got:.6f} reference {value:.6f} "
            f"deviation {abs(got - value):.6f}"
        )
    return "\n".join(lines) + "\n"
