"""Traced run of one CLI operation: layer spans and counters, in process.

    python3 perfbench/tracer.py SPANS.json OP_ID ARG...

imports netdiffuse, wraps the public functions of each layer from the
outside, runs ``netdiffuse.cli.main(ARG...)`` and, after it returns,
writes the spans and counters it kept in memory to SPANS.json. Nothing
under src/ is edited. A wrapper replaces the function by identity in
every ``netdiffuse.*`` module namespace that holds it, so names brought
in by ``from .graph import ...`` are caught too. A name a later refactor
removed is listed as absent and its metrics stay zero.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, span name); a span name of None counts calls only,
# for functions called too often for a span each.
WRAPPED = (
    ("netdiffuse.graph", "load_edge_list_path", "graph.load"),
    ("netdiffuse.graph", "largest_connected_component", "graph.lcc"),
    ("netdiffuse.graph", "induced_subgraph", "graph.induced_subgraph"),
    ("netdiffuse.graph", "all_pairs_distances", "graph.apsp"),
    ("netdiffuse.ties", "build_tie_strength_table", "ties.build"),
    ("netdiffuse.ties", "TieStrengthTable.contributor_members", "ties.lookup"),
    ("netdiffuse.ties", "contributors", "ties.contributors"),
    ("netdiffuse.ties", "dump_tie_table", "ties.dump"),
    ("netdiffuse.models", "run_cns", "models.cns"),
    ("netdiffuse.models", "run_ic", "models.ic"),
    ("netdiffuse.models", "run_si", "models.si"),
    ("netdiffuse.models", "cns_activate", None),
    ("netdiffuse.metrics", "evaluate_trace", "metrics.evaluate"),
    ("netdiffuse.harness", "run_experiment", "harness.run_experiment"),
    ("netdiffuse.harness", "reproduce_paper", "harness.reproduce"),
    ("netdiffuse.harness", "write_report_csv", "cli.write_csv"),
)


class Recorder:
    """Spans as (name, start, end, parent index, operation id), plus counters."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent, self.op_id]
        self.spans.append(span)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()


def _observe(rec: Recorder, span: str, args, result) -> None:
    """Counters read from a wrapped call's arguments and result."""
    if span == "graph.apsp":
        n = args[0].node_count
        rec.count("graph.apsp_cells", n * n)
    elif span == "ties.build":
        rec.count("ties.ordered_edges", 2 * args[0].edge_count)
    elif span.startswith("models."):
        rec.count("models.rounds_recorded", len(result.iterations))
        rec.count("models.truncated_runs", int(result.truncated))
    elif span == "metrics.evaluate":
        rec.count("metrics.rows", len(result))
        rec.count("metrics.multi_node_rows", sum(1 for r in result if r.horizon_nodes > 1))
    elif span == "harness.run_experiment":
        for model in result.results.values():
            rec.count("harness.padded_runs", sum(model.padded_runs or ()))


def _wrap(rec: Recorder, fn, span: str | None, attr: str):
    if span == "ties.lookup":
        @functools.wraps(fn)
        def lookup(*args, **kwargs):
            before = rec.counters.get("ties.contributors_calls", 0)
            result = rec.call(span, fn, args, kwargs)
            rec.count("ties.contributor_lookups")
            if rec.counters.get("ties.contributors_calls", 0) == before:
                rec.count("ties.contributor_hits")
            return result
        return lookup

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(f"{span}_calls" if span else f"models.{attr}_calls")
        if span is None:
            return fn(*args, **kwargs)
        result = rec.call(span, fn, args, kwargs)
        _observe(rec, span, args, result)
        return result

    return wrapper


def install(rec: Recorder) -> list[str]:
    """Wrap every WRAPPED name that exists; return the absent ones."""
    absent = []
    for module_name, dotted, span in WRAPPED:
        owner = sys.modules.get(module_name)
        *outer, attr = dotted.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if owner is None or not callable(fn):
            absent.append(f"{module_name}.{dotted}")
            continue
        wrapper = _wrap(rec, fn, span, attr)
        if outer:
            setattr(owner, attr, wrapper)
            continue
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "netdiffuse" or name.startswith("netdiffuse.")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
    return absent


def main(argv: list[str]) -> int:
    out_path, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    start = time.perf_counter()
    import netdiffuse  # noqa: F401
    import netdiffuse.cli
    import_s = time.perf_counter() - start
    rec = Recorder(op_id)
    absent = install(rec)
    rc = netdiffuse.cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"rc": rc, "import_s": import_s, "absent": absent,
             "counters": rec.counters, "spans": rec.spans},
            fh,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
