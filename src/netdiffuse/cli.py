"""Command-line front end.

Three subcommands: `run` executes one experiment and writes the metrics
CSV, `reproduce` regenerates the benchmark figure data with a deviation
report, `tie-table` dumps the tie-strength debug CSV for a graph.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
inconsistent input files, unknown nodes, missing datasets). Standard
error gets at most one line: the error, or else the command's warnings
joined into one.
"""
from __future__ import annotations

import argparse
import io
import sys
import warnings
from contextlib import contextmanager, nullcontext

from .errors import ConfigError, GraphError
from .graph import load_edge_list_path
from .harness import (
    MODELS,
    ExperimentConfig,
    parse_seeds_file,
    reproduce_paper,
    run_experiment,
    write_report_csv,
)
from .models import ModelParams
from .ties import build_tie_strength_table, dump_tie_table

__all__ = ["main", "build_parser"]

# The model flags each model reads; `run` warns about any other one given.
MODEL_FLAGS = {
    "cns": (),
    "ic": ("--ic-p", "--rng-seed"),
    "si": ("--si-beta", "--rng-seed"),
}
# The ModelParams field, and parser dest, of each model flag.
_PARAM_FIELDS = {"--ic-p": "ic_probability", "--si-beta": "si_beta", "--rng-seed": "rng_seed"}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; our contract reserves 2 for data
    # errors, so surface usage problems as ConfigError instead.
    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="netdiffuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    run = sub.add_parser("run", help="run one diffusion experiment")
    run.add_argument("--graph", required=True, help="edge-list file")
    run.add_argument("--model", required=True, choices=MODELS)
    run.add_argument("--seed-node", required=True, help="seed node label")
    run.add_argument("--ic-p", dest="ic_probability", type=float,
                     help="cascade success probability (default 1.0)")
    run.add_argument("--si-beta", dest="si_beta", type=float,
                     help="per-contact infection probability (default 0.5)")
    run.add_argument("--rng-seed", dest="rng_seed", type=int,
                     help="random stream seed for ic and si (default 42)")
    run.add_argument("--runs", type=int, default=1,
                     help="repetitions; > 1 only for stochastic configs")
    run.add_argument("--max-iterations", type=int, default=None,
                     help="cap on the rounds run, whether or not they activate "
                          "anyone (default 10 x node count)")
    run.add_argument("--out", required=True, help="metrics CSV path, - for stdout")

    rep = sub.add_parser("reproduce", help="regenerate benchmark figure data")
    rep.add_argument("--data-dir", required=True, help="directory with the four edge lists")
    rep.add_argument("--out-dir", required=True, help="output directory for CSVs")
    rep.add_argument("--seeds", default=None,
                     help="seed config file with dataset=label lines; without seeds "
                          "for lesmis, jazz and polblogs (karate defaults to 2) "
                          "reproduce exits 2")
    rep.set_defaults(out="-")  # the paths written are listed on stdout

    tie = sub.add_parser("tie-table", help="dump the tie-strength debug CSV")
    tie.add_argument("--graph", required=True, help="edge-list file")
    tie.add_argument("--out", required=True, help="CSV path, - for stdout")
    return parser


def _out_stream(target: str):
    """The text stream of an output file, or of stdout for ``-``. Stdout
    is written as UTF-8 whatever its own encoding, so ``-`` gives the
    bytes of a file and a label the console's encoding lacks is no error;
    a path's undecodable bytes go out as they came in. ``main`` has
    checked that stdout is open."""
    if target != "-":
        return open(target, "w", encoding="utf-8", newline="")
    if not hasattr(sys.stdout, "buffer"):
        return nullcontext(sys.stdout)  # a text-only stdout, such as io.StringIO
    return _stdout_utf8()


@contextmanager
def _stdout_utf8():
    sys.stdout.flush()
    stream = io.TextIOWrapper(
        sys.stdout.buffer, encoding="utf-8", errors="surrogateescape", newline=""
    )
    try:
        yield stream
    finally:
        # Leave stdout's buffer open for whatever writes after.
        stream.flush()
        stream.detach()


def _cmd_run(args: argparse.Namespace) -> int:
    given = {
        flag: value
        for flag, field in _PARAM_FIELDS.items()
        if (value := getattr(args, field)) is not None
    }
    config = ExperimentConfig(
        graph_path=args.graph,
        model=args.model,
        seed_node=args.seed_node,
        params=ModelParams(**{_PARAM_FIELDS[flag]: value for flag, value in given.items()}),
        runs=args.runs,
        max_iterations=args.max_iterations,
    )
    ignored = [flag for flag in given if flag not in MODEL_FLAGS[config.model]]
    if ignored:
        warnings.warn(f"model {config.model} ignores {', '.join(ignored)}")
    report = run_experiment(config)
    with _out_stream(args.out) as fh:
        write_report_csv(report, fh)
    traces = report.results[config.model].traces
    truncated = sum(trace.truncated for trace in traces)
    if truncated:
        warnings.warn(f"{truncated} of {len(traces)} runs stopped with nodes unreached")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    seeds = parse_seeds_file(args.seeds) if args.seeds else {}
    written = reproduce_paper(args.data_dir, args.out_dir, seeds)
    with _out_stream(args.out) as fh:
        fh.writelines(f"{path}\n" for path in written)
    return 0


def _cmd_tie_table(args: argparse.Namespace) -> int:
    g = load_edge_list_path(args.graph)
    table = build_tie_strength_table(g)
    with _out_stream(args.out) as fh:
        dump_tie_table(table, fh)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "reproduce": _cmd_reproduce,
    "tie-table": _cmd_tie_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # "always" also overrides `python -W error`, which would make a warning a traceback.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args = parser.parse_args(argv)
            if args.command is None:
                parser.print_usage(sys.stderr)
                return 1
            # A process started with stdout closed has sys.stdout None:
            # fail before any work, so no output file is written.
            if args.out == "-" and sys.stdout is None:
                raise OSError("standard output is closed")
            code = _COMMANDS[args.command](args)
        except ConfigError as exc:
            print(f"netdiffuse: {exc}", file=sys.stderr)
            return 1
        except (GraphError, OSError) as exc:
            print(f"netdiffuse: {exc}", file=sys.stderr)
            return 2
    if caught:
        messages = "; ".join(str(w.message) for w in caught)
        print(f"netdiffuse: warning: {messages}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
