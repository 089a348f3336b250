"""netdiffuse benchmark: the installed CLI timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --smoke             # the benchmark's own tests

Each operation is one fresh child process running the CLI entry point,
one at a time, in a closed loop with a single client; nothing else runs
beside it. Every output is checked by check.py outside the timed region.
The last line of standard output is one JSON object: with --trace 0 it
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run (tracer.py) and the tracing overhead. README.md explains the
workloads and metrics.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("reproduce", "si-runs-polblogs", "tie-table-polblogs")
DEFAULT_SEED = 42
SI_RUNS = 5
SETUP_REPEATS = 5
MIN_OPS = 3
MIN_TRACED = 2  # and as many untraced, alternating
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# What the `netdiffuse` console script runs.
ENTRY = "import sys; from netdiffuse.cli import main; sys.exit(main())"
SETUP = (
    "import sys, netdiffuse\n"
    "from netdiffuse.graph import largest_connected_component, load_edge_list_path\n"
    "for path in sys.argv[1:]:\n"
    "    largest_connected_component(load_edge_list_path(path))\n"
)
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "graph.load_s": "s",
    "graph.induced_subgraph_s": "s",
    "graph.induced_subgraph_calls": "count",
    "graph.apsp_s": "s",
    "graph.apsp_calls": "count",
    "graph.apsp_cells": "count",
    "graph.apsp_bytes_computed": "B",
    "ties.build_s": "s",
    "ties.ordered_edges": "count",
    "ties.contributors_s": "s",
    "ties.contributors_calls": "count",
    "ties.contributor_lookups": "count",
    "ties.contributor_hit_ratio": "ratio",
    "ties.dump_s": "s",
    "models.cns_s": "s",
    "models.ic_s": "s",
    "models.si_s": "s",
    "models.cns_activate_calls": "count",
    "models.rounds_recorded": "count",
    "models.truncated_runs": "count",
    "metrics.evaluate_s": "s",
    "metrics.self_s": "s",
    "metrics.rows": "count",
    "metrics.multi_node_rows": "count",
    "harness.run_experiment_self_s": "s",
    "harness.reproduce_self_s": "s",
    "harness.padded_runs": "count",
    "cli.write_csv_s": "s",
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.absent_names": "count",
}


@dataclass(frozen=True)
class Inputs:
    """Files and flags one workload's operations receive for one seed.

    base_dir holds unshuffled edge lists; data_dir is base_dir at the
    default seed and a copy with shuffled edge lines and endpoint order
    otherwise. The si runs get the seed as --rng-seed.
    """

    profile: str
    seed: int
    base_dir: Path
    data_dir: Path
    seeds_file: Path
    seed_nodes: dict
    si_node: str

    @property
    def default(self) -> bool:
        return self.seed == DEFAULT_SEED


def shuffled_copy(src: Path, dst: Path, rng: random.Random) -> None:
    lines = src.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.lstrip().startswith("#")]
    edges = [line.split() for line in lines if line.strip() and not line.lstrip().startswith("#")]
    rng.shuffle(edges)
    body = [f"{b} {a}" if rng.random() < 0.5 else f"{a} {b}" for a, b in edges]
    dst.write_text("\n".join(header + body) + "\n", encoding="utf-8")


def make_inputs(profile: str, seed: int, work: Path) -> Inputs:
    """Full inputs are the repository's data files; smoke inputs are
    karate and lesmis, standing in for jazz and polblogs as well."""
    if profile == "full":
        base = Path("data")
        seeds_file = base / "seeds_example.txt"
        si_node = "693"
    else:
        base = work / "smoke-data"
        base.mkdir()
        for name, source in (("karate", "karate"), ("lesmis", "lesmis"),
                             ("jazz", "karate"), ("polblogs", "lesmis")):
            shutil.copyfile(Path("data") / f"{source}.txt", base / f"{name}.txt")
        seeds_file = base / "seeds.txt"
        seeds_file.write_text("karate=2\nlesmis=Myriel\njazz=2\npolblogs=Myriel\n")
        si_node = "Myriel"
    data_dir = base
    if seed != DEFAULT_SEED:
        data_dir = work / f"{profile}-data-{seed}"
        data_dir.mkdir()
        rng = random.Random(seed)
        for name in check.DATASETS:
            shuffled_copy(base / f"{name}.txt", data_dir / f"{name}.txt", rng)
    seed_nodes = {}
    for line in seeds_file.read_text(encoding="utf-8").splitlines():
        if "=" in line and not line.startswith("#"):
            name, _, label = line.partition("=")
            seed_nodes[name.strip()] = label.strip()
    return Inputs(profile, seed, base, data_dir, seeds_file, seed_nodes, si_node)


def op_args(workload: str, inputs: Inputs, out: Path) -> list[str]:
    if workload == "reproduce":
        return ["reproduce", "--data-dir", str(inputs.data_dir), "--seeds",
                str(inputs.seeds_file), "--out-dir", str(out)]
    if workload == "si-runs-polblogs":
        return ["run", "--graph", str(inputs.base_dir / "polblogs.txt"), "--model", "si",
                "--si-beta", "0.5", "--runs", str(SI_RUNS), "--seed-node", inputs.si_node,
                "--rng-seed", str(inputs.seed), "--out", str(out / "out.csv")]
    return ["tie-table", "--graph", str(inputs.data_dir / "polblogs.txt"),
            "--out", str(out / "out.csv")]


def setup_paths(workload: str, inputs: Inputs) -> list[str]:
    if workload == "reproduce":
        return [str(inputs.data_dir / f"{name}.txt") for name in check.DATASETS]
    if workload == "si-runs-polblogs":
        return [str(inputs.base_dir / "polblogs.txt")]
    return [str(inputs.data_dir / "polblogs.txt")]


def output_rows(workload: str, out: Path) -> int:
    """Metric rows (run, reproduce) or ordered-edge rows (tie-table)."""
    name = "fig3_coverage.csv" if workload == "reproduce" else "out.csv"
    return (out / name).read_text(encoding="utf-8").count("\n") - 1


def output_digest(workload: str, out: Path) -> str:
    if workload == "reproduce":
        return check.reproduce_digest(out)
    return check.sha256((out / "out.csv").read_bytes())


class Checker:
    """Checks outputs; a verdict is kept per output digest, since the
    checks are a function of the output bytes and the inputs alone."""

    def __init__(self, workload: str, inputs: Inputs, reference: dict, live_oracle: bool = False):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference[inputs.profile][workload]
        self.oracle = check.DistanceOracle(reference["distances"], live=live_oracle)
        self.verdicts: dict[str, str | None] = {}

    def __call__(self, out: Path) -> str | None:
        """None when the output passes, else the reason it fails."""
        try:
            digest = output_digest(self.workload, out)
        except OSError as exc:
            return f"output missing: {exc}"
        if digest not in self.verdicts:
            self.verdicts[digest] = self._check(out)
        return self.verdicts[digest]

    def _check(self, out: Path) -> str | None:
        inputs = self.inputs
        try:
            if self.workload == "reproduce":
                check.check_reproduce(out, inputs.data_dir, inputs.seed_nodes, self.reference,
                                      inputs.default, self.oracle)
            elif self.workload == "si-runs-polblogs":
                check.check_si_runs((out / "out.csv").read_text(encoding="utf-8"),
                                    inputs.base_dir / "polblogs.txt", inputs.si_node, SI_RUNS,
                                    self.reference if inputs.default else None, self.oracle)
            else:
                check.check_tie_table((out / "out.csv").read_text(encoding="utf-8"),
                                      inputs.data_dir / "polblogs.txt", self.reference,
                                      inputs.seed)
        except (check.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None


@contextmanager
def workspace(name: str):
    """A scratch directory inside the checkout, removed afterwards."""
    work = ROOT / ".perfbench-work" / name
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The program's hot loops are single-threaded Python and scipy; one
    # BLAS/OpenMP thread keeps idle pool threads off the second core.
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Op:
    """One child process: wall seconds from spawn to exit, user plus system
    CPU seconds, peak resident set in MiB, exit code, stderr, and why its
    output was rejected, if it was."""

    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int
    stderr: bytes
    failure: str | None = None


def spawn(argv: list[str], env: dict, out: Path) -> Op:
    """Run one child to exit, with stdout and stderr in files beside out."""
    stdout = out.parent / (out.name + ".stdout")
    stderr = out.parent / (out.name + ".stderr")
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return Op(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
              os.waitstatus_to_exitcode(status), stderr.read_bytes())


def run_op(workload: str, inputs: Inputs, work: Path, checker: Checker, env: dict,
           trace_file: Path | None = None, op_id: int = 0) -> Op:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    args = op_args(workload, inputs, out)
    if trace_file is None:
        argv = [sys.executable, "-c", ENTRY, *args]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_file), str(op_id), *args]
    op = spawn(argv, env, work / "child")
    if op.code != 0:
        op.failure = f"exit code {op.code}: {op.stderr.decode(errors='replace').strip()[-300:]}"
    elif b"Traceback" in op.stderr:
        op.failure = "traceback on stderr"
    else:
        op.failure = checker(out)
    return op


def measure_setup(workload: str, inputs: Inputs, work: Path, env: dict, repeats: int) -> list[float]:
    argv = [sys.executable, "-c", SETUP, *setup_paths(workload, inputs)]
    walls = []
    for _ in range(repeats):
        op = spawn(argv, env, work / "setup")
        if op.code != 0:
            raise RuntimeError(f"set-up process failed: {op.stderr.decode(errors='replace')[-300:]}")
        walls.append(op.wall_s)
    return walls


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def layer_metrics(trace: dict) -> dict[str, float]:
    spans = trace["spans"]
    duration = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += duration[i]

    def total(name: str) -> float:
        return sum(d for (n, *_), d in zip(spans, duration) if n == name)

    def self_time(name: str) -> float:
        return sum(d - c for (n, *_), d, c in zip(spans, duration, covered) if n == name)

    c = trace["counters"]
    lookups = c.get("ties.contributor_lookups", 0)
    return {
        "graph.load_s": total("graph.load") + total("graph.lcc"),
        "graph.induced_subgraph_s": total("graph.induced_subgraph"),
        "graph.induced_subgraph_calls": c.get("graph.induced_subgraph_calls", 0),
        "graph.apsp_s": total("graph.apsp"),
        "graph.apsp_calls": c.get("graph.apsp_calls", 0),
        "graph.apsp_cells": c.get("graph.apsp_cells", 0),
        "graph.apsp_bytes_computed": 8 * c.get("graph.apsp_cells", 0),
        "ties.build_s": total("ties.build"),
        "ties.ordered_edges": c.get("ties.ordered_edges", 0),
        "ties.contributors_s": total("ties.contributors"),
        "ties.contributors_calls": c.get("ties.contributors_calls", 0),
        "ties.contributor_lookups": lookups,
        "ties.contributor_hit_ratio": c.get("ties.contributor_hits", 0) / lookups if lookups else 0.0,
        "ties.dump_s": total("ties.dump"),
        "models.cns_s": total("models.cns"),
        "models.ic_s": total("models.ic"),
        "models.si_s": total("models.si"),
        "models.cns_activate_calls": c.get("models.cns_activate_calls", 0),
        "models.rounds_recorded": c.get("models.rounds_recorded", 0),
        "models.truncated_runs": c.get("models.truncated_runs", 0),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.self_s": self_time("metrics.evaluate"),
        "metrics.rows": c.get("metrics.rows", 0),
        "metrics.multi_node_rows": c.get("metrics.multi_node_rows", 0),
        "harness.run_experiment_self_s": self_time("harness.run_experiment"),
        "harness.reproduce_self_s": self_time("harness.reproduce"),
        "harness.padded_runs": c.get("harness.padded_runs", 0),
        "cli.write_csv_s": total("cli.write_csv"),
        "cli.import_s": trace["import_s"],
        "trace.absent_names": len(trace["absent"]),
    }


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0


def measure(workload: str, inputs: Inputs, work: Path, seconds: float, reference: dict) -> Result:
    """Untraced closed loop: end-to-end metrics."""
    env = child_env()
    checker = Checker(workload, inputs, reference)
    setup = measure_setup(workload, inputs, work, env, SETUP_REPEATS)
    ops: list[Op] = []
    rows = 0
    while len(ops) < MIN_OPS or sum(o.wall_s for o in ops) + ops[-1].wall_s <= seconds:
        ops.append(run_op(workload, inputs, work, checker, env))
        if ops[-1].failure is None:
            rows = output_rows(workload, work / "out")
    walls = [o.wall_s for o in ops]
    wall = statistics.median(walls)
    failures = [o.failure for o in ops if o.failure]
    tail = tail_percentile(walls)
    tail_text = f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "no percentile with 10 samples beyond it"
    notes = [
        f"wall_s        median {wall:.4f} s, {tail_text}, n={len(walls)}; "
        + " ".join(f"{w:.3f}" for w in walls),
        f"cpu_s         median {statistics.median(o.cpu_s for o in ops):.4f} s, n={len(ops)}",
        f"rows_per_s    {rows / wall:.4f} rows/s at {rows} rows per operation, n={len(walls)}",
        f"setup_s       median {statistics.median(setup):.4f} s, n={len(setup)}",
        f"peak_rss_mib  median {statistics.median(o.rss_mib for o in ops):.2f} MiB, "
        f"max {max(o.rss_mib for o in ops):.2f} MiB, n={len(ops)}",
        f"error_rate    {len(failures)}/{len(ops)} = {len(failures) / len(ops):.4f}",
    ] + [f"failure: {f}" for f in failures[:3]]
    return Result(len(ops), len(failures), {
        "wall_s": wall,
        "cpu_s": statistics.median(o.cpu_s for o in ops),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(o.rss_mib for o in ops),
    }, notes)


def measure_traced(workload: str, inputs: Inputs, work: Path, seconds: float,
                   reference: dict) -> Result:
    """Traced operations alternating with untraced ones: per-layer metrics."""
    env = child_env()
    checker = Checker(workload, inputs, reference)
    traced: list[tuple[Op, dict]] = []
    plain: list[Op] = []
    failures = []
    while (len(plain) < MIN_TRACED
           or sum(o.wall_s for o, _ in traced) + sum(o.wall_s for o in plain)
           + traced[-1][0].wall_s <= seconds):
        if len(traced) <= len(plain):
            trace_file = work / "trace.json"
            op = run_op(workload, inputs, work, checker, env, trace_file, len(traced) + len(plain))
            trace = json.loads(trace_file.read_text()) if op.failure is None else None
            traced.append((op, trace))
        else:
            op = run_op(workload, inputs, work, checker, env)
            plain.append(op)
        if op.failure:
            failures.append(op.failure)
    attempted = len(traced) + len(plain)
    notes = [f"failure: {f}" for f in failures[:3]]
    traces = [t for op, t in traced if t is not None]
    if not traces:
        return Result(attempted, len(failures), {name: 0.0 for name in PER_LAYER}, notes)
    per_op = [layer_metrics(t) for t in traces]
    counters = [t["counters"] for t in traces]
    if any(c != counters[0] for c in counters):
        failures.append("counters differ between traced operations")
        notes.append(failures[-1])
    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    traced_wall = statistics.median(op.wall_s for op, _ in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(o.wall_s for o in plain)
    absent = traces[0]["absent"]
    if absent:
        notes.append(f"absent wrapped names: {', '.join(absent)}")
    rows = metrics["metrics.multi_node_rows"]
    relation = "holds" if metrics["graph.apsp_calls"] == 2 * rows else "does not hold"
    notes += [
        f"traced {len(traced)} and untraced {len(plain)} operations; tracing overhead "
        f"{metrics['trace.overhead_s']:.4f} s per operation",
        f"graph.apsp_calls = {metrics['graph.apsp_calls']:.0f}, 2 x metric rows with a horizon "
        f"over one node = {2 * rows:.0f}: relation {relation}",
        "metrics.evaluate per trace, first traced operation: " + " ".join(
            f"{end - start:.3f}" for name, start, end, *_ in traces[0]["spans"]
            if name == "metrics.evaluate") + " s",
    ]
    return Result(attempted, len(failures), {k: metrics[k] for k in PER_LAYER}, notes)


def environment() -> str:
    versions = " ".join(f"{p} {metadata.version(p)}" for p in ("numpy", "scipy", "networkx"))
    threads = " ".join(f"{var}={child_env()[var]}" for var in THREAD_VARS)
    return (f"python {sys.version.split()[0]} {versions} nproc {os.cpu_count()} "
            f"affinity {len(os.sched_getaffinity(0))} {threads}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path,
                 reference: dict) -> Result:
    inputs = make_inputs("full", seed, work / workload)
    load_before = os.getloadavg()
    if trace:
        result = measure_traced(workload, inputs, work / workload, seconds, reference)
    else:
        result = measure(workload, inputs, work / workload, seconds, reference)
    load_after = os.getloadavg()
    print(f"workload {workload} seed {seed}"
          f"{' (default inputs)' if inputs.default else ''} trace {int(trace)}")
    for note in result.notes:
        print("  " + note)
    print(f"  env {environment()}")
    print("  loadavg before " + " ".join(f"{x:.2f}" for x in load_before)
          + " after " + " ".join(f"{x:.2f}" for x in load_after))
    return result


def smoke(work: Path, reference: dict) -> int:
    """Every workload once on karate/lesmis-sized inputs, traced and not."""
    env = child_env()
    ok = True

    def verdict(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok &= passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))

    live = check.DistanceOracle({}, live=True)
    for name in ("karate", "lesmis"):
        comp = check.largest_component(check.adjacency(Path("data") / f"{name}.txt"))
        recorded = check.DistanceOracle(reference["distances"]).final_strings(comp)
        verdict(f"recorded networkx distances of {name}", recorded == live.final_strings(comp))
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, 7):
            wdir = work / f"smoke-{workload}-{seed}"
            wdir.mkdir()
            inputs = make_inputs("smoke", seed, wdir)
            checker = Checker(workload, inputs, reference, live_oracle=True)
            op = run_op(workload, inputs, wdir, checker, env)
            verdict(f"{workload} seed {seed} output", op.failure is None, op.failure or "")
            files = sorted(p for p in (wdir / "out").iterdir() if p.is_file())
            for flip in range(3):
                rng = random.Random(flip)
                path = rng.choice(files)
                original = path.read_bytes()
                data = bytearray(original)
                pos = rng.randrange(len(data))
                data[pos] ^= 1 << rng.randrange(7)
                path.write_bytes(bytes(data))
                flipped = Checker(workload, inputs, reference)(wdir / "out")
                path.write_bytes(original)
                verdict(f"{workload} seed {seed}: flipped byte {pos} of {path.name} fails",
                        flipped is not None, flipped or "")
            if seed != DEFAULT_SEED:
                continue
            traces = []
            for op_id in range(2):
                trace_file = wdir / f"trace{op_id}.json"
                op = run_op(workload, inputs, wdir, checker, env, trace_file, op_id)
                verdict(f"{workload} traced output {op_id}", op.failure is None, op.failure or "")
                if op.failure is None:
                    traces.append(json.loads(trace_file.read_text()))
            if len(traces) == 2:
                verdict(f"{workload} trace has no absent names", not traces[0]["absent"],
                        ", ".join(traces[0]["absent"]))
                verdict(f"{workload} counters repeat across traced operations",
                        traces[0]["counters"] == traces[1]["counters"])
                layers = layer_metrics(traces[0])
                holds = layers["graph.apsp_calls"] == 2 * layers["metrics.multi_node_rows"]
                print(f"[INFO] {workload}: graph.apsp_calls = 2 x metrics.multi_node_rows "
                      f"{'holds' if holds else 'does not hold'}")
            setup = measure_setup(workload, inputs, wdir, env, 1)
            verdict(f"{workload} set-up", True, f"{setup[0]:.3f} s")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    required = [ROOT / "src" / "netdiffuse" / "cli.py", ROOT / "data" / "polblogs.txt",
                check.REFERENCE_PATH]
    missing = [str(p.relative_to(ROOT)) for p in required if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a netdiffuse checkout",
              file=sys.stderr)
        return 2
    reference = check.load_reference()
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    with workspace(str(os.getpid())) as work:
        if args.smoke:
            return smoke(work, reference)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            (work / name).mkdir()
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         work, reference)
    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(r.correct for r in results.values()),
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": {
            (f"{w}.{k}" if prefix else k): {"value": v, "unit": units[k]}
            for w, r in results.items() for k, v in r.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
