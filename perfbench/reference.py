"""Record reference.json from the program as it is now.

    python3 perfbench/reference.py

Runs each workload once on default-seed inputs, full and smoke, and
stores the digests of its outputs (per dataset/model group as well, for
reproduce). Also stores networkx's diameter and distance sum of every
dataset's largest component. Record only at a commit whose outputs are
known to be right: every later check compares against these digests.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import check
import run


def main() -> int:
    os.chdir(run.ROOT)
    env = run.child_env()
    reference: dict = {"distances": {}}
    with run.workspace(f"reference-{os.getpid()}") as work:
        for profile in ("full", "smoke"):
            reference[profile] = {}
            for workload in run.WORKLOADS:
                wdir = work / f"{profile}-{workload}"
                wdir.mkdir()
                inputs = run.make_inputs(profile, run.DEFAULT_SEED, wdir)
                out = wdir / "out"
                out.mkdir()
                argv = [sys.executable, "-c", run.ENTRY, *run.op_args(workload, inputs, out)]
                op = run.spawn(argv, env, wdir / "child")
                if op.code != 0:
                    raise SystemExit(f"{workload}: exit {op.code}: {op.stderr.decode()}")
                if workload == "reproduce":
                    reference[profile][workload] = {
                        "digest": check.reproduce_digest(out),
                        "groups": check.reproduce_groups(out),
                    }
                else:
                    reference[profile][workload] = check.sha256((out / "out.csv").read_bytes())
        for name in check.DATASETS:
            comp = check.largest_component(check.adjacency(Path("data") / f"{name}.txt"))
            reference["distances"][check.canonical_digest(comp)] = check.networkx_distances(comp)
    check.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
