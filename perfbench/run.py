"""Benchmark command: one workload run, every metric printed by name and unit.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs with layer
probes installed on every other round and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run exits non-zero when a
correctness check fails or the program under test is missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space (run stores, service state, the written trace) inside the checkout.
WORKROOT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("sweep", "ratios", "service", "fabric")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    WORKROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKROOT))
    # Keep every temporary file of this process and its children in the checkout.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)

    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    ctx = harness.Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        workdir=workdir, root=ROOT,
    )
    try:
        workload = WORKLOADS[args.workload](ctx)
        outcome = harness.drive(workload, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    print(json.dumps({
        "machine": harness.machine_info(),
        "workload": args.workload,
        "seed": args.seed,
        "import_s": outcome.import_s,
        "rounds": [dataclasses.asdict(r) for r in outcome.rounds],
    }))
    if args.workload == "service" and not args.trace:
        print(json.dumps({"client_latency": workload.client_latency(traced=False)}))
    if args.workload == "ratios":
        print(f"known defect (ROADMAP item 2): two-disk seed "
              f"{workload.known_defect_seed} failed "
              f"{workload.known_defect_failures} time(s)")
    if outcome.tracer is not None:
        trace_path = WORKROOT / f"trace-{args.workload}-seed{args.seed}.json"
        trace = outcome.tracer.as_json()
        traced_rounds = sum(r.traced for r in outcome.rounds)
        trace["self_s_per_round"] = {
            name: seconds / traced_rounds
            for name, seconds in outcome.tracer.self_times().items()
        }
        trace_path.write_text(json.dumps(trace))
        for name, seconds in sorted(trace["self_s_per_round"].items(), key=lambda kv: -kv[1]):
            print(f"self {name:<28} {seconds:10.4f} s per traced round")
        print(f"spans written to {trace_path}")
    for name, value in outcome.metrics.items():
        print(f"{name:<32} {value:14.6f} {units[name]}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome.metrics.items()
        },
    }))
    return 1 if outcome.problems else 0


if __name__ == "__main__":
    sys.exit(main())
