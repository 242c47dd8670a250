#!/usr/bin/env python3
"""Seeded layered benchmark of the overhear pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload mission-11-yoyo --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` records spans
around the public calls of every module and prints per-layer metrics and
the tracing overhead.  ``--workload all`` runs every workload, each in its
own process.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full records and spans go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time the measured rounds may take")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def summary(result: dict, attempted: int, failed: int, correct: bool) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in result["metrics"].items()}}


def run_one(bench_module, args) -> int:
    bench = bench_module.Bench(bench_module.WORKLOADS[args.workload], args.seed, ROOT)
    result = bench.run(args.seconds, bool(args.trace))
    correct = bench.failed == 0 and all(ok for _, ok, _ in bench.checks)
    result.update(correct=correct, attempted=bench.attempted, failed=bench.failed)
    env = result["env"]
    print("env " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))
    for name, ok, detail in bench.checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    for name, m in result["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"metric {name} {value} {m['unit']} ({m['note']})")
    frac = bench.failed / bench.attempted if bench.attempted else 0.0
    print(f"failed_frac {frac:.6g} ({bench.failed} failed of {bench.attempted} attempted)")
    bench.out_dir.mkdir(exist_ok=True)
    record = bench.out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(summary(result, bench.attempted, bench.failed, correct)))
    return 0


def run_all(names, args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import bench
    except ImportError as exc:
        print(f"perfbench: cannot import the overhear package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(bench.WORKLOADS), args)
    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(bench, args)


if __name__ == "__main__":
    sys.exit(main())
