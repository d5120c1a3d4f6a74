"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workloads analyze-fine,roundtrip --seeds 1-10
    python3 bench/spread.py --seeds 1-10 --out bench/baseline.json

Runs are sequential, one process at a time, from the repository root.  For
every end-to-end metric it prints the median, the quartiles and the spread
(interquartile distance over the median) next to the bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"),
            "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=None,
                   help="comma-separated names (default: all)")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--out", default=None, help="write the summary as JSON")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name in names:
        values, attempted, failed = {}, 0, 0
        for seed in args.seeds:
            result = run_once(spec, name, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}",
                  flush=True)
        summary[name] = {"seeds": args.seeds, "attempted": attempted,
                         "failed": failed,
                         "metrics": {k: summarize(v)
                                     for k, v in values.items()}}
        for key, s in summary[name]["metrics"].items():
            bound = bounds.get(key)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  !"
            print(f"  {key:16s} median {s['median']:.5g}  "
                  f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
                  f"spread {s['spread']:.3f}  bound {bound}{flag}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
