#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload solve-budget-20k --seeds 1-10 [--trace 0] [--out f.json]

For every metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, beside the bound BENCHMARK.json
gives the metric. Runs go one after another, never in parallel, so that
they do not slow each other.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values, runs = {}, []
    for seed in args.seeds:
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **{k: result[k] for k in ("correct", "attempted", "failed")}})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {name: summarise(v) for name, v in values.items()}
    for name, s in summary.items():
        bound = bounds.get(name)
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"spread {spread}" + (f" bound {bound}" if bound else ""))
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                        "runs": runs, "metrics": summary}, indent=1) + "\n")
    return 0 if runs else 1


if __name__ == "__main__":
    sys.exit(main())
