#!/usr/bin/env python3
"""Steadiness mode for the repository benchmark.

Runs the benchmark command from BENCHMARK.json several times per workload,
each run with its own seed, and prints every metric's median and quartiles.
A metric whose spread -- (q3 - q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them -- exceeds its bound is flagged;
one above a third of its bound is marked as tight.

Run from the repository root:

    python3 ccbench/steady.py                       # every workload, 10 seeds
    python3 ccbench/steady.py --workload serve --runs 5
    python3 ccbench/steady.py --trace 1 --runs 3    # per-layer medians

Exits 1 if any run fails, reports an incorrect result, or (with --trace 0) a
metric other than setup_s spreads beyond its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = parser.parse_args()

    catalog = bench["per_layer"] if opts.trace else bench["end_to_end"]
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in catalog}
        for i in range(opts.runs):
            seed = opts.first_seed + i
            result = run_once(bench["command"], workload, seed, opts.seconds, opts.trace)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result "
                      f"({result['failed']} of {result['attempted']} failed)")
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}: {opts.runs} runs, seeds {opts.first_seed}.."
              f"{opts.first_seed + opts.runs - 1}, {opts.seconds} s, trace {opts.trace}")
        for m in catalog:
            name, vals = m["name"], values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            bound = m.get("bound")
            if bound is not None:
                if spread > bound:
                    flag = "SPREAD ABOVE BOUND"
                    ok = ok and name == "setup_s"
                elif spread > bound / 3:
                    flag = "tight (above a third of the bound)"
            bound_text = f"bound {bound:.3f}" if bound is not None else ""
            print(f"  {name:<28} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:7.4f} {m['unit']:<6} {bound_text} {flag}")
            print("      runs: " + " ".join(f"{v:.6g}" for v in vals))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
