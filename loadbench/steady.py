"""Steadiness check: two interleaved sets of runs per workload.

Usage, from the root of a checkout::

    python3 loadbench/steady.py --runs 10 [--traced 3] [--workloads login_tcp ...]

Set A uses seeds 1..N and set B seeds 1001..1000+N; run i of set A and
run i of set B of every workload alternate, so drift of the host during
the check lands on both sets alike.  For every end-to-end metric the
table gives each set's median and quartiles, the spread (interquartile
range over the median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles), and the change of set B's median against set A's in the
metric's worse direction, next to the metric's bound from
``BENCHMARK.json``.  With ``--traced K`` it also makes K traced runs per
workload and reports the tracing overhead as traced over untraced
``ops_per_s``, giving both.  Raw results go to
``.loadbench/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    result["seed"] = seed
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    names = [w["name"] for w in config["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be >= 2 (quartiles need two values)")

    results: Dict[str, Dict[str, List[dict]]] = {w: {"A": [], "B": [], "traced": []} for w in args.workloads}
    for index in range(args.runs):
        for workload in args.workloads:
            for name, seed in (("A", 1 + index), ("B", 1001 + index)):
                result = run_once(workload, seed, args.seconds, 0)
                results[workload][name].append(result)
                print(f"# {workload} set {name} seed {seed}: {result['wall_s']:.1f}s, "
                      f"ops_per_s {result['metrics']['ops_per_s']['value']:.1f}", file=sys.stderr)
    for index in range(args.traced):
        for workload in args.workloads:
            results[workload]["traced"].append(run_once(workload, 2001 + index, args.seconds, 1))

    stamp = time.strftime("%Y%m%d-%H%M%S")
    os.makedirs(os.path.join(ROOT, ".loadbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".loadbench", f"steady-{stamp}.json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)

    print(f"Two sets of {args.runs} runs per workload, {args.seconds} s each "
          "(set A seeds 1.., set B seeds 1001..).\n")
    print("| workload | metric | A median [q1, q3] | A spread | B median [q1, q3] | B spread "
          "| B vs A (worse +) | bound |")
    print("|---|---|---|---|---|---|---|---|")
    ok = True
    for workload in args.workloads:
        sets = results[workload]
        for spec in config["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            cells = []
            medians = []
            for label in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[label]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
                cells.append(f"{spread:.3f}")
                if spread > bound:
                    ok = False
            sign = 1 if spec["better"] == "lower" else -1
            change = sign * (medians[1] - medians[0]) / medians[0]
            if change > bound:
                ok = False
            print(f"| {workload} | {name} | {cells[0]} | {cells[1]} | {cells[2]} | {cells[3]} "
                  f"| {change:+.3f} | {bound} |")
        for label in ("A", "B"):
            attempted = sum(r["attempted"] for r in sets[label])
            failed = sum(r["failed"] for r in sets[label])
            print(f"| {workload} | failed / attempted, set {label} | {failed} / {attempted} "
                  f"| | | | | |")
    for workload in args.workloads:
        traced = results[workload]["traced"]
        if traced:
            untraced = statistics.median(
                r["metrics"]["ops_per_s"]["value"] for r in results[workload]["A"] + results[workload]["B"]
            )
            with_trace = statistics.median(r["metrics"]["traced.ops_per_s"]["value"] for r in traced)
            print(f"\ntracing overhead, {workload}: traced {with_trace:.1f} ops/s over untraced "
                  f"{untraced:.1f} ops/s = {with_trace / untraced:.3f} ({len(traced)} traced runs)")
    print(f"\nall spreads and set-to-set changes within bounds: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
