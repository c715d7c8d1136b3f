#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

For each workload and end-to-end metric this prints the median of the
per-seed values and their spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from BENCHMARK.json. A spread above a
third of its bound is flagged, as is one above the bound itself.

    python3 perfbench/spread.py --seeds 1-10                # all workloads
    python3 perfbench/spread.py --workloads contended-1000 --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out a.json   # save the runs
    python3 perfbench/spread.py --compare a.json b.json     # second set vs first

``--compare`` checks that no metric's median in the second set is worse
than in the first by more than the metric's bound. Run from the
repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def report(runs):
    for workload, per_seed in runs.items():
        print(f"\n{workload} ({len(per_seed)} seeds)")
        for name in per_seed[0]:
            values = [r[name] for r in per_seed]
            s = spread(values) if len(values) >= 2 else 0.0
            bound = E2E.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "OVER BOUND" if s > bound else ("over bound/3" if s > bound / 3 else "")
            shown = f"{bound:.3f}" if bound is not None else "-"
            print(f"  {name:32} median {statistics.median(values):<14.6g} "
                  f"spread {s:8.4f}  bound {shown:>6}  {flag}")


def compare(first, second):
    worse = 0
    for workload in first:
        for name, m in E2E.items():
            a = statistics.median(r[name] for r in first[workload])
            b = statistics.median(r[name] for r in second[workload])
            change = (b - a) / a if m["better"] == "lower" else (a - b) / a
            bad = change > m["bound"]
            worse += bad
            print(f"{workload:18} {name:20} {a:<14.6g} -> {b:<14.6g} "
                  f"worse by {change:+.4f} (bound {m['bound']}) {'FAIL' if bad else ''}")
    return worse


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", nargs=2, type=Path)
    args = ap.parse_args()
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        sys.exit(1 if compare(a, b) else 0)
    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            runs[workload].append(run(workload, seed, args.trace))
            print(f"{workload} seed {seed} done", file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    report(runs)


if __name__ == "__main__":
    main()
