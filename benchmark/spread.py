#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports, per workload and
end-to-end metric, the median and the interquartile spread as a share of
the median - the quantity BENCHMARK.json's bounds are judged against.

    python3 benchmark/spread.py [--seeds 1-10] [--workload NAME] [--out FILE]
    python3 benchmark/spread.py --compare FIRST.json SECOND.json

Every invocation of the benchmark goes through the command recorded in
BENCHMARK.json, from the repository root. `--out` keeps the raw values;
`--compare` holds two such files against the bounds: a metric regresses
when the second median is worse than the first by more than its bound,
and is unresolved when the spread of either set exceeds the bound.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed):
    cmd = CONTRACT["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(CONTRACT["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure(workloads, seeds):
    runs = {}
    for w in workloads:
        runs[w] = {}
        for seed in seeds:
            for name, value in run_once(w, seed).items():
                runs[w].setdefault(name, []).append(value)
            print(f"  {w} seed {seed} done", file=sys.stderr)
    return runs


def report(runs):
    print(f"{'workload':<26}{'metric':<24}{'median':>14}{'spread':>9}{'bound':>7}")
    for w, metrics in runs.items():
        for m in CONTRACT["end_to_end"]:
            values = metrics[m["name"]]
            flag = "" if spread(values) <= m["bound"] / 3 or m["name"] == "setup_s" else "  > bound/3"
            print(f"{w:<26}{m['name']:<24}{statistics.median(values):>14.5g}"
                  f"{spread(values):>9.4f}{m['bound']:>7}{flag}")


def compare(first, second):
    worst = 0
    print(f"{'workload':<26}{'metric':<24}{'first':>12}{'second':>12}{'worse by':>10}  verdict")
    for w in first:
        for m in CONTRACT["end_to_end"]:
            a, b = first[w][m["name"]], second[w][m["name"]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            if worse > m["bound"]:
                verdict, worst = "REGRESSED", 1
            elif max(spread(a), spread(b)) > m["bound"] and m["name"] != "setup_s":
                verdict = "unresolved (spread > bound)"
            else:
                verdict = "within bound"
            print(f"{w:<26}{m['name']:<24}{ma:>12.5g}{mb:>12.5g}{worse:>+10.4f}  {verdict}")
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="inclusive range A-B (default 1-10)")
    ap.add_argument("--workload", action="append", help="repeatable; default: all")
    ap.add_argument("--out", help="write the raw values here as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    if args.compare:
        first, second = (json.loads(pathlib.Path(p).read_text()) for p in args.compare)
        sys.exit(compare(first, second))
    lo, hi = (int(x) for x in args.seeds.split("-"))
    workloads = args.workload or [w["name"] for w in CONTRACT["workloads"]]
    runs = measure(workloads, range(lo, hi + 1))
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(runs))
    report(runs)


if __name__ == "__main__":
    main()
