#!/usr/bin/env python3
"""Run one workload of the benchmark over several seeds and print, per
metric, the median and the quartile spread (Q3 - Q1 as a share of the
median) of the per-run values.

Run from the repository root:

    python3 pwsrbench/spread.py --workload occ-hot --seeds 1-5 --seconds 30

By default each run is the command that `BENCHMARK.json` declares
(`cargo run ...`, which builds the benchmark first if needed);
`--binary` runs an already built `pwsrbench` executable instead. A run
that exits non-zero or reports `"correct": false` is left out of the
spread, and the script then exits 1.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-5"))
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--binary", help="a built pwsrbench executable")
    args = ap.parse_args()

    if args.binary:
        command = [args.binary]
    else:
        with open("BENCHMARK.json") as f:
            command = json.load(f)["command"]

    values = {}
    units = {}
    bad = 0
    for seed in args.seeds:
        out = subprocess.run(
            command + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if lines else {}
        ok = out.returncode == 0 and last.get("correct") is True
        print(f"seed {seed}: exit {out.returncode} correct={last.get('correct')} "
              f"failed={last.get('failed')}/{last.get('attempted')}", file=sys.stderr)
        if not ok:
            bad += 1
            print(out.stderr, file=sys.stderr)
            continue
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{name:45s} median {med:14.6g} {units[name]:6s} "
              f"spread {spread:7.3f}  min {min(vals):.6g} max {max(vals):.6g}")
    if bad:
        print(f"{bad} run(s) failed and were left out", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
