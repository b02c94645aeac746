"""Run one workload untraced over several seeds and report each end-to-end
metric's median and its spread: the distance between the first and third
quartiles as a share of the median.

    python3 bench/spread.py --workload heavy-tail --seeds 1-10

Each run's JSON line is appended to bench/results/<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    values = {}
    with open(os.path.join(HERE, "results", args.workload + ".jsonl"), "a") as log:
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            log.write(json.dumps(dict(seed=seed, **result)) + "\n")
            print("seed %d: correct=%s attempted=%d failed=%d" % (
                seed, result["correct"], result["attempted"], result["failed"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) < 2:
            print("%-40s median %12.6g" % (name, median))
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print("%-40s median %12.6g  spread %.4f  min %.6g  max %.6g"
              % (name, median, spread, min(vals), max(vals)))


if __name__ == "__main__":
    main()
