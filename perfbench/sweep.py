#!/usr/bin/env python3
"""Run the benchmark over several seeds and record every run.

    python3 perfbench/sweep.py --out runs.jsonl [--workloads a,b] [--seeds 1-10]
                               [--seconds 10] [--trace 0|1]

Each run is one `perfbench/run.py` process. Every record in the output
file (one JSON object per line) holds the workload, seed, host
fingerprint, wall time and the run's result object; feed two such files
to perfbench/compare.py. Workloads run interleaved by seed, so a slow
spell on the host spreads over all of them instead of one.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["train_tf_mnist", "serve_caffe_mnist"]


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    host = None
    for line in lines:
        if line.startswith("host "):
            host = json.loads(line[5:])
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
            "host": host, "wall_s": round(wall, 3), "exit": proc.returncode,
            "result": result, "stderr": proc.stderr[-2000:] if proc.returncode else ""}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for workload in args.workloads.split(","):
                rec = run_one(workload, seed, args.seconds, args.trace)
                out.write(json.dumps(rec) + "\n")
                out.flush()
                res = rec["result"] or {}
                print(f"{workload:22s} seed={seed:<4d} exit={rec['exit']} "
                      f"correct={res.get('correct')} failed={res.get('failed')} "
                      f"wall={rec['wall_s']:.1f}s", flush=True)


if __name__ == "__main__":
    main()
