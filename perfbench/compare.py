#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or summarise one.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Inputs are record files written by perfbench/sweep.py. For every
workload and metric this prints each set's median and quartiles
(Python's statistics.quantiles, n=4), the spread (IQR / median), and,
given two sets, the relative delta of the medians and a verdict:

  better      NEW beats BASE by more than BASE's own spread, and wins at
              least 9 of 10 seed-paired runs
  worse       NEW's median is worse than BASE's by more than the
              metric's bound in BENCHMARK.json
  unresolved  either set's spread exceeds the bound, so the sets
              cannot tell a change of that size from noise
  same        none of the above

Per-layer metrics (traced runs) have no bound and get no verdict. A
warning is printed when the host fingerprints differ. Exit status is 1
when any metric is worse, else 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def bounds():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def hosts(runs):
    out = set()
    for r in runs:
        h = dict(r.get("host") or {})
        h.pop("source", None)
        out.add(json.dumps(h, sort_keys=True))
    return out


def table(runs):
    """{(workload, trace): {metric: {seed: value}}}, plus failures."""
    values, problems = {}, []
    for r in runs:
        res = r.get("result")
        key = (r["workload"], r["trace"])
        if res is None or not res.get("correct") or res.get("failed"):
            problems.append(f"{r['workload']} seed={r['seed']}: exit={r['exit']} "
                            f"result={'none' if res is None else 'incorrect/failed'}")
            if res is None:
                continue
        for name, m in res["metrics"].items():
            values.setdefault(key, {}).setdefault(name, {})[r["seed"]] = m["value"]
    return values, problems


def quartiles(vals):
    if len(vals) < 2:
        v = vals[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals):
    q1, q2, q3 = quartiles(vals)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base, new, spec):
    if spec is None:
        return "n/a"
    lower = spec["better"] == "lower"
    bq1, bmed, bq3 = quartiles(list(base.values()))
    _, nmed, _ = quartiles(list(new.values()))
    delta = (nmed - bmed) / abs(bmed)
    worse = delta if lower else -delta
    if worse > spec["bound"]:
        return "worse"
    if max(spread(list(base.values())), spread(list(new.values()))) > spec["bound"]:
        return "unresolved"
    paired = [s for s in base if s in new]
    wins = sum(1 for s in paired if (new[s] < base[s] if lower else new[s] > base[s]))
    if -worse > (bq3 - bq1) / abs(bmed) and paired and wins >= 0.9 * len(paired):
        return "better"
    return "same"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    sets = [load(p) for p in argv]
    spec = bounds()
    if len(sets) == 2 and hosts(sets[0]) != hosts(sets[1]):
        print("WARNING: host fingerprints differ between the two sets:")
        for label, runs in zip(("base", "new"), sets):
            for h in sorted(hosts(runs)):
                print(f"  {label}: {h}")
    tables = [table(runs) for runs in sets]
    for label, (_, problems) in zip(("base", "new"), tables):
        for p in problems:
            print(f"FAILED RUN ({label}): {p}")
    any_worse = False
    for key in sorted(tables[0][0]):
        workload, trace = key
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'})")
        head = f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}"
        if len(sets) == 2:
            head += f" {'new med':>12s} {'spread':>7s} {'delta':>8s}  verdict"
        else:
            head += f" {'bound/3':>8s}"
        print(head)
        for name, base in tables[0][0][key].items():
            q1, med, q3 = quartiles(list(base.values()))
            m = spec.get(name) if not trace else None
            line = f"  {name:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread(list(base.values())):7.3f}"
            if len(sets) == 2:
                new = tables[1][0].get(key, {}).get(name)
                if not new:
                    line += "  (missing in new set)"
                else:
                    _, nmed, _ = quartiles(list(new.values()))
                    v = verdict(base, new, m)
                    any_worse |= v == "worse"
                    line += (f" {nmed:12.5g} {spread(list(new.values())):7.3f} "
                             f"{(nmed - med) / abs(med) * 100:+7.2f}%  {v}")
            elif m is not None:
                line += f" {m['bound'] / 3:8.3f}"
            print(line)
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
