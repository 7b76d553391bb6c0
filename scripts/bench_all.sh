#!/usr/bin/env bash
# One-shot performance snapshot across every subsystem, written as
# BENCH_<pr>.json so the repo carries a perf trajectory (ROADMAP 5a)
# instead of scattered one-off numbers. Four headline metrics plus the
# chaos gauntlet's supervised-recovery cell and the multi-tenant fleet
# cell:
#
#   gemm_gflops      packed SIMD GEMM @ 384^3 (bench_micro_tensor)
#   train_step_ms    mean optimizer step, TF-default MNIST net on CPU
#                    (bench_fig1_mnist_baseline, step-capped)
#   serve_p99_ms     best serving-cell p99 (bench_serve --quick)
#   craft_p95_ms     best adversarial craft p95 (bench_fig8, FGSM)
#   gauntlet         supervised crash cell: goodput, p99 inflation,
#                    recovery window (bench_gauntlet --quick)
#   fleet            weighted-fair + SLO overload cell (drr_slo):
#                    worst-tenant p99, gold p99, aggregate goodput,
#                    bronze sheds (bench_serve "tenants" records)
#   ddp              deterministic data-parallel training scaling
#                    (bench_fig5 --train-workers): per-step time at
#                    K = 1/2/4 workers, speedup, scaling efficiency,
#                    the bitwise-identity verdict and the straggler
#                    cell's stall count (DESIGN.md §16)
#
# Training/attack cells are step-capped (DLB_STEP_CAP, default 40) so a
# snapshot takes minutes, not hours; per-step and per-attack times are
# scale-free, and the cap used is recorded in the JSON. Override:
#   DLB_STEP_CAP=0 scripts/bench_all.sh     # full-length training cells
#
# Usage: scripts/bench_all.sh [out.json] [build-dir]
#        (defaults: BENCH_10.json, build)

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_10.json}"
BUILD_DIR="${2:-build}"
export DLB_STEP_CAP="${DLB_STEP_CAP:-40}"

for bin in bench_micro_tensor bench_fig1_mnist_baseline bench_serve \
           bench_fig8_fgsm_untargeted bench_gauntlet \
           bench_fig5_caffe_convergence; do
  if [ ! -x "$BUILD_DIR/bench/$bin" ]; then
    echo "bench_all: $BUILD_DIR/bench/$bin not built (cmake --build $BUILD_DIR)" >&2
    exit 2
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "=== bench_all: GEMM micro ==="
"$BUILD_DIR/bench/bench_micro_tensor" \
  --benchmark_filter='BM_GemmPacked/384' \
  --benchmark_min_time=0.15 \
  --benchmark_format=json >"$TMP/gemm.json"

echo "=== bench_all: training baseline (step cap $DLB_STEP_CAP) ==="
"$BUILD_DIR/bench/bench_fig1_mnist_baseline" --json-out="$TMP/train.json"

echo "=== bench_all: serving ==="
"$BUILD_DIR/bench/bench_serve" --quick --json-out="$TMP/serve.json"

echo "=== bench_all: adversarial crafting (step cap $DLB_STEP_CAP) ==="
"$BUILD_DIR/bench/bench_fig8_fgsm_untargeted" --json-out="$TMP/craft.json"

echo "=== bench_all: chaos gauntlet ==="
"$BUILD_DIR/bench/bench_gauntlet" --quick --json-out="$TMP/chaos.json"

echo "=== bench_all: data-parallel scaling (step cap $DLB_STEP_CAP) ==="
"$BUILD_DIR/bench/bench_fig5_caffe_convergence" --train-workers \
  --json-out="$TMP/ddp.json"

python3 - "$TMP" "$OUT" <<'PY'
import datetime
import json
import os
import sys

tmp, out = sys.argv[1], sys.argv[2]


def load(name, kind=None):
    """Record list from a --json-out file: bare array when the bench
    emitted one record kind, keyed object ("runs"/"serve"/...) when
    mixed."""
    with open(os.path.join(tmp, name)) as f:
        doc = json.load(f)
    if isinstance(doc, dict) and kind is not None:
        return doc[kind]
    return doc


gemm = next(b for b in load("gemm.json")["benchmarks"]
            if b.get("run_type") != "aggregate")

# Mean optimizer-step time of the TF-default MNIST net on CPU — the
# first fig1 cell; per-step time is independent of the step cap.
train = next(r for r in load("train.json", "runs")
             if r["device"] == "CPU" and not r["error"])
step_ms = 1e3 * train["train"]["train_time_s"] / train["train"]["steps"]

serve = load("serve.json", "serve")
serve_p99_ms = 1e3 * min(r["latency"]["p99_s"] for r in serve)

craft = load("craft.json", "attack")
craft_p95_ms = 1e3 * min(r["craft"]["p95_s"] for r in craft)

chaos = load("chaos.json", "chaos")
crash_sup = next(r for r in chaos
                 if r["scenario"] == "crash" and r["supervised"])

# Multi-tenant fleet: the weighted-fair + SLO-admission overload cell.
# Worst-tenant p99 is the bronze flood paying for its own excess;
# aggregate goodput shows the control plane still serving near
# capacity while it sheds.
tenants = [t for t in load("serve.json", "tenants")
           if t["scenario"] == "drr_slo"]
fleet_worst_p99 = max(t["latency"]["p99_s"] for t in tenants)
fleet_gold_p99 = next(t["latency"]["p99_s"] for t in tenants
                      if t["slo"] == "gold")
fleet_goodput = sum(t["goodput_rps"] for t in tenants)

# Deterministic data-parallel scaling: the clean K sweep (shared shard
# count, so every K computes identical arithmetic) plus the straggler
# cell. `bitwise` is the determinism verdict across ALL rows — any
# false here means the all-reduce broke its ordering contract.
ddp = load("ddp.json", "ddp")
ddp_clean = sorted((r for r in ddp if r["scenario"] == "clean"),
                   key=lambda r: r["workers"])
ddp_straggler = [r for r in ddp if r["scenario"] == "straggler"]

snapshot = {
    "snapshot": os.path.splitext(os.path.basename(out))[0],
    "date": datetime.date.today().isoformat(),
    "step_cap": int(os.environ.get("DLB_STEP_CAP", "0")),
    "gemm_gflops": round(gemm["GFLOPs"], 2),
    "train_step_ms": round(step_ms, 3),
    "serve_p99_ms": round(serve_p99_ms, 3),
    "craft_p95_ms": round(craft_p95_ms, 3),
    "gauntlet": {
        "goodput_rps": round(crash_sup["goodput_rps"], 1),
        "offered_rps": round(crash_sup["offered_rps"], 1),
        "p99_inflation": (None
                          if crash_sup["degradation"]["p99_inflation"] is None
                          else round(
                              crash_sup["degradation"]["p99_inflation"], 2)),
        "recovery_s": crash_sup["degradation"]["recovery_s"],
        "crashes": crash_sup["events"]["crashes"],
        "restarts": crash_sup["events"]["restarts"],
    },
    "fleet": {
        "worst_tenant_p99_ms": round(1e3 * fleet_worst_p99, 3),
        "gold_p99_ms": round(1e3 * fleet_gold_p99, 3),
        "goodput_rps": round(fleet_goodput, 1),
        "bronze_shed": sum(t["shed"] for t in tenants),
    },
    "ddp": {
        "shards": ddp_clean[0]["shards"],
        "step_ms": {f"k{r['workers']}": round(1e3 * r["step_time_s"], 3)
                    for r in ddp_clean},
        "speedup": {f"k{r['workers']}": round(r["speedup"], 2)
                    for r in ddp_clean},
        "efficiency": {f"k{r['workers']}":
                       round(r["scaling_efficiency"], 2)
                       for r in ddp_clean},
        "bitwise": all(r["bitwise_match"] for r in ddp),
        "straggler_stalls": sum(r["dp_stalls"] for r in ddp_straggler),
    },
}
with open(out, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"\nbench_all snapshot -> {out}")
print(json.dumps(snapshot, indent=2))
PY
