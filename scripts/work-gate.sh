#!/usr/bin/env bash
# Work gate: fails when HEAD does more simulated or heap work than BASE.
#
#   bash scripts/work-gate.sh BASE_DIR HEAD_DIR
#
# Runs tsbench's three simulator workloads once in each checkout, with
# that checkout's own benchmark/run.sh, and compares the detail lines.
# The simulator is deterministic and its worker count is physical only,
# so the sim.* counts and the leaked goroutines repeat exactly and may
# not rise, and the simulated fingerprint may not move at all.
# heap.objects_per_op spread up to 2.6% over 20 runs of fpu-matmul on a
# 2-vCPU host, so it may rise by up to 5%. No baseline is checked in: the base is
# measured afresh beside the head.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 BASE_DIR HEAD_DIR" >&2; exit 2; }
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
workloads="ckpt-recovery lattice-12cube fpu-matmul"
for w in $workloads; do
  for side in base head; do
    dir="$1"; [ "$side" = head ] && dir="$2"
    log="$out/$side-$w.log"
    bash "$dir/benchmark/run.sh" --workload "$w" --seed 1 --seconds 3 --trace 0 > "$log" 2>&1 &&
      grep '^{"workload"' "$log" | tail -n 1 > "$out/$side-$w.json" || {
      tail -n 20 "$log" >&2
      echo "work gate: $w gave no result on $side ($dir)" >&2
      exit 1
    }
  done
done
python3 - "$out" $workloads <<'EOF'
import json, sys

out, workloads = sys.argv[1], sys.argv[2:]
exact = ["sim.events", "sim.parks", "sim.unparks", "sim.procs_spawned",
         "sim.windows", "sim.cross_shard", "runtime.goroutines_leaked_per_op"]
equal = ["sim.elapsed_s", "link.mb", "fpu.flops"]
heap, heap_slack = "heap.objects_per_op", 1.05
failed = []
for w in workloads:
    base, head = (json.load(open(f"{out}/{side}-{w}.json")) for side in ("base", "head"))
    if not head["correct"]:
        failed.append(f"{w}: head reports correct=false")
    for m in exact + equal + [heap]:
        b, h = base["metrics"][m]["value"], head["metrics"][m]["value"]
        bad = h > b if m in exact else h != b if m in equal else h > heap_slack * b
        delta = f"{h - b:+.10g}" + (f" ({(h - b) / b:+.1%})" if b else "")
        print(f"{w:15} {m:34} {b:>14.10g} -> {h:<14.10g} {delta:22} {'FAIL' if bad else 'ok'}")
        if bad:
            failed.append(f"{w}: {m} {b:.10g} -> {h:.10g}")
if failed:
    sys.exit("work gate: FAIL\n  " + "\n  ".join(failed))
print("work gate: ok")
EOF
