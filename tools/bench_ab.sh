#!/usr/bin/env bash
# Same-host A/B of the repository benchmark (perfbench/): the merge base of
# HEAD and a base ref against the current checkout, run alternately so that
# host noise falls on both sides alike.
#
# The base tree is exported with `git archive` into a scratch directory and
# built there with its own CARGO_TARGET_DIR (perfbench/run.py builds into
# $CARGO_TARGET_DIR/perfbench), so the two builds never share objects and a
# run leaves nothing behind in the checkout or in .git. For every workload
# and seed it runs
#
#   python3 perfbench/run.py --workload W --seed S --seconds T --trace 0
#
# once on each side, alternating which side goes first from pair to pair,
# and then prints, per workload and end-to-end metric: the base and head
# medians, their spreads ((Q3 - Q1) / median), the head/base ratio of the
# medians, and how many pairs the head won (per the metric's "better" in
# BENCHMARK.json). It also diffs the `fingerprint` lines of each seed: equal
# fingerprints mean equal behaviour.
#
# Exit status: 0 when every run succeeded and reported correct output with
# no failed operation, 1 otherwise (fingerprint differences are reported,
# not failed: a behaviour change may be intended).
set -euo pipefail

usage() {
  cat <<'EOF'
Usage: tools/bench_ab.sh [options]

Options:
  --base REF        compare against the merge base of HEAD and REF
                    (default: origin/main)
  --workload W      workload to run; repeatable (default: every workload in
                    BENCHMARK.json)
  --seeds "S ..."   space-separated seeds, one base/head pair each
                    (default: "1 7 23")
  --seconds T       --seconds passed to run.py (default: BENCHMARK.json's
                    run_seconds)
  --workdir DIR     keep the base export, both builds and every run's output
                    in DIR (reused by later runs; default: a temporary
                    directory removed on exit)
  -h, --help        print this help and exit

Run from anywhere inside the repository; the head side is the working tree
at its root, uncommitted changes included.
EOF
}

base_ref="origin/main"
workloads=()
seeds="1 7 23"
seconds=""
workdir=""
while [ $# -gt 0 ]; do
  case "$1" in
    --base) base_ref="${2:?--base needs a ref}"; shift 2 ;;
    --workload) workloads+=("${2:?--workload needs a name}"); shift 2 ;;
    --seeds) seeds="${2:?--seeds needs a list}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --workdir) workdir="${2:?--workdir needs a directory}"; shift 2 ;;
    -h|--help) usage; exit 0 ;;
    *) echo "error: unknown flag '$1'" >&2; usage >&2; exit 2 ;;
  esac
done

repo_root=$(git rev-parse --show-toplevel)
cd "$repo_root"
if ! git rev-parse --verify --quiet "$base_ref^{commit}" >/dev/null; then
  echo "error: base ref '$base_ref' does not exist; pass --base <ref>" >&2
  exit 2
fi
base_commit=$(git merge-base HEAD "$base_ref")

if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi
if [ -z "$seconds" ]; then
  seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi

if [ -z "$workdir" ]; then
  workdir=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
  trap 'rm -rf "$workdir"' EXIT
fi
mkdir -p "$workdir/runs"
workdir=$(cd "$workdir" && pwd)

# Export the base tree afresh unless this workdir already holds that commit.
if [ "$(cat "$workdir/base.commit" 2>/dev/null)" != "$base_commit" ]; then
  rm -rf "$workdir/base" "$workdir/base-target"
  mkdir -p "$workdir/base"
  git archive "$base_commit" | tar -x -C "$workdir/base"
  echo "$base_commit" >"$workdir/base.commit"
fi
echo "base: $base_commit ($base_ref)"
echo "head: working tree of $(git rev-parse --short HEAD)"
echo "workloads: ${workloads[*]}; seeds: $seeds; --seconds $seconds"

status=0
# run_side <base|head> <workload> <seed>
run_side() {
  local side=$1 workload=$2 seed=$3 dir target
  if [ "$side" = base ]; then
    dir="$workdir/base"; target="$workdir/base-target"
  else
    dir="$repo_root"; target="$workdir/head-target"
  fi
  local out="$workdir/runs/$side-$workload-$seed.out"
  if ! (cd "$dir" && CARGO_TARGET_DIR="$target" python3 perfbench/run.py \
          --workload "$workload" --seed "$seed" --seconds "$seconds" \
          --trace 0) >"$out" 2>"$out.log"; then
    echo "error: $side run of $workload seed $seed failed (see $out.log)" >&2
    status=1
  fi
}

pair=0
for workload in "${workloads[@]}"; do
  for seed in $seeds; do
    if [ $((pair % 2)) -eq 0 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
      echo "  $workload seed $seed: $side" >&2
      run_side "$side" "$workload" "$seed"
    done
    pair=$((pair + 1))
  done
done

python3 - "$workdir/runs" "$seeds" "${workloads[@]}" <<'EOF' || status=1
import json, os, sys

runs, seeds, workloads = sys.argv[1], sys.argv[2].split(), sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
failed = False


def load(side, workload, seed):
    try:
        lines = open(os.path.join(runs, f"{side}-{workload}-{seed}.out")).read().splitlines()
        result = json.loads(lines[-1])
    except (OSError, IndexError, ValueError):
        return None, []
    return result, sorted(l for l in lines if l.startswith("fingerprint "))


def quantile(values, q):
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values):
    median = quantile(values, 0.5)
    return (quantile(values, 0.75) - quantile(values, 0.25)) / median if median else 0.0


for workload in workloads:
    pairs = []
    print(f"\n== {workload}")
    for seed in seeds:
        base, base_fp = load("base", workload, seed)
        head, head_fp = load("head", workload, seed)
        for side, result in (("base", base), ("head", head)):
            if result is None or not result["correct"] or result["failed"]:
                print(f"seed {seed}: {side} run failed or reported wrong output")
                failed = True
        if base is None or head is None:
            continue
        pairs.append((base["metrics"], head["metrics"]))
        if base_fp == head_fp:
            print(f"seed {seed}: fingerprints identical ({len(head_fp)} lines)")
        else:
            only_base = sorted(set(base_fp) - set(head_fp))
            only_head = sorted(set(head_fp) - set(base_fp))
            print(f"seed {seed}: fingerprints DIFFER "
                  f"({len(only_base)} base-only, {len(only_head)} head-only lines)")
            for line in only_base[:3]:
                print(f"  - {line}")
            for line in only_head[:3]:
                print(f"  + {line}")
    if not pairs:
        continue
    print(f"{'metric':<14} {'base median':>12} {'spread':>7} {'head median':>12} "
          f"{'spread':>7} {'head/base':>9} {'head wins':>9}")
    for name in better:
        b = [p[0][name]["value"] for p in pairs if name in p[0]]
        h = [p[1][name]["value"] for p in pairs if name in p[1]]
        if len(b) != len(pairs) or len(h) != len(pairs):
            continue
        lower = better[name] == "lower"
        wins = sum((hv < bv) if lower else (hv > bv) for bv, hv in zip(b, h))
        bm, hm = quantile(b, 0.5), quantile(h, 0.5)
        ratio = hm / bm if bm else float("nan")
        print(f"{name:<14} {bm:>12.4g} {spread(b):>7.3f} {hm:>12.4g} "
              f"{spread(h):>7.3f} {ratio:>9.3f} {wins:>5}/{len(pairs)}")
sys.exit(1 if failed else 0)
EOF
exit $status
