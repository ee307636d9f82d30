#!/usr/bin/env bash
# Same bits: runs one fixed list of helcfl_cli commands with two binaries and
# requires every output file to be byte-identical.
#
#   tests/same_bits.sh BASE_CLI HEAD_CLI
#
# BASE_CLI and HEAD_CLI are helcfl_cli binaries, typically built from a
# change's merge base and from the change itself.  Each binary runs in its
# own scratch directory with the same relative output paths (the trace and
# the checkpoint are deterministic only when the paths match), then every
# output is compared with cmp and its sha256 prefix printed.  The list:
#
#   * the paper config (ROADMAP item 2) under each HELCFL_KERNEL_ISA this
#     host supports;
#   * the async-mlp CSV at --threads=1 and 4;
#   * 30 rounds of mini_squeezenet;
#   * 30 rounds of the logistic model;
#   * 10 rounds of the separated-learning baseline (--scheme=sl), which
#     trains and evaluates every user's own model;
#   * 5 rounds of small_cnn with --trace-out and --checkpoint-every=5.
#
# A change that means to alter an output declares it: SAME_BITS_DECLARED
# holds the output names (space-separated) allowed to differ, and for
# those the script prints the diff instead of failing.  The CI job takes
# them from "same-bits-diff: NAME..." in the lines a change adds to
# CHANGES.md, so every declaration is in the change's own diff.
#
# Exit status: 0 when every output matches or differs as declared, 1 when
# any other output differs, 2 on a usage error or a failed run.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BASE_CLI HEAD_CLI" >&2
  exit 2
fi
abs() { (cd "$(dirname "$1")" && printf '%s/%s\n' "$(pwd)" "$(basename "$1")"); }
base_cli=$(abs "$1")
head_cli=$(abs "$2")
for cli in "$base_cli" "$head_cli"; do
  [ -x "$cli" ] || { echo "not an executable: $cli" >&2; exit 2; }
done

# The portable kernel always; the x86 ones when the CPU reports their flags.
isas=(generic)
if [ -r /proc/cpuinfo ]; then
  flags=$(grep -m1 '^flags' /proc/cpuinfo || true)
  if [[ " $flags " == *" avx2 "* && " $flags " == *" fma "* ]]; then isas+=(avx2_fma); fi
  if [[ " $flags " == *" avx512f "* ]]; then isas+=(avx512); fi
fi

paper="--scheme=helcfl --setting=noniid --model=small_cnn --users=100 --fraction=0.1"
paper+=" --eta=0.9 --rounds=300 --seed=1 --threads=2"
async="--mode=async --model=mlp --rounds=40 --straggler-rate=0.1"

# Runs the whole list with one binary inside directory $2.
run_list() {
  local cli=$1 dir=$2 isa
  mkdir -p "$dir"
  (
    cd "$dir"
    for isa in "${isas[@]}"; do
      # shellcheck disable=SC2086
      HELCFL_KERNEL_ISA=$isa "$cli" $paper --quiet --csv="paper_$isa.csv" > /dev/null
    done
    for threads in 1 4; do
      # shellcheck disable=SC2086
      "$cli" $async --threads="$threads" --quiet --csv="async_mlp_t$threads.csv" > /dev/null
    done
    "$cli" --model=mini_squeezenet --rounds=30 --threads=2 --quiet \
      --csv=mini_squeezenet.csv > /dev/null
    "$cli" --model=logistic --rounds=30 --quiet --csv=logistic.csv > /dev/null
    "$cli" --scheme=sl --rounds=10 --threads=2 --quiet --csv=sl.csv > /dev/null
    "$cli" --model=small_cnn --rounds=5 --quiet --csv=traced.csv \
      --trace-out=trace.jsonl --checkpoint-every=5 --checkpoint-path=ck_r{round}.bin \
      > /dev/null
  ) || { echo "run failed: $cli" >&2; exit 2; }
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
run_list "$base_cli" "$work/base"
run_list "$head_cli" "$work/head"

status=0
outputs=$(cd "$work/base" && ls | sort)
if [ "$outputs" != "$(cd "$work/head" && ls | sort)" ]; then
  echo "DIFFERENT output file sets:" >&2
  diff <(cd "$work/base" && ls | sort) <(cd "$work/head" && ls | sort) >&2 || true
  status=1
fi
declared=" ${SAME_BITS_DECLARED:-} "
for f in $outputs; do
  digest=$(sha256sum "$work/base/$f" | cut -c1-16)
  if [ -f "$work/head/$f" ] && cmp -s "$work/base/$f" "$work/head/$f"; then
    echo "same       $digest  $f"
  elif [[ "$declared" == *" $f "* && -f "$work/head/$f" ]]; then
    echo "declared   $digest  $f  (head $(sha256sum "$work/head/$f" | cut -c1-16))"
    diff "$work/base/$f" "$work/head/$f" | head -20 || true
  else
    echo "DIFFERENT  $digest  $f"
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "same bits: no undeclared difference" || echo "same bits: FAILED"
exit "$status"
