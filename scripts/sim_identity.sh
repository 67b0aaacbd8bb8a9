#!/usr/bin/env bash
# Same-seed byte identity of the simulator between two builds.
#
#   scripts/sim_identity.sh PARENT_BUILD CHANGE_BUILD
#
# PARENT_BUILD and CHANGE_BUILD are CMake build trees (say, of the parent
# commit and of a change to src/sim), both with bench/ and tools/ built.
# The script runs, from each tree:
#
#   * every figure bench (bench/fig*), ablation bench (bench/abl_*) and
#     bench/summary_headline;
#   * a fixed list of tools/lsl_sim invocations that write --csv and
#     --metrics-out: link flap and blackhole fault plans, a crash + flap
#     plan, jitter with Gilbert–Elliott loss (case3), and --traces.
#
# Each run gets its own scratch directory. Its stdout, its stderr and
# every file it writes are compared with cmp against the other build's.
# Runs alternate between the two builds binary by binary, so both see the
# same machine load, and each binary's wall seconds are printed for both.
# Exits 1 if any output differs. LSL_BENCH_ITERS / LSL_BENCH_SEED pass
# through to the benches unchanged.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT  # dropped on a difference, to keep the outputs

now_ns() { date +%s%N; }
add() { awk -v a="$1" -v b="$2" 'BEGIN { print a + b }'; }

# run_one BUILD TAG NAME CMD... : run CMD (relative to BUILD) in a fresh
# directory $work/TAG/NAME; prints the wall seconds.
run_one() {
  local build=$1 tag=$2 name=$3
  shift 3
  local dir="$work/$tag/$name"
  mkdir -p "$dir"
  local exe="$build/$1"
  shift
  local t0 t1
  t0=$(now_ns)
  (cd "$dir" && "$exe" "$@" >stdout.txt 2>stderr.txt) ||
    echo "exit $?" >"$dir/exit.txt"
  t1=$(now_ns)
  awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.2f", (b - a) / 1e9 }'
}

differences=0
parent_total=0
change_total=0
figure_parent=0
figure_change=0

# compare NAME CMD... : run CMD from both builds and cmp everything.
compare() {
  local name=$1
  shift
  local tp tc
  tp=$(run_one "$parent" parent "$name" "$@")
  tc=$(run_one "$change" change "$name" "$@")
  local status=same f
  local files
  files=$(cd "$work/parent/$name" && find . -type f | sort)
  if [[ $files != "$(cd "$work/change/$name" && find . -type f | sort)" ]]; then
    status=DIFFERENT
    echo "    the two runs wrote different sets of files"
  else
    while IFS= read -r f; do
      if ! cmp -s "$work/parent/$name/$f" "$work/change/$name/$f"; then
        status=DIFFERENT
        echo "    differs: ${f#./}"
      fi
    done <<<"$files"
  fi
  [[ $status == same ]] || differences=$((differences + 1))
  printf '%-32s parent %7.2f s   change %7.2f s   %s\n' "$name" "$tp" "$tc" \
    "$status"
  parent_total=$(add "$parent_total" "$tp")
  change_total=$(add "$change_total" "$tc")
  if [[ $name == fig* || $name == summary_headline ]]; then
    figure_parent=$(add "$figure_parent" "$tp")
    figure_change=$(add "$figure_change" "$tc")
  fi
}

benches=()
for exe in "$change"/bench/{fig*,abl_*,summary_headline}; do
  [[ -x $exe && -f $exe ]] && benches+=("$(basename "$exe")")
done
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "sim_identity: no bench binaries under $change/bench" >&2
  exit 2
fi
for b in "${benches[@]}"; do
  if [[ ! -x $parent/bench/$b ]]; then
    echo "sim_identity: $parent/bench/$b missing" >&2
    exit 2
  fi
  compare "$b" "bench/$b"
done

sim=tools/lsl_sim
out=(--csv run.csv --metrics-out metrics.jsonl)
compare sim_chain3_flap $sim chain:3 4M lsl --iters 3 --resumable \
  --fault-spec "flap:link=J1-J2,at=200ms,for=300ms" "${out[@]}"
compare sim_chain3_blackhole $sim chain:3 4M lsl --iters 3 --resumable \
  --fault-spec "blackhole:link=J2-J3,at=350ms,for=1s" "${out[@]}"
crash_flap="crash:depot=depot2,at=300ms,for=400ms"
crash_flap+=";flap:link=J3-J4,at=250ms,for=200ms"
compare sim_chain4_crash_flap $sim chain:4 4M lsl --iters 2 --resumable \
  --fault-spec "$crash_flap" "${out[@]}"
compare sim_chain2_direct $sim chain:2 4M direct --iters 2 "${out[@]}"
compare sim_case3_lsl $sim case3 1M lsl "${out[@]}"
compare sim_case1_lsl_traces $sim case1 1M lsl --traces "${out[@]}"
compare sim_case2_direct $sim case2 4M direct "${out[@]}"
compare sim_osu_parallel $sim osu 1M parallel:4 "${out[@]}"

printf '%-32s parent %7.2f s   change %7.2f s\n' "figure suite" "$figure_parent" \
  "$figure_change"
printf '%-32s parent %7.2f s   change %7.2f s\n' "all runs" "$parent_total" \
  "$change_total"
if [[ $differences -ne 0 ]]; then
  trap - EXIT
  echo "sim_identity: $differences run(s) differ; outputs kept in $work" >&2
  exit 1
fi
echo "sim_identity: all outputs identical"
