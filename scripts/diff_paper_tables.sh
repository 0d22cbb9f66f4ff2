#!/bin/sh
# Checks that the paper's reproduction tables did not move: builds the
# E1–E11 and A1–A7 experiment binaries in Release at <rev> and at the
# working tree, runs each at its default arguments, and diffs the
# outputs.
#
#   scripts/diff_paper_tables.sh <rev> [work-dir]
#
# <rev> is exported with `git archive` (so no worktree record is left
# behind if the run is interrupted). The work dir keeps both build trees
# and the outputs, base/out/<binary>.txt and head/out/<binary>.txt; by
# default it is a fresh temporary directory, removed when the tables
# match. The binaries of one side run in parallel, one per core.
#
# Exits 0 when every table is byte-identical, 1 on any difference (each
# diff is printed) or a failed table run, 2 on a usage, configure or
# build error. Too slow for per-push CI: about 9 minutes per side on 4
# cores.
set -u

usage() {
  echo "usage: $0 <rev> [work-dir]" >&2
  exit 2
}
[ $# -ge 1 ] && [ $# -le 2 ] || usage
rev=$1
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
if [ $# -eq 2 ]; then
  work=$2
  keep=1
else
  work=$(mktemp -d)
  keep=0
fi
mkdir -p "$work"
work="$(cd "$work" && pwd)"
jobs=$(nproc 2>/dev/null || echo 2)

tables="bench_e1_decomposition bench_e2_window_io bench_e3_precision
bench_e4_crossover bench_e5_point bench_e6_update bench_e7_join
bench_e8_baselines bench_e9_objsize bench_e10_policies bench_e11_transform
bench_a1_bigmin bench_a2_querydecomp bench_a3_polygon bench_a4_knn
bench_a5_bulkload bench_a6_cache bench_a7_gridres"

if ! git -C "$repo_root" rev-parse --verify --quiet "$rev^{commit}" \
    >/dev/null; then
  echo "diff_paper_tables.sh: unknown revision '$rev'" >&2
  exit 2
fi
rm -rf "$work/base-src"
mkdir -p "$work/base-src"
git -C "$repo_root" archive "$rev" | tar -x -C "$work/base-src" || exit 2

# build_and_run <side> <source dir>: builds the tables of one side and
# runs them into $work/<side>/out. Returns 1 if a table run failed.
build_and_run() {
  side=$1
  src=$2
  bdir="$work/$side/build"
  out="$work/$side/out"
  rm -rf "$out"
  mkdir -p "$out"
  echo "diff_paper_tables.sh: building $side ($src)"
  if ! cmake -S "$src" -B "$bdir" -DCMAKE_BUILD_TYPE=Release \
      >"$work/$side/configure.log" 2>&1; then
    echo "diff_paper_tables.sh: configure failed, see" \
      "$work/$side/configure.log" >&2
    exit 2
  fi
  # shellcheck disable=SC2086  # $tables is a word list
  if ! cmake --build "$bdir" -j "$jobs" --target $tables \
      >"$work/$side/build.log" 2>&1; then
    echo "diff_paper_tables.sh: build failed, see $work/$side/build.log" >&2
    exit 2
  fi
  echo "diff_paper_tables.sh: running $side"
  echo "$tables" | tr ' ' '\n' | grep -v '^$' |
    xargs -P "$jobs" -I{} sh -c '"$1/bench/$2" >"$3/$2.txt" 2>&1' \
      _ "$bdir" {} "$out"
}

status=0
build_and_run base "$work/base-src" || status=1
build_and_run head "$repo_root" || status=1
[ "$status" -eq 0 ] || echo "diff_paper_tables.sh: a table run failed" >&2

for t in $tables; do
  if ! cmp -s "$work/base/out/$t.txt" "$work/head/out/$t.txt"; then
    echo "=== $t differs"
    diff -u "$work/base/out/$t.txt" "$work/head/out/$t.txt"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "diff_paper_tables.sh: all tables byte-identical to $rev"
  [ "$keep" -eq 1 ] || rm -rf "$work"
else
  echo "diff_paper_tables.sh: differences found; outputs kept in $work"
fi
exit "$status"
