#!/usr/bin/env bash
# Check that the working tree writes the same report files as revision REV.
#
#   scripts/same_reports.sh REV
#
# Extracts REV into a temporary directory with `git archive REV | tar -x`
# (nothing is written under .git) and runs the default catalog from both
# trees at seeds 42 and 7, refine 0-3, --workers 1 and 2,
# --format both.  Each pair of output directories is compared with
# `diff -r -x run_metadata.json` (the metadata holds timings and host facts).
# Then each tree's own perfbench/library.py makes one library-large pass at
# seeds 42 and 7 on one BLAS thread, `calls(Inputs(seed))`, and the `digest`
# of each call's result is compared between the trees.
# Prints one line per run, then the count of identical call digests, and
# exits non-zero if any report or digest differs.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 REV" >&2
  exit 2
fi
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"
echo '{"schema_version": 1}' > "$tmp/config.json"

run() {  # run TREE OUT SEED REFINE WORKERS
  PYTHONPATH="$1/src" python3 -m sobolev_banach run "$tmp/config.json" \
    --seed "$3" --refine "$4" --workers "$5" --format both --out "$2" >/dev/null
}

same=0 total=0
for s in 42 7; do
  for r in 0 1 2 3; do
    for w in 1 2; do
      name="seed $s refine $r workers $w"
      run "$tmp/rev" "$tmp/out-rev/$s-$r-$w" "$s" "$r" "$w"
      run "$root" "$tmp/out-tree/$s-$r-$w" "$s" "$r" "$w"
      total=$((total + 1))
      if diff -r -x run_metadata.json "$tmp/out-rev/$s-$r-$w" "$tmp/out-tree/$s-$r-$w" >/dev/null; then
        same=$((same + 1))
        echo "identical  $name"
      else
        echo "DIFFERENT  $name"
      fi
    done
  done
done
echo "$same/$total runs identical to ${rev:0:12}"

digests() {  # digests TREE SEED: one library-large pass, "label digest" per call
  PYTHONPATH="$1/src:$1/perfbench" OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \
    MKL_NUM_THREADS=1 python3 -c '
import sys
from library import Inputs, calls, digest
for label, thunk, _ in calls(Inputs(int(sys.argv[1]))):
    print(label, digest(thunk()))' "$2"
}

for s in 42 7; do
  digests "$tmp/rev" "$s" > "$tmp/digests-rev-$s"
  digests "$root" "$s" > "$tmp/digests-tree-$s"
done
calls=$(cat "$tmp"/digests-rev-* | wc -l)
same_calls=$(for s in 42 7; do paste -d '\t' "$tmp/digests-rev-$s" "$tmp/digests-tree-$s"; done \
  | awk -F '\t' '$1 == $2' | wc -l)
echo "$same_calls/$calls call digests identical to ${rev:0:12}"
[ "$same" -eq "$total" ] && [ "$same_calls" -eq "$calls" ] && [ "$calls" -gt 0 ]
