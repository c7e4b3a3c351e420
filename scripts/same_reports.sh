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
# Prints one line per run and exits non-zero if any report differs.
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
[ "$same" -eq "$total" ]
