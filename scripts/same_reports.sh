#!/usr/bin/env bash
# Check that the working tree writes the same report files as revision REV,
# apart from what scripts/moved_on_purpose.txt lists.
#
#   scripts/same_reports.sh REV
#
# Extracts REV into a temporary directory with `git archive REV | tar -x`
# (nothing is written under .git) and runs the default catalog from both
# trees at seeds 42 and 7, refine 0-3, --workers 1 and 2,
# --format both.  Then each tree's own perfbench/library.py makes one
# library-large pass at seeds 42 and 7 on one BLAS thread,
# `calls(Inputs(seed))`, and the `digest` of each call's result is compared
# between the trees.  run_metadata.json is never compared: it holds timings
# and host facts.
#
# The working tree's reports must also depend neither on the worker count
# nor on the BLAS thread count: for each seed and refine level its
# --workers 1 run must equal its --workers 2 run, and one more --workers 1
# run under OPENBLAS_NUM_THREADS=1 must equal the default --workers 1 one,
# whatever scripts/moved_on_purpose.txt lists.  The pinned run uses one
# worker because forked workers already run on one BLAS thread each, so a
# --workers 2 run would compare one thread with one thread.
#
# scripts/moved_on_purpose.txt names, one per line, the catalog entries and
# library-large call labels (such as `realize[3]`) that the change moves on
# purpose; `#` starts a comment.  A listed entry's report files and
# summary.csv lines may differ, and so may a listed label's digests.
# Everything else must be identical, and every listed name must differ in
# at least one run or digest, so that a stale list fails too.
# Prints one line per run, then the count of identical call digests and
# of identical worker-count and BLAS-thread comparisons, and exits non-zero
# on any unlisted difference, unmoved listed name, or report that depends
# on the worker or BLAS thread count.
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

digests() {  # digests TREE SEED: one library-large pass, "label digest" per call
  PYTHONPATH="$1/src:$1/perfbench" OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \
    MKL_NUM_THREADS=1 python3 -c '
import sys
from library import Inputs, calls, digest
for label, thunk, _ in calls(Inputs(int(sys.argv[1]))):
    print(label, digest(thunk()))' "$2"
}

for s in 42 7; do
  for r in 0 1 2 3; do
    for w in 1 2; do
      run "$tmp/rev" "$tmp/out-rev/$s-$r-$w" "$s" "$r" "$w"
      run "$root" "$tmp/out-tree/$s-$r-$w" "$s" "$r" "$w"
    done
    # every row sum is a BLAS matrix-vector product; a forked worker runs
    # on one BLAS thread anyway, so the pinned run is the one-worker run
    OPENBLAS_NUM_THREADS=1 run "$root" "$tmp/out-blas1/$s-$r" "$s" "$r" 1
  done
  digests "$tmp/rev" "$s" > "$tmp/digests-rev-$s"
  digests "$root" "$s" > "$tmp/digests-tree-$s"
done

python3 - "$tmp" "$root/scripts/moved_on_purpose.txt" "${rev:0:12}" <<'EOF'
import sys
from pathlib import Path

tmp, listing, rev = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
listed = {line.split("#")[0].strip() for line in listing.read_text().splitlines()} - {""}
moved = set()  # the listed names seen to differ


def lines(path, pick):  # the summary.csv lines whose entry (first field) pick accepts
    return [x for x in path.read_text().splitlines() if pick(x.split(",", 1)[0])]


def differences(a, b):
    """The entries of runs a and b whose report files or summary.csv lines
    differ, and whether the rest of summary.csv does."""
    entries, header = set(), False
    for name in {p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}:
        fa, fb = a / name, b / name
        if name == "summary.csv":
            rows = {x.split(",", 1)[0] for f in (fa, fb) for x in f.read_text().splitlines()[1:]}
            entries |= {e for e in rows if lines(fa, e.__eq__) != lines(fb, e.__eq__)}
            header = lines(fa, lambda e: e not in rows) != lines(fb, lambda e: e not in rows)
        elif name != "run_metadata.json" and not (
                fa.exists() and fb.exists() and fa.read_bytes() == fb.read_bytes()):
            entries.add(name.rsplit(".", 1)[0])
    return entries, header


runs = same = 0
for s, r, w in ((s, r, w) for s in (42, 7) for r in range(4) for w in (1, 2)):
    entries, header = differences(*(tmp / f"out-{t}" / f"{s}-{r}-{w}" for t in ("rev", "tree")))
    moved |= entries & listed
    bad = sorted(entries - listed) + ["the summary.csv header"] * header
    runs, same = runs + 1, same + (not bad)
    name = f"seed {s} refine {r} workers {w}"
    moves = f" (listed, moved: {', '.join(sorted(entries))})" if entries else ""
    print(f"DIFFERENT  {name}: {', '.join(bad)}" if bad else f"identical  {name}{moves}")
print(f"{same}/{runs} runs identical to {rev} outside the listed entries")


def changed(a, b):
    """The files of runs a and b, run_metadata.json aside, that differ."""
    names = {p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}
    return sorted(n for n in names - {"run_metadata.json"} if not (
        (a / n).exists() and (b / n).exists() and (a / n).read_bytes() == (b / n).read_bytes()))


# the working tree against itself, file by file: no difference is listed
alike = {"worker count": 0, "BLAS thread count": 0}
for s, r in ((s, r) for s in (42, 7) for r in range(4)):
    one, two = (tmp / "out-tree" / f"{s}-{r}-{w}" for w in (1, 2))
    for what, a, b in (("worker count", one, two),
                       ("BLAS thread count", one, tmp / "out-blas1" / f"{s}-{r}")):
        bad = changed(a, b)
        alike[what] += not bad
        if bad:
            print(f"DIFFERENT  seed {s} refine {r} with the {what}: {', '.join(bad)}")
for what, n in alike.items():
    print(f"{n}/8 seed and refine levels independent of the {what}")

calls = same_calls = 0
bad_calls = []
for s in ("42", "7"):
    a, b = ((tmp / f"digests-{t}-{s}").read_text().splitlines() for t in ("rev", "tree"))
    if [x.split()[0] for x in a] != [y.split()[0] for y in b]:
        bad_calls.append(f"seed {s}: the call labels differ")
        continue
    for x, y in zip(a, b):
        calls, same_calls = calls + 1, same_calls + (x == y)
        label = x.split()[0]
        if x != y and label in listed:
            moved.add(label)
        elif x != y:
            bad_calls.append(f"seed {s} {label}")
print(f"{same_calls}/{calls} call digests identical to {rev}")
for what in bad_calls:
    print(f"DIFFERENT  call digest, {what}")
stale = sorted(listed - moved)
if listed:
    print(f"moved on purpose: {', '.join(sorted(moved)) or 'nothing'}")
if stale:
    print(f"STALE  listed, but identical in every run and digest: {', '.join(stale)}")
sys.exit(bool(same < runs or bad_calls or stale or not calls or min(alike.values()) < 8))
EOF
