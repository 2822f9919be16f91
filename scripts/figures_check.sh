#!/usr/bin/env bash
# Regenerate the committed evaluation record and require it to be
# byte-identical to out/.
#
# On amd64 this is a full `bcnreport -md` run (every experiment, RESULTS.md
# and the printed summary kept as out/report_summary.txt): every file it
# writes must match out/, and out/ may hold no file it does not write.
# The netsim-derived experiments are pinned on amd64 only, as netsim's
# TestResultGolden is (other architectures may fuse multiply-adds), so
# elsewhere only the closed-form experiments are regenerated and compared.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/bcnreport" ./cmd/bcnreport
mkdir "$tmp/out"

closed_form="fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 theorem1 transient stabmap xcheck"
full=0
if [ "$(go env GOARCH)" = amd64 ]; then
    full=1
    # Run from the temp dir so the summary's "artifacts written to out"
    # line reads as it does in the committed copy.
    (cd "$tmp" && ./bcnreport -out out -md > report_summary.txt) && mv "$tmp/report_summary.txt" "$tmp/out/"
else
    for id in $closed_form; do
        "$tmp/bcnreport" -out "$tmp/out" -only "$id" > /dev/null
    done
fi

n=0
for f in "$tmp"/out/*; do
    cmp "$f" "out/${f##*/}" || n=$((n + 1))
done
if [ "$full" -eq 1 ]; then
    for f in out/*; do
        if [ ! -e "$tmp/out/${f##*/}" ]; then
            echo "figures-check: $f is not written by bcnreport" >&2
            n=$((n + 1))
        fi
    done
fi
scope="closed-form"
[ "$full" -eq 1 ] && scope="all"
echo "figures-check ($scope): $(ls "$tmp/out" | wc -l) files, $n differ from out/"
test "$n" -eq 0
