#!/usr/bin/env bash
# Kill-and-resume smoke test: interrupt a bcnsweep run with SIGINT
# partway through, resume it from the journal, and verify the resumed
# artifacts are byte-identical to a never-interrupted baseline. Then run
# examples/resumable and require its resume to evaluate fewer points
# than its grid holds.
#
# Exercises the real signal path (TrapSignals -> context cancellation ->
# drain -> exit 130), unlike the in-test cooperative-cancellation
# variant in cmd/bcnsweep.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/bcnsweep" ./cmd/bcnsweep

# Enough points that SIGINT lands mid-run: a journaled run on one worker
# evaluates 70k–120k points/s (one fsync per 64-point span; 2-vCPU VM),
# so the grid is big (480×480 = 230400 points ≈ 2–3 s, four to six times
# the sleep below) and the kill comes early.
args=(-steps 480 -workers 1)

echo "== baseline (uninterrupted) =="
"$work/bcnsweep" "${args[@]}" -resume "$work/base" > "$work/base.stdout"

echo "== interrupted run =="
set +e
"$work/bcnsweep" "${args[@]}" -resume "$work/run" > "$work/run1.stdout" 2> "$work/run1.stderr" &
pid=$!
sleep 0.5
kill -INT "$pid" 2>/dev/null || true
wait "$pid"
status=$?
set -e

if [ "$status" -eq 0 ]; then
    echo "note: sweep finished before SIGINT landed; resume degenerates to a full replay"
elif [ "$status" -eq 130 ]; then
    grep -q "interrupted, resumable" "$work/run1.stderr" || {
        echo "FAIL: exit 130 without the 'interrupted, resumable' status" >&2
        cat "$work/run1.stderr" >&2
        exit 1
    }
    if [ -e "$work/run/map.csv" ]; then
        echo "FAIL: interrupted run published map.csv" >&2
        exit 1
    fi
    echo "interrupted with resumable status after $(grep -c . "$work/run/journal.jsonl") journaled points"
else
    echo "FAIL: interrupted run exited $status, want 130 (resumable) or 0 (finished early)" >&2
    cat "$work/run1.stderr" >&2
    exit 1
fi

# No stray temp files from torn atomic writes.
if find "$work/run" -name '.*.tmp-*' | grep -q .; then
    echo "FAIL: interrupted run left atomic temp files" >&2
    exit 1
fi

echo "== resumed run =="
"$work/bcnsweep" "${args[@]}" -resume "$work/run" > "$work/run2.stdout"

cmp "$work/base/map.csv" "$work/run/map.csv" || {
    echo "FAIL: resumed map.csv differs from uninterrupted baseline" >&2
    exit 1
}
cmp "$work/base.stdout" "$work/run2.stdout" || {
    echo "FAIL: resumed stdout differs from uninterrupted baseline" >&2
    exit 1
}
echo "PASS: resumed outputs byte-identical to the uninterrupted baseline"

echo "== examples/resumable =="
go run ./examples/resumable | tee "$work/resumable.out"
total="$(sed -n 's|^interrupted run: [0-9]*/\([0-9]*\) points.*|\1|p' "$work/resumable.out")"
fresh="$(sed -n 's|^resumed run: *\([0-9]*\) fresh evaluations.*|\1|p' "$work/resumable.out")"
if [ -z "$total" ] || [ -z "$fresh" ] || [ "$fresh" -ge "$total" ]; then
    echo "FAIL: examples/resumable resumed with ${fresh:-?} fresh evaluations of ${total:-?} grid points" >&2
    exit 1
fi
echo "PASS: examples/resumable resumed with $fresh fresh evaluations of $total grid points"
