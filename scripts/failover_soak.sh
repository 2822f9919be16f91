#!/usr/bin/env bash
# Coordinator failover soak, in two stages:
#
#   1. The in-process HA soak (internal/cluster TestHAFailoverSoak)
#      under the race detector: three coordinator replicas over three
#      chaos-proxied workers, the first leader hard-killed after its
#      third merged shard, its successor partitioned after its own
#      third — asserting a merged map byte-identical to a clean run,
#      monotone fencing terms with no term merged by two leaders, and
#      a journal whose replay shows zero lost or duplicated points.
#
#   2. A real-process group: three bcnd HA coordinator replicas
#      (-coordinator -peers -self) over three bcnd workers, each
#      replica reaching the fleet through its own chaosproxy trio.
#      The leader takes kill -9 mid-sweep; the successor is severed
#      from the fleet with the proxies' partition toggle and must
#      step down for a third replica to finish the sweep. The client
#      (bcnsweep -cluster with all three URLs) must still deliver a
#      map byte-identical to a local run, a resubmit must be a pure
#      journal replay (zero fresh points — nothing lost, nothing
#      doubled), exactly one live replica may report leadership, the
#      healed successor must catch up to the final leader's journal
#      record count within 5 lease TTLs by tailing it, and every
#      surviving process must drain cleanly on SIGTERM. On exit,
#      passing or failing, no process the stage started is left
#      running: the proxies, and anything that failed to drain, are
#      killed.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"

# Every process stage 2 starts in the background is recorded here and
# killed on exit, passing or failing, before the temp dir goes. Only a
# PID whose executable still lives under $work is killed, so a PID the
# system reused after a clean drain is left alone. The shell's notices
# of the kills are silenced.
declare -a bg_pids
teardown() {
    local pid
    {
        for pid in "${bg_pids[@]}"; do
            case "$(readlink "/proc/$pid/exe")" in
            "$work"/*) kill -9 "$pid" || true ;;
            esac
        done
        wait || true
    } 2>/dev/null
    rm -rf "$work"
}
trap teardown EXIT

echo "== stage 1: in-process HA failover soak (race detector) =="
go test -race -count=1 -run 'TestHAFailoverSoak' -v ./internal/cluster | grep -v '^=== RUN'

echo "== stage 2: real-process HA replica group =="
go build -o "$work/bcnd" ./cmd/bcnd
go build -o "$work/bcnsweep" ./cmd/bcnsweep
go build -o "$work/chaosproxy" ./scripts/chaosproxy

declare -a worker_pid worker_url coord_pid coord_port coord_url coord_workers
declare -a proxy_admin

# scrape_banner polls a log file for a banner prefix and echoes what
# follows it, failing loudly if the process never printed it. The file
# may not exist yet: the background process opens it. On failure it
# also prints the process's .err file when it has one, where a bind
# error lands.
scrape_banner() { # $1 = file, $2 = sed pattern, $3 = what
    local got=""
    for _ in $(seq 200); do
        got="$(sed -n "$2" "$1" 2>/dev/null | head -n1)" || true
        [ -n "$got" ] && break
        sleep 0.05
    done
    if [ -z "$got" ]; then
        echo "FAIL: $3 never appeared in $1" >&2
        cat "$1" >&2
        if [ -f "${1%.out}.err" ]; then
            echo "-- ${1%.out}.err:" >&2
            cat "${1%.out}.err" >&2
        fi
        exit 1
    fi
    echo "$got"
}

start_worker() { # $1 = index
    "$work/bcnd" -addr 127.0.0.1:0 -journal "$work/worker$1" -workers 2 \
        > "$work/worker$1.out" 2>&1 &
    worker_pid[$1]=$!
    bg_pids+=($!)
    worker_url[$1]="http://$(scrape_banner "$work/worker$1.out" \
        's/^bcnd: listening on //p' "worker $1 banner")"
}

# pick_port finds a TCP port nothing is listening on. The HA replicas
# need their addresses known up front (-self/-peers are mutual), so
# they cannot bind :0 like the workers do. It draws from 20000-32767,
# below the usual ephemeral range (32768 and up on Linux) that the
# workers, the proxies and every client connection take ports from, so
# no such port can be taken between the pick and the replica's bind.
pick_port() {
    local port
    while :; do
        port=$((20000 + RANDOM % 12768))
        if ! (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
            echo "$port"
            return
        fi
        exec 3>&- 2>/dev/null || true
    done
}

start_worker 1
start_worker 2
start_worker 3

# Each replica reaches every worker through its own chaosproxy, so one
# replica can be partitioned from the fleet without touching the
# others. The small injected latency keeps the sweep slow enough that
# the kill below lands mid-flight.
for i in 1 2 3; do
    coord_port[$i]="$(pick_port)"
    coord_url[$i]="http://127.0.0.1:${coord_port[$i]}"
    urls=""
    for j in 1 2 3; do
        "$work/chaosproxy" -target "${worker_url[$j]}" -latency 5ms -jitter 5ms \
            > "$work/proxy${i}_${j}.out" 2> "$work/proxy${i}_${j}.err" &
        bg_pids+=($!)
        data="$(scrape_banner "$work/proxy${i}_${j}.out" \
            's/^chaosproxy: proxying .* on //p' "proxy $i/$j data banner")"
        proxy_admin[$i$j]="http://$(scrape_banner "$work/proxy${i}_${j}.out" \
            's/^chaosproxy: admin on //p' "proxy $i/$j admin banner")"
        urls="${urls:+$urls,}http://$data"
    done
    coord_workers[$i]="$urls"
done

start_replica() { # $1 = index
    local peers=""
    for j in 1 2 3; do
        [ "$j" -ne "$1" ] && peers="${peers:+$peers,}${coord_url[$j]}"
    done
    "$work/bcnd" -coordinator -workers "${coord_workers[$1]}" \
        -peers "$peers" -self "${coord_url[$1]}" -lease-ttl 500ms \
        -addr "127.0.0.1:${coord_port[$1]}" -journal "$work/coord$1" \
        -shard-size 8 -heartbeat-interval 100ms \
        > "$work/coord$1.out" 2> "$work/coord$1.err" &
    coord_pid[$1]=$!
    bg_pids+=($!)
    scrape_banner "$work/coord$1.out" 's/^bcnd: HA replica .* on //p' \
        "replica $1 banner" > /dev/null
}

start_replica 1
start_replica 2
start_replica 3

# find_leader echoes the index of the replica reporting role=leader on
# /statusz, skipping indices listed in $1 (dead or excluded), retrying
# until one emerges.
find_leader() { # $1 = space-separated excluded indices
    local i t
    for t in $(seq 200); do
        for i in 1 2 3; do
            case " $1 " in *" $i "*) continue ;; esac
            if curl -sf --max-time 1 "${coord_url[$i]}/statusz" 2>/dev/null |
                grep -q '"role":"leader"'; then
                echo "$i"
                return
            fi
        done
        sleep 0.05
    done
    echo "FAIL: no leader emerged (excluded: $1)" >&2
    for i in 1 2 3; do cat "$work/coord$i.err" >&2 || true; done
    exit 1
}

# wait_shards blocks until replica $1 reports at least $2 merged
# shards on its own /metrics — progress made under ITS leadership.
wait_shards() { # $1 = index, $2 = minimum
    local n
    for _ in $(seq 400); do
        n="$(curl -sf --max-time 1 "${coord_url[$1]}/metrics" 2>/dev/null |
            awk '$1 == "cluster_shards_done_total" { print $2 }')"
        [ "${n:-0}" -ge "$2" ] && return
        sleep 0.02
    done
    echo "FAIL: replica $1 never merged $2 shards" >&2
    cat "$work/coord$1.err" >&2
    exit 1
}

# Local baseline: byte-identity is the bar, as everywhere else.
"$work/bcnsweep" -steps 23 > "$work/base.csv"

leader1="$(find_leader "")"
echo "replica $leader1 leads the first term"

"$work/bcnsweep" -cluster "${coord_url[1]},${coord_url[2]},${coord_url[3]}" \
    -steps 23 > "$work/cluster.csv" 2> "$work/cluster.err" &
client=$!
bg_pids+=($!)

# Kill the leader once it has merged a few shards — mid-sweep, not
# after the fact. The proxies' injected latency guarantees plenty of
# sweep is still outstanding.
wait_shards "$leader1" 3
kill -0 "$client" 2>/dev/null || {
    echo "FAIL: sweep finished before the leader could be killed" >&2
    exit 1
}
kill -9 "${coord_pid[$leader1]}"
set +e
wait "${coord_pid[$leader1]}" 2>/dev/null
set -e
echo "replica $leader1 killed -9 mid-sweep"

# A successor must win the next term and resume the sweep from the
# journal it tailed...
leader2="$(find_leader "$leader1")"
echo "replica $leader2 took over"
wait_shards "$leader2" 3

# ...then lose its fleet to a partition and step down for the third.
for j in 1 2 3; do
    curl -sf -X POST "${proxy_admin[$leader2$j]}/partition?on=1" > /dev/null
done
echo "replica $leader2 partitioned from its workers"
leader3="$(find_leader "$leader1 $leader2")"
echo "replica $leader3 took over from the partitioned successor"

# Heal the partition; the deposed successor must settle as a follower.
for j in 1 2 3; do
    curl -sf -X POST "${proxy_admin[$leader2$j]}/partition?on=0" > /dev/null
done

set +e
wait "$client"
cstatus=$?
set -e
if [ "$cstatus" -ne 0 ]; then
    echo "FAIL: cluster sweep failed across the failovers" >&2
    cat "$work/cluster.err" >&2
    for i in 1 2 3; do cat "$work/coord$i.err" >&2 || true; done
    exit 1
fi
cmp "$work/base.csv" "$work/cluster.csv" || {
    echo "FAIL: merged map diverges from the local sweep after two failovers" >&2
    exit 1
}
echo "merged map byte-identical to the local sweep across both failovers"
# Reported, not gated: how much of the grid the final leader had to
# evaluate afresh and how much it replayed from the journal it tailed.
sed -n 's/^cluster: sweep .* done: /final leader: /p' "$work/coord$leader3.err" | head -n1

# Resubmitting must be answered wholly from the surviving journal:
# zero fresh evaluations proves no point was lost, the byte-identical
# map proves none was doubled.
"$work/bcnsweep" -cluster "${coord_url[1]},${coord_url[2]},${coord_url[3]}" \
    -steps 23 > "$work/cluster2.csv" 2> "$work/replay.err"
grep -q "fresh=0 replayed=529" "$work/replay.err" || {
    echo "FAIL: resubmit was not a pure journal replay" >&2
    cat "$work/replay.err" >&2
    exit 1
}
cmp "$work/base.csv" "$work/cluster2.csv" || {
    echo "FAIL: replayed map diverges" >&2
    exit 1
}
echo "resubmit answered from the journal (fresh=0 replayed=529)"

# Exactly one live replica may claim leadership, and the deposed
# successor must have rejoined as a follower.
leaders=0
for i in 1 2 3; do
    [ "$i" = "$leader1" ] && continue
    if curl -sf "${coord_url[$i]}/statusz" | grep -q '"role":"leader"'; then
        leaders=$((leaders + 1))
    fi
done
[ "$leaders" -eq 1 ] || {
    echo "FAIL: $leaders live replicas claim leadership, want exactly 1" >&2
    exit 1
}
curl -sf "${coord_url[$leader2]}/statusz" | grep -q '"role":"follower"' || {
    echo "FAIL: healed replica $leader2 did not settle as a follower" >&2
    exit 1
}

# The one catch-up path, end to end: the healed follower tails the final
# leader's journal until it holds as many records, within 5 lease TTLs
# (2.5 s).
journal_records() { # $1 = index
    curl -sf --max-time 1 "${coord_url[$1]}/statusz" 2>/dev/null |
        sed -n 's/.*"journal_records":\([0-9]*\).*/\1/p'
}
deadline=$(($(date +%s%N) + 2500000000))
while :; do
    lead="$(journal_records "$leader3")"
    follow="$(journal_records "$leader2")"
    [ -n "$lead" ] && [ "$lead" = "$follow" ] && break
    if [ "$(date +%s%N)" -gt "$deadline" ]; then
        echo "FAIL: healed follower $leader2 holds ${follow:-?} journal records, leader $leader3 ${lead:-?}, after 5 lease TTLs" >&2
        cat "$work/coord$leader2.err" >&2
        exit 1
    fi
    sleep 0.05
done
echo "healed follower caught up: $follow journal records, as the leader"

# The leadership metrics the dashboards alert on.
curl -sf "${coord_url[$leader3]}/metrics" > "$work/metrics.txt"
grep -q '^cluster_is_leader 1$' "$work/metrics.txt" || {
    echo "FAIL: final leader does not report cluster_is_leader 1" >&2
    exit 1
}
term="$(awk '$1 == "cluster_term" { print $2 }' "$work/metrics.txt")"
[ "${term:-0}" -ge 3 ] || {
    echo "FAIL: final term $term after two successions, want >= 3" >&2
    exit 1
}
grep -q '^# TYPE cluster_replication_lag_records gauge' "$work/metrics.txt" || {
    echo "FAIL: /metrics missing cluster_replication_lag_records" >&2
    exit 1
}

# Everything still alive drains cleanly.
survivors=""
for i in 1 2 3; do
    [ "$i" = "$leader1" ] || survivors="$survivors $i"
done
for i in $survivors; do kill -TERM "${coord_pid[$i]}"; done
kill -TERM "${worker_pid[1]}" "${worker_pid[2]}" "${worker_pid[3]}"
set +e
for i in $survivors; do
    wait "${coord_pid[$i]}"
    st=$?
    [ "$st" -eq 0 ] || {
        echo "FAIL: replica $i SIGTERM exit $st, want 0" >&2
        cat "$work/coord$i.err" >&2
        exit 1
    }
done
for i in 1 2 3; do
    wait "${worker_pid[$i]}"
    st=$?
    [ "$st" -eq 0 ] || {
        echo "FAIL: worker $i SIGTERM exit $st, want 0" >&2
        exit 1
    }
done
set -e

echo "PASS: failover soak — leader kill, successor partition, byte-identical merge, pure replay"
