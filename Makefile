GO ?= go

.PHONY: all build test vet fmt-check census race fuzz-seeds fuzz-short metamorphic bench-build figures-check check stress bench bench-compare smoke-resume soak soak-cluster soak-chaos soak-overload soak-failover clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when gofmt would rewrite any Go file in the tree, perfbench/
# included, and name the files.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l: unformatted Go files:"; echo "$$out"; exit 1; fi

# Type-check every non-test declaration (perfbench/ included) and fail
# on a func, method, type, const, var or struct field under internal/
# that no product path reaches, and on a reached field no non-test file
# sets (listed with the file:line of each read, the branches that never
# run), unless an apiKeep row keeps it; plus the flag tables. Runs first
# in `make check`, so dead code fails in seconds.
census:
	$(GO) test -count=1 -run 'Census$$' .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run every fuzz target against its seed corpus only (no fuzzing time);
# catches regressions in the checked-in interesting inputs.
fuzz-seeds:
	$(GO) test -run='^Fuzz' ./...

# Short coverage-guided fuzz burst: every Fuzz target in the repo runs
# for FUZZTIME (default 10s) of actual fuzzing, one target per
# invocation as the Go fuzzer requires. Catches quick-to-find decode,
# digest and chaos-rewrite regressions the seed corpora alone miss.
fuzz-short:
	./scripts/fuzz_short.sh

# Metamorphic relations of the model (scaling/exchange symmetries the
# solver must honor exactly, and guard-passivity checks).
metamorphic:
	$(GO) test -run='Metamorphic' ./...

# Vet and compile the end-to-end benchmark (perfbench/). It is its own Go
# module, so `go build ./...` above never reaches it; this catches a
# change to an exported netsim/serve/cluster API it calls.
bench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null ./...

# Regenerate the whole evaluation record (every file `bcnreport -md`
# writes, plus its printed summary) into a temp dir and require it to be
# byte-identical to the committed out/, with no stale file left there.
# Takes about a second. The netsim-derived files are pinned on amd64
# only, like netsim's TestResultGolden; elsewhere only the closed-form
# experiments are compared.
figures-check:
	./scripts/figures_check.sh

# The full pre-merge gate: formatting (gofmt) and static checks, build,
# race-enabled tests, the plain test suite (gates that skip under -race,
# such as the analytic speedup and telemetry-overhead bounds, run only
# there), the fuzz seed corpora, the metamorphic relations, the
# benchmark module build and the committed evaluation record (out/).
check: fmt-check census vet build bench-build race test fuzz-seeds metamorphic figures-check

# Flake hunt: the packages whose tests race real goroutines and sockets
# (bcnd, whose tests start real servers and drain them, bcnsweep, whose
# resume tests cancel sweeps mid-span, chaos proxy, cluster, serve),
# qos, whose circuit breaker serve and cluster share,
# and runstate, whose table is the shared state behind both artifact
# stores, under the race detector, 15 times over, with
# the packages running in parallel; then the wall-clock overhead gates,
# which skip under -race, 20 times over without it. A new flake shows
# up here before it merges.
stress:
	$(GO) test -race -count=15 ./cmd/bcnd ./cmd/bcnsweep ./internal/chaosnet ./internal/cluster ./internal/serve ./internal/qos ./internal/runstate
	$(GO) test -run='Overhead$$' -count=20 .

# Run every benchmark five times for BENCHTIME each (the testing
# package's ramp-up from one iteration warms each run) and parse the
# stream into machine-readable BENCH.json, alongside the human-readable
# log: benchjson folds the five runs into the median and interquartile
# range of every metric. BENCHTIME=1x is a quick smoke, not a
# measurement.
BENCHTIME ?= 200ms
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) -count=5 ./... | $(GO) run ./scripts/benchjson -o BENCH.json

# Compare the BENCH.json from `make bench` against the newest committed
# trajectory point (BENCH_<n>.json). Prints per-metric deltas; exits
# nonzero when a higher-is-better gauge (points/s) drops more than 10%.
bench-compare: bench
	$(GO) run ./scripts/benchjson -current BENCH.json -against "$$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)"

# Kill-and-resume smoke: SIGINT a real bcnsweep run partway, resume it
# from the journal, and require byte-identical artifacts vs an
# uninterrupted baseline.
smoke-resume:
	./scripts/resume_smoke.sh

# Chaos soak for the bcnd serving layer: the in-process concurrent
# soak under the race detector, then a real-binary SIGTERM drain and
# restart cycle asserting exit 0 and byte-identical cached resubmits.
soak:
	./scripts/soak.sh

# Cluster chaos soak: the in-process coordinator/worker fault-tolerance
# test under the race detector, then a real-binary fleet (3 workers +
# coordinator) with a kill -9 mid-sweep, byte-identical merged output
# vs a local run, and journal replay across a coordinator restart.
soak-cluster:
	./scripts/cluster_soak.sh

# Byzantine chaos soak: one of three workers rewrites result rows
# behind a deterministic chaos proxy (latency/truncation on the honest
# two); the audit layer must quarantine the liar and keep the merged
# map byte-identical to a clean run, under the race detector.
soak-chaos:
	./scripts/chaos_soak.sh

# Coordinator failover soak: the in-process HA election/replication
# test under the race detector, then a real-process replica group
# (3 bcnd HA coordinators over 3 workers behind partitionable chaos
# proxies) with a kill -9 of the leader mid-sweep and a network
# partition of its successor — gating on a byte-identical merged map,
# a pure journal replay on resubmit, and a single surviving leader.
soak-failover:
	./scripts/failover_soak.sh

# Overload soak for the closed-loop QoS tier: the in-process gating
# soak (4x offered load, one greedy tenant) under the race detector,
# then a real-binary run against bcnd -qos gating on zero accepted-job
# losses, per-tenant fairness within 1.5x, and monotonic qos_* series.
soak-overload:
	./scripts/overload_soak.sh

clean:
	rm -rf out
	$(GO) clean -testcache
