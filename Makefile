# hetsched build targets. Everything is stdlib-only Go; see README.md.

GO ?= go

.PHONY: all build test vet lint race race-short chaos exec-chaos serve-chaos obs-chaos calib-chaos ci bench bench-smoke cover figures figures-json examples clean

all: build lint test

# What CI runs (.github/workflows/ci.yml): build, lint (go vet plus the
# project's own hetvet suite), the full test suite, the race detector
# in short mode, the examples, the five chaos suites (resilience,
# data-plane, serving, calibration, observability), and the repo
# benchmark's correctness gate. CI's fuzz, daemon-smoke, scrape and
# report-upload steps have no make target and are not repeated here.
ci: build lint test race-short examples chaos exec-chaos serve-chaos calib-chaos obs-chaos bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is go vet followed by hetvet, the project-specific checker suite
# (nilguard, determinism, lockio, errdiscard, tracectx, goleak,
# lockorder, hotpath — see DESIGN.md §9).
lint: vet
	$(GO) run ./cmd/hetvet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

race-short:
	$(GO) test -race -short ./...

# The seeded fault-injection suite under the race detector: chaos
# server kills, connection faults, degraded-mode ladders, and mid-run
# link failures (all deterministic — fixed seeds).
chaos:
	$(GO) test -race -short -run 'Chaos|Resilient|Degraded|Ladder|Broken|IdleTimeout|Fault|Reactive|Injector' \
		./internal/directory/ ./internal/comm/ ./internal/faults/ ./internal/sim/

# The data-plane chaos suite under the race detector: executor kills
# mid-exchange with residual rescheduling, seeded latency/stall
# injection and duplicate suppression (all deterministic — fixed
# seeds), concurrent repeated exchanges over a drifting source, then
# Mem's pipe conformance tests fifty times over, as CI runs them.
exec-chaos:
	$(GO) test -race -short -run 'Exec|Residual|Latency|RepeatedMemo|InvalidateRace' \
		./internal/exec/ ./internal/faults/ ./internal/sched/ ./internal/comm/
	$(GO) test -race -count=50 -run '^TestExecMemConn' ./internal/exec

# The serving chaos suite under the race detector: a 10x overload storm
# against the planning daemon (admission control, coalescing, deadline
# expiry, a mid-storm directory outage riding the degradation ladder,
# recovery), plus drain and slow-client defenses. TestServeOverloadChaos
# skips under -short, so this runs the full suite deliberately.
serve-chaos:
	$(GO) test -race -count=1 ./internal/serve/ ./internal/wire/ ./internal/faults/

# The observability chaos run: the overload storm again, but with the
# flight recorder and tail sampler armed and their evidence exported —
# the storm must produce an automatic flight dump on the injected
# mid-storm outage, retain a span tree for every shed/expired request,
# and leave behind loadable artifacts (flight dump, Perfetto trace,
# statusz snapshot) under obs-artifacts/ for post-mortem inspection.
obs-chaos:
	HETSCHED_CHAOS_ARTIFACTS=$(CURDIR)/obs-artifacts \
		$(GO) test -race -count=1 -run ServeOverloadChaos -v ./internal/serve/

# The closed-loop calibration chaos suite under the race detector: the
# estimator's unit and property tests, the directory feed path, the
# drift injector, and the headline proofs — under injected drift,
# calibrated planning beats static-table planning on executed wall
# clock, and a pair lying through stalls/retries loses trust without
# poisoning the model (all deterministic — fixed seeds).
calib-chaos:
	$(GO) test -race -count=1 -run 'Calib|Drift|PairDelay' \
		./internal/calib/ ./internal/comm/ ./internal/faults/ ./internal/directory/

bench:
	$(GO) test -bench . -benchmem ./...

# Five seconds each of the repo benchmark's four workloads
# (BENCHMARK.json, bench/README.md), run for their correctness gate
# rather than their numbers. serve-live and serve-miss: every plan must
# carry the store's generation and equal the plan the library computes
# on the store's table at that generation, which guards the directory
# client's held snapshot and the daemon's plan cache. serve-hot: every
# 64th hit must equal the library's plan for the explicit table sent and
# the hit ratio must reach 0.999, which guards the plan-request codec and
# the pattern key. exchange-mem: every exchange must deliver every byte
# in one round, which guards the executor's pooled byte path. The result
# is the last line of output; the recipe fails unless it reads
# "correct": true.
bench-smoke:
	@for w in serve-live serve-miss serve-hot exchange-mem; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 5 --trace 0 | tail -n 1 \
			| grep -Eq '"correct": *true' || { echo "bench-smoke: $$w is not correct" >&2; exit 1; }; \
		echo "bench-smoke: $$w correct"; \
	done

cover:
	$(GO) test -cover ./...

# Regenerate every table and figure from the paper's evaluation.
figures:
	$(GO) run ./cmd/hcbench -fig all

# The Figure 9-12 sweeps as machine-readable JSON (mean and p95
# ratio-to-lower-bound per (P, algorithm) plus per-figure wall clock).
# CI's bench job uploads bench.json as an artifact; EXPERIMENTS.md
# documents the schema.
figures-json:
	$(GO) run ./cmd/hcbench -fig sweeps -json bench.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/transpose
	$(GO) run ./examples/mediaservers
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/directory
	$(GO) run ./examples/staging
	$(GO) run ./examples/repeated
	$(GO) run ./examples/multinet

clean:
	$(GO) clean ./...
