GO ?= go

.PHONY: all build test race lint lint-json lint-sarif fmt fmt-check bench bench-all bench-compare soak mu-soak clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Custom static analyzers (internal/analysis/*); exits non-zero on any
# finding not absorbed by the checked-in baseline.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/mimonet-lint -baseline lint/baseline.json ./...

# Machine-readable lint reports (same gate, JSON / SARIF payloads).
lint-json:
	$(GO) run ./cmd/mimonet-lint -json -baseline lint/baseline.json ./... > lint-findings.json; \
		status=$$?; cat lint-findings.json; exit $$status

lint-sarif:
	$(GO) run ./cmd/mimonet-lint -sarif -baseline lint/baseline.json ./... > mimonet-lint.sarif

fmt:
	gofmt -w .

# CI gate: fail if any file is unformatted.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Tracked benchmark baseline: the root experiment benches (Quick-mode
# Monte-Carlo settings) run three times each — benchjson keeps the fastest
# repetition per benchmark, the standard low-variance estimator, so a single
# load spike on a shared runner cannot masquerade as a regression — with the
# text stream shown and also converted to JSON (name -> ns/op, B/op,
# allocs/op, custom metrics) by cmd/benchjson. Regenerate after performance
# work and commit the BENCH_pr16.json diff; BENCH_pr3.json stays frozen as
# the pre-batching reference the compare gate measures against.
bench:
	$(GO) test -bench . -benchmem -count 3 -run '^$$' . | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_pr16.json
	@echo "wrote BENCH_pr16.json"

# The real-time floor BenchmarkRealtime must hold: burst airtime over decode
# wall time for the whole 4-chain front end (its `realtime` metric). 0.25 is
# the former 20 Msps aggregate floor, 20 Msps / (20 Msps × 4 chains).
REALTIME_FLOOR = 0.25

# The floor of its ML twin (MCS12, 2×2, ML detector), in the same unit. It
# sits above the ratio the receiver reached before the generated LORD
# kernels, so reverting them fails the gate.
REALTIME_ML_FLOOR = 0.04

# Rerun the tracked benches and diff against the committed pre-batching
# baseline; exits non-zero past a 15% ns/op regression on any benchmark or
# when BenchmarkRealtime or BenchmarkRealtimeML falls below its floor.
bench-compare:
	$(GO) test -bench . -benchmem -count 3 -run '^$$' . | $(GO) run ./cmd/benchjson > /tmp/bench-new.json
	$(GO) run ./cmd/benchjson -compare \
		-floor BenchmarkRealtime=realtime:$(REALTIME_FLOOR) \
		-floor BenchmarkRealtimeML=realtime:$(REALTIME_ML_FLOOR) \
		BENCH_pr3.json /tmp/bench-new.json

# Session-gateway chaos soak (experiment E23): 240 concurrent sessions
# through the fault-scenario rotation. Regenerate after session/gateway work
# and commit the SOAK_pr6.json diff; exits non-zero if any session ends
# outside the defined terminal states or resources fail to return to
# baseline. CI runs the same engine at reduced scale under -race.
soak:
	$(GO) run ./cmd/mimonet-gw -soak -sessions 240 -bytes 32768 -seed 20260808 -o SOAK_pr6.json

# Multi-user AP soak (experiment E25): 120 stations across four cells
# through the static/fading/churn scenario rotation, precoding from cached
# quantized CSI. Regenerate after apmac/mumimo/sounding work and commit the
# SOAK_pr9.json diff; exits non-zero if multi-user throughput fails to beat
# the single-user TDMA baseline. CI runs the same engine at reduced scale
# under -race.
mu-soak:
	$(GO) run ./cmd/mimonet-ap -soak -seed 20260808 -o SOAK_pr9.json

# Every benchmark in the tree (kernel micro-benches included), untracked.
bench-all:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

clean:
	$(GO) clean ./...
