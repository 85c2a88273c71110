GO ?= go

.PHONY: check build vet fmt test race race-hot fuzz-smoke bench bench-smoke bench-selftest bench-json bench-compare figures determinism deprecations

## check: the full gate — build, vet, formatting, the hot-path race
## gate, the race-enabled test suite, the benchmark's own smoke tests,
## the facade deprecation gate, a short run of every fuzz target, and the
## parallel-harness determinism gate.
check: build vet fmt race-hot race bench-selftest deprecations fuzz-smoke determinism

## deprecations: the public facade must stay free of deprecated API —
## PR 5 deleted the last // Deprecated: markers; this gate keeps new
## ones from accumulating. The second grep keeps the GFW's old
## imperative mutators (SetResetStorm, SetThrottle, SetClassBlock,
## BlockIP) from coming back outside internal/gfw: censorship behaviour
## is declarative policy applied through gfw.Apply, and a stray setter
## call would bypass the provisional-verdict bookkeeping Apply does.
## The third keeps the shard tier orchestrated once: internal/tier is the
## only place a shard ring or an autoscale controller is constructed
## (benchmark/layers drives shard.NewRing directly, as an isolated layer),
## so the simulated, the one-process and the multi-process tier cannot
## grow apart again.
## The fourth does the same for the border hop: core.Domestic.AssembleBorder
## is the only place a remote pool or a carrier ladder is constructed
## (benchmark/layers drives fleet.New directly, as an isolated layer).
## The fifth keeps that hop the only stream path: the single cached
## session (DialRemote, session(), the "via primary" trace) is deleted,
## and a proxy obtains a stream from its pool or not at all.
deprecations:
	@if grep -n "// Deprecated:" *.go; then \
		echo "deprecation gate: remove deprecated API from the public facade instead of marking it"; exit 1; \
	else \
		echo "deprecation gate: public facade carries no deprecated API"; \
	fi
	@if grep -rnE "SetResetStorm|SetThrottle|SetClassBlock|BlockIP\(" \
		--include="*.go" . | grep -v "^\./internal/gfw/"; then \
		echo "deprecation gate: mutate the GFW only through gfw.Apply(Policy)"; exit 1; \
	else \
		echo "deprecation gate: no imperative GFW mutation outside internal/gfw"; \
	fi
	@if grep -rnE "shard\.NewRing\(|autoscale\.New\(" \
		--include="*.go" --exclude="*_test.go" --exclude-dir=.bench_build --exclude-dir=benchmark . \
		| grep -vE "^\./internal/(tier|shard|autoscale)/"; then \
		echo "deprecation gate: orchestrate the shard tier only through internal/tier"; exit 1; \
	else \
		echo "deprecation gate: no tier orchestration outside internal/tier"; \
	fi
	@if grep -rnE "fleet\.New\(|carrier\.NewLadder\(" \
		--include="*.go" --exclude="*_test.go" --exclude-dir=.bench_build --exclude-dir=benchmark . \
		| grep -vE "^\./internal/(core|fleet|carrier)/"; then \
		echo "deprecation gate: assemble the border hop only through core.Domestic.AssembleBorder"; exit 1; \
	else \
		echo "deprecation gate: no pool or ladder construction outside internal/core"; \
	fi
	@if grep -rnE "DialRemote|\.session\(\)|via primary" \
		--include="*.go" --exclude="*_test.go" --exclude-dir=.bench_build .; then \
		echo "deprecation gate: open border streams only through the assembled pool (core.Domestic.Fleet)"; exit 1; \
	else \
		echo "deprecation gate: no single-session stream path"; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## fmt: fail when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## race-hot: the race detector focused on the hot-path packages the
## event-batching/pooling work touches (vclock's timer wheel and event
## freelist, netsim's packet freelist, the cache and fleet state
## machines). Runs first in `make check` so a data race in the
## simulator core fails fast; the full `race` pass then reuses these
## packages' cached results.
race-hot:
	$(GO) test -race ./internal/vclock ./internal/netsim ./internal/cache ./internal/fleet ./internal/censor ./internal/tier

## fuzz-smoke: five seconds of coverage-guided fuzzing per fuzz target —
## the mux frame parser every tunnel listener exposes, and the PAC hash's
## Go/JavaScript parity. `go test ./...` already replays their seed corpora.
fuzz-smoke:
	$(GO) test ./internal/mux -run '^$$' -fuzz '^FuzzSessionFrames$$' -fuzztime 5s
	$(GO) test ./internal/pac -run '^$$' -fuzz '^FuzzHash32MatchesRenderedJS$$' -fuzztime 5s

## bench: regenerate every figure's benchmark row once.
bench:
	$(GO) test -run NONE -bench . -benchtime 1x .

## bench-smoke: run every benchmark in the repo once, as a smoke test
## (includes the obs hot-path allocation benchmarks).
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

## bench-selftest: the repo benchmark (BENCHMARK.json, benchmark/run.sh)
## is its own Go module, so `go test ./...` at the root never reaches its
## smoke tests; this runs them.
bench-selftest:
	cd benchmark && $(GO) test ./...

## bench-json: run the full figure sweep and record the machine-readable
## performance report. Pinned to one core and one worker so the
## committed baseline is a stable single-core number — benchcompare
## refuses to diff reports whose gomaxprocs/seeds/full metadata
## disagree, so regenerate the baseline with this target, not by hand.
## BENCH_experiments.json (via this target and bench-compare) is the
## single source of truth for throughput claims quoted in
## ROADMAP/EXPERIMENTS.
bench-json:
	GOMAXPROCS=1 $(GO) run ./cmd/scholarbench -fig all -parallel 1 -bench-out BENCH_experiments.json > /dev/null

## bench-compare: run the full figure sweep fresh (same pinning as
## bench-json) and fail when any figure's wall time regressed >50%
## against the committed baseline.
bench-compare:
	GOMAXPROCS=1 $(GO) run ./cmd/scholarbench -fig all -parallel 1 -bench-out /tmp/scholarbench-fresh.json > /dev/null
	$(GO) run ./cmd/benchcompare -baseline BENCH_experiments.json \
		-fresh /tmp/scholarbench-fresh.json -tolerance 0.5

## determinism: the parallel harness's core guarantee — the full figure
## sweep must be byte-identical at -parallel 1, 3 and 4, so every figure
## in the plan table is checked at three worker counts (an odd one among
## them, for odd scheduling interleavings) with no figure list to keep.
## Subset selection (-fig NAME) is covered by TestSweepParallelDeterminism.
determinism:
	@$(GO) build -o /tmp/scholarbench-gate ./cmd/scholarbench
	@for p in 1 3 4; do \
		/tmp/scholarbench-gate -fig all -parallel $$p > /tmp/scholarbench-p$$p.txt || exit 1; \
	done
	@cmp /tmp/scholarbench-p1.txt /tmp/scholarbench-p3.txt && \
		cmp /tmp/scholarbench-p1.txt /tmp/scholarbench-p4.txt && \
		echo "determinism gate: -fig all byte-identical at -parallel 1, 3 and 4"

## figures: regenerate the paper's figures (quick sampling).
figures:
	$(GO) run ./cmd/scholarbench
