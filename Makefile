# Developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet race bench bench-json bench-delta verify experiments trace serve cover fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The parallel routing-space search under the race detector.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Persist the search/evaluator perf numbers as a JSON artifact.
bench-json:
	$(GO) run ./cmd/closbench -o BENCH_search.json

# The incremental-evaluator smoke pair: full per-event recompute vs the
# delta-aware water filling on the 64-event C_5 trace, failing below
# the CI speedup bar.
bench-delta:
	$(GO) run ./cmd/closbench -only-delta -min-delta-speedup 2

# Re-measure every theorem bound; non-zero exit on any violation.
verify:
	$(GO) run ./cmd/closverify -v

# Regenerate every figure/bound of the paper as tables.
experiments:
	$(GO) run ./cmd/closlab -all

# Run every experiment with full observability: live metrics on stderr
# and a structured JSONL journal in trace.jsonl (see internal/obs).
trace:
	$(GO) run ./cmd/closlab -all -metrics -trace trace.jsonl > /dev/null
	@wc -l < trace.jsonl | xargs -I{} echo "trace.jsonl: {} events"

# Run the scenario-evaluation daemon (see cmd/closnetd and the README
# "Serving" section). Ctrl-C drains in-flight requests before exit.
serve:
	$(GO) run ./cmd/closnetd -addr localhost:8427 -metrics

cover:
	$(GO) test -cover ./...

# Short fuzz pass over the Rat64 arithmetic against big.Rat, the
# allocator and its kernel drivers, the edge colorer, the search's value
# compare, the simplex (and its integer path against the big.Rat
# tableau), the codec (its fast paths against encoding/json and big.Rat,
# a batch's shared canonical prefixes against the one-pass oracle, the
# response body writer against json.Marshal), typed span attributes
# against encoding/json of a map, and the serving handler.
fuzz:
	$(GO) test -fuzz=FuzzRat64 -fuzztime=10s ./internal/rational/
	$(GO) test -fuzz=FuzzWaterfill -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzKernelRounds -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzBlockEvalMatchesSingle -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzIncrementalDeltas -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzPartialBoundAdmissible -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzSearchValue -fuzztime=10s ./internal/search/
	$(GO) test -fuzz=FuzzEdgeColor -fuzztime=10s ./internal/coloring/
	$(GO) test -fuzz='^FuzzSimplex$$' -fuzztime=10s ./internal/lp/
	$(GO) test -fuzz=FuzzSimplexIntMatchesBig -fuzztime=10s ./internal/lp/
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=10s ./internal/codec/
	$(GO) test -fuzz=FuzzDecodeFastMatchesJSON -fuzztime=10s ./internal/codec/
	$(GO) test -fuzz=FuzzDecodeBatchMatchesJSON -fuzztime=10s ./internal/codec/
	$(GO) test -fuzz=FuzzCanonicalizeBatch -fuzztime=10s ./internal/codec/
	$(GO) test -fuzz=FuzzCanonicalEncodeMatchesJSON -fuzztime=10s ./internal/codec/
	$(GO) test -fuzz=FuzzNormalizeDemandMatchesBigRat -fuzztime=10s ./internal/codec/
	$(GO) test -fuzz='^FuzzResponseBody$$' -fuzztime=10s ./internal/codec/
	$(GO) test -fuzz=FuzzSpanAttrsMatchMap -fuzztime=10s ./internal/obs/
	$(GO) test -fuzz=FuzzServe -fuzztime=10s ./internal/server/

clean:
	$(GO) clean ./...
	rm -rf internal/*/testdata/fuzz
