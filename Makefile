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

# Every benchmark; -run '^$$' skips the tests, which test runs.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# The rows of BENCH_search.json: the evaluator, lex-search and delta
# trace ablations of the root package, and the fill, search-mix,
# session-delta and LP-bound benchmarks of core, engine and lp.
BENCH_ROWS = ^Benchmark(Evaluator|EvaluatorBigRat|LexSearch(Full|Canonical|Pruned)(C5)?|DeltaTrace|BlockFill|SearchMix|SessionDelta|ThroughputBound)$$
BENCH_PKGS = . ./internal/core ./internal/engine ./internal/lp

# Record 10 runs of each row as means with 95% intervals, with the go
# version and the commit; run it on a clean tree, since a modified one
# is flagged. The report goes through a temporary file, so a failed run
# leaves BENCH_search.json as it was.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_ROWS)' -benchmem -count 10 $(BENCH_PKGS) \
		| $(GO) run -buildvcs=true ./internal/stats/benchjson > BENCH_search.json.tmp \
		|| { rm -f BENCH_search.json.tmp; exit 1; }
	mv BENCH_search.json.tmp BENCH_search.json

# The incremental evaluator must replay the 64-event C_5 delta trace at
# least twice as fast as per-event full recompute, in the mean of 3 runs.
bench-delta:
	$(GO) test -run '^$$' -bench '^BenchmarkDeltaTrace$$' -count 3 . \
		| $(GO) run ./internal/stats/benchjson \
		| jq -er '.packages.closnet | .["BenchmarkDeltaTrace/full"].metrics["ns/op"].mean / .["BenchmarkDeltaTrace/incremental"].metrics["ns/op"].mean | "full/incremental ns/op: \(.)", . >= 2'

# Re-measure every theorem bound; non-zero exit on any violation.
verify:
	$(GO) run ./cmd/closverify -v

# Regenerate every figure/bound of the paper as tables.
experiments:
	$(GO) run ./cmd/closlab -all

# Run every experiment with full observability: live metrics on stderr
# and a JSONL journal of trace spans in trace.jsonl (see internal/obs).
trace:
	$(GO) run ./cmd/closlab -all -metrics -trace trace.jsonl > /dev/null
	@wc -l < trace.jsonl | xargs -I{} echo "trace.jsonl: {} spans"

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
