GO ?= go

.PHONY: build test check race bench bench-all doc fuzz-smoke servercheck cachecheck prunecheck stratcheck adaptcheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# doc is the documentation lint: formatting must be canonical, vet must
# be clean, and every package (internal, cmd, examples, root) must carry
# a package-level doc comment.
doc:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	bash scripts/doccheck.sh

# check is the CI gate: vet everything, then race-test the concurrent
# campaign engine, the interpreters it drives (legacy and decoded,
# including the engine-parity and pooled-frame hygiene suites), the
# decoded lowering pass, and the cross-check harness that compares them
# against the reference evaluator. The race run includes the snapshot
# round-trip suite (internal/interp) and the differential suites
# comparing snapshot-replay and decoded-engine campaigns against legacy
# full re-execution (internal/fault). The decoded crosscheck tier sweeps
# a random corpus through the three-way oracle with the decoded engine
# driving the campaign-level checks. The fuzz smoke run gives each
# native fuzz target a bounded slice of random exploration, and the
# fibench smoke run then proves all engines still agree end-to-end on a
# short real campaign, that the telemetry layer stays within its ≤3%
# overhead budget (see OBSERVABILITY.md), and that the decoded engine
# keeps a measurable lead over the snapshot engine (the 1.1x smoke floor
# is deliberately below the ≥1.4x geomean BENCH_fi.json records, so CI
# jitter on one kernel does not flake the gate). The servercheck drill
# then attacks a live fiserver: it SIGKILLs a shard worker mid-campaign,
# SIGTERMs the server (expecting exit 143 and the job re-queued on
# disk), restarts over the same spool, and requires the resumed merged
# result to be byte-identical to a clean run of the same campaign. The
# cachecheck drill closes the loop on the compositional profile cache:
# run, edit one kernel function, re-run, and require that only the
# edited function re-injected and the composed result byte-compares
# with a from-scratch campaign (the cache/hashutil packages also run
# under -race alongside the other concurrent tiers, and the bitlive
# pass runs under -race too — its Report is shared by campaign workers).
# The prunecheck drill closes the loop on bit-liveness pruning: pruned
# and unpruned campaigns through the real CLI, on both engines, must
# report identical summaries and identical per-trial transcripts
# (DESIGN.md §5i, scripts/prunecheck.sh). The stratcheck drill does the
# same for stratified sampling: the thinned campaign's transcript must
# be a subset of the plain one and the reweighted estimate must land on
# the plain campaign's SDC probability (scripts/stratcheck.sh). The
# adaptcheck drill closes the loop on adaptive (Neyman) allocation:
# pilot-derived plans must replay byte-identically from their own
# checkpoints, adaptive transcripts must be fenced from plain and
# stratified ones, and cache-seeded plans must skip the pilot while
# composing byte-identically to a cold run (scripts/adaptcheck.sh). The
# stats package races alongside the other tiers — its weighted tallies
# are accumulated by concurrent campaign code. The repobench smoke tests
# run last: repobench is a separate module (outside `go build ./...`) that
# calls internal/core, internal/profile and internal/analysis directly, so
# an API change there would otherwise go unseen.
check: build doc
	$(GO) test -race ./internal/fault/... ./internal/interp/... ./internal/decoded/... ./internal/telemetry/... ./internal/server/... ./internal/sigctx/... ./internal/cache/... ./internal/hashutil/... ./internal/bitlive/... ./internal/stats/...
	$(GO) test -race -short ./internal/crosscheck/...
	$(GO) run ./cmd/crosscheck -n 60 -seed 77 -kernels=false -engine decoded
	$(MAKE) fuzz-smoke
	$(GO) run ./cmd/fibench -programs pathfinder -n 300 -repeats 5 -max-overhead 0.03 -min-decoded-speedup 1.1 -out /dev/null
	$(MAKE) servercheck
	$(MAKE) cachecheck
	$(MAKE) prunecheck
	$(MAKE) stratcheck
	$(MAKE) adaptcheck
	cd repobench && $(GO) test ./...

# servercheck is the campaign server's kill drill; see
# scripts/servercheck.sh for the exact choreography.
servercheck:
	bash scripts/servercheck.sh

# cachecheck is the compositional cache's edit-and-rerun drill; see
# scripts/cachecheck.sh for the exact choreography.
cachecheck:
	bash scripts/cachecheck.sh

# prunecheck is the bit-liveness pruning drill: pruned vs unpruned
# campaigns through the real CLI must be bit-identical; see
# scripts/prunecheck.sh for the exact choreography.
prunecheck:
	bash scripts/prunecheck.sh

# stratcheck is the stratified-sampling drill: thinned campaigns through
# the real CLI must report unbiased weighted estimates over a subset
# transcript, and mismatched resumes must be refused; see
# scripts/stratcheck.sh for the exact choreography.
stratcheck:
	bash scripts/stratcheck.sh

# adaptcheck is the adaptive-stratification drill: pilot-derived plans
# must replay deterministically, and cached profiles must buy back the
# pilot without changing a byte of the composed result; see
# scripts/adaptcheck.sh for the exact choreography.
adaptcheck:
	bash scripts/adaptcheck.sh

# fuzz-smoke runs each native fuzz target for a bounded slice (~10s):
# long enough to mutate past the seed corpus, short enough for CI. Deep
# fuzzing is manual: go test ./internal/crosscheck -fuzz <target>.
fuzz-smoke:
	$(GO) test ./internal/crosscheck -run '^$$' -fuzz FuzzInterpOracle -fuzztime 10s
	$(GO) test ./internal/crosscheck -run '^$$' -fuzz FuzzParserRoundTrip -fuzztime 10s
	$(GO) test ./internal/crosscheck -run '^$$' -fuzz FuzzBitliveSound -fuzztime 10s
	$(GO) test ./internal/cache -run '^$$' -fuzz FuzzCacheKeyCanonical -fuzztime 10s
	$(GO) test ./internal/stats -run '^$$' -fuzz FuzzWeightedTally -fuzztime 10s

# bench measures the snapshot-replay, decoded and pruned campaign
# engines against the legacy path plus the telemetry layer's overhead
# across all 11 paper kernels and the narrow-output kernels the pruning
# pass targets (committed as BENCH_fi.json), and runs the campaign
# benchmarks. The pruning gate requires a ≥1.2x equal-CI speedup on at
# least 3 kernels (the narrow-output ones clear it; the paper kernels'
# near-zero masked fractions are expected). The stratification gate
# mirrors it: at least 3 kernels must show a ≥1.1x weighted-CI shrink
# at equal executed trials under the default plan. The adaptive gate
# requires a ≥1.05x shrink that also matches or beats the static plan's
# on at least 3 kernels — pilot cost included, so the floor sits below
# the static gate's on purpose.
bench:
	$(GO) run ./cmd/fibench -programs libquantum,blackscholes,sad,bfs-parboil,hercules,lulesh,puremd,nw,pathfinder,hotspot,bfs-rodinia,rgb2gray,nibblepack,boxblur -repeats 3 -min-pruned-ci-speedup 1.2 -min-strat-ci-shrink 1.1 -min-adapt-ci-shrink 1.05 -out BENCH_fi.json
	$(GO) test -bench='BenchmarkCampaign' -benchmem .

# bench-all runs the full benchmark harness (paper tables, ablations,
# substrates); takes several minutes.
bench-all:
	$(GO) test -bench=. -benchmem

race:
	$(GO) test -race ./...
