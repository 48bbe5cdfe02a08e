# Developer entry points. `make ci` is the gate a change must pass; the
# individual targets exist for quick iteration.

GO ?= go

.PHONY: all vet fma build test race race-parallel check fuzz-smoke bench-smoke profile figures figures-check bench-gate digests bench-tiny-smoke reach scale-smoke workload-smoke policy-smoke cover soak soak-100k ci

all: build

# go vet and gofmt. The arm64 fused multiply-add census (`make fma`,
# below) is a separate ci step, since its cross-compile takes seconds.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .) && if [ -n "$$unformatted" ]; then \
		echo "vet: gofmt -l lists these files; run gofmt -w on them:"; echo "$$unformatted"; exit 1; fi

# The fused multiply-add census (ROADMAP item 23). The Go spec lets a
# compiler fuse x*y + z into one rounding unless a conversion forces the
# product to round; amd64 never fuses, arm64 does. This cross-compiles
# the module for arm64 (offline, about 30 s: -a rebuilds the standard
# library too), prints the assembly of its own packages and counts the
# fused ops in total and per source file, at the site they were inlined
# from. It fails when the total exceeds FMA_CEILING, the committed count,
# so the number can only fall: a change that rounds sites explicitly
# lowers the ceiling with it.
FMA_CEILING ?= 20

fma:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	if ! GOARCH=arm64 $(GO) build -a -gcflags='precinct/...=-S' ./internal/... . 2> "$$dir/asm"; then \
		grep -v '^[[:space:]]' "$$dir/asm" | tail -20 >&2; exit 1; \
	fi && \
	grep -E '[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]' "$$dir/asm" | \
		sed -E 's/^[^(]*\(([^:]*\/)?([^/:]+\.go):[0-9]+\).*/\2/' | sort | uniq -c | sort -k1,1nr -k2 > "$$dir/files"; \
	total=$$(awk '{ n += $$1 } END { print n + 0 }' "$$dir/files") && \
	echo "fma: $$total fused multiply-adds on arm64, by file:" && \
	cat "$$dir/files" && \
	if [ "$$total" -gt $(FMA_CEILING) ]; then \
		echo "fma: $$total exceeds the ceiling of $(FMA_CEILING)" >&2; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The sharded scheduler's dedicated race gate (DESIGN.md section 13):
# the golden whole-run recordings (TestWorkloadDefaultGolden and the
# *Equivalence suites that share testdata/workload_golden.json), the
# canonical-trace tests and the parallel-equivalence suite — every scenario of which runs across the
# fuzzgen shard axis (2, 3, 4, 5, 8 shards) — under the race detector, at both GOMAXPROCS=1 (forced interleaving through one
# OS thread: every barrier handoff and park/wake path runs) and
# GOMAXPROCS=4 (true concurrency where the host has the cores; on a
# smaller host the runtime multiplexes, which still schedules
# differently than 1). -short caps the large-N seeds (the full sizes
# run race-free in `test`; under race the parallel suite caps itself
# the same way via the race build tag). The flood-record tests of
# internal/node run too: each replica keeps its own records, and a
# payload cloned across shards must not carry a reference into another's.
race-parallel:
	GOMAXPROCS=1 $(GO) test -race -short -count=1 -run 'Parallel|Golden|Equivalence|Canonicalize|Shuffle' .
	GOMAXPROCS=4 $(GO) test -race -short -count=1 -run 'Parallel|Golden|Equivalence|Canonicalize|Shuffle' .
	$(GO) test -race -count=1 ./internal/pool ./internal/trace
	$(GO) test -race -count=1 -run Flood ./internal/node

# The runtime invariant suite (DESIGN.md section 9) under the race
# detector: fuzzed scenarios, metamorphic relations and the
# broken-build detection test across the repo, then every test of
# internal/invariant itself (the checks' unit tests, whose names do not
# match Invariant).
check:
	$(GO) test -race -run Invariant -count=1 ./...
	$(GO) test -race -count=1 ./internal/invariant/...

# A short pass over every fuzz target so the corpora and harnesses are
# kept working; real fuzzing campaigns just raise -fuzztime.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentIntersection$$' -fuzztime $(FUZZTIME) ./internal/geo
	$(GO) test -run '^$$' -fuzz '^FuzzRectClamp$$' -fuzztime $(FUZZTIME) ./internal/geo
	$(GO) test -run '^$$' -fuzz '^FuzzGeoHash$$' -fuzztime $(FUZZTIME) ./internal/region
	$(GO) test -run '^$$' -fuzz '^FuzzRegionForPoint$$' -fuzztime $(FUZZTIME) ./internal/region
	$(GO) test -run '^$$' -fuzz '^FuzzZipfRank$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzScenario$$' -fuzztime $(FUZZTIME) -parallel 1 .

# One fast pass over every benchmark so regressions in the bench code
# itself are caught without waiting for full measurement runs. The
# slowest single iteration is BenchmarkRunScenario/flood_2k, about 2 s
# on 2 vCPU.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# A CPU profile of one Go benchmark, one iteration, without a throw-away
# main: the top of the cumulative listing is printed and nothing is left
# behind. The default is paper_80's shape, the benchmark's workload with
# writes; BenchmarkRunScenario/flood_2k is flood_2k's and
# BenchmarkRunScenario/scale_10k is scale_10k's. PROFILE_PKG names
# the package of any other benchmark (-cpuprofile takes one package per
# run).
#
#	make profile PROFILE_BENCH=BenchmarkRunScenario/flood_2k
#	make profile PROFILE_BENCH=BenchmarkFanBurst PROFILE_PKG=./internal/sim
PROFILE_BENCH ?= BenchmarkRunScenario/updates
PROFILE_PKG ?= .
profile:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)' -benchtime 1x -cpuprofile "$$dir/cpu.prof" -o "$$dir/bench.test" $(PROFILE_PKG) && \
	$(GO) tool pprof -top -cum "$$dir/bench.test" "$$dir/cpu.prof" | head -40

# Rewrite bench_figures.txt: every grid of experiments.go (the paper's
# figures, the extension sweeps, the policy, workload and scale labs and
# the design-choice rows) at paper scale, seed 1. The file is a pure
# function of the code — no timings — so it is the same on any host;
# about 65 s on 2 cores, build included.
# EXPERIMENTS.md quotes it.
FIGURES = $(GO) run ./cmd/precinct-sim -fig all
figures:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(FIGURES) > "$$tmp" && cp "$$tmp" bench_figures.txt

# The ci half: regenerate to a temporary file and diff against the
# committed one, so a change that moves any figure cell fails until
# `make figures` is run and the new numbers are looked at.
figures-check:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(FIGURES) > "$$tmp" && diff -u bench_figures.txt "$$tmp" && \
	echo "figures-check: bench_figures.txt matches the code"

# The repository benchmark (bench/, BENCHMARK.json) as a before/after
# gate for a performance change: the tree of BENCH_PARENT (default: the
# last commit, so the working tree is "the change") is unpacked into a
# temporary directory, both sides run `go run ./bench -json` with the
# same -seed and -reps — BENCH_PAIRS times, alternating which side goes
# first so neither always runs on a cold or a throttled host — and each
# pair goes through `-compare`, which applies BENCHMARK.json's bounds
# and exits non-zero on a metric that got worse or a run that failed.
# About 2 minutes per pair; run on a quiet machine. BENCH_WORKLOADS (a
# comma-separated list, default all) goes to both sides as -workloads,
# so a claim about one workload is gated in about a minute per pair.
#
#	make bench-gate BENCH_PARENT=HEAD~1 BENCH_SEED=2 BENCH_PAIRS=4
#	make bench-gate BENCH_WORKLOADS=paper_80 BENCH_PAIRS=10
BENCH_PARENT ?= HEAD
BENCH_SEED ?= 1
BENCH_REPS ?= 3
BENCH_PAIRS ?= 2
BENCH_WORKLOADS ?=
bench-gate:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	mkdir "$$dir/parent" && git archive $(BENCH_PARENT) | tar -x -C "$$dir/parent" && \
	args="-seed $(BENCH_SEED) -reps $(BENCH_REPS) -workloads=$(BENCH_WORKLOADS)" && \
	run_parent() { (cd "$$dir/parent" && $(GO) run ./bench $$args -json "$$dir/parent_$$1.json" > /dev/null); } && \
	run_change() { $(GO) run ./bench $$args -json "$$dir/change_$$1.json" > /dev/null; } && \
	for i in $$(seq 1 $(BENCH_PAIRS)); do \
		if [ $$((i % 2)) = 1 ]; then \
			echo "bench-gate: pair $$i, parent first" && run_parent $$i && run_change $$i; \
		else \
			echo "bench-gate: pair $$i, change first" && run_change $$i && run_parent $$i; \
		fi && \
		$(GO) run ./bench -compare "$$dir/parent_$$i.json" "$$dir/change_$$i.json" || exit 1; \
	done

# The exactness check of a change meant to preserve behaviour: every
# bench/ workload once (-reps 1, seed BENCH_SEED) for the tree of
# BENCH_PARENT, unpacked as bench-gate does, and for the working tree;
# each workload's result_digest is printed side by side, and any
# difference (or a workload only one side ran) exits 1. About 45 s on
# 2 cores.
#
#	make digests BENCH_PARENT=HEAD~1
digests:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	mkdir "$$dir/parent" && git archive $(BENCH_PARENT) | tar -x -C "$$dir/parent" && \
	args="-seed $(BENCH_SEED) -reps 1 -out $$dir/out" && \
	(cd "$$dir/parent" && $(GO) run ./bench $$args > "$$dir/parent.txt") && \
	$(GO) run ./bench $$args > "$$dir/change.txt" && \
	digest='/^== / { name = $$2 } /result_digest=/ { sub(/.*result_digest=/, ""); print name, $$0 }' && \
	awk "$$digest" "$$dir/parent.txt" > "$$dir/parent.dig" && \
	awk "$$digest" "$$dir/change.txt" > "$$dir/change.dig" && \
	awk 'NR == FNR { parent[$$1] = $$2; next } \
		{ p = ($$1 in parent) ? parent[$$1] : "-"; delete parent[$$1]; same = p == $$2; bad += !same; \
		  printf "digests: %-10s parent %s change %s %s\n", $$1, p, $$2, same ? "equal" : "DIFFERENT" } \
		END { for (w in parent) { printf "digests: %-10s parent %s change -\n", w, parent[w]; bad++ } \
		  if (bad) { print "digests: a result_digest differs between $(BENCH_PARENT) and the working tree"; exit 1 } \
		  print "digests: every result_digest is equal at $(BENCH_PARENT) and in the working tree" }' \
		"$$dir/parent.dig" "$$dir/change.dig"

# The benchmark's own smoke size (N <= 200, ~2 s) with the traced pass:
# every workload, the per-layer drives and the sharded digest check run
# once, so a change that breaks what bench/ compiles against or a digest
# contract fails ci, not the next measurement.
bench-tiny-smoke:
	$(GO) run ./bench -scale tiny -traced > /dev/null

# Per-package coverage floors. Baselines recorded at PR 4 (2026-08):
# internal/cache 86.6%, internal/node 82.5% of statements; the floor is
# the baseline minus 1 point of slack for coverage-neutral churn. Raise
# the floors when coverage improves; never lower them to admit a drop.
# internal/radio and internal/mobility joined with ISSUE 15 (2026-09), which
# rewrote their hot paths: 80.5% and 76.0% before it, 88.2% and 81.3%
# with its tests, floors from the latter.
COVER_FLOOR_CACHE ?= 85.6
COVER_FLOOR_NODE ?= 81.5
COVER_FLOOR_REGION ?= 85.0
COVER_FLOOR_RADIO ?= 87.0
COVER_FLOOR_MOBILITY ?= 80.2
cover:
	@fail=0; \
	for spec in "internal/cache $(COVER_FLOOR_CACHE)" "internal/node $(COVER_FLOOR_NODE)" "internal/region $(COVER_FLOOR_REGION)" "internal/radio $(COVER_FLOOR_RADIO)" "internal/mobility $(COVER_FLOOR_MOBILITY)"; do \
		set -- $$spec; pkg=$$1; floor=$$2; \
		pct=$$($(GO) test -cover ./$$pkg/ | awk -F'coverage: ' '/coverage:/{split($$2,a,"%"); print a[1]}'); \
		if [ -z "$$pct" ]; then echo "cover: $$pkg: no coverage output"; fail=1; continue; fi; \
		echo "cover: $$pkg $$pct% (floor $$floor%)"; \
		if [ "$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN{print (p+0 >= f+0)}')" != 1 ]; then \
			echo "cover: $$pkg dropped below its $$floor% floor"; fail=1; \
		fi; \
	done; exit $$fail

# The reach ledger (DESIGN.md section 17): statement coverage of every
# package under tier-1 (`go test ./...`) and under the behavioural corpus
# (the golden readers plus every figure grid at reduced scale), then the
# functions tier-1 runs but the corpus does not, and those no test runs
# at all. bench/ is outside the count; a
# main package has no corpus entry, so a missing one counts as 0. About
# 90 s on 2 cores; nothing is left behind.
REACH_CORPUS = ^(TestWorkloadDefaultGolden|TestGridLinearEquivalence|TestCacheIndexEquivalence|TestLayoutEquivalence|TestPoolingEquivalence|TestResumeEquivalence|TestResumeEquivalenceChecked|TestWorkloadResumeEquivalence|TestReachGolden|TestFiguresEveryID)$$
REACH_OUTSIDE = ^precinct\/bench\/
reach:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) test -coverpkg=./... -coverprofile="$$dir/tier1.out" ./... > /dev/null && \
	$(GO) test -coverpkg=./... -coverprofile="$$dir/corpus.out" -run '$(REACH_CORPUS)' . > /dev/null && \
	$(GO) tool cover -func="$$dir/tier1.out" > "$$dir/tier1.func" && \
	$(GO) tool cover -func="$$dir/corpus.out" > "$$dir/corpus.func" && \
	echo "reach: statements: tier-1 $$(awk '$$1 == "total:" { print $$3 }' "$$dir/tier1.func"), corpus $$(awk '$$1 == "total:" { print $$3 }' "$$dir/corpus.func")" && \
	echo "reach: run by tier-1 but not by the corpus:" && \
	awk 'NR == FNR { corpus[$$1 $$2] = $$3 + 0; next } \
		$$1 != "total:" && $$3 + 0 > 0 && !corpus[$$1 $$2] && $$1 !~ /$(REACH_OUTSIDE)/ { print; n++ } \
		END { print "reach: " n + 0 " functions" }' "$$dir/corpus.func" "$$dir/tier1.func" && \
	echo "reach: under no test:" && \
	awk '$$1 != "total:" && $$3 == "0.0%" && $$1 !~ /$(REACH_OUTSIDE)/ { print; n++ } \
		END { print "reach: " n + 0 " functions" }' "$$dir/tier1.func"

# Scale-tier smoke: a 1000-node, lossy scenario (paper density: the
# area grows with sqrt(N), ~400 m regions) and a 10000-node cell (the
# SoA layout's first big tier, DESIGN.md section 14) must each complete
# under the full runtime invariant catalog at a smoke-sized horizon.
scale-smoke:
	$(GO) run ./cmd/precinct-sim -nodes 1000 -area 4243 -regions 121 -loss 0.1 -warmup 30 -duration 180 -check > /dev/null
	@echo "scale-smoke: 1000-node lossy run passed the invariant catalog"
	$(GO) run ./cmd/precinct-sim -nodes 10000 -area 13416 -regions 1156 -loss 0.1 -warmup 30 -duration 120 -check > /dev/null
	@echo "scale-smoke: 10000-node lossy run passed the invariant catalog"

# Workload-lab smoke (DESIGN.md section 15): every non-default workload
# source through the real CLI at a short horizon under the full runtime
# invariant catalog.
workload-smoke:
	@flags="-nodes 40 -warmup 20 -duration 150 -check" && \
	for w in flash-crowd diurnal hotspot rank-churn; do \
		echo "workload-smoke: $$w" && \
		$(GO) run ./cmd/precinct-sim $$flags -workload $$w > /dev/null || exit 1; \
	done && \
	echo "workload-smoke: every source passed the invariant catalog"

# Policy-lab smoke (DESIGN.md section 16): every registered replacement
# policy through the real CLI on a short lossy scenario under the full
# runtime invariant catalog, plus one k=2 replica-region cell so the
# multi-rank custody checkers run end to end. The policy list comes
# from the binary itself (-list-policies), so a newly registered policy
# is enrolled here automatically.
policy-smoke:
	@flags="-nodes 40 -loss 0.05 -warmup 20 -duration 150 -check" && \
	for p in $$($(GO) run ./cmd/precinct-sim -list-policies); do \
		echo "policy-smoke: $$p" && \
		$(GO) run ./cmd/precinct-sim $$flags -policy $$p > /dev/null || exit 1; \
	done && \
	echo "policy-smoke: replicas=2" && \
	$(GO) run ./cmd/precinct-sim $$flags -replicas 2 > /dev/null && \
	echo "policy-smoke: every policy passed the invariant catalog"

# The build-tagged endurance tier (soak_test.go): one 2000-node, 30%
# loss scenario for a long horizon under the invariant catalog.
# Minutes, not seconds — run explicitly, not from ci. The 100k memory soak has its own target below.
soak:
	$(GO) test -tags soak -run Soak -skip Soak100k -timeout 60m -v .

# The 100k-node memory-ceiling soak (soak100k_test.go, DESIGN.md
# section 14): the acceptance-shape scenario — 100000 nodes, 30% loss,
# push-adaptive-pull, 300 s — under the full invariant catalog with an
# RSS sampler alongside; peak resident set must stay at or under 4 GiB.
# Tens of minutes — run explicitly, not from ci.
soak-100k:
	$(GO) test -tags soak -run Soak100k -timeout 60m -v .

ci: vet fma build test race race-parallel check cover bench-smoke fuzz-smoke scale-smoke workload-smoke policy-smoke bench-tiny-smoke figures-check
