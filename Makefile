GO ?= go

.PHONY: build test lint check chaos bench benchdiff

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vrlint enforces the simulator's static invariants (determinism,
# panic-freedom, cycle-counter safety, validate-before-run); see
# DESIGN.md "Static invariants". Runs standalone here; it also speaks
# the vet -vettool protocol:
#   go build -o bin/vrlint ./cmd/vrlint && go vet -vettool=bin/vrlint ./...
lint:
	$(GO) run ./cmd/vrlint ./...

# Chaos smoke: a race-built vrbench campaign with seeded faults is
# interrupted mid-journal and resumed; the resumed output must be
# byte-identical to an uninterrupted run's, and the documented exit codes
# (0/1/2/130) must hold. See scripts/chaos_smoke.sh.
chaos:
	./scripts/chaos_smoke.sh

# The full verification gate: formatting, static checks, a clean build,
# the test suite under the race detector, vet and tests of the benchmark
# module (bench/ builds against the harness API from outside, so a rename
# there fails here rather than in a benchmark run), and the
# interrupt-and-resume chaos smoke. The formatting step fails if gofmt
# would change any tracked Go file outside testdata/, whose analyzer
# inputs keep their hand-aligned `// want` comments.
check:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go' ':!:*/testdata/*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/vrlint ./...
	$(GO) build ./...
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...
	./scripts/chaos_smoke.sh

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Allocation- and time-budget gate: re-run the benchmarks (6 repeats,
# component-wise medians taken by the comparator) and fail if any
# benchmark's allocs/op regressed >25% or its ns/op more than 2x against
# the committed baseline (BENCH_PR22.json). The loose time gate catches
# order-of-magnitude pathologies; jitter never trips it. Each repeat runs
# a benchmark once, except the two table benchmarks that simulate
# nothing: at well under 100 µs per op one iteration is a single timer
# read, so they run a fixed 5000 iterations (over 10 ms). See
# scripts/benchdiff.
benchdiff:
	{ $(GO) test -bench='^Benchmark(Table1Config|Table3Hardware)$$' -benchmem -benchtime=5000x -count=6 -run=^$$ . && \
	  $(GO) test -bench=. -skip='^Benchmark(Table1Config|Table3Hardware)$$' -benchmem -benchtime=1x -count=6 -run=^$$ . ; } | \
	  $(GO) run ./scripts/benchdiff -record /tmp/bench_now.json -note "benchdiff candidate"
	$(GO) run ./scripts/benchdiff -old BENCH_PR22.json -new /tmp/bench_now.json -threshold 25 -nsthreshold 100
