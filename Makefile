# Convenience targets for the pnm repository.

GO ?= go

.PHONY: all build test race vet lint bench bench-ab bench-sink bench-fault bench-churn fuzz-smoke soak ci figures figures-check examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: the determinism, ownership, locking
# and allocation invariants (wallclock, globalrand, maporder, ownership,
# guardedby, golife, noalloc — see internal/lint) plus a gofmt check.
# pnmlint runs `go build -gcflags=-m` itself to feed the noalloc analyzer
# real escape-analysis facts; the build cache replays those diagnostics,
# so warm runs skip the compile. Fails on any diagnostic or unformatted
# file; `go run ./cmd/pnmlint -json ./...` emits the same findings
# machine-readably.
lint:
	$(GO) run ./cmd/pnmlint ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

bench:
	$(GO) test -bench=. -benchmem .

# A/B run of the repository benchmark (scripts/bench-ab.sh): bench/ built
# at AB_BASE and in the working tree, AB_PAIRS pairs of AB_SECONDS-second
# runs on AB_WORKLOAD, one seed a pair, printing per-pair metrics,
# medians, the base's interquartile range and the working tree's wins.
AB_BASE ?= HEAD
AB_WORKLOAD ?= dense-300
AB_PAIRS ?= 5
AB_SECONDS ?= 10
bench-ab:
	bash scripts/bench-ab.sh --base $(AB_BASE) --workload $(AB_WORKLOAD) --pairs $(AB_PAIRS) --seconds $(AB_SECONDS)

# Regenerate the committed sink-cost document: the MAC engine
# micro-benchmark, the two resolvers on the interleaved stream, and the
# topology resolver on the keyed stream, with allocation columns and
# every sink counter per row. Verdict hashes and
# verdict-visible counters are deterministic and checked within each
# stream at generation time; timings vary with the machine - read them
# against the recorded gomaxprocs.
bench-sink:
	$(GO) run ./cmd/pnmsim -exp benchsink > BENCH_sink.json

# Regenerate the committed fault benchmark (E20): traceback convergence
# under deterministic fault plans. Fully deterministic — the document is a
# pure function of its config, and verdict equality with the fault-free
# baseline is enforced at generation time.
bench-fault:
	$(GO) run ./cmd/pnmsim -exp benchfault > BENCH_fault.json

# Regenerate the committed churn benchmark (E23, and E18's rows at
# epochs 0 and 1): traceback under topology churn with epoch-versioned
# resolution, in two rewire modes over 20 seeded fields. Fully
# deterministic apart from env and the wall-clock column, for any
# GOMAXPROCS. Mole capture and stale-resolver divergence on run 0, and
# every epoch applied and the epoch pin handed back on every run, are
# enforced at generation time; TestCommittedBenchDocsReproduce
# regenerates the document in go test.
bench-churn:
	$(GO) run ./cmd/pnmsim -exp benchchurn > BENCH_churn.json

# Short coverage-guided fuzzing over the trust boundary: the hardened
# packet decoder and the frame reader that feeds it untrusted socket
# bytes, the MAC engine's marking-MAC and anonymous-ID paths against
# the test reference, and the whole sink against its plain reference
# (FuzzSinkMatchesReference: every packet's chain and the verdict after
# it, with and without reader matches, over both resolvers). Each
# harness runs FUZZTIME on top of its committed seed corpus.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReport$$' -fuzztime $(FUZZTIME) ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzFrame$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzAnonIDPathsAgree$$' -fuzztime $(FUZZTIME) ./internal/mac
	$(GO) test -run '^$$' -fuzz '^FuzzSumPathsAgree$$' -fuzztime $(FUZZTIME) ./internal/mac
	$(GO) test -run '^$$' -fuzz '^FuzzSinkMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/sink

# Live-server soaks under the race detector: pnmload-style replay into
# the ingest server over real sockets while a chaos plan crashes and
# restores the sink from its PNM2 checkpoint, and a random-waypoint field
# advanced through 10,000 epochs while frames stream, with the epoch
# history, the heap and the ingest ledger checked at the end; and the
# simulator streaming through 1,000 route repairs with evicting queues,
# its epoch history checked bounded once it settles.
soak:
	$(GO) test -race -run 'TestLoopbackSoak|TestMobilitySoak|TestEpochHistoryBoundedUnderRouteChurn' -count 1 ./internal/transport ./internal/netsim

# What CI runs: build, vet, lint, the full test suite, the examples, the
# bench module's tests (pnm/bench sits outside ./...), and the race
# detector over the packages that exercise goroutines.
ci: build vet lint test examples
	$(GO) -C bench test ./...
	$(GO) test -race ./internal/netsim ./internal/mac ./internal/experiment ./internal/parallel ./internal/sink ./internal/obs ./internal/transport ./internal/loadgen ./internal/debugserver ./internal/queue ./internal/topology

# Regenerate every paper figure/table into results/. Run-averaged
# experiments fan out across GOMAXPROCS workers (set the GOMAXPROCS
# environment variable to change it); output is byte-identical for any
# worker count. fig5 is the 2000-run sweep EXPERIMENTS E2 reports.
figures:
	mkdir -p results
	$(GO) run ./cmd/pnmsim -exp fig4 > results/fig4.csv
	$(GO) run ./cmd/pnmsim -exp fig5 -runs 2000 > results/fig5.csv
	$(GO) run ./cmd/pnmsim -exp fig6 > results/fig6.csv
	$(GO) run ./cmd/pnmsim -exp fig7 > results/fig7.csv
	$(GO) run ./cmd/pnmsim -exp matrix > results/matrix.txt
	$(GO) run ./cmd/pnmsim -exp headline > results/headline.txt
	$(GO) run ./cmd/pnmsim -exp ablate > results/ablate.txt
	$(GO) run ./cmd/pnmsim -exp resolve > results/resolve.txt
	$(GO) run ./cmd/pnmsim -exp filter > results/filter.txt
	$(GO) run ./cmd/pnmsim -exp related > results/related.txt
	$(GO) run ./cmd/pnmsim -exp precision > results/precision.txt
	$(GO) run ./cmd/pnmsim -exp overhead > results/overhead.txt
	$(GO) run ./cmd/pnmsim -exp multisource > results/multisource.txt
	$(GO) run ./cmd/pnmsim -exp background > results/background.txt
	$(GO) run ./cmd/pnmsim -exp molepos > results/molepos.txt

# Regenerate results/ and fail if any committed file changed.
# resolve.txt reports wall-clock timings and is excluded.
figures-check: figures
	git diff --exit-code -- results ':(exclude)results/resolve.txt'

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/colluding
	$(GO) run ./examples/replaydefense
	$(GO) run ./examples/isolation
	$(GO) run ./examples/filtercompare
	$(GO) run ./examples/largenet

clean:
	rm -rf results
