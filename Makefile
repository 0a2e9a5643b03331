# Convenience targets for the pnm repository.

GO ?= go

# Worker goroutines for the run-parallel experiments; <= 0 selects
# GOMAXPROCS. Results are byte-identical for every value.
WORKERS ?= 0

.PHONY: all build test race vet lint bench bench-sink bench-fault bench-churn fuzz-smoke soak ci figures examples clean

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

# Regenerate the committed sink-cost document: the MAC engine
# micro-benchmark, the three resolvers on the interleaved stream, and the
# serial tracker and pipeline workers (W1-W8) on the keyed stream, with
# allocation columns and every sink counter per row. Verdict hashes and
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

# Regenerate the committed churn benchmark (E23): traceback under
# topology churn with epoch-versioned resolution. Fully deterministic
# apart from the two wall-clock columns; mole capture at every churn
# level, stale-resolver divergence on churned rows, and verdict-hash
# equality with a full-rebuild reference are all enforced at generation
# time.
bench-churn:
	$(GO) run ./cmd/pnmsim -exp benchchurn > BENCH_churn.json

# Short coverage-guided fuzzing over the trust boundary: the hardened
# packet decoder and the frame reader that feeds it untrusted socket
# bytes. Each harness runs FUZZTIME on top of its committed seed corpus.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReport$$' -fuzztime $(FUZZTIME) ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzFrame$$' -fuzztime $(FUZZTIME) ./internal/transport

# Live-server soak: pnmload-style replay into a pipelined ingest server
# over real sockets while a chaos plan crashes and restores the sink from
# its PNM2 checkpoint, all under the race detector.
soak:
	$(GO) test -race -run 'TestLoopbackSoak' -count 1 ./internal/transport

# What CI runs: build, vet, lint, the full test suite, the bench
# module's tests (pnm/bench sits outside ./...), and the race detector
# over the packages that exercise goroutines.
ci: build vet lint test
	$(GO) -C bench test ./...
	$(GO) test -race ./internal/netsim ./internal/mac ./internal/experiment ./internal/parallel ./internal/sink ./internal/obs ./internal/transport ./internal/loadgen

# Regenerate every paper figure/table into results/. Run-averaged
# experiments fan out across $(WORKERS) workers; output is byte-identical
# for any worker count.
figures:
	mkdir -p results
	$(GO) run ./cmd/pnmsim -exp fig4 > results/fig4.csv
	$(GO) run ./cmd/pnmsim -exp fig5 -workers $(WORKERS) > results/fig5.csv
	$(GO) run ./cmd/pnmsim -exp fig6 -workers $(WORKERS) > results/fig6.csv
	$(GO) run ./cmd/pnmsim -exp fig7 -workers $(WORKERS) > results/fig7.csv
	$(GO) run ./cmd/pnmsim -exp matrix -workers $(WORKERS) > results/matrix.txt
	$(GO) run ./cmd/pnmsim -exp headline -workers $(WORKERS) > results/headline.txt
	$(GO) run ./cmd/pnmsim -exp ablate -workers $(WORKERS) > results/ablate.txt
	$(GO) run ./cmd/pnmsim -exp resolve > results/resolve.txt
	$(GO) run ./cmd/pnmsim -exp filter -workers $(WORKERS) > results/filter.txt
	$(GO) run ./cmd/pnmsim -exp related -workers $(WORKERS) > results/related.txt
	$(GO) run ./cmd/pnmsim -exp precision -workers $(WORKERS) > results/precision.txt
	$(GO) run ./cmd/pnmsim -exp overhead -workers $(WORKERS) > results/overhead.txt
	$(GO) run ./cmd/pnmsim -exp multisource -workers $(WORKERS) > results/multisource.txt
	$(GO) run ./cmd/pnmsim -exp background -workers $(WORKERS) > results/background.txt
	$(GO) run ./cmd/pnmsim -exp dynamics -workers $(WORKERS) > results/dynamics.txt
	$(GO) run ./cmd/pnmsim -exp molepos -workers $(WORKERS) > results/molepos.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/colluding
	$(GO) run ./examples/replaydefense
	$(GO) run ./examples/isolation
	$(GO) run ./examples/filtercompare
	$(GO) run ./examples/largenet

clean:
	rm -rf results
