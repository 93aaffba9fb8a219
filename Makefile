GO ?= go
FUZZTIME ?= 30s

.PHONY: all check fmt vet build test bench bench-go examples fuzz

all: check

# check is the tier-1 gate: formatting, vet, build, tests.
check: fmt vet build test

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench measures simulator throughput on the baseline workload set at
# every optimization level and writes BENCH.json. BENCHARGS narrows or
# extends the sweep, e.g. BENCHARGS="-bench mesa,epic_e -benchtime 50ms".
BENCHARGS ?=
bench:
	$(GO) run ./cmd/experiments -exp bench -benchout BENCH.json $(BENCHARGS)

# bench-go compiles and runs every go-test benchmark once (the
# paper-table regeneration benchmarks; CI smoke).
bench-go:
	$(GO) test -bench=. -benchtime=1x ./...

# fuzz runs each fuzz target for a short budget: generated programs
# must match the interpreter oracle at every optimization level, clean
# and under injected faults; arbitrary persisted cache entries must load
# or be quarantined, never panic or serve under a wrong key.
fuzz:
	$(GO) test -fuzz=FuzzDifferential -fuzztime=$(FUZZTIME) -run '^$$' ./internal/difftest
	$(GO) test -fuzz=FuzzDiskLoad -fuzztime=$(FUZZTIME) -run '^$$' ./internal/serve

examples:
	@for d in examples/*/; do \
		echo "== $$d =="; $(GO) run ./$$d || exit 1; \
	done
