# Developer entry points. Everything below is plain `go` — the Makefile
# only names the invocations CI and reviewers should run.

GO ?= go

.PHONY: all build test vet race race-scalar bench benchjson fuzz smoke check clean

all: vet test

# check: the full pre-merge gate — build, vet, the whole test suite, and
# the race detector over every package with cross-goroutine mutable state.
check: build vet test race

build:
	$(GO) build ./...

# -timeout 10m: a hung cancellation path (leaked worker, wedged rank)
# fails the suite with a goroutine dump instead of stalling CI forever.
test: build
	$(GO) test -timeout 10m ./...

vet:
	$(GO) vet ./...

# race: the concurrency gate. Runs vet plus the race detector over every
# package of the module except the single-threaded simulators and models
# that scripts/race_pkgs.sh excludes by name — a new package is raced by
# default. The list covers the packed DGEMM fast path, the worker pool,
# the LU drivers, the offload engine, the message fabric and the
# fault-tolerant solver, the span recorder and metrics, the facade and
# the solve server with its journal.
race:
	$(GO) vet ./...
	pkgs=$$(sh scripts/race_pkgs.sh) && $(GO) test -race -timeout 10m $$pkgs

# smoke: end-to-end hplserver check — start the server, run an FP64, a
# native mixed, and a 2D-distributed mixed solve over HTTP, SIGTERM for
# a clean exit 0; then the crash-durability phase: SIGKILL a journaled
# server mid-job and require the restart to recover the cache and abort
# the interrupted job.
smoke:
	sh scripts/smoke_hplserver.sh

# bench: the packed-path vs reference comparison (GFLOPS + steady-state
# allocation counts).
bench:
	$(GO) test ./internal/blas -bench 'Dgemm|RankK' -benchmem -run xxx

# benchjson: the machine-readable benchmark record — DgemmPacked vs
# DgemmParallel at several sizes, the dynamic-DAG LU, the real 2D
# distributed HPL under each (look-ahead schedule, precision) pair —
# Hpl2D-<mode> FP64 rows plus Hpl2D-mixed-<mode> rows (FP32 block-cyclic
# factorization + FP64 refinement, speedup_vs_fp64 against the matching
# FP64 best; an always-falling-back system yields a FALLBACK verdict with
# the typed reason instead of aborting) — and the single-node HPL-MxP
# head-to-head, written to BENCH_<yyyymmdd>.json (GFLOPS, ns/op,
# allocs/op). Diff two files to see a regression as a number.
benchjson:
	$(GO) run ./cmd/benchjson

# fuzz: a short deep-fuzz of the FP64 and FP32 micro-kernel dispatchers
# against their scalar oracles (never panic, ulp envelope, no
# out-of-window writes, AVX-512 ≡ AVX2 bit for bit on AVX-512 hosts), the
# pack → micro-kernel → unpack chain, then the write-ahead journal's
# crash-recovery scanner (arbitrary bytes must never panic, and repair
# accounting must close exactly).
fuzz:
	$(GO) test ./internal/pack -run '^$$' -fuzz '^FuzzMicroKernel$$' -fuzztime 30s
	$(GO) test ./internal/pack -run '^$$' -fuzz '^FuzzMicroKernel32$$' -fuzztime 30s
	$(GO) test ./internal/blas -fuzz FuzzPackedGemm -fuzztime 30s
	$(GO) test ./internal/journal -fuzz FuzzJournalDecode -fuzztime 30s

# race-scalar: the race gate with the vector micro-kernels disabled — the
# portable-scalar oracle path under the race detector over the same
# package list, the leg CI's scalar-oracle job runs.
race-scalar:
	pkgs=$$(sh scripts/race_pkgs.sh) && PHIHPL_DISABLE_VECTOR_KERNEL=1 $(GO) test -race -timeout 10m $$pkgs

clean:
	$(GO) clean ./...
