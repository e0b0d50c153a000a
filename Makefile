.PHONY: all build test test-par fmt loc unreached check solvers-smoke perfbench-selfcheck bench-telemetry bench-scaling bench-json bench-counters bench-smoke kron-smoke bench-kron bench-env bench-ladder serve-smoke replica-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# The Cdr_par suite on a multi-domain pool: CDR_JOBS=4 makes the default
# pool size 4 even on single-core CI hosts, so the determinism assertions
# (jobs=1 vs jobs=4 bitwise) and the obs hammers really cross domains.
test-par:
	CDR_JOBS=4 dune exec test/test_par.exe

fmt:
	dune build @fmt

# Line count of the OCaml sources under lib/ and bin/ (.ml and .mli): the
# size figure CHANGES.md entries and the ROADMAP's code-size gate quote.
loc:
	@find lib bin \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l

# Fails when a module under lib/ has no caller outside tests: its qualified
# name appears in no lib/, bin/, bench/, perfbench/ or examples/ source
# other than its own files.
unreached:
	bash scripts/unreached.sh

# Everything CI needs: the build, formatting (dune files; ocamlformat is not
# required), the unreached-module check, the full test suite, the parallel
# suite under a forced multi-domain pool, the solvers listing, the bench
# counters, the kron smoke, the stdio serving smoke (every request kind,
# deadline, overload, SIGTERM drain), the multi-replica serving smoke
# (routing, worker kill/respawn, result-cache persistence) and the perfbench
# generator's self-check.
check: build fmt unreached test test-par solvers-smoke bench-counters kron-smoke serve-smoke replica-smoke perfbench-selfcheck

# The solver comparison at grid 16 (3,840 states, under a second): it must
# list exactly the three stationary solvers, multigrid, gauss-seidel and
# power, in that order, and each of them must converge.
solvers-smoke: build
	dune exec bin/cdr_analyze.exe -- solvers --grid 16 > /tmp/cdr_solvers.txt
	test "$$(awk 'NR > 2 { print $$1 }' /tmp/cdr_solvers.txt | paste -sd ' ')" = "multigrid gauss-seidel power"
	! grep -q 'NOT converged' /tmp/cdr_solvers.txt
	@echo "solvers smoke: multigrid, gauss-seidel and power rows, all converged"

# The perfbench request-stream generator's own tests (one stream per seed,
# the fixed per-workload plans, the excluded outlier requests): 11 stdlib
# Python tests, about 1 s.
perfbench-selfcheck:
	python3 perfbench/test_gen.py

# Quick end-to-end telemetry smoke: the solver-telemetry bench section with
# JSONL events streamed to a file.
bench-telemetry:
	CDR_OBS=jsonl:/tmp/cdr_bench_events.jsonl dune exec bench/main.exe -- telemetry

# Machine-readable benchmark summary: every performance section — the
# deterministic smoke counters, solver telemetry, domain-pool scaling
# (including the pooled V-cycle and its span coverage), warm-vs-cold
# continuation and the Bechamel kernel microbenches — with per-section wall
# times, metric counter deltas, gauge values (kernel ns/run, multigrid wall
# times, the MG-SCALING determinism gate) and the job count, written to
# BENCH.json (path overridable via CDR_BENCH_JSON).
bench-json:
	dune exec bench/main.exe -- smoke telemetry parallel scaling warm env kernels

# CI bench counters: the tiny deterministic smoke section alone (about
# 0.5 s). Counter deltas are exact integers, and so is the tiny chain's
# multigrid setup size (multigrid.setup_bytes: a return to a fatter setup
# layout moves it and fails here). bench.iad_one_coarse_cycle_ok is 1 when
# the kron IAD solve ran exactly one coarse V-cycle per outer cycle, so a
# return to nested coarse solves fails here too, and op_multigrid.row_passes
# is 1 when that solve enumerated the operator's rows once (into its entry
# table), so a return to per-cycle enumeration fails as well. No wall time
# is read.
bench-counters:
	CDR_BENCH_JSON=/tmp/bench_counters.json dune exec bench/main.exe -- smoke
	grep -q '"model.builds{via=direct}":1' /tmp/bench_counters.json
	grep -q '"model.solves{solver=multigrid}":3' /tmp/bench_counters.json
	grep -q '"model.rebuilds{pattern=reused}":1' /tmp/bench_counters.json
	grep -q '"solver_cache.hits":2' /tmp/bench_counters.json
	grep -q '"solver_cache.misses":1' /tmp/bench_counters.json
	grep -q '"multigrid.setup_bytes":517468' /tmp/bench_counters.json
	grep -q '"bench.iad_one_coarse_cycle_ok":1' /tmp/bench_counters.json
	grep -q '"op_multigrid.row_passes":1' /tmp/bench_counters.json
	@echo "bench counters: counter deltas, setup bytes, one coarse cycle per IAD cycle and one row pass per IAD solve as expected"

# CI bench smoke: bench-counters plus the MG-SCALING gate: the default-grid
# multigrid pi must be bitwise identical at jobs=1 and jobs=4
# (mg.bitwise_j4_ok). The section also records the wall ratio mg.speedup_j4,
# ungated: on a busy host the ratio of two walls moves with no code change.
bench-smoke: bench-counters
	CDR_BENCH_JSON=/tmp/bench.json dune exec bench/main.exe -- scaling
	grep -q '"mg.bitwise_j4_ok":1' /tmp/bench.json
	@echo "bench smoke: pi bitwise equal at jobs=1 and jobs=4"

# CI kron smoke: the matrix-free backend solving a 208,896-state chain that
# was never materialized, asserted structurally from the JSON (state count,
# finite residual at most a tenth of the uniform start's, non-negative
# stationary mass, the same bits under a jobs=2 pool — never wall times), then an
# end-to-end agreement check: cdr_analyze with --backend kron must print the
# same BER headline as --backend csr on the same config.
kron-smoke: build
	CDR_BENCH_JSON=/tmp/bench_kron_smoke.json dune exec bench/main.exe -- kron-smoke
	grep -q '"bench.kron_smoke_states":208896' /tmp/bench_kron_smoke.json
	grep -q '"bench.kron_smoke_ok":1' /tmp/bench_kron_smoke.json
	dune exec bin/cdr_analyze.exe -- analyze --grid 64 --backend kron | grep '^COUNTER' > /tmp/kron_ber.txt
	dune exec bin/cdr_analyze.exe -- analyze --grid 64 --backend csr | grep '^COUNTER' > /tmp/csr_ber.txt
	cmp /tmp/kron_ber.txt /tmp/csr_ber.txt
	@echo "kron smoke: matrix-free solve verified, backends agree"

# ENV-SCALING: 2- and 4-regime Markov-modulated environments composed with
# the CDR chain on the default grid (CSR/kron backend parity of the
# regime-weighted BER), plus the >=1e6-state composed rung through the
# matrix-free backend reporting regime-conditional densities. The section
# folds its assertions into the env.ladder_ok boolean gauge, so the guard
# greps a boolean, not floats or wall times.
bench-env:
	CDR_BENCH_JSON=/tmp/bench_env.json dune exec bench/main.exe -- env
	grep -q '"env.ladder_ok":1' /tmp/bench_env.json
	@echo "env ladder: backend parity and the 1e6-state composed rung as expected"

# The full KRON-SCALING ladder: build + apply cost and the avoided-CSR
# footprint at grids 256..2048 (up to ~2M states), plus a beyond-the-wall
# stationary solve at the first >=1e6-state rung. Takes minutes; gauges land
# in BENCH.json (path overridable via CDR_BENCH_JSON).
bench-kron:
	dune exec bench/main.exe -- kron

# The MG-LADDER: W-cycle multigrid solves on one model family at grids
# 128..1056 (65k to just past 1e6 reachable states), asserting near-grid-
# independent cycle counts (top rung within 2x of the bottom rung's).
# Takes minutes; gauges land in BENCH.json (path via CDR_BENCH_JSON).
bench-ladder:
	dune exec bench/main.exe -- ladder

# End-to-end serving smoke: a canned mixed JSONL session through cdr_serve's
# stdio mode (every request kind plus malformed input), then deterministic
# deadline-timeout, queue-overload and SIGTERM-drain checks. Assertions are
# structural (ids, error codes, cache-hit counters) — never wall times.
serve-smoke: build
	bash scripts/serve_smoke.sh

# Domain-pool scaling: sweep, SpMV and V-cycle wall times at jobs 1/2/4/8,
# each the median of 5 interleaved runs. On a single-core host expect
# speedup <= 1; the point there is the bit-identical column staying
# "identical". The V-cycle part forces span recording, attributes each run's
# wall to its multigrid.<stage> spans per level, and names the stage whose
# time grows most from jobs=1 to jobs=8.
bench-scaling:
	dune exec bench/main.exe -- parallel

# CI replica smoke: scripts/replica_smoke.sh — a mixed session through a
# 2-replica router with the shared result cache, a worker killed -9
# mid-session (respawn observed, zero hung requests, only structured
# internal/overloaded errors), and a persistence round-trip replaying a
# response byte-identically across a server restart.
replica-smoke: build
	bash scripts/replica_smoke.sh

clean:
	dune clean
