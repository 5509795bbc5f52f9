.PHONY: all build test check bench bench-json bench-vr-smoke bench-soa-smoke bench-graph-smoke bench-audit-smoke bench-serve-smoke bench-stream-smoke serve-smoke bench-compare experiment-vr examples csv clean lint-src check-fixtures audit-fixtures

all: build

build:
	dune build @all

test:
	dune runtest

# Tier-1 verification in one command.
check:
	dune build @all && dune runtest

# Grep-level lint over lib/ (polymorphic compare on floats etc.); see the
# script for the rules and the allow-comment escape hatch.
lint-src:
	sh scripts/lint_src.sh

# The static analyser over the shipped fixtures: good ones must be clean
# even under --strict, the deliberately-bad ones must exit 2, and the
# --json report must parse in both cases (guards the hand-rolled
# emitter).  `propagate` and `case` must also exit 2 on the malformed
# case file, not cmdliner's usage-error code, and report it as
# path:line:col (one loop checks both); `judge` and `stream` must do the
# same with a malformed --belief-file, and `stream --resume` with a
# snapshot that is missing or a directory (`confcase: PATH: reason`).
check-fixtures: build
	dune exec bin/confcase.exe -- check \
	  examples/shutdown.case examples/sis.belief --strict
	out=$$(dune exec bin/confcase.exe -- check \
	  examples/shutdown.case examples/sis.belief --json) && \
	  printf '%s' "$$out" | python3 -c "import json,sys; json.load(sys.stdin)"
	dune exec bin/confcase.exe -- check \
	  examples/bad_shutdown.case examples/bad_sis.belief; \
	  code=$$?; test "$$code" -eq 2
	out=$$(dune exec bin/confcase.exe -- check \
	  examples/bad_shutdown.case examples/bad_sis.belief --json); \
	  code=$$?; test "$$code" -eq 2 && \
	  printf '%s' "$$out" | python3 -c "import json,sys; json.load(sys.stdin)"
	for sub in propagate case; do \
	  err=$$(dune exec bin/confcase.exe -- $$sub examples/bad_shutdown.case \
	    2>&1 >/dev/null); code=$$?; test "$$code" -eq 2 && \
	  printf '%s' "$$err" | grep -q 'bad_shutdown.case:11:14: ' || exit 1; \
	done
	for sub in judge stream; do \
	  err=$$(dune exec bin/confcase.exe -- $$sub \
	    --belief-file examples/bad_sis.belief 2>&1 >/dev/null); \
	  code=$$?; test "$$code" -eq 2 && \
	  printf '%s' "$$err" | grep -q 'bad_sis.belief:8:1: ' || exit 1; \
	done
	for snap in examples/missing.snap examples; do \
	  err=$$(dune exec bin/confcase.exe -- stream --resume $$snap \
	    --events 1 2>&1 >/dev/null); code=$$?; test "$$code" -eq 2 && \
	  printf '%s' "$$err" | grep -q "confcase: $$snap: " || exit 1; \
	done

# The semantic audit over the shipped fixtures: the good case must stay
# clean under a reachable target even with --strict, the unattainable
# case must trip C013 (exit 2), and the --json report must parse and
# carry a source path on every diagnostic.
audit-fixtures: build
	dune exec bin/confcase.exe -- audit \
	  examples/shutdown.case --target 0.9 --strict
	dune exec bin/confcase.exe -- audit \
	  examples/unattainable.case --target 0.9; \
	  code=$$?; test "$$code" -eq 2
	out=$$(dune exec bin/confcase.exe -- audit \
	  examples/unattainable.case --target 0.9 --json); \
	  code=$$?; test "$$code" -eq 2 && \
	  printf '%s' "$$out" | python3 -c "import json,sys; \
	    r = json.load(sys.stdin); \
	    ds = [d for f in r['files'] for d in f['diagnostics']]; \
	    assert ds and all('file' in d for d in ds), 'diagnostic without file'; \
	    assert any(d['code'] == 'C013' for d in ds), 'C013 did not fire'"

# Regenerate every paper table/figure + ablations + Bechamel timings.
bench:
	dune exec bench/main.exe

# Timings + sequential-vs-parallel MC speedup rows + variance-reduction
# efficiency rows, written as JSON at the repo root (the perf trajectory
# across PRs: BENCH_1.json, BENCH_2.json, ...).
bench-json:
	dune exec bench/main.exe -- --json BENCH_9.json

# Fast variance-reduction rows only (the CI smoke step).
bench-vr-smoke:
	dune exec bench/main.exe -- --vr-smoke

# Micro rows only: exercises the column kernels (column quantile,
# mixture cum-column sampling, sketch add/merge/merge_into, batched RNG
# fill, snapshot save/load).
bench-soa-smoke:
	dune exec bench/main.exe -- --soa-smoke

# Graph rows only at depth 3 (~10^4 nodes): CSR build, full and DAG
# propagation, 1/2/4-domain bit-identity and the incremental edit storm.
# Exits non-zero only if determinism breaks; the ratios are informational.
bench-graph-smoke:
	dune exec bench/main.exe -- --graph-smoke

# Lint/audit rows at depth 3 plus the interval-soundness gate: the
# propagated root must lie inside the static bounds and point leaf
# bounds must reproduce propagation bitwise, under all four models.
bench-audit-smoke:
	dune exec bench/main.exe -- --audit-smoke

# Serve rows at depth 3: cold/memoised/incremental-edit request latency
# through the in-process engine, gating that memo hits and the last
# incremental edit are bit-identical to from-scratch evaluation.
bench-serve-smoke:
	dune exec bench/main.exe -- --serve-smoke

# Streaming rows at CI size (10^5-event columns, 5x10^4 assessors):
# column ingest throughput, serve-mode single-event ingest latency, the
# population Delphi, gating that streamed posteriors equal the batch
# update bitwise and parallel merge is identical across domain/chunk
# counts.
bench-stream-smoke:
	dune exec bench/main.exe -- --stream-smoke

# End-to-end pipe-mode daemon smoke: drive `confcase serve` over stdin/
# stdout with NDJSON requests and assert the memoised answer is
# bit-identical to the cold one, edits refresh incrementally, and the
# daemon exits cleanly on shutdown.
serve-smoke: build
	sh scripts/serve_smoke.sh

# Regenerate the samples-to-target-error comparison recorded in
# EXPERIMENTS.md (plain MC vs QMC vs importance sampling).
experiment-vr:
	dune exec bench/main.exe -- vr

# Diff the two newest BENCH_*.json on shared rows (informational; pass
# STRICT=1 to fail on a >20% regression).
bench-compare:
	python3 scripts/bench_compare.py $(if $(STRICT),--strict)

# Run every example end to end.
examples: build
	dune exec examples/quickstart.exe
	dune exec examples/sil_judgement.exe
	dune exec examples/claim_reduction.exe
	dune exec examples/delphi_panel.exe
	dune exec examples/operating_experience.exe
	dune exec examples/assurance_case.exe
	dune exec examples/risk_assessment.exe
	dune exec examples/regime_comparison.exe

# Export the raw figure series for external plotting.
csv:
	dune exec bin/confcase.exe -- figures --csv figures_csv

clean:
	dune clean
