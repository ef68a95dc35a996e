#!/usr/bin/env bash
# Tier-1 verification: what every PR must keep green.
#
#   scripts/verify.sh            # build + tests + clippy + docs + deprecation gate + bench smoke
#   scripts/verify.sh --fast     # build + tests (root package and workspace) only
#
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

# Dependency gate: the workspace builds offline because it depends on
# nothing outside the repository. Any package with a non-null `source`
# (a registry or git crate) fails here.
echo "==> dependency gate (no third-party crates)"
cargo metadata --format-version 1 --offline \
    | python3 -c 'import json, sys
third = sorted(p["name"] for p in json.load(sys.stdin)["packages"] if p["source"] is not None)
if third:
    sys.exit("third-party packages in the workspace: " + ", ".join(third))'

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The root package above holds the integration suites; every crate's
# unit tests, the CLI's own tests and its stdout contracts
# (crates/core/tests/cli_json.rs) run only across the workspace.
echo "==> cargo test -q --workspace"
cargo test -q --workspace

if [[ "${1:-}" != "--fast" ]]; then
    echo "==> clippy"
    cargo clippy --workspace --all-targets -- -D warnings

    # Rustdoc must stay warning-free (broken intra-doc links, etc.).
    echo "==> rustdoc"
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

    # No internal caller may use a deprecated entrypoint: everything in
    # the workspace must compile with deprecation warnings promoted to
    # errors.
    echo "==> deprecation gate"
    env RUSTFLAGS="${RUSTFLAGS:-} -D deprecated" cargo check --workspace --all-targets --quiet

    # Resolution-engine bench, smoke-sized: asserts the flattened
    # sharded engine is bit-identical to the reference walk (the test
    # oracle in tests/support/walk.rs), gates the engine's telemetry
    # and trace overhead under 3%, and writes results/BENCH_resolve.json.
    echo "==> bench_resolve --smoke"
    cargo run --release -p viprof-bench --bin bench_resolve -- --smoke

    # Overload-governor gate, smoke-sized: a ring small enough to force
    # overflow; the governed run must drop strictly fewer samples than
    # fixed-rate sampling and keep its drop fraction under 5%. Writes
    # results/BENCH_overload.json.
    echo "==> bench_overload --smoke"
    cargo run --release -p viprof-bench --bin bench_overload -- --smoke

    # Live-resolution gate, smoke-sized: incremental epoch extension
    # must match (==) and not lose to per-drain re-flattening, and the
    # streaming engine's sealed snapshot must equal the batch report.
    # Writes results/BENCH_live.json.
    echo "==> bench_live --smoke"
    cargo run --release -p viprof-bench --bin bench_live -- --smoke

    # Telemetry self-check: a mini end-to-end session whose persisted
    # snapshot must parse, round-trip canonically, and reconcile.
    echo "==> telemetry export self-check"
    cargo test -q --test telemetry stopped_session_exports_round_trip_and_reconcile

    # Trace-determinism self-check: two fixed-seed sessions must export
    # byte-identical Chrome trace JSON, the resolve-pass trace must be
    # bit-identical across thread counts {1,4}, and every lineage
    # bucket must reconcile exactly with the resolution quality.
    echo "==> trace determinism self-check"
    cargo test -q --test telemetry fixed_seed_trace_is_deterministic_and_lineage_reconciles

    # Trace/lineage smoke: the engine tests that assert lineage totals
    # reconcile with quality, attribute losses to journaled batches,
    # and stay thread-invariant — plus the span-tree/round-trip
    # proptests. Named so tracing regressions fail loudly even when
    # someone filters the main test run.
    echo "==> trace lineage smoke"
    cargo test -q -p viprof lineage
    echo "==> trace proptests"
    cargo test -q --test prop_trace

    # Process-churn smoke: VM restarts, LIFO pid reuse and dead-
    # generation drops under injected faults must stay fully accounted
    # and replay bit-identically, and the 256-case isolation proptest
    # must hold (no sample ever resolves across an incarnation
    # boundary). Named here so churn regressions fail loudly even when
    # someone filters the main test run.
    echo "==> churn smoke"
    cargo test -q --test fault_matrix churn
    echo "==> churn isolation proptests"
    cargo test -q --test prop_churn

    # Differ self-check: the deterministic synthetic session must diff
    # to zero against itself, a perturbed seed must not, kind mixing
    # must be rejected, and the emitted baselines must match in-memory.
    echo "==> differ self-check"
    cargo test -q -p viprof --bin viprof same_seed_diffs_to_zero_and_perturbed_seed_does_not

    # Baseline gate: regenerating the committed fixed-seed baselines
    # must produce artifacts that diff to zero against results/ — any
    # timeline/telemetry determinism drift, schema drift, or synthetic-
    # session change fails here until the baselines are regenerated in
    # the same change (viprof diff --emit-baseline results/).
    echo "==> baseline drift check"
    BASELINE_TMP="$(mktemp -d)"
    cargo run --release -p viprof --bin viprof -- diff --emit-baseline "$BASELINE_TMP"
    for b in baseline_telemetry.json baseline_timeline.json; do
        cargo run --release -p viprof --bin viprof -- diff "results/$b" "$BASELINE_TMP/$b" \
            || { echo "==> $b drifted from results/ (regenerate with viprof diff --emit-baseline results/)"; exit 1; }
    done
    rm -rf "$BASELINE_TMP"

    # Timeline/health smoke: the telescoping/monotonicity/fixed-point
    # proptests plus the health-rule unit suite, and the governed-burst
    # timeline scenario in the fault matrix. Named so temporal-layer
    # regressions fail loudly even when someone filters the main run.
    echo "==> timeline proptests"
    cargo test -q --test prop_timeline
    echo "==> governed-burst timeline smoke"
    cargo test -q --test fault_matrix timeline

    # Telemetry-schema drift gate: the metric catalog must match the
    # reviewed golden list, so additions/removals fail until the golden
    # file is updated in the same change.
    echo "==> telemetry schema drift check"
    cargo run --release -p viprof --bin viprof -- stat --schema \
        | diff -u scripts/telemetry-schema.txt - \
        || { echo "==> telemetry schema drifted from scripts/telemetry-schema.txt"; exit 1; }

    # Public-API drift gate: the inventory of exported fn/struct names
    # must match the reviewed golden list — intentional surface changes
    # update scripts/api-surface.txt in the same change, accidental
    # ones fail here. (Names only, grep-derived: a cheap tripwire, not
    # a semver checker.)
    echo "==> public API surface drift check"
    grep -rhoE '^[[:space:]]*pub (fn|struct) [A-Za-z_][A-Za-z0-9_]*' \
            crates/*/src src --include='*.rs' \
        | sed -E 's/^[[:space:]]+//' | LC_ALL=C sort | uniq -c \
        | sed -E 's/^[[:space:]]+//' \
        | diff -u scripts/api-surface.txt - \
        || { echo "==> public API surface drifted from scripts/api-surface.txt"; exit 1; }
fi

echo "==> verify OK"
