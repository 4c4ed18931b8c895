#!/usr/bin/env bash
# Full pre-merge gate: rustfmt check, release build, every example run end to end with its
# output diffed against examples_output.txt, every test, a warning-free
# clippy pass, and a warning-free doc build over the whole workspace. The
# build environment has no crate registry, so everything runs --offline
# against the in-tree shims.
#
# Tests run twice: once pinned to a single worker (the pure sequential
# paths) and once at the default parallelism, so a scheduling-dependent
# bug cannot hide behind whichever mode the CI host happens to pick.
# The full `repro all` text — every paper figure, and every system arm in
# the experiments ARMS table (tracking through ablation, 12 arms) asserting
# its own invariants and printing its fingerprint checksum — must match the
# committed repro_output.txt under a single worker and again under the
# default parallelism, so every figure and checksum is pinned and
# thread-invariant.
# Finally traced perfbench runs (office_e2e and surge_ingest on two seeds
# each, history_reads on one) check the benchmark's own gates, and the
# benchmark package runs its self-tests.
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting first: it is the cheapest step, and the workspace is kept
# rustfmt-clean so every later diff is measured on formatted code.
# (perfbench is its own package, not a workspace member, so --all does not
# reach it.)
cargo fmt --all -- --check

cargo build --release --offline --workspace
# Every example end to end in release (each runs in well under a second);
# a panic or non-zero exit fails the gate. Their stdout, each example under
# an "== <name>" header, must be byte-identical to the committed
# examples_output.txt under a single worker and again under the default
# parallelism, so every printed figure is pinned and thread-invariant.
cargo build --release --offline --examples
run_examples() {
    for example in examples/*.rs; do
        name="$(basename "$example" .rs)"
        echo "== $name"
        ./target/release/examples/"$name"
    done
}
examples_out=$(mktemp)
trap 'rm -f "$examples_out"' EXIT
ROOMSENSE_THREADS=1 run_examples > "$examples_out"
if ! diff examples_output.txt "$examples_out"; then
    echo "check.sh: examples at threads=1 differ from examples_output.txt" >&2
    exit 1
fi
(unset ROOMSENSE_THREADS; run_examples) > "$examples_out"
if ! diff examples_output.txt "$examples_out"; then
    echo "check.sh: examples at default threads differ from examples_output.txt" >&2
    exit 1
fi
echo "every example ran to completion and matches examples_output.txt at threads=1 and default"
ROOMSENSE_THREADS=1 cargo test -q --offline --workspace
cargo test -q --offline --workspace
# One full pass under background disk chaos: every SimDisk consults the
# seeded ROOMSENSE_DISK_FAULTS plan (torn tails, short writes, bit rot,
# fsync lies), so the archive's never-silently-wrong contract is exercised
# by the whole suite, not just the fault-injection tests.
ROOMSENSE_DISK_FAULTS=1 cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps -q

# Figure and determinism gate: `repro all` regenerates every figure and
# table and runs every system arm in the ARMS table; each arm asserts its
# own invariants (occupancy accuracy, memory bounds, zero silent loss, MAE
# bounds for the counting presets, the ablation orderings, ...) and exits
# non-zero when one fails, then prints a "  <name> checksum: <hex>
# (threads: N)" line. No arm prints wall-clock figures, so every line is
# compared. Each run is written to a file first, so a non-zero exit fails
# here. The single-worker text must be byte-identical to the committed
# repro_output.txt; the default-parallelism text must match it too once the
# "(threads: N)" suffixes are dropped. Both runs equal one file, so every
# figure and every arm checksum is thread-invariant.
# Regenerate the file deliberately when a change is meant to move numbers.
repro_out=$(mktemp)
trap 'rm -f "$examples_out" "$repro_out"' EXIT
ROOMSENSE_THREADS=1 ./target/release/repro all 2>/dev/null > "$repro_out"
if ! diff repro_output.txt "$repro_out"; then
    echo "check.sh: repro all at threads=1 differs from repro_output.txt" >&2
    exit 1
fi
echo "repro all at threads=1 matches repro_output.txt"
without_threads() {
    sed 's/ (threads: [0-9]*)$//' "$1"
}
env -u ROOMSENSE_THREADS ./target/release/repro all 2>/dev/null > "$repro_out"
if ! diff <(without_threads repro_output.txt) <(without_threads "$repro_out"); then
    echo "check.sh: repro all at default threads differs from repro_output.txt beyond thread counts" >&2
    exit 1
fi
echo "repro all at default threads matches repro_output.txt (thread counts ignored)"

# Every perfbench command runs --locked: perfbench/Cargo.lock belongs to
# the benchmark and only a change to the benchmark itself may rewrite it,
# so a dependency edit that would touch it fails here instead of silently
# editing a benchmark file.
#
# Benchmark gate: short traced office_e2e runs of the repository benchmark
# (BENCHMARK.json) on two seeds, from the repo root. The fleet's radio
# evaluates only the packets the Android scanner keeps (the first
# reception per beacon per restart window) and replays the draws of the
# rest; perfbench rebuilds every phone from the public full radio plus
# scanner and exits non-zero unless each phone's tracks match the fleet's
# bit for bit, or when the served state differs from its single-thread
# oracle digest.
for seed in 1 2; do
    cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload office_e2e --seed "$seed" --seconds 1 --trace 1 > /dev/null
done
echo "perfbench office_e2e traced runs (seeds 1, 2) passed their layer and oracle-digest gates"

# The same for the server write path: short traced surge_ingest runs on two
# seeds. perfbench exits non-zero when the ingest tier's state digest
# differs from its single-thread oracle, when backpressure refused no
# report, or when the crowd-count MAE exceeds the preset bound, so the
# archive spill path that retention drives under this burst (per-device
# slots, frames appended by file handle) is gated on both seeds too.
for seed in 1 2; do
    cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload surge_ingest --seed "$seed" --seconds 1 --trace 1 > /dev/null
done
echo "perfbench surge_ingest traced runs (seeds 1, 2) passed their oracle-digest, refusal and MAE gates"

# The same for the archive read path: one short traced history_reads run.
# It is the only workload whose answers to occupancy_at_checked and
# reports_between are compared against an unbounded reference server;
# perfbench exits non-zero when one disagrees, when the tier's state digest
# differs from its single-thread oracle, or when the crowd-count MAE
# exceeds the preset bound.
cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload history_reads --seed 1 --seconds 1 --trace 1 > /dev/null
echo "perfbench history_reads traced run passed its reference-answer, oracle-digest and MAE gates"

# The benchmark package's own self-tests (it is not a workspace member, so
# the workspace test runs above never reach them).
cargo test -q --release --offline --locked --manifest-path perfbench/Cargo.toml
echo "perfbench self-tests passed"

echo "check.sh: fmt + build + examples (examples_output.txt at threads=1 and default) + tests (threads=1, default, disk-chaos) + clippy + doc + repro_output.txt at threads=1 and default (all figures, all 12 system arms) + perfbench office_e2e/surge_ingest/history_reads gates and self-tests green"

# The Rust line count every simplicity change quotes, measured one way.
# Reported only; it gates nothing.
echo "rust lines: $(find crates src tests examples shims -name '*.rs' | xargs cat | wc -l)"
