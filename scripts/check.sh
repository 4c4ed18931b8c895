#!/usr/bin/env bash
# Full pre-merge gate: release build, every test, a warning-free clippy
# pass, and a warning-free doc build over the whole workspace. The build
# environment has no crate registry, so everything runs --offline against
# the in-tree shims.
#
# Tests run twice: once pinned to a single worker (the pure sequential
# paths) and once at the default parallelism, so a scheduling-dependent
# bug cannot hide behind whichever mode the CI host happens to pick.
# Every system arm in the experiments ARMS table (tracking through
# positioning) must assert its own invariants and produce the same
# fingerprint checksum under a single worker and under the default
# parallelism. The full single-worker `repro all` text must match the
# committed repro_output.txt, so every figure and checksum is pinned.
# Finally one traced perfbench run checks the benchmark's own gates, and the
# benchmark package runs its self-tests.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
ROOMSENSE_THREADS=1 cargo test -q --offline --workspace
cargo test -q --offline --workspace
# One full pass under background disk chaos: every SimDisk consults the
# seeded ROOMSENSE_DISK_FAULTS plan (torn tails, short writes, bit rot,
# fsync lies), so the archive's never-silently-wrong contract is exercised
# by the whole suite, not just the fault-injection tests.
ROOMSENSE_DISK_FAULTS=1 cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps -q

# Determinism gate: every system arm in the ARMS table prints a unified
# "  <name> checksum: <hex> (threads: N)" line after asserting its own
# invariants (occupancy accuracy, memory bounds, zero silent loss, MAE
# bounds for the counting presets, ...). A violated invariant exits
# non-zero before the checksum comparison runs; here we additionally
# require each arm's fingerprint checksum to be identical under a single
# worker and under the default parallelism.
arm_sum() {
    sed -n "s/.*  $1 checksum: \([0-9a-f]*\).*/\1/p"
}
for arm in tracking scaling floors faults chaos telemetry scale overload archive counting positioning; do
    seq_sum=$(ROOMSENSE_THREADS=1 ./target/release/repro "$arm" | arm_sum "$arm")
    par_sum=$(env -u ROOMSENSE_THREADS ./target/release/repro "$arm" | arm_sum "$arm")
    if [ -z "$seq_sum" ] || [ "$seq_sum" != "$par_sum" ]; then
        echo "check.sh: $arm arm diverged across thread counts ('$seq_sum' vs '$par_sum')" >&2
        exit 1
    fi
    echo "$arm fingerprint checksum $seq_sum identical at threads=1 and default"
done

# Figure gate: the single-worker `repro all` text is byte-identical to the
# committed repro_output.txt. Only the `timings:` lines (wall-clock) may
# differ; any other change to a figure, table or checksum fails here, so
# regenerate the file deliberately when a change is meant to move numbers.
if ! diff <(grep -v 'timings:' repro_output.txt) \
    <(ROOMSENSE_THREADS=1 ./target/release/repro all 2>/dev/null | grep -v 'timings:'); then
    echo "check.sh: repro all differs from repro_output.txt beyond timings: lines" >&2
    exit 1
fi
echo "repro all matches repro_output.txt (timings: lines ignored)"

# Benchmark gate: one short traced office_e2e run of the repository
# benchmark (BENCHMARK.json), from the repo root. perfbench exits non-zero
# when the layer-by-layer pipeline differs from the batched fleet or the
# served state differs from its single-thread oracle digest.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload office_e2e --seed 1 --seconds 1 --trace 1 > /dev/null
echo "perfbench office_e2e traced run passed its layer and oracle-digest gates"

# The benchmark package's own self-tests (it is not a workspace member, so
# the workspace test runs above never reach them).
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
echo "perfbench self-tests passed"

echo "check.sh: build + tests (threads=1, default, disk-chaos) + clippy + doc + all 11 system arms + repro_output.txt + perfbench gates and self-tests green"
