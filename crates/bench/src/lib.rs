//! Shared helpers for the roomsense reproduction harness.
//!
//! The real content of this crate is its binary, `src/bin/repro.rs`, the
//! one harness that produces figures: it regenerates every paper figure as
//! text and runs every system arm of `roomsense::experiments::ARMS`, the
//! ablation studies listed in `DESIGN.md` included, each behind a checksum.
//! Wall-clock figures come from the repository benchmark (`perfbench/`).

/// The master seed every reproduction run uses (DATE 2015 started March 9).
pub const REPRO_SEED: u64 = 20150309;
