//! Deterministic, allocation-light telemetry for the roomsense workspace.
//!
//! Every layer of the pipeline — radio, scanner stack, signal filters, the
//! uplink transports, the BMS server, the energy ledger — reports through one
//! mechanism: a [`Recorder`] holding counters, gauges, fixed-bucket
//! [`Histogram`]s and a bounded structured [`TelemetryEvent`] journal. The
//! paper's headline numbers (sample-loss rates of the buggy Android 4.x
//! stack, per-channel energy cost of Figs 8–10) become queryable metrics
//! instead of ad-hoc per-experiment return structs.
//!
//! Two properties are load-bearing:
//!
//! 1. **Recording never draws randomness.** A recorder can be threaded
//!    through any existing simulation without perturbing its RNG streams, so
//!    all previously published checksums stay bit-identical.
//! 2. **Merging is deterministic.** Parallel fan-outs give every task its own
//!    child recorder and merge them post-join in *index order* (see
//!    [`Recorder::merge_child`]), so a snapshot is byte-identical at any
//!    `ROOMSENSE_THREADS` setting.
//!
//! # Examples
//!
//! ```
//! use roomsense_telemetry::{keys, Recorder};
//!
//! let mut rec = Recorder::new();
//! rec.incr(keys::SCAN_STALLS);
//! rec.observe(keys::NET_TX_BURST_MS, 450.0);
//! assert_eq!(rec.counter(keys::SCAN_STALLS), 1);
//! assert!(rec.prometheus_text().contains("roomsense_scan_stalls 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod recorder;

pub use event::{TelemetryEvent, TransportEvent, TransportKind};
pub use recorder::{keys, Histogram, MetricKey, Recorder};
