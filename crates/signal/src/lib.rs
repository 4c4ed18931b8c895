//! Signal analysis: turning noisy per-cycle RSSI into stable distances.
//!
//! Paper Section V: raw Android distance estimates at a fixed 2 m fluctuate
//! wildly (Fig 4); lengthening the scan period helps (Fig 6) but costs
//! latency, so the paper adds a custom estimation algorithm with two parts:
//!
//! 1. **Loss holding** — "we remove the beacon information only after the
//!    second consecutive loss, otherwise its value is maintained"
//!    ([`EwmaFilter`]'s hold policy, [`LossPolicy`]).
//! 2. **Exponential smoothing** — `pᵢ = c·pᵢ₋₁ + (1−c)·vᵢ` with the tuned
//!    coefficient `c = 0.65` ([`PAPER_COEFFICIENT`]): "increasing the
//!    coefficient makes the signal more stable and less affected by peaks
//!    but … less responsive to movements."
//!
//! The crate also provides the aggregation step from raw scan cycles to
//! per-beacon distance observations ([`aggregate_cycle`]), alternative
//! filters for the ablation benches ([`KalmanFilter`], [`MedianFilter`]),
//! multi-beacon track management ([`TrackManager`]) and the
//! stability/responsiveness metrics used to tune the coefficient
//! ([`metrics`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod bayes;
mod ewma;
mod kalman;
mod median;
pub mod metrics;
mod tracks;

pub use aggregate::{
    aggregate_cycle, aggregate_cycle_into, AggregateMethod, AggregateScratch, Observation,
};
pub use bayes::BayesFilter;
pub use ewma::{DistanceFilter, EwmaFilter, LossPolicy, PAPER_COEFFICIENT};
pub use kalman::KalmanFilter;
pub use median::MedianFilter;
pub use tracks::{TrackManager, TrackSnapshot};
