//! `roomsense` — iBeacon-based indoor occupancy detection for smart
//! building management.
//!
//! A full-system reproduction of *"Occupancy Detection via iBeacon on
//! Android Devices for Smart Building Management"* (DATE 2015). The
//! subsystem crates provide the physics and the protocol; this crate wires
//! them into the paper's end-to-end pipeline:
//!
//! ```text
//! beacons ──BLE──> phone scanner ──cycles──> aggregation ──> EWMA tracks
//!    (radio sim)   (android/ios)              (signal)        (signal)
//!                                                                │
//!        BMS server <──wifi / bt-relay── observation reports <───┘
//!        (SVM scene analysis → occupancy table → HVAC control)
//! ```
//!
//! Key entry points:
//!
//! * [`Scenario`] — a floor plan instrumented with advertising beacons over
//!   a seeded radio channel.
//! * [`PipelineConfig`] / [`run_pipeline`] — drive one phone through the
//!   scenario and get per-scan-cycle smoothed beacon distances with ground
//!   truth attached; [`run_pipeline_faulted`] adds a [`FaultPlan`] and a
//!   telemetry recorder.
//! * [`run_fleet`] — every occupant's phone at once, under one
//!   [`FaultPlan`], merged into one chronological event stream.
//! * [`collect_dataset`] — the paper's data-collection phase: an operator
//!   walks every room and labels what the phone sees.
//! * [`OccupancyModel`] — scaler + one-vs-one RBF SVM + feature layout;
//!   implements [`roomsense_net::OccupancyEstimator`] so it plugs straight
//!   into the BMS server.
//! * [`experiments`] — the runners behind every figure in EXPERIMENTS.md.
//!
//! # Examples
//!
//! ```
//! use roomsense::{PipelineConfig, Scenario};
//! use roomsense_building::{mobility::StaticPosition, presets};
//! use roomsense_geom::Point;
//! use roomsense_sim::SimDuration;
//!
//! // Phone on a tripod 2 m from the corridor's west beacon for 30 s.
//! let scenario = Scenario::from_plan(presets::two_transmitter_corridor(), 42);
//! let config = PipelineConfig::paper_android();
//! let records = roomsense::run_pipeline(
//!     &scenario,
//!     &config,
//!     &StaticPosition::new(Point::new(2.5, 1.0)),
//!     SimDuration::from_secs(30),
//!     42,
//! );
//! assert_eq!(records.len(), 15); // 30 s of 2 s scan cycles
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app_run;
mod batch;
mod collect;
mod config;
pub mod crowd;
pub mod experiments;
mod fault;
mod fleet;
mod multifloor;
mod occupancy;
mod pipeline;
mod scenario;

pub use app_run::{run_app, AppRun};
pub use batch::{
    batch_alloc_stats, reset_batch_alloc_stats, run_fleet, run_fleet_batched, BatchConfig,
};
use collect::MISSING_DISTANCE;
pub use collect::{collect_dataset, features_from_snapshots, LabelledDataset};
pub use config::{FilterKind, PipelineConfig, ScannerKind};
use crowd::CrowdTrace;
pub use fault::FaultPlan;
pub use fleet::FleetEvent;
use multifloor::MultiFloorScenario;
pub use occupancy::OccupancyModel;
use pipeline::CycleRecord;
pub use pipeline::{run_pipeline, run_pipeline_faulted};
pub use scenario::Scenario;
