//! Simulated smartphone BLE stacks and the beacon-app state machine.
//!
//! This crate reproduces the part of the paper that made the Android port
//! hard (Sections IV-C and V):
//!
//! * [`AndroidScanner`] — Android 4.x delivers **one RSSI sample per
//!   advertiser per scan cycle**, "differently from iOS where it is possible
//!   to get many measurements for each broadcast advertisement". With a 2 s
//!   scan period and a 30 Hz beacon, ten seconds of scanning yields five
//!   samples on Android versus ~300 on iOS — the paper's Section V example,
//!   reproduced verbatim by this crate's tests. The Android model also
//!   stalls whole cycles occasionally ("bugs in the software stack").
//! * [`IosScanner`] — the iOS comparison stack: every received packet is
//!   reported.
//! * [`app`] — the Fig 3 application: Boot Handler → Background Service →
//!   Monitoring Service → Ranging Service.
//! * [`simulate_receptions`] / [`run_scan`] — drive a receiver through the
//!   radio channel and group what it hears into scan cycles.
//!
//! # Examples
//!
//! ```
//! use roomsense_stack::{AndroidScanner, IosScanner, ScannerModel};
//! # use roomsense_stack::Reception;
//! // The structural difference between the two stacks:
//! assert_eq!(AndroidScanner::default().name(), "android-4.x");
//! assert_eq!(IosScanner.name(), "ios");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
mod driver;
mod fault;
mod scanner;

pub use driver::{
    run_scan, run_scan_into, simulate_receptions, simulate_receptions_into, CycleSpan,
    PlacedAdvertiser, RadioScratch, ScanCycleReport,
};
pub use fault::FaultyScanner;
pub use scanner::{
    AndroidLScanner, AndroidScanner, IosScanner, Reception, RestartWindows, ScanConfig, ScanSample,
    ScanScratch, ScannerModel,
};
