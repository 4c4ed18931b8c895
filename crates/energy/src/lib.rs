//! Mobile-device energy modelling (paper Section VII).
//!
//! The paper measures its app's battery impact on a Galaxy S3 Mini with a
//! background battery logger and finds: the Wi-Fi uplink architecture is
//! expensive, the Bluetooth relay saves ~15 %, and total battery life with
//! the app is around 10 hours. We reproduce those numbers with a
//! power-state ledger:
//!
//! * [`PowerProfile`] — per-component power draws (CPU, BLE scan, Wi-Fi
//!   idle/active/tail, BT connection) for a device model.
//! * [`UsageTimeline`] — what the device did: how long it ran, how long the
//!   BLE scanner was on, and every uplink radio burst
//!   ([`TransportEvent`](roomsense_net::TransportEvent)).
//! * [`account`] — prices a timeline into an [`EnergyLedger`] (energy per
//!   component).
//! * [`Battery`] — drains the ledger from a real battery and produces the
//!   Fig 10 battery-percent-vs-time trace.
//! * [`gate_timeline`] — the paper's *future work* accelerometer gating
//!   ("use the accelerometer to detect if the user is moving to enable the
//!   iBeacon sensing and transmitting"), implemented for the
//!   `ablate_accel_gate` bench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod battery;
mod gating;
mod ledger;
mod profile;

pub use battery::{Battery, BatteryTracePoint};
pub use gating::{gate_timeline, MotionIntervals};
pub use ledger::{account, ComponentKind, EnergyLedger, UsageTimeline};
pub use profile::{PowerProfile, UplinkArchitecture};
