//! The iBeacon protocol: packets, regions, monitoring, ranging.
//!
//! iBeacon is a tiny profile on top of BLE advertising (paper Section III):
//! a transmitter broadcasts a 30-byte advertising payload carrying a 16-byte
//! *proximity UUID*, a 2-byte *major*, a 2-byte *minor* and a 1-byte
//! *measured power* (the expected RSSI at one metre). A receiver can
//!
//! * **monitor** regions — get enter/exit callbacks when beacons matching a
//!   `(uuid, major?, minor?)` pattern appear or disappear
//!   ([`RegionMonitor`]), and
//! * **range** beacons — estimate the distance to each sighted beacon from
//!   the received signal strength and the measured-power field
//!   ([`estimate_distance_log`]).
//!
//! This crate is pure protocol: byte-level encoding/decoding
//! ([`Packet::encode`] / [`Packet::decode`]), pattern matching
//! ([`Region::matches`]), the monitoring state machine and the ranging math.
//! Radio propagation lives in `roomsense-radio`; phone scanning behaviour in
//! `roomsense-stack`.
//!
//! # Examples
//!
//! ```
//! use roomsense_ibeacon::{Major, Minor, MeasuredPower, Packet, ProximityUuid, Region};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let uuid: ProximityUuid = "f7826da6-4fa2-4e98-8024-bc5b71e0893e".parse()?;
//! let packet = Packet::new(uuid, Major::new(1), Minor::new(7), MeasuredPower::new(-59));
//!
//! // Round-trips through the 30-byte advertising payload:
//! let bytes = packet.encode();
//! assert_eq!(Packet::decode(&bytes)?, packet);
//!
//! // Region matching with wildcards:
//! let building = Region::with_uuid(uuid);
//! let floor_one = Region::with_major(uuid, Major::new(1));
//! assert!(building.matches(&packet.identity()));
//! assert!(floor_one.matches(&packet.identity()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibration;
mod monitor;
mod packet;
mod ranging;
mod region;
mod uuid;

pub use calibration::Calibrator;
pub use monitor::{MonitorEvent, RegionMonitor, RegionMonitorConfig};
pub use packet::{BeaconIdentity, Major, MeasuredPower, Minor, Packet};
pub use ranging::{estimate_distance_log, RangingConfig};
pub use region::{Region, RegionId};
pub use uuid::ProximityUuid;
