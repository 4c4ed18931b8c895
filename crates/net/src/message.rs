//! The observation report: what a phone tells the BMS.

use roomsense_ibeacon::BeaconIdentity;
use roomsense_sim::SimTime;
use std::fmt;

/// Identifies one occupant device (phone) to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(u32);

impl DeviceId {
    /// Creates a device id.
    pub const fn new(value: u32) -> Self {
        DeviceId(value)
    }

    /// The raw value.
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device#{}", self.0)
    }
}

/// One beacon sighting inside a report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SightedBeacon {
    /// Which beacon was seen.
    pub identity: BeaconIdentity,
    /// Smoothed distance estimate, in metres.
    pub distance_m: f64,
}

/// The message a phone sends the server after each ranging cycle: "the list
/// of all the beacons detected at a certain instant and their respective
/// distances" (paper Section VI).
///
/// Every report carries a per-device monotone sequence number so the
/// store-and-forward uplink can match acknowledgements unambiguously and the
/// server can discard retransmitted duplicates: two distinct reports from the
/// same device never share a `seq`, even if their ranging cycles ended at the
/// same instant.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationReport {
    /// Reporting device.
    pub device: DeviceId,
    /// Per-device monotone sequence number, assigned at report creation.
    pub seq: u64,
    /// When the ranging cycle ended.
    pub at: SimTime,
    /// The sighted beacons.
    pub beacons: Vec<SightedBeacon>,
}

/// Per-report framing header: device id + sequence number + timestamp.
const REPORT_HEADER_BYTES: usize = 4 + 8 + 8;
/// Per-beacon payload: uuid + major + minor + f64 distance.
const PER_BEACON_BYTES: usize = 16 + 2 + 2 + 8;
/// Shared envelope of a coalesced batch: report count + framing.
const BATCH_ENVELOPE_BYTES: usize = 4;

impl ObservationReport {
    /// Serialized size in bytes, for transport air-time modelling: a fixed
    /// header (device id + sequence number + timestamp) plus per-beacon
    /// identity and distance.
    pub(crate) fn wire_size_bytes(&self) -> usize {
        REPORT_HEADER_BYTES + self.beacons.len() * PER_BEACON_BYTES
    }
}

/// Serialized size of several reports coalesced into **one** radio burst:
/// a single shared batch envelope plus each report's header and beacons.
/// Smaller than the sum of the individual frames' transport overheads, and
/// — more importantly for energy — carried by a single burst instead of
/// `k` separate wakes.
pub(crate) fn batched_wire_size_bytes(reports: &[ObservationReport]) -> usize {
    BATCH_ENVELOPE_BYTES
        + reports
            .iter()
            .map(ObservationReport::wire_size_bytes)
            .sum::<usize>()
}

impl fmt::Display for ObservationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} seq#{} @ {}: {} beacons",
            self.device,
            self.seq,
            self.at,
            self.beacons.len()
        )
    }
}

/// Hands out per-device monotone sequence numbers for outgoing reports.
///
/// One stamper lives on the device side of the uplink; every report created
/// through [`SequenceStamper::next`] gets the next `seq` for its device. The
/// counter never repeats or goes backwards, which is what makes the
/// `(device, seq)` pair a safe dedup and ack-matching key downstream.
///
/// # Examples
///
/// ```
/// use roomsense_net::{DeviceId, SequenceStamper};
///
/// let mut stamper = SequenceStamper::new();
/// let d = DeviceId::new(7);
/// assert_eq!(stamper.next(d), 0);
/// assert_eq!(stamper.next(d), 1);
/// assert_eq!(stamper.next(DeviceId::new(8)), 0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct SequenceStamper {
    next: std::collections::BTreeMap<DeviceId, u64>,
}

impl SequenceStamper {
    /// Creates a stamper with all device counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next sequence number for `device` and advances its counter.
    pub fn next(&mut self, device: DeviceId) -> u64 {
        let counter = self.next.entry(device).or_insert(0);
        let seq = *counter;
        *counter += 1;
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_ibeacon::{Major, Minor, ProximityUuid};

    fn report(n: usize) -> ObservationReport {
        ObservationReport {
            device: DeviceId::new(1),
            seq: 0,
            at: SimTime::from_secs(2),
            beacons: (0..n)
                .map(|i| SightedBeacon {
                    identity: BeaconIdentity {
                        uuid: ProximityUuid::example(),
                        major: Major::new(1),
                        minor: Minor::new(i as u16),
                    },
                    distance_m: 2.0,
                })
                .collect(),
        }
    }

    #[test]
    fn wire_size_grows_with_beacons() {
        assert_eq!(report(0).wire_size_bytes(), 20);
        assert_eq!(report(2).wire_size_bytes(), 20 + 2 * 28);
    }

    #[test]
    fn batched_wire_size_shares_one_envelope() {
        assert_eq!(batched_wire_size_bytes(&[]), 4);
        let batch = vec![report(2), report(0), report(1)];
        let bodies: usize = batch.iter().map(ObservationReport::wire_size_bytes).sum();
        assert_eq!(batched_wire_size_bytes(&batch), 4 + bodies);
    }

    #[test]
    fn display_mentions_device_and_count() {
        let text = report(3).to_string();
        assert!(text.contains("device#1") && text.contains("3 beacons"));
        assert!(text.contains("seq#0"));
    }

    #[test]
    fn stamper_is_monotone_per_device() {
        let mut stamper = SequenceStamper::new();
        let a = DeviceId::new(1);
        let b = DeviceId::new(2);
        assert_eq!(stamper.next(a), 0);
        assert_eq!(stamper.next(a), 1);
        assert_eq!(stamper.next(b), 0);
        assert_eq!(stamper.next(a), 2);
    }
}
