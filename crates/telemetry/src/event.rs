//! Structured telemetry events: the one journal every subsystem writes to.

use roomsense_sim::{SimDuration, SimTime};
use std::fmt;

/// Which physical channel carried (or tried to carry) a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// HTTP over the phone's Wi-Fi adapter.
    Wifi,
    /// Bluetooth connection to the room's beacon transmitter, relayed.
    BluetoothRelay,
    /// Phone-to-phone Bluetooth hop through the peer mesh, exiting over a
    /// neighbouring device's uplink.
    PeerMesh,
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportKind::Wifi => f.write_str("wifi"),
            TransportKind::BluetoothRelay => f.write_str("bt-relay"),
            TransportKind::PeerMesh => f.write_str("peer-mesh"),
        }
    }
}

/// One radio activity burst caused by a send attempt — the unit the energy
/// model prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportEvent {
    /// Which radio was active.
    pub kind: TransportKind,
    /// When the burst started.
    pub start: SimTime,
    /// How long the radio was actively transmitting/connecting.
    pub active: SimDuration,
    /// Whether the report got through.
    pub delivered: bool,
}

/// One structured observation from somewhere in the pipeline.
///
/// Each variant corresponds to a behaviour the paper (or the fault layer
/// built on it) cares about: Android 4.x scan stalls, storm-dropped samples,
/// filter holds across loss, SVM decision margins, uplink bursts and their
/// retransmissions, failovers, server-side dedup hits and checkpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelemetryEvent {
    /// An Android 4.x scan window stalled and reported nothing until the
    /// periodic restart.
    ScanStall {
        /// Start of the stalled window.
        at: SimTime,
        /// Index of the window within its scan cycle.
        window: u64,
    },
    /// Receptions destroyed before the scanner saw them (fault storms).
    SampleDropped {
        /// Cycle start the drops occurred in.
        at: SimTime,
        /// How many receptions were lost in this cycle.
        count: u64,
    },
    /// A track filter held its last estimate across a missed observation.
    FilterHold {
        /// The cycle end that had no observation for the track.
        at: SimTime,
    },
    /// A track filter gave up and dropped (reset) its track.
    FilterReset {
        /// The cycle end at which the track was dropped.
        at: SimTime,
    },
    /// One SVM decision-function evaluation.
    SvmMargin {
        /// When the classified cycle ended.
        at: SimTime,
        /// Signed distance from the separating hyperplane.
        margin: f64,
    },
    /// A transport radio burst (send attempt).
    Send {
        /// The priced burst.
        event: TransportEvent,
    },
    /// A delivered report whose ack was lost, forcing a retransmission.
    Retransmit {
        /// When the retransmission was scheduled.
        at: SimTime,
        /// Sequence number of the duplicated report.
        seq: u64,
    },
    /// The failover router sent via the secondary channel.
    Failover {
        /// When the failover send happened.
        at: SimTime,
        /// The channel that carried the failover send.
        kind: TransportKind,
    },
    /// The BMS rejected a duplicate report.
    DedupHit {
        /// Reporting device (raw id).
        device: u32,
        /// Sequence number of the rejected duplicate.
        seq: u64,
    },
    /// The BMS took a durable checkpoint.
    Checkpoint {
        /// Reports stored at checkpoint time.
        reports: u64,
    },
}

impl TelemetryEvent {
    /// The event as one JSON line (no trailing newline).
    ///
    /// Hand-formatted so the output is deterministic and dependency-free;
    /// floats print with Rust's shortest-round-trip formatting.
    pub(crate) fn to_json(self) -> String {
        match self {
            TelemetryEvent::ScanStall { at, window } => format!(
                "{{\"event\":\"scan_stall\",\"at_ms\":{},\"window\":{window}}}",
                at.as_millis()
            ),
            TelemetryEvent::SampleDropped { at, count } => format!(
                "{{\"event\":\"sample_dropped\",\"at_ms\":{},\"count\":{count}}}",
                at.as_millis()
            ),
            TelemetryEvent::FilterHold { at } => {
                format!("{{\"event\":\"filter_hold\",\"at_ms\":{}}}", at.as_millis())
            }
            TelemetryEvent::FilterReset { at } => {
                format!("{{\"event\":\"filter_reset\",\"at_ms\":{}}}", at.as_millis())
            }
            TelemetryEvent::SvmMargin { at, margin } => format!(
                "{{\"event\":\"svm_margin\",\"at_ms\":{},\"margin\":{margin}}}",
                at.as_millis()
            ),
            TelemetryEvent::Send { event } => format!(
                "{{\"event\":\"send\",\"kind\":\"{}\",\"start_ms\":{},\"active_ms\":{},\"delivered\":{}}}",
                event.kind,
                event.start.as_millis(),
                event.active.as_millis(),
                event.delivered
            ),
            TelemetryEvent::Retransmit { at, seq } => format!(
                "{{\"event\":\"retransmit\",\"at_ms\":{},\"seq\":{seq}}}",
                at.as_millis()
            ),
            TelemetryEvent::Failover { at, kind } => format!(
                "{{\"event\":\"failover\",\"at_ms\":{},\"kind\":\"{kind}\"}}",
                at.as_millis()
            ),
            TelemetryEvent::DedupHit { device, seq } => {
                format!("{{\"event\":\"dedup_hit\",\"device\":{device},\"seq\":{seq}}}")
            }
            TelemetryEvent::Checkpoint { reports } => {
                format!("{{\"event\":\"checkpoint\",\"reports\":{reports}}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_display_as_stable_labels() {
        assert_eq!(TransportKind::Wifi.to_string(), "wifi");
        assert_eq!(TransportKind::BluetoothRelay.to_string(), "bt-relay");
        assert_eq!(TransportKind::PeerMesh.to_string(), "peer-mesh");
    }

    #[test]
    fn events_serialise_to_one_json_line() {
        let event = TelemetryEvent::Send {
            event: TransportEvent {
                kind: TransportKind::Wifi,
                start: SimTime::from_millis(1500),
                active: SimDuration::from_millis(73),
                delivered: true,
            },
        };
        assert_eq!(
            event.to_json(),
            "{\"event\":\"send\",\"kind\":\"wifi\",\"start_ms\":1500,\"active_ms\":73,\"delivered\":true}"
        );
        let hit = TelemetryEvent::DedupHit { device: 3, seq: 17 };
        assert_eq!(
            hit.to_json(),
            "{\"event\":\"dedup_hit\",\"device\":3,\"seq\":17}"
        );
        assert!(!hit.to_json().contains('\n'));
    }
}
