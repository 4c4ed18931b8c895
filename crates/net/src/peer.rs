//! Phone→phone→BMS peer-relay mesh: the last-resort uplink.
//!
//! [`FailoverTransport`](crate::FailoverTransport) covers the paper's two
//! channels — Wi-Fi and the beacon's Bluetooth relay — but both ride the
//! *same building infrastructure*: an AP reboot or a relay-beacon power cut
//! can take the pair down together. The phones themselves are a third
//! network. [`PeerRelayTransport`] exploits it: when the device's own uplink
//! fails, the report hops phone-to-phone over BLE (each hop a recorded
//! radio burst) until it reaches a peer whose uplink still works, and exits to the
//! BMS from there. Hops are bounded, and reports that cannot get out at all
//! park in a bounded store-and-forward buffer, draining once any path
//! returns.
//!
//! Hops are recorded with the existing machinery:
//! [`TransportEvent`](roomsense_telemetry::TransportEvent)s of kind
//! [`TransportKind::PeerMesh`], a [`TelemetryEvent::Failover`] with the
//! mesh kind per relay, and the mesh's own `net.peer.*` counters. All of
//! it lands in the mesh's private recorder, which only this module's unit
//! tests read: no caller prices the hops through the energy model or
//! merges the counters into a fleet snapshot.

use crate::outbox::{Outbox, Policy};
use crate::transport::forward;
use crate::{Delivery, ObservationReport, Payload, SendOutcome, Transport, TransportKind};
use rand::Rng;
use roomsense_sim::{SimDuration, SimTime};
use roomsense_telemetry::{keys, Recorder, TelemetryEvent, TransportEvent};
use std::fmt;

/// Mesh geometry and reliability knobs for [`PeerRelayTransport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerRelayConfig {
    /// Phone-to-phone hops between this device and the nearest peer with a
    /// working exit uplink.
    pub hops_to_exit: u32,
    /// Hop-attempt budget per report: a relay may re-try failed hops until
    /// this many BLE connections have been burned.
    pub max_hops: u32,
    /// Probability one phone-to-phone BLE hop succeeds.
    pub hop_success: f64,
    /// Connection setup per hop (plus jitter) — phones are not paired in
    /// advance, so each hop pays a discovery + connect cost.
    pub hop_latency: SimDuration,
    /// Store-and-forward buffer size; the oldest report is evicted when a
    /// new one arrives at capacity.
    pub queue_capacity: usize,
}

impl Default for PeerRelayConfig {
    /// Two hops to the exit peer, a budget of four, 95 % per-hop success,
    /// 250 ms per connection, 32 parked reports.
    fn default() -> Self {
        PeerRelayConfig {
            hops_to_exit: 2,
            max_hops: 4,
            hop_success: 0.95,
            hop_latency: SimDuration::from_millis(250),
            queue_capacity: 32,
        }
    }
}

impl PeerRelayConfig {
    fn validate(&self) {
        assert!(self.hops_to_exit > 0, "hops_to_exit must be non-zero");
        assert!(
            self.hops_to_exit <= self.max_hops,
            "max_hops must cover hops_to_exit"
        );
        assert!(!self.hop_latency.is_zero(), "hop_latency must be non-zero");
        crate::transport::checked_probability(self.hop_success);
    }
}

/// Routes reports over the device's own uplink first, then over a
/// hop-count-bounded phone-to-phone BLE mesh to a peer's exit uplink, and
/// finally into a bounded store-and-forward buffer.
///
/// Routing per attempt:
///
/// * the `direct` uplink (typically a whole
///   [`FailoverTransport`](crate::FailoverTransport) stack) is tried first;
///   `Backpressured` does not walk the mesh — the server is shedding, and
///   flooding the mesh into the same server only deepens the overload.
/// * on a direct failure the report hops the mesh: each hop is a recorded
///   [`TransportKind::PeerMesh`] burst with its own success coin; after
///   [`hops_to_exit`](PeerRelayConfig::hops_to_exit) clean hops (within the
///   [`max_hops`](PeerRelayConfig::max_hops) budget) the report exits over
///   the peer's `exit` transport, delayed by the accumulated hop time.
/// * if neither path gets the report out (backpressure included), it parks
///   in the shared outbox's buffer: [`offer`](Self::offer) and
///   [`flush`](Self::flush) retry a parked report once its capped
///   exponential backoff with full jitter has run out. The first step is
///   the airtime of one full failed walk,
///   [`hop_latency`](PeerRelayConfig::hop_latency) ×
///   [`max_hops`](PeerRelayConfig::max_hops), so a long outage costs each
///   report a few failed walks, not one per call.
///
/// Every burst of either uplink is forwarded into the mesh's own recorder,
/// next to the hops; only this module's unit tests read that recorder.
///
/// # Examples
///
/// ```
/// use roomsense_net::{BtRelayTransport, PeerRelayConfig, PeerRelayTransport, WifiTransport};
///
/// let mesh = PeerRelayTransport::new(
///     WifiTransport::default(),
///     BtRelayTransport::default(),
///     PeerRelayConfig::default(),
/// );
/// assert_eq!(mesh.pending(), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PeerRelayTransport<D, X> {
    path: MeshPath<D, X>,
    outbox: Outbox,
    parked: u64,
}

/// One end-to-end attempt — direct uplink, then the mesh walk — with no
/// buffering: the transport the mesh's outbox sends through.
#[derive(Debug, Clone, PartialEq)]
struct MeshPath<D, X> {
    direct: D,
    exit: X,
    config: PeerRelayConfig,
    telemetry: Recorder,
    relayed: u64,
}

impl<D: Transport, X: Transport> Transport for MeshPath<D, X> {
    /// Tries the direct uplink; on a failure, walks the mesh: burns hop
    /// attempts until `hops_to_exit` succeed or the budget runs out, then
    /// exits over the peer uplink after the accumulated hop time.
    fn transmit<R: Rng + ?Sized>(
        &mut self,
        at: SimTime,
        payload: Payload<'_>,
        rng: &mut R,
    ) -> SendOutcome {
        let outcome = forward(&mut self.telemetry, &mut self.direct, at, payload, rng);
        // Server-side backpressure is not a path failure: the uplink carried
        // the attempt and the server shed it. Relaying the same report into
        // the same server over the mesh would only deepen the overload.
        if outcome.is_delivered() || outcome.is_backpressured() {
            return outcome;
        }
        let mut clean_hops = 0u32;
        let mut attempts = 0u32;
        let mut hop_start = at;
        while clean_hops < self.config.hops_to_exit {
            if attempts == self.config.max_hops {
                self.telemetry.observe(keys::NET_PEER_HOPS, attempts as f64);
                return SendOutcome::Failed;
            }
            attempts += 1;
            let active = self.config.hop_latency + SimDuration::from_millis(rng.gen_range(0..100));
            let delivered = rng.gen::<f64>() < self.config.hop_success;
            self.telemetry.record_send(TransportEvent {
                kind: TransportKind::PeerMesh,
                start: hop_start,
                active,
                delivered,
            });
            hop_start += active;
            if delivered {
                clean_hops += 1;
            }
        }
        self.telemetry.observe(keys::NET_PEER_HOPS, attempts as f64);
        self.telemetry.record_event(TelemetryEvent::Failover {
            at,
            kind: TransportKind::PeerMesh,
        });
        let outcome = forward(&mut self.telemetry, &mut self.exit, hop_start, payload, rng);
        if outcome.is_delivered() {
            let k = payload.reports().len() as u64;
            self.relayed += k;
            self.telemetry.add(keys::NET_PEER_RELAYED, k);
        }
        outcome
    }

    fn telemetry(&self) -> &Recorder {
        &self.telemetry
    }

    fn telemetry_mut(&mut self) -> &mut Recorder {
        &mut self.telemetry
    }

    /// The channel regular (non-relayed) traffic uses.
    fn kind(&self) -> TransportKind {
        self.direct.kind()
    }
}

impl<D: Transport, X: Transport> PeerRelayTransport<D, X> {
    /// Wires the device's own uplink and the exit peer's uplink into one
    /// mesh path.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero hops, a budget
    /// below the exit distance, a probability outside `[0, 1]`, a zero hop
    /// latency, a zero buffer).
    pub fn new(direct: D, exit: X, config: PeerRelayConfig) -> Self {
        config.validate();
        PeerRelayTransport {
            path: MeshPath {
                direct,
                exit,
                config,
                telemetry: Recorder::new(),
                relayed: 0,
            },
            outbox: Outbox::new(
                Policy::Mesh {
                    base: config.hop_latency * u64::from(config.max_hops),
                },
                config.queue_capacity,
            ),
            parked: 0,
        }
    }

    /// Reports the mesh carried to the exit peer's uplink.
    pub fn relayed(&self) -> u64 {
        self.path.relayed
    }

    /// Reports currently parked in the store-and-forward buffer.
    pub fn pending(&self) -> usize {
        self.outbox.pending()
    }

    /// Retries every parked report whose backoff has run out over the full
    /// direct-then-mesh path; returns the ones that got through. Reports
    /// that still cannot exit stay parked (in order).
    pub fn flush<R: Rng + ?Sized>(&mut self, at: SimTime, rng: &mut R) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        self.outbox.flush(&mut self.path, at, rng, &mut deliveries);
        deliveries
    }

    /// Offers a new report: drains the due backlog first, then attempts
    /// this report once, parking it if neither the direct uplink nor the
    /// mesh can carry it. Returns everything that reached the server during
    /// this call (backlog first).
    pub fn offer<R: Rng + ?Sized>(
        &mut self,
        at: SimTime,
        report: ObservationReport,
        rng: &mut R,
    ) -> Vec<Delivery> {
        let mut deliveries = self.flush(at, rng);
        self.outbox.count_offered(&mut self.path.telemetry, 1);
        if self
            .outbox
            .send_new(&mut self.path, at, vec![report], rng, &mut deliveries)
        {
            self.parked += 1;
            self.path.telemetry.incr(keys::NET_PEER_QUEUED);
        }
        deliveries
    }
}

impl<D: Transport + fmt::Display, X: Transport + fmt::Display> fmt::Display
    for PeerRelayTransport<D, X>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "peer mesh over [{}] exiting via [{}] ({} relayed, {} parked, {} pending)",
            self.path.direct,
            self.path.exit,
            self.path.relayed,
            self.parked,
            self.pending()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BtRelayTransport, DeviceId, FailoverTransport, FaultyTransport, LinkHealthConfig,
        SightedBeacon, WifiTransport,
    };
    use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
    use roomsense_sim::{rng, FaultSchedule, FaultWindow};

    fn report(seq: u64, at: SimTime) -> ObservationReport {
        ObservationReport {
            device: DeviceId::new(1),
            seq,
            at,
            beacons: vec![SightedBeacon {
                identity: BeaconIdentity {
                    uuid: ProximityUuid::example(),
                    major: Major::new(1),
                    minor: Minor::new(0),
                },
                distance_m: 2.0,
            }],
        }
    }

    fn outage(from_s: u64, until_s: u64) -> FaultSchedule {
        FaultSchedule::new(vec![FaultWindow::new(
            SimTime::from_secs(from_s),
            SimTime::from_secs(until_s),
        )])
    }

    /// A stub server link that always answers with backpressure.
    #[derive(Debug)]
    struct SheddingTransport {
        telemetry: Recorder,
    }

    impl Transport for SheddingTransport {
        fn transmit<R: Rng + ?Sized>(
            &mut self,
            _at: SimTime,
            _payload: Payload<'_>,
            _rng: &mut R,
        ) -> SendOutcome {
            SendOutcome::Backpressured
        }

        fn telemetry(&self) -> &Recorder {
            &self.telemetry
        }

        fn telemetry_mut(&mut self) -> &mut Recorder {
            &mut self.telemetry
        }

        fn kind(&self) -> TransportKind {
            TransportKind::Wifi
        }
    }

    #[test]
    fn healthy_direct_uplink_never_touches_the_mesh() {
        let mut mesh = PeerRelayTransport::new(
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            PeerRelayConfig::default(),
        );
        let mut r = rng::for_component(40, "peer-healthy");
        for i in 0..50u64 {
            let at = SimTime::from_secs(i * 10);
            assert_eq!(mesh.offer(at, report(i, at), &mut r).len(), 1);
        }
        assert_eq!(mesh.relayed(), 0);
        assert_eq!(mesh.pending(), 0);
        assert_eq!(mesh.path.telemetry.counter(keys::NET_TX_ATTEMPTS_PEER), 0);
    }

    #[test]
    fn dual_uplink_outage_delivers_over_the_mesh() {
        // The device's own Wi-Fi AND Bluetooth relay share one outage
        // window — the failover router alone cannot save the reports. The
        // exit peer (a phone near a different AP) stays healthy, so every
        // report inside the window hops the mesh out.
        let direct = FailoverTransport::new(
            FaultyTransport::new(
                WifiTransport::new(1.0, SimDuration::from_millis(50)),
                outage(60, 600),
            ),
            FaultyTransport::new(
                BtRelayTransport::new(1.0, SimDuration::from_millis(400)),
                outage(60, 600),
            ),
            LinkHealthConfig::default(),
        );
        let exit = WifiTransport::new(1.0, SimDuration::from_millis(50));
        let mut mesh = PeerRelayTransport::new(
            direct,
            exit,
            PeerRelayConfig {
                hop_success: 1.0,
                ..PeerRelayConfig::default()
            },
        );
        let mut r = rng::for_component(41, "peer-dual-outage");
        let mut delivered = 0usize;
        for i in 0..120u64 {
            let at = SimTime::from_secs(i * 10);
            delivered += mesh.offer(at, report(i, at), &mut r).len();
        }
        assert_eq!(delivered, 120, "no report may be lost to the dual outage");
        assert!(mesh.relayed() > 30, "relayed {}", mesh.relayed());
        assert_eq!(mesh.pending(), 0);
        // Each relay walked exactly hops_to_exit perfect hops.
        assert_eq!(
            mesh.path.telemetry.counter(keys::NET_TX_ATTEMPTS_PEER),
            mesh.relayed() * u64::from(mesh.path.config.hops_to_exit)
        );
        // Counters mirror the accessors; relays journalled mesh failovers.
        assert_eq!(
            mesh.path.telemetry.counter(keys::NET_PEER_RELAYED),
            mesh.relayed()
        );
        let mesh_failovers = mesh
            .path
            .telemetry
            .journal()
            .filter(|e| {
                matches!(
                    e,
                    TelemetryEvent::Failover {
                        kind: TransportKind::PeerMesh,
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(mesh_failovers, mesh.relayed());
        // Both the direct radios and the mesh hops show up in the merged
        // burst log.
        let kinds: std::collections::BTreeSet<String> = mesh
            .path
            .telemetry
            .transport_events()
            .iter()
            .map(|e| e.kind.to_string())
            .collect();
        assert!(kinds.contains("peer-mesh"), "kinds {kinds:?}");
        assert!(kinds.contains("wifi"), "kinds {kinds:?}");
    }

    #[test]
    fn relay_arrival_pays_the_accumulated_hop_time() {
        let mut mesh = PeerRelayTransport::new(
            FaultyTransport::new(
                WifiTransport::new(1.0, SimDuration::from_millis(50)),
                outage(0, 1_000_000),
            ),
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            PeerRelayConfig {
                hops_to_exit: 3,
                max_hops: 3,
                hop_success: 1.0,
                ..PeerRelayConfig::default()
            },
        );
        let mut r = rng::for_component(42, "peer-latency");
        let at = SimTime::from_secs(5);
        let deliveries = mesh.offer(at, report(0, at), &mut r);
        assert_eq!(deliveries.len(), 1, "expected delivery");
        // Three hops at >= 250 ms each must delay the exit send.
        let arrived = deliveries[0].at;
        assert!(
            arrived >= at + SimDuration::from_millis(750),
            "arrived {arrived:?}"
        );
    }

    #[test]
    fn exhausted_hop_budget_parks_the_report_and_flush_drains_it() {
        // Direct uplink dead for [0 s, 300 s); mesh hops never succeed, so
        // reports park. After the outage the direct link carries the
        // backlog out as each report's backoff runs out.
        let mut mesh = PeerRelayTransport::new(
            FaultyTransport::new(
                WifiTransport::new(1.0, SimDuration::from_millis(50)),
                outage(0, 300),
            ),
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            PeerRelayConfig {
                hop_success: 0.0,
                ..PeerRelayConfig::default()
            },
        );
        let mut r = rng::for_component(43, "peer-park");
        let mut arrived = Vec::new();
        for i in 0..40u64 {
            let at = SimTime::from_secs(i * 10);
            for delivery in mesh.offer(at, report(i, at), &mut r) {
                arrived.push(delivery.report.seq);
            }
        }
        assert_eq!(mesh.relayed(), 0);
        assert_eq!(mesh.pending(), 0, "backlog must drain after the outage");
        assert!(mesh.parked >= 29, "parked {}", mesh.parked);
        // Every report got through exactly once (in-outage ones late).
        arrived.sort_unstable();
        assert_eq!(arrived, (0..40).collect::<Vec<_>>());
        // The failed mesh walks burned their whole hop budget each time.
        assert!(
            mesh.path.telemetry.counter(keys::NET_TX_ATTEMPTS_PEER)
                >= mesh.parked * u64::from(mesh.path.config.max_hops)
        );
        assert_eq!(
            mesh.path.telemetry.counter(keys::NET_PEER_QUEUED),
            mesh.parked
        );
        // Retrying every parked report on every call burned 2365 bursts
        // here, 1860 of them hops; backoff keeps the outage under half that.
        let bursts = mesh.path.telemetry.transport_events().len();
        assert!(bursts < 1200, "{bursts} bursts");
    }

    #[test]
    fn full_buffer_evicts_the_oldest_report() {
        let mut mesh = PeerRelayTransport::new(
            FaultyTransport::new(
                WifiTransport::new(1.0, SimDuration::from_millis(50)),
                outage(0, 1_000_000),
            ),
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            PeerRelayConfig {
                hop_success: 0.0,
                queue_capacity: 4,
                ..PeerRelayConfig::default()
            },
        );
        let mut r = rng::for_component(44, "peer-evict");
        for i in 0..10u64 {
            let at = SimTime::from_secs(i);
            assert!(mesh.offer(at, report(i, at), &mut r).is_empty());
        }
        assert_eq!(mesh.pending(), 4);
        assert_eq!(mesh.outbox.dropped, 6);
        assert_eq!(mesh.path.telemetry.counter(keys::NET_PEER_DROPPED), 6);
        // The freshest observations survive.
        assert_eq!(
            mesh.outbox
                .buffered_reports()
                .map(|q| q.seq)
                .collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn backpressure_parks_without_relaying() {
        // A shed report must not flood the mesh into the same overloaded
        // server: no hop is burned, and the report parks instead of being
        // lost.
        let mut mesh = PeerRelayTransport::new(
            SheddingTransport {
                telemetry: Recorder::new(),
            },
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            PeerRelayConfig::default(),
        );
        let mut r = rng::for_component(45, "peer-shed");
        let at = SimTime::from_secs(1);
        assert!(mesh.offer(at, report(0, at), &mut r).is_empty());
        assert_eq!(mesh.pending(), 1, "a shed report parks");
        assert_eq!(mesh.parked, 1);
        assert_eq!(mesh.relayed(), 0, "a shed report must not hit the mesh");
        assert_eq!(mesh.path.telemetry.counter(keys::NET_TX_ATTEMPTS_PEER), 0);
    }

    #[test]
    fn mesh_forwards_every_burst_of_a_failing_over_direct_uplink() {
        // The direct router's Wi-Fi is in an outage: its refused probe
        // burst and the BT failover burst are both radio activity, so the
        // mesh's merged recorder must price both, not only the last.
        let direct = FailoverTransport::new(
            FaultyTransport::new(
                WifiTransport::new(1.0, SimDuration::from_millis(50)),
                outage(0, 1_000),
            ),
            BtRelayTransport::new(1.0, SimDuration::from_millis(400)),
            LinkHealthConfig::default(),
        );
        let mut mesh = PeerRelayTransport::new(
            direct,
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            PeerRelayConfig::default(),
        );
        let mut r = rng::for_component(46, "peer-forward");
        let at = SimTime::from_secs(1);
        assert_eq!(mesh.offer(at, report(0, at), &mut r).len(), 1);
        assert_eq!(
            mesh.path.direct.telemetry().counter(keys::NET_TX_ATTEMPTS),
            2
        );
        assert_eq!(mesh.path.telemetry.counter(keys::NET_TX_ATTEMPTS), 2);
        assert_eq!(
            mesh.path.telemetry.transport_events(),
            mesh.path.direct.telemetry().transport_events()
        );
    }

    #[test]
    #[should_panic(expected = "hop_latency must be non-zero")]
    fn zero_hop_latency_panics() {
        let _ = PeerRelayTransport::new(
            WifiTransport::default(),
            WifiTransport::default(),
            PeerRelayConfig {
                hop_latency: SimDuration::ZERO,
                ..PeerRelayConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "max_hops must cover hops_to_exit")]
    fn hop_budget_below_exit_distance_panics() {
        let _ = PeerRelayTransport::new(
            WifiTransport::default(),
            WifiTransport::default(),
            PeerRelayConfig {
                hops_to_exit: 5,
                max_hops: 3,
                ..PeerRelayConfig::default()
            },
        );
    }
}
