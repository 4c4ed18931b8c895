//! The two uplink channels and their reliability/latency/energy footprints.
//!
//! Every transport reports through an injected [`Recorder`]
//! ([`Transport::telemetry`]): each radio burst lands there as a
//! [`TelemetryEvent::Send`](roomsense_telemetry::TelemetryEvent::Send) plus
//! attempt/delivery counters, replacing the old per-transport
//! `Vec<TransportEvent>` logs. Decorators share the recorder rooted at the
//! transport they wrap, so a whole stack (queue → fault layer → failover →
//! radios) prices into one sink.

use crate::outbox::{Outbox, Policy};
use crate::{batched_wire_size_bytes, ObservationReport};
use rand::Rng;
use roomsense_sim::{SimDuration, SimTime};
use roomsense_telemetry::{keys, Recorder, TelemetryEvent};
use std::fmt;

pub use crate::outbox::Delivery;
pub use roomsense_telemetry::TransportEvent;
pub use roomsense_telemetry::TransportKind;

/// The result of one send attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The report reached the server at the given time.
    Delivered {
        /// Arrival time at the server.
        at: SimTime,
    },
    /// The attempt failed (radio error, relay connection refused).
    Failed,
    /// The link is in a scheduled outage: the channel refused the connection
    /// outright. Unlike [`Failed`](SendOutcome::Failed) (a stochastic loss
    /// that an immediate retry might win), a refusal is correlated — the
    /// link is *down* — so retry decorators short-circuit instead of burning
    /// their budget into a dead channel.
    Refused,
    /// The server is overloaded: its admission controller refused the
    /// report to protect a bounded mailbox. The link itself is healthy —
    /// the correct client response is to **queue and back off**, never to
    /// drop: queueing decorators park the report for a later attempt, and
    /// immediate-retry decorators short-circuit (hammering an overloaded
    /// server only deepens the overload).
    Backpressured,
}

impl SendOutcome {
    /// True when the report arrived.
    pub fn is_delivered(&self) -> bool {
        matches!(self, SendOutcome::Delivered { .. })
    }

    /// True when the server shed the attempt to protect itself (overload).
    pub(crate) fn is_backpressured(&self) -> bool {
        matches!(self, SendOutcome::Backpressured)
    }
}

/// What one send carries: a single report or a coalesced batch.
///
/// The payload is the one place that knows how a send is sized — one
/// report by `ObservationReport::wire_size_bytes`, a batch by
/// `batched_wire_size_bytes` (one shared envelope) — and that an empty
/// batch is no payload at all: `Payload::batch` refuses it, so
/// [`Transport::send_batch`] delivers it on the spot without a burst. A
/// coalesced batch rides **one** radio burst — the paper's Fig. 10 energy
/// lever (fewer wakes) applied at the transport layer — and is atomic: it
/// delivers wholly or not at all.
///
/// Kept public: it is the argument of the public [`Transport::transmit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Payload<'a> {
    reports: &'a [ObservationReport],
    coalesced: bool,
}

impl<'a> Payload<'a> {
    /// A single report.
    pub(crate) fn one(report: &'a ObservationReport) -> Self {
        Payload {
            reports: std::slice::from_ref(report),
            coalesced: false,
        }
    }

    /// A coalesced batch, or `None` when `reports` is empty.
    pub(crate) fn batch(reports: &'a [ObservationReport]) -> Option<Self> {
        (!reports.is_empty()).then_some(Payload {
            reports,
            coalesced: true,
        })
    }

    /// The reports carried (never empty).
    pub(crate) fn reports(&self) -> &'a [ObservationReport] {
        self.reports
    }

    /// The payload's serialized size on the wire.
    pub(crate) fn wire_size_bytes(&self) -> usize {
        if self.coalesced {
            batched_wire_size_bytes(self.reports)
        } else {
            self.reports[0].wire_size_bytes()
        }
    }
}

/// A channel that can carry observation reports to the server.
pub trait Transport {
    /// Attempts to carry `payload` at time `at`. Returns the outcome and
    /// records every radio burst into [`telemetry`](Self::telemetry).
    fn transmit<R: Rng + ?Sized>(
        &mut self,
        at: SimTime,
        payload: Payload<'_>,
        rng: &mut R,
    ) -> SendOutcome;

    /// Attempts to send one report at time `at`.
    fn send<R: Rng + ?Sized>(
        &mut self,
        at: SimTime,
        report: &ObservationReport,
        rng: &mut R,
    ) -> SendOutcome {
        self.transmit(at, Payload::one(report), rng)
    }

    /// Attempts to send several reports as **one** coalesced batch at `at`
    /// (see [`Payload`]); an empty batch is delivered without a burst.
    fn send_batch<R: Rng + ?Sized>(
        &mut self,
        at: SimTime,
        reports: &[ObservationReport],
        rng: &mut R,
    ) -> SendOutcome {
        Payload::batch(reports).map_or(SendOutcome::Delivered { at }, |payload| {
            self.transmit(at, payload, rng)
        })
    }

    /// The telemetry sink this transport records into. Decorators delegate
    /// to the transport they wrap, so an entire decorator stack exposes one
    /// recorder (the energy model prices its
    /// [`transport_events`](Recorder::transport_events)).
    fn telemetry(&self) -> &Recorder;

    /// Mutable access to the telemetry sink (decorators price probe bursts
    /// and mirror queue counters through this).
    fn telemetry_mut(&mut self) -> &mut Recorder;

    /// The channel this transport uses.
    fn kind(&self) -> TransportKind;

    /// Delivered / attempted bursts, derived from the recorder's counters
    /// (no event-log scan), or `None` when nothing was attempted yet. The
    /// distinction matters in fault sweeps: a link that was down the whole
    /// run (zero attempts) must not masquerade as a perfect one.
    fn delivery_rate(&self) -> Option<f64> {
        let attempts = self.telemetry().counter(keys::NET_TX_ATTEMPTS);
        if attempts == 0 {
            return None;
        }
        Some(self.telemetry().counter(keys::NET_TX_DELIVERED) as f64 / attempts as f64)
    }
}

/// Runs one [`transmit`](Transport::transmit) on `inner` and copies every
/// burst `inner` recorded during the call — none when it recorded none —
/// into `sink`. Routers that own a merged recorder (failover, the peer
/// mesh) forward their inner layers' bursts through this, so a layer that
/// retries or fails over underneath is priced burst for burst.
pub(crate) fn forward<T: Transport, R: Rng + ?Sized>(
    sink: &mut Recorder,
    inner: &mut T,
    at: SimTime,
    payload: Payload<'_>,
    rng: &mut R,
) -> SendOutcome {
    let before = inner.telemetry().counter(keys::NET_TX_ATTEMPTS);
    let outcome = inner.transmit(at, payload, rng);
    let fresh = (inner.telemetry().counter(keys::NET_TX_ATTEMPTS) - before) as usize;
    let mut bursts: Vec<TransportEvent> = inner
        .telemetry()
        .journal()
        .rev()
        .filter_map(|event| match event {
            TelemetryEvent::Send { event } => Some(*event),
            _ => None,
        })
        .take(fresh)
        .collect();
    while let Some(burst) = bursts.pop() {
        sink.record_send(burst);
    }
    outcome
}

/// The air-time shape of one burst on a direct uplink channel: setup
/// latency, plus `ms_per_100_bytes` of payload time, plus a uniform jitter
/// draw in `0..jitter_ms`.
struct Burst {
    kind: TransportKind,
    setup: SimDuration,
    ms_per_100_bytes: u64,
    jitter_ms: u64,
}

impl Burst {
    /// Sends one burst: one jitter draw, then one success coin against
    /// `success_probability`. The burst is recorded into `telemetry`
    /// whether or not it was delivered.
    fn send<R: Rng + ?Sized>(
        &self,
        success_probability: f64,
        telemetry: &mut Recorder,
        at: SimTime,
        payload: Payload<'_>,
        rng: &mut R,
    ) -> SendOutcome {
        let payload_ms = (payload.wire_size_bytes() as u64) * self.ms_per_100_bytes / 100;
        let jitter_ms = rng.gen_range(0..self.jitter_ms);
        let active = self.setup + SimDuration::from_millis(payload_ms + jitter_ms);
        let delivered = rng.gen::<f64>() < success_probability;
        telemetry.record_send(TransportEvent {
            kind: self.kind,
            start: at,
            active,
            delivered,
        });
        if delivered {
            SendOutcome::Delivered { at: at + active }
        } else {
            SendOutcome::Failed
        }
    }
}

/// Returns `p` after checking it is a probability.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub(crate) fn checked_probability(p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "probability must be in [0, 1] (got {p})"
    );
    p
}

/// The Wi-Fi HTTP uplink: fast and near-perfectly reliable, but the energy
/// model will charge for keeping the Wi-Fi adapter associated all day plus
/// a tail after every transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct WifiTransport {
    success_probability: f64,
    base_latency: SimDuration,
    telemetry: Recorder,
}

impl WifiTransport {
    /// Creates a Wi-Fi transport recording into a fresh [`Recorder`].
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]`.
    pub fn new(success_probability: f64, base_latency: SimDuration) -> Self {
        WifiTransport {
            success_probability: checked_probability(success_probability),
            base_latency,
            telemetry: Recorder::new(),
        }
    }
}

impl Default for WifiTransport {
    /// 99.5 % delivery, ~50 ms base latency — a healthy home WLAN.
    fn default() -> Self {
        WifiTransport::new(0.995, SimDuration::from_millis(50))
    }
}

impl Transport for WifiTransport {
    /// One HTTP POST per payload (a batch shares it): one jitter draw, one
    /// success coin.
    fn transmit<R: Rng + ?Sized>(
        &mut self,
        at: SimTime,
        payload: Payload<'_>,
        rng: &mut R,
    ) -> SendOutcome {
        // Air time: base latency + ~1 ms per 100 bytes of payload + jitter.
        let burst = Burst {
            kind: TransportKind::Wifi,
            setup: self.base_latency,
            ms_per_100_bytes: 1,
            jitter_ms: 30,
        };
        burst.send(
            self.success_probability,
            &mut self.telemetry,
            at,
            payload,
            rng,
        )
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

impl fmt::Display for WifiTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wifi transport (p={:.3}, {} sends)",
            self.success_probability,
            self.telemetry.counter(keys::NET_TX_ATTEMPTS)
        )
    }
}

/// The Bluetooth relay uplink: the phone opens a GATT connection to the
/// room's (mains-powered) beacon transmitter, which forwards the report.
/// Cheaper for the phone radio but slower to connect and "less stable than
/// the Wi-Fi solution due to bugs in the BLE Android API".
#[derive(Debug, Clone, PartialEq)]
pub struct BtRelayTransport {
    success_probability: f64,
    connect_latency: SimDuration,
    telemetry: Recorder,
}

impl BtRelayTransport {
    /// Creates a Bluetooth relay transport recording into a fresh
    /// [`Recorder`].
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]`.
    pub fn new(success_probability: f64, connect_latency: SimDuration) -> Self {
        BtRelayTransport {
            success_probability: checked_probability(success_probability),
            connect_latency,
            telemetry: Recorder::new(),
        }
    }
}

impl Default for BtRelayTransport {
    /// 90 % first-try delivery, ~400 ms connection setup — Android 4.x BLE.
    fn default() -> Self {
        BtRelayTransport::new(0.90, SimDuration::from_millis(400))
    }
}

impl Transport for BtRelayTransport {
    /// One GATT connection per payload: connection setup is paid once for a
    /// whole batch instead of per report — the dominant cost on this
    /// channel, so batching helps BLE even more than Wi-Fi.
    fn transmit<R: Rng + ?Sized>(
        &mut self,
        at: SimTime,
        payload: Payload<'_>,
        rng: &mut R,
    ) -> SendOutcome {
        // Connection setup dominates; payload is tiny at BLE rates
        // (~4 ms per 100 bytes) plus connection jitter. A failed attempt
        // still burns (most of) the connect time.
        let burst = Burst {
            kind: TransportKind::BluetoothRelay,
            setup: self.connect_latency,
            ms_per_100_bytes: 4,
            jitter_ms: 200,
        };
        burst.send(
            self.success_probability,
            &mut self.telemetry,
            at,
            payload,
            rng,
        )
    }

    fn telemetry(&self) -> &Recorder {
        &self.telemetry
    }

    fn telemetry_mut(&mut self) -> &mut Recorder {
        &mut self.telemetry
    }

    fn kind(&self) -> TransportKind {
        TransportKind::BluetoothRelay
    }
}

impl fmt::Display for BtRelayTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bt-relay transport (p={:.2}, {} sends)",
            self.success_probability,
            self.telemetry.counter(keys::NET_TX_ATTEMPTS)
        )
    }
}

/// A decorator that retries failed sends immediately, up to a limit.
///
/// The paper observes the Bluetooth channel is "less stable than the Wi-Fi
/// solution due to bugs in the BLE Android API"; the pragmatic fix is to
/// retry. Each attempt burns its own radio burst (recorded in the inner
/// transport's telemetry), so the energy model automatically prices the
/// reliability gain. A batch retries as a unit: each attempt is one
/// coalesced burst.
#[derive(Debug, Clone, PartialEq)]
pub struct Retrying<T> {
    inner: T,
    max_retries: u32,
}

impl<T: Transport> Retrying<T> {
    /// Wraps `inner`, retrying each failed send up to `max_retries` extra
    /// times.
    pub fn new(inner: T, max_retries: u32) -> Self {
        Retrying { inner, max_retries }
    }
}

impl<T: Transport> Transport for Retrying<T> {
    fn transmit<R: Rng + ?Sized>(
        &mut self,
        at: SimTime,
        payload: Payload<'_>,
        rng: &mut R,
    ) -> SendOutcome {
        let mut attempt_at = at;
        for _ in 0..=self.max_retries {
            match self.inner.transmit(attempt_at, payload, rng) {
                SendOutcome::Delivered { at } => return SendOutcome::Delivered { at },
                // A refusal means the link is in a correlated outage: every
                // remaining immediate retry would be refused too, so stop
                // after the first instead of burning the budget into probe
                // bursts. Backpressure is correlated the same way — and an
                // immediate retry would *worsen* the overload that caused
                // it — so it short-circuits too; the caller's queueing
                // layer owns the backoff. Stochastic failures keep the
                // full retry budget.
                SendOutcome::Refused => return SendOutcome::Refused,
                SendOutcome::Backpressured => return SendOutcome::Backpressured,
                SendOutcome::Failed => {
                    // The retry starts after the failed attempt's burst.
                    let burst = self
                        .inner
                        .telemetry()
                        .last_transport_event()
                        .map(|e| e.active)
                        .unwrap_or(SimDuration::ZERO);
                    attempt_at += burst;
                }
            }
        }
        SendOutcome::Failed
    }

    fn telemetry(&self) -> &Recorder {
        self.inner.telemetry()
    }

    fn telemetry_mut(&mut self) -> &mut Recorder {
        self.inner.telemetry_mut()
    }

    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }
}

impl<T: Transport + fmt::Display> fmt::Display for Retrying<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} with {} retries", self.inner, self.max_retries)
    }
}

/// Store-and-forward resilience: failed reports wait in a bounded buffer
/// and are retried with exponential backoff (plus jitter) on later calls.
///
/// Where [`Retrying`] burns its whole retry budget *immediately* — which is
/// hopeless against a correlated outage measured in minutes — this layer
/// holds reports across the outage and drains them once the link returns.
/// It is the one-report-per-entry policy over the shared outbox (see
/// DESIGN.md, "Delivery semantics"). Every actual radio burst still lands
/// in the wrapped transport's recorder, so the energy model automatically
/// prices the resilience; the queue also mirrors its own counters
/// (`net.queue.*`) and journals a [`TelemetryEvent::Retransmit`] per lost
/// ack.
///
/// When the buffer is full the *oldest* queued report is dropped (the
/// freshest observation is the most valuable to the BMS).
///
/// # Examples
///
/// ```
/// use roomsense_net::{BtRelayTransport, QueueingTransport};
/// use roomsense_sim::SimDuration;
///
/// let transport = QueueingTransport::new(
///     BtRelayTransport::default(),
///     32,
///     SimDuration::from_secs(2),
/// );
/// assert_eq!(transport.pending(), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QueueingTransport<T> {
    inner: T,
    outbox: Outbox,
}

impl<T: Transport> QueueingTransport<T> {
    /// Wraps `inner` with a buffer of `capacity` reports and the given base
    /// backoff (doubled per failed attempt, capped at 64× the base,
    /// jittered).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or the backoff is zero.
    pub fn new(inner: T, capacity: usize, base_backoff: SimDuration) -> Self {
        QueueingTransport {
            inner,
            outbox: Outbox::new(Policy::Queue { base: base_backoff }, capacity),
        }
    }

    /// Models a lossy acknowledgement channel: with probability `ack_loss`,
    /// a delivered report's ack never comes back, so the sender re-enqueues
    /// the report and retransmits it later. The server therefore sees the
    /// report **at least once** — possibly several times — which is exactly
    /// the duplicate stream [`ShardedBmsServer::ingest`](crate::ShardedBmsServer::ingest)
    /// must dedup. Zero (the default) disables the knob and leaves the
    /// transport's behaviour bit-for-bit unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]`.
    pub fn with_ack_loss(mut self, ack_loss: f64) -> Self {
        self.outbox.set_ack_loss(ack_loss);
        self
    }

    /// The wrapped transport's recorder, which the queue's counters share.
    pub fn telemetry(&self) -> &Recorder {
        self.inner.telemetry()
    }

    /// Reports currently waiting in the buffer.
    pub fn pending(&self) -> usize {
        self.outbox.pending()
    }

    /// Reports offered via [`offer`](Self::offer).
    pub fn offered(&self) -> u64 {
        self.outbox.offered
    }

    /// Offered reports that eventually got through.
    pub fn delivered_reports(&self) -> u64 {
        self.outbox.delivered
    }

    /// Reports evicted from a full buffer.
    pub fn dropped(&self) -> u64 {
        self.outbox.dropped
    }

    /// Deliveries whose ack was lost, forcing a retransmission (only
    /// non-zero when [`with_ack_loss`](Self::with_ack_loss) is set).
    pub fn retransmits(&self) -> u64 {
        self.outbox.retransmits
    }

    /// End-to-end *report* delivery rate: delivered / offered, or `None`
    /// before any report was offered. Distinct from
    /// [`delivery_rate`](Transport::delivery_rate), which counts radio
    /// bursts (a report delivered on its third attempt counts once here but
    /// three times there).
    pub fn report_delivery_rate(&self) -> Option<f64> {
        let offered = self.outbox.offered;
        (offered > 0).then(|| self.outbox.delivered as f64 / offered as f64)
    }

    /// Retries every queued report whose backoff has expired by `at`;
    /// returns the ones that got through.
    pub fn flush<R: Rng + ?Sized>(&mut self, at: SimTime, rng: &mut R) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        self.outbox.flush(&mut self.inner, at, rng, &mut deliveries);
        deliveries
    }

    /// Offers a new report: first drains due queue entries, then attempts
    /// this report once, queueing it on failure. An overloaded server
    /// (`Backpressured`) queues exactly like a bad link: the report parks
    /// with exponential backoff, so the client naturally thins its arrival
    /// rate until the server's mailboxes drain. Returns everything that
    /// reached the server during this call (queued backlog first).
    pub fn offer<R: Rng + ?Sized>(
        &mut self,
        at: SimTime,
        report: ObservationReport,
        rng: &mut R,
    ) -> Vec<Delivery> {
        let mut deliveries = self.flush(at, rng);
        self.outbox.count_offered(self.inner.telemetry_mut(), 1);
        self.outbox
            .send_new(&mut self.inner, at, vec![report], rng, &mut deliveries);
        deliveries
    }
}

impl<T: Transport + fmt::Display> fmt::Display for QueueingTransport<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} queueing (cap {}, {} pending, {} dropped)",
            self.inner,
            self.outbox.capacity,
            self.outbox.pending(),
            self.outbox.dropped
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{DeviceId, SightedBeacon};
    use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
    use roomsense_sim::rng;

    fn report() -> ObservationReport {
        ObservationReport {
            device: DeviceId::new(1),
            seq: 0,
            at: SimTime::from_secs(2),
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

    #[test]
    fn wifi_is_more_reliable_than_bt() {
        let mut wifi = WifiTransport::default();
        let mut bt = BtRelayTransport::default();
        let mut r = rng::for_component(1, "transport");
        for i in 0..2000 {
            let at = SimTime::from_secs(i);
            wifi.send(at, &report(), &mut r);
            bt.send(at, &report(), &mut r);
        }
        let wifi_rate = wifi.delivery_rate().expect("wifi attempted sends");
        let bt_rate = bt.delivery_rate().expect("bt attempted sends");
        assert!(wifi_rate > 0.98, "wifi {wifi_rate}");
        assert!(bt_rate < wifi_rate, "bt {bt_rate} wifi {wifi_rate}");
        assert!((bt_rate - 0.90).abs() < 0.03);
    }

    #[test]
    fn bt_bursts_are_longer_than_wifi() {
        let mut wifi = WifiTransport::default();
        let mut bt = BtRelayTransport::default();
        let mut r = rng::for_component(2, "latency");
        for i in 0..500 {
            let at = SimTime::from_secs(i);
            wifi.send(at, &report(), &mut r);
            bt.send(at, &report(), &mut r);
        }
        let mean = |events: &[TransportEvent]| {
            events.iter().map(|e| e.active.as_millis()).sum::<u64>() as f64 / events.len() as f64
        };
        assert!(
            mean(&bt.telemetry().transport_events())
                > 2.0 * mean(&wifi.telemetry().transport_events())
        );
        // The burst histograms agree with the journal.
        let wifi_hist = wifi.telemetry().histogram(keys::NET_TX_BURST_MS).unwrap();
        assert_eq!(wifi_hist.count(), 500);
    }

    #[test]
    fn delivery_time_is_after_send_time() {
        let mut wifi = WifiTransport::default();
        let mut r = rng::for_component(3, "time");
        let at = SimTime::from_secs(10);
        // Retry until a delivered outcome (p ≈ 0.995).
        for _ in 0..100 {
            if let SendOutcome::Delivered { at: arrival } = wifi.send(at, &report(), &mut r) {
                assert!(arrival > at);
                return;
            }
        }
        panic!("wifi never delivered in 100 tries");
    }

    #[test]
    fn failed_sends_still_log_energy_events() {
        let mut never = BtRelayTransport::new(0.0, SimDuration::from_millis(400));
        let mut r = rng::for_component(4, "fail");
        let outcome = never.send(SimTime::ZERO, &report(), &mut r);
        assert_eq!(outcome, SendOutcome::Failed);
        let events = never.telemetry().transport_events();
        assert_eq!(events.len(), 1);
        assert!(!events[0].delivered);
        assert!(events[0].active >= SimDuration::from_millis(400));
    }

    #[test]
    fn untouched_transport_has_no_delivery_rate() {
        // "No traffic" must be distinguishable from "perfect delivery":
        // a fault sweep that kills the link before the first send would
        // otherwise score it 100 %.
        let wifi = WifiTransport::default();
        assert_eq!(wifi.delivery_rate(), None);
    }

    #[test]
    fn kinds_are_reported() {
        assert_eq!(WifiTransport::default().kind(), TransportKind::Wifi);
        assert_eq!(
            BtRelayTransport::default().kind(),
            TransportKind::BluetoothRelay
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let _ = WifiTransport::new(1.5, SimDuration::from_millis(50));
    }

    #[test]
    fn journal_rebuilds_the_burst_log() {
        let mut wifi = WifiTransport::new(1.0, SimDuration::from_millis(50));
        let mut r = rng::for_component(30, "shim");
        wifi.send(SimTime::from_secs(1), &report(), &mut r);
        wifi.send(SimTime::from_secs(2), &report(), &mut r);
        let events = wifi.telemetry().transport_events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.delivered));
        assert_eq!(events[0].start, SimTime::from_secs(1));
        assert_eq!(events[1].start, SimTime::from_secs(2));
    }

    #[test]
    fn retrying_lifts_bt_delivery_rate() {
        let mut bare = BtRelayTransport::default();
        let mut retried = Retrying::new(BtRelayTransport::default(), 2);
        let mut r1 = rng::for_component(7, "retry-a");
        let mut r2 = rng::for_component(7, "retry-b");
        let n = 2000;
        let mut bare_ok = 0usize;
        let mut retried_ok = 0usize;
        for i in 0..n {
            let at = SimTime::from_secs(i * 2);
            if bare.send(at, &report(), &mut r1).is_delivered() {
                bare_ok += 1;
            }
            if retried.send(at, &report(), &mut r2).is_delivered() {
                retried_ok += 1;
            }
        }
        let bare_rate = bare_ok as f64 / n as f64;
        let retried_rate = retried_ok as f64 / n as f64;
        // p=0.9 single try vs 1-(0.1)^3 ≈ 0.999 with two retries.
        assert!(bare_rate < 0.94, "bare {bare_rate}");
        assert!(retried_rate > 0.99, "retried {retried_rate}");
        // And the energy ledger sees the extra bursts.
        assert!(retried.telemetry().counter(keys::NET_TX_ATTEMPTS) > n);
    }

    #[test]
    fn retrying_reports_every_attempt_in_events() {
        let mut never = Retrying::new(BtRelayTransport::new(0.0, SimDuration::from_millis(400)), 3);
        let mut r = rng::for_component(8, "retry-never");
        let outcome = never.send(SimTime::ZERO, &report(), &mut r);
        assert_eq!(outcome, SendOutcome::Failed);
        let events = never.telemetry().transport_events();
        assert_eq!(events.len(), 4); // original + 3 retries
                                     // Attempts are spaced by the previous burst, not simultaneous.
        let starts: Vec<u64> = events.iter().map(|e| e.start.as_millis()).collect();
        assert!(starts.windows(2).all(|w| w[1] > w[0]), "starts {starts:?}");
    }

    fn stamped_report(at_secs: u64) -> ObservationReport {
        ObservationReport {
            seq: at_secs,
            at: SimTime::from_secs(at_secs),
            ..report()
        }
    }

    #[test]
    fn queueing_holds_reports_across_a_dead_spell_and_drains_after() {
        // A transport that is dead, then perfect — the correlated-outage
        // shape Retrying cannot survive but the queue can.
        let mut q = QueueingTransport::new(
            crate::FaultyTransport::new(
                BtRelayTransport::new(1.0, SimDuration::from_millis(400)),
                roomsense_sim::FaultSchedule::new(vec![roomsense_sim::FaultWindow::new(
                    SimTime::ZERO,
                    SimTime::from_secs(60),
                )]),
            ),
            32,
            SimDuration::from_secs(2),
        );
        let mut r = rng::for_component(11, "queue-outage");
        let mut delivered = Vec::new();
        for i in 0..60 {
            let at = SimTime::from_secs(i * 2);
            delivered.extend(q.offer(at, stamped_report(i * 2), &mut r));
        }
        // Everything offered during the minute of downtime was queued, not
        // lost, and drained once the link returned.
        assert_eq!(q.offered(), 60);
        assert_eq!(q.delivered_reports(), 60);
        assert_eq!(q.pending(), 0);
        assert_eq!(q.dropped(), 0);
        assert_eq!(delivered.len(), 60);
        assert_eq!(q.report_delivery_rate(), Some(1.0));
        // The mirrored telemetry counters agree with the accessors.
        assert_eq!(q.telemetry().counter(keys::NET_QUEUE_OFFERED), 60);
        assert_eq!(q.telemetry().counter(keys::NET_QUEUE_DELIVERED), 60);
        assert_eq!(q.telemetry().counter(keys::NET_QUEUE_DROPPED), 0);
        // Every distinct report made it out exactly once (retry order is
        // staggered by backoff, so only completeness is guaranteed).
        let mut sent_times: Vec<u64> = delivered.iter().map(|d| d.report.at.as_millis()).collect();
        sent_times.sort_unstable();
        sent_times.dedup();
        assert_eq!(sent_times.len(), 60);
    }

    #[test]
    fn queueing_backoff_grows_and_is_spaced() {
        let mut q = QueueingTransport::new(
            BtRelayTransport::new(0.0, SimDuration::from_millis(400)),
            8,
            SimDuration::from_secs(1),
        );
        let mut r = rng::for_component(12, "queue-backoff");
        q.offer(SimTime::ZERO, stamped_report(0), &mut r);
        assert_eq!(q.pending(), 1);
        // Flushing before the backoff expires does not attempt the send.
        let before = q.telemetry().counter(keys::NET_TX_ATTEMPTS);
        assert!(q.flush(SimTime::from_millis(500), &mut r).is_empty());
        assert_eq!(q.telemetry().counter(keys::NET_TX_ATTEMPTS), before);
        // Well after the (jittered) backoff, the retry happens and fails
        // again with a longer next wait.
        assert!(q.flush(SimTime::from_secs(3), &mut r).is_empty());
        assert_eq!(q.telemetry().counter(keys::NET_TX_ATTEMPTS), before + 1);
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn queueing_bounded_buffer_evicts_oldest() {
        let mut q = QueueingTransport::new(
            BtRelayTransport::new(0.0, SimDuration::from_millis(400)),
            4,
            SimDuration::from_secs(600), // never retried within this test
        );
        let mut r = rng::for_component(13, "queue-bound");
        for i in 0..10 {
            q.offer(SimTime::from_secs(i), stamped_report(i), &mut r);
        }
        assert_eq!(q.pending(), 4);
        assert_eq!(q.dropped(), 6);
        assert_eq!(q.telemetry().counter(keys::NET_QUEUE_DROPPED), 6);
        assert_eq!(q.report_delivery_rate(), Some(0.0));
    }

    #[test]
    fn queueing_report_rate_is_none_before_traffic() {
        let q = QueueingTransport::new(BtRelayTransport::default(), 8, SimDuration::from_secs(1));
        assert_eq!(q.report_delivery_rate(), None);
        assert_eq!(q.inner.delivery_rate(), None);
    }

    #[test]
    fn retrying_zero_budget_behaves_like_inner() {
        let mut wrapped = Retrying::new(WifiTransport::default(), 0);
        let mut bare = WifiTransport::default();
        let mut r1 = rng::for_component(9, "retry-zero");
        let mut r2 = rng::for_component(9, "retry-zero");
        for i in 0..200 {
            let at = SimTime::from_secs(i);
            let a = wrapped.send(at, &report(), &mut r1);
            let b = bare.send(at, &report(), &mut r2);
            assert_eq!(a.is_delivered(), b.is_delivered());
        }
        assert_eq!(
            wrapped.telemetry().counter(keys::NET_TX_ATTEMPTS),
            bare.telemetry().counter(keys::NET_TX_ATTEMPTS)
        );
    }

    /// Scripts full [`SendOutcome`]s (not just success/failure) so the
    /// decorator stack's reaction to server-side backpressure is testable
    /// without a real overloaded server. The script repeats once played out.
    pub(crate) struct OutcomeScripted {
        outcomes: Vec<SendOutcome>,
        played: usize,
        telemetry: Recorder,
    }

    impl OutcomeScripted {
        pub(crate) fn new(outcomes: &[SendOutcome]) -> Self {
            assert!(!outcomes.is_empty(), "empty script");
            OutcomeScripted {
                outcomes: outcomes.to_vec(),
                played: 0,
                telemetry: Recorder::new(),
            }
        }
    }

    impl Transport for OutcomeScripted {
        /// One scripted outcome per burst, whatever the payload carries.
        fn transmit<R: Rng + ?Sized>(
            &mut self,
            at: SimTime,
            _payload: Payload<'_>,
            _rng: &mut R,
        ) -> SendOutcome {
            let outcome = self.outcomes[self.played % self.outcomes.len()];
            self.played += 1;
            self.telemetry.record_send(TransportEvent {
                kind: TransportKind::Wifi,
                start: at,
                active: SimDuration::from_millis(50),
                delivered: outcome.is_delivered(),
            });
            outcome
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
    fn retrying_short_circuits_on_backpressure() {
        // An immediate retry against an overloaded server would only deepen
        // the overload, so the retry budget must not be spent: exactly one
        // attempt reaches the wire and the signal propagates to the caller.
        let mut t = Retrying::new(OutcomeScripted::new(&[SendOutcome::Backpressured]), 5);
        let mut r = rng::for_component(40, "bp-retry");
        let outcome = t.send(SimTime::from_secs(1), &report(), &mut r);
        assert!(outcome.is_backpressured());
        assert_eq!(t.telemetry().counter(keys::NET_TX_ATTEMPTS), 1);
        // Batches behave identically.
        let mut tb = Retrying::new(OutcomeScripted::new(&[SendOutcome::Backpressured]), 5);
        let batch = vec![report(), report()];
        assert!(tb
            .send_batch(SimTime::from_secs(2), &batch, &mut r)
            .is_backpressured());
        assert_eq!(tb.telemetry().counter(keys::NET_TX_ATTEMPTS), 1);
    }

    #[test]
    fn queueing_parks_backpressured_reports_and_retries_later() {
        // Script: the fresh report is backpressured (server shedding), then
        // the queued retry is backpressured once more, then admitted. The
        // report must survive both shed decisions and deliver on the third
        // attempt — backpressure means "later", never "lost".
        let mut q = QueueingTransport::new(
            OutcomeScripted::new(&[
                SendOutcome::Backpressured,
                SendOutcome::Backpressured,
                SendOutcome::Delivered {
                    at: SimTime::from_secs(900),
                },
            ]),
            8,
            SimDuration::from_secs(1),
        );
        let mut r = rng::for_component(41, "bp-queue");
        let deliveries = q.offer(SimTime::from_secs(1), stamped_report(1), &mut r);
        assert!(deliveries.is_empty());
        assert_eq!(
            q.pending(),
            1,
            "backpressured report is parked, not dropped"
        );
        assert_eq!(q.dropped(), 0);
        let deliveries = q.flush(SimTime::from_secs(300), &mut r);
        assert!(deliveries.is_empty(), "second shed keeps it parked");
        assert_eq!(q.pending(), 1);
        let deliveries = q.flush(SimTime::from_secs(900), &mut r);
        assert_eq!(deliveries.len(), 1, "admitted once the server recovers");
        assert_eq!(q.pending(), 0);
        assert_eq!(q.delivered_reports(), 1);
    }

    #[test]
    fn ack_loss_retransmits_duplicates_without_losing_reports() {
        // A perfect link with a very lossy ack channel: every report is
        // delivered at least once, some several times, and the duplicate
        // copies carry the same `(device, seq)` so the server can dedup.
        let mut q = QueueingTransport::new(
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            64,
            SimDuration::from_secs(1),
        )
        .with_ack_loss(0.5);
        let mut r = rng::for_component(17, "ack-loss");
        let mut deliveries = Vec::new();
        for i in 0..100u64 {
            deliveries.extend(q.offer(SimTime::from_secs(i * 4), stamped_report(i * 4), &mut r));
        }
        // Drain whatever is still queued for retransmission.
        let mut t = 400u64;
        while q.pending() > 0 {
            t += 600;
            deliveries.extend(q.flush(SimTime::from_secs(t), &mut r));
        }
        assert!(q.retransmits() > 10, "retransmits {}", q.retransmits());
        assert!(deliveries.len() > 100, "deliveries {}", deliveries.len());
        // Report-level accounting stays exactly-once per offered report.
        assert_eq!(q.offered(), 100);
        assert_eq!(q.delivered_reports(), 100);
        // The telemetry mirror journals one Retransmit per lost ack.
        assert_eq!(
            q.telemetry().counter(keys::NET_QUEUE_RETRANSMITS),
            q.retransmits()
        );
        let journal_retransmits = q
            .telemetry()
            .journal()
            .filter(|e| matches!(e, TelemetryEvent::Retransmit { .. }))
            .count() as u64;
        assert_eq!(journal_retransmits, q.retransmits());
        // Every offered seq arrived at least once.
        let mut seqs: Vec<u64> = deliveries.iter().map(|d| d.report.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 100);
    }

    #[test]
    fn wifi_coalesces_a_batch_into_one_burst() {
        let mut wifi = WifiTransport::new(1.0, SimDuration::from_millis(50));
        let mut r = rng::for_component(18, "batch-wifi");
        let batch: Vec<ObservationReport> = (0..6).map(stamped_report).collect();
        let outcome = wifi.send_batch(SimTime::from_secs(1), &batch, &mut r);
        assert!(outcome.is_delivered());
        let events = wifi.telemetry().transport_events();
        assert_eq!(events.len(), 1, "six reports, one radio burst");
        // The single burst's air time covers the whole batched payload.
        let payload_ms = crate::batched_wire_size_bytes(&batch) as u64 / 100;
        assert!(events[0].active >= SimDuration::from_millis(50 + payload_ms));
        // An empty batch is free: no burst, trivially delivered.
        let outcome = wifi.send_batch(SimTime::from_secs(2), &[], &mut r);
        assert!(outcome.is_delivered());
        assert_eq!(wifi.telemetry().transport_events().len(), 1);
    }

    #[test]
    fn retrying_retries_the_whole_batch() {
        let mut q = Retrying::new(
            OutcomeScripted::new(&[
                SendOutcome::Failed,
                SendOutcome::Delivered {
                    at: SimTime::from_secs(2),
                },
            ]),
            2,
        );
        let mut r = rng::for_component(19, "batch-retry");
        let batch: Vec<ObservationReport> = (0..3).map(stamped_report).collect();
        let outcome = q.send_batch(SimTime::from_secs(1), &batch, &mut r);
        assert!(outcome.is_delivered());
        // Two coalesced attempts, not 3 + 3 per-report bursts.
        assert_eq!(q.telemetry().transport_events().len(), 2);
    }

    #[test]
    fn refused_is_not_delivered() {
        assert!(!SendOutcome::Refused.is_delivered());
    }
}
