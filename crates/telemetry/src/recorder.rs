//! The [`Recorder`]: counters, gauges, fixed-bucket histograms and the
//! bounded event journal, plus deterministic text exporters.

use crate::event::{TelemetryEvent, TransportEvent, TransportKind};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// A static metric name. Keys are dot-separated (`net.tx.attempts`); the
/// Prometheus exporter rewrites dots to underscores and prefixes
/// `roomsense_`. Every key is a `'static` literal in [`keys`], so the
/// recorder never allocates for key storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey(&'static str);

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// The workspace's well-known metric names, one per instrumented behaviour.
pub mod keys {
    use super::MetricKey;

    /// Transport send attempts (radio bursts), all channels.
    pub const NET_TX_ATTEMPTS: MetricKey = MetricKey("net.tx.attempts");
    /// Send attempts carried by Wi-Fi.
    pub(crate) const NET_TX_ATTEMPTS_WIFI: MetricKey = MetricKey("net.tx.attempts.wifi");
    /// Send attempts carried by the Bluetooth relay.
    pub const NET_TX_ATTEMPTS_BT: MetricKey = MetricKey("net.tx.attempts.bt_relay");
    /// Send attempts carried as phone-to-phone peer-mesh hops.
    pub const NET_TX_ATTEMPTS_PEER: MetricKey = MetricKey("net.tx.attempts.peer_mesh");
    /// Send attempts that reached the server.
    pub const NET_TX_DELIVERED: MetricKey = MetricKey("net.tx.delivered");
    /// Sends refused outright by a link in scheduled outage.
    pub const NET_TX_REFUSED: MetricKey = MetricKey("net.tx.refused");
    /// Radio burst lengths, in milliseconds (histogram).
    pub const NET_TX_BURST_MS: MetricKey = MetricKey("net.tx.burst_ms");
    /// Reports offered to a store-and-forward queue.
    pub const NET_QUEUE_OFFERED: MetricKey = MetricKey("net.queue.offered");
    /// Offered reports that eventually got through.
    pub const NET_QUEUE_DELIVERED: MetricKey = MetricKey("net.queue.delivered");
    /// Reports evicted from a full queue.
    pub const NET_QUEUE_DROPPED: MetricKey = MetricKey("net.queue.dropped");
    /// Deliveries whose lost ack forced a retransmission.
    pub const NET_QUEUE_RETRANSMITS: MetricKey = MetricKey("net.queue.retransmits");
    /// Reports offered to a batching transport.
    pub const NET_BATCH_OFFERED: MetricKey = MetricKey("net.batch.offered");
    /// Coalesced radio bursts flushed by a batching transport.
    pub const NET_BATCH_FLUSHES: MetricKey = MetricKey("net.batch.flushes");
    /// Reports delivered through a batching transport (one per report, not
    /// per burst).
    pub const NET_BATCH_DELIVERED: MetricKey = MetricKey("net.batch.delivered");
    /// Reports evicted from a full batching buffer.
    pub const NET_BATCH_DROPPED: MetricKey = MetricKey("net.batch.dropped");
    /// Batched deliveries whose lost ack forced a retransmission (one per
    /// report in the affected burst).
    pub const NET_BATCH_RETRANSMITS: MetricKey = MetricKey("net.batch.retransmits");
    /// Reports per coalesced burst (histogram).
    pub const NET_BATCH_SIZE: MetricKey = MetricKey("net.batch.size");
    /// Sends routed to the secondary channel by the failover router.
    pub const NET_FAILOVER_SENDS: MetricKey = MetricKey("net.failover.sends");
    /// Recovery probes sent over a down primary.
    pub const NET_FAILOVER_PROBES: MetricKey = MetricKey("net.failover.probes");
    /// Reports the peer-relay mesh carried to a peer's exit uplink.
    pub const NET_PEER_RELAYED: MetricKey = MetricKey("net.peer.relayed");
    /// Phone-to-phone hop attempts per relayed report (histogram).
    pub const NET_PEER_HOPS: MetricKey = MetricKey("net.peer.hops");
    /// Reports parked in the peer relay's store-and-forward buffer.
    pub const NET_PEER_QUEUED: MetricKey = MetricKey("net.peer.queued");
    /// Reports evicted from a full peer-relay buffer.
    pub const NET_PEER_DROPPED: MetricKey = MetricKey("net.peer.dropped");
    /// Reports admitted into a shard mailbox by the ingestion tier.
    pub const NET_MAILBOX_ADMITTED: MetricKey = MetricKey("net.mailbox.admitted");
    /// Reports refused with backpressure by the admission controller.
    pub const NET_MAILBOX_SHED: MetricKey = MetricKey("net.mailbox.shed");
    /// Admission-controller pause episodes (depth crossed the high mark).
    pub const NET_MAILBOX_PAUSES: MetricKey = MetricKey("net.mailbox.pauses");
    /// Deepest any shard mailbox ever got (gauge).
    pub const NET_MAILBOX_DEPTH_PEAK: MetricKey = MetricKey("net.mailbox.depth_peak");
    /// Reports the BMS accepted and stored.
    pub const BMS_INGEST_ACCEPTED: MetricKey = MetricKey("bms.ingest.accepted");
    /// Duplicate reports the BMS rejected.
    pub const BMS_INGEST_DUPLICATES: MetricKey = MetricKey("bms.ingest.duplicates");
    /// Checkpoints the BMS has taken.
    pub const BMS_CHECKPOINTS: MetricKey = MetricKey("bms.checkpoints");
    /// Reports and assignments dropped by the BMS retention compactor.
    pub const BMS_RETENTION_COMPACTED: MetricKey = MetricKey("bms.retention.compacted");
    /// Peak resident report count observed during a run (gauge).
    pub const BMS_REPORTS_RETAINED_PEAK: MetricKey = MetricKey("bms.reports.retained_peak");
    /// Records (reports + assignments) spilled into the durable archive.
    pub const BMS_ARCHIVE_RECORDS: MetricKey = MetricKey("bms.archive.records");
    /// Archive segments sealed with a verified footer.
    pub const BMS_ARCHIVE_SEGMENTS_SEALED: MetricKey = MetricKey("bms.archive.segments_sealed");
    /// Bytes appended to archive segment files.
    pub const BMS_ARCHIVE_BYTES: MetricKey = MetricKey("bms.archive.bytes");
    /// Archive recovery passes run against a crashed disk.
    pub const BMS_ARCHIVE_RECOVERIES: MetricKey = MetricKey("bms.archive.recoveries");
    /// Archived records lost to truncation at recovery, vs checkpoint marks.
    pub const BMS_ARCHIVE_TRUNCATED_RECORDS: MetricKey = MetricKey("bms.archive.truncated_records");
    /// Query-time segment scans that hit corruption which landed after
    /// recovery; each one demotes the sink to lossy on the spot.
    pub const BMS_ARCHIVE_READ_CORRUPTIONS: MetricKey = MetricKey("bms.archive.read_corruptions");
    /// Re-spills of already-archived records suppressed after journal replay.
    pub const BMS_ARCHIVE_RESPILL_SUPPRESSED: MetricKey =
        MetricKey("bms.archive.respill_suppressed");
    /// Queries answered exactly — no shard had backlog at query time.
    pub const BMS_QUERIES_EXACT: MetricKey = MetricKey("bms.queries.exact");
    /// Queries answered from the stale-marked view while shards lagged.
    pub const BMS_QUERIES_DEGRADED: MetricKey = MetricKey("bms.queries.degraded");
    /// Population-estimate queries served by a BMS server.
    pub const BMS_COUNTING_QUERIES: MetricKey = MetricKey("bms.counting.queries");
    /// Devices with in-window evidence at the last population query (gauge).
    pub const BMS_COUNTING_OBSERVED: MetricKey = MetricKey("bms.counting.observed");
    /// Estimated building population at the last population query (gauge).
    pub const BMS_COUNTING_ESTIMATED: MetricKey = MetricKey("bms.counting.estimated");
    /// Population queries a tier answered exactly (no shard lagging).
    pub const BMS_COUNTING_EXACT: MetricKey = MetricKey("bms.counting.queries.exact");
    /// Population queries a tier answered while shards lagged.
    pub const BMS_COUNTING_DEGRADED: MetricKey = MetricKey("bms.counting.queries.degraded");
    /// Scan cycles executed.
    pub const SCAN_CYCLES: MetricKey = MetricKey("scan.cycles");
    /// Android 4.x restart windows evaluated.
    pub const SCAN_WINDOWS: MetricKey = MetricKey("scan.windows");
    /// Restart windows that stalled (the paper's Android 4.x bug).
    pub const SCAN_STALLS: MetricKey = MetricKey("scan.stalls");
    /// Samples the scanner stack reported upward.
    pub const SCAN_SAMPLES: MetricKey = MetricKey("scan.samples");
    /// Repeat sightings suppressed by per-window dedup (Android 4.x),
    /// among the receptions the radio delivered.
    pub const SCAN_DEDUP_SUPPRESSED: MetricKey = MetricKey("scan.dedup_suppressed");
    /// Receptions destroyed before the scanner saw them (fault storms).
    pub const SCAN_SAMPLES_DROPPED: MetricKey = MetricKey("scan.samples_dropped");
    /// Track-filter holds across a missed observation.
    pub const FILTER_HOLDS: MetricKey = MetricKey("filter.holds");
    /// Tracks dropped after exhausting their loss policy.
    pub const FILTER_DROPS: MetricKey = MetricKey("filter.drops");
    /// Evaluated advertisements that produced a reception at the device.
    pub const RADIO_RX_RECEIVED: MetricKey = MetricKey("radio.rx.received");
    /// Evaluated advertisements lost to collision, sensitivity or stack
    /// drop.
    pub const RADIO_RX_LOST: MetricKey = MetricKey("radio.rx.lost");
    /// Advertisements whose draws were replayed without evaluating them,
    /// because the scanner keeps only an earlier reception of their
    /// advertiser in the same restart window.
    pub const RADIO_RX_REPLAYED: MetricKey = MetricKey("radio.rx.replayed");
    /// SVM decision margins (histogram; signed distance to the hyperplane).
    pub const ML_SVM_MARGIN: MetricKey = MetricKey("ml.svm.margin");
    /// Energy drawn by the always-on baseline, in millijoules (gauge).
    pub const ENERGY_BASELINE_MJ: MetricKey = MetricKey("energy.baseline_mj");
    /// Energy drawn by the occupancy service CPU load (gauge).
    pub const ENERGY_CPU_SERVICE_MJ: MetricKey = MetricKey("energy.cpu_service_mj");
    /// Energy drawn by BLE scanning (gauge).
    pub const ENERGY_BLE_SCAN_MJ: MetricKey = MetricKey("energy.ble_scan_mj");
    /// Energy drawn keeping Wi-Fi associated (gauge).
    pub const ENERGY_WIFI_IDLE_MJ: MetricKey = MetricKey("energy.wifi_idle_mj");
    /// Energy drawn by active Wi-Fi transfers (gauge).
    pub const ENERGY_WIFI_ACTIVE_MJ: MetricKey = MetricKey("energy.wifi_active_mj");
    /// Energy drawn by the post-transfer Wi-Fi tail (gauge).
    pub const ENERGY_WIFI_TAIL_MJ: MetricKey = MetricKey("energy.wifi_tail_mj");
    /// Energy drawn waking/re-associating Wi-Fi before each batched burst
    /// (gauge; batched architecture only).
    pub const ENERGY_WIFI_WAKE_MJ: MetricKey = MetricKey("energy.wifi_wake_mj");
    /// Energy drawn by Bluetooth relay connections (gauge).
    pub const ENERGY_BT_CONNECTION_MJ: MetricKey = MetricKey("energy.bt_connection_mj");
    /// Total uplink-side energy, in millijoules (gauge).
    pub const ENERGY_TOTAL_MJ: MetricKey = MetricKey("energy.total_mj");
}

/// Upper bucket bounds shared by every histogram, chosen to resolve both
/// radio bursts (tens of ms) and whole pipeline stages (minutes of sim
/// time). A final implicit `+Inf` bucket catches the rest.
const BUCKET_BOUNDS: [f64; 16] = [
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10_000.0,
    60_000.0,
    300_000.0,
    1_000_000.0,
];

/// A fixed-bucket histogram: 16 finite buckets plus `+Inf`, a running sum
/// and a count. Buckets are cumulative in the exporter (Prometheus `le`
/// semantics) but stored per-bucket here.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; 17],
    sum: f64,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; 17],
            sum: 0.0,
            count: 0,
        }
    }
}

impl Histogram {
    fn observe(&mut self, value: f64) {
        let slot = BUCKET_BOUNDS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The mean observed value, or `None` before any observation.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Folds `other`'s observations into this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// Default journal capacity: large enough that no in-tree experiment drops
/// events, small enough to bound a runaway loop.
const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 20;

#[derive(Debug, Clone, PartialEq)]
struct Journal {
    capacity: usize,
    events: VecDeque<TelemetryEvent>,
    dropped: u64,
}

impl Default for Journal {
    fn default() -> Self {
        Journal {
            capacity: DEFAULT_JOURNAL_CAPACITY,
            events: VecDeque::new(),
            dropped: 0,
        }
    }
}

impl Journal {
    fn push(&mut self, event: TelemetryEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// The single observation sink every subsystem records into.
///
/// A recorder is plain data: cloneable, comparable, and mergeable. Parallel
/// code forks one child recorder per task and merges the children back in
/// task-index order — the whole determinism story (see the crate docs).
///
/// # Examples
///
/// ```
/// use roomsense_telemetry::{keys, Recorder};
///
/// let mut parent = Recorder::new();
/// let mut a = Recorder::new();
/// let mut b = Recorder::new();
/// a.incr(keys::SCAN_STALLS);
/// b.add(keys::SCAN_STALLS, 2);
/// parent.merge_child(a);
/// parent.merge_child(b);
/// assert_eq!(parent.counter(keys::SCAN_STALLS), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recorder {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
    journal: Journal,
    last_send: Option<TransportEvent>,
}

impl Recorder {
    /// An empty recorder with the default journal capacity.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Overrides the bounded journal's capacity (default 2²⁰ events). When
    /// full, the *oldest* events are evicted and counted in
    /// [`journal_dropped`](Self::journal_dropped).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    ///
    /// Kept public: the one knob that bounds a recorder's journal memory.
    pub fn with_journal_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "journal capacity must be non-zero");
        self.journal.capacity = capacity;
        self
    }

    /// Increments `key` by one.
    pub fn incr(&mut self, key: MetricKey) {
        self.add(key, 1);
    }

    /// Adds `delta` to the counter at `key`.
    pub fn add(&mut self, key: MetricKey, delta: u64) {
        *self.counters.entry(key).or_insert(0) += delta;
    }

    /// Sets the gauge at `key` (last write wins).
    pub fn set_gauge(&mut self, key: MetricKey, value: f64) {
        self.gauges.insert(key, value);
    }

    /// Records one observation into the histogram at `key`.
    pub fn observe(&mut self, key: MetricKey, value: f64) {
        self.histograms.entry(key).or_default().observe(value);
    }

    /// The counter at `key` (zero when never incremented).
    pub fn counter(&self, key: MetricKey) -> u64 {
        self.counters.get(&key).copied().unwrap_or(0)
    }

    /// The gauge at `key`, or `None` when never set.
    pub fn gauge(&self, key: MetricKey) -> Option<f64> {
        self.gauges.get(&key).copied()
    }

    /// The histogram at `key`, or `None` when nothing was observed.
    pub fn histogram(&self, key: MetricKey) -> Option<&Histogram> {
        self.histograms.get(&key)
    }

    /// Appends a structured event to the bounded journal.
    pub fn record_event(&mut self, event: TelemetryEvent) {
        self.journal.push(event);
    }

    /// Records one transport burst: bumps the attempt/delivery counters,
    /// observes the burst length and journals a [`TelemetryEvent::Send`].
    /// This is the single entry point every transport reports through.
    pub fn record_send(&mut self, event: TransportEvent) {
        self.incr(keys::NET_TX_ATTEMPTS);
        self.incr(match event.kind {
            TransportKind::Wifi => keys::NET_TX_ATTEMPTS_WIFI,
            TransportKind::BluetoothRelay => keys::NET_TX_ATTEMPTS_BT,
            TransportKind::PeerMesh => keys::NET_TX_ATTEMPTS_PEER,
        });
        if event.delivered {
            self.incr(keys::NET_TX_DELIVERED);
        }
        self.observe(keys::NET_TX_BURST_MS, event.active.as_millis() as f64);
        self.last_send = Some(event);
        self.record_event(TelemetryEvent::Send { event });
    }

    /// The most recent transport burst recorded via
    /// [`record_send`](Self::record_send), independent of journal eviction.
    pub fn last_transport_event(&self) -> Option<TransportEvent> {
        self.last_send
    }

    /// Every transport burst still in the journal, in record order — the
    /// series the energy model prices.
    pub fn transport_events(&self) -> Vec<TransportEvent> {
        self.journal
            .events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Send { event } => Some(*event),
                _ => None,
            })
            .collect()
    }

    /// Iterates the journal in record order.
    pub fn journal(&self) -> impl DoubleEndedIterator<Item = &TelemetryEvent> {
        self.journal.events.iter()
    }

    /// Events evicted from the full journal (zero in healthy runs).
    pub fn journal_dropped(&self) -> u64 {
        self.journal.dropped
    }

    /// Folds a child recorder into this one. Counters and histograms add;
    /// gauges and `last_transport_event` take the child's value when set
    /// (last writer wins); journals concatenate.
    ///
    /// **Determinism rule:** when children come from a parallel fan-out,
    /// merge them in task-index order — never in completion order. That
    /// makes every merged value (including f64 sums, which are sensitive to
    /// association order) a pure function of the inputs.
    pub fn merge_child(&mut self, child: Recorder) {
        for (key, value) in child.counters {
            *self.counters.entry(key).or_insert(0) += value;
        }
        for (key, value) in child.gauges {
            self.gauges.insert(key, value);
        }
        for (key, histogram) in child.histograms {
            self.histograms.entry(key).or_default().merge(&histogram);
        }
        for event in child.journal.events {
            self.journal.push(event);
        }
        self.journal.dropped += child.journal.dropped;
        if child.last_send.is_some() {
            self.last_send = child.last_send;
        }
    }

    /// A Prometheus-style text snapshot: counters, gauges, then histograms
    /// (cumulative `le` buckets plus `_sum`/`_count`), each section in
    /// lexicographic key order. Deterministic byte-for-byte for equal
    /// recorder states.
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (key, value) in &self.counters {
            let _ = writeln!(out, "roomsense_{} {value}", sanitise(key.0));
        }
        for (key, value) in &self.gauges {
            let _ = writeln!(out, "roomsense_{} {value}", sanitise(key.0));
        }
        for (key, histogram) in &self.histograms {
            let name = sanitise(key.0);
            let mut cumulative = 0u64;
            for (bound, count) in BUCKET_BOUNDS.iter().zip(histogram.counts.iter()) {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "roomsense_{name}_bucket{{le=\"{bound}\"}} {cumulative}"
                );
            }
            cumulative += histogram.counts[BUCKET_BOUNDS.len()];
            let _ = writeln!(out, "roomsense_{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(out, "roomsense_{name}_sum {}", histogram.sum);
            let _ = writeln!(out, "roomsense_{name}_count {}", histogram.count);
        }
        out
    }

    /// The journal as JSON Lines, one event per line (with a trailing
    /// newline when non-empty), plus a final summary line when events were
    /// evicted.
    pub fn journal_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.journal.events {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        if self.journal.dropped > 0 {
            out.push_str(&format!(
                "{{\"event\":\"journal_truncated\",\"dropped\":{}}}\n",
                self.journal.dropped
            ));
        }
        out
    }

    /// FNV-1a fingerprint over both exporters — the value
    /// `scripts/check.sh` compares across thread counts.
    pub fn checksum(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in self
            .prometheus_text()
            .bytes()
            .chain(self.journal_jsonl().bytes())
        {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }
}

/// Rewrites a dotted metric key to a Prometheus-legal snake-case name.
fn sanitise(key: &str) -> String {
    key.replace('.', "_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_sim::{SimDuration, SimTime};

    fn burst(start_ms: u64, delivered: bool) -> TransportEvent {
        TransportEvent {
            kind: TransportKind::Wifi,
            start: SimTime::from_millis(start_ms),
            active: SimDuration::from_millis(50),
            delivered,
        }
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut rec = Recorder::new();
        assert_eq!(rec.counter(keys::SCAN_STALLS), 0);
        rec.incr(keys::SCAN_STALLS);
        rec.add(keys::SCAN_STALLS, 4);
        assert_eq!(rec.counter(keys::SCAN_STALLS), 5);
    }

    #[test]
    fn record_send_updates_counters_journal_and_last_event() {
        let mut rec = Recorder::new();
        rec.record_send(burst(0, true));
        rec.record_send(burst(100, false));
        assert_eq!(rec.counter(keys::NET_TX_ATTEMPTS), 2);
        assert_eq!(rec.counter(keys::NET_TX_ATTEMPTS_WIFI), 2);
        assert_eq!(rec.counter(keys::NET_TX_DELIVERED), 1);
        assert_eq!(rec.transport_events().len(), 2);
        assert_eq!(rec.last_transport_event(), Some(burst(100, false)));
        assert_eq!(rec.histogram(keys::NET_TX_BURST_MS).unwrap().count(), 2);
    }

    #[test]
    fn merge_child_adds_counters_and_concatenates_journals() {
        let mut parent = Recorder::new();
        let mut a = Recorder::new();
        let mut b = Recorder::new();
        a.record_send(burst(0, true));
        a.set_gauge(keys::ENERGY_TOTAL_MJ, 1.0);
        b.record_send(burst(10, false));
        b.set_gauge(keys::ENERGY_TOTAL_MJ, 2.0);
        parent.merge_child(a);
        parent.merge_child(b);
        assert_eq!(parent.counter(keys::NET_TX_ATTEMPTS), 2);
        assert_eq!(parent.gauge(keys::ENERGY_TOTAL_MJ), Some(2.0));
        let starts: Vec<u64> = parent
            .transport_events()
            .iter()
            .map(|e| e.start.as_millis())
            .collect();
        assert_eq!(starts, vec![0, 10]);
    }

    #[test]
    fn merge_order_is_the_only_order_sensitivity() {
        // Same children, same order => identical snapshot bytes.
        let build = || {
            let mut parent = Recorder::new();
            for i in 0..3u64 {
                let mut child = Recorder::new();
                child.observe(keys::ML_SVM_MARGIN, 0.1 * i as f64);
                child.record_send(burst(i * 5, i % 2 == 0));
                parent.merge_child(child);
            }
            parent
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_eq!(a.prometheus_text(), b.prometheus_text());
        assert_eq!(a.journal_jsonl(), b.journal_jsonl());
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn bounded_journal_evicts_oldest_and_counts_drops() {
        let mut rec = Recorder::new().with_journal_capacity(2);
        rec.record_event(TelemetryEvent::Checkpoint { reports: 1 });
        rec.record_event(TelemetryEvent::Checkpoint { reports: 2 });
        rec.record_event(TelemetryEvent::Checkpoint { reports: 3 });
        assert_eq!(rec.journal_dropped(), 1);
        let kept: Vec<String> = rec.journal().map(|e| e.to_json()).collect();
        assert_eq!(kept.len(), 2);
        assert!(kept[0].contains("\"reports\":2"));
        assert!(rec.journal_jsonl().contains("journal_truncated"));
    }

    #[test]
    fn prometheus_text_is_sorted_and_cumulative() {
        let mut rec = Recorder::new();
        rec.incr(keys::SCAN_STALLS);
        rec.incr(keys::FILTER_HOLDS);
        rec.observe(keys::NET_TX_BURST_MS, 3.0);
        rec.observe(keys::NET_TX_BURST_MS, 400.0);
        let text = rec.prometheus_text();
        let filter_pos = text.find("roomsense_filter_holds 1").unwrap();
        let scan_pos = text.find("roomsense_scan_stalls 1").unwrap();
        assert!(filter_pos < scan_pos, "keys must export in sorted order");
        assert!(text.contains("roomsense_net_tx_burst_ms_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("roomsense_net_tx_burst_ms_count 2"));
        assert!(text.contains("roomsense_net_tx_burst_ms_sum 403"));
    }

    #[test]
    fn histogram_mean_tracks_observations() {
        let mut h = Histogram::default();
        assert_eq!(h.mean(), None);
        h.observe(10.0);
        h.observe(30.0);
        assert_eq!(h.mean(), Some(20.0));
        assert_eq!(h.count(), 2);
    }

    #[test]
    #[should_panic(expected = "journal capacity")]
    fn zero_journal_capacity_panics() {
        let _ = Recorder::new().with_journal_capacity(0);
    }
}
