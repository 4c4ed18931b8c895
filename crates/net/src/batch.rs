//! Report coalescing: many observations, one radio burst.
//!
//! The paper's Fig. 10 energy lever is "fewer, bigger radio wakes": the
//! dominant uplink costs are per-burst (Wi-Fi wake + tail, BLE connection
//! setup), not per-byte. [`BatchingTransport`] holds outgoing
//! [`ObservationReport`]s in an open batch and transmits the whole batch as
//! **one** coalesced burst ([`Transport::send_batch`]) when it fills up or
//! its oldest report has waited `max_delay`. Failed batches wait in a
//! bounded retry queue with exponential backoff, and an optional lossy
//! batch-ack channel produces the at-least-once duplicate stream
//! [`ShardedBmsServer::ingest`](crate::ShardedBmsServer::ingest) dedups.

use crate::outbox::{Outbox, Policy};
use crate::{Delivery, ObservationReport, Transport};
use rand::Rng;
use roomsense_sim::{SimDuration, SimTime};
use roomsense_telemetry::{keys, Recorder};
use std::fmt;

/// Buffered-report capacity, in full batches (open batch + retry queue).
const CAPACITY_BATCHES: usize = 64;

/// Coalesces reports into batched radio bursts over any [`Transport`].
///
/// A batch seals when it reaches `max_batch` reports or when its oldest
/// report has waited `max_delay` (freshness bound: an observation is never
/// held longer than one delay before its first transmission attempt).
/// Sealed batches that fail in the air retry as a unit with exponential
/// backoff — the whole-batch policy over the shared outbox; when the total
/// buffered-report count (64 full batches at most) would be exceeded, the
/// **oldest queued batch** is dropped whole (the freshest observations are
/// the most valuable to the BMS).
///
/// Report-level accounting mirrors
/// [`QueueingTransport`](crate::QueueingTransport): a delivered burst of
/// `k` reports counts `k`
/// toward [`delivered_reports`](Self::delivered_reports), and one lost
/// batch ack retransmits — and re-counts — all `k`. Counters mirror into
/// the inner recorder under `net.batch.*`, with a burst-size histogram.
///
/// # Examples
///
/// ```
/// use roomsense_net::{BatchingTransport, WifiTransport};
/// use roomsense_sim::SimDuration;
///
/// let uplink = BatchingTransport::new(
///     WifiTransport::default(),
///     8,
///     SimDuration::from_secs(120),
/// );
/// assert_eq!(uplink.pending(), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchingTransport<T> {
    inner: T,
    max_batch: usize,
    max_delay: SimDuration,
    outbox: Outbox,
    open: Vec<ObservationReport>,
    open_since: Option<SimTime>,
}

impl<T: Transport> BatchingTransport<T> {
    /// Wraps `inner`, coalescing up to `max_batch` reports per burst and
    /// holding a report at most `max_delay` before its first attempt. The
    /// retry backoff starts at `max_delay` (capped at 64×) and the buffer
    /// holds 64 full batches.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero or `max_delay` is zero.
    pub fn new(inner: T, max_batch: usize, max_delay: SimDuration) -> Self {
        assert!(max_batch > 0, "max batch must be non-zero");
        assert!(!max_delay.is_zero(), "max delay must be non-zero");
        BatchingTransport {
            inner,
            max_batch,
            max_delay,
            outbox: Outbox::new(
                Policy::Batch { base: max_delay },
                max_batch * CAPACITY_BATCHES,
            ),
            open: Vec::new(),
            open_since: None,
        }
    }

    /// Overrides the retry backoff base (doubled per failed attempt, capped
    /// at 64× the base, jittered).
    ///
    /// # Panics
    ///
    /// Panics if `base_backoff` is zero.
    pub fn with_backoff(mut self, base_backoff: SimDuration) -> Self {
        self.outbox.set_policy(Policy::Batch { base: base_backoff });
        self
    }

    /// Models a lossy **batch** acknowledgement: with probability
    /// `ack_loss` per delivered burst, the whole batch is retransmitted
    /// later — the server sees every report in it at least twice.
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]`.
    pub fn with_ack_loss(mut self, ack_loss: f64) -> Self {
        self.outbox.set_ack_loss(ack_loss);
        self
    }

    /// The wrapped transport's recorder, which the batcher's counters share.
    pub fn telemetry(&self) -> &Recorder {
        self.inner.telemetry()
    }

    /// Reports currently buffered (open batch + retry queue).
    pub fn pending(&self) -> usize {
        self.open.len() + self.outbox.pending()
    }

    /// Reports offered via [`offer`](Self::offer).
    pub fn offered(&self) -> u64 {
        self.outbox.offered
    }

    /// Offered reports that reached the server at least once.
    pub fn delivered_reports(&self) -> u64 {
        self.outbox.delivered
    }

    /// Reports dropped when the buffer overflowed.
    pub fn dropped(&self) -> u64 {
        self.outbox.dropped
    }

    /// Report retransmissions caused by lost batch acks.
    pub fn retransmits(&self) -> u64 {
        self.outbox.retransmits
    }

    /// Coalesced burst attempts on the wire.
    pub(crate) fn bursts(&self) -> u64 {
        self.outbox.attempts
    }

    /// Seals the open batch into the transmit path.
    fn seal<R: Rng + ?Sized>(&mut self, at: SimTime, rng: &mut R, out: &mut Vec<Delivery>) {
        if self.open.is_empty() {
            return;
        }
        let reports = std::mem::take(&mut self.open);
        self.open_since = None;
        self.inner.telemetry_mut().incr(keys::NET_BATCH_FLUSHES);
        self.outbox.send_new(&mut self.inner, at, reports, rng, out);
    }

    /// Retries every queued batch whose backoff expired by `at`, and seals
    /// the open batch if its oldest report has waited `max_delay`. Returns
    /// whatever reached the server.
    pub fn flush_due<R: Rng + ?Sized>(&mut self, at: SimTime, rng: &mut R) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        self.outbox.flush(&mut self.inner, at, rng, &mut deliveries);
        let deadline_passed = self
            .open_since
            .is_some_and(|since| at.saturating_since(since) >= self.max_delay);
        if deadline_passed {
            self.seal(at, rng, &mut deliveries);
        }
        deliveries
    }

    /// Force-seals the open batch (end of run) and retries all due queued
    /// batches. Returns whatever reached the server.
    pub fn flush<R: Rng + ?Sized>(&mut self, at: SimTime, rng: &mut R) -> Vec<Delivery> {
        let mut deliveries = self.flush_due(at, rng);
        self.seal(at, rng, &mut deliveries);
        deliveries
    }

    /// Offers a report: drains due work first, then adds the report to the
    /// open batch (dropping whole oldest queued batches if the buffer is
    /// full), sealing it immediately when full. Returns everything that
    /// reached the server during this call.
    pub fn offer<R: Rng + ?Sized>(
        &mut self,
        at: SimTime,
        report: ObservationReport,
        rng: &mut R,
    ) -> Vec<Delivery> {
        let mut deliveries = self.flush_due(at, rng);
        let telemetry = self.inner.telemetry_mut();
        self.outbox.count_offered(telemetry, 1);
        self.outbox.make_room(telemetry, self.open.len() + 1);
        if self.open.is_empty() {
            self.open_since = Some(at);
        }
        self.open.push(report);
        if self.open.len() >= self.max_batch {
            self.seal(at, rng, &mut deliveries);
        }
        deliveries
    }
}

impl<T: Transport + fmt::Display> fmt::Display for BatchingTransport<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} batching (max {}, {} pending, {} bursts)",
            self.inner,
            self.max_batch,
            self.pending(),
            self.bursts()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceId, SightedBeacon, WifiTransport};
    use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
    use roomsense_sim::rng;

    fn stamped_report(at_secs: u64) -> ObservationReport {
        ObservationReport {
            device: DeviceId::new(1),
            seq: at_secs,
            at: SimTime::from_secs(at_secs),
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
    fn full_batch_goes_out_as_one_burst() {
        let mut b = BatchingTransport::new(
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            4,
            SimDuration::from_secs(600),
        );
        let mut r = rng::for_component(40, "batch-full");
        let mut deliveries = Vec::new();
        for i in 0..4u64 {
            deliveries.extend(b.offer(SimTime::from_secs(i), stamped_report(i), &mut r));
        }
        assert_eq!(deliveries.len(), 4);
        assert_eq!(b.bursts(), 1, "four reports coalesced into one burst");
        assert_eq!(b.delivered_reports(), 4);
        assert_eq!(b.pending(), 0);
        assert_eq!(b.telemetry().counter(keys::NET_TX_ATTEMPTS), 1);
        assert_eq!(b.telemetry().counter(keys::NET_BATCH_OFFERED), 4);
        assert_eq!(b.telemetry().counter(keys::NET_BATCH_DELIVERED), 4);
        assert_eq!(b.telemetry().counter(keys::NET_BATCH_FLUSHES), 1);
        let hist = b.telemetry().histogram(keys::NET_BATCH_SIZE).unwrap();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.mean(), Some(4.0));
    }

    #[test]
    fn max_delay_bounds_report_freshness() {
        let mut b = BatchingTransport::new(
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            100,
            SimDuration::from_secs(60),
        );
        let mut r = rng::for_component(41, "batch-delay");
        assert!(b
            .offer(SimTime::from_secs(0), stamped_report(0), &mut r)
            .is_empty());
        assert!(b
            .offer(SimTime::from_secs(30), stamped_report(30), &mut r)
            .is_empty());
        assert_eq!(b.pending(), 2);
        // At t=60 the oldest report has waited the full delay: the partial
        // batch goes out even though it is nowhere near max_batch.
        let deliveries = b.flush_due(SimTime::from_secs(60), &mut r);
        assert_eq!(deliveries.len(), 2);
        assert_eq!(b.bursts(), 1);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn failed_batch_retries_as_a_unit_with_backoff() {
        let mut b = BatchingTransport::new(
            WifiTransport::new(0.0, SimDuration::from_millis(50)),
            2,
            SimDuration::from_secs(10),
        );
        let mut r = rng::for_component(42, "batch-retry");
        b.offer(SimTime::from_secs(0), stamped_report(0), &mut r);
        b.offer(SimTime::from_secs(1), stamped_report(1), &mut r);
        assert_eq!(b.bursts(), 1);
        assert_eq!(b.pending(), 2, "failed batch waits in the retry queue");
        // Before the backoff expires nothing is attempted.
        let before = b.bursts();
        assert!(b.flush_due(SimTime::from_secs(2), &mut r).is_empty());
        assert_eq!(b.bursts(), before);
        // Well after, the whole batch retries in one burst.
        assert!(b.flush_due(SimTime::from_secs(60), &mut r).is_empty());
        assert_eq!(b.bursts(), before + 1);
        assert_eq!(b.delivered_reports(), 0);
        // Both failed bursts carried the pair: the mean counts what each
        // burst carried, not what got through.
        let hist = b.telemetry().histogram(keys::NET_BATCH_SIZE).unwrap();
        assert_eq!(hist.mean(), Some(2.0));
    }

    #[test]
    fn lost_batch_ack_retransmits_every_report_once_delivered() {
        let mut b = BatchingTransport::new(
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            3,
            SimDuration::from_secs(10),
        )
        .with_ack_loss(1.0);
        let mut r = rng::for_component(43, "batch-ack");
        let mut deliveries = Vec::new();
        for i in 0..3u64 {
            deliveries.extend(b.offer(SimTime::from_secs(i), stamped_report(i), &mut r));
        }
        assert_eq!(deliveries.len(), 3, "the server saw the batch");
        assert_eq!(b.delivered_reports(), 3);
        assert_eq!(b.retransmits(), 3, "one lost batch ack re-queues all 3");
        assert_eq!(b.pending(), 3);
        // The retransmitted copies arrive again but are never re-counted
        // as delivered reports.
        let more = b.flush(SimTime::from_secs(2000), &mut r);
        assert_eq!(more.len(), 3);
        assert_eq!(b.delivered_reports(), 3);
    }

    #[test]
    fn overflow_drops_the_oldest_queued_batch() {
        // A dead link and a backoff longer than the test: every sealed pair
        // parks. The buffer holds 64 full batches (128 reports), so the last
        // four pairs each evict the oldest parked pair whole.
        let mut b = BatchingTransport::new(
            WifiTransport::new(0.0, SimDuration::from_millis(50)),
            2,
            SimDuration::from_secs(600),
        );
        let mut r = rng::for_component(44, "batch-bound");
        for i in 0..136u64 {
            b.offer(SimTime::from_secs(i), stamped_report(i), &mut r);
        }
        assert_eq!(b.pending(), 128);
        assert_eq!(b.dropped(), 8);
        assert_eq!(b.telemetry().counter(keys::NET_BATCH_DROPPED), 8);
        // The freshest reports survived, in order.
        let kept: Vec<u64> = b.outbox.buffered_reports().map(|r| r.seq).collect();
        assert_eq!(kept, (8..136).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_evicts_by_age_after_a_retry() {
        // Report 0 is retried (and fails again) while report 1 still waits
        // out its backoff; the retried batch keeps its place, so the one
        // overflow eviction takes report 0, the older observation.
        let mut b = BatchingTransport::new(
            WifiTransport::new(0.0, SimDuration::from_millis(50)),
            1,
            SimDuration::from_secs(1),
        );
        let mut r = rng::for_component(46, "batch-age");
        b.offer(SimTime::from_secs(0), stamped_report(0), &mut r);
        b.offer(SimTime::from_secs(1), stamped_report(1), &mut r);
        let before = b.bursts();
        b.flush_due(SimTime::from_secs(3), &mut r);
        assert_eq!(b.bursts(), before + 1, "only report 0 was due");
        for i in 0..63u64 {
            let at = SimTime::from_millis(3000 + i);
            b.offer(at, stamped_report(100 + i), &mut r);
        }
        assert_eq!(b.dropped(), 1);
        let kept: Vec<u64> = b.outbox.buffered_reports().map(|r| r.seq).collect();
        assert_eq!(&kept[..2], &[1, 100]);
    }
}
