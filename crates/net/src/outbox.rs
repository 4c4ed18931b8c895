//! The one store-and-forward buffer under every queueing uplink.
//!
//! [`QueueingTransport`](crate::QueueingTransport),
//! [`BatchingTransport`](crate::BatchingTransport) and
//! [`PeerRelayTransport`](crate::PeerRelayTransport) all park what they
//! could not deliver and retry it later. The [`Outbox`] is that shared
//! machinery: the bounded oldest-first buffer, exponential backoff with full
//! jitter, the ack-loss coin, and the offered/delivered/dropped/retransmit
//! counters, mirrored into the carrying transport's recorder under the
//! policy's key family. The three transports differ only in their
//! [`Policy`].

use crate::{ObservationReport, Payload, SendOutcome, Transport};
use rand::Rng;
use roomsense_sim::{SimDuration, SimTime};
use roomsense_telemetry::{keys, MetricKey, Recorder, TelemetryEvent};
use std::collections::VecDeque;

/// Backoff ceiling as a multiple of the base backoff.
const MAX_BACKOFF_FACTOR: u64 = 64;

/// One report delivered out of a store-and-forward buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The report that got through.
    pub report: ObservationReport,
    /// When it arrived at the server.
    pub at: SimTime,
}

/// How an outbox holds and retries its entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Policy {
    /// One report per entry, with backoff doubling from `base`. A fresh
    /// failure backs off one step, a fresh lost ack two.
    Queue {
        /// The first backoff step.
        base: SimDuration,
    },
    /// One coalesced batch per entry: every attempt is one burst carrying
    /// the whole batch. A fresh batch backs off two steps on a failure or a
    /// lost ack alike.
    Batch {
        /// The first backoff step.
        base: SimDuration,
    },
    /// One report per entry, backing off like [`Queue`](Policy::Queue);
    /// counters mirror under the mesh's own keys.
    Mesh {
        /// The first backoff step.
        base: SimDuration,
    },
}

impl Policy {
    fn checked(self) -> Self {
        assert!(!self.base().is_zero(), "base backoff must be non-zero");
        self
    }

    fn base(self) -> SimDuration {
        match self {
            Policy::Queue { base } | Policy::Batch { base } | Policy::Mesh { base } => base,
        }
    }

    /// The backoff step a fresh entry's first attempt counts as.
    fn first_attempts(self) -> u32 {
        match self {
            Policy::Batch { .. } => 1,
            Policy::Queue { .. } | Policy::Mesh { .. } => 0,
        }
    }

    /// The key family the outbox mirrors its counters under.
    fn family(self) -> Family {
        match self {
            Policy::Queue { .. } => Family {
                offered: Some(keys::NET_QUEUE_OFFERED),
                delivered: Some(keys::NET_QUEUE_DELIVERED),
                dropped: Some(keys::NET_QUEUE_DROPPED),
                retransmits: Some(keys::NET_QUEUE_RETRANSMITS),
                size: None,
            },
            Policy::Batch { .. } => Family {
                offered: Some(keys::NET_BATCH_OFFERED),
                delivered: Some(keys::NET_BATCH_DELIVERED),
                dropped: Some(keys::NET_BATCH_DROPPED),
                retransmits: Some(keys::NET_BATCH_RETRANSMITS),
                size: Some(keys::NET_BATCH_SIZE),
            },
            Policy::Mesh { .. } => Family {
                dropped: Some(keys::NET_PEER_DROPPED),
                ..Family::default()
            },
        }
    }
}

/// Counter keys of one policy (`None`: the family does not mirror it).
#[derive(Default)]
struct Family {
    offered: Option<MetricKey>,
    delivered: Option<MetricKey>,
    dropped: Option<MetricKey>,
    retransmits: Option<MetricKey>,
    /// Histogram of reports per wire attempt.
    size: Option<MetricKey>,
}

fn bump(telemetry: &mut Recorder, key: Option<MetricKey>, n: u64) {
    if let Some(key) = key {
        telemetry.add(key, n);
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    reports: Vec<ObservationReport>,
    /// The backoff step of the next wait.
    attempts: u32,
    next_attempt: SimTime,
    /// True when the entry already reached the server once but its ack was
    /// lost — the buffered copy is a retransmission, so a later successful
    /// send must not count its reports as delivered a *second* time.
    delivered_before: bool,
}

/// A bounded store-and-forward buffer under one [`Policy`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Outbox {
    policy: Policy,
    /// Buffered-report bound.
    pub(crate) capacity: usize,
    ack_loss: f64,
    entries: VecDeque<Entry>,
    buffered: usize,
    /// Reports offered.
    pub(crate) offered: u64,
    /// Offered reports that reached the server at least once.
    pub(crate) delivered: u64,
    /// Reports evicted from a full buffer.
    pub(crate) dropped: u64,
    /// Reports whose delivery lost its ack.
    pub(crate) retransmits: u64,
    /// Wire attempts made.
    pub(crate) attempts: u64,
}

impl Outbox {
    /// # Panics
    ///
    /// Panics if `capacity` or the policy's base backoff is zero.
    pub(crate) fn new(policy: Policy, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        Outbox {
            policy: policy.checked(),
            capacity,
            ack_loss: 0.0,
            entries: VecDeque::new(),
            buffered: 0,
            offered: 0,
            delivered: 0,
            dropped: 0,
            retransmits: 0,
            attempts: 0,
        }
    }

    /// Replaces the policy in place.
    ///
    /// # Panics
    ///
    /// Panics if the policy's base backoff is zero.
    pub(crate) fn set_policy(&mut self, policy: Policy) {
        self.policy = policy.checked();
    }

    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]`.
    pub(crate) fn set_ack_loss(&mut self, ack_loss: f64) {
        self.ack_loss = crate::transport::checked_probability(ack_loss);
    }

    /// Reports currently buffered.
    pub(crate) fn pending(&self) -> usize {
        self.buffered
    }

    /// Counts `k` freshly offered reports.
    pub(crate) fn count_offered(&mut self, telemetry: &mut Recorder, k: u64) {
        self.offered += k;
        bump(telemetry, self.policy.family().offered, k);
    }

    /// Evicts whole entries, oldest first, until `extra` more reports fit.
    pub(crate) fn make_room(&mut self, telemetry: &mut Recorder, extra: usize) {
        while self.buffered + extra > self.capacity {
            let Some(oldest) = self.entries.pop_front() else {
                break;
            };
            let lost = oldest.reports.len();
            self.buffered -= lost;
            self.dropped += lost as u64;
            bump(telemetry, self.policy.family().dropped, lost as u64);
        }
    }

    /// The exponential wait before the next attempt at backoff step
    /// `attempts`: `base · 2^(attempts−1)` capped at 64× the base, plus full
    /// jitter of up to one base. Full jitter de-synchronises the fleet when
    /// a shared outage lifts.
    fn backoff<R: Rng + ?Sized>(base: SimDuration, attempts: u32, rng: &mut R) -> SimDuration {
        // Saturate the doubling instead of hard-coding a shift cap.
        let doubling = attempts.saturating_sub(1).min(63);
        let scaled_ms = base.as_millis().saturating_mul(1u64 << doubling);
        let capped = (base * MAX_BACKOFF_FACTOR).min(SimDuration::from_millis(scaled_ms));
        capped + SimDuration::from_millis(rng.gen_range(0..=base.as_millis()))
    }

    /// Schedules `entry`'s next attempt after `at`.
    fn reschedule<R: Rng + ?Sized>(&self, entry: &mut Entry, at: SimTime, rng: &mut R) {
        entry.next_attempt = at + Self::backoff(self.policy.base(), entry.attempts, rng);
    }

    /// One wire attempt for `entry`. Pushes whatever reached the server into
    /// `out`; returns `true` when the entry must stay buffered (the attempt
    /// failed or its ack was lost), with its backoff step advanced.
    fn attempt<T: Transport, R: Rng + ?Sized>(
        &mut self,
        inner: &mut T,
        at: SimTime,
        entry: &mut Entry,
        rng: &mut R,
        out: &mut Vec<Delivery>,
    ) -> bool {
        let k = entry.reports.len() as u64;
        self.attempts += 1;
        if let Some(key) = self.policy.family().size {
            inner.telemetry_mut().observe(key, k as f64);
        }
        let payload = if matches!(self.policy, Policy::Batch { .. }) {
            Payload::batch(&entry.reports).expect("outbox entries are never empty")
        } else {
            Payload::one(&entry.reports[0])
        };
        // Backpressure, failure and refusal all keep the entry: exponential
        // backoff spaces the next attempt, so a saturated server sees a
        // thinning arrival rate instead of a hammering client, and nothing
        // is dropped short of explicit buffer overflow.
        let SendOutcome::Delivered { at: arrived } = inner.transmit(at, payload, rng) else {
            entry.attempts += 1;
            return true;
        };
        if !entry.delivered_before {
            self.delivered += k;
            bump(inner.telemetry_mut(), self.policy.family().delivered, k);
        }
        // The ack coin is drawn only when the knob is armed, so the default
        // configuration consumes exactly the same RNG stream.
        let ack_lost = self.ack_loss > 0.0 && rng.gen::<f64>() < self.ack_loss;
        let reports = if ack_lost {
            entry.reports.clone()
        } else {
            std::mem::take(&mut entry.reports)
        };
        out.extend(reports.into_iter().map(|report| Delivery {
            report,
            at: arrived,
        }));
        if !ack_lost {
            return false;
        }
        // The server got the entry but the ack vanished (one coin per
        // burst: the server acks the envelope, not each report): keep it
        // for a retransmission, at no less than the second backoff step.
        self.retransmits += k;
        let telemetry = inner.telemetry_mut();
        bump(telemetry, self.policy.family().retransmits, k);
        for report in &entry.reports {
            telemetry.record_event(TelemetryEvent::Retransmit {
                at,
                seq: report.seq,
            });
        }
        entry.attempts = (entry.attempts + 1).max(2);
        entry.delivered_before = true;
        true
    }

    /// Attempts freshly offered `reports` once; if they must stay buffered,
    /// evicts the oldest entries to make room and parks them. Returns `true`
    /// when they parked.
    pub(crate) fn send_new<T: Transport, R: Rng + ?Sized>(
        &mut self,
        inner: &mut T,
        at: SimTime,
        reports: Vec<ObservationReport>,
        rng: &mut R,
        out: &mut Vec<Delivery>,
    ) -> bool {
        let mut entry = Entry {
            reports,
            attempts: self.policy.first_attempts(),
            next_attempt: at,
            delivered_before: false,
        };
        if !self.attempt(inner, at, &mut entry, rng, out) {
            return false;
        }
        self.make_room(inner.telemetry_mut(), entry.reports.len());
        self.reschedule(&mut entry, at, rng);
        self.buffered += entry.reports.len();
        self.entries.push_back(entry);
        true
    }

    /// Retries every entry due by `at`, pushing whatever reached the server
    /// into `out`. An entry that stays keeps its place, so the buffer stays
    /// in offer order and eviction always takes the oldest reports.
    pub(crate) fn flush<T: Transport, R: Rng + ?Sized>(
        &mut self,
        inner: &mut T,
        at: SimTime,
        rng: &mut R,
        out: &mut Vec<Delivery>,
    ) {
        let mut kept = VecDeque::with_capacity(self.entries.len());
        for mut entry in std::mem::take(&mut self.entries) {
            if entry.next_attempt > at {
                kept.push_back(entry);
                continue;
            }
            let k = entry.reports.len();
            if self.attempt(inner, at, &mut entry, rng, out) {
                self.reschedule(&mut entry, at, rng);
                kept.push_back(entry);
            } else {
                self.buffered -= k;
            }
        }
        self.entries = kept;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::OutcomeScripted;
    use crate::{DeviceId, SightedBeacon};
    use proptest::prelude::*;
    use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
    use roomsense_sim::rng;
    use std::collections::BTreeSet;

    impl Outbox {
        /// The buffered reports, oldest entry first.
        pub(crate) fn buffered_reports(&self) -> impl Iterator<Item = &ObservationReport> {
            self.entries.iter().flat_map(|entry| &entry.reports)
        }
    }

    fn report(seq: u64) -> ObservationReport {
        ObservationReport {
            device: DeviceId::new(1),
            seq,
            at: SimTime::from_secs(seq),
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

    fn outcome(code: u8) -> SendOutcome {
        match code {
            0 => SendOutcome::Delivered {
                at: SimTime::from_secs(1),
            },
            1 => SendOutcome::Failed,
            2 => SendOutcome::Refused,
            _ => SendOutcome::Backpressured,
        }
    }

    proptest! {
        /// Every offered report ends exactly one of delivered, dropped or
        /// still pending; `delivered` counts each report once however many
        /// lost acks re-sent it; the buffer stays in offer order and
        /// eviction takes the oldest entry first; and the counters mirror
        /// under the policy's key family.
        #[test]
        fn every_policy_conserves_reports(
            policy_code in 0u8..3,
            base_ms in 1u64..5_000,
            capacity in 1usize..6,
            ack_loss in prop::option::of(0.0f64..1.0),
            script in prop::collection::vec(0u8..4, 1..12),
            ops in prop::collection::vec((1usize..4, 0u64..8_000), 1..60),
            seed in any::<u64>(),
        ) {
            let base = SimDuration::from_millis(base_ms);
            let policy = match policy_code {
                0 => Policy::Queue { base },
                1 => Policy::Batch { base },
                _ => Policy::Mesh { base },
            };
            let batch = policy_code == 1;
            let mut outbox = Outbox::new(policy, capacity);
            outbox.set_ack_loss(ack_loss.unwrap_or(0.0));
            let script: Vec<SendOutcome> = script.into_iter().map(outcome).collect();
            let mut inner = OutcomeScripted::new(&script);
            let mut r = rng::for_component(seed, "outbox-conservation");
            let mut at = SimTime::ZERO;
            let mut offered = 0u64;
            let mut deliveries = 0u64;
            let mut delivered = BTreeSet::new();
            let mut evicted = BTreeSet::new();
            for (k, dt_ms) in ops {
                let k = if batch { k.min(capacity) } else { 1 };
                at += SimDuration::from_millis(dt_ms);
                let mut out = Vec::new();
                outbox.flush(&mut inner, at, &mut r, &mut out);
                let before: Vec<u64> = outbox.buffered_reports().map(|r| r.seq).collect();
                outbox.count_offered(inner.telemetry_mut(), k as u64);
                if batch {
                    outbox.make_room(inner.telemetry_mut(), k);
                }
                let fresh = (offered..offered + k as u64).map(report).collect();
                offered += k as u64;
                outbox.send_new(&mut inner, at, fresh, &mut r, &mut out);
                let after: BTreeSet<u64> = outbox.buffered_reports().map(|r| r.seq).collect();
                let gone: Vec<u64> = before.iter().copied().filter(|s| !after.contains(s)).collect();
                prop_assert_eq!(&gone[..], &before[..gone.len()], "eviction is oldest-first");
                evicted.extend(gone);
                deliveries += out.len() as u64;
                delivered.extend(out.iter().map(|d| d.report.seq));
            }
            let buffered: Vec<u64> = outbox.buffered_reports().map(|r| r.seq).collect();
            let buffered_set: BTreeSet<u64> = buffered.iter().copied().collect();
            prop_assert!(
                buffered.windows(2).all(|w| w[0] < w[1]),
                "the buffer stays in offer order: {:?}",
                buffered
            );
            prop_assert_eq!(outbox.pending(), buffered.len());
            prop_assert!(evicted.is_disjoint(&buffered_set));
            for seq in 0..offered {
                let states = [
                    delivered.contains(&seq),
                    !delivered.contains(&seq) && buffered_set.contains(&seq),
                    !delivered.contains(&seq) && evicted.contains(&seq),
                ];
                prop_assert_eq!(states.iter().filter(|&&s| s).count(), 1, "seq {}", seq);
            }
            prop_assert_eq!(outbox.offered, offered);
            prop_assert_eq!(outbox.delivered, delivered.len() as u64);
            prop_assert_eq!(outbox.dropped, evicted.len() as u64);
            prop_assert!(deliveries - delivered.len() as u64 <= outbox.retransmits);
            if ack_loss.is_none() {
                prop_assert_eq!(outbox.retransmits, 0);
                prop_assert_eq!(deliveries, delivered.len() as u64);
                prop_assert_eq!(
                    offered,
                    outbox.delivered + outbox.dropped + outbox.pending() as u64
                );
            }
            let family = policy.family();
            let counter = |key: Option<MetricKey>| key.map(|key| inner.telemetry().counter(key));
            prop_assert_eq!(counter(family.dropped), Some(outbox.dropped));
            if !matches!(policy, Policy::Mesh { .. }) {
                prop_assert_eq!(counter(family.offered), Some(offered));
                prop_assert_eq!(counter(family.delivered), Some(outbox.delivered));
                prop_assert_eq!(counter(family.retransmits), Some(outbox.retransmits));
                let journalled = inner
                    .telemetry()
                    .journal()
                    .filter(|e| matches!(e, TelemetryEvent::Retransmit { .. }))
                    .count() as u64;
                prop_assert_eq!(journalled, outbox.retransmits);
            }
        }

        /// Each wait lies in `[min(base·2^(a−1), 64·base), that + base]`.
        #[test]
        fn backoff_stays_in_its_band(
            base_ms in 1u64..100_000,
            attempts in any::<u32>(),
            small in 0u32..10,
            seed in any::<u64>(),
        ) {
            let base = SimDuration::from_millis(base_ms);
            let mut r = rng::for_component(seed, "outbox-backoff");
            for a in [attempts, small] {
                let steps = a.saturating_sub(1).min(6);
                let floor = SimDuration::from_millis(base_ms << steps);
                let wait = Outbox::backoff(base, a, &mut r);
                prop_assert!(wait >= floor && wait <= floor + base, "a={} wait={}", a, wait);
            }
        }
    }
}
