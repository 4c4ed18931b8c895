//! The `overload` arm: a lecture-hall surge through bounded mailboxes and
//! a campus federation.

use super::{ExperimentCtx, ExperimentReport};
use crate::crowd;
use roomsense_net::{DeviceId, ObservationReport};
use roomsense_sim::{exec, rng, SimDuration, SimTime};
use std::sync::Arc;

/// What one [`ExperimentCtx::overload`] run returns — a pure
/// function of `(seed, devices, shards)` at any `ROOMSENSE_THREADS`, so
/// the `repro overload` checksum hashes exactly this.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadFingerprint {
    /// Synthetic fleet size across both buildings.
    pub(crate) devices: usize,
    /// Shards per building's [`IngestTier`](roomsense_net::IngestTier).
    pub(crate) shards: usize,
    /// Reports generated by the fleet (trickle + surge schedules).
    pub offered: u64,
    /// Offers admitted into a mailbox (equals `offered` after the drain:
    /// nothing is ever dropped).
    pub admitted: u64,
    /// Offer attempts answered `Backpressured` — each one costs the
    /// client exactly one deferred retry, so this is also the retry
    /// count.
    pub(crate) shed: u64,
    /// Admission-gate pause events across both buildings.
    pub(crate) pauses: u64,
    /// Deepest any client-side retry queue grew during the surge.
    pub(crate) max_client_queue: usize,
    /// Deepest any shard mailbox grew — must stay `<= mailbox_capacity`.
    pub(crate) peak_mailbox_depth: usize,
    /// The configured per-shard mailbox bound.
    pub(crate) mailbox_capacity: usize,
    /// Event-loop ticks until every mailbox and client queue drained.
    pub(crate) ticks_to_drain: u64,
    /// Campus queries answered at `Exact` service level.
    pub(crate) exact_queries: u64,
    /// Campus queries answered at `Degraded` (stale-but-consistent)
    /// service level — the surge must force at least one.
    pub(crate) degraded_queries: u64,
    /// Every sampled query (degraded included) matched the prefix
    /// oracle's digest, and every lagging shard's rooms were marked
    /// stale.
    pub degraded_consistent: bool,
    /// Post-drain, each building's tier digest equals its unthrottled
    /// single-server oracle digest.
    pub digests_match: bool,
    /// The federation's campus digest after the drain.
    pub(crate) campus_digest: u64,
    /// Devices visible in the final campus view (one room each).
    pub(crate) occupants: usize,
    /// Checksum of the merged campus telemetry.
    pub(crate) telemetry_checksum: u64,
}

impl OverloadFingerprint {
    /// Whether resident mailbox state stayed under the configured bound.
    pub fn memory_bounded(&self) -> bool {
        self.peak_mailbox_depth <= self.mailbox_capacity
    }
}

impl ExperimentCtx {
    /// The overload/admission-control bench (the `repro overload` arm): a
    /// two-building campus federation driven past capacity by a lecture-hall
    /// surge, proving the ingestion tier sheds load without ever dropping or
    /// corrupting a report.
    ///
    /// Two buildings share a [`CampusFederation`](roomsense_net::CampusFederation):
    /// a lecture **hall** holding two thirds of the fleet and a quiet
    /// **library** with the rest. Every device trickles a report each 60 s;
    /// between minutes 10 and 15 a lecture change packs the hall and its
    /// devices report every 5 s — far past the tier's drain rate, so
    /// mailboxes fill, admission gates pause, and offers come back
    /// [`Backpressured`](roomsense_net::Admission::Backpressured). Clients
    /// park refused reports in bounded retry queues with exponential backoff
    /// (1→16 tick cap) and re-offer later; nothing is dropped anywhere.
    ///
    /// Three oracles pin the semantics:
    ///
    /// * an **unthrottled single server** per building ingests each report
    ///   the moment it is admitted — post-drain, every tier digest must
    ///   equal its oracle's (exact recovery, sharded == single);
    /// * a **prefix mirror** per building replays exactly the pumped prefix
    ///   into its own sharded server — at every sampled query the tier's
    ///   digest must equal the mirror's, proving degraded answers are the
    ///   *consistent already-ingested prefix*, stale but never wrong;
    /// * every lagging shard's rooms must read `fresh == 0` in a degraded
    ///   view, and the quiet library must stay `Exact` throughout.
    ///
    /// Deterministic at any `ROOMSENSE_THREADS`: schedules come from
    /// [`rng::for_indexed`] streams under [`exec::par_map_indexed`], and the
    /// event loop itself is a sequential virtual-time tick loop.
    ///
    /// Defaults: 600 devices over 8 shards; [`ExperimentCtx::with_devices`]
    /// and [`ExperimentCtx::with_shards`] override them.
    pub fn overload(&self) -> OverloadFingerprint {
        use rand::Rng;
        use roomsense_net::{
            Admission, CampusFederation, IngestTier, IngestTierConfig, ServiceLevel,
            ShardedBmsServer,
        };
        use std::collections::VecDeque;
        let seed = self.seed;
        let devices = self.devices.unwrap_or(600);
        let shards = self.shards.unwrap_or(8);

        const TICK_MS: u64 = 5_000;
        const TRICKLE_PERIOD_MS: u64 = 60_000;
        const SURGE_PERIOD_MS: u64 = 5_000;
        const SURGE_START_MS: u64 = 600_000;
        const SURGE_END_MS: u64 = 900_000;
        const RUN_MS: u64 = 1_800_000;
        const QUERY_EVERY_TICKS: u64 = 12;
        const MAX_TICKS: u64 = 10_000;
        const BACKOFF_CAP_TICKS: u64 = 16;
        const BUILDINGS: [&str; 2] = ["hall", "library"];

        let config = IngestTierConfig {
            mailbox_capacity: 128,
            service_rate: 4,
            admit_high: 96,
            admit_low: 16,
        };
        let ttl = SimDuration::from_secs(300);
        let building_of = |i: usize| usize::from(i % 3 == 2); // 0 = hall, 1 = library

        // Phase 1: per-device report schedules. Hall devices swap their 60 s
        // trickle for a 5 s surge stream inside the lecture-change window and
        // converge on two packed halls; the library never surges.
        let indices: Vec<u64> = (0..devices as u64).collect();
        let schedules = exec::par_map_indexed(&indices, |i, _| {
            let mut r = rng::for_indexed(seed, "overload-device", i as u64);
            let building = building_of(i);
            let trickle_jitter = r.gen_range(0..TRICKLE_PERIOD_MS);
            let surge_jitter = r.gen_range(0..SURGE_PERIOD_MS);
            let home: u16 = if building == 0 {
                (i % 4) as u16
            } else {
                8 + (i % 4) as u16
            };
            let packed: u16 = (i % 2) as u16;
            let mut stamps: Vec<(u64, u16)> = Vec::new();
            let mut t = trickle_jitter;
            while t < RUN_MS {
                let in_surge = (SURGE_START_MS..SURGE_END_MS).contains(&t);
                if !(building == 0 && in_surge) {
                    stamps.push((t, home));
                }
                t += TRICKLE_PERIOD_MS;
            }
            if building == 0 {
                let mut s = SURGE_START_MS + surge_jitter;
                while s < SURGE_END_MS {
                    stamps.push((s, packed));
                    s += SURGE_PERIOD_MS;
                }
            }
            stamps.sort_unstable();
            stamps
                .into_iter()
                .enumerate()
                .map(|(seq, (at_ms, room))| {
                    crowd::room_report(
                        DeviceId::new(i as u32),
                        seq as u64,
                        SimTime::from_millis(at_ms),
                        room,
                        1.5,
                    )
                })
                .collect::<Vec<_>>()
        });
        let offered: u64 = schedules.iter().map(|s| s.len() as u64).sum();

        // Phase 2: the campus, its oracles, and the prefix mirrors.
        let estimator: Arc<dyn roomsense_net::OccupancyEstimator> = Arc::new(crowd::room_of);
        let mut campus = CampusFederation::new();
        for name in BUILDINGS {
            campus.add_building(
                name,
                IngestTier::new(
                    ShardedBmsServer::new(Arc::clone(&estimator), shards),
                    config,
                ),
            );
        }
        let oracles: Vec<ShardedBmsServer> = (0..BUILDINGS.len())
            .map(|_| ShardedBmsServer::new(Arc::clone(&estimator), 1))
            .collect();
        // The mirror re-implements the tier's drain schedule independently:
        // per-shard FIFOs fed on admission, popped `service_rate` at a time in
        // shard order, bulk-ingested into a second sharded server. If the
        // tier's visible state ever differs from the mirror's, a shed or a
        // pump corrupted something.
        let mirrors: Vec<ShardedBmsServer> = (0..BUILDINGS.len())
            .map(|_| ShardedBmsServer::new(Arc::clone(&estimator), shards))
            .collect();
        let mut mirror_boxes: Vec<Vec<VecDeque<ObservationReport>>> =
            vec![vec![VecDeque::new(); mirrors[0].shard_count()]; BUILDINGS.len()];

        struct Client {
            building: usize,
            schedule: Vec<ObservationReport>,
            next_scheduled: usize,
            queue: VecDeque<ObservationReport>,
            next_attempt: u64,
            backoff: u64,
        }
        let mut clients: Vec<Client> = schedules
            .into_iter()
            .enumerate()
            .map(|(i, schedule)| Client {
                building: building_of(i),
                schedule,
                next_scheduled: 0,
                queue: VecDeque::new(),
                next_attempt: 0,
                backoff: 1,
            })
            .collect();

        // Phase 3: the sequential virtual-time event loop.
        let mut admitted = 0u64;
        let mut shed = 0u64;
        let mut max_client_queue = 0usize;
        let mut degraded_consistent = true;
        let mut ticks = 0u64;
        loop {
            let now = SimTime::from_millis(ticks * TICK_MS);
            let mut idle = true;
            for client in &mut clients {
                while client
                    .schedule
                    .get(client.next_scheduled)
                    .is_some_and(|r| r.at <= now)
                {
                    client
                        .queue
                        .push_back(client.schedule[client.next_scheduled].clone());
                    client.next_scheduled += 1;
                }
                if client.next_scheduled < client.schedule.len() || !client.queue.is_empty() {
                    idle = false;
                }
                max_client_queue = max_client_queue.max(client.queue.len());
                if client.queue.is_empty() || client.next_attempt > ticks {
                    continue;
                }
                while let Some(report) = client.queue.front() {
                    match campus.offer(BUILDINGS[client.building], now, report.clone()) {
                        Admission::Admitted => {
                            admitted += 1;
                            oracles[client.building].ingest(report.clone());
                            let shard = mirrors[client.building].shard_of(report.device);
                            mirror_boxes[client.building][shard].push_back(report.clone());
                            client.queue.pop_front();
                            client.backoff = 1;
                        }
                        Admission::Backpressured => {
                            shed += 1;
                            client.next_attempt = ticks + client.backoff;
                            client.backoff = (client.backoff * 2).min(BACKOFF_CAP_TICKS);
                            break;
                        }
                    }
                }
            }
            campus.pump();
            for (mirror, boxes) in mirrors.iter().zip(&mut mirror_boxes) {
                let mut batch = Vec::new();
                for fifo in boxes.iter_mut() {
                    for _ in 0..config.service_rate {
                        match fifo.pop_front() {
                            Some(report) => batch.push(report),
                            None => break,
                        }
                    }
                }
                if !batch.is_empty() {
                    mirror.ingest_all(batch);
                }
            }
            ticks += 1;
            if ticks.is_multiple_of(QUERY_EVERY_TICKS) {
                let view = campus.campus_view(now, ttl);
                // Stale, never wrong: the tier's visible state is exactly the
                // pumped prefix, lagging shards read stale, and the quiet
                // library never degrades.
                for (b, (_, leveled)) in view.buildings.iter().enumerate() {
                    let tier = campus.building(BUILDINGS[b]).expect("registered");
                    degraded_consistent &= tier.state_digest() == mirrors[b].state_digest();
                    if leveled.level == ServiceLevel::Degraded {
                        degraded_consistent &= leveled.lagging_shards > 0;
                    }
                }
                degraded_consistent &= view.buildings[1].1.level == ServiceLevel::Exact;
            }
            if idle && campus.backlog() == 0 {
                break;
            }
            assert!(ticks < MAX_TICKS, "overload event loop failed to drain");
        }
        let end = SimTime::from_millis(ticks * TICK_MS);

        // Phase 4: exact recovery and the campus-wide answer.
        let final_view = campus.campus_view(end, ttl);
        let digests_match = BUILDINGS.iter().enumerate().all(|(b, name)| {
            campus.building(name).expect("registered").state_digest() == oracles[b].state_digest()
        });
        degraded_consistent &= final_view.level == ServiceLevel::Exact;
        let peak_mailbox_depth = BUILDINGS
            .iter()
            .map(|name| {
                campus
                    .building(name)
                    .expect("registered")
                    .peak_mailbox_depth()
            })
            .max()
            .unwrap_or(0);
        let (pauses, exact_queries, degraded_queries) =
            BUILDINGS.iter().fold((0, 0, 0), |(p, e, d), name| {
                let tier = campus.building(name).expect("registered");
                (
                    p + tier.pauses(),
                    e + tier.exact_queries(),
                    d + tier.degraded_queries(),
                )
            });

        OverloadFingerprint {
            devices,
            shards,
            offered,
            admitted,
            shed,
            pauses,
            max_client_queue,
            peak_mailbox_depth,
            mailbox_capacity: config.mailbox_capacity,
            ticks_to_drain: ticks,
            exact_queries,
            degraded_queries,
            degraded_consistent,
            digests_match,
            campus_digest: campus.campus_digest(),
            occupants: final_view.occupants(),
            telemetry_checksum: campus.telemetry_snapshot().checksum(),
        }
    }
}

impl ExperimentReport for OverloadFingerprint {
    fn summary_rows(&self) -> Vec<String> {
        let f = self;
        vec![
            format!(
                "  campus: {} devices over 2 buildings, {} shards each (mailbox cap {}, service {} reports/shard/tick)",
                f.devices, f.shards, f.mailbox_capacity, 4
            ),
            format!(
                "  admission: {} offered, {} admitted, {} shed (retried), {} gate pauses",
                f.offered, f.admitted, f.shed, f.pauses
            ),
            format!(
                "  memory: peak mailbox depth {} (cap {}), deepest client retry queue {}",
                f.peak_mailbox_depth, f.mailbox_capacity, f.max_client_queue
            ),
            format!(
                "  queries: {} exact, {} degraded; drained in {} ticks; final view {} occupants",
                f.exact_queries, f.degraded_queries, f.ticks_to_drain, f.occupants
            ),
            format!(
                "  memory bounded: {}; shed-period answers consistent: {}; post-drain digests exact: {}",
                f.memory_bounded(),
                f.degraded_consistent,
                f.digests_match
            ),
        ]
    }

    fn assert_invariants(&self) {
        let f = self;
        assert!(
            f.memory_bounded(),
            "peak mailbox depth exceeded the configured capacity"
        );
        assert_eq!(f.admitted, f.offered, "load shedding lost reports");
        assert!(f.shed > 0, "the surge never exercised backpressure");
        assert!(f.degraded_queries > 0, "the surge never degraded a query");
        assert!(
            f.degraded_consistent,
            "a degraded answer diverged from the pumped-prefix oracle"
        );
        assert!(
            f.digests_match,
            "post-drain state diverged from the unthrottled oracle"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_experiment_sheds_recovers_and_bounds_memory() {
        let f = &ExperimentCtx::new(31)
            .with_devices(36)
            .with_shards(3)
            .overload();
        assert!(f.shed > 0, "the surge never overflowed admission");
        assert!(f.pauses > 0, "no admission gate ever paused");
        assert!(
            f.memory_bounded(),
            "peak {} > cap {}",
            f.peak_mailbox_depth,
            f.mailbox_capacity
        );
        assert_eq!(
            f.admitted, f.offered,
            "reports were lost despite retry queues"
        );
        assert!(f.degraded_queries > 0, "the surge never degraded a query");
        assert!(f.exact_queries > 0, "the tier never recovered to Exact");
        assert!(
            f.degraded_consistent,
            "a degraded answer diverged from the pumped prefix"
        );
        assert!(
            f.digests_match,
            "post-drain state diverged from the unthrottled oracle"
        );
        assert_eq!(f.occupants, 36, "every device occupies exactly one room");
    }

    #[test]
    fn overload_experiment_is_thread_invariant() {
        let base = ExperimentCtx::new(32)
            .with_devices(24)
            .with_shards(2)
            .overload();
        let serial = exec::with_thread_override(1, || {
            ExperimentCtx::new(32)
                .with_devices(24)
                .with_shards(2)
                .overload()
        });
        assert_eq!(base, serial);
    }
}
