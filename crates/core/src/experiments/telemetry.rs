//! The `telemetry` arm: one recorder across fleet, filter, uplink, BMS and
//! energy.

use super::house::{
    ingest_with_crashes, itinerary_walks, lossy_ack_uplink, report_stream, uplink_energy,
};
use super::{ExperimentCtx, ExperimentReport};
use crate::{features_from_snapshots, BatchConfig, PipelineConfig, Scenario};
use roomsense_building::presets;
use roomsense_energy::UplinkArchitecture;
use roomsense_ml::SvmParams;
use roomsense_net::{BtRelayTransport, OccupancyEstimator, WifiTransport};
use roomsense_sim::{rng, SimDuration, SimTime};
use roomsense_telemetry::Recorder;
use std::sync::Arc;

/// Convenience: feature vector of a cycle under a scenario's layout.
pub(crate) fn cycle_features(scenario: &Scenario, record: &crate::CycleRecord) -> Vec<f64> {
    features_from_snapshots(&record.snapshots, &scenario.beacon_order())
}

/// The merged telemetry snapshot from one instrumented end-to-end run (the
/// `repro telemetry` arm).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryResult {
    /// The global recorder: faulted fleet, SVM margins, chaos uplink, BMS
    /// ingestion, and the energy account, merged in that order.
    pub recorder: roomsense_telemetry::Recorder,
    /// Reports offered to the uplink queue.
    pub offered: u64,
    /// Reports delivered end-to-end (after dedup on the wire).
    pub delivered: u64,
}

impl ExperimentCtx {
    /// Runs one faulted fleet through every instrumented layer and returns the
    /// single merged [`Recorder`] — the
    /// observability demo and the determinism fixture in one.
    ///
    /// Four phases, all recording into one recorder:
    ///
    /// 1. **Fleet** — a two-occupant faulted run over the paper house
    ///    ([`run_fleet`](crate::run_fleet),
    ///    fault intensity 0.6): scan stalls, dropped samples, filter
    ///    holds/resets, radio losses.
    /// 2. **SVM margins** — a binary SVM separates the two devices' cycle
    ///    feature vectors and every decision margin lands in `ml.svm.margin`.
    /// 3. **Chaos uplink** — the sequenced report stream is pumped through a
    ///    queued, ack-lossy Wi-Fi→BT failover chain with a blackout and a BMS
    ///    crash window; retransmits, failovers, dedup hits, and checkpoints
    ///    come from the transport and server recorders, merged afterwards.
    /// 4. **Energy** — the uplink's transport bursts are priced and published
    ///    as `energy.*` gauges.
    ///
    /// Deterministic for a fixed `seed` at any `ROOMSENSE_THREADS`: the only
    /// parallel section (the fleet) merges per-device child recorders in
    /// device order, and every other phase is sequential.
    pub fn telemetry(&self) -> TelemetryResult {
        use roomsense_building::mobility::MobilityModel;
        use roomsense_building::RoomId;
        use roomsense_ml::BinarySvm;
        use roomsense_net::{
            FailoverTransport, FaultyTransport, LinkHealthConfig, ObservationReport,
        };
        use roomsense_sim::{FaultSchedule, FaultWindow};
        use roomsense_telemetry::{keys, TelemetryEvent};
        let seed = self.seed;

        let mut recorder = Recorder::default();
        let scenario = Scenario::from_plan(presets::paper_house(), seed);
        let config = PipelineConfig::paper_android();
        let duration = SimDuration::from_secs(300);
        let drain = SimDuration::from_secs(120);

        // Phase 1: the faulted fleet. Two occupants walk the house while the
        // fault plan kills beacons, stalls scanners, and drops the uplink.
        let itineraries: [&[(RoomId, SimDuration)]; 2] = [
            &[
                (RoomId::new(0), SimDuration::from_secs(150)),
                (RoomId::new(2), SimDuration::from_secs(150)),
            ],
            &[
                (RoomId::new(4), SimDuration::from_secs(180)),
                (RoomId::new(1), SimDuration::from_secs(120)),
            ],
        ];
        let walks = itinerary_walks(&scenario, seed, "telemetry-walk", &itineraries);
        let occupants: Vec<&dyn MobilityModel> = walks.iter().map(|w| w as _).collect();
        let plan = crate::FaultPlan::generate(scenario.advertisers().len(), duration, 0.6, seed);
        let events = crate::run_fleet(
            &scenario,
            &config,
            &occupants,
            duration,
            seed,
            &plan,
            &BatchConfig::default(),
            &mut recorder,
        );

        // Phase 2: SVM margins. A binary SVM separating the two devices'
        // cycle features is a cheap, deterministic stand-in for the paper's
        // room classifier; what matters here is that every decision margin is
        // observable.
        let labelled: Vec<(SimTime, Vec<f64>, f64)> = events
            .iter()
            .filter(|e| !e.record.snapshots.is_empty())
            .map(|e| {
                let features = cycle_features(&scenario, &e.record);
                let target = if e.device.value() == 0 { 1.0 } else { -1.0 };
                (e.at, features, target)
            })
            .collect();
        let has_both_classes =
            labelled.iter().any(|(_, _, t)| *t > 0.0) && labelled.iter().any(|(_, _, t)| *t < 0.0);
        if has_both_classes {
            let rows: Vec<Vec<f64>> = labelled.iter().map(|(_, f, _)| f.clone()).collect();
            let targets: Vec<f64> = labelled.iter().map(|(_, _, t)| *t).collect();
            let svm = BinarySvm::fit(rows, &targets, &SvmParams::default());
            for (at, features, _) in &labelled {
                let margin = svm.decision(features);
                recorder.observe(keys::ML_SVM_MARGIN, margin);
                recorder.record_event(TelemetryEvent::SvmMargin { at: *at, margin });
            }
        }

        // Phase 3: the chaos uplink. Lossy acks force retransmits, a blackout
        // forces failover, and a server crash forces a checkpoint restore —
        // each layer records into its own recorder, merged below.
        let reports = report_stream(&events, true);
        let wifi_outages = FaultSchedule::new(vec![FaultWindow::new(
            SimTime::from_secs(120),
            SimTime::from_secs(240),
        )]);
        let crash_schedule = FaultSchedule::new(vec![FaultWindow::new(
            SimTime::from_secs(200),
            SimTime::from_secs(230),
        )]);
        let chain = FaultyTransport::new(
            FailoverTransport::new(
                FaultyTransport::new(
                    WifiTransport::new(0.99, SimDuration::from_millis(50)),
                    wifi_outages,
                ),
                BtRelayTransport::default(),
                LinkHealthConfig::default(),
            ),
            crash_schedule.clone(),
        );
        let mut uplink_rng = rng::for_component(seed, "telemetry-uplink");
        let uplink = lossy_ack_uplink(chain, &reports, duration, drain, &mut uplink_rng);

        // Ingest with periodic checkpoints; at the crash-window start the
        // in-memory server is lost and restarts from the last checkpoint plus
        // the journal tail (the server recorder rolls back and replays with
        // it, so its snapshot reflects what the surviving server counted).
        let nearest_beacon: Arc<dyn OccupancyEstimator> = Arc::new(|report: &ObservationReport| {
            report
                .beacons
                .iter()
                .min_by(|a, b| a.distance_m.partial_cmp(&b.distance_m).expect("finite"))
                .map(|b| b.identity.minor.value() as usize)
        });
        let server = ingest_with_crashes(
            &nearest_beacon,
            &uplink.deliveries,
            &crash_schedule,
            SimTime::ZERO + duration + drain,
            true,
        )
        .server;
        let transport_events = uplink.telemetry.transport_events();
        recorder.merge_child(uplink.telemetry);
        recorder.merge_child(server.telemetry_snapshot());

        // Phase 4: price the uplink's bursts and publish the energy account.
        uplink_energy(
            transport_events,
            duration,
            drain,
            UplinkArchitecture::Failover,
        )
        .record_into(&mut recorder);

        TelemetryResult {
            recorder,
            offered: uplink.offered,
            delivered: uplink.delivered,
        }
    }
}

impl ExperimentReport for TelemetryResult {
    fn checksum(&self) -> u64 {
        self.recorder.checksum()
    }

    fn summary_rows(&self) -> Vec<String> {
        use roomsense_telemetry::keys;
        let r = &self.recorder;
        let count_of = |k| r.histogram(k).map_or(0, |h| h.count());
        let mean_of = |k| r.histogram(k).and_then(|h| h.mean()).unwrap_or(0.0);
        let mut rows = vec!["  metric                       value      paper artifact".to_string()];
        let counters: [(&str, u64, &str); 12] = [
            (
                "scan.cycles",
                r.counter(keys::SCAN_CYCLES),
                "Section V scan loop",
            ),
            (
                "scan.stalls",
                r.counter(keys::SCAN_STALLS),
                "Fig 5 Android stalls",
            ),
            (
                "scan.samples",
                r.counter(keys::SCAN_SAMPLES),
                "Section V (5 samples/cycle)",
            ),
            (
                "scan.samples_dropped",
                r.counter(keys::SCAN_SAMPLES_DROPPED),
                "fault-layer loss",
            ),
            (
                "filter.holds",
                r.counter(keys::FILTER_HOLDS),
                "Section V loss policy",
            ),
            (
                "filter.drops",
                r.counter(keys::FILTER_DROPS),
                "Section V loss policy",
            ),
            (
                "radio.rx.lost",
                r.counter(keys::RADIO_RX_LOST),
                "Fig 5 loss rate",
            ),
            (
                "net.queue.retransmits",
                r.counter(keys::NET_QUEUE_RETRANSMITS),
                "uplink reliability",
            ),
            (
                "net.failover.sends",
                r.counter(keys::NET_FAILOVER_SENDS),
                "Wi-Fi->BT failover",
            ),
            (
                "bms.ingest.duplicates",
                r.counter(keys::BMS_INGEST_DUPLICATES),
                "exactly-once ingest",
            ),
            (
                "bms.ingest.accepted",
                r.counter(keys::BMS_INGEST_ACCEPTED),
                "occupancy table input",
            ),
            (
                "bms.checkpoints",
                r.counter(keys::BMS_CHECKPOINTS),
                "crash/restore",
            ),
        ];
        for (name, value, artifact) in counters {
            rows.push(format!("  {name:<28} {value:>8}   {artifact}"));
        }
        rows.push(format!(
            "  {:<28} {:>8}   Fig 9 decision margins (mean {:+.2})",
            "ml.svm.margin",
            count_of(keys::ML_SVM_MARGIN),
            mean_of(keys::ML_SVM_MARGIN),
        ));
        rows.push(format!(
            "  {:<28} {:>8.0}   Figs 8-10 energy account (mJ)",
            "energy.total_mj",
            r.gauge(keys::ENERGY_TOTAL_MJ).unwrap_or(0.0),
        ));
        rows.push(format!(
            "  uplink: {}/{} reports delivered; journal holds {} events ({} dropped past capacity)",
            self.delivered,
            self.offered,
            r.journal().count(),
            r.journal_dropped(),
        ));
        rows
    }
}
