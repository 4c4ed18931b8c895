//! The `counting` arm: crowd-scale population estimates per preset and
//! delivery condition.

use super::{fnv1a, mean, ExperimentCtx, ExperimentReport};
use crate::crowd;
use roomsense_net::ObservationReport;
use roomsense_sim::SimTime;
use roomsense_telemetry::Recorder;
use std::sync::Arc;

/// One preset × condition cell of the crowd-counting sweep.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CountingCell {
    /// The crowd preset's stable name (`open_plan_office`, …).
    pub(crate) preset: &'static str,
    /// `clean`, `chaos` (uplink outages), or `overload` (bounded mailboxes).
    pub(crate) condition: &'static str,
    /// People in the building, carriers or not.
    pub(crate) subjects: usize,
    /// Subjects actually carrying a reporting device.
    pub(crate) carriers: usize,
    /// Observation reports the condition delivered.
    pub(crate) reports: usize,
    /// Estimate probes taken over the scenario.
    pub(crate) probes: usize,
    /// Mean absolute per-room headcount error across the probes.
    pub(crate) mae: f64,
    /// The preset's declared MAE ceiling for this condition.
    pub(crate) mae_bound: f64,
    /// Ground-truth peak building population across the probes.
    pub(crate) truth_peak: usize,
    /// Estimated building population at the same probe as `truth_peak`.
    pub(crate) estimate_at_peak: f64,
    /// Probes whose building-total confidence interval covered the true
    /// carrier count.
    pub(crate) covered_probes: usize,
    /// Probes answered at [`ServiceLevel::Degraded`] (overload only).
    ///
    /// [`ServiceLevel::Degraded`]: roomsense_net::ServiceLevel
    pub(crate) degraded_probes: usize,
    /// Reports the admission gate refused at least once (overload only).
    pub(crate) shed_reports: u64,
    /// Every sharded answer was bit-identical to the single reference
    /// server fed the same delivered prefix.
    pub(crate) sharded_matches_single: bool,
    /// After every report drained, the view equals the clean oracle's at
    /// the same instant (trivially true for the clean condition itself).
    pub(crate) converged_to_clean: bool,
}

/// What one [`ExperimentCtx::counting`] run returns — everything the
/// checksum covers.
#[derive(Debug, Clone, PartialEq)]
pub struct CountingFingerprint {
    /// BMS shards behind every condition.
    pub(crate) shards: usize,
    /// Evidence window (seconds) the estimates were computed over.
    pub(crate) window_s: u64,
    /// One row per preset × condition, in [`CrowdPreset::ALL`] order.
    ///
    /// [`CrowdPreset::ALL`]: crate::CrowdPreset::ALL
    pub(crate) cells: Vec<CountingCell>,
    /// Checksum of the merged telemetry recorder (`bms.counting.*` et al).
    pub(crate) telemetry_checksum: u64,
}

impl CountingFingerprint {
    /// Every condition's sharded answers matched the single server.
    pub(crate) fn sharded_consistent(&self) -> bool {
        self.cells.iter().all(|c| c.sharded_matches_single)
    }

    /// Every faulted condition converged to the clean oracle after drain.
    pub(crate) fn faulted_converges(&self) -> bool {
        self.cells.iter().all(|c| c.converged_to_clean)
    }

    /// The overload condition actually exercised backpressure somewhere.
    pub(crate) fn backpressure_exercised(&self) -> bool {
        self.cells
            .iter()
            .any(|c| c.condition == "overload" && c.shed_reports > 0 && c.degraded_probes > 0)
    }
}

/// Mean absolute per-room headcount error of one view against the
/// ground-truth occupancy vector (rooms absent from the view count as 0).
fn population_mae(view: &roomsense_net::PopulationView, truth: &[usize]) -> f64 {
    let error: f64 = truth
        .iter()
        .enumerate()
        .map(|(room, &t)| {
            let estimate = view.rooms.get(&room).map_or(0.0, |e| e.count);
            (estimate - t as f64).abs()
        })
        .sum();
    error / truth.len().max(1) as f64
}

/// Whether the building-total estimate covers the `inside` headcount. CI
/// coverage is scored against the total building population, because
/// `observed / carry_rate` estimates *people*, carriers or not.
fn building_ci_covers(
    view: &roomsense_net::PopulationView,
    at: SimTime,
    config: &roomsense_net::CountingConfig,
    inside: usize,
) -> bool {
    let total = roomsense_net::PopulationEvidence {
        observed: view.observed_total(),
        ..Default::default()
    };
    total.finalize(at, config).covers(inside)
}

/// Drives one delivery schedule through a sharded fleet and a single
/// reference server, probing both at each instant in `probes` and once
/// more after everything drained. Returns the probe MAEs (against the
/// ground-truth trace), whether every sharded answer matched the single
/// server's, the per-probe CI coverage count, and the fully-ingested
/// single server (the condition's oracle for later comparisons).
#[allow(clippy::type_complexity)]
fn drive_counting(
    deliveries: &[(SimTime, ObservationReport)],
    shards: usize,
    config: &roomsense_net::CountingConfig,
    probes: &[SimTime],
    trace: &crate::CrowdTrace,
) -> (
    Vec<f64>,
    bool,
    usize,
    roomsense_net::Windowed<roomsense_net::PopulationView>,
    roomsense_net::ShardedBmsServer,
) {
    use roomsense_net::ShardedBmsServer;

    let fleet_estimator: Arc<dyn roomsense_net::OccupancyEstimator> = Arc::new(crowd::room_of);
    let fleet = ShardedBmsServer::new(Arc::clone(&fleet_estimator), shards);
    let single = ShardedBmsServer::new(Arc::clone(&fleet_estimator), 1);
    let mut next = 0usize;
    let mut maes = Vec::with_capacity(probes.len());
    let mut matches = true;
    let mut covered = 0usize;
    for &probe in probes {
        let mut chunk = Vec::new();
        while next < deliveries.len() && deliveries[next].0 <= probe {
            chunk.push(deliveries[next].1.clone());
            next += 1;
        }
        for report in &chunk {
            single.ingest(report.clone());
        }
        fleet.ingest_all(chunk);
        let fleet_view = fleet.population_view(probe, config);
        let single_view = single.population_view(probe, config);
        matches &= fleet_view == single_view;
        maes.push(population_mae(&fleet_view.value, &trace.occupancy(probe)));
        if building_ci_covers(&fleet_view.value, probe, config, trace.total_inside(probe)) {
            covered += 1;
        }
    }
    // Drain: ingest whatever was still in flight past the last probe, then
    // take the final view at the last probe instant so conditions with
    // different delivery schedules are comparable evidence-for-evidence.
    let mut tail = Vec::new();
    while next < deliveries.len() {
        tail.push(deliveries[next].1.clone());
        next += 1;
    }
    for report in &tail {
        single.ingest(report.clone());
    }
    fleet.ingest_all(tail);
    let last = *probes.last().expect("at least one probe");
    let final_fleet = fleet.population_view(last, config);
    let final_single = single.population_view(last, config);
    matches &= final_fleet == final_single;
    (maes, matches, covered, final_fleet, single)
}

impl ExperimentCtx {
    /// The crowd-counting arm: population estimates for every
    /// `CrowdPreset` under clean, chaos
    /// (uplink-outage), and overload (bounded-mailbox) delivery
    /// (defaults: each preset's canonical crowd, 4 shards).
    ///
    /// [`ExperimentCtx::with_devices`] overrides every preset's subject count.
    pub fn counting(&self) -> CountingFingerprint {
        use crate::crowd::{self, CrowdPreset};
        use roomsense_net::{
            Admission, CountingConfig, IngestTier, IngestTierConfig, ServiceLevel, ShardedBmsServer,
        };
        use std::collections::VecDeque;
        let seed = self.seed;
        let subjects_override = self.devices;
        let shards = self.shards.unwrap_or(4);

        /// Probes per scenario: estimate quality is scored at each eighth of
        /// the duration (skipping t = 0, before anyone has reported).
        const PROBES: u64 = 8;
        /// The gateway flush interval for the overload condition: reports are
        /// delivered in per-minute bursts, the worst case for bounded
        /// mailboxes.
        const FLUSH_MS: u64 = 60_000;
        /// Event-loop tick for the overload condition.
        const TICK_MS: u64 = 5_000;
        /// Fault intensity for the derived chaos plan: heavy enough that
        /// outage windows reliably straddle estimate probes.
        const CHAOS_INTENSITY: f64 = 0.75;

        let mut recorder = Recorder::default();
        let mut cells = Vec::with_capacity(CrowdPreset::ALL.len() * 3);
        let config_window_s = CountingConfig::default().window.as_millis() / 1_000;
        for preset in CrowdPreset::ALL {
            let scenario = match subjects_override {
                Some(subjects) => preset.scenario_with(seed, subjects),
                None => preset.scenario(seed),
            };
            let reports = crowd::replay_reports(&scenario, seed);
            let carried = crowd::carriers(&scenario, seed);
            let carriers = carried.iter().filter(|&&c| c).count();
            let subjects = scenario.subjects();
            let config = CountingConfig::default().with_carry_rate(scenario.carry_rate);
            let duration_ms = scenario.duration.as_millis();
            // Probes sit half a report period before each eighth of the run:
            // scoring an instantaneous census *at* a trace boundary (the
            // lecture break, the final exodus) would demand sub-report-period
            // clairvoyance no windowed estimator can have.
            let probes: Vec<SimTime> = (1..=PROBES)
                .map(|k| {
                    SimTime::from_millis(
                        duration_ms * k / PROBES - scenario.report_period.as_millis() / 2,
                    )
                })
                .collect();
            let truth_peak_probe = probes
                .iter()
                .copied()
                .max_by_key(|&p| scenario.trace.total_inside(p))
                .expect("at least one probe");
            let truth_peak = scenario.trace.total_inside(truth_peak_probe);

            // --- clean: every report arrives the instant it is taken -------
            let prompt_deliveries: Vec<(SimTime, ObservationReport)> =
                reports.iter().map(|r| (r.at, r.clone())).collect();
            let (clean_maes, clean_matches, clean_covered, clean_final, clean_oracle) =
                drive_counting(
                    &prompt_deliveries,
                    shards,
                    &config,
                    &probes,
                    &scenario.trace,
                );
            recorder.merge_child(clean_oracle.telemetry_snapshot());
            let clean_peak = clean_oracle
                .population_view(truth_peak_probe, &config)
                .value
                .estimated_total();
            cells.push(CountingCell {
                preset: preset.name(),
                condition: "clean",
                subjects,
                carriers,
                reports: reports.len(),
                probes: probes.len(),
                mae: mean(&clean_maes),
                mae_bound: scenario.mae_bounds.clean,
                truth_peak,
                estimate_at_peak: clean_peak,
                covered_probes: clean_covered,
                degraded_probes: 0,
                shed_reports: 0,
                sharded_matches_single: clean_matches,
                converged_to_clean: true,
            });

            // --- chaos: uplink outages buffer reports until the link returns
            let plan = crate::FaultPlan::generate(
                scenario.rooms,
                scenario.duration,
                CHAOS_INTENSITY,
                seed.wrapping_add(fnv1a(preset.name())),
            );
            let delayed = crowd::delayed_by_outages(&reports, &plan.uplink_outages);
            let (chaos_maes, chaos_matches, chaos_covered, chaos_final, _chaos_oracle) =
                drive_counting(&delayed, shards, &config, &probes, &scenario.trace);
            let chaos_converged = chaos_final == clean_final;
            cells.push(CountingCell {
                preset: preset.name(),
                condition: "chaos",
                subjects,
                carriers,
                reports: delayed.len(),
                probes: probes.len(),
                mae: mean(&chaos_maes),
                mae_bound: scenario.mae_bounds.chaos,
                truth_peak,
                estimate_at_peak: chaos_final.value.estimated_total(),
                covered_probes: chaos_covered,
                degraded_probes: 0,
                shed_reports: 0,
                sharded_matches_single: chaos_matches,
                converged_to_clean: chaos_converged,
            });

            // --- overload: per-minute gateway bursts into bounded mailboxes -
            let fleet_estimator: Arc<dyn roomsense_net::OccupancyEstimator> =
                Arc::new(crowd::room_of);
            let tier_config = IngestTierConfig {
                mailbox_capacity: 32,
                service_rate: 4,
                admit_high: 24,
                admit_low: 4,
            };
            let mut tier =
                IngestTier::new(ShardedBmsServer::new(fleet_estimator, shards), tier_config);
            let mut pending: VecDeque<ObservationReport> = VecDeque::new();
            let mut next = 0usize;
            let mut shed_reports = 0u64;
            let mut degraded_probes = 0usize;
            let mut overload_maes = Vec::with_capacity(probes.len());
            let mut overload_covered = 0usize;
            let mut probe_i = 0usize;
            let mut tick = 1u64;
            let mut now;
            loop {
                now = SimTime::from_millis(tick * TICK_MS);
                // The gateway flushes each minute's reports as one burst.
                while next < reports.len() {
                    let flushed_ms = (reports[next].at.as_millis() / FLUSH_MS + 1) * FLUSH_MS;
                    if flushed_ms <= now.as_millis() {
                        pending.push_back(reports[next].clone());
                        next += 1;
                    } else {
                        break;
                    }
                }
                // Offer in arrival order and stop at the first refusal so
                // per-device sequencing is preserved end to end.
                while let Some(report) = pending.front() {
                    match tier.offer(now, report.clone()) {
                        Admission::Admitted => {
                            pending.pop_front();
                        }
                        Admission::Backpressured => {
                            shed_reports += 1;
                            break;
                        }
                    }
                }
                tier.pump();
                while probe_i < probes.len() && probes[probe_i] <= now {
                    let leveled = tier.population_view(now, &config);
                    if leveled.level == ServiceLevel::Degraded {
                        degraded_probes += 1;
                    }
                    overload_maes.push(population_mae(
                        &leveled.view.value,
                        &scenario.trace.occupancy(now),
                    ));
                    if building_ci_covers(
                        &leveled.view.value,
                        now,
                        &config,
                        scenario.trace.total_inside(now),
                    ) {
                        overload_covered += 1;
                    }
                    probe_i += 1;
                }
                let drained = next >= reports.len() && pending.is_empty();
                if drained && probe_i >= probes.len() {
                    let leveled = tier.population_view(now, &config);
                    if leveled.level == ServiceLevel::Exact {
                        break;
                    }
                }
                tick += 1;
                assert!(
                    tick <= 1_000_000,
                    "overload drive failed to drain ({} reports pending)",
                    pending.len()
                );
            }
            // Post-drain the tier holds every report the clean oracle holds:
            // queried at the same instant, the answers must be bit-identical.
            let final_leveled = tier.population_view(now, &config);
            let oracle_final = clean_oracle.population_view(now, &config);
            let overload_converged = final_leveled.level == ServiceLevel::Exact
                && final_leveled.lagging_shards == 0
                && final_leveled.view == oracle_final;
            recorder.merge_child(tier.telemetry_snapshot());
            cells.push(CountingCell {
                preset: preset.name(),
                condition: "overload",
                subjects,
                carriers,
                reports: reports.len(),
                probes: probes.len(),
                mae: mean(&overload_maes),
                mae_bound: scenario.mae_bounds.overload,
                truth_peak,
                estimate_at_peak: final_leveled.view.value.estimated_total(),
                covered_probes: overload_covered,
                degraded_probes,
                shed_reports,
                sharded_matches_single: overload_converged,
                converged_to_clean: overload_converged,
            });
        }
        CountingFingerprint {
            shards,
            window_s: config_window_s,
            cells,
            telemetry_checksum: recorder.checksum(),
        }
    }
}

impl ExperimentReport for CountingFingerprint {
    fn summary_rows(&self) -> Vec<String> {
        let f = self;
        let mut rows = vec![
            format!(
                "  {} shards, {} s evidence window; MAE is per-room headcount error vs ground truth",
                f.shards, f.window_s
            ),
            "  preset             condition  subj  carry  reports   mae  (bound)  ci-cover  peak truth/est  degr  shed  sharded==single  converged"
                .to_string(),
        ];
        for c in &f.cells {
            rows.push(format!(
                "  {:<17}  {:<9}  {:>4}  {:>5}  {:>7}  {:>4.2}  ({:>4.1})  {:>5}/{:<3}  {:>6}/{:<6.1}  {:>4}  {:>4}  {:<15}  {}",
                c.preset,
                c.condition,
                c.subjects,
                c.carriers,
                c.reports,
                c.mae,
                c.mae_bound,
                c.covered_probes,
                c.probes,
                c.truth_peak,
                c.estimate_at_peak,
                c.degraded_probes,
                c.shed_reports,
                c.sharded_matches_single,
                c.converged_to_clean,
            ));
        }
        rows.push(format!(
            "  all {} cells within MAE bounds; faulted conditions converge to the clean oracle",
            f.cells.len()
        ));
        rows
    }

    fn assert_invariants(&self) {
        let f = self;
        for c in &f.cells {
            assert!(
                c.mae <= c.mae_bound,
                "{}/{}: MAE {:.3} exceeds declared bound {:.1}",
                c.preset,
                c.condition,
                c.mae,
                c.mae_bound
            );
        }
        assert!(
            f.sharded_consistent(),
            "a sharded population answer diverged from the single reference server"
        );
        assert!(
            f.faulted_converges(),
            "a faulted condition failed to converge to the clean oracle after drain"
        );
        assert!(
            f.backpressure_exercised(),
            "the overload condition never shed or degraded - it degraded to a clean run"
        );
    }
}
