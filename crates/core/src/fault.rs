//! System-wide fault plans: one seeded schedule for every failure domain.
//!
//! The subsystem crates each inject their own faults
//! ([`TransmitterFault`](roomsense_radio::TransmitterFault) dead/degraded
//! beacons, [`FaultyScanner`](roomsense_stack::FaultyScanner) adapter stalls,
//! [`FaultyTransport`](roomsense_net::FaultyTransport) uplink/server
//! downtime). A [`FaultPlan`] draws all of them from one seed and one
//! `intensity` knob so an experiment can sweep "how broken is the building"
//! as a single scalar and still replay any point of the sweep exactly.

use roomsense_radio::TransmitterFault;
use roomsense_sim::{rng, FaultSchedule, SimDuration};
use roomsense_stack::{FaultyScanner, ScannerModel};
use std::fmt;

/// Every scheduled fault for one run: per-beacon radio faults, phone-side
/// scanner faults, and the two uplink hops.
///
/// Build with [`FaultPlan::none`] (a healthy building) or
/// [`FaultPlan::generate`] (a seeded sweep point).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// One fault schedule per installed beacon, in `Scenario::advertisers()`
    /// order.
    pub(crate) transmitter: Vec<TransmitterFault>,
    /// Windows where the phone's BLE adapter is wedged and delivers nothing.
    pub(crate) scanner_stalls: FaultSchedule,
    /// Windows of scan-restart storms (most packets lost in setup/teardown).
    pub(crate) scanner_storms: FaultSchedule,
    /// Per-packet drop probability inside a storm window.
    pub(crate) storm_loss: f64,
    /// Windows where the first uplink hop (Wi-Fi AP or relay beacon) is down.
    pub uplink_outages: FaultSchedule,
    /// Windows where the BMS server itself is unreachable.
    pub server_outages: FaultSchedule,
    /// Windows where the BMS server process is *crashed*: at each window
    /// start the in-memory state since the last checkpoint is lost, and the
    /// server restarts from checkpoint + journal replay when the window
    /// ends.
    pub(crate) server_crashes: FaultSchedule,
}

impl FaultPlan {
    /// A plan in which nothing ever fails, for `beacon_count` beacons.
    pub fn none(beacon_count: usize) -> Self {
        FaultPlan {
            transmitter: vec![TransmitterFault::healthy(); beacon_count],
            scanner_stalls: FaultSchedule::none(),
            scanner_storms: FaultSchedule::none(),
            storm_loss: 0.0,
            uplink_outages: FaultSchedule::none(),
            server_outages: FaultSchedule::none(),
            server_crashes: FaultSchedule::none(),
        }
    }

    /// Draws a full plan over `[0, horizon)` for `beacon_count` beacons.
    ///
    /// `intensity` in `[0, 1]` scales every failure domain at once: `0.0`
    /// yields [`FaultPlan::none`]; `1.0` puts each domain down for roughly a
    /// quarter to a third of the horizon and sags degraded beacons by 6 dB.
    /// The same `(seed, intensity, horizon, beacon_count)` always yields the
    /// same plan; each domain draws from its own named stream so adding
    /// beacons does not shift the uplink schedule.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `[0, 1]`.
    pub fn generate(beacon_count: usize, horizon: SimDuration, intensity: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "fault intensity must be in [0, 1] (got {intensity})"
        );
        if intensity == 0.0 {
            return FaultPlan::none(beacon_count);
        }
        // Outage *length* scales with intensity alongside frequency, so a
        // light sweep point sees a few short windows rather than a coin-flip
        // on one long one.
        let draw = |r: &mut rand::rngs::StdRng, share: f64, mean_outage_s: u64| {
            let outage_s = (mean_outage_s as f64 * (0.4 + 0.6 * intensity)).round() as u64;
            downtime_schedule(r, horizon, share, SimDuration::from_secs(outage_s.max(1)))
        };
        let transmitter = (0..beacon_count)
            .map(|b| {
                let mut r = rng::for_indexed(seed, "fault-plan-tx", b as u64);
                let outages = draw(&mut r, 0.20 * intensity, 90);
                let degraded = draw(&mut r, 0.30 * intensity, 150);
                TransmitterFault::new(outages, degraded, 6.0 * intensity)
            })
            .collect();
        let mut r = rng::for_component(seed, "fault-plan-scanner");
        let scanner_stalls = draw(&mut r, 0.15 * intensity, 25);
        let scanner_storms = draw(&mut r, 0.20 * intensity, 45);
        let mut r = rng::for_component(seed, "fault-plan-uplink");
        let uplink_outages = draw(&mut r, 0.30 * intensity, 80);
        let mut r = rng::for_component(seed, "fault-plan-server");
        let server_outages = draw(&mut r, 0.20 * intensity, 120);
        let mut r = rng::for_component(seed, "fault-plan-server-crash");
        let server_crashes = draw(&mut r, 0.10 * intensity, 60);
        FaultPlan {
            transmitter,
            scanner_stalls,
            scanner_storms,
            storm_loss: (0.5 + 0.4 * intensity).min(1.0),
            uplink_outages,
            server_outages,
            server_crashes,
        }
    }

    /// Total scheduled downtime of the end-to-end report path (either hop
    /// down blocks delivery; overlap is not double-counted).
    pub fn uplink_downtime(&self) -> SimDuration {
        merged_downtime(&self.uplink_outages, &self.server_outages)
    }

    /// Wraps a phone's scanner model in the plan's adapter faults.
    pub(crate) fn scanner<M: ScannerModel>(&self, inner: M) -> FaultyScanner<M> {
        FaultyScanner::new(
            inner,
            self.scanner_stalls.clone(),
            self.scanner_storms.clone(),
            self.storm_loss,
        )
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tx_windows: usize = self
            .transmitter
            .iter()
            .map(|t| t.outages().windows().len() + t.degraded().windows().len())
            .sum();
        write!(
            f,
            "fault plan: {} tx window(s) over {} beacon(s), {} stall(s), {} storm(s), {} uplink + {} server outage(s), {} crash(es)",
            tx_windows,
            self.transmitter.len(),
            self.scanner_stalls.windows().len(),
            self.scanner_storms.windows().len(),
            self.uplink_outages.windows().len(),
            self.server_outages.windows().len(),
            self.server_crashes.windows().len()
        )
    }
}

/// Draws a schedule whose long-run downtime share is roughly `share`, made
/// of outages with mean length `mean_outage`.
fn downtime_schedule<R: rand::Rng + ?Sized>(
    rng: &mut R,
    horizon: SimDuration,
    share: f64,
    mean_outage: SimDuration,
) -> FaultSchedule {
    if share <= 0.0 {
        return FaultSchedule::none();
    }
    let share = share.min(0.9);
    let uptime_ms = (mean_outage.as_millis() as f64 * (1.0 - share) / share).max(1.0);
    FaultSchedule::generate(
        rng,
        horizon,
        SimDuration::from_millis(uptime_ms.round() as u64),
        mean_outage,
    )
}

/// Downtime of the union of two schedules (sweep over merged windows).
fn merged_downtime(a: &FaultSchedule, b: &FaultSchedule) -> SimDuration {
    let mut edges: Vec<(roomsense_sim::SimTime, roomsense_sim::SimTime)> = a
        .windows()
        .iter()
        .chain(b.windows().iter())
        .map(|w| (w.from, w.until))
        .collect();
    edges.sort();
    let mut total = SimDuration::ZERO;
    let mut current: Option<(roomsense_sim::SimTime, roomsense_sim::SimTime)> = None;
    for (from, until) in edges {
        match current {
            Some((cf, cu)) if from <= cu => current = Some((cf, cu.max(until))),
            Some((cf, cu)) => {
                total += cu.saturating_since(cf);
                current = Some((from, until));
            }
            None => current = Some((from, until)),
        }
    }
    if let Some((cf, cu)) = current {
        total += cu.saturating_since(cf);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_sim::{FaultWindow, SimTime};

    #[test]
    fn zero_intensity_is_benign() {
        let plan = FaultPlan::generate(5, SimDuration::from_secs(600), 0.0, 42);
        assert_eq!(plan, FaultPlan::none(5));
        assert_eq!(plan.uplink_downtime(), SimDuration::ZERO);
    }

    #[test]
    fn same_seed_same_plan() {
        let plan = || FaultPlan::generate(5, SimDuration::from_secs(600), 0.5, 42);
        assert_eq!(plan(), plan());
    }

    #[test]
    fn different_seeds_differ() {
        let plan = |s| FaultPlan::generate(5, SimDuration::from_secs(600), 0.5, s);
        assert_ne!(plan(1), plan(2));
    }

    #[test]
    fn beacons_draw_independent_streams() {
        let plan = FaultPlan::generate(3, SimDuration::from_secs(3_600), 0.8, 7);
        assert_ne!(plan.transmitter[0], plan.transmitter[1]);
        // And the uplink schedule is unchanged by the beacon count.
        let more = FaultPlan::generate(9, SimDuration::from_secs(3_600), 0.8, 7);
        assert_eq!(plan.uplink_outages, more.uplink_outages);
        assert_eq!(plan.server_outages, more.server_outages);
    }

    #[test]
    fn intensity_scales_downtime() {
        let horizon = SimDuration::from_secs(36_000);
        let downtime = |i| {
            FaultPlan::generate(1, horizon, i, 11)
                .uplink_outages
                .total_downtime()
        };
        let light = downtime(0.25);
        let heavy = downtime(1.0);
        assert!(heavy > light, "heavy {heavy} vs light {light}");
        // At full intensity the uplink is down for a substantial share but
        // not most of the time.
        let share = heavy.as_secs_f64() / horizon.as_secs_f64();
        assert!((0.15..0.5).contains(&share), "share {share}");
    }

    #[test]
    fn merged_downtime_handles_overlap() {
        let a = FaultSchedule::new(vec![FaultWindow::new(
            SimTime::from_secs(0),
            SimTime::from_secs(10),
        )]);
        let b = FaultSchedule::new(vec![
            FaultWindow::new(SimTime::from_secs(5), SimTime::from_secs(15)),
            FaultWindow::new(SimTime::from_secs(30), SimTime::from_secs(40)),
        ]);
        assert_eq!(merged_downtime(&a, &b), SimDuration::from_secs(25));
        assert_eq!(
            merged_downtime(&a, &FaultSchedule::none()),
            SimDuration::from_secs(10)
        );
    }

    #[test]
    #[should_panic(expected = "intensity")]
    fn out_of_range_intensity_panics() {
        let _ = FaultPlan::generate(1, SimDuration::from_secs(60), 1.5, 1);
    }
}
