//! The energy ledger: pricing a usage timeline into per-component energy.

use crate::{PowerProfile, UplinkArchitecture};
use roomsense_net::{TransportEvent, TransportKind};
use roomsense_sim::SimDuration;
use roomsense_telemetry::{keys, Recorder};
use std::collections::BTreeMap;
use std::fmt;

/// The power-consuming components we account separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ComponentKind {
    /// Device floor (always on).
    Baseline,
    /// The app's background service CPU.
    CpuService,
    /// The BLE scanner.
    BleScan,
    /// Wi-Fi adapter associated/idle.
    WifiIdle,
    /// Wi-Fi transmitting.
    WifiActive,
    /// Wi-Fi post-transfer tail.
    WifiTail,
    /// Wi-Fi wake/re-associate before a batched burst (batched
    /// architecture only — the price of not staying associated).
    WifiWake,
    /// Bluetooth relay connections.
    BtConnection,
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ComponentKind::Baseline => "baseline",
            ComponentKind::CpuService => "cpu-service",
            ComponentKind::BleScan => "ble-scan",
            ComponentKind::WifiIdle => "wifi-idle",
            ComponentKind::WifiActive => "wifi-active",
            ComponentKind::WifiTail => "wifi-tail",
            ComponentKind::WifiWake => "wifi-wake",
            ComponentKind::BtConnection => "bt-connection",
        };
        f.write_str(s)
    }
}

/// What the device did over a run — the input to [`account`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UsageTimeline {
    /// Total wall-clock duration of the run.
    pub duration: SimDuration,
    /// Total time the BLE scanner was actively scanning (≤ `duration`).
    pub scan_active: SimDuration,
    /// Every uplink radio burst.
    pub transport_events: Vec<TransportEvent>,
}

/// Energy totals per component, in millijoules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergyLedger {
    totals_mj: BTreeMap<ComponentKind, f64>,
}

impl EnergyLedger {
    /// Creates an empty ledger.
    pub(crate) fn new() -> Self {
        EnergyLedger::default()
    }

    /// Adds `power_mw` drawn for `duration` to a component.
    pub(crate) fn charge(
        &mut self,
        component: ComponentKind,
        power_mw: f64,
        duration: SimDuration,
    ) {
        *self.totals_mj.entry(component).or_insert(0.0) += power_mw * duration.as_secs_f64();
    }

    /// Energy charged to one component, in millijoules.
    pub fn energy_mj(&self, component: ComponentKind) -> f64 {
        self.totals_mj.get(&component).copied().unwrap_or(0.0)
    }

    /// Total energy across components, in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.totals_mj.values().sum()
    }

    /// Total energy in milliwatt-hours (the unit batteries are rated in).
    pub(crate) fn total_mwh(&self) -> f64 {
        self.total_mj() / 3600.0
    }

    /// Average power over `duration`, in milliwatts.
    pub fn mean_power_mw(&self, duration: SimDuration) -> f64 {
        if duration.is_zero() {
            return 0.0;
        }
        self.total_mj() / duration.as_secs_f64()
    }

    /// Per-component breakdown, largest first.
    pub(crate) fn breakdown(&self) -> Vec<(ComponentKind, f64)> {
        let mut items: Vec<(ComponentKind, f64)> =
            self.totals_mj.iter().map(|(k, v)| (*k, *v)).collect();
        items.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite energies"));
        items
    }

    /// Publishes the ledger into `telemetry` as `energy.*_mj` gauges (one
    /// per component, plus the total).
    pub fn record_into(&self, telemetry: &mut Recorder) {
        telemetry.set_gauge(
            keys::ENERGY_BASELINE_MJ,
            self.energy_mj(ComponentKind::Baseline),
        );
        telemetry.set_gauge(
            keys::ENERGY_CPU_SERVICE_MJ,
            self.energy_mj(ComponentKind::CpuService),
        );
        telemetry.set_gauge(
            keys::ENERGY_BLE_SCAN_MJ,
            self.energy_mj(ComponentKind::BleScan),
        );
        telemetry.set_gauge(
            keys::ENERGY_WIFI_IDLE_MJ,
            self.energy_mj(ComponentKind::WifiIdle),
        );
        telemetry.set_gauge(
            keys::ENERGY_WIFI_ACTIVE_MJ,
            self.energy_mj(ComponentKind::WifiActive),
        );
        telemetry.set_gauge(
            keys::ENERGY_WIFI_TAIL_MJ,
            self.energy_mj(ComponentKind::WifiTail),
        );
        telemetry.set_gauge(
            keys::ENERGY_WIFI_WAKE_MJ,
            self.energy_mj(ComponentKind::WifiWake),
        );
        telemetry.set_gauge(
            keys::ENERGY_BT_CONNECTION_MJ,
            self.energy_mj(ComponentKind::BtConnection),
        );
        telemetry.set_gauge(keys::ENERGY_TOTAL_MJ, self.total_mj());
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "energy ledger ({:.1} mWh total):", self.total_mwh())?;
        for (component, mj) in self.breakdown() {
            writeln!(f, "  {component:<14} {:.1} mWh", mj / 3600.0)?;
        }
        Ok(())
    }
}

/// Prices a usage timeline under one uplink architecture.
///
/// Continuous components (baseline, CPU, scan, Wi-Fi idle) are charged for
/// their dwell; each transport event is charged for its active burst, and
/// Wi-Fi events additionally for the post-transfer tail. The Wi-Fi idle
/// charge applies to the Wi-Fi and failover architectures (both keep the
/// adapter associated) — the Bluetooth architecture keeps the adapter off,
/// which is exactly where the paper's 15 % saving comes from. A failover
/// run's mixed event log is priced per burst: Wi-Fi bursts as Wi-Fi
/// (active + tail), relay bursts as BT connections.
///
/// The batched architecture drops the idle dwell entirely (the adapter
/// disassociates between coalesced bursts) and instead charges a
/// wake/re-associate cost ([`ComponentKind::WifiWake`], at active power for
/// `PowerProfile::wifi_wake_duration`) per Wi-Fi burst — fewer bursts is
/// the whole point, so the event log `roomsense_net::BatchingTransport`
/// produces makes the trade explicit.
pub fn account(
    profile: &PowerProfile,
    timeline: &UsageTimeline,
    architecture: UplinkArchitecture,
) -> EnergyLedger {
    let mut ledger = EnergyLedger::new();
    ledger.charge(
        ComponentKind::Baseline,
        profile.baseline_mw,
        timeline.duration,
    );
    ledger.charge(
        ComponentKind::CpuService,
        profile.cpu_service_mw,
        timeline.duration,
    );
    ledger.charge(
        ComponentKind::BleScan,
        profile.ble_scan_mw,
        timeline.scan_active,
    );
    if matches!(
        architecture,
        UplinkArchitecture::Wifi | UplinkArchitecture::Failover
    ) {
        ledger.charge(
            ComponentKind::WifiIdle,
            profile.wifi_idle_mw,
            timeline.duration,
        );
    }
    for event in &timeline.transport_events {
        match event.kind {
            TransportKind::Wifi => {
                if architecture == UplinkArchitecture::Batched {
                    // The adapter was asleep: pay the wake/re-associate
                    // ramp before the burst.
                    ledger.charge(
                        ComponentKind::WifiWake,
                        profile.wifi_active_mw,
                        profile.wifi_wake_duration,
                    );
                }
                ledger.charge(
                    ComponentKind::WifiActive,
                    profile.wifi_active_mw,
                    event.active,
                );
                ledger.charge(
                    ComponentKind::WifiTail,
                    profile.wifi_tail_mw,
                    profile.wifi_tail_duration,
                );
            }
            // A peer-mesh hop is a phone-to-phone BLE connection: same
            // radio, same power draw as the beacon relay.
            TransportKind::BluetoothRelay | TransportKind::PeerMesh => {
                ledger.charge(
                    ComponentKind::BtConnection,
                    profile.bt_connection_mw,
                    event.active,
                );
            }
        }
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_sim::SimTime;

    fn event(kind: TransportKind, at_secs: u64, active_ms: u64) -> TransportEvent {
        TransportEvent {
            kind,
            start: SimTime::from_secs(at_secs),
            active: SimDuration::from_millis(active_ms),
            delivered: true,
        }
    }

    fn hour_timeline(events: Vec<TransportEvent>) -> UsageTimeline {
        UsageTimeline {
            duration: SimDuration::from_secs(3600),
            scan_active: SimDuration::from_secs(3600),
            transport_events: events,
        }
    }

    #[test]
    fn charge_accumulates() {
        let mut ledger = EnergyLedger::new();
        ledger.charge(ComponentKind::BleScan, 100.0, SimDuration::from_secs(10));
        ledger.charge(ComponentKind::BleScan, 100.0, SimDuration::from_secs(5));
        assert!((ledger.energy_mj(ComponentKind::BleScan) - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn wifi_architecture_pays_idle_and_tail() {
        let profile = PowerProfile::galaxy_s3_mini();
        let events = vec![event(TransportKind::Wifi, 10, 80)];
        let ledger = account(&profile, &hour_timeline(events), UplinkArchitecture::Wifi);
        assert!(ledger.energy_mj(ComponentKind::WifiIdle) > 0.0);
        assert!(ledger.energy_mj(ComponentKind::WifiActive) > 0.0);
        assert!(ledger.energy_mj(ComponentKind::WifiTail) > 0.0);
        assert_eq!(ledger.energy_mj(ComponentKind::BtConnection), 0.0);
    }

    #[test]
    fn bt_architecture_never_touches_wifi() {
        let profile = PowerProfile::galaxy_s3_mini();
        let events = vec![event(TransportKind::BluetoothRelay, 10, 400)];
        let ledger = account(
            &profile,
            &hour_timeline(events),
            UplinkArchitecture::BluetoothRelay,
        );
        assert_eq!(ledger.energy_mj(ComponentKind::WifiIdle), 0.0);
        assert_eq!(ledger.energy_mj(ComponentKind::WifiActive), 0.0);
        assert!(ledger.energy_mj(ComponentKind::BtConnection) > 0.0);
    }

    #[test]
    fn failover_architecture_prices_mixed_bursts_and_wifi_idle() {
        // A failover run: mostly Wi-Fi bursts, a stretch of BT bursts while
        // Wi-Fi was down. The adapter stays associated throughout, so idle
        // is charged, and each burst is priced by its own radio.
        let profile = PowerProfile::galaxy_s3_mini();
        let events = vec![
            event(TransportKind::Wifi, 10, 80),
            event(TransportKind::BluetoothRelay, 20, 500),
            event(TransportKind::Wifi, 30, 80),
        ];
        let ledger = account(
            &profile,
            &hour_timeline(events),
            UplinkArchitecture::Failover,
        );
        assert!(ledger.energy_mj(ComponentKind::WifiIdle) > 0.0);
        assert!(ledger.energy_mj(ComponentKind::WifiActive) > 0.0);
        assert!(ledger.energy_mj(ComponentKind::WifiTail) > 0.0);
        assert!(ledger.energy_mj(ComponentKind::BtConnection) > 0.0);
    }

    #[test]
    fn batched_architecture_trades_idle_dwell_for_wake_ramps() {
        let profile = PowerProfile::galaxy_s3_mini();
        // Per-report Wi-Fi: 1800 bursts, adapter associated all hour.
        let per_report: Vec<TransportEvent> = (0..1800)
            .map(|i| event(TransportKind::Wifi, i * 2, 65))
            .collect();
        // Batched: the same 1800 reports coalesced 8-at-a-time into 225
        // bigger bursts, adapter asleep between them.
        let batched: Vec<TransportEvent> = (0..225)
            .map(|i| event(TransportKind::Wifi, i * 16, 120))
            .collect();
        let wifi = account(
            &profile,
            &hour_timeline(per_report),
            UplinkArchitecture::Wifi,
        );
        let coalesced = account(
            &profile,
            &hour_timeline(batched),
            UplinkArchitecture::Batched,
        );
        // No idle dwell, but a wake charge per burst.
        assert_eq!(coalesced.energy_mj(ComponentKind::WifiIdle), 0.0);
        let wake = coalesced.energy_mj(ComponentKind::WifiWake);
        assert!(
            (wake - 225.0 * profile.wifi_active_mw * profile.wifi_wake_duration.as_secs_f64())
                .abs()
                < 1e-6
        );
        // And the trade wins: 225 wakes cost less than an hour of idle
        // dwell plus 1575 extra tails.
        assert!(
            coalesced.total_mj() < wifi.total_mj(),
            "batched {} >= per-report {}",
            coalesced.total_mj(),
            wifi.total_mj()
        );
        // Non-batched architectures never charge the wake component.
        assert_eq!(wifi.energy_mj(ComponentKind::WifiWake), 0.0);
    }

    #[test]
    fn record_into_publishes_the_wake_gauge() {
        let profile = PowerProfile::galaxy_s3_mini();
        let events = vec![event(TransportKind::Wifi, 10, 80)];
        let ledger = account(
            &profile,
            &hour_timeline(events),
            UplinkArchitecture::Batched,
        );
        let mut telemetry = Recorder::default();
        ledger.record_into(&mut telemetry);
        assert_eq!(
            telemetry.gauge(keys::ENERGY_WIFI_WAKE_MJ),
            Some(ledger.energy_mj(ComponentKind::WifiWake))
        );
    }

    #[test]
    fn paper_fifteen_percent_saving_shape() {
        // One report per 2 s scan cycle for an hour, both architectures.
        let profile = PowerProfile::galaxy_s3_mini();
        let wifi_events: Vec<TransportEvent> = (0..1800)
            .map(|i| event(TransportKind::Wifi, i * 2, 65))
            .collect();
        let bt_events: Vec<TransportEvent> = (0..1800)
            .map(|i| event(TransportKind::BluetoothRelay, i * 2, 500))
            .collect();
        let wifi = account(
            &profile,
            &hour_timeline(wifi_events),
            UplinkArchitecture::Wifi,
        );
        let bt = account(
            &profile,
            &hour_timeline(bt_events),
            UplinkArchitecture::BluetoothRelay,
        );
        let saving = 1.0 - bt.total_mj() / wifi.total_mj();
        assert!(
            (0.10..=0.20).contains(&saving),
            "saving {saving} outside the paper's ~15% band"
        );
        // And the 10-hour headline: bt architecture mean power vs battery.
        let mean_mw = bt.mean_power_mw(SimDuration::from_secs(3600));
        let lifetime_h = profile.battery_capacity_mwh / mean_mw;
        assert!(
            (9.0..=12.5).contains(&lifetime_h),
            "lifetime {lifetime_h} h not around 10 h"
        );
    }

    #[test]
    fn record_into_publishes_component_gauges() {
        let profile = PowerProfile::galaxy_s3_mini();
        let events = vec![
            event(TransportKind::Wifi, 10, 80),
            event(TransportKind::BluetoothRelay, 20, 500),
        ];
        let ledger = account(
            &profile,
            &hour_timeline(events),
            UplinkArchitecture::Failover,
        );
        let mut telemetry = Recorder::default();
        ledger.record_into(&mut telemetry);
        assert_eq!(
            telemetry.gauge(keys::ENERGY_TOTAL_MJ),
            Some(ledger.total_mj())
        );
        assert_eq!(
            telemetry.gauge(keys::ENERGY_BLE_SCAN_MJ),
            Some(ledger.energy_mj(ComponentKind::BleScan))
        );
        assert_eq!(
            telemetry.gauge(keys::ENERGY_BT_CONNECTION_MJ),
            Some(ledger.energy_mj(ComponentKind::BtConnection))
        );
    }

    #[test]
    fn mean_power_of_zero_duration_is_zero() {
        let ledger = EnergyLedger::new();
        assert_eq!(ledger.mean_power_mw(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn breakdown_sorted_descending() {
        let profile = PowerProfile::galaxy_s3_mini();
        let ledger = account(
            &profile,
            &hour_timeline(vec![]),
            UplinkArchitecture::BluetoothRelay,
        );
        let breakdown = ledger.breakdown();
        for pair in breakdown.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn scan_duty_cycle_scales_scan_energy() {
        let profile = PowerProfile::galaxy_s3_mini();
        let full = hour_timeline(vec![]);
        let half = UsageTimeline {
            scan_active: SimDuration::from_secs(1800),
            ..full.clone()
        };
        let l_full = account(&profile, &full, UplinkArchitecture::BluetoothRelay);
        let l_half = account(&profile, &half, UplinkArchitecture::BluetoothRelay);
        let scan_full = l_full.energy_mj(ComponentKind::BleScan);
        let scan_half = l_half.energy_mj(ComponentKind::BleScan);
        assert!((scan_half * 2.0 - scan_full).abs() < 1e-6);
    }
}
