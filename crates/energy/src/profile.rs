//! Per-device power profiles and the two uplink architectures.

use roomsense_sim::SimDuration;
use std::fmt;

/// Which uplink architecture the app is configured for (paper Section VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UplinkArchitecture {
    /// Reports go out over HTTP/Wi-Fi; the Wi-Fi adapter stays associated.
    Wifi,
    /// Reports go to the room beacon over Bluetooth; Wi-Fi stays off.
    BluetoothRelay,
    /// Wi-Fi preferred with Bluetooth failover: the Wi-Fi adapter stays
    /// associated (it must be ready to probe and fail back), so the idle
    /// cost is Wi-Fi's, while each burst is priced by the radio that
    /// actually carried it.
    Failover,
    /// Batched Wi-Fi in power-save mode: reports coalesce into few, bigger
    /// bursts, so the adapter *disassociates* between them (no idle dwell)
    /// and instead pays a wake/re-associate cost per burst. Cheaper than
    /// [`Wifi`](UplinkArchitecture::Wifi) whenever bursts are rare enough
    /// that the wake charges stay below the saved idle dwell — which is
    /// exactly what coalescing buys.
    Batched,
}

impl fmt::Display for UplinkArchitecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UplinkArchitecture::Wifi => f.write_str("wifi architecture"),
            UplinkArchitecture::BluetoothRelay => f.write_str("bluetooth architecture"),
            UplinkArchitecture::Failover => f.write_str("wifi->bt failover architecture"),
            UplinkArchitecture::Batched => f.write_str("batched wifi architecture"),
        }
    }
}

/// Component power draws for one device model, in milliwatts.
///
/// The numbers are order-of-magnitude figures from published smartphone
/// power studies, tuned so the Galaxy S3 Mini profile reproduces the paper's
/// headline results (~10 h battery life, ~15 % Wi-Fi → BT saving).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerProfile {
    /// Device floor: kernel, RAM refresh, cellular idle. Always charged.
    pub(crate) baseline_mw: f64,
    /// The app's CPU wakelock while the service runs. Always charged while
    /// the app runs.
    pub(crate) cpu_service_mw: f64,
    /// The BLE scanner while actively scanning.
    pub(crate) ble_scan_mw: f64,
    /// Wi-Fi adapter associated but idle (Wi-Fi architecture only).
    pub(crate) wifi_idle_mw: f64,
    /// Wi-Fi actively transmitting.
    pub(crate) wifi_active_mw: f64,
    /// Wi-Fi high-power tail after each transfer.
    pub(crate) wifi_tail_mw: f64,
    /// How long the Wi-Fi tail lasts after each transfer.
    pub(crate) wifi_tail_duration: SimDuration,
    /// How long waking + re-associating the adapter takes before a batched
    /// burst (charged at `wifi_active_mw`, batched architecture only).
    pub(crate) wifi_wake_duration: SimDuration,
    /// Bluetooth during a relay connection (connect + transfer).
    pub bt_connection_mw: f64,
    /// Battery capacity in milliwatt-hours.
    pub battery_capacity_mwh: f64,
}

impl PowerProfile {
    /// The Samsung Galaxy S3 Mini (1500 mAh at 3.8 V ⇒ 5700 mWh), the
    /// paper's measurement device.
    pub fn galaxy_s3_mini() -> Self {
        PowerProfile {
            baseline_mw: 160.0,
            cpu_service_mw: 160.0,
            ble_scan_mw: 160.0,
            wifi_idle_mw: 60.0,
            wifi_active_mw: 750.0,
            wifi_tail_mw: 130.0,
            wifi_tail_duration: SimDuration::from_millis(1000),
            wifi_wake_duration: SimDuration::from_millis(1800),
            bt_connection_mw: 270.0,
            battery_capacity_mwh: 5700.0,
        }
    }
}

impl Default for PowerProfile {
    fn default() -> Self {
        PowerProfile::galaxy_s3_mini()
    }
}

impl fmt::Display for PowerProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "power profile: {:.0} mWh battery, base {:.0} mW",
            self.battery_capacity_mwh, self.baseline_mw
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s3_mini_capacity_is_1500mah_at_3v8() {
        let p = PowerProfile::galaxy_s3_mini();
        assert!((p.battery_capacity_mwh - 1500.0 * 3.8).abs() < 1.0);
    }

    #[test]
    fn wifi_active_is_the_hungriest_state() {
        let p = PowerProfile::galaxy_s3_mini();
        assert!(p.wifi_active_mw > p.bt_connection_mw);
        assert!(p.wifi_active_mw > p.ble_scan_mw);
    }
}
