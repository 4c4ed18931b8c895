//! Pipeline configuration: everything tunable about the phone side.

use roomsense_radio::DeviceRxProfile;
use roomsense_signal::{AggregateMethod, LossPolicy, PAPER_COEFFICIENT};
use roomsense_sim::SimDuration;
use roomsense_stack::ScanConfig;
use std::fmt;

/// Which OS scanner model the phone runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScannerKind {
    /// Android 4.x with the given whole-cycle stall probability.
    Android {
        /// Probability an entire scan cycle is lost to a stack bug.
        stall_probability: f64,
    },
    /// Android 5.0+ (API 21) — the paper's Section IX future work: all
    /// samples delivered, like iOS.
    AndroidL,
    /// iOS (all samples delivered).
    Ios,
}

impl fmt::Display for ScannerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScannerKind::Android { stall_probability } => {
                write!(f, "android (stall {:.0}%)", stall_probability * 100.0)
            }
            ScannerKind::AndroidL => f.write_str("android-l"),
            ScannerKind::Ios => f.write_str("ios"),
        }
    }
}

/// Which per-beacon distance filter the tracks run — the positioning
/// ablation's main axis. Every kind honours the configured [`LossPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterKind {
    /// The paper's EWMA with [`PipelineConfig::filter_coefficient`].
    #[default]
    Ewma,
    /// A scalar constant-position Kalman filter (indoor defaults).
    Kalman,
    /// A moving median over `MEDIAN_FILTER_WINDOW` cycles.
    Median,
    /// The seeded grid Bayes filter (Mackey-style recursive estimation);
    /// its support grid is derived from the scenario seed, so runs stay
    /// bit-for-bit reproducible and thread-invariant.
    Bayes,
}

impl fmt::Display for FilterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterKind::Ewma => f.write_str("ewma"),
            FilterKind::Kalman => f.write_str("kalman"),
            FilterKind::Median => f.write_str("median"),
            FilterKind::Bayes => f.write_str("bayes"),
        }
    }
}

/// Window length the [`FilterKind::Median`] tracks use.
pub(crate) const MEDIAN_FILTER_WINDOW: usize = 5;

/// The phone-side pipeline configuration.
///
/// # Examples
///
/// ```
/// use roomsense::PipelineConfig;
/// use roomsense_sim::SimDuration;
///
/// let mut cfg = PipelineConfig::paper_android();
/// assert_eq!(cfg.scan.scan_period, SimDuration::from_secs(2));
/// cfg = cfg.with_scan_period(SimDuration::from_secs(5)); // the Fig 6 variant
/// assert_eq!(cfg.scan.scan_period, SimDuration::from_secs(5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Scan timing.
    pub scan: ScanConfig,
    /// OS scanner behaviour.
    pub scanner: ScannerKind,
    /// How per-cycle samples pool into one RSSI.
    pub aggregation: AggregateMethod,
    /// Which distance filter smooths the per-beacon tracks (paper: EWMA).
    pub(crate) filter: FilterKind,
    /// EWMA smoothing coefficient (paper: 0.65).
    pub filter_coefficient: f64,
    /// What to do on missed cycles (paper: hold one).
    pub loss_policy: LossPolicy,
    /// Append the `ml::position_features` trilateration block (`[x, y,
    /// fix_quality]`) to every dataset row (paper: off — Section VI
    /// discards triangulation; the positioning arm re-litigates that).
    pub(crate) position_features: bool,
    /// The phone's RX hardware profile.
    pub device: DeviceRxProfile,
}

impl PipelineConfig {
    /// The paper's production configuration: Galaxy S3 Mini, Android
    /// scanner with 5 % stalls, 2 s scan period, EWMA(0.65), hold one
    /// cycle.
    pub fn paper_android() -> Self {
        PipelineConfig {
            scan: ScanConfig::default(),
            scanner: ScannerKind::Android {
                stall_probability: 0.05,
            },
            aggregation: AggregateMethod::MeanDbm,
            filter: FilterKind::Ewma,
            filter_coefficient: PAPER_COEFFICIENT,
            loss_policy: LossPolicy::HoldOneCycle,
            position_features: false,
            device: DeviceRxProfile::galaxy_s3_mini(),
        }
    }

    /// The paper's future-work configuration: the same S3-Mini-class
    /// hardware on Android L, whose scan API "promises to correct some of
    /// the bugs related to Bluetooth present in Android 4.4".
    pub fn future_android_l() -> Self {
        PipelineConfig {
            scanner: ScannerKind::AndroidL,
            ..PipelineConfig::paper_android()
        }
    }

    /// Returns the config with a different scan period. Only the period
    /// changes — any other [`ScanConfig`] field keeps its current value.
    pub fn with_scan_period(mut self, period: SimDuration) -> Self {
        self.scan.scan_period = period;
        self
    }

    /// Returns the config with a different smoothing coefficient.
    pub fn with_coefficient(mut self, coefficient: f64) -> Self {
        self.filter_coefficient = coefficient;
        self
    }

    /// Returns the config with a different device profile.
    pub fn with_device(mut self, device: DeviceRxProfile) -> Self {
        self.device = device;
        self
    }

    /// Returns the config with a different loss policy.
    pub(crate) fn with_loss_policy(mut self, policy: LossPolicy) -> Self {
        self.loss_policy = policy;
        self
    }

    /// Returns the config with a different track filter kind.
    pub fn with_filter(mut self, filter: FilterKind) -> Self {
        self.filter = filter;
        self
    }

    /// Returns the config with trilateration position features switched on
    /// or off.
    pub fn with_position_features(mut self, enabled: bool) -> Self {
        self.position_features = enabled;
        self
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::paper_android()
    }
}

impl fmt::Display for PipelineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} scanner, {} scan period, ",
            self.scanner, self.scan.scan_period
        )?;
        match self.filter {
            FilterKind::Ewma => write!(f, "ewma({:.2})", self.filter_coefficient)?,
            FilterKind::Median => write!(f, "median({MEDIAN_FILTER_WINDOW})")?,
            kind => write!(f, "{kind}")?,
        }
        if self.position_features {
            f.write_str("+trilat")?;
        }
        write!(f, ", {}", self.device.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_v() {
        let cfg = PipelineConfig::paper_android();
        assert_eq!(cfg.scan.scan_period, SimDuration::from_secs(2));
        assert_eq!(cfg.filter_coefficient, 0.65);
        assert_eq!(cfg.loss_policy, LossPolicy::HoldOneCycle);
    }

    #[test]
    fn builders_chain() {
        let mut cfg = PipelineConfig::paper_android()
            .with_scan_period(SimDuration::from_secs(5))
            .with_coefficient(0.3)
            .with_device(DeviceRxProfile::nexus_5());
        cfg.scanner = ScannerKind::Ios;
        cfg.aggregation = AggregateMethod::MedianDbm;
        assert_eq!(cfg.scan.scan_period, SimDuration::from_secs(5));
        assert_eq!(cfg.filter_coefficient, 0.3);
        assert!(cfg.device.model.contains("Nexus"));
        assert_eq!(cfg.scanner, ScannerKind::Ios);
        assert_eq!(cfg.aggregation, AggregateMethod::MedianDbm);
    }

    #[test]
    fn with_scan_period_updates_in_place() {
        // The builder must mutate the existing ScanConfig, not rebuild it
        // from a single field (which would silently reset anything else).
        let mut cfg = PipelineConfig::paper_android();
        let mut expected = cfg.scan;
        expected.scan_period = SimDuration::from_secs(7);
        cfg = cfg.with_scan_period(SimDuration::from_secs(7));
        assert_eq!(cfg.scan, expected);
    }

    #[test]
    fn paper_config_keeps_the_paper_filter_choices() {
        let cfg = PipelineConfig::paper_android();
        assert_eq!(cfg.filter, FilterKind::Ewma);
        assert!(!cfg.position_features);
    }

    #[test]
    fn filter_and_position_builders_chain() {
        let cfg = PipelineConfig::paper_android()
            .with_filter(FilterKind::Bayes)
            .with_position_features(true);
        assert_eq!(cfg.filter, FilterKind::Bayes);
        assert!(cfg.position_features);
        let shown = cfg.to_string();
        assert!(shown.contains("bayes+trilat"), "display: {shown}");
    }
}
