//! From one scan cycle's samples to per-beacon distance observations.
//!
//! A scan cycle (paper footnote 1) exists precisely to pool samples before
//! estimating a distance: on iOS there are hundreds to pool, on Android
//! often just one. This module does the pooling and the RSSI → distance
//! conversion.

use roomsense_ibeacon::{estimate_distance_log, BeaconIdentity, RangingConfig};
use roomsense_sim::SimTime;
use roomsense_stack::ScanCycleReport;
use std::fmt;

/// How multiple RSSI samples of one beacon within a cycle are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregateMethod {
    /// Arithmetic mean of the dBm values (what the Radius Networks library
    /// the paper used does).
    #[default]
    MeanDbm,
    /// Median of the dBm values — more robust when iOS-style sample counts
    /// are available.
    MedianDbm,
}

/// One per-beacon observation produced from a scan cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Cycle end time (when the app receives the batch).
    pub at: SimTime,
    /// Which beacon.
    pub identity: BeaconIdentity,
    /// Pooled RSSI in dBm.
    pub rssi_dbm: f64,
    /// Distance estimate in metres.
    pub distance_m: f64,
    /// How many raw samples went into the pool (1 on Android, possibly
    /// hundreds on iOS).
    pub sample_count: usize,
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {:.1} dBm -> {:.2} m ({} samples)",
            self.at, self.identity, self.rssi_dbm, self.distance_m, self.sample_count
        )
    }
}

/// Reusable working memory for [`aggregate_cycle_into`]: the sort buffer
/// and one beacon's RSSI pool.
#[derive(Debug, Clone, Default)]
pub struct AggregateScratch {
    /// Samples of the current cycle, stably sorted by identity.
    sorted: Vec<roomsense_stack::ScanSample>,
    /// One beacon's RSSI pool (median sorting).
    pool: Vec<f64>,
}

impl AggregateScratch {
    /// A scratch with no reserved memory.
    pub fn new() -> Self {
        AggregateScratch::default()
    }

    /// Total reserved capacity across internal buffers, in elements (for
    /// the debug allocation counter).
    pub fn total_capacity(&self) -> usize {
        self.sorted.capacity() + self.pool.capacity()
    }
}

/// Pools one cycle's samples per beacon and estimates distances, appending
/// one observation per beacon to `out` in ascending-identity order, each
/// timestamped at the cycle's `end`.
///
/// The samples are stably sorted by identity in a reused scratch buffer. A
/// stable sort keeps the arrival order within each beacon's group, so the
/// mean sums in arrival order, the median sorts the pool in arrival order,
/// and the measured power is the beacon's first-seen value.
pub fn aggregate_cycle_into(
    end: SimTime,
    samples: &[roomsense_stack::ScanSample],
    method: AggregateMethod,
    ranging: &RangingConfig,
    scratch: &mut AggregateScratch,
    out: &mut Vec<Observation>,
) {
    scratch.sorted.clear();
    scratch.sorted.extend_from_slice(samples);
    scratch.sorted.sort_by_key(|s| s.identity);
    let mut i = 0;
    while i < scratch.sorted.len() {
        let identity = scratch.sorted[i].identity;
        let power = scratch.sorted[i].measured_power;
        let mut j = i + 1;
        while j < scratch.sorted.len() && scratch.sorted[j].identity == identity {
            j += 1;
        }
        let group = &scratch.sorted[i..j];
        let pooled = match method {
            AggregateMethod::MeanDbm => {
                group.iter().map(|s| s.rssi_dbm).sum::<f64>() / group.len() as f64
            }
            AggregateMethod::MedianDbm => {
                scratch.pool.clear();
                scratch.pool.extend(group.iter().map(|s| s.rssi_dbm));
                scratch
                    .pool
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite rssi"));
                let mid = scratch.pool.len() / 2;
                if scratch.pool.len().is_multiple_of(2) {
                    (scratch.pool[mid - 1] + scratch.pool[mid]) / 2.0
                } else {
                    scratch.pool[mid]
                }
            }
        };
        out.push(Observation {
            at: end,
            identity,
            rssi_dbm: pooled,
            distance_m: estimate_distance_log(pooled, power, ranging),
            sample_count: group.len(),
        });
        i = j;
    }
}

/// [`aggregate_cycle_into`] over one [`ScanCycleReport`] with a fresh
/// scratch, returning the observations.
///
/// # Examples
///
/// ```
/// use roomsense_ibeacon::RangingConfig;
/// use roomsense_signal::{aggregate_cycle, AggregateMethod};
/// use roomsense_stack::ScanCycleReport;
/// use roomsense_sim::SimTime;
///
/// let empty = ScanCycleReport {
///     start: SimTime::ZERO,
///     end: SimTime::from_secs(2),
///     samples: vec![],
/// };
/// let obs = aggregate_cycle(&empty, AggregateMethod::MeanDbm, &RangingConfig::default());
/// assert!(obs.is_empty());
/// ```
pub fn aggregate_cycle(
    cycle: &ScanCycleReport,
    method: AggregateMethod,
    ranging: &RangingConfig,
) -> Vec<Observation> {
    let mut out = Vec::new();
    aggregate_cycle_into(
        cycle.end,
        &cycle.samples,
        method,
        ranging,
        &mut AggregateScratch::new(),
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_ibeacon::{Major, MeasuredPower, Minor, ProximityUuid};
    use proptest::prelude::*;
    use roomsense_stack::ScanSample;
    use std::collections::BTreeMap;

    /// The pooling oracle: one `BTreeMap` of per-beacon `Vec`s per cycle.
    fn oracle(
        end: SimTime,
        samples: &[ScanSample],
        method: AggregateMethod,
        ranging: &RangingConfig,
    ) -> Vec<Observation> {
        let mut pools: BTreeMap<BeaconIdentity, (Vec<f64>, MeasuredPower)> = BTreeMap::new();
        for sample in samples {
            pools
                .entry(sample.identity)
                .or_insert_with(|| (Vec::new(), sample.measured_power))
                .0
                .push(sample.rssi_dbm);
        }
        pools
            .into_iter()
            .map(|(identity, (mut rssis, power))| {
                let pooled = match method {
                    AggregateMethod::MeanDbm => rssis.iter().sum::<f64>() / rssis.len() as f64,
                    AggregateMethod::MedianDbm => {
                        rssis.sort_by(|a, b| a.partial_cmp(b).expect("finite rssi"));
                        let mid = rssis.len() / 2;
                        if rssis.len() % 2 == 0 {
                            (rssis[mid - 1] + rssis[mid]) / 2.0
                        } else {
                            rssis[mid]
                        }
                    }
                };
                Observation {
                    at: end,
                    identity,
                    rssi_dbm: pooled,
                    distance_m: estimate_distance_log(pooled, power, ranging),
                    sample_count: rssis.len(),
                }
            })
            .collect()
    }

    fn sample(minor: u16, rssi: f64) -> ScanSample {
        ScanSample {
            at: SimTime::from_millis(100),
            identity: BeaconIdentity {
                uuid: ProximityUuid::example(),
                major: Major::new(1),
                minor: Minor::new(minor),
            },
            measured_power: MeasuredPower::new(-59),
            rssi_dbm: rssi,
        }
    }

    fn cycle(samples: Vec<ScanSample>) -> ScanCycleReport {
        ScanCycleReport {
            start: SimTime::ZERO,
            end: SimTime::from_secs(2),
            samples,
        }
    }

    #[test]
    fn pools_per_beacon() {
        let c = cycle(vec![
            sample(0, -60.0),
            sample(0, -62.0),
            sample(1, -70.0),
        ]);
        let obs = aggregate_cycle(&c, AggregateMethod::MeanDbm, &RangingConfig::default());
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].rssi_dbm, -61.0);
        assert_eq!(obs[0].sample_count, 2);
        assert_eq!(obs[1].rssi_dbm, -70.0);
    }

    #[test]
    fn median_resists_one_outlier() {
        let c = cycle(vec![
            sample(0, -60.0),
            sample(0, -61.0),
            sample(0, -95.0),
        ]);
        let mean = aggregate_cycle(&c, AggregateMethod::MeanDbm, &RangingConfig::default());
        let median = aggregate_cycle(&c, AggregateMethod::MedianDbm, &RangingConfig::default());
        assert!(median[0].rssi_dbm > mean[0].rssi_dbm);
        assert_eq!(median[0].rssi_dbm, -61.0);
    }

    #[test]
    fn distance_uses_log_model() {
        let cfg = RangingConfig {
            path_loss_exponent: 2.0,
        };
        let c = cycle(vec![sample(0, -79.0)]);
        let obs = aggregate_cycle(&c, AggregateMethod::MeanDbm, &cfg);
        assert!((obs[0].distance_m - 10.0).abs() < 1e-9);
    }

    #[test]
    fn observation_timestamped_at_cycle_end() {
        let c = cycle(vec![sample(0, -60.0)]);
        let obs = aggregate_cycle(&c, AggregateMethod::MeanDbm, &RangingConfig::default());
        assert_eq!(obs[0].at, SimTime::from_secs(2));
    }

    #[test]
    fn output_sorted_by_identity() {
        let c = cycle(vec![sample(4, -60.0), sample(1, -60.0), sample(3, -60.0)]);
        let obs = aggregate_cycle(&c, AggregateMethod::MeanDbm, &RangingConfig::default());
        let minors: Vec<u16> = obs.iter().map(|o| o.identity.minor.value()).collect();
        assert_eq!(minors, vec![1, 3, 4]);
    }

    fn bits(observations: &[Observation]) -> Vec<(SimTime, BeaconIdentity, u64, u64, usize)> {
        observations
            .iter()
            .map(|o| {
                let (rssi, distance) = (o.rssi_dbm.to_bits(), o.distance_m.to_bits());
                (o.at, o.identity, rssi, distance, o.sample_count)
            })
            .collect()
    }

    proptest! {
        /// The sorted group walk pools exactly like the `BTreeMap` oracle,
        /// bit for bit: interleaved and repeated identities, odd and even
        /// pool sizes, duplicate RSSIs (a 0.25 dB grid), per-sample measured
        /// power, both methods, and one scratch reused across cycles.
        #[test]
        fn aggregate_matches_the_btreemap_oracle(
            cycles in prop::collection::vec(
                prop::collection::vec((0u16..5, 0u16..240, -70i8..-50), 0..64),
                1..4,
            ),
            median in any::<bool>(),
            exponent in 1.6f64..3.5,
        ) {
            let method = if median { AggregateMethod::MedianDbm } else { AggregateMethod::MeanDbm };
            let ranging = RangingConfig { path_loss_exponent: exponent };
            let mut scratch = AggregateScratch::new();
            for (k, raw) in cycles.iter().enumerate() {
                let samples: Vec<ScanSample> = raw
                    .iter()
                    .map(|&(minor, quarter_db, power)| ScanSample {
                        measured_power: MeasuredPower::new(power),
                        rssi_dbm: -40.0 - f64::from(quarter_db) / 4.0,
                        ..sample(minor, 0.0)
                    })
                    .collect();
                let end = SimTime::from_secs(2 * (k as u64 + 1));
                let mut out = Vec::new();
                aggregate_cycle_into(end, &samples, method, &ranging, &mut scratch, &mut out);
                prop_assert_eq!(bits(&out), bits(&oracle(end, &samples, method, &ranging)));
            }
        }
    }
}
