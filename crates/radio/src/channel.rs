//! The end-to-end channel: what RSSI does a receiver record for one
//! transmitted advertisement?

use crate::environment::Sighting;
use crate::fading::{standard_normal, RicianFading};
use crate::pathloss::LogDistanceModel;
use crate::{AdvChannel, DeviceRxProfile, Environment, Sightlines};
use rand::Rng;
use roomsense_geom::Point;
use roomsense_sim::SimTime;
use std::fmt;

/// RF characteristics of a transmitter (the beacon side of the link).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransmitterProfile {
    /// Mean RSSI an ideal receiver sees at 1 m line-of-sight, in dBm.
    /// This is the physical truth the measured-power field should be
    /// calibrated to.
    pub rssi_at_1m_dbm: f64,
    /// Path-loss exponent of the deployment environment.
    pub path_loss_exponent: f64,
    /// Rice factor of the fading when the path is line-of-sight.
    pub los_rice_factor: f64,
}

impl Default for TransmitterProfile {
    /// A 0 dBm-class USB dongle (paper: Inateck BTA-CSR4B5): −59 dBm at one
    /// metre, indoor exponent 2.2, moderate line-of-sight fading.
    fn default() -> Self {
        TransmitterProfile {
            rssi_at_1m_dbm: -59.0,
            path_loss_exponent: 2.2,
            los_rice_factor: 6.0,
        }
    }
}

impl TransmitterProfile {
    /// The log-distance model this transmitter follows.
    pub fn pathloss_model(&self) -> LogDistanceModel {
        LogDistanceModel::new(self.rssi_at_1m_dbm, self.path_loss_exponent)
    }
}

impl fmt::Display for TransmitterProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tx {:.0} dBm@1m, n={:.1}, K={:.0}",
            self.rssi_at_1m_dbm, self.path_loss_exponent, self.los_rice_factor
        )
    }
}

/// The deterministic part of one radio link, precomputed for a fixed
/// transmitter/receiver geometry: the fading-free mean RSSI and the fading
/// regime (Rician when line-of-sight, Rayleigh when a wall intervenes).
///
/// Produced by [`Channel::link_budget`] (or [`Channel::link_budget_from`])
/// and consumed by [`Channel::sample_rssi_with_budget_on_at`]. Because both
/// fields are pure functions of the link geometry, a budget may be cached
/// for as long as the transmitter profile, both positions, and the
/// environment stay fixed — the radio loop caches one per advertiser while
/// the receiver stands still.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// Mean (fading-free, noise-free) RSSI of the link, in dBm.
    pub mean_dbm: f64,
    /// The fading distribution the link's packets draw from.
    pub fading: RicianFading,
}

/// The complete simulated radio channel.
///
/// Combines, in dB:
/// `rssi = P1m − 10·n·log10(d) − walls(tx,rx) − shadow(rx) + fading + channel_offset + device_offset + noise`.
/// A sample is *lost* (returns `None`) when the result falls below the
/// device's sensitivity or the device's stack drops it.
///
/// # Examples
///
/// ```
/// use roomsense_geom::Point;
/// use roomsense_radio::{Channel, DeviceRxProfile, Environment, TransmitterProfile};
/// use roomsense_sim::rng;
///
/// let channel = Channel::new(Environment::free_space());
/// let mut r = rng::for_component(7, "doc");
/// let rssi = channel
///     .sample_rssi(&TransmitterProfile::default(), Point::new(0.0, 0.0),
///                  &DeviceRxProfile::ideal(), Point::new(1.0, 0.0), &mut r)
///     .expect("1 m LOS link never drops for an ideal receiver");
/// // Within fading range of the calibrated -59 dBm:
/// assert!(rssi > -75.0 && rssi < -45.0);
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    environment: Environment,
}

impl Channel {
    /// Creates a channel over `environment`. Randomness comes from the RNG
    /// passed to each call, so callers control determinism.
    pub fn new(environment: Environment) -> Self {
        Channel { environment }
    }

    /// The propagation environment.
    pub fn environment(&self) -> &Environment {
        &self.environment
    }

    /// Mutable access to the environment (e.g. to add an
    /// [`Interferer`](crate::Interferer) after construction).
    pub fn environment_mut(&mut self) -> &mut Environment {
        &mut self.environment
    }

    /// Samples the RSSI one advertisement produces at the receiver on
    /// channel 38 at simulation time zero, or `None` when the packet is not
    /// received (below sensitivity, or the stack dropped it).
    pub fn sample_rssi<R: Rng + ?Sized>(
        &self,
        tx: &TransmitterProfile,
        tx_pos: Point,
        rx: &DeviceRxProfile,
        rx_pos: Point,
        rng: &mut R,
    ) -> Option<f64> {
        let budget = self.link_budget(tx, tx_pos, rx, rx_pos);
        self.sample_rssi_with_budget_on_at(
            SimTime::ZERO,
            &budget,
            rx,
            rx_pos,
            AdvChannel::Ch38,
            rng,
        )
    }

    /// Precomputes the deterministic part of one link at a fixed geometry:
    /// the mean RSSI and which fading regime the path is in. The budget is a
    /// pure function of the positions and profiles — no RNG is involved — so
    /// callers whose geometry is static across a scan cycle can compute it
    /// once and feed it to
    /// [`sample_rssi_with_budget_on_at`](Self::sample_rssi_with_budget_on_at)
    /// per packet. Its `mean_dbm` is the channel's fading-free, noise-free
    /// RSSI, useful for calibration and analytical expectations in tests.
    ///
    /// The walls are tested with the terms of [`Environment::sightlines`]
    /// built on the fly; [`link_budget_from`](Self::link_budget_from) is
    /// the same budget from a prebuilt table.
    pub fn link_budget(
        &self,
        tx: &TransmitterProfile,
        tx_pos: Point,
        rx: &DeviceRxProfile,
        rx_pos: Point,
    ) -> LinkBudget {
        self.budget(tx, self.environment.sight(tx_pos, rx_pos), rx, rx_pos)
    }

    /// [`link_budget`](Self::link_budget) from the transmitter the table
    /// was built for, bit for bit, with the walls' transmitter-side terms
    /// taken from the table instead of recomputed.
    ///
    /// `sightlines` must come from this channel's environment.
    pub fn link_budget_from(
        &self,
        sightlines: &Sightlines,
        tx: &TransmitterProfile,
        rx: &DeviceRxProfile,
        rx_pos: Point,
    ) -> LinkBudget {
        self.budget(tx, sightlines.sight(rx_pos), rx, rx_pos)
    }

    /// The mean-RSSI formula: path loss over the sighted distance, the
    /// crossed walls' attenuation, shadowing at the receiver and its gain.
    fn budget(
        &self,
        tx: &TransmitterProfile,
        sighting: Sighting,
        rx: &DeviceRxProfile,
        rx_pos: Point,
    ) -> LinkBudget {
        let Sighting {
            distance_m,
            obstruction,
        } = sighting;
        // Line-of-sight links fade gently (Rician); obstructed links lose
        // their dominant path and fade hard (Rayleigh).
        let fading = if obstruction.crossings == 0 {
            RicianFading::new(tx.los_rice_factor)
        } else {
            RicianFading::rayleigh()
        };
        let mean_dbm = tx.pathloss_model().mean_rssi_dbm(distance_m)
            - obstruction.loss_db
            - self.environment.shadowing_loss_db(rx_pos)
            + rx.gain_offset_db;
        LinkBudget { mean_dbm, fading }
    }

    /// Samples one advertisement at simulation time `at` against a
    /// precomputed [`LinkBudget`], including duty-cycled interference
    /// sources ([`Interferer`](crate::Interferer)). The RNG draws, in order:
    /// collision coin (only when the collision probability is positive),
    /// stack-loss coin (only when the loss probability is positive), two
    /// fading normals, one noise normal.
    pub fn sample_rssi_with_budget_on_at<R: Rng + ?Sized>(
        &self,
        at: SimTime,
        budget: &LinkBudget,
        rx: &DeviceRxProfile,
        rx_pos: Point,
        adv_channel: AdvChannel,
        rng: &mut R,
    ) -> Option<f64> {
        if !self.survives_loss_coins(at, rx, || rx_pos, rng) {
            return None;
        }
        let rssi = budget.mean_dbm
            + budget.fading.sample_db(rng)
            + adv_channel.gain_offset_db()
            + rx.noise_sigma_db * standard_normal(rng);
        if rssi < rx.sensitivity_dbm {
            None
        } else {
            Some(rssi)
        }
    }

    /// Advances `rng` exactly as
    /// [`sample_rssi_with_budget_on_at`](Self::sample_rssi_with_budget_on_at)
    /// does for a packet at `at`, without computing the packet: the same
    /// collision and stack-loss coins, then, when the packet survives both,
    /// the raw steps its fading and noise normals take, unconverted. How
    /// many draws a packet takes depends only on its coins, so a caller
    /// that does not need a packet's outcome keeps every later draw in
    /// place. `rx_pos` is asked for only when the environment has
    /// interferers.
    pub fn replay_sample_at<R: Rng + ?Sized>(
        &self,
        at: SimTime,
        rx: &DeviceRxProfile,
        rx_pos: impl FnOnce() -> Point,
        rng: &mut R,
    ) {
        if self.survives_loss_coins(at, rx, rx_pos, rng) {
            for _ in 0..FADING_AND_NOISE_DRAWS {
                rng.next_u64();
            }
        }
    }

    /// The coins every packet draws first, in order: the interference
    /// collision coin (only when the collision probability is positive,
    /// so never without interferers) and the stack-loss coin (only when
    /// the loss probability is positive). True when the packet survives
    /// both.
    fn survives_loss_coins<R: Rng + ?Sized>(
        &self,
        at: SimTime,
        rx: &DeviceRxProfile,
        rx_pos: impl FnOnce() -> Point,
        rng: &mut R,
    ) -> bool {
        // Interference collisions destroy the packet outright.
        if !self.environment.interferers().is_empty() {
            let collision = self.environment.collision_probability(at, rx_pos());
            if collision > 0.0 && rng.gen::<f64>() < collision {
                return false;
            }
        }
        // Stack-level sample loss happens regardless of signal quality.
        !(rx.sample_loss_probability > 0.0 && rng.gen::<f64>() < rx.sample_loss_probability)
    }
}

/// The raw RNG steps behind a surviving packet's fading and noise: three
/// standard normals ([`standard_normal`]: two for the fading's complex
/// gain, one for the receiver noise), each a Box–Muller pair of uniforms
/// that take one `next_u64` apiece.
const FADING_AND_NOISE_DRAWS: usize = 6;

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_geom::Segment;
    use roomsense_radio_test_helpers::*;
    use roomsense_sim::rng;

    /// Shared helpers for channel tests.
    mod roomsense_radio_test_helpers {
        use super::*;

        pub fn collect_samples(
            channel: &Channel,
            rx: &DeviceRxProfile,
            distance: f64,
            n: usize,
            seed: u64,
        ) -> Vec<f64> {
            let tx = TransmitterProfile::default();
            let mut r = rng::for_component(seed, "channel-test");
            (0..n)
                .filter_map(|_| {
                    channel.sample_rssi(
                        &tx,
                        Point::new(0.0, 0.0),
                        rx,
                        Point::new(distance, 0.0),
                        &mut r,
                    )
                })
                .collect()
        }

        pub fn mean(xs: &[f64]) -> f64 {
            xs.iter().sum::<f64>() / xs.len() as f64
        }

        /// One advertisement sampled from scratch: the link budget, then
        /// the per-packet draws.
        #[allow(clippy::too_many_arguments)]
        pub fn sample_rssi_on_at<R: Rng + ?Sized>(
            channel: &Channel,
            at: SimTime,
            tx: &TransmitterProfile,
            tx_pos: Point,
            rx: &DeviceRxProfile,
            rx_pos: Point,
            adv_channel: AdvChannel,
            rng: &mut R,
        ) -> Option<f64> {
            let budget = channel.link_budget(tx, tx_pos, rx, rx_pos);
            channel.sample_rssi_with_budget_on_at(at, &budget, rx, rx_pos, adv_channel, rng)
        }
    }

    #[test]
    fn mean_rssi_matches_pathloss_in_free_space() {
        let channel = Channel::new(Environment::free_space());
        let tx = TransmitterProfile::default();
        let rx = DeviceRxProfile::ideal();
        let mean = channel
            .link_budget(&tx, Point::new(0.0, 0.0), &rx, Point::new(1.0, 0.0))
            .mean_dbm;
        assert!((mean - -59.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_mean_converges_to_model_mean() {
        let channel = Channel::new(Environment::free_space());
        let rx = DeviceRxProfile::ideal();
        let samples = collect_samples(&channel, &rx, 2.0, 20_000, 2);
        let expected = TransmitterProfile::default()
            .pathloss_model()
            .mean_rssi_dbm(2.0);
        // Fading has unit mean *linear* power, so the dB mean sits slightly
        // below the model mean (Jensen); allow 2 dB.
        assert!((mean(&samples) - expected).abs() < 2.0);
    }

    #[test]
    fn farther_is_weaker() {
        let channel = Channel::new(Environment::free_space());
        let rx = DeviceRxProfile::ideal();
        let near = mean(&collect_samples(&channel, &rx, 1.0, 5_000, 3));
        let far = mean(&collect_samples(&channel, &rx, 8.0, 5_000, 3));
        assert!(near > far + 10.0, "near {near} far {far}");
    }

    #[test]
    fn wall_attenuates_and_switches_to_rayleigh() {
        let mut env = Environment::free_space();
        env.add_wall(crate::Wall::new(
            Segment::new(Point::new(1.0, -5.0), Point::new(1.0, 5.0)),
            crate::WallMaterial::Concrete,
        ));
        let walled = Channel::new(env);
        let open = Channel::new(Environment::free_space());
        let rx = DeviceRxProfile::ideal();
        let blocked = mean(&collect_samples(&walled, &rx, 2.0, 10_000, 4));
        let clear = mean(&collect_samples(&open, &rx, 2.0, 10_000, 4));
        // 12 dB of concrete plus the Rayleigh-vs-Rician mean shift.
        assert!(clear - blocked > 9.0, "clear {clear} blocked {blocked}");
    }

    #[test]
    fn nexus5_reads_hotter_than_s3_mini() {
        // The Fig 11 effect.
        let channel = Channel::new(Environment::free_space());
        let n5 = mean(&collect_samples(&channel, &DeviceRxProfile::nexus_5(), 2.0, 10_000, 5));
        let s3 = mean(&collect_samples(
            &channel,
            &DeviceRxProfile::galaxy_s3_mini(),
            2.0,
            10_000,
            5,
        ));
        assert!((n5 - s3 - 6.0).abs() < 1.0, "n5 {n5} s3 {s3}");
    }

    #[test]
    fn sample_loss_rate_matches_profile() {
        let channel = Channel::new(Environment::free_space());
        let rx = DeviceRxProfile::new("lossy", 0.0, 0.0, 0.25, -120.0);
        let n = 20_000;
        let received = collect_samples(&channel, &rx, 1.0, n, 6).len();
        let rate = received as f64 / n as f64;
        assert!((rate - 0.75).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn below_sensitivity_is_dropped() {
        let channel = Channel::new(Environment::free_space());
        let deaf = DeviceRxProfile::new("deaf", 0.0, 0.0, 0.0, -30.0);
        let samples = collect_samples(&channel, &deaf, 10.0, 1_000, 7);
        assert!(samples.is_empty());
    }

    #[test]
    fn active_interferer_erases_packets() {
        use crate::Interferer;
        use roomsense_sim::SimDuration;
        let mut env = Environment::free_space();
        // Always-on interferer killing 100% of nearby packets.
        env.add_interferer(Interferer::new(
            Point::new(1.0, 0.0),
            5.0,
            SimDuration::from_secs(1),
            1.0,
            1.0,
        ));
        let channel = Channel::new(env);
        let tx = TransmitterProfile::default();
        let rx = DeviceRxProfile::ideal();
        let mut r = rng::for_component(9, "interference");
        for _ in 0..100 {
            let sample = sample_rssi_on_at(
                &channel,
                SimTime::from_millis(100),
                &tx,
                Point::new(0.0, 0.0),
                &rx,
                Point::new(1.0, 0.0),
                AdvChannel::Ch38,
                &mut r,
            );
            assert!(sample.is_none(), "packet survived a certain collision");
        }
        // A receiver outside the interferer's range is untouched.
        let far = sample_rssi_on_at(
            &channel,
            SimTime::from_millis(100),
            &tx,
            Point::new(0.0, 0.0),
            &rx,
            Point::new(10.0, 0.0),
            AdvChannel::Ch38,
            &mut r,
        );
        assert!(far.is_some());
    }

    #[test]
    fn duty_cycled_interferer_halves_throughput() {
        use crate::Interferer;
        use roomsense_sim::SimDuration;
        let mut env = Environment::free_space();
        env.add_interferer(Interferer::new(
            Point::new(1.0, 0.0),
            5.0,
            SimDuration::from_millis(100),
            0.5,
            1.0,
        ));
        let channel = Channel::new(env);
        let tx = TransmitterProfile::default();
        let rx = DeviceRxProfile::ideal();
        let mut r = rng::for_component(10, "duty");
        let received = (0..1000)
            .filter(|i| {
                sample_rssi_on_at(
                    &channel,
                    SimTime::from_millis(i * 7), // sweeps phases
                    &tx,
                    Point::new(0.0, 0.0),
                    &rx,
                    Point::new(1.0, 0.0),
                    AdvChannel::Ch38,
                    &mut r,
                )
                .is_some()
            })
            .count();
        let rate = received as f64 / 1000.0;
        assert!((rate - 0.5).abs() < 0.06, "rate {rate}");
    }

    #[test]
    fn channel_offsets_are_small_but_distinct() {
        let channel = Channel::new(Environment::free_space());
        let tx = TransmitterProfile::default();
        let rx = DeviceRxProfile::ideal();
        let mut means = Vec::new();
        for adv in AdvChannel::ALL {
            let mut r = rng::for_component(8, "chan-offset");
            let xs: Vec<f64> = (0..20_000)
                .filter_map(|_| {
                    sample_rssi_on_at(
                        &channel,
                        SimTime::ZERO,
                        &tx,
                        Point::new(0.0, 0.0),
                        &rx,
                        Point::new(1.0, 0.0),
                        adv,
                        &mut r,
                    )
                })
                .collect();
            means.push(mean(&xs));
        }
        assert!(means[0] > means[2], "ch37 {} ch39 {}", means[0], means[2]);
        assert!((means[0] - means[2]).abs() < 2.0);
    }

    #[test]
    fn sightline_budget_is_bitwise_identical_to_direct_budget() {
        use crate::Interferer;
        use roomsense_sim::SimDuration;
        // Walls + an interferer + a lossy receiver exercise every draw site.
        let mut env = Environment::free_space();
        env.add_wall(crate::Wall::new(
            Segment::new(Point::new(3.0, -5.0), Point::new(3.0, 5.0)),
            crate::WallMaterial::Drywall,
        ));
        env.add_interferer(Interferer::new(
            Point::new(1.0, 0.0),
            3.0,
            SimDuration::from_millis(100),
            0.5,
            0.4,
        ));
        let channel = Channel::new(env);
        let tx = TransmitterProfile::default();
        let tx_pos = Point::new(0.0, 0.0);
        let sightlines = channel.environment().sightlines(tx_pos);
        let rx = DeviceRxProfile::new("lossy", 0.0, 1.5, 0.1, -95.0);
        let mut direct_rng = rng::for_component(12, "budget");
        let mut table_rng = rng::for_component(12, "budget");
        for i in 0..2_000u64 {
            let at = SimTime::from_millis(i * 13);
            let adv = AdvChannel::ALL[(i % 3) as usize];
            // Sweep across the wall so both fading regimes are hit.
            let rx_pos = Point::new(1.0 + (i % 5) as f64, 0.0);
            let direct =
                sample_rssi_on_at(&channel, at, &tx, tx_pos, &rx, rx_pos, adv, &mut direct_rng);
            let budget = channel.link_budget_from(&sightlines, &tx, &rx, rx_pos);
            let via_table = channel.sample_rssi_with_budget_on_at(
                at,
                &budget,
                &rx,
                rx_pos,
                adv,
                &mut table_rng,
            );
            assert_eq!(direct.map(f64::to_bits), via_table.map(f64::to_bits));
        }
    }

    /// Replaying a packet leaves the RNG where sampling it does, for each
    /// way a packet can end: collision, stack loss, below sensitivity,
    /// received. The next draw of both streams must agree.
    #[test]
    fn replay_leaves_the_rng_where_sampling_does() {
        use crate::Interferer;
        use roomsense_sim::SimDuration;
        let mut jammed = Environment::free_space();
        jammed.add_interferer(Interferer::new(
            Point::new(1.0, 0.0),
            5.0,
            SimDuration::from_secs(1),
            1.0,
            1.0,
        ));
        let jammed = Channel::new(jammed);
        let open = Channel::new(Environment::free_space());
        let dropping = DeviceRxProfile::new("dropping", 0.0, 0.0, 1.0, -120.0);
        let deaf = DeviceRxProfile::new("deaf", 0.0, 0.0, 0.0, -30.0);
        let ideal = DeviceRxProfile::ideal();
        let near = Point::new(1.0, 0.0);
        let far = Point::new(10.0, 0.0);
        let cases = [
            ("collision", &jammed, &ideal, near, false),
            ("stack loss", &open, &dropping, near, false),
            ("below sensitivity", &open, &deaf, far, false),
            ("received", &open, &ideal, near, true),
        ];
        let tx = TransmitterProfile::default();
        for (outcome, channel, rx, rx_pos, received) in cases {
            for seed in 0..50 {
                let mut sampled = rng::for_component(seed, "replay");
                let mut replayed = sampled.clone();
                let at = SimTime::from_millis(100);
                let sample = sample_rssi_on_at(
                    channel,
                    at,
                    &tx,
                    Point::new(0.0, 0.0),
                    rx,
                    rx_pos,
                    AdvChannel::Ch37,
                    &mut sampled,
                );
                assert_eq!(sample.is_some(), received, "{outcome}");
                channel.replay_sample_at(at, rx, || rx_pos, &mut replayed);
                assert_eq!(sampled.gen::<u64>(), replayed.gen::<u64>(), "{outcome}");
            }
        }
    }

    const MATERIALS: [crate::WallMaterial; 5] = [
        crate::WallMaterial::Drywall,
        crate::WallMaterial::WoodDoor,
        crate::WallMaterial::Brick,
        crate::WallMaterial::Concrete,
        crate::WallMaterial::Glass,
    ];

    /// A half-metre lattice point: snapping walls and endpoints to a grid
    /// makes endpoints on walls and collinear or touching paths common.
    fn lattice((x, y): (u8, u8)) -> Point {
        Point::new(f64::from(x) / 2.0, f64::from(y) / 2.0)
    }

    /// The degenerate `(tx, rx)` links one wall makes: `rx` on (or a hair
    /// along the wall from) an endpoint, and a path nudged off parallel to
    /// the wall that starts exactly on the wall's line or just beside it,
    /// before, inside or past the wall — where the collinear-overlap test
    /// and the proper-crossing test can disagree. `end` picks the endpoint
    /// and whether to shift it; `along` places points along the wall in
    /// quarters of its length and `beside` across it (both scaled by the
    /// wall length).
    fn degenerate_links(
        tx: Point,
        wall: Segment,
        end: u8,
        along: (i32, i32),
        beside: (f64, f64),
    ) -> [(Point, Point); 3] {
        let r = wall.direction();
        let across = roomsense_geom::Vec2::new(-r.y, r.x);
        let quarters = |q: i32| f64::from(q) / 4.0;
        let endpoint = if end.is_multiple_of(2) {
            wall.a
        } else {
            wall.b
        };
        let hair = if end % 4 < 2 { 0.0 } else { beside.1 };
        let nudged = |start_offset: f64| {
            let tx = wall.a + r * quarters(along.0) + across * start_offset;
            (tx, tx + r * quarters(along.1) + across * beside.1)
        };
        [(tx, endpoint + r * hair), nudged(0.0), nudged(beside.0)]
    }

    proptest::proptest! {
        /// The link budget equals the two-scan `Segment::intersects`
        /// formula (crossed count picks the fading regime; the attenuation
        /// sum feeds the mean; the distance feeds the path loss) bit for
        /// bit, both with each wall's terms built on the fly and from a
        /// prebuilt sightline table. Walls and endpoints sit on a
        /// half-metre lattice, so endpoints on walls and collinear paths
        /// are common; the degenerate cases are where the table's fast
        /// path could part from the full test: zero-length walls,
        /// `tx == rx`, `rx` exactly on (or a hair from) a wall endpoint,
        /// and paths nudged off parallel to a wall.
        #[test]
        fn one_scan_link_budget_matches_two_scan_formula(
            walls in proptest::collection::vec(
                ((0u8..9, 0u8..9), (0u8..9, 0u8..9), 0usize..5, 0u8..4),
                0..10,
            ),
            tx_at in (0u8..9, 0u8..9),
            rx_at in (0u8..9, 0u8..9),
            nudge in proptest::option::of(0.0f64..1.0),
            along in (-3i32..8, -3i32..8),
            beside in (-14i32..-1, -1.0f64..1.0, -1.0f64..1.0),
            shadow_seed in proptest::option::of(0u64..1000),
        ) {
            let mut env = Environment::free_space();
            for (a, b, material, shape) in walls {
                // One wall in four has zero length.
                let b = if shape == 0 { a } else { b };
                env.add_wall(crate::Wall::new(
                    Segment::new(lattice(a), lattice(b)),
                    MATERIALS[material],
                ));
            }
            if let Some(seed) = shadow_seed {
                env.set_shadowing(crate::shadowing::ShadowingField::new(seed, 3.0, 2.5));
            }
            let channel = Channel::new(env);
            let tx = TransmitterProfile::default();
            let rx = DeviceRxProfile::nexus_5();
            let env = channel.environment();
            let lattice_tx = lattice(tx_at);
            let lattice_rx = lattice(rx_at);
            let (exponent, tx_beside, rx_beside) = beside;
            let beside = (tx_beside * 10f64.powi(exponent), rx_beside * 10f64.powi(exponent));
            let mut links = vec![
                (lattice_tx, Point::new(lattice_rx.x + nudge.unwrap_or(0.0), lattice_rx.y)),
                (lattice_tx, lattice_tx),
            ];
            for wall in env.walls() {
                links.extend(degenerate_links(lattice_tx, wall.segment, rx_at.1, along, beside));
            }

            for (tx_pos, rx_pos) in links {
                let path = Segment::new(tx_pos, rx_pos);
                let crossing = || env.walls().iter().filter(|w| w.segment.intersects(&path));
                let crossed = crossing().count();
                let loss_db: f64 = crossing().map(|w| w.material.attenuation_db()).sum();
                let fading = if crossed == 0 {
                    RicianFading::new(tx.los_rice_factor)
                } else {
                    RicianFading::rayleigh()
                };
                let mean_dbm = tx.pathloss_model().mean_rssi_dbm(tx_pos.distance_to(rx_pos))
                    - loss_db
                    - env.shadowing_loss_db(rx_pos)
                    + rx.gain_offset_db;

                let sightlines = env.sightlines(tx_pos);
                let from_table = sightlines.sight(rx_pos).obstruction;
                for seen in [env.obstruction(tx_pos, rx_pos), from_table] {
                    proptest::prop_assert_eq!(seen.crossings, crossed);
                    proptest::prop_assert_eq!(seen.loss_db.to_bits(), loss_db.to_bits());
                }
                for budget in [
                    channel.link_budget(&tx, tx_pos, &rx, rx_pos),
                    channel.link_budget_from(&sightlines, &tx, &rx, rx_pos),
                ] {
                    proptest::prop_assert_eq!(budget.mean_dbm.to_bits(), mean_dbm.to_bits());
                    proptest::prop_assert_eq!(budget.fading, fading);
                }
            }
        }
    }
}
