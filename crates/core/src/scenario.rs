//! A floor plan instrumented with live beacons over a radio channel.

use roomsense_building::FloorPlan;
use roomsense_ibeacon::{Major, MeasuredPower, Minor, ProximityUuid, RangingConfig};
use roomsense_radio::{Advertiser, Channel, TransmitterProfile};
use roomsense_sim::SimDuration;
use roomsense_stack::PlacedAdvertiser;
use std::fmt;

/// Everything static about one deployment: the building, its beacons
/// (advertising and calibrated), and the radio channel.
///
/// # Examples
///
/// ```
/// use roomsense::Scenario;
/// use roomsense_building::presets;
///
/// let scenario = Scenario::from_plan(presets::paper_house(), 7);
/// assert_eq!(scenario.advertisers().len(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    plan: FloorPlan,
    uuid: ProximityUuid,
    major: Major,
    tx_profile: TransmitterProfile,
    advertisers: Vec<PlacedAdvertiser>,
    channel: Channel,
    seed: u64,
}

impl Scenario {
    /// Instruments `plan` with default radio parameters: 100 ms advertising
    /// interval, the default transmitter profile, 4 dB spatial shadowing,
    /// measured power calibrated to the true 1-metre RSSI (the paper's
    /// calibration procedure, assumed done).
    pub fn from_plan(plan: FloorPlan, seed: u64) -> Self {
        Scenario::with_radio(
            plan,
            seed,
            TransmitterProfile::default(),
            SimDuration::from_millis(100),
            4.0,
        )
    }

    /// Full control over the radio parameters.
    pub fn with_radio(
        plan: FloorPlan,
        seed: u64,
        tx_profile: TransmitterProfile,
        adv_interval: SimDuration,
        shadowing_sigma_db: f64,
    ) -> Self {
        let uuid = ProximityUuid::example();
        let major = Major::new(1);
        // Calibration (paper Section IV-A): the measured-power field is set
        // so the 1-metre estimate reads one metre.
        let power = MeasuredPower::new(tx_profile.rssi_at_1m_dbm.round() as i8);
        let advertisers = plan
            .beacon_sites()
            .iter()
            .map(|site| PlacedAdvertiser {
                advertiser: Advertiser::new(site.packet(uuid, major, power), adv_interval),
                profile: tx_profile,
                position: site.position,
            })
            .collect();
        let environment = plan.environment(seed, shadowing_sigma_db);
        let channel = Channel::new(environment);
        Scenario {
            plan,
            uuid,
            major,
            tx_profile,
            advertisers,
            channel,
            seed,
        }
    }

    /// The floor plan.
    pub fn plan(&self) -> &FloorPlan {
        &self.plan
    }

    /// The deployment's proximity UUID.
    pub fn uuid(&self) -> ProximityUuid {
        self.uuid
    }

    /// The deployment's major value.
    pub fn major(&self) -> Major {
        self.major
    }

    /// The transmitter profile shared by all beacons.
    pub fn tx_profile(&self) -> &TransmitterProfile {
        &self.tx_profile
    }

    /// The live advertisers (one per beacon site, same order).
    pub fn advertisers(&self) -> &[PlacedAdvertiser] {
        &self.advertisers
    }

    /// The radio channel.
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// Adds a 2.4 GHz interference source to the deployment (paper
    /// Section V lists "presence of other signals" among the factors
    /// corrupting Bluetooth).
    pub fn add_interferer(&mut self, interferer: roomsense_radio::Interferer) {
        self.channel.environment_mut().add_interferer(interferer);
    }

    /// Changes the deployment's major value (e.g. the floor number in a
    /// multi-floor building), re-stamping every advertiser's packet.
    pub fn set_major(&mut self, major: Major) {
        self.major = major;
        for placed in &mut self.advertisers {
            let old = *placed.advertiser.packet();
            let packet = roomsense_ibeacon::Packet::new(
                old.uuid(),
                major,
                old.minor(),
                old.measured_power(),
            );
            placed.advertiser =
                Advertiser::new(packet, placed.advertiser.interval());
        }
    }

    /// A view of this scenario with a substituted advertiser set — used by
    /// multi-floor deployments to inject attenuated cross-floor beacons.
    /// The floor plan, channel and seed are shared.
    pub fn with_advertisers(&self, advertisers: Vec<PlacedAdvertiser>) -> Scenario {
        Scenario {
            advertisers,
            ..self.clone()
        }
    }

    /// The scenario seed (shadowing field, advertiser jitter namespaces).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fixed feature order: each beacon's minor, in floor-plan order.
    /// Classifier feature `i` is the distance to `beacon_order()[i]`.
    pub fn beacon_order(&self) -> Vec<Minor> {
        self.plan.beacon_sites().iter().map(|s| s.minor).collect()
    }

    /// Beacon mounting positions in [`beacon_order`](Self::beacon_order)
    /// order — the trilateration anchors for `ml::position_features`.
    pub fn beacon_anchors(&self) -> Vec<(f64, f64)> {
        self.plan
            .beacon_sites()
            .iter()
            .map(|s| (s.position.x, s.position.y))
            .collect()
    }

    /// The room label (dense index) each beacon belongs to, in
    /// [`beacon_order`](Self::beacon_order) order — what the proximity
    /// baseline needs.
    pub fn beacon_room_labels(&self) -> Vec<usize> {
        self.plan
            .beacon_sites()
            .iter()
            .map(|s| s.room.index() as usize)
            .collect()
    }

    /// Class names for the classifier: one per room plus `"outside"` last.
    pub fn label_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .plan
            .rooms()
            .iter()
            .map(|r| r.name().to_string())
            .collect();
        names.push("outside".to_string());
        names
    }

    /// The label meaning "not in any room".
    pub fn outside_label(&self) -> usize {
        self.plan.rooms().len()
    }

    /// The ranging configuration matching this scenario's path-loss
    /// exponent (the model-consistent inverse).
    pub fn ranging_config(&self) -> RangingConfig {
        RangingConfig {
            path_loss_exponent: self.tx_profile.path_loss_exponent,
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario[{}] seed={}", self.plan, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_building::presets;

    #[test]
    fn one_advertiser_per_beacon_site() {
        let s = Scenario::from_plan(presets::paper_house(), 1);
        assert_eq!(s.advertisers().len(), s.plan().beacon_sites().len());
    }

    #[test]
    fn measured_power_matches_tx_calibration() {
        let s = Scenario::from_plan(presets::paper_house(), 1);
        for adv in s.advertisers() {
            assert_eq!(adv.advertiser.packet().measured_power().dbm(), -59);
        }
    }

    #[test]
    fn labels_include_outside_last() {
        let s = Scenario::from_plan(presets::paper_house(), 1);
        let names = s.label_names();
        assert_eq!(names.len(), 6);
        assert_eq!(names.last().map(String::as_str), Some("outside"));
        assert_eq!(s.outside_label(), 5);
    }

    #[test]
    fn beacon_order_matches_sites() {
        let s = Scenario::from_plan(presets::paper_house(), 1);
        let order = s.beacon_order();
        for (minor, site) in order.iter().zip(s.plan().beacon_sites()) {
            assert_eq!(*minor, site.minor);
        }
        assert_eq!(s.beacon_room_labels(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn interferer_reaches_the_channel() {
        use roomsense_geom::Point;
        use roomsense_sim::SimTime;
        let mut s = Scenario::from_plan(presets::paper_house(), 1);
        s.add_interferer(roomsense_radio::Interferer::microwave_oven(Point::new(2.0, 2.0)));
        assert_eq!(s.channel().environment().interferers().len(), 1);
        assert!(
            s.channel()
                .environment()
                .collision_probability(SimTime::ZERO, Point::new(2.5, 2.0))
                > 0.0
        );
    }

    #[test]
    fn ranging_inverts_channel_exponent() {
        let s = Scenario::from_plan(presets::paper_house(), 1);
        assert_eq!(
            s.ranging_config().path_loss_exponent,
            s.tx_profile().path_loss_exponent
        );
    }
}
