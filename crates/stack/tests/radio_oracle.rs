//! The radio against a per-packet oracle.
//!
//! The fleet and the single-device pipeline share one radio,
//! `simulate_receptions_into`, so comparing them no longer checks the radio
//! itself. The oracle here recomputes every packet from scratch: the
//! advertiser's schedule, then the link budget from the per-wall
//! `Segment::intersects` formula, then the per-packet draws of
//! `Channel::sample_rssi_with_budget_on_at`. No sightline table, no memo.

use proptest::prelude::*;
use rand::Rng;
use roomsense_geom::{Point, Segment};
use roomsense_ibeacon::{Major, MeasuredPower, Minor, Packet, ProximityUuid};
use roomsense_radio::fading::RicianFading;
use roomsense_radio::shadowing::ShadowingField;
use roomsense_radio::{
    AdvChannel, Advertiser, Channel, DeviceRxProfile, Environment, Interferer, LinkBudget,
    TransmitterFault, TransmitterProfile, Wall, WallMaterial,
};
use roomsense_sim::{rng, FaultSchedule, FaultWindow, SimDuration, SimTime};
use roomsense_stack::{simulate_receptions_into, PlacedAdvertiser, RadioScratch, Reception};
use roomsense_telemetry::{keys, Recorder};

/// The link budget from the per-wall `Segment::intersects` formula.
fn formula_budget(
    channel: &Channel,
    tx: &TransmitterProfile,
    tx_pos: Point,
    rx: &DeviceRxProfile,
    rx_pos: Point,
) -> LinkBudget {
    let env = channel.environment();
    let path = Segment::new(tx_pos, rx_pos);
    let crossing = || env.walls().iter().filter(|w| w.segment.intersects(&path));
    let loss_db: f64 = crossing().map(|w| w.material.attenuation_db()).sum();
    let fading = if crossing().count() == 0 {
        RicianFading::new(tx.los_rice_factor)
    } else {
        RicianFading::rayleigh()
    };
    let mean_dbm = tx
        .pathloss_model()
        .mean_rssi_dbm(tx_pos.distance_to(rx_pos))
        - loss_db
        - env.shadowing_loss_db(rx_pos)
        + rx.gain_offset_db;
    LinkBudget { mean_dbm, fading }
}

/// Every packet recomputed from scratch: the receptions sorted by time,
/// and the received and lost counts.
#[allow(clippy::too_many_arguments)]
fn oracle<R: Rng + ?Sized>(
    channel: &Channel,
    advertisers: &[PlacedAdvertiser],
    faults: &[TransmitterFault],
    rx: &DeviceRxProfile,
    rx_position: impl Fn(SimTime) -> Point,
    from: SimTime,
    until: SimTime,
    rng: &mut R,
) -> (Vec<Reception>, u64) {
    let mut receptions = Vec::new();
    let mut lost = 0;
    for (placed, fault) in advertisers.iter().zip(faults) {
        for tx_event in placed.advertiser.schedule(from, until, rng) {
            if !fault.transmits_at(tx_event.at) {
                continue;
            }
            let profile = fault.profile_at(tx_event.at, &placed.profile);
            let rx_pos = rx_position(tx_event.at);
            let budget = formula_budget(channel, &profile, placed.position, rx, rx_pos);
            match channel.sample_rssi_with_budget_on_at(
                tx_event.at,
                &budget,
                rx,
                rx_pos,
                tx_event.channel,
                rng,
            ) {
                Some(rssi_dbm) => receptions.push(Reception {
                    at: tx_event.at,
                    packet: *placed.advertiser.packet(),
                    rssi_dbm,
                    channel: tx_event.channel,
                }),
                None => lost += 1,
            }
        }
    }
    receptions.sort_by_key(|r| r.at);
    (receptions, lost)
}

/// A reception with its RSSI as bits, so equality is bitwise.
fn bits(r: &Reception) -> (SimTime, Packet, u64, AdvChannel) {
    (r.at, r.packet, r.rssi_dbm.to_bits(), r.channel)
}

/// A 12 m × 8 m floor: three rooms in a row behind a corridor wall, with
/// a door-sized gap in each partition.
fn floor(shadow_seed: Option<u64>, interferer: bool) -> Channel {
    let mut env = Environment::free_space();
    let wall = |ax, ay, bx, by, material| {
        Wall::new(
            Segment::new(Point::new(ax, ay), Point::new(bx, by)),
            material,
        )
    };
    for w in [
        wall(0.0, 0.0, 12.0, 0.0, WallMaterial::Concrete),
        wall(0.0, 8.0, 12.0, 8.0, WallMaterial::Concrete),
        wall(0.0, 0.0, 0.0, 8.0, WallMaterial::Brick),
        wall(12.0, 0.0, 12.0, 8.0, WallMaterial::Brick),
        wall(0.0, 3.0, 11.0, 3.0, WallMaterial::Glass),
        wall(4.0, 3.0, 4.0, 7.0, WallMaterial::Drywall),
        wall(8.0, 3.0, 8.0, 7.0, WallMaterial::Drywall),
        wall(4.0, 7.0, 4.0, 8.0, WallMaterial::WoodDoor),
        // A zero-length stub, as a floor plan's editor can leave behind.
        wall(6.0, 5.0, 6.0, 5.0, WallMaterial::Brick),
    ] {
        env.add_wall(w);
    }
    if let Some(seed) = shadow_seed {
        env.set_shadowing(ShadowingField::new(seed, 3.0, 2.5));
    }
    if interferer {
        env.add_interferer(Interferer::new(
            Point::new(6.0, 4.0),
            5.0,
            SimDuration::from_millis(250),
            0.5,
            0.4,
        ));
    }
    Channel::new(env)
}

/// Beacons in each room's centre, plus one on the corridor wall line so
/// some paths run collinear with a wall.
fn beacons(jitter_ms: u64) -> Vec<PlacedAdvertiser> {
    [(2.0, 5.0), (6.0, 5.0), (10.0, 5.0), (3.0, 3.0)]
        .into_iter()
        .enumerate()
        .map(|(minor, (x, y))| PlacedAdvertiser {
            advertiser: Advertiser::with_jitter(
                Packet::new(
                    ProximityUuid::example(),
                    Major::new(1),
                    Minor::new(minor as u16),
                    MeasuredPower::new(-59),
                ),
                SimDuration::from_millis(100 + 35 * minor as u64),
                SimDuration::from_millis(jitter_ms),
            ),
            profile: TransmitterProfile::default(),
            position: Point::new(x, y),
        })
        .collect()
}

/// A transmitter fault with one outage and one degraded window, both at
/// seconds chosen by the case.
fn fault((outage_s, degraded_s, sag_db): (u64, u64, f64)) -> TransmitterFault {
    let window = |s: u64, len_ms: u64| {
        FaultSchedule::new(vec![FaultWindow::new(
            SimTime::from_secs(s),
            SimTime::from_secs(s) + SimDuration::from_millis(len_ms),
        )])
    };
    TransmitterFault::new(window(outage_s, 1_500), window(degraded_s, 3_000), sag_db)
}

/// A receiver that stands at the start of its walk, or walks one leg per
/// second through the waypoint offsets (in decimetres); a zero offset is a
/// pause, during which the link-budget memo hits.
fn position_at(start: (u8, u8), legs: &[(i8, i8)], walking: bool, t: SimTime) -> Point {
    let mut at = Point::new(f64::from(start.0) / 2.0, f64::from(start.1) / 2.0);
    if !walking || legs.is_empty() {
        return at;
    }
    let leg_s = t.as_secs_f64();
    let whole = leg_s.floor() as usize;
    for (i, &(dx, dy)) in legs.iter().cycle().take(whole + 1).enumerate() {
        let share = if i < whole { 1.0 } else { leg_s - whole as f64 };
        at = Point::new(
            at.x + f64::from(dx) / 10.0 * share,
            at.y + f64::from(dy) / 10.0 * share,
        );
    }
    at
}

proptest! {
    /// `simulate_receptions_into` equals the per-packet oracle bit for bit
    /// on every reception and on the `radio.rx.received` / `radio.rx.lost`
    /// counters: walking and standing receivers, outage and degraded-power
    /// faults, an interferer and a lossy receiver.
    #[test]
    fn radio_matches_per_packet_oracle(
        start in (0u8..24, 0u8..16),
        legs in prop::collection::vec((-12i8..13, -12i8..13), 0..6),
        walking in any::<bool>(),
        faults in prop::collection::vec(
            prop::option::of((0u64..10, 0u64..10, 0.5f64..12.0)),
            4..5,
        ),
        environment in (prop::option::of(0u64..1000), any::<bool>(), 0u64..25),
        seed in any::<u64>(),
    ) {
        let (shadow_seed, interferer, jitter_ms) = environment;
        let channel = floor(shadow_seed, interferer);
        let advertisers = beacons(jitter_ms);
        let faults: Vec<TransmitterFault> = faults
            .into_iter()
            .map(|f| f.map(fault).unwrap_or_default())
            .collect();
        let rx = DeviceRxProfile::new("lossy", 1.0, 2.0, 0.05, -92.0);
        let (from, until) = (SimTime::ZERO, SimTime::from_secs(12));
        let rx_position = |t| position_at(start, &legs, walking, t);

        let (expected, expected_lost) = oracle(
            &channel,
            &advertisers,
            &faults,
            &rx,
            rx_position,
            from,
            until,
            &mut rng::for_component(seed, "radio-oracle"),
        );
        let mut telemetry = Recorder::default();
        let mut scratch = RadioScratch::new();
        let mut out = Vec::new();
        // Twice through one scratch: a reused sightline table and schedule
        // buffer answer like fresh ones.
        for _ in 0..2 {
            simulate_receptions_into(
                &channel,
                &advertisers,
                &faults,
                &rx,
                rx_position,
                from,
                until,
                &mut rng::for_component(seed, "radio-oracle"),
                None,
                &mut telemetry,
                &mut scratch,
                &mut out,
            );
            prop_assert_eq!(
                out.iter().map(bits).collect::<Vec<_>>(),
                expected.iter().map(bits).collect::<Vec<_>>()
            );
        }
        prop_assert_eq!(telemetry.counter(keys::RADIO_RX_RECEIVED), 2 * expected.len() as u64);
        prop_assert_eq!(telemetry.counter(keys::RADIO_RX_LOST), 2 * expected_lost);
    }
}
