//! Resilience × energy: every retry burst is logged and priced, and the
//! store-and-forward queue earns its keep under correlated outages.
//!
//! The fault layer's contract has two halves. Functionally, a
//! [`QueueingTransport`] must recover delivery that a bare transport loses
//! to an outage. Energetically, nothing may be free: every attempt — first
//! tries, backoff retries, even connection probes refused by a dead uplink
//! — must appear in the transport event log so the energy ledger can charge
//! the radio for it.

use roomsense_energy::{account, ComponentKind, PowerProfile, UplinkArchitecture, UsageTimeline};
use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
use roomsense_net::{
    BtRelayTransport, DeviceId, FaultyTransport, ObservationReport, QueueingTransport, Retrying,
    SightedBeacon, Transport,
};
use roomsense_sim::{rng, FaultSchedule, FaultWindow, SimDuration, SimTime};

const SEED: u64 = 77;

fn report_at(at: SimTime) -> ObservationReport {
    ObservationReport {
        device: DeviceId::new(9),
        seq: at.as_millis(),
        at,
        beacons: vec![SightedBeacon {
            identity: BeaconIdentity {
                uuid: ProximityUuid::example(),
                major: Major::new(1),
                minor: Minor::new(0),
            },
            distance_m: 1.5,
        }],
    }
}

fn outage(from_secs: u64, until_secs: u64) -> FaultSchedule {
    FaultSchedule::new(vec![FaultWindow::new(
        SimTime::from_secs(from_secs),
        SimTime::from_secs(until_secs),
    )])
}

/// Energy the ledger charges the Bluetooth radio for a given event log.
fn bt_energy_mj(
    profile: &PowerProfile,
    duration: SimDuration,
    events: Vec<roomsense_net::TransportEvent>,
) -> f64 {
    let timeline = UsageTimeline {
        duration,
        scan_active: SimDuration::ZERO,
        transport_events: events,
    };
    account(profile, &timeline, UplinkArchitecture::BluetoothRelay)
        .energy_mj(ComponentKind::BtConnection)
}

/// A lossy relay behind `Retrying` produces more bursts than reports, and
/// the ledger prices exactly the burst time in the event log — retries are
/// not billed at the one-attempt rate.
#[test]
fn every_retry_burst_is_priced_by_the_ledger() {
    let mut transport = Retrying::new(BtRelayTransport::new(0.3, SimDuration::from_millis(400)), 4);
    let mut rng = rng::for_component(SEED, "retry-energy");
    let reports = 20u64;
    for i in 0..reports {
        let at = SimTime::from_secs(2 * i);
        let _ = transport.send(at, &report_at(at), &mut rng);
    }
    let events = transport.telemetry().transport_events();
    assert!(
        events.len() as u64 > reports,
        "a 30% relay must need retries: {} bursts for {reports} reports",
        events.len()
    );

    let profile = PowerProfile::galaxy_s3_mini();
    let burst_secs: f64 = events.iter().map(|e| e.active.as_secs_f64()).sum();
    let charged = bt_energy_mj(&profile, SimDuration::from_secs(60), events);
    let expected = burst_secs * profile.bt_connection_mw;
    assert!(
        (charged - expected).abs() < 1e-6,
        "ledger charged {charged} mJ for {expected} mJ of burst time"
    );
    // And the retry overhead is visible: more than one burst's worth per report.
    let single = 0.4 * profile.bt_connection_mw * reports as f64;
    assert!(
        charged > single,
        "retries cost nothing: {charged} vs {single}"
    );
}

/// Sends refused by a dead uplink still cost a connection probe: the
/// refusal lands in the event log as an undelivered burst and the ledger
/// charges for it.
#[test]
fn refused_probes_during_an_outage_are_logged_and_priced() {
    let mut transport = FaultyTransport::new(
        BtRelayTransport::new(1.0, SimDuration::from_millis(400)),
        outage(0, 100),
    );
    let mut rng = rng::for_component(SEED, "probe-energy");
    for i in 0..5u64 {
        let at = SimTime::from_secs(10 + 5 * i);
        let sent = transport.send(at, &report_at(at), &mut rng);
        assert!(!sent.is_delivered(), "uplink is down until t=100");
    }
    assert_eq!(transport.outage_refusals(), 5);
    let events = transport.telemetry().transport_events();
    assert_eq!(events.len(), 5, "every refused probe must be logged");
    assert!(events.iter().all(|e| !e.delivered && !e.active.is_zero()));
    let charged = bt_energy_mj(
        &PowerProfile::galaxy_s3_mini(),
        SimDuration::from_secs(120),
        events,
    );
    assert!(charged > 0.0, "probes during an outage must cost energy");
}

/// Queued reports retried across an outage leave a complete audit trail:
/// at least one burst per offer, refused probes included, and the ledger's
/// charge grows with the retry traffic.
#[test]
fn queueing_retries_all_land_in_the_event_log() {
    let mut q = QueueingTransport::new(
        FaultyTransport::new(
            BtRelayTransport::new(1.0, SimDuration::from_millis(400)),
            outage(0, 60),
        ),
        64,
        SimDuration::from_secs(2),
    );
    let mut rng = rng::for_component(SEED, "queue-energy");
    for i in 0..12u64 {
        let at = SimTime::from_secs(5 * i);
        let _ = q.offer(at, report_at(at), &mut rng);
    }
    // Drain after the outage lifts.
    let mut t = 60u64;
    while q.pending() > 0 {
        t += 2;
        assert!(t < 300, "queue failed to drain");
        let _ = q.flush(SimTime::from_secs(t), &mut rng);
    }
    assert_eq!(q.offered(), 12);
    assert_eq!(q.delivered_reports(), 12);
    let events = q.telemetry().transport_events();
    assert!(
        events.len() as u64 > q.offered(),
        "offers during the outage must have burned probe bursts: {} bursts",
        events.len()
    );
    let refused = events.iter().filter(|e| !e.delivered).count();
    let delivered = events.iter().filter(|e| e.delivered).count();
    assert!(refused > 0, "outage probes missing from the log");
    assert_eq!(delivered, 12, "one delivered burst per report");

    let profile = PowerProfile::galaxy_s3_mini();
    let charged = bt_energy_mj(&profile, SimDuration::from_secs(300), events);
    let delivery_only = 0.4 * profile.bt_connection_mw * 12.0;
    assert!(
        charged > delivery_only,
        "retry traffic must cost more than clean delivery: {charged} vs {delivery_only}"
    );
}

/// Acceptance: under a correlated 80-second outage the bare relay loses
/// most reports for good; the queueing layer delivers at least 90% of the
/// very same offered traffic once the path heals.
#[test]
fn queueing_recovers_delivery_where_bare_transport_does_not() {
    let stamps: Vec<SimTime> = (0..60u64).map(|i| SimTime::from_secs(2 * i)).collect();

    // Arm 1: one shot per report through an outage-wrapped relay.
    let mut bare = FaultyTransport::new(
        BtRelayTransport::new(0.9, SimDuration::from_millis(400)),
        outage(20, 100),
    );
    let mut bare_rng = rng::for_component(SEED, "acceptance-bare");
    let bare_delivered = stamps
        .iter()
        .filter(|&&at| bare.send(at, &report_at(at), &mut bare_rng).is_delivered())
        .count();
    let bare_rate = bare_delivered as f64 / stamps.len() as f64;
    assert!(
        bare_rate < 0.5,
        "outage should sink most one-shot sends, got {bare_rate:.2}"
    );

    // Arm 2: the same traffic through the store-and-forward queue.
    let mut q = QueueingTransport::new(
        FaultyTransport::new(
            BtRelayTransport::new(0.9, SimDuration::from_millis(400)),
            outage(20, 100),
        ),
        256,
        SimDuration::from_secs(2),
    );
    let mut q_rng = rng::for_component(SEED, "acceptance-queue");
    for &at in &stamps {
        let _ = q.offer(at, report_at(at), &mut q_rng);
    }
    let mut t = 120u64;
    while q.pending() > 0 {
        t += 5;
        assert!(t < 600, "drain loop ran away");
        let _ = q.flush(SimTime::from_secs(t), &mut q_rng);
    }
    let resilient_rate = q
        .report_delivery_rate()
        .expect("sixty reports were offered");
    assert!(
        resilient_rate >= 0.9,
        "queueing must recover ≥90% delivery, got {resilient_rate:.2}"
    );
    assert!(resilient_rate > bare_rate + 0.3, "margin collapsed");
}
