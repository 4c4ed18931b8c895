//! Link-health tracking and Wi-Fi → Bluetooth failover.
//!
//! The paper's two uplink channels trade energy against stability: Wi-Fi is
//! "more reliable and stable" but expensive, the BT relay is cheaper but
//! "less stable … due to bugs in the BLE Android API". A production phone
//! app cannot pick one forever — when the preferred channel dies (AP reboot,
//! captive portal, out of range) it must *fail over* and later *fail back*.
//!
//! [`LinkHealth`] distils a link's recent history into a three-state machine
//! (Up / Degraded / Down) from a rolling window of send outcomes, with
//! hysteresis so a borderline link does not flap, and probe-based recovery
//! so a Down link is re-tried at a bounded, cheap cadence rather than with
//! every report. [`FailoverTransport`] wires two transports to one
//! `LinkHealth`: it prefers the primary, routes traffic to the secondary
//! while the primary is Down, and periodically probes the primary with real
//! traffic to detect recovery. Every burst — including probes that fail —
//! lands in the router's own merged telemetry [`Recorder`], so the energy
//! ledger prices resilience exactly like any other radio activity.

use crate::transport::forward;
use crate::{Payload, SendOutcome, Transport, TransportKind};
use rand::Rng;
use roomsense_sim::{SimDuration, SimTime};
use roomsense_telemetry::{keys, Recorder, TelemetryEvent};
use std::collections::VecDeque;
use std::fmt;

/// The health of one uplink channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LinkState {
    /// The link is delivering normally.
    Up,
    /// The success ratio dipped below the degraded threshold — still usable,
    /// but one more bad stretch away from failover.
    Degraded,
    /// The link is considered dead; traffic is routed elsewhere and only
    /// periodic probes touch it.
    Down,
}

impl fmt::Display for LinkState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkState::Up => f.write_str("up"),
            LinkState::Degraded => f.write_str("degraded"),
            LinkState::Down => f.write_str("down"),
        }
    }
}

/// Thresholds and cadences for `LinkHealth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkHealthConfig {
    /// How many recent send outcomes the rolling window keeps.
    pub(crate) window: usize,
    /// Minimum outcomes in the window before any transition is considered
    /// (a single failed first send must not condemn the link).
    pub(crate) min_samples: usize,
    /// Success ratio below which an Up link becomes Degraded.
    pub(crate) degraded_below: f64,
    /// Success ratio below which the link is declared Down.
    pub(crate) down_below: f64,
    /// Success ratio a Degraded link must climb back above to be Up again —
    /// strictly higher than `degraded_below`, which is the hysteresis gap
    /// that stops flapping.
    pub(crate) recover_above: f64,
    /// While Down, how often the primary may be probed with real traffic.
    pub(crate) probe_interval: SimDuration,
    /// Consecutive successful probes required to leave Down.
    pub(crate) probes_to_recover: u32,
}

impl Default for LinkHealthConfig {
    /// Window of 8 sends, degraded below 50 %, down below 25 %, recovery
    /// above 75 %, probe every 30 s, two clean probes to come back.
    fn default() -> Self {
        LinkHealthConfig {
            window: 8,
            min_samples: 4,
            degraded_below: 0.5,
            down_below: 0.25,
            recover_above: 0.75,
            probe_interval: SimDuration::from_secs(30),
            probes_to_recover: 2,
        }
    }
}

impl LinkHealthConfig {
    fn validate(&self) {
        assert!(self.window > 0, "window must be non-zero");
        assert!(
            self.min_samples > 0 && self.min_samples <= self.window,
            "min_samples must be in 1..=window"
        );
        assert!(
            self.down_below <= self.degraded_below && self.degraded_below < self.recover_above,
            "thresholds must satisfy down_below <= degraded_below < recover_above"
        );
        assert!(
            self.probes_to_recover > 0,
            "probes_to_recover must be non-zero"
        );
    }
}

/// Rolling-window link health with hysteresis and probe-based recovery.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LinkHealth {
    config: LinkHealthConfig,
    window: VecDeque<bool>,
    state: LinkState,
    probe_successes: u32,
    last_probe: Option<SimTime>,
    transitions: u64,
}

impl LinkHealth {
    /// Creates a health tracker starting in [`LinkState::Up`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero window, inverted
    /// thresholds, zero probe requirement).
    pub(crate) fn new(config: LinkHealthConfig) -> Self {
        config.validate();
        LinkHealth {
            config,
            window: VecDeque::with_capacity(config.window),
            state: LinkState::Up,
            probe_successes: 0,
            last_probe: None,
            transitions: 0,
        }
    }

    /// The current state.
    pub(crate) fn state(&self) -> LinkState {
        self.state
    }

    /// Success ratio over the rolling window, or `None` before the first
    /// recorded outcome.
    pub(crate) fn success_ratio(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let ok = self.window.iter().filter(|&&s| s).count();
        Some(ok as f64 / self.window.len() as f64)
    }

    fn set_state(&mut self, state: LinkState) {
        if self.state != state {
            self.state = state;
            self.transitions += 1;
        }
    }

    /// Records a regular (non-probe) send outcome and updates the state.
    /// While Down, regular traffic does not touch the link, so this is only
    /// meaningful in Up/Degraded.
    pub(crate) fn record(&mut self, success: bool) {
        if self.window.len() == self.config.window {
            self.window.pop_front();
        }
        self.window.push_back(success);
        if self.window.len() < self.config.min_samples {
            return;
        }
        let ratio = self.success_ratio().expect("window is non-empty");
        match self.state {
            LinkState::Up => {
                if ratio < self.config.down_below {
                    self.set_state(LinkState::Down);
                } else if ratio < self.config.degraded_below {
                    self.set_state(LinkState::Degraded);
                }
            }
            LinkState::Degraded => {
                if ratio < self.config.down_below {
                    self.set_state(LinkState::Down);
                } else if ratio >= self.config.recover_above {
                    self.set_state(LinkState::Up);
                }
            }
            // Down only recovers through probes.
            LinkState::Down => {}
        }
    }

    /// True when a Down link is due for a recovery probe at time `at`.
    pub(crate) fn probe_due(&self, at: SimTime) -> bool {
        self.state == LinkState::Down
            && self
                .last_probe
                .map(|last| at.saturating_since(last) >= self.config.probe_interval)
                .unwrap_or(true)
    }

    /// Records a recovery-probe outcome. After
    /// [`probes_to_recover`](LinkHealthConfig::probes_to_recover)
    /// consecutive successes the link returns to Up with a reset (all-green)
    /// window, so it is not instantly re-condemned by stale history.
    pub(crate) fn record_probe(&mut self, at: SimTime, success: bool) {
        self.last_probe = Some(at);
        if !success {
            self.probe_successes = 0;
            return;
        }
        self.probe_successes += 1;
        if self.probe_successes >= self.config.probes_to_recover {
            self.probe_successes = 0;
            self.window.clear();
            for _ in 0..self.config.min_samples {
                self.window.push_back(true);
            }
            self.set_state(LinkState::Up);
        }
    }
}

impl fmt::Display for LinkHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.success_ratio() {
            Some(ratio) => write!(
                f,
                "link {} ({:.0} % over window)",
                self.state,
                ratio * 100.0
            ),
            None => write!(f, "link {} (no traffic)", self.state),
        }
    }
}

/// Prefers a primary transport, fails over to a secondary while the primary
/// is `Down`, and probes the primary back to health.
///
/// Routing per send:
///
/// * primary Up/Degraded — send on the primary; on failure, the report is
///   immediately retried on the secondary (a failover burst), so a single
///   bad primary attempt does not cost the report.
/// * primary Down, probe due — the report doubles as the probe: it is tried
///   on the primary first (cheap if refused — outage probes are short
///   bursts), then on the secondary if the probe failed.
/// * primary Down, probe not due — straight to the secondary.
///
/// Every burst either transport records during a send is copied into the
/// router's own recorder with its own [`TransportKind`], so the energy
/// ledger prices Wi-Fi bursts as Wi-Fi and BT bursts as BT — resilience has
/// an explicit energy bill. The
/// router additionally counts `net.failover.sends` / `net.failover.probes`
/// and journals a [`TelemetryEvent::Failover`] per secondary send.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverTransport<P, S> {
    primary: P,
    secondary: S,
    health: LinkHealth,
    telemetry: Recorder,
    failover_sends: u64,
    probes: u64,
}

impl<P: Transport, S: Transport> FailoverTransport<P, S> {
    /// Wires `primary` and `secondary` to a fresh `LinkHealth`.
    pub fn new(primary: P, secondary: S, config: LinkHealthConfig) -> Self {
        FailoverTransport {
            primary,
            secondary,
            health: LinkHealth::new(config),
            telemetry: Recorder::new(),
            failover_sends: 0,
            probes: 0,
        }
    }

    fn send_secondary<R: Rng + ?Sized>(
        &mut self,
        at: SimTime,
        payload: Payload<'_>,
        rng: &mut R,
    ) -> SendOutcome {
        self.failover_sends += 1;
        self.telemetry.incr(keys::NET_FAILOVER_SENDS);
        self.telemetry.record_event(TelemetryEvent::Failover {
            at,
            kind: self.secondary.kind(),
        });
        forward(&mut self.telemetry, &mut self.secondary, at, payload, rng)
    }
}

impl<P: Transport, S: Transport> Transport for FailoverTransport<P, S> {
    /// A batch routes exactly like a single report: one outcome feeds one
    /// health sample — a burst is one observation of the link, however many
    /// reports it carries — and a miss fails the whole batch over.
    fn transmit<R: Rng + ?Sized>(
        &mut self,
        at: SimTime,
        payload: Payload<'_>,
        rng: &mut R,
    ) -> SendOutcome {
        if self.health.state() != LinkState::Down {
            let outcome = forward(&mut self.telemetry, &mut self.primary, at, payload, rng);
            // Server-side backpressure is not a link failure: the channel
            // carried the attempt and the server answered. Don't condemn
            // the link, and don't burn the secondary radio into the same
            // overloaded server — surface the signal so the queueing
            // layer above backs off.
            if outcome.is_backpressured() {
                return outcome;
            }
            self.health.record(outcome.is_delivered());
            if outcome.is_delivered() {
                return outcome;
            }
            // The report is too valuable to lose to one bad primary
            // attempt: retry it on the secondary right away.
            return self.send_secondary(at, payload, rng);
        }
        if self.health.probe_due(at) {
            self.probes += 1;
            self.telemetry.incr(keys::NET_FAILOVER_PROBES);
            let outcome = forward(&mut self.telemetry, &mut self.primary, at, payload, rng);
            // A backpressured probe proves the *link* works even though
            // the server shed the report: count it toward recovery, but
            // report the shed upward rather than rerouting.
            self.health
                .record_probe(at, outcome.is_delivered() || outcome.is_backpressured());
            if outcome.is_delivered() || outcome.is_backpressured() {
                return outcome;
            }
        }
        self.send_secondary(at, payload, rng)
    }

    fn telemetry(&self) -> &Recorder {
        &self.telemetry
    }

    fn telemetry_mut(&mut self) -> &mut Recorder {
        &mut self.telemetry
    }

    /// The channel currently carrying regular traffic.
    fn kind(&self) -> TransportKind {
        if self.health.state() == LinkState::Down {
            self.secondary.kind()
        } else {
            self.primary.kind()
        }
    }
}

impl<P: Transport + fmt::Display, S: Transport + fmt::Display> fmt::Display
    for FailoverTransport<P, S>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} over [{}] failing over to [{}] ({} failover sends, {} probes)",
            self.health, self.primary, self.secondary, self.failover_sends, self.probes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BtRelayTransport, DeviceId, FaultyTransport, ObservationReport, Retrying, SightedBeacon,
        WifiTransport,
    };
    use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
    use roomsense_sim::{rng, FaultSchedule, FaultWindow};

    fn report(seq: u64, at: SimTime) -> ObservationReport {
        ObservationReport {
            device: DeviceId::new(1),
            seq,
            at,
            beacons: vec![SightedBeacon {
                identity: BeaconIdentity {
                    uuid: ProximityUuid::example(),
                    major: Major::new(1),
                    minor: Minor::new(0),
                },
                distance_m: 2.0,
            }],
        }
    }

    #[test]
    fn health_transitions_with_hysteresis() {
        let mut health = LinkHealth::new(LinkHealthConfig::default());
        assert_eq!(health.state(), LinkState::Up);
        // One early failure is not enough samples to judge.
        health.record(false);
        assert_eq!(health.state(), LinkState::Up);
        for _ in 0..3 {
            health.record(false);
        }
        assert_eq!(health.state(), LinkState::Down);
        // A borderline recovery (exactly at degraded_below) does not flap
        // the state back: Down only recovers via probes.
        health.record(true);
        assert_eq!(health.state(), LinkState::Down);
    }

    #[test]
    fn degraded_needs_recover_above_to_go_up() {
        let config = LinkHealthConfig {
            window: 4,
            min_samples: 4,
            degraded_below: 0.5,
            down_below: 0.0,
            recover_above: 1.0,
            ..LinkHealthConfig::default()
        };
        let mut health = LinkHealth::new(config);
        for outcome in [true, false, false, false] {
            health.record(outcome);
        }
        assert_eq!(health.state(), LinkState::Degraded);
        // 3/4 successes is above degraded_below but below recover_above:
        // hysteresis keeps it Degraded.
        for _ in 0..2 {
            health.record(true);
        }
        assert_eq!(health.state(), LinkState::Degraded);
        for _ in 0..2 {
            health.record(true);
        }
        assert_eq!(health.state(), LinkState::Up);
    }

    #[test]
    fn probes_recover_a_down_link() {
        let mut health = LinkHealth::new(LinkHealthConfig::default());
        for _ in 0..8 {
            health.record(false);
        }
        assert_eq!(health.state(), LinkState::Down);
        let t0 = SimTime::from_secs(100);
        assert!(health.probe_due(t0));
        health.record_probe(t0, true);
        assert_eq!(health.state(), LinkState::Down, "one probe is not enough");
        // Not due again until the interval has passed.
        assert!(!health.probe_due(t0 + SimDuration::from_secs(1)));
        let t1 = t0 + SimDuration::from_secs(30);
        assert!(health.probe_due(t1));
        health.record_probe(t1, true);
        assert_eq!(health.state(), LinkState::Up);
    }

    #[test]
    fn failed_probe_resets_the_recovery_streak() {
        let mut health = LinkHealth::new(LinkHealthConfig::default());
        for _ in 0..8 {
            health.record(false);
        }
        health.record_probe(SimTime::from_secs(100), true);
        health.record_probe(SimTime::from_secs(130), false);
        health.record_probe(SimTime::from_secs(160), true);
        assert_eq!(health.state(), LinkState::Down, "streak must restart");
        health.record_probe(SimTime::from_secs(190), true);
        assert_eq!(health.state(), LinkState::Up);
    }

    #[test]
    fn no_flapping_exactly_at_hysteresis_thresholds() {
        // Ratios landing *exactly on* a threshold must resolve one way,
        // deterministically, and boundary oscillation must not rack up
        // transitions. Thresholds: degraded below 0.5 (strict), down below
        // 0.25 (strict), recovery at >= 0.75 (inclusive).
        let config = LinkHealthConfig {
            window: 4,
            min_samples: 4,
            degraded_below: 0.5,
            down_below: 0.25,
            recover_above: 0.75,
            ..LinkHealthConfig::default()
        };
        let mut health = LinkHealth::new(config);
        for outcome in [true, true, false, false] {
            health.record(outcome);
        }
        // Exactly 0.5: NOT below degraded_below, so Up holds.
        assert_eq!(health.success_ratio(), Some(0.5));
        assert_eq!(health.state(), LinkState::Up);
        assert_eq!(health.transitions, 0);
        // One more failure: exactly 0.25 — NOT below down_below, so the
        // link degrades rather than dying.
        health.record(false);
        assert_eq!(health.success_ratio(), Some(0.25));
        assert_eq!(health.state(), LinkState::Degraded);
        assert_eq!(health.transitions, 1);
        // Climb to exactly 0.75: recovery is inclusive, so Up.
        for _ in 0..3 {
            health.record(true);
        }
        assert_eq!(health.success_ratio(), Some(0.75));
        assert_eq!(health.state(), LinkState::Up);
        assert_eq!(health.transitions, 2);
        // Oscillate the ratio between the 0.5 and 0.75 marks: every value
        // sits on or inside the hysteresis band, so the state must not
        // move again.
        for outcome in [false, false, true, true, false, true] {
            health.record(outcome);
            assert_eq!(health.state(), LinkState::Up, "boundary flap");
        }
        assert_eq!(health.transitions, 2);
    }

    #[test]
    fn probe_recovery_races_a_scheduled_outage_window() {
        // Wi-Fi down for [60 s, 310 s). Reports flow every 10 s: the
        // rolling window walks Up -> Degraded (t=100) -> Down (t=120), so
        // probes fire at 130 s + 30 k — 130..280 all *inside* the outage
        // (each fails and resets the recovery streak) and the next lands
        // at exactly 310 s, the outage's half-open end. The race under
        // test: that boundary probe must count as recovery traffic (the
        // window no longer contains 310 s), and no report may be lost
        // while probes and the outage end interleave.
        let outage_end = SimTime::from_secs(310);
        let wifi = FaultyTransport::new(
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            FaultSchedule::new(vec![FaultWindow::new(SimTime::from_secs(60), outage_end)]),
        );
        let bt = BtRelayTransport::new(1.0, SimDuration::from_millis(400));
        let mut t = FailoverTransport::new(wifi, bt, LinkHealthConfig::default());
        let mut r = rng::for_component(23, "probe-race");
        let mut in_outage_probes_failed = 0u64;
        let mut recovered_at = None;
        for i in 0..60u64 {
            let at = SimTime::from_secs(i * 10);
            let before = t.probes;
            assert!(
                t.send(at, &report(i, at), &mut r).is_delivered(),
                "report at {at:?} lost during the probe/outage race"
            );
            let probed = t.probes > before;
            if probed && at < outage_end {
                in_outage_probes_failed += 1;
                assert_eq!(
                    t.health.state(),
                    LinkState::Down,
                    "an in-outage probe must not revive the link"
                );
            }
            if recovered_at.is_none() && t.health.state() == LinkState::Up && at >= outage_end {
                recovered_at = Some(at);
            }
        }
        assert!(
            in_outage_probes_failed >= 3,
            "the outage must be long enough to race several probes (got {in_outage_probes_failed})"
        );
        // Recovery needs two clean probes 30 s apart after the boundary:
        // the earliest possible instant is 300 s + 30 s.
        let recovered_at = recovered_at.expect("link must recover after the outage");
        assert!(
            recovered_at >= outage_end + SimDuration::from_secs(30),
            "recovered {recovered_at:?}: two consecutive probes cannot land sooner"
        );
        assert!(
            recovered_at <= outage_end + SimDuration::from_secs(60),
            "recovered {recovered_at:?}: recovery must not dawdle once the outage ends"
        );
        assert_eq!(t.health.state(), LinkState::Up);
    }

    #[test]
    fn failover_routes_to_secondary_during_primary_outage_and_fails_back() {
        // Wi-Fi dead from 60 s to 600 s; BT always works.
        let wifi = FaultyTransport::new(
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            FaultSchedule::new(vec![FaultWindow::new(
                SimTime::from_secs(60),
                SimTime::from_secs(600),
            )]),
        );
        let bt = BtRelayTransport::new(1.0, SimDuration::from_millis(400));
        let mut t = FailoverTransport::new(wifi, bt, LinkHealthConfig::default());
        let mut r = rng::for_component(21, "failover");
        let mut delivered = 0u32;
        for i in 0..120u64 {
            let at = SimTime::from_secs(i * 10);
            if t.send(at, &report(i, at), &mut r).is_delivered() {
                delivered += 1;
            }
        }
        // During the outage the primary refuses a handful of sends until the
        // window trips Down; after that everything rides the secondary, and
        // probes bring Wi-Fi back once the outage ends.
        assert_eq!(t.health.state(), LinkState::Up, "failed back after outage");
        assert!(t.failover_sends > 30, "failover sends {}", t.failover_sends);
        assert!(t.probes > 0);
        // Only the handful of sends while the window was filling were lost
        // (each of those still got a secondary retry, so in fact none are).
        assert_eq!(delivered, 120);
        // Both radio kinds show up in the merged log for the energy model.
        let kinds: std::collections::BTreeSet<String> = t
            .telemetry()
            .transport_events()
            .iter()
            .map(|e| e.kind.to_string())
            .collect();
        assert_eq!(kinds.len(), 2);
        // Counters mirror the accessors, and each failover send journalled
        // a Failover event.
        assert_eq!(
            t.telemetry().counter(keys::NET_FAILOVER_SENDS),
            t.failover_sends
        );
        assert_eq!(t.telemetry().counter(keys::NET_FAILOVER_PROBES), t.probes);
        let failover_events = t
            .telemetry()
            .journal()
            .filter(|e| matches!(e, TelemetryEvent::Failover { .. }))
            .count() as u64;
        assert_eq!(failover_events, t.failover_sends);
    }

    #[test]
    fn healthy_primary_never_fails_over() {
        let wifi = WifiTransport::new(1.0, SimDuration::from_millis(50));
        let bt = BtRelayTransport::new(1.0, SimDuration::from_millis(400));
        let mut t = FailoverTransport::new(wifi, bt, LinkHealthConfig::default());
        let mut r = rng::for_component(22, "no-failover");
        for i in 0..50u64 {
            let at = SimTime::from_secs(i * 10);
            assert!(t.send(at, &report(i, at), &mut r).is_delivered());
        }
        assert_eq!(t.failover_sends, 0);
        assert_eq!(t.probes, 0);
        assert_eq!(t.kind(), TransportKind::Wifi);
        assert_eq!(t.health.transitions, 0);
    }

    #[test]
    fn empty_batch_records_no_burst_and_no_health_sample() {
        let mut t = FailoverTransport::new(
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            BtRelayTransport::new(1.0, SimDuration::from_millis(400)),
            LinkHealthConfig::default(),
        );
        let mut r = rng::for_component(24, "empty-batch");
        let at = SimTime::from_secs(1);
        assert!(t.send(at, &report(0, at), &mut r).is_delivered());
        assert_eq!(t.telemetry().counter(keys::NET_TX_ATTEMPTS), 1);
        let later = SimTime::from_secs(2);
        assert!(t.send_batch(later, &[], &mut r).is_delivered());
        let attempts = t.telemetry().counter(keys::NET_TX_ATTEMPTS);
        assert_eq!(attempts, 1, "no radio, no burst");
        assert_eq!(t.health.success_ratio(), Some(1.0));
        assert_eq!(t.telemetry().transport_events().len(), 1);
    }

    #[test]
    fn every_retry_under_the_router_is_priced() {
        // A dead primary behind Retrying burns 1 + 2 bursts before the
        // router fails over; all three reach the merged recorder, not just
        // the last.
        let mut t = FailoverTransport::new(
            Retrying::new(BtRelayTransport::new(0.0, SimDuration::from_millis(400)), 2),
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            LinkHealthConfig::default(),
        );
        let mut r = rng::for_component(25, "retry-forward");
        let at = SimTime::from_secs(1);
        assert!(t.send(at, &report(0, at), &mut r).is_delivered());
        assert_eq!(t.primary.telemetry().counter(keys::NET_TX_ATTEMPTS), 3);
        assert_eq!(t.telemetry().counter(keys::NET_TX_ATTEMPTS), 4);
        assert_eq!(t.telemetry().counter(keys::NET_TX_ATTEMPTS_BT), 3);
        let forwarded = t.telemetry().transport_events();
        let primary = t.primary.telemetry().transport_events();
        assert_eq!(&forwarded[..3], &primary[..], "forwarded in record order");
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn inverted_thresholds_panic() {
        let _ = LinkHealth::new(LinkHealthConfig {
            degraded_below: 0.9,
            recover_above: 0.5,
            ..LinkHealthConfig::default()
        });
    }
}
