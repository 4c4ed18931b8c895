//! Uplink fault injection: AP downtime, relay refusal, server outages.
//!
//! A transport's stochastic loss (its per-attempt success probability)
//! models radio flakiness. Real deployments also see *correlated* downtime:
//! the Wi-Fi AP reboots, the mains-powered relay beacon is unplugged, the
//! BMS server is down for maintenance. [`FaultyTransport`] wraps any
//! [`Transport`] with a scheduled [`FaultSchedule`]: while a window is
//! active every send is refused — after the radio burns a (short) probe
//! burst, which the energy ledger prices like any other attempt.
//!
//! Outage layers compose by nesting: `FaultyTransport::new(
//! FaultyTransport::new(inner, ap_downtime), server_downtime)` fails when
//! either schedule is active, which is exactly how an end-to-end ACK behaves.

use crate::{Payload, SendOutcome, Transport, TransportEvent};
use rand::Rng;
use roomsense_sim::{FaultSchedule, SimDuration, SimTime};
use roomsense_telemetry::{keys, Recorder};
use std::fmt;

/// Wraps a transport with scheduled outage windows.
///
/// Refused probe bursts are priced into the *inner* transport's recorder
/// (the layer owns no sink of its own), so nesting outage layers keeps one
/// merged burst log at the base of the stack.
///
/// # Examples
///
/// ```
/// use roomsense_net::{FaultyTransport, Transport, WifiTransport};
/// use roomsense_sim::{FaultSchedule, FaultWindow, SimTime};
///
/// let downtime = FaultSchedule::new(vec![FaultWindow::new(
///     SimTime::from_secs(60),
///     SimTime::from_secs(120),
/// )]);
/// let transport = FaultyTransport::new(WifiTransport::default(), downtime);
/// assert_eq!(transport.outage_refusals(), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyTransport<T> {
    inner: T,
    outages: FaultSchedule,
    refusals: u64,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner`; sends during an `outages` window are refused.
    pub fn new(inner: T, outages: FaultSchedule) -> Self {
        FaultyTransport {
            inner,
            outages,
            refusals: 0,
        }
    }

    /// How many sends were refused by an outage window (as opposed to
    /// failing stochastically inside the wrapped transport).
    pub fn outage_refusals(&self) -> u64 {
        self.refusals
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    /// During an outage window a send — a whole batch included — costs
    /// exactly one probe burst; outside a window the payload passes through
    /// to the wrapped transport.
    fn transmit<R: Rng + ?Sized>(
        &mut self,
        at: SimTime,
        payload: Payload<'_>,
        rng: &mut R,
    ) -> SendOutcome {
        if self.outages.active_at(at) {
            // The radio still probes for the peer: a connect attempt that
            // times out quickly (plus jitter) — much shorter than a full
            // transfer, but not free.
            self.refusals += 1;
            let active = SimDuration::from_millis(80 + rng.gen_range(0..40));
            let probe = TransportEvent {
                kind: self.inner.kind(),
                start: at,
                active,
                delivered: false,
            };
            let telemetry = self.inner.telemetry_mut();
            telemetry.record_send(probe);
            telemetry.incr(keys::NET_TX_REFUSED);
            // Refused, not Failed: the loss is correlated (the peer is
            // down), so retry decorators should stop probing immediately.
            return SendOutcome::Refused;
        }
        self.inner.transmit(at, payload, rng)
    }

    fn telemetry(&self) -> &Recorder {
        self.inner.telemetry()
    }

    fn telemetry_mut(&mut self) -> &mut Recorder {
        self.inner.telemetry_mut()
    }

    fn kind(&self) -> crate::TransportKind {
        self.inner.kind()
    }
}

impl<T: Transport + fmt::Display> fmt::Display for FaultyTransport<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} behind {} outage window(s)",
            self.inner,
            self.outages.windows().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceId, ObservationReport, SightedBeacon, WifiTransport};
    use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
    use roomsense_sim::{rng, FaultWindow};

    fn report() -> ObservationReport {
        ObservationReport {
            device: DeviceId::new(1),
            seq: 0,
            at: SimTime::from_secs(1),
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

    fn outage(from_s: u64, until_s: u64) -> FaultSchedule {
        FaultSchedule::new(vec![FaultWindow::new(
            SimTime::from_secs(from_s),
            SimTime::from_secs(until_s),
        )])
    }

    #[test]
    fn sends_inside_the_window_are_refused_but_priced() {
        let mut t = FaultyTransport::new(
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            outage(10, 20),
        );
        let mut r = rng::for_component(1, "refuse");
        assert!(t
            .send(SimTime::from_secs(5), &report(), &mut r)
            .is_delivered());
        assert!(!t
            .send(SimTime::from_secs(15), &report(), &mut r)
            .is_delivered());
        assert!(t
            .send(SimTime::from_secs(25), &report(), &mut r)
            .is_delivered());
        assert_eq!(t.outage_refusals(), 1);
        // All three attempts appear in the merged burst log, including the
        // refused probe burst.
        let events = t.telemetry().transport_events();
        assert_eq!(events.len(), 3);
        assert!(!events[1].delivered);
        assert!(events[1].active >= SimDuration::from_millis(80));
        // The probe is cheaper than a real transfer would have been.
        assert!(events[1].active < events[0].active + SimDuration::from_millis(100));
        // And the refusal counter mirrors the accessor.
        assert_eq!(t.telemetry().counter(keys::NET_TX_REFUSED), 1);
    }

    #[test]
    fn no_outages_is_transparent() {
        let mut wrapped = FaultyTransport::new(WifiTransport::default(), FaultSchedule::none());
        let mut bare = WifiTransport::default();
        let mut r1 = rng::for_component(2, "transparent");
        let mut r2 = rng::for_component(2, "transparent");
        for i in 0..100 {
            let at = SimTime::from_secs(i);
            assert_eq!(
                wrapped.send(at, &report(), &mut r1),
                bare.send(at, &report(), &mut r2)
            );
        }
        assert_eq!(wrapped.telemetry(), bare.telemetry());
        assert_eq!(wrapped.outage_refusals(), 0);
    }

    #[test]
    fn refusals_return_refused_not_failed() {
        let mut t = FaultyTransport::new(WifiTransport::default(), outage(0, 10));
        let mut r = rng::for_component(4, "refused-kind");
        assert_eq!(
            t.send(SimTime::from_secs(5), &report(), &mut r),
            SendOutcome::Refused
        );
    }

    #[test]
    fn retrying_short_circuits_during_an_outage() {
        // During a scheduled window every immediate retry would be refused
        // too; the budget used to burn all six probe bursts, now one.
        let mut t = crate::Retrying::new(
            FaultyTransport::new(
                WifiTransport::new(1.0, SimDuration::from_millis(50)),
                outage(0, 100),
            ),
            5,
        );
        let mut r = rng::for_component(5, "retry-refused");
        let outcome = t.send(SimTime::from_secs(50), &report(), &mut r);
        assert_eq!(outcome, SendOutcome::Refused);
        assert_eq!(
            t.telemetry().transport_events().len(),
            1,
            "one probe burst, not six"
        );
        // Outside the window the link (and the retry budget) works as before.
        assert!(t
            .send(SimTime::from_secs(200), &report(), &mut r)
            .is_delivered());
    }

    #[test]
    fn nested_outage_layers_compose() {
        // AP down 0–10 s, server down 20–30 s: both windows refuse.
        let ap = FaultyTransport::new(
            WifiTransport::new(1.0, SimDuration::from_millis(50)),
            outage(0, 10),
        );
        let mut both = FaultyTransport::new(ap, outage(20, 30));
        let mut r = rng::for_component(3, "nested");
        assert!(!both
            .send(SimTime::from_secs(5), &report(), &mut r)
            .is_delivered());
        assert!(both
            .send(SimTime::from_secs(15), &report(), &mut r)
            .is_delivered());
        assert!(!both
            .send(SimTime::from_secs(25), &report(), &mut r)
            .is_delivered());
        assert_eq!(both.telemetry().transport_events().len(), 3);
        assert_eq!(both.delivery_rate(), Some(1.0 / 3.0));
    }
}
