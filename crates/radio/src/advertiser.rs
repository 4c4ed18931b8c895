//! The beacon transmitter: advertising schedule and channel hopping.
//!
//! A BLE advertiser repeats its payload every advertising interval plus a
//! random 0–10 ms delay (the spec's `advDelay`, which prevents two
//! advertisers from colliding forever), cycling over the three advertising
//! channels 37/38/39. The paper's Raspberry-Pi beacons were configured to
//! tens of advertisements per second — fast enough that iOS collects
//! hundreds of samples in a 10-second scan (Section V).

use rand::Rng;
use roomsense_ibeacon::Packet;
use roomsense_sim::{SimDuration, SimTime};
use std::fmt;

/// One of the three BLE advertising channels.
///
/// The channels sit at different frequencies (2402 / 2426 / 2480 MHz) and so
/// fade slightly differently; the simulator applies a small per-channel gain
/// offset to reflect that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdvChannel {
    /// 2402 MHz.
    Ch37,
    /// 2426 MHz.
    Ch38,
    /// 2480 MHz.
    Ch39,
}

impl AdvChannel {
    /// All three channels in hop order.
    pub(crate) const ALL: [AdvChannel; 3] = [AdvChannel::Ch37, AdvChannel::Ch38, AdvChannel::Ch39];

    /// Small deterministic gain offset relative to mid-band, in dB.
    pub(crate) fn gain_offset_db(self) -> f64 {
        match self {
            AdvChannel::Ch37 => 0.4,
            AdvChannel::Ch38 => 0.0,
            AdvChannel::Ch39 => -0.6,
        }
    }
}

impl fmt::Display for AdvChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = match self {
            AdvChannel::Ch37 => 37,
            AdvChannel::Ch38 => 38,
            AdvChannel::Ch39 => 39,
        };
        write!(f, "ch{n}")
    }
}

/// One advertising event: a packet leaves the antenna at `at` on `channel`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transmission {
    /// When the advertisement is on air.
    pub at: SimTime,
    /// Which advertising channel carries it.
    pub channel: AdvChannel,
}

/// A beacon transmitter with its advertising schedule.
///
/// # Examples
///
/// ```
/// use roomsense_ibeacon::{Major, MeasuredPower, Minor, Packet, ProximityUuid};
/// use roomsense_radio::Advertiser;
/// use roomsense_sim::{rng, SimDuration, SimTime};
///
/// let packet = Packet::new(ProximityUuid::example(), Major::new(1), Minor::new(1),
///                          MeasuredPower::new(-59));
/// let adv = Advertiser::new(packet, SimDuration::from_millis(100));
/// let mut r = rng::for_component(1, "adv-doc");
/// let txs = adv.schedule(SimTime::ZERO, SimTime::from_secs(1), &mut r);
/// // 100 ms nominal interval plus jitter ⇒ a little under 10 events/second.
/// assert!(txs.len() >= 8 && txs.len() <= 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Advertiser {
    packet: Packet,
    interval: SimDuration,
    max_jitter: SimDuration,
}

impl Advertiser {
    /// Creates an advertiser repeating `packet` every `interval` with the
    /// spec's default 0–10 ms random delay.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(packet: Packet, interval: SimDuration) -> Self {
        Advertiser::with_jitter(packet, interval, SimDuration::from_millis(10))
    }

    /// Creates an advertiser with an explicit maximum jitter (zero disables
    /// jitter, useful for deterministic tests).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_jitter(packet: Packet, interval: SimDuration, max_jitter: SimDuration) -> Self {
        assert!(!interval.is_zero(), "advertising interval must be non-zero");
        Advertiser {
            packet,
            interval,
            max_jitter,
        }
    }

    /// The advertised packet.
    pub fn packet(&self) -> &Packet {
        &self.packet
    }

    /// The nominal advertising interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Nominal advertisements per second.
    pub(crate) fn rate_hz(&self) -> f64 {
        1000.0 / self.interval.as_millis() as f64
    }

    /// Generates the advertising events in `[from, until)`.
    ///
    /// Each event hops to the next channel in 37→38→39 order; each interval
    /// stretches by a uniformly random `advDelay` in `[0, max_jitter]`.
    pub fn schedule<R: Rng + ?Sized>(
        &self,
        from: SimTime,
        until: SimTime,
        rng: &mut R,
    ) -> Vec<Transmission> {
        let mut out = Vec::new();
        self.schedule_into(from, until, rng, &mut out);
        out
    }

    /// Like [`schedule`](Self::schedule), but clearing and filling a
    /// caller-owned buffer so the hot batched path can reuse one allocation
    /// across advertisers and devices. The events and RNG draws are
    /// identical to [`schedule`](Self::schedule).
    pub fn schedule_into<R: Rng + ?Sized>(
        &self,
        from: SimTime,
        until: SimTime,
        rng: &mut R,
        out: &mut Vec<Transmission>,
    ) {
        out.clear();
        let mut t = from;
        let mut hop = 0usize;
        while t < until {
            out.push(Transmission {
                at: t,
                channel: AdvChannel::ALL[hop % 3],
            });
            hop += 1;
            let jitter_ms = if self.max_jitter.is_zero() {
                0
            } else {
                rng.gen_range(0..=self.max_jitter.as_millis())
            };
            t += self.interval + SimDuration::from_millis(jitter_ms);
        }
    }
}

impl fmt::Display for Advertiser {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {:.1} Hz", self.packet, self.rate_hz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_ibeacon::{Major, MeasuredPower, Minor, ProximityUuid};
    use roomsense_sim::rng;

    fn advertiser(interval_ms: u64, jitter_ms: u64) -> Advertiser {
        let p = Packet::new(
            ProximityUuid::example(),
            Major::new(1),
            Minor::new(1),
            MeasuredPower::new(-59),
        );
        Advertiser::with_jitter(
            p,
            SimDuration::from_millis(interval_ms),
            SimDuration::from_millis(jitter_ms),
        )
    }

    #[test]
    fn jitterless_schedule_is_exact() {
        let adv = advertiser(100, 0);
        let mut r = rng::for_component(1, "t");
        let txs = adv.schedule(SimTime::ZERO, SimTime::from_secs(1), &mut r);
        assert_eq!(txs.len(), 10);
        assert_eq!(txs[3].at, SimTime::from_millis(300));
    }

    #[test]
    fn channels_hop_in_order() {
        let adv = advertiser(100, 0);
        let mut r = rng::for_component(1, "t");
        let txs = adv.schedule(SimTime::ZERO, SimTime::from_secs(1), &mut r);
        assert_eq!(txs[0].channel, AdvChannel::Ch37);
        assert_eq!(txs[1].channel, AdvChannel::Ch38);
        assert_eq!(txs[2].channel, AdvChannel::Ch39);
        assert_eq!(txs[3].channel, AdvChannel::Ch37);
    }

    #[test]
    fn jitter_slows_the_schedule_slightly() {
        let adv = advertiser(100, 10);
        let mut r = rng::for_component(2, "t");
        let txs = adv.schedule(SimTime::ZERO, SimTime::from_secs(10), &mut r);
        // Mean interval is 105 ms ⇒ about 95 events in 10 s.
        assert!(txs.len() >= 90 && txs.len() <= 100, "got {}", txs.len());
        // Strictly increasing timestamps.
        for w in txs.windows(2) {
            assert!(w[1].at > w[0].at);
        }
    }

    #[test]
    fn thirty_hz_beacon_rate() {
        // The paper's example: "an iBeacon generator that transmits thirty
        // times per second".
        let adv = advertiser(33, 0);
        assert!((adv.rate_hz() - 30.3).abs() < 0.1);
    }

    #[test]
    fn empty_window_yields_nothing() {
        let adv = advertiser(100, 0);
        let mut r = rng::for_component(3, "t");
        let txs = adv.schedule(SimTime::from_secs(5), SimTime::from_secs(5), &mut r);
        assert!(txs.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_panics() {
        let _ = advertiser(0, 0);
    }
}
