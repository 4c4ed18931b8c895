//! Region monitoring: the enter/exit state machine (paper Section III).
//!
//! "The monitoring notifies a listener application every time we enter/exit
//! a specific iBeacon region." A region is *entered* at the first sighting of
//! a matching beacon and *exited* when no matching beacon has been sighted
//! for an exit timeout (real stacks use ~10–30 s; Android's scan cycles make
//! this the only way to distinguish a lost packet from a true exit).

use crate::{BeaconIdentity, Region, RegionId};
use roomsense_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt;

/// Configuration of the monitoring state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionMonitorConfig {
    /// How long a region may go unsighted before an exit event fires.
    pub exit_timeout: SimDuration,
}

impl Default for RegionMonitorConfig {
    /// Ten seconds, matching the Radius Networks library default behaviour.
    fn default() -> Self {
        RegionMonitorConfig {
            exit_timeout: SimDuration::from_secs(10),
        }
    }
}

/// A monitoring notification delivered to the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorEvent {
    /// The device entered the region (first matching sighting).
    Entered {
        /// Which monitored region.
        region: RegionId,
        /// When the triggering sighting occurred.
        at: SimTime,
    },
    /// The device exited the region (no sighting for the exit timeout).
    Exited {
        /// Which monitored region.
        region: RegionId,
        /// When the exit was declared (last sighting + timeout).
        at: SimTime,
    },
}

impl fmt::Display for MonitorEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorEvent::Entered { region, at } => write!(f, "{at} entered {region}"),
            MonitorEvent::Exited { region, at } => write!(f, "{at} exited {region}"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RegionState {
    region: Region,
    inside: bool,
    last_sighting: Option<SimTime>,
}

/// Tracks enter/exit state for a set of monitored regions.
///
/// Feed every decoded beacon sighting to [`observe`](Self::observe) and call
/// [`tick`](Self::tick) periodically (e.g. at the end of each scan cycle) to
/// let exit timeouts fire.
///
/// # Examples
///
/// ```
/// use roomsense_ibeacon::{
///     BeaconIdentity, Major, Minor, MonitorEvent, ProximityUuid, Region, RegionId,
///     RegionMonitor, RegionMonitorConfig,
/// };
/// use roomsense_sim::{SimDuration, SimTime};
///
/// let uuid = ProximityUuid::example();
/// let mut monitor = RegionMonitor::new(RegionMonitorConfig {
///     exit_timeout: SimDuration::from_secs(10),
/// });
/// monitor.add_region(RegionId::new(1), Region::with_uuid(uuid));
///
/// let beacon = BeaconIdentity { uuid, major: Major::new(1), minor: Minor::new(1) };
/// let events = monitor.observe(SimTime::from_secs(1), &beacon);
/// assert_eq!(events, vec![MonitorEvent::Entered { region: RegionId::new(1),
///                                                  at: SimTime::from_secs(1) }]);
///
/// // No sightings for > 10 s ⇒ exit.
/// let events = monitor.tick(SimTime::from_secs(12));
/// assert!(matches!(events[0], MonitorEvent::Exited { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct RegionMonitor {
    config: RegionMonitorConfig,
    regions: HashMap<RegionId, RegionState>,
    // Deterministic iteration order for event emission.
    order: Vec<RegionId>,
}

impl RegionMonitor {
    /// Creates a monitor with no regions.
    pub fn new(config: RegionMonitorConfig) -> Self {
        RegionMonitor {
            config,
            regions: HashMap::new(),
            order: Vec::new(),
        }
    }

    /// Registers a region to monitor. Re-adding an id replaces its pattern
    /// and resets its state.
    pub fn add_region(&mut self, id: RegionId, region: Region) {
        if self
            .regions
            .insert(
                id,
                RegionState {
                    region,
                    inside: false,
                    last_sighting: None,
                },
            )
            .is_none()
        {
            self.order.push(id);
        }
    }

    /// Stops monitoring a region. Returns whether it was registered.
    ///
    /// Kept public: paper behaviour (Fig 3) that only unit tests run.
    pub fn remove_region(&mut self, id: RegionId) -> bool {
        self.order.retain(|r| *r != id);
        self.regions.remove(&id).is_some()
    }

    /// Whether the device is currently inside the given region.
    ///
    /// Kept public: paper behaviour (Fig 3) that only unit tests run.
    pub fn is_inside(&self, id: RegionId) -> bool {
        self.regions.get(&id).is_some_and(|s| s.inside)
    }

    /// Processes one beacon sighting at time `at`, returning any enter
    /// events it triggers.
    pub fn observe(&mut self, at: SimTime, beacon: &BeaconIdentity) -> Vec<MonitorEvent> {
        let mut events = Vec::new();
        for id in &self.order {
            let state = self.regions.get_mut(id).expect("order tracks regions");
            if !state.region.matches(beacon) {
                continue;
            }
            state.last_sighting = Some(at);
            if !state.inside {
                state.inside = true;
                events.push(MonitorEvent::Entered { region: *id, at });
            }
        }
        events
    }

    /// Advances time to `now`, firing exit events for regions whose last
    /// sighting is older than the exit timeout.
    pub fn tick(&mut self, now: SimTime) -> Vec<MonitorEvent> {
        let mut events = Vec::new();
        for id in &self.order {
            let state = self.regions.get_mut(id).expect("order tracks regions");
            if !state.inside {
                continue;
            }
            let last = state.last_sighting.expect("inside implies a sighting");
            if now.saturating_since(last) > self.config.exit_timeout {
                state.inside = false;
                events.push(MonitorEvent::Exited {
                    region: *id,
                    at: last + self.config.exit_timeout,
                });
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Major, Minor, ProximityUuid};

    fn beacon(major: u16, minor: u16) -> BeaconIdentity {
        BeaconIdentity {
            uuid: ProximityUuid::example(),
            major: Major::new(major),
            minor: Minor::new(minor),
        }
    }

    fn monitor_with(regions: &[(u32, Region)]) -> RegionMonitor {
        let mut m = RegionMonitor::new(RegionMonitorConfig::default());
        for (id, r) in regions {
            m.add_region(RegionId::new(*id), *r);
        }
        m
    }

    #[test]
    fn first_sighting_enters() {
        let mut m = monitor_with(&[(1, Region::with_uuid(ProximityUuid::example()))]);
        let ev = m.observe(SimTime::from_secs(1), &beacon(1, 1));
        assert_eq!(ev.len(), 1);
        assert!(m.is_inside(RegionId::new(1)));
    }

    #[test]
    fn repeated_sightings_do_not_reenter() {
        let mut m = monitor_with(&[(1, Region::with_uuid(ProximityUuid::example()))]);
        m.observe(SimTime::from_secs(1), &beacon(1, 1));
        let ev = m.observe(SimTime::from_secs(2), &beacon(1, 2));
        assert!(ev.is_empty());
    }

    #[test]
    fn exit_fires_after_timeout_only() {
        let mut m = monitor_with(&[(1, Region::with_uuid(ProximityUuid::example()))]);
        m.observe(SimTime::from_secs(1), &beacon(1, 1));
        assert!(m.tick(SimTime::from_secs(10)).is_empty()); // 9 s silent: still in
        let ev = m.tick(SimTime::from_secs(12)); // 11 s silent: out
        assert_eq!(
            ev,
            vec![MonitorEvent::Exited {
                region: RegionId::new(1),
                at: SimTime::from_secs(11),
            }]
        );
        assert!(!m.is_inside(RegionId::new(1)));
    }

    #[test]
    fn sighting_refreshes_timeout() {
        let mut m = monitor_with(&[(1, Region::with_uuid(ProximityUuid::example()))]);
        m.observe(SimTime::from_secs(0), &beacon(1, 1));
        m.observe(SimTime::from_secs(8), &beacon(1, 1));
        assert!(m.tick(SimTime::from_secs(15)).is_empty()); // only 7 s silent
        assert_eq!(m.tick(SimTime::from_secs(19)).len(), 1); // 11 s silent
    }

    #[test]
    fn reentry_after_exit() {
        let mut m = monitor_with(&[(1, Region::with_uuid(ProximityUuid::example()))]);
        m.observe(SimTime::from_secs(0), &beacon(1, 1));
        m.tick(SimTime::from_secs(20));
        let ev = m.observe(SimTime::from_secs(21), &beacon(1, 1));
        assert!(matches!(ev[0], MonitorEvent::Entered { .. }));
    }

    #[test]
    fn multiple_regions_track_independently() {
        let uuid = ProximityUuid::example();
        let mut m = monitor_with(&[
            (1, Region::with_major(uuid, Major::new(1))),
            (2, Region::with_major(uuid, Major::new(2))),
        ]);
        m.observe(SimTime::from_secs(0), &beacon(1, 5));
        assert!(m.is_inside(RegionId::new(1)));
        assert!(!m.is_inside(RegionId::new(2)));
        m.observe(SimTime::from_secs(1), &beacon(2, 5));
        assert!(m.is_inside(RegionId::new(2)));
    }

    #[test]
    fn one_sighting_can_enter_overlapping_regions() {
        let uuid = ProximityUuid::example();
        let mut m = monitor_with(&[
            (1, Region::with_uuid(uuid)),
            (2, Region::with_major(uuid, Major::new(1))),
        ]);
        let ev = m.observe(SimTime::from_secs(0), &beacon(1, 5));
        assert_eq!(ev.len(), 2);
    }

    #[test]
    fn remove_region_stops_tracking() {
        let mut m = monitor_with(&[(1, Region::with_uuid(ProximityUuid::example()))]);
        assert!(m.remove_region(RegionId::new(1)));
        assert!(!m.remove_region(RegionId::new(1)));
        let ev = m.observe(SimTime::from_secs(0), &beacon(1, 1));
        assert!(ev.is_empty());
        assert!(m.regions.is_empty());
    }

    #[test]
    fn non_matching_beacon_ignored() {
        let mut m = monitor_with(&[(
            1,
            Region::with_minor(ProximityUuid::example(), Major::new(1), Minor::new(1)),
        )]);
        let ev = m.observe(SimTime::from_secs(0), &beacon(1, 2));
        assert!(ev.is_empty());
        assert!(!m.is_inside(RegionId::new(1)));
    }
}
