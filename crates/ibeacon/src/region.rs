//! iBeacon regions: wildcard patterns over beacon identities.

use crate::{BeaconIdentity, Major, Minor, ProximityUuid};
use std::fmt;

/// An opaque identifier an application assigns to a monitored region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegionId(u32);

impl RegionId {
    /// Creates a region identifier.
    pub const fn new(value: u32) -> Self {
        RegionId(value)
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region#{}", self.0)
    }
}

/// A monitored iBeacon region: a UUID plus optional major/minor constraints.
///
/// Matching follows the iBeacon specification: the UUID must match exactly;
/// `major`/`minor` constrain the match only when present, and a `minor`
/// constraint is meaningful only alongside a `major` one (enforced by the
/// constructors — there is no way to build a minor-only region).
///
/// # Examples
///
/// ```
/// use roomsense_ibeacon::{Major, Minor, Region, ProximityUuid, BeaconIdentity};
///
/// let uuid = ProximityUuid::example();
/// let beacon = BeaconIdentity { uuid, major: Major::new(1), minor: Minor::new(9) };
///
/// assert!(Region::with_uuid(uuid).matches(&beacon));
/// assert!(Region::with_major(uuid, Major::new(1)).matches(&beacon));
/// assert!(!Region::with_major(uuid, Major::new(2)).matches(&beacon));
/// assert!(Region::with_minor(uuid, Major::new(1), Minor::new(9)).matches(&beacon));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    uuid: ProximityUuid,
    major: Option<Major>,
    minor: Option<Minor>,
}

impl Region {
    /// A region matching every beacon with this proximity UUID.
    pub const fn with_uuid(uuid: ProximityUuid) -> Self {
        Region {
            uuid,
            major: None,
            minor: None,
        }
    }

    /// A region matching beacons with this UUID and major value.
    pub const fn with_major(uuid: ProximityUuid, major: Major) -> Self {
        Region {
            uuid,
            major: Some(major),
            minor: None,
        }
    }

    /// A region matching exactly one beacon identity.
    pub const fn with_minor(uuid: ProximityUuid, major: Major, minor: Minor) -> Self {
        Region {
            uuid,
            major: Some(major),
            minor: Some(minor),
        }
    }

    /// Whether a beacon identity falls inside this region.
    pub fn matches(&self, beacon: &BeaconIdentity) -> bool {
        self.uuid == beacon.uuid
            && self.major.is_none_or(|m| m == beacon.major)
            && self.minor.is_none_or(|m| m == beacon.minor)
    }

    /// Whether this region's pattern is at least as specific as `other`'s
    /// (every beacon matching `self` also matches `other`).
    pub fn is_subregion_of(&self, other: &Region) -> bool {
        if self.uuid != other.uuid {
            return false;
        }
        let major_ok = match (other.major, self.major) {
            (None, _) => true,
            (Some(o), Some(s)) => o == s,
            (Some(_), None) => false,
        };
        let minor_ok = match (other.minor, self.minor) {
            (None, _) => true,
            (Some(o), Some(s)) => o == s,
            (Some(_), None) => false,
        };
        major_ok && minor_ok
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.uuid)?;
        match (self.major, self.minor) {
            (Some(ma), Some(mi)) => write!(f, "/{ma}/{mi}"),
            (Some(ma), None) => write!(f, "/{ma}/*"),
            _ => write!(f, "/*/*"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beacon(major: u16, minor: u16) -> BeaconIdentity {
        BeaconIdentity {
            uuid: ProximityUuid::example(),
            major: Major::new(major),
            minor: Minor::new(minor),
        }
    }

    #[test]
    fn uuid_only_matches_any_major_minor() {
        let r = Region::with_uuid(ProximityUuid::example());
        assert!(r.matches(&beacon(0, 0)));
        assert!(r.matches(&beacon(65535, 65535)));
    }

    #[test]
    fn wrong_uuid_never_matches() {
        let r = Region::with_uuid(ProximityUuid::from_bytes([0u8; 16]));
        assert!(!r.matches(&beacon(1, 1)));
    }

    #[test]
    fn major_constrains() {
        let r = Region::with_major(ProximityUuid::example(), Major::new(5));
        assert!(r.matches(&beacon(5, 99)));
        assert!(!r.matches(&beacon(6, 99)));
    }

    #[test]
    fn minor_constrains_fully() {
        let r = Region::with_minor(ProximityUuid::example(), Major::new(5), Minor::new(7));
        assert!(r.matches(&beacon(5, 7)));
        assert!(!r.matches(&beacon(5, 8)));
        assert!(!r.matches(&beacon(4, 7)));
    }

    #[test]
    fn subregion_ordering() {
        let uuid = ProximityUuid::example();
        let all = Region::with_uuid(uuid);
        let floor = Region::with_major(uuid, Major::new(1));
        let room = Region::with_minor(uuid, Major::new(1), Minor::new(2));
        assert!(room.is_subregion_of(&floor));
        assert!(room.is_subregion_of(&all));
        assert!(floor.is_subregion_of(&all));
        assert!(!all.is_subregion_of(&floor));
        assert!(!floor.is_subregion_of(&room));
        // Reflexivity.
        assert!(room.is_subregion_of(&room));
    }

    #[test]
    fn display_wildcards() {
        let uuid = ProximityUuid::example();
        assert!(Region::with_uuid(uuid).to_string().ends_with("/*/*"));
        assert!(Region::with_major(uuid, Major::new(3))
            .to_string()
            .ends_with("/3/*"));
    }
}
