//! Byte-level encoding of the iBeacon advertising payload (paper Fig 1).

use crate::ProximityUuid;
use bytes::{BufMut, BytesMut};
use std::fmt;

/// Total length of an iBeacon advertising payload in bytes.
///
/// Layout (paper Fig 1): a 9-byte constant prefix, the 16-byte proximity
/// UUID, 2-byte major, 2-byte minor and the measured-power byte. The prefix
/// is two BLE AD structures: flags (`02 01 06`) and the manufacturer-specific
/// header (`1A FF 4C 00 02 15` — Apple company ID, beacon type 2, length 21).
pub(crate) const ADVERTISEMENT_LEN: usize = 30;

/// The 9-byte constant iBeacon prefix that identifies the protocol.
pub(crate) const PREFIX: [u8; 9] = [0x02, 0x01, 0x06, 0x1a, 0xff, 0x4c, 0x00, 0x02, 0x15];

/// The *major* value: groups related beacons (paper: e.g. one floor).
///
/// # Examples
///
/// ```
/// use roomsense_ibeacon::Major;
/// assert_eq!(Major::new(258).value(), 258);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Major(u16);

/// The *minor* value: distinguishes beacons sharing a UUID and major
/// (paper: e.g. one room).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Minor(u16);

/// The calibrated signal strength measured one metre from the transmitter,
/// in dBm (the packet's TX-power field).
///
/// Ranging compares the received RSSI against this reference, so the field
/// must be calibrated at deployment time (see
/// [`Calibrator`](crate::Calibrator)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MeasuredPower(i8);

impl Major {
    /// Creates a major value.
    pub const fn new(value: u16) -> Self {
        Major(value)
    }

    /// The raw 16-bit value.
    pub const fn value(self) -> u16 {
        self.0
    }
}

impl Minor {
    /// Creates a minor value.
    pub const fn new(value: u16) -> Self {
        Minor(value)
    }

    /// The raw 16-bit value.
    pub const fn value(self) -> u16 {
        self.0
    }
}

impl MeasuredPower {
    /// Creates a measured-power value in dBm. Typical calibrated values for
    /// BLE dongles are around −59 dBm.
    pub const fn new(dbm: i8) -> Self {
        MeasuredPower(dbm)
    }

    /// The value in dBm.
    pub const fn dbm(self) -> i8 {
        self.0
    }
}

impl Default for MeasuredPower {
    /// −59 dBm, a common calibration value for 0 dBm-class transmitters.
    fn default() -> Self {
        MeasuredPower(-59)
    }
}

impl fmt::Display for Major {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Minor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for MeasuredPower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} dBm", self.0)
    }
}

/// The identity triple `(uuid, major, minor)` that uniquely names a beacon.
///
/// This is what region matching and the classifier key on; it omits the
/// measured-power byte, which is calibration data rather than identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BeaconIdentity {
    /// Deployment-wide proximity UUID.
    pub uuid: ProximityUuid,
    /// Beacon group (paper: floor / area).
    pub major: Major,
    /// Beacon instance (paper: room antenna).
    pub minor: Minor,
}

impl fmt::Display for BeaconIdentity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.uuid, self.major, self.minor)
    }
}

/// A full iBeacon advertising packet.
///
/// # Examples
///
/// ```
/// use roomsense_ibeacon::{Major, MeasuredPower, Minor, Packet, ProximityUuid};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = Packet::new(ProximityUuid::example(), Major::new(1), Minor::new(2),
///                     MeasuredPower::new(-59));
/// let bytes = p.encode();
/// assert_eq!(bytes.len(), 30);
/// assert_eq!(Packet::decode(&bytes)?, p);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Packet {
    uuid: ProximityUuid,
    major: Major,
    minor: Minor,
    measured_power: MeasuredPower,
}

/// Error decoding an iBeacon packet from advertising bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodePacketError {
    /// The payload was not exactly [`ADVERTISEMENT_LEN`] bytes.
    WrongLength {
        /// Number of bytes supplied.
        found: usize,
    },
    /// The payload is valid BLE advertising data but not an iBeacon packet
    /// (prefix mismatch at the given byte offset).
    NotIBeacon {
        /// First prefix byte that differed.
        offset: usize,
    },
}

impl fmt::Display for DecodePacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodePacketError::WrongLength { found } => {
                write!(f, "expected {ADVERTISEMENT_LEN} bytes, found {found}")
            }
            DecodePacketError::NotIBeacon { offset } => {
                write!(
                    f,
                    "not an ibeacon payload (prefix mismatch at byte {offset})"
                )
            }
        }
    }
}

impl std::error::Error for DecodePacketError {}

impl Packet {
    /// Creates a packet from its four fields.
    pub const fn new(
        uuid: ProximityUuid,
        major: Major,
        minor: Minor,
        measured_power: MeasuredPower,
    ) -> Self {
        Packet {
            uuid,
            major,
            minor,
            measured_power,
        }
    }

    /// The proximity UUID.
    pub const fn uuid(&self) -> ProximityUuid {
        self.uuid
    }

    /// The minor value.
    pub const fn minor(&self) -> Minor {
        self.minor
    }

    /// The calibrated measured power at one metre.
    pub const fn measured_power(&self) -> MeasuredPower {
        self.measured_power
    }

    /// The identity triple of the transmitting beacon.
    pub const fn identity(&self) -> BeaconIdentity {
        BeaconIdentity {
            uuid: self.uuid,
            major: self.major,
            minor: self.minor,
        }
    }

    /// Encodes the packet into its 30-byte advertising payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(ADVERTISEMENT_LEN);
        buf.put_slice(&PREFIX);
        buf.put_slice(self.uuid.as_bytes());
        buf.put_u16(self.major.value());
        buf.put_u16(self.minor.value());
        buf.put_i8(self.measured_power.dbm());
        debug_assert_eq!(buf.len(), ADVERTISEMENT_LEN);
        buf.to_vec()
    }

    /// Decodes a packet from a 30-byte advertising payload.
    ///
    /// # Errors
    ///
    /// `DecodePacketError::WrongLength` if `bytes` is not exactly 30 bytes;
    /// `DecodePacketError::NotIBeacon` if the constant prefix does not
    /// match (for example, a non-Apple manufacturer ID).
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodePacketError> {
        if bytes.len() != ADVERTISEMENT_LEN {
            return Err(DecodePacketError::WrongLength { found: bytes.len() });
        }
        for (offset, (found, expected)) in bytes.iter().zip(PREFIX.iter()).enumerate() {
            if found != expected {
                return Err(DecodePacketError::NotIBeacon { offset });
            }
        }
        let mut uuid = [0u8; 16];
        uuid.copy_from_slice(&bytes[9..25]);
        let major = u16::from_be_bytes([bytes[25], bytes[26]]);
        let minor = u16::from_be_bytes([bytes[27], bytes[28]]);
        let measured_power = bytes[29] as i8;
        Ok(Packet {
            uuid: ProximityUuid::from_bytes(uuid),
            major: Major::new(major),
            minor: Minor::new(minor),
            measured_power: MeasuredPower::new(measured_power),
        })
    }
}

impl TryFrom<&[u8]> for Packet {
    type Error = DecodePacketError;

    fn try_from(bytes: &[u8]) -> Result<Self, Self::Error> {
        Packet::decode(bytes)
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ibeacon {} tx={}", self.identity(), self.measured_power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        Packet::new(
            ProximityUuid::example(),
            Major::new(0x0102),
            Minor::new(0xfffe),
            MeasuredPower::new(-59),
        )
    }

    #[test]
    fn encode_layout_matches_figure_1() {
        let bytes = sample().encode();
        assert_eq!(bytes.len(), ADVERTISEMENT_LEN);
        assert_eq!(&bytes[..9], &PREFIX);
        assert_eq!(&bytes[9..25], ProximityUuid::example().as_bytes());
        assert_eq!(&bytes[25..27], &[0x01, 0x02]); // major, big-endian
        assert_eq!(&bytes[27..29], &[0xff, 0xfe]); // minor, big-endian
        assert_eq!(bytes[29] as i8, -59);
    }

    #[test]
    fn decode_roundtrip() {
        let p = sample();
        assert_eq!(Packet::decode(&p.encode()).expect("valid"), p);
    }

    #[test]
    fn wrong_length_rejected() {
        assert_eq!(
            Packet::decode(&[0u8; 29]),
            Err(DecodePacketError::WrongLength { found: 29 })
        );
        assert_eq!(
            Packet::decode(&[0u8; 31]),
            Err(DecodePacketError::WrongLength { found: 31 })
        );
    }

    #[test]
    fn non_apple_manufacturer_rejected() {
        let mut bytes = sample().encode();
        bytes[5] = 0x59; // Nordic Semiconductor instead of Apple
        assert_eq!(
            Packet::decode(&bytes),
            Err(DecodePacketError::NotIBeacon { offset: 5 })
        );
    }

    #[test]
    fn corrupted_prefix_reports_first_bad_byte() {
        let mut bytes = sample().encode();
        bytes[0] = 0x03;
        assert_eq!(
            Packet::decode(&bytes),
            Err(DecodePacketError::NotIBeacon { offset: 0 })
        );
    }

    #[test]
    fn extreme_field_values_roundtrip() {
        let p = Packet::new(
            ProximityUuid::from_bytes([0xff; 16]),
            Major::new(u16::MAX),
            Minor::new(0),
            MeasuredPower::new(i8::MIN),
        );
        assert_eq!(Packet::decode(&p.encode()).expect("valid"), p);
    }

    #[test]
    fn identity_omits_power() {
        let a = sample();
        let b = Packet::new(a.uuid(), a.major, a.minor(), MeasuredPower::new(-70));
        assert_eq!(a.identity(), b.identity());
        assert_ne!(a, b);
    }

    #[test]
    fn try_from_mirrors_decode() {
        let bytes = sample().encode();
        let p: Packet = bytes.as_slice().try_into().expect("valid");
        assert_eq!(p, sample());
        let err: Result<Packet, _> = [0u8; 3].as_slice().try_into();
        assert!(err.is_err());
    }

    #[test]
    fn default_measured_power_is_minus_59() {
        assert_eq!(MeasuredPower::default().dbm(), -59);
    }

    /// Asserts the decoder's contract on `bytes`: it returns `Ok` exactly
    /// when the length is 30 and the 9-byte prefix matches, and an `Ok`
    /// re-encodes to the same bytes. A panic inside `decode` fails too.
    fn assert_decode_contract(bytes: &[u8]) {
        let valid = bytes.len() == ADVERTISEMENT_LEN && bytes[..PREFIX.len()] == PREFIX;
        match Packet::decode(bytes) {
            Ok(packet) => {
                assert!(valid, "accepted invalid bytes {bytes:02x?}");
                assert_eq!(packet.encode(), bytes);
            }
            Err(_) => assert!(!valid, "rejected a valid payload {bytes:02x?}"),
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Arbitrary 0–64 byte inputs, half of them carrying the iBeacon
        /// prefix so the `Ok` branch is reached too.
        #[test]
        fn decode_is_total_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..65),
            prefixed in any::<bool>(),
        ) {
            let mut bytes = bytes;
            if prefixed && bytes.len() >= PREFIX.len() {
                bytes[..PREFIX.len()].copy_from_slice(&PREFIX);
            }
            assert_decode_contract(&bytes);
        }

        /// Every single-byte flip and every truncation of a valid encoding.
        #[test]
        fn damaged_encodings_keep_the_decode_contract(
            uuid in prop::array::uniform16(any::<u8>()),
            major in any::<u16>(),
            minor in any::<u16>(),
            power in any::<i8>(),
            flip in 1u8..=255,
        ) {
            let bytes = Packet::new(
                ProximityUuid::from_bytes(uuid),
                Major::new(major),
                Minor::new(minor),
                MeasuredPower::new(power),
            )
            .encode();
            assert_decode_contract(&bytes);
            for at in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[at] ^= flip;
                assert_decode_contract(&flipped);
            }
            for len in 0..bytes.len() {
                assert_decode_contract(&bytes[..len]);
            }
        }
    }
}
