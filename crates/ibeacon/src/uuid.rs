//! The 16-byte proximity UUID identifying a beacon deployment.

use std::fmt;
use std::str::FromStr;

/// The proximity UUID field of an iBeacon packet.
///
/// All beacons of one organization share a proximity UUID (paper Section
/// III); an app monitors regions keyed on it.
///
/// # Examples
///
/// ```
/// use roomsense_ibeacon::ProximityUuid;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let uuid: ProximityUuid = "f7826da6-4fa2-4e98-8024-bc5b71e0893e".parse()?;
/// assert_eq!(uuid.to_string(), "f7826da6-4fa2-4e98-8024-bc5b71e0893e");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProximityUuid([u8; 16]);

impl ProximityUuid {
    /// Creates a UUID from its raw 16 bytes.
    pub const fn from_bytes(bytes: [u8; 16]) -> Self {
        ProximityUuid(bytes)
    }

    /// The raw 16 bytes, big-endian as transmitted on air.
    pub const fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// A fixed example UUID used throughout tests and examples
    /// (`f7826da6-4fa2-4e98-8024-bc5b71e0893e`, the Kontakt.io default).
    pub const fn example() -> Self {
        ProximityUuid([
            0xf7, 0x82, 0x6d, 0xa6, 0x4f, 0xa2, 0x4e, 0x98, 0x80, 0x24, 0xbc, 0x5b, 0x71, 0xe0,
            0x89, 0x3e,
        ])
    }
}

/// Error parsing a [`ProximityUuid`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseProximityUuidError {
    /// The string did not contain exactly 32 hexadecimal digits (hyphens are
    /// ignored).
    WrongLength {
        /// Number of hex digits found.
        found: usize,
    },
    /// A character other than a hex digit or `-` was found.
    InvalidCharacter {
        /// The offending character.
        character: char,
    },
}

impl fmt::Display for ParseProximityUuidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseProximityUuidError::WrongLength { found } => {
                write!(f, "expected 32 hex digits, found {found}")
            }
            ParseProximityUuidError::InvalidCharacter { character } => {
                write!(f, "invalid character {character:?} in uuid")
            }
        }
    }
}

impl std::error::Error for ParseProximityUuidError {}

impl FromStr for ProximityUuid {
    type Err = ParseProximityUuidError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut bytes = [0u8; 16];
        let mut nibbles = 0usize;
        for c in s.chars() {
            if c == '-' {
                continue;
            }
            let v = c
                .to_digit(16)
                .ok_or(ParseProximityUuidError::InvalidCharacter { character: c })?
                as u8;
            if nibbles >= 32 {
                // Count the rest for the error message.
                let extra = s.chars().filter(|c| *c != '-').count();
                return Err(ParseProximityUuidError::WrongLength { found: extra });
            }
            let byte = nibbles / 2;
            if nibbles.is_multiple_of(2) {
                bytes[byte] = v << 4;
            } else {
                bytes[byte] |= v;
            }
            nibbles += 1;
        }
        if nibbles != 32 {
            return Err(ParseProximityUuidError::WrongLength { found: nibbles });
        }
        Ok(ProximityUuid(bytes))
    }
}

impl fmt::Display for ProximityUuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.0.iter().enumerate() {
            if matches!(i, 4 | 6 | 8 | 10) {
                write!(f, "-")?;
            }
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl From<[u8; 16]> for ProximityUuid {
    fn from(bytes: [u8; 16]) -> Self {
        ProximityUuid(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_roundtrip() {
        let text = "f7826da6-4fa2-4e98-8024-bc5b71e0893e";
        let uuid: ProximityUuid = text.parse().expect("valid");
        assert_eq!(uuid.to_string(), text);
        assert_eq!(uuid, ProximityUuid::example());
    }

    #[test]
    fn parse_without_hyphens() {
        let a: ProximityUuid = "f7826da64fa24e988024bc5b71e0893e".parse().expect("valid");
        assert_eq!(a, ProximityUuid::example());
    }

    #[test]
    fn parse_uppercase() {
        let a: ProximityUuid = "F7826DA6-4FA2-4E98-8024-BC5B71E0893E"
            .parse()
            .expect("valid");
        assert_eq!(a, ProximityUuid::example());
    }

    #[test]
    fn too_short_rejected() {
        let err = "f7826da6".parse::<ProximityUuid>().unwrap_err();
        assert_eq!(err, ParseProximityUuidError::WrongLength { found: 8 });
    }

    #[test]
    fn too_long_rejected() {
        let err = "f7826da64fa24e988024bc5b71e0893e00"
            .parse::<ProximityUuid>()
            .unwrap_err();
        assert!(matches!(err, ParseProximityUuidError::WrongLength { .. }));
    }

    #[test]
    fn invalid_character_rejected() {
        let err = "g7826da64fa24e988024bc5b71e0893e"
            .parse::<ProximityUuid>()
            .unwrap_err();
        assert_eq!(
            err,
            ParseProximityUuidError::InvalidCharacter { character: 'g' }
        );
    }

    #[test]
    fn bytes_roundtrip() {
        let bytes = *ProximityUuid::example().as_bytes();
        assert_eq!(ProximityUuid::from_bytes(bytes), ProximityUuid::example());
    }
}
