//! BLE radio propagation simulation.
//!
//! The paper measures everything through real 2.4 GHz radios: a Raspberry-Pi
//! beacon, house walls, and two very different phone RX chains. This crate
//! replaces that hardware with a parameterised channel model that reproduces
//! the *statistics* the paper observes:
//!
//! * `pathloss` — deterministic mean RSSI vs distance (log-distance law).
//! * [`shadowing`] — spatially correlated log-normal shadowing, so nearby
//!   positions see similar obstruction loss (furniture, people, humidity).
//! * [`fading`] — per-packet Rician/Rayleigh multipath fading: the reason
//!   Fig 4's samples scatter so widely at a fixed distance.
//! * [`Environment`] — wall segments with per-material attenuation, counted
//!   along the straight-line path.
//! * [`DeviceRxProfile`] — per-phone-model RX gain offset, noise and sample
//!   loss, the cause of Fig 11's Nexus 5 vs Galaxy S3 Mini gap.
//! * [`Advertiser`] / [`Channel`] — tie it together: who transmits when, and
//!   what RSSI (if anything) a given receiver records.
//!
//! # Examples
//!
//! ```
//! use roomsense_geom::Point;
//! use roomsense_radio::{
//!     AdvChannel, Channel, DeviceRxProfile, Environment, Sightlines, TransmitterProfile,
//! };
//! use roomsense_sim::{rng, SimTime};
//!
//! let env = Environment::free_space();
//! let channel = Channel::new(env);
//! let tx = TransmitterProfile::default();
//! let rx = DeviceRxProfile::galaxy_s3_mini();
//! let mut rand = rng::for_component(42, "doc");
//!
//! let mut table = Sightlines::default();
//! table.aim(channel.environment(), Point::new(0.0, 0.0));
//! let rx_pos = Point::new(2.0, 0.0);
//! let budget = channel.link_budget_from(&table, &tx, &rx, rx_pos);
//! let rssi = channel.sample_rssi_with_budget_on_at(
//!     SimTime::ZERO, &budget, &rx, rx_pos, AdvChannel::Ch38, &mut rand,
//! );
//! // A 2 m line-of-sight link is comfortably above sensitivity:
//! assert!(rssi.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advertiser;
mod channel;
mod device;
mod environment;
pub mod fading;
mod fault;
mod interference;
mod pathloss;
pub mod shadowing;

pub use advertiser::{AdvChannel, Advertiser, Transmission};
pub use channel::{Channel, LinkBudget, TransmitterProfile};
pub use device::DeviceRxProfile;
pub use environment::{Environment, Sightlines, Wall, WallMaterial};
pub use fault::TransmitterFault;
pub use interference::Interferer;
