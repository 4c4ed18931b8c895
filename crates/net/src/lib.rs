//! The communication layer and the Building Management System.
//!
//! Paper Section IV/VII: each ranging cycle the phone reports the beacons it
//! sees (and their distances) to the building server, over one of two
//! channels:
//!
//! * [`WifiTransport`] — "more reliable and stable but forces to keep on the
//!   wireless adapter that has a high power consumption": an HTTP POST to
//!   the Flask/Tornado server.
//! * [`BtRelayTransport`] — "more energy \[efficient\], but less stable":
//!   a Bluetooth connection to the room's beacon transmitter, which relays
//!   to the server over its wired side.
//!
//! Every send produces a [`TransportEvent`] (start, air time, success) that
//! the energy model prices. The BMS server, [`ShardedBmsServer`], stores
//! observation reports, runs a pluggable [`OccupancyEstimator`], maintains
//! the per-room occupancy table, and drives a [`DemandResponseController`]
//! — the HVAC/lighting use-case the paper's introduction motivates. It is
//! `N >= 1` shards keyed by device, each holding one record per device; a
//! single server is one shard, and every query is one fold over the shards,
//! so the answer does not depend on the shard count. [`IngestTier`] puts
//! bounded mailboxes and admission control in front of it, and
//! [`CampusFederation`] merges several buildings' tiers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analytics;
mod archive;
mod batch;
mod bms;
pub mod counting;
mod demand;
mod fault;
mod federation;
mod health;
mod ingest;
mod message;
mod outbox;
mod peer;
mod shard;
mod transport;

pub use analytics::{DebouncedRoom, MovementAnalytics, RoomTransition};
pub use archive::{
    ArchiveConfig, ArchiveSink, ArchiveStats, Coverage, DeviceMark, RecoveryReport,
};
pub use batch::BatchingTransport;
pub use bms::{
    IngestOutcome, OccupancyEstimator, OccupancyView, RestoreError, RoomLabel, RoomPresence,
    ServerStats, ShardedBmsCheckpoint, ShardedBmsServer, Windowed,
};
pub use counting::{
    finalize_population, CountingConfig, LeveledPopulationView,
    PopulationEstimate, PopulationEvidence, PopulationView,
};
pub use demand::{DemandResponseController, DemandResponseReport, HvacState};
pub use fault::FaultyTransport;
pub use federation::{CampusFederation, CampusView};
pub use health::{FailoverTransport, LinkHealth, LinkHealthConfig, LinkState};
pub use ingest::{Admission, IngestTier, IngestTierConfig, LeveledView, ServiceLevel};
pub use message::{
    batched_wire_size_bytes, DeviceId, ObservationReport, SequenceStamper, SightedBeacon,
};
pub use peer::{PeerRelayConfig, PeerRelayTransport};
pub use transport::{
    BtRelayTransport, Delivery, Payload, QueueingTransport, Retrying, SendOutcome, Transport,
    TransportEvent, TransportKind, WifiTransport,
};
