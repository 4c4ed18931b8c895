//! A small deterministic discrete-event simulation kernel.
//!
//! Every stochastic, time-driven part of the reproduction — advertisers
//! beaconing on a schedule, phones scanning in cycles, transports delivering
//! messages with latency, batteries draining — runs on this kernel:
//!
//! * [`SimTime`] / [`SimDuration`]: integer-millisecond timestamps. Integer
//!   time keeps event ordering exact and runs reproducible.
//! * [`rng`]: seed-derivation helpers so each component gets an independent,
//!   named random stream from one experiment master seed.
//! * [`exec`]: a deterministic ordered parallel map — independent
//!   repetitions (per-device pipelines, grid points, sweep trials) fan out
//!   over scoped threads and come back bit-for-bit identical to the
//!   sequential path.
//! * [`FaultSchedule`]: seeded, scheduled fault windows — the shared
//!   substrate of fault injection across the radio, stack, and net layers.
//! * [`Mailbox`]: bounded, counting event queues behind the overload-safe
//!   async ingestion tier — backpressure and shed decisions become pure
//!   functions of the call sequence.
//!
//! # Examples
//!
//! ```
//! use roomsense_sim::{Mailbox, SimDuration, SimTime};
//!
//! let mut inbox = Mailbox::new(1);
//! assert!(inbox.offer(SimTime::ZERO + SimDuration::from_millis(10), "first"));
//! assert!(!inbox.offer(SimTime::from_millis(20), "second"), "full: backpressure");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
pub mod exec;
mod fault;
mod mailbox;
pub mod rng;
mod time;

pub use disk::{DiskFaultPlan, FileId, SharedDisk, SimDisk};
pub use fault::{FaultSchedule, FaultWindow};
pub use mailbox::Mailbox;
pub use time::{SimDuration, SimTime};
