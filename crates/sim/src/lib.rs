//! A small deterministic discrete-event simulation kernel.
//!
//! Every stochastic, time-driven part of the reproduction — advertisers
//! beaconing on a schedule, phones scanning in cycles, transports delivering
//! messages with latency, batteries draining — runs on this kernel:
//!
//! * [`SimTime`] / [`SimDuration`]: integer-millisecond timestamps. Integer
//!   time keeps event ordering exact and runs reproducible.
//! * [`EventQueue`]: a monotonic priority queue of `(SimTime, payload)` pairs
//!   with FIFO tie-breaking for simultaneous events.
//! * [`rng`]: seed-derivation helpers so each component gets an independent,
//!   named random stream from one experiment master seed.
//! * [`exec`]: a deterministic ordered parallel map — independent
//!   repetitions (per-device pipelines, grid points, sweep trials) fan out
//!   over scoped threads and come back bit-for-bit identical to the
//!   sequential path.
//! * [`FaultSchedule`]: seeded, scheduled fault windows — the shared
//!   substrate of fault injection across the radio, stack, and net layers.
//! * [`Mailbox`] / [`TickClock`]: bounded, counting event queues and the
//!   fixed-step virtual clock behind the overload-safe async ingestion
//!   tier — backpressure and shed decisions become pure functions of the
//!   call sequence.
//!
//! # Examples
//!
//! ```
//! use roomsense_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(20), "second");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(10), "first");
//! let (t, ev) = q.pop().expect("non-empty");
//! assert_eq!((t.as_millis(), ev), (10, "first"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
mod disk;
mod fault;
mod mailbox;
mod queue;
pub mod rng;
mod time;

pub use disk::{DiskFaultPlan, DiskStats, FileId, SharedDisk, SimDisk};
pub use fault::{FaultSchedule, FaultWindow};
pub use mailbox::{Mailbox, TickClock};
pub use queue::EventQueue;
pub use time::{SimDuration, SimTime};
