//! The beacon application state machine (paper Fig 3).
//!
//! "The Boot Handler listens to the boot complete event … and launches the
//! Background Service. This service will take care of turning on the
//! Bluetooth and creating the Monitoring Service. … it is necessary to
//! execute the Ranging Service as soon as the device entered in a region."
//!
//! The machine's states and transitions:
//!
//! ```text
//! PoweredOff --BootCompleted--> BackgroundService
//! BackgroundService --BluetoothEnabled--> Monitoring
//! Monitoring --RegionEntered--> Ranging
//! Ranging --RegionExited (last region)--> Monitoring
//! any --BluetoothDisabled--> BackgroundService   (adapter crash / airplane)
//! ```

use roomsense_ibeacon::RegionId;
use roomsense_sim::SimTime;
use std::collections::BTreeSet;
use std::fmt;

/// The application's lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppState {
    /// The phone has not finished booting; nothing runs.
    PoweredOff,
    /// The background service is up but Bluetooth is not yet enabled.
    BackgroundService,
    /// Monitoring for region entry; not ranging (saves energy while no
    /// beacon is around).
    Monitoring,
    /// Inside at least one region: the ranging service runs every scan
    /// cycle and reports to the server.
    Ranging,
}

impl fmt::Display for AppState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AppState::PoweredOff => "powered-off",
            AppState::BackgroundService => "background-service",
            AppState::Monitoring => "monitoring",
            AppState::Ranging => "ranging",
        };
        f.write_str(s)
    }
}

/// Inputs to the application state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppEvent {
    /// Android finished booting (`BOOT_COMPLETED` broadcast).
    BootCompleted,
    /// The background service turned the Bluetooth adapter on.
    BluetoothEnabled,
    /// The adapter went away (crash, airplane mode).
    BluetoothDisabled,
    /// The monitoring service detected entry into a region.
    RegionEntered(RegionId),
    /// The monitoring service detected exit from a region.
    RegionExited(RegionId),
}

impl fmt::Display for AppEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppEvent::BootCompleted => f.write_str("boot-completed"),
            AppEvent::BluetoothEnabled => f.write_str("bluetooth-enabled"),
            AppEvent::BluetoothDisabled => f.write_str("bluetooth-disabled"),
            AppEvent::RegionEntered(r) => write!(f, "entered {r}"),
            AppEvent::RegionExited(r) => write!(f, "exited {r}"),
        }
    }
}

/// One entry in the application's transition log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// When the event was handled.
    pub(crate) at: SimTime,
    /// The event.
    pub event: AppEvent,
    /// State before.
    pub(crate) from: AppState,
    /// State after (equal to `from` when the event was ignored).
    pub to: AppState,
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {} -> {}",
            self.at, self.event, self.from, self.to
        )
    }
}

/// The Fig 3 application.
///
/// # Examples
///
/// ```
/// use roomsense_ibeacon::RegionId;
/// use roomsense_sim::SimTime;
/// use roomsense_stack::app::{App, AppEvent, AppState};
///
/// let mut app = App::new();
/// assert_eq!(app.state(), AppState::PoweredOff);
/// app.handle(SimTime::ZERO, AppEvent::BootCompleted);
/// app.handle(SimTime::from_millis(500), AppEvent::BluetoothEnabled);
/// app.handle(SimTime::from_secs(3), AppEvent::RegionEntered(RegionId::new(1)));
/// assert_eq!(app.state(), AppState::Ranging);
/// app.handle(SimTime::from_secs(60), AppEvent::RegionExited(RegionId::new(1)));
/// assert_eq!(app.state(), AppState::Monitoring);
/// ```
#[derive(Debug, Clone, Default)]
pub struct App {
    state: AppStateInner,
    log: Vec<Transition>,
}

#[derive(Debug, Clone, Default)]
struct AppStateInner {
    state: Option<AppState>,
    inside: BTreeSet<RegionId>,
}

impl AppStateInner {
    fn current(&self) -> AppState {
        self.state.unwrap_or(AppState::PoweredOff)
    }
}

impl App {
    /// A freshly installed app on a powered-off phone.
    pub fn new() -> Self {
        App::default()
    }

    /// The current lifecycle state.
    pub fn state(&self) -> AppState {
        self.state.current()
    }

    /// The regions the app currently believes it is inside.
    ///
    /// Kept public: paper behaviour (Fig 3) that only unit tests run.
    pub fn regions_inside(&self) -> impl Iterator<Item = RegionId> + '_ {
        self.state.inside.iter().copied()
    }

    /// Whether the ranging service is running (and so observations flow to
    /// the server and the radio burns scan energy).
    ///
    /// Kept public: paper behaviour (Fig 3) that only unit tests run.
    pub fn is_ranging(&self) -> bool {
        self.state.current() == AppState::Ranging
    }

    /// The full transition log (including ignored events), for Fig 3 traces.
    pub fn log(&self) -> &[Transition] {
        &self.log
    }

    /// Feeds one event to the machine, returning the resulting state.
    ///
    /// Events that make no sense in the current state (for example a region
    /// entry while Bluetooth is off) are ignored but still logged — real
    /// Android delivers stale intents and the app must shrug them off.
    pub fn handle(&mut self, at: SimTime, event: AppEvent) -> AppState {
        let from = self.state.current();
        let to = match (from, event) {
            (AppState::PoweredOff, AppEvent::BootCompleted) => AppState::BackgroundService,
            (AppState::BackgroundService, AppEvent::BluetoothEnabled) => AppState::Monitoring,
            (AppState::Monitoring | AppState::Ranging, AppEvent::BluetoothDisabled) => {
                self.state.inside.clear();
                AppState::BackgroundService
            }
            (AppState::Monitoring, AppEvent::RegionEntered(r)) => {
                self.state.inside.insert(r);
                AppState::Ranging
            }
            (AppState::Ranging, AppEvent::RegionEntered(r)) => {
                self.state.inside.insert(r);
                AppState::Ranging
            }
            (AppState::Ranging, AppEvent::RegionExited(r)) => {
                self.state.inside.remove(&r);
                if self.state.inside.is_empty() {
                    AppState::Monitoring
                } else {
                    AppState::Ranging
                }
            }
            // Everything else is a stale or out-of-order event: ignore.
            (s, _) => s,
        };
        self.state.state = Some(to);
        self.log.push(Transition {
            at,
            event,
            from,
            to,
        });
        to
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn booted() -> App {
        let mut app = App::new();
        app.handle(SimTime::ZERO, AppEvent::BootCompleted);
        app.handle(SimTime::from_millis(100), AppEvent::BluetoothEnabled);
        app
    }

    #[test]
    fn happy_path_reaches_ranging() {
        let mut app = booted();
        assert_eq!(app.state(), AppState::Monitoring);
        app.handle(
            SimTime::from_secs(1),
            AppEvent::RegionEntered(RegionId::new(1)),
        );
        assert!(app.is_ranging());
    }

    #[test]
    fn region_entry_before_bluetooth_is_ignored() {
        let mut app = App::new();
        app.handle(SimTime::ZERO, AppEvent::BootCompleted);
        let s = app.handle(
            SimTime::from_millis(10),
            AppEvent::RegionEntered(RegionId::new(1)),
        );
        assert_eq!(s, AppState::BackgroundService);
        assert_eq!(app.regions_inside().count(), 0);
    }

    #[test]
    fn ranging_persists_while_any_region_remains() {
        let mut app = booted();
        app.handle(
            SimTime::from_secs(1),
            AppEvent::RegionEntered(RegionId::new(1)),
        );
        app.handle(
            SimTime::from_secs(2),
            AppEvent::RegionEntered(RegionId::new(2)),
        );
        app.handle(
            SimTime::from_secs(3),
            AppEvent::RegionExited(RegionId::new(1)),
        );
        assert!(app.is_ranging());
        app.handle(
            SimTime::from_secs(4),
            AppEvent::RegionExited(RegionId::new(2)),
        );
        assert_eq!(app.state(), AppState::Monitoring);
    }

    #[test]
    fn bluetooth_crash_resets_to_background_service() {
        let mut app = booted();
        app.handle(
            SimTime::from_secs(1),
            AppEvent::RegionEntered(RegionId::new(1)),
        );
        app.handle(SimTime::from_secs(2), AppEvent::BluetoothDisabled);
        assert_eq!(app.state(), AppState::BackgroundService);
        assert_eq!(app.regions_inside().count(), 0);
        // Recovery path works again.
        app.handle(SimTime::from_secs(3), AppEvent::BluetoothEnabled);
        app.handle(
            SimTime::from_secs(4),
            AppEvent::RegionEntered(RegionId::new(1)),
        );
        assert!(app.is_ranging());
    }

    #[test]
    fn duplicate_boot_is_ignored() {
        let mut app = booted();
        let before = app.state();
        app.handle(SimTime::from_secs(9), AppEvent::BootCompleted);
        assert_eq!(app.state(), before);
    }

    #[test]
    fn exit_of_unknown_region_is_harmless() {
        let mut app = booted();
        app.handle(
            SimTime::from_secs(1),
            AppEvent::RegionEntered(RegionId::new(1)),
        );
        app.handle(
            SimTime::from_secs(2),
            AppEvent::RegionExited(RegionId::new(9)),
        );
        assert!(app.is_ranging());
    }

    #[test]
    fn log_records_everything_in_order() {
        let mut app = booted();
        app.handle(
            SimTime::from_secs(1),
            AppEvent::RegionEntered(RegionId::new(1)),
        );
        let log = app.log();
        assert_eq!(log.len(), 3);
        assert!(log.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(log[0].from, AppState::PoweredOff);
        assert_eq!(log[2].to, AppState::Ranging);
    }
}
