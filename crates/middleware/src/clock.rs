//! The virtual clock a deterministic simulation reads time from.
//!
//! [`crate::BoincServer`] is a pure state machine over [`SimTime`]: every
//! entry point takes `now`, so the *caller* decides what a clock is — the
//! DES's event-queue timestamps, the threaded runtime's
//! [`vc_telemetry::WallTime`], or, under deterministic simulation
//! (`vc-runtime::sim`), a [`VirtualClock`] that advances only when the
//! simulation says so. A run reads its one clock through its telemetry hub.

use parking_lot::Mutex;
use std::sync::Arc;
use vc_simnet::SimTime;

/// A clock that advances only when told to: the reading half of
/// deterministic simulation testing.
///
/// The simulation's event loop owns the event queue
/// ([`vc_simnet::EventQueue`]) and calls [`VirtualClock::set`] with each
/// instant it pops; everything else — the coordinator's timeout scans, the
/// telemetry time source — only reads. Nothing ever sleeps, so a minute of
/// simulated timeouts costs microseconds of real time, and two runs that
/// pop the same events read identical timestamps — bit for bit.
///
/// Handles are cheap clones sharing one reading.
#[derive(Clone)]
pub struct VirtualClock {
    now: Arc<Mutex<SimTime>>,
}

impl VirtualClock {
    /// A clock at `SimTime::ZERO`.
    pub fn new() -> Self {
        VirtualClock {
            now: Arc::new(Mutex::new(SimTime::ZERO)),
        }
    }

    /// The current reading.
    pub fn now(&self) -> SimTime {
        *self.now.lock()
    }

    /// Moves the reading forward to `at`; an earlier `at` leaves it where
    /// it is, so readings never decrease.
    pub fn set(&self, at: SimTime) {
        let mut now = self.now.lock();
        *now = now.max(at);
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

// A telemetry time source, so event timestamps ride the same SimTime axis
// as the middleware's deadlines — simulation-driven, and therefore
// replayable, under DST.
impl vc_telemetry::TimeSource for VirtualClock {
    fn now_s(&self) -> f64 {
        self.now().as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_only_on_demand() {
        let c = VirtualClock::new();
        let reader = c.clone();
        assert_eq!(reader.now(), SimTime::ZERO);
        c.set(SimTime::from_secs(2.0));
        assert_eq!(reader.now(), SimTime::from_secs(2.0), "clones share");
        c.set(SimTime::from_secs(5.0));
        assert_eq!(vc_telemetry::TimeSource::now_s(&reader), 5.0);
    }

    #[test]
    fn reading_never_runs_backwards() {
        let c = VirtualClock::new();
        c.set(SimTime::from_secs(3.0));
        c.set(SimTime::from_secs(1.0));
        assert_eq!(c.now(), SimTime::from_secs(3.0));
    }
}
