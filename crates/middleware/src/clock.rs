//! The two clocks a run reads time from: wall-clock and virtual.
//!
//! [`crate::BoincServer`] is a pure state machine over [`SimTime`]: every
//! entry point takes `now` explicitly, so the *caller* decides what a clock
//! is. The discrete-event simulator feeds it event-queue timestamps; a real
//! runtime feeds it wall-clock readings through [`WallClock`]; and the
//! deterministic-simulation harness (`vc-runtime::sim`) feeds it a
//! [`VirtualClock`] whose time only advances when the simulation says so.
//! Both are telemetry time sources: a `vc-runtime` run installs its clock
//! in its telemetry hub, and the coordinator, the checkpoint timer and
//! every event timestamp read that one reading.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;
use vc_simnet::SimTime;

/// Maps real elapsed time onto the [`SimTime`] axis the middleware's
/// deadlines and metrics are expressed in.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    start: Instant,
    /// Seconds already on the clock when this process started (non-zero
    /// when resuming from a checkpoint, so reported times stay cumulative).
    offset_s: f64,
}

impl WallClock {
    /// Starts a clock at `SimTime::ZERO`.
    pub fn start() -> Self {
        Self::resumed_at(0.0)
    }

    /// Starts a clock that already shows `offset_s` seconds elapsed.
    pub fn resumed_at(offset_s: f64) -> Self {
        assert!(
            offset_s.is_finite() && offset_s >= 0.0,
            "invalid clock offset {offset_s}"
        );
        WallClock {
            start: Instant::now(),
            offset_s,
        }
    }

    /// The current reading.
    pub fn now(&self) -> SimTime {
        SimTime::from_secs(self.offset_s + self.start.elapsed().as_secs_f64())
    }
}

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
/// Handles are cheap clones sharing one reading, mirroring how
/// [`WallClock`] is `Copy`.
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

// Both clocks serve as telemetry time sources, so event timestamps ride
// the same SimTime axis as the middleware's deadlines — wall-driven on
// threads, simulation-driven (and therefore replayable) under DST.
impl vc_telemetry::TimeSource for WallClock {
    fn now_s(&self) -> f64 {
        self.now().as_secs()
    }
}

impl vc_telemetry::TimeSource for VirtualClock {
    fn now_s(&self) -> f64 {
        self.now().as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_measures_sleep() {
        let c = WallClock::start();
        let a = c.now();
        std::thread::sleep(std::time::Duration::from_millis(15));
        let b = c.now();
        assert!(b > a);
        assert!(b - a >= 0.014, "slept 15ms but clock shows {}", b - a);
    }

    #[test]
    fn resume_offset_shifts_readings() {
        let c = WallClock::resumed_at(100.0);
        let now = c.now().as_secs();
        assert!(now >= 100.0);
        assert!(now < 101.0, "the offset is where the reading starts");
    }

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
