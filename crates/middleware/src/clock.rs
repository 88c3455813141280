//! Clock abstraction: wall-clock and virtual drivability.
//!
//! [`crate::BoincServer`] is a pure state machine over [`SimTime`]: every
//! entry point takes `now` explicitly, so the *caller* decides what a clock
//! is. The discrete-event simulator feeds it event-queue timestamps; a real
//! runtime feeds it wall-clock readings through [`WallClock`]; and the
//! deterministic-simulation harness (`vc-runtime::sim`) feeds it a
//! [`VirtualClock`] whose time only advances when the simulation says so.
//! The [`Clock`] trait is the seam: code written against it (the
//! `vc-runtime` coordinator, the checkpoint timer) runs unmodified on
//! either substrate.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;
use vc_simnet::SimTime;

/// A source of `now` readings on the [`SimTime`] axis.
///
/// Implementations must be monotone: successive [`Clock::now`] readings
/// never decrease. Beyond that the trait is silent about *what* drives the
/// clock — real time ([`WallClock`]) or an event loop ([`VirtualClock`]).
pub trait Clock {
    /// The current reading, suitable for every `now` parameter of
    /// [`crate::BoincServer`].
    fn now(&self) -> SimTime;

    /// Seconds elapsed since the clock started (excluding any resume
    /// offset) — the time *this run* has consumed.
    fn elapsed_s(&self) -> f64;
}

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

    /// The current reading (inherent form, so callers need not import
    /// [`Clock`]).
    pub fn now(&self) -> SimTime {
        SimTime::from_secs(self.offset_s + self.start.elapsed().as_secs_f64())
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        WallClock::now(self)
    }

    fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
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
    offset_s: f64,
}

impl VirtualClock {
    /// A clock at `SimTime::ZERO`.
    pub fn new() -> Self {
        Self::resumed_at(0.0)
    }

    /// A clock that already shows `offset_s` seconds elapsed.
    pub fn resumed_at(offset_s: f64) -> Self {
        assert!(
            offset_s.is_finite() && offset_s >= 0.0,
            "invalid clock offset {offset_s}"
        );
        VirtualClock {
            now: Arc::new(Mutex::new(SimTime::from_secs(offset_s))),
            offset_s,
        }
    }

    /// Moves the reading forward to `at`; an earlier `at` leaves it where
    /// it is, so the [`Clock`] monotonicity contract holds by construction.
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

// Both clocks also serve as telemetry time sources, so event timestamps
// ride the same SimTime axis as the middleware's deadlines — wall-driven
// on threads, simulation-driven (and therefore replayable) under DST.
impl vc_telemetry::TimeSource for WallClock {
    fn now_s(&self) -> f64 {
        WallClock::now(self).as_secs()
    }
}

impl vc_telemetry::TimeSource for VirtualClock {
    fn now_s(&self) -> f64 {
        Clock::now(self).as_secs()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        *self.now.lock()
    }

    fn elapsed_s(&self) -> f64 {
        self.now().as_secs() - self.offset_s
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
        assert!(c.now().as_secs() >= 100.0);
        assert!(c.elapsed_s() < 1.0, "offset must not count as elapsed");
    }

    #[test]
    fn virtual_clock_advances_only_on_demand() {
        let c = VirtualClock::new();
        let reader = c.clone();
        assert_eq!(reader.now(), SimTime::ZERO);
        c.set(SimTime::from_secs(2.0));
        assert_eq!(reader.now(), SimTime::from_secs(2.0), "clones share");
        c.set(SimTime::from_secs(5.0));
        assert!((Clock::elapsed_s(&reader) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn reading_never_runs_backwards() {
        let c = VirtualClock::new();
        c.set(SimTime::from_secs(3.0));
        c.set(SimTime::from_secs(1.0));
        assert_eq!(c.now(), SimTime::from_secs(3.0));
    }

    #[test]
    fn virtual_resume_offset_excluded_from_elapsed() {
        let c = VirtualClock::resumed_at(50.0);
        c.set(SimTime::from_secs(54.0));
        assert_eq!(c.now(), SimTime::from_secs(54.0));
        assert!((Clock::elapsed_s(&c) - 4.0).abs() < 1e-12);
    }
}
