//! What the frozen `benchmark/src/probes.rs` compiles against and no
//! driver calls: `WallClock::{start, now}` — `probes.rs:598`, which stamps
//! the middleware probes' `now` off a wall clock. A run's clock is
//! [`vc_telemetry::WallTime`], read through its telemetry hub; this is a
//! reading of that same clock on the middleware's [`SimTime`] axis.

use vc_simnet::SimTime;
use vc_telemetry::{TimeSource, WallTime};

/// [`WallTime`] read as a [`SimTime`].
#[derive(Clone, Copy, Debug)]
pub struct WallClock(WallTime);

impl WallClock {
    /// Starts a clock at `SimTime::ZERO`.
    pub fn start() -> Self {
        WallClock(WallTime::new())
    }

    /// The current reading.
    pub fn now(&self) -> SimTime {
        SimTime::from_secs(self.0.now_s())
    }
}
