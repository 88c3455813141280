//! Fleet pricing.

use serde::{Deserialize, Serialize};
use vc_simnet::InstanceSpec;

/// Cost summary of running a fleet for some duration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FleetCost {
    /// USD per hour on standard (on-demand) instances.
    pub standard_per_hour: f64,
    /// USD per hour on preemptible instances.
    pub preemptible_per_hour: f64,
    /// Run duration in hours.
    pub hours: f64,
}

impl FleetCost {
    /// Prices a fleet for a run of `hours`.
    pub fn of(fleet: &[InstanceSpec], hours: f64) -> FleetCost {
        FleetCost {
            standard_per_hour: fleet.iter().map(|i| i.hourly_usd).sum(),
            preemptible_per_hour: fleet.iter().map(|i| i.hourly_usd_preemptible).sum(),
            hours,
        }
    }

    /// Total cost on standard instances.
    pub fn standard_total(&self) -> f64 {
        self.standard_per_hour * self.hours
    }

    /// Total cost on preemptible instances.
    pub fn preemptible_total(&self) -> f64 {
        self.preemptible_per_hour * self.hours
    }

    /// Fractional saving from preemptible pricing (0.7 = 70 %).
    pub fn saving(&self) -> f64 {
        1.0 - self.preemptible_per_hour / self.standard_per_hour
    }

    /// Preemptible total *including* the expected extra runtime caused by
    /// interruptions (`extra_hours` from the §IV-E model): the honest
    /// comparison — cheap instances that stretch the job still have to pay
    /// for the stretch.
    pub fn preemptible_total_with_delay(&self, extra_hours: f64) -> f64 {
        self.preemptible_per_hour * (self.hours + extra_hours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_simnet::table1;

    #[test]
    fn paper_p5c5t2_costs() {
        // §IV-E: $1.67/h standard vs $0.50/h preemptible; 8 h ⇒ $13.4 vs $4.
        let fleet = table1::uniform_fleet(5);
        let cost = FleetCost::of(&fleet, 8.0);
        assert!((cost.standard_per_hour - 1.67).abs() < 1e-9);
        assert!((cost.preemptible_per_hour - 0.50).abs() < 1e-9);
        assert!((cost.standard_total() - 13.36).abs() < 0.05);
        assert!((cost.preemptible_total() - 4.0).abs() < 0.01);
        assert!((cost.saving() - 0.7006).abs() < 0.01);
    }

    #[test]
    fn delay_inflates_preemptible_cost() {
        let fleet = table1::uniform_fleet(5);
        let cost = FleetCost::of(&fleet, 8.0);
        // 50 minutes of expected extra time at p = 0.05.
        let with_delay = cost.preemptible_total_with_delay(50.0 / 60.0);
        assert!(with_delay > cost.preemptible_total());
        // Still far below standard.
        assert!(with_delay < 0.4 * cost.standard_total());
    }

    #[test]
    fn heterogeneous_fleet_prices_by_vcpu() {
        let mixed = table1::mixed_fleet(4);
        let cost = FleetCost::of(&mixed, 1.0);
        // Contains one 16-vCPU instance: pricier than 4×8-vCPU.
        let uniform = FleetCost::of(&table1::uniform_fleet(4), 1.0);
        assert!(cost.standard_per_hour > uniform.standard_per_hour);
    }
}
