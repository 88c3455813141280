//! Instance catalog: the paper's Table I plus AWS-calibrated pricing.

use serde::{Deserialize, Serialize};

/// A cloud-instance configuration (one row of Table I) with pricing.
///
/// Prices are calibrated to §IV-E: the P5C5T2 fleet of five 8-vCPU/32-GB
/// clients costs $1.67/h on standard instances and $0.50/h preemptible
/// (a 70 % saving), i.e. $0.334 and $0.10 per instance-hour for that type;
/// other types scale by vCPU count.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InstanceSpec {
    /// Catalog name, e.g. `"client-8v-2.2"`.
    pub name: String,
    /// Virtual CPU count.
    pub vcpus: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Memory in GiB.
    pub ram_gb: f64,
    /// Network bandwidth ceiling in Gbit/s ("up to" in Table I).
    pub bandwidth_gbps: f64,
    /// On-demand (standard) price, USD per hour.
    pub hourly_usd: f64,
    /// Preemptible (spot) price, USD per hour.
    pub hourly_usd_preemptible: f64,
}

impl InstanceSpec {
    /// Relative single-core speed vs the 2.2 GHz reference client.
    pub fn core_speed(&self) -> f64 {
        self.clock_ghz / 2.2
    }
}

/// The paper's Table I, plus pricing derived from §IV-E.
pub mod table1 {
    use super::InstanceSpec;

    /// Standard-instance price per vCPU-hour implied by the P5C5T2 fleet
    /// ($1.67/h over 40 vCPUs).
    pub const USD_PER_VCPU_HOUR: f64 = 1.67 / 40.0;

    /// Preemptible price per vCPU-hour implied by the same fleet at $0.50/h.
    pub const USD_PER_VCPU_HOUR_PREEMPTIBLE: f64 = 0.50 / 40.0;

    fn price(vcpus: u32) -> (f64, f64) {
        (
            vcpus as f64 * USD_PER_VCPU_HOUR,
            vcpus as f64 * USD_PER_VCPU_HOUR_PREEMPTIBLE,
        )
    }

    /// The server instance: 8 vCPU, 2.3 GHz, 61 GB, up to 10 Gbps.
    pub fn server() -> InstanceSpec {
        let (std, pre) = price(8);
        InstanceSpec {
            name: "server-8v-2.3".into(),
            vcpus: 8,
            clock_ghz: 2.3,
            ram_gb: 61.0,
            bandwidth_gbps: 10.0,
            hourly_usd: std,
            hourly_usd_preemptible: pre,
        }
    }

    /// Client row 1: 8 vCPU, 2.2 GHz, 32 GB, up to 5 Gbps.
    pub fn client_8v_2_2() -> InstanceSpec {
        let (std, pre) = price(8);
        InstanceSpec {
            name: "client-8v-2.2".into(),
            vcpus: 8,
            clock_ghz: 2.2,
            ram_gb: 32.0,
            bandwidth_gbps: 5.0,
            hourly_usd: std,
            hourly_usd_preemptible: pre,
        }
    }

    /// Client row 2: 8 vCPU, 2.5 GHz, 32 GB, up to 5 Gbps.
    pub(crate) fn client_8v_2_5() -> InstanceSpec {
        let (std, pre) = price(8);
        InstanceSpec {
            name: "client-8v-2.5".into(),
            vcpus: 8,
            clock_ghz: 2.5,
            ram_gb: 32.0,
            bandwidth_gbps: 5.0,
            hourly_usd: std,
            hourly_usd_preemptible: pre,
        }
    }

    /// Client row 3: 8 vCPU, 2.8 GHz, 15 GB, up to 2 Gbps.
    pub fn client_8v_2_8() -> InstanceSpec {
        let (std, pre) = price(8);
        InstanceSpec {
            name: "client-8v-2.8".into(),
            vcpus: 8,
            clock_ghz: 2.8,
            ram_gb: 15.0,
            bandwidth_gbps: 2.0,
            hourly_usd: std,
            hourly_usd_preemptible: pre,
        }
    }

    /// Client row 4: 16 vCPU, 2.8 GHz, 30 GB, up to 2 Gbps.
    pub(crate) fn client_16v_2_8() -> InstanceSpec {
        let (std, pre) = price(16);
        InstanceSpec {
            name: "client-16v-2.8".into(),
            vcpus: 16,
            clock_ghz: 2.8,
            ram_gb: 30.0,
            bandwidth_gbps: 2.0,
            hourly_usd: std,
            hourly_usd_preemptible: pre,
        }
    }

    /// All four client rows, in table order.
    pub fn client_types() -> Vec<InstanceSpec> {
        vec![
            client_8v_2_2(),
            client_8v_2_5(),
            client_8v_2_8(),
            client_16v_2_8(),
        ]
    }

    /// A homogeneous fleet of `n` reference clients (the P5C5T2 fleet shape).
    pub fn uniform_fleet(n: usize) -> Vec<InstanceSpec> {
        (0..n).map(|_| client_8v_2_2()).collect()
    }

    /// A heterogeneous fleet cycling through the client catalog —
    /// the "different types of instances" configuration of §III-E.
    pub fn mixed_fleet(n: usize) -> Vec<InstanceSpec> {
        let types = client_types();
        (0..n).map(|i| types[i % types.len()].clone()).collect()
    }
}

/// Synthesizes a volunteer fleet of `n` hosts with a heavy-tailed speed
/// distribution, in the style of BOINC host-population generators (cf. the
/// dslab BOINC simulator): volunteer hardware is mostly mid-range with a
/// slow tail and a few fast outliers, unlike the four-row cloud catalog of
/// Table I. Deterministic in `(n, seed)` — the population is part of the
/// scenario, so fleet-scale DES runs replay bit-for-bit.
///
/// Speeds (clock GHz) are log-uniform in `[1.1, 3.52]` around the 2.2 GHz
/// reference; vCPU counts follow a 2/4/8/16 mix skewed toward small hosts;
/// RAM and bandwidth scale with size. Churn is *not* encoded here — host
/// lifetime lives in the driver's fault plan, keyed by the same scenario
/// seed.
pub fn generated_fleet(n: usize, seed: u64) -> Vec<InstanceSpec> {
    // Self-contained splitmix64 stream: no external RNG state, identical
    // output on every platform, one draw sequence per (n, seed).
    let mut state = seed ^ 0x9e3779b97f4a7c15 ^ (n as u64).rotate_left(32);
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
    (0..n)
        .map(|i| {
            // Log-uniform over [0.5, 1.6] × reference ⇒ mostly mid-range,
            // thin fast tail.
            let speed = 0.5 * (1.6f64 / 0.5).powf(unit());
            let clock_ghz = (2.2 * speed * 100.0).round() / 100.0;
            let vcpus = match (unit() * 10.0) as u32 {
                0..=3 => 2,
                4..=6 => 4,
                7..=8 => 8,
                _ => 16,
            };
            let ram_gb = vcpus as f64 * 2.0;
            let bandwidth_gbps = match vcpus {
                2 => 0.5,
                4 => 1.0,
                8 => 2.0,
                _ => 5.0,
            };
            let (hourly_usd, hourly_usd_preemptible) = (
                vcpus as f64 * table1::USD_PER_VCPU_HOUR,
                vcpus as f64 * table1::USD_PER_VCPU_HOUR_PREEMPTIBLE,
            );
            InstanceSpec {
                name: format!("gen-{i}-{vcpus}v-{clock_ghz}"),
                vcpus,
                clock_ghz,
                ram_gb,
                bandwidth_gbps,
                hourly_usd,
                hourly_usd_preemptible,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::table1;

    #[test]
    fn table1_matches_paper_rows() {
        let s = table1::server();
        assert_eq!(
            (s.vcpus, s.clock_ghz, s.ram_gb, s.bandwidth_gbps),
            (8, 2.3, 61.0, 10.0)
        );
        let c = table1::client_types();
        assert_eq!(c.len(), 4);
        assert_eq!(c[0].vcpus, 8);
        assert_eq!(c[0].clock_ghz, 2.2);
        assert_eq!(c[2].ram_gb, 15.0);
        assert_eq!(c[3].vcpus, 16);
        assert_eq!(c[3].bandwidth_gbps, 2.0);
    }

    #[test]
    fn p5c5_fleet_price_matches_sec4e() {
        // 5 × 8-vCPU clients: $1.67/h standard, $0.50/h preemptible.
        let fleet = table1::uniform_fleet(5);
        let std: f64 = fleet.iter().map(|c| c.hourly_usd).sum();
        let pre: f64 = fleet.iter().map(|c| c.hourly_usd_preemptible).sum();
        assert!((std - 1.67).abs() < 1e-9, "{std}");
        assert!((pre - 0.50).abs() < 1e-9, "{pre}");
        // The paper's 8-hour experiment: $13.4 vs $4.
        assert!((std * 8.0 - 13.36).abs() < 0.1);
        assert!((pre * 8.0 - 4.0).abs() < 0.05);
    }

    #[test]
    fn core_speed_is_relative_to_reference() {
        assert!((table1::client_8v_2_2().core_speed() - 1.0).abs() < 1e-12);
        assert!(table1::client_8v_2_8().core_speed() > 1.2);
    }

    #[test]
    fn mixed_fleet_cycles_types() {
        let f = table1::mixed_fleet(6);
        assert_eq!(f[0].name, f[4].name);
        assert_ne!(f[0].name, f[1].name);
    }

    #[test]
    fn generated_fleet_is_deterministic_and_heterogeneous() {
        let a = super::generated_fleet(1000, 7);
        let b = super::generated_fleet(1000, 7);
        assert_eq!(a, b, "same (n, seed) must be identical");
        let c = super::generated_fleet(1000, 8);
        assert_ne!(a, c, "the seed must matter");
        // Speeds live in the documented log-uniform band and actually vary.
        let (mut lo, mut hi) = (f64::MAX, f64::MIN);
        for h in &a {
            assert!(
                h.clock_ghz >= 1.09 && h.clock_ghz <= 3.53,
                "{}",
                h.clock_ghz
            );
            lo = lo.min(h.clock_ghz);
            hi = hi.max(h.clock_ghz);
        }
        assert!(hi / lo > 2.0, "population spans slow and fast hosts");
        // The vCPU mix skews toward small hosts.
        let small = a.iter().filter(|h| h.vcpus <= 4).count();
        assert!(small > a.len() / 2, "{small}/1000 small hosts");
    }
}
