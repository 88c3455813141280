//! Network transfer and latency models.
//!
//! Clients download the model `.json` (269 KB), the parameter `.h5`
//! (21.2 MB) and — unless cached by the sticky-file feature — a data-subset
//! `.npz` (3.9 MB), then upload their parameter copy after training. The
//! paper's fleet spans geographic regions, so WAN round-trip latency is
//! variable (§III-B). We model a transfer as
//! `rtt_jitter + bytes / (effective_share · bandwidth)`.

use crate::specs::InstanceSpec;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Network model constants.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Median WAN round-trip latency per request, seconds.
    pub rtt_median_s: f64,
    /// Lognormal sigma of the RTT jitter (0 disables jitter).
    pub rtt_sigma: f64,
    /// Fraction of the advertised "up to" bandwidth actually achieved
    /// (TCP over WAN rarely sees the ceiling).
    pub bandwidth_efficiency: f64,
    /// Compression ratio applied to file payloads before transfer —
    /// the BOINC gzip feature of §III-B (npz/h5 files are pre-compressed;
    /// the paper's 21.2 MB and 3.9 MB are already post-compression, so the
    /// default is 1.0 and harnesses lower it for the ablation).
    pub compression: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            rtt_median_s: 0.08,
            rtt_sigma: 0.5,
            bandwidth_efficiency: 0.30,
            compression: 1.0,
        }
    }
}

impl NetworkModel {
    /// Transfer time for `bytes` to/from `instance`, drawing RTT jitter
    /// from `rng`. Deterministic given the RNG state.
    pub fn transfer_s<R: Rng>(&self, instance: &InstanceSpec, bytes: usize, rng: &mut R) -> f64 {
        let rtt = if self.rtt_sigma > 0.0 {
            // Lognormal via Box–Muller on the uniform RNG.
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            self.rtt_median_s * (self.rtt_sigma * z).exp()
        } else {
            self.rtt_median_s
        };
        let payload = bytes as f64 * self.compression;
        let bytes_per_s = instance.bandwidth_gbps * self.bandwidth_efficiency * 1e9 / 8.0;
        rtt + payload / bytes_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::table1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `m`'s transfer time with its jitter switched off.
    fn expected_transfer_s(m: &NetworkModel, instance: &InstanceSpec, bytes: usize) -> f64 {
        let flat = NetworkModel {
            rtt_sigma: 0.0,
            ..m.clone()
        };
        flat.transfer_s(instance, bytes, &mut StdRng::seed_from_u64(0))
    }

    #[test]
    fn bigger_files_take_longer() {
        let m = NetworkModel::default();
        let c = table1::client_8v_2_2();
        let mut rng = StdRng::seed_from_u64(1);
        let small = m.transfer_s(&c, 1 << 10, &mut rng);
        let big = expected_transfer_s(&m, &c, 100 << 20);
        assert!(big > small);
    }

    #[test]
    fn slower_links_take_longer() {
        let m = NetworkModel {
            rtt_sigma: 0.0,
            ..Default::default()
        };
        let fast = expected_transfer_s(&m, &table1::client_8v_2_2(), 21 << 20); // 5 Gbps
        let slow = expected_transfer_s(&m, &table1::client_8v_2_8(), 21 << 20); // 2 Gbps
        assert!(slow > fast);
        let ratio = (slow - m.rtt_median_s) / (fast - m.rtt_median_s);
        assert!((ratio - 2.5).abs() < 1e-6, "bandwidth ratio {ratio}");
    }

    #[test]
    fn parameter_file_upload_is_subminute() {
        // 21.2 MB at 5 Gbps × 30% efficiency ≈ 0.11 s + RTT: transfers are
        // not the bottleneck the compute is — matching the paper, which
        // never charges transfer time as dominant.
        let m = NetworkModel::default();
        let t = expected_transfer_s(&m, &table1::client_8v_2_2(), 21 << 20);
        assert!(t < 1.0, "{t}");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let m = NetworkModel::default();
        let c = table1::client_8v_2_2();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            assert_eq!(
                m.transfer_s(&c, 1 << 20, &mut a),
                m.transfer_s(&c, 1 << 20, &mut b)
            );
        }
    }

    #[test]
    fn jitter_spreads_rtt() {
        let m = NetworkModel::default();
        let c = table1::client_8v_2_2();
        let mut rng = StdRng::seed_from_u64(9);
        let samples: Vec<f64> = (0..2000).map(|_| m.transfer_s(&c, 0, &mut rng)).collect();
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(0.0f64, f64::max);
        assert!(lo < m.rtt_median_s);
        assert!(hi > 2.0 * m.rtt_median_s, "hi {hi}");
        assert!(samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn compression_scales_payload() {
        let base = NetworkModel {
            rtt_sigma: 0.0,
            ..Default::default()
        };
        let gz = NetworkModel {
            compression: 0.5,
            rtt_sigma: 0.0,
            ..Default::default()
        };
        let c = table1::client_8v_2_8();
        let t0 = expected_transfer_s(&base, &c, 10 << 20) - base.rtt_median_s;
        let t1 = expected_transfer_s(&gz, &c, 10 << 20) - gz.rtt_median_s;
        assert!((t1 / t0 - 0.5).abs() < 1e-9);
    }
}
