//! Compute-time models for clients and parameter servers.
//!
//! Calibration targets, all from §IV:
//!
//! * subtask execution time `t_e ≈ 2.4 min` on the reference client at T2;
//! * the P5C5T2 experiment spans ~8 h for 40 epochs × 50 subtasks;
//! * client throughput stops improving beyond T8 on the 8-vCPU clients
//!   (vertical-scaling limit, §IV-B);
//! * server throughput stops improving beyond P5 on the 8-vCPU server
//!   (§IV-B), because parameter servers share the instance's cores;
//! * with P1C3T8, one parameter server falls behind three fast clients —
//!   assimilation dominates the epoch (Fig. 3).

use crate::specs::InstanceSpec;
use serde::{Deserialize, Serialize};

/// Client/server compute model with tunable contention constants.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ComputeModel {
    /// Subtask service time on the reference client (2.2 GHz) running one
    /// subtask per core group, in seconds. Paper: `t_e ≤ 2.4 min`.
    pub base_subtask_s: f64,
    /// Cores a single training subtask can use productively. The paper's
    /// client throughput keeps rising until T8 on the 8-vCPU clients, so a
    /// subtask is effectively single-core; concurrency beyond
    /// `vcpus / cores_per_task` slows every resident subtask proportionally.
    pub cores_per_task: f64,
    /// Per-extra-subtask scheduling/cache overhead (fractional slowdown).
    pub concurrency_overhead: f64,
    /// RAM one resident subtask needs (GiB); exceeding the instance RAM
    /// produces a steep quadratic slowdown (paging), which is what caps
    /// useful Tn at 8 on the 32 GB clients.
    pub ram_per_task_gb: f64,
    /// Quadratic paging penalty coefficient.
    pub paging_penalty: f64,
    /// Server-side assimilation CPU time per result (validation forward
    /// pass + blend), in seconds, on the reference server core.
    pub assim_cpu_s: f64,
    /// Cores one parameter-server worker needs; caps useful Pn on the
    /// 8-vCPU server at ~5 (paper: "throughput decreases after P5").
    pub cores_per_ps: f64,
    /// Per-extra-parameter-server coordination overhead (fractional).
    pub ps_overhead: f64,
    /// Fractional slowdown per in-flight result at the server: every
    /// queued/processing upload adds web-server, I/O and memory-bus load
    /// that stretches assimilation (the paper's "imbalance between client
    /// and server processing times" growing with Cn × Tn, §IV-B).
    pub inflight_overhead: f64,
}

impl Default for ComputeModel {
    fn default() -> Self {
        ComputeModel {
            base_subtask_s: 144.0, // 2.4 min
            cores_per_task: 1.0,
            concurrency_overhead: 0.06,
            ram_per_task_gb: 3.5,
            paging_penalty: 0.35,
            assim_cpu_s: 16.0,
            cores_per_ps: 1.5,
            ps_overhead: 0.05,
            inflight_overhead: 0.03,
        }
    }
}

impl ComputeModel {
    /// Service time of one subtask on `client` while `resident` subtasks
    /// (including this one) run concurrently.
    ///
    /// Three regimes compose multiplicatively:
    /// 1. core sharing: each subtask wants `cores_per_task` cores; when
    ///    `resident` tasks oversubscribe the instance, every task slows by
    ///    the oversubscription ratio;
    /// 2. a linear per-task overhead (context switching, cache pressure);
    /// 3. a quadratic paging penalty once aggregate RAM demand exceeds the
    ///    instance.
    pub fn subtask_s(&self, client: &InstanceSpec, resident: usize) -> f64 {
        assert!(resident >= 1, "resident must count this subtask");
        let r = resident as f64;
        let demand_cores = r * self.cores_per_task;
        let share = (demand_cores / client.vcpus as f64).max(1.0);
        let overhead = 1.0 + self.concurrency_overhead * (r - 1.0);
        let ram_demand = r * self.ram_per_task_gb;
        let over = (ram_demand - client.ram_gb).max(0.0) / self.ram_per_task_gb;
        let paging = 1.0 + self.paging_penalty * over * over;
        self.base_subtask_s / client.core_speed() * share * overhead * paging
    }

    /// CPU time of one assimilation on `server` when `active_ps` parameter-
    /// server workers are resident and `inflight` results are queued or
    /// being processed. Workers beyond the core budget slow all of them
    /// down (they share the one server instance, §IV-A); every in-flight
    /// result adds upload-handling and memory-traffic contention.
    pub fn assim_s(&self, server: &InstanceSpec, active_ps: usize, inflight: usize) -> f64 {
        assert!(active_ps >= 1);
        let demand = active_ps as f64 * self.cores_per_ps;
        let share = (demand / server.vcpus as f64).max(1.0);
        let overhead = 1.0 + self.ps_overhead * (active_ps as f64 - 1.0);
        let load = 1.0 + self.inflight_overhead * inflight as f64;
        self.assim_cpu_s / server.core_speed() * share * overhead * load
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::table1;

    /// Subtasks/second of `client` at concurrency `resident`.
    fn client_throughput(m: &ComputeModel, client: &InstanceSpec, resident: usize) -> f64 {
        resident as f64 / m.subtask_s(client, resident)
    }

    /// The concurrency in 1..=32 at which `client`'s throughput peaks.
    fn peak_concurrency(m: &ComputeModel, client: &InstanceSpec) -> usize {
        (1..=32)
            .max_by(|&a, &b| {
                client_throughput(m, client, a)
                    .partial_cmp(&client_throughput(m, client, b))
                    .unwrap()
            })
            .unwrap()
    }

    /// Results/second of `pn` parameter servers at a nominal light load.
    fn server_throughput(m: &ComputeModel, server: &InstanceSpec, pn: usize) -> f64 {
        pn as f64 / m.assim_s(server, pn, 0)
    }

    #[test]
    fn reference_t2_is_about_2_4_min() {
        let m = ComputeModel::default();
        let c = table1::client_8v_2_2();
        let t = m.subtask_s(&c, 2);
        // Two resident tasks on 8 vCPUs wanting 4 cores each: no sharing,
        // just the linear overhead.
        assert!((144.0..=160.0).contains(&t), "{t}");
        assert!(t / 60.0 <= 2.6, "t_e = {} min", t / 60.0);
    }

    #[test]
    fn faster_clock_is_faster() {
        let m = ComputeModel::default();
        let slow = m.subtask_s(&table1::client_8v_2_2(), 1);
        let fast = m.subtask_s(&table1::client_8v_2_8(), 1);
        assert!(fast < slow);
    }

    #[test]
    fn oversubscription_slows_tasks() {
        let m = ComputeModel::default();
        let c = table1::client_8v_2_2();
        let t2 = m.subtask_s(&c, 2);
        let t4 = m.subtask_s(&c, 4);
        let t8 = m.subtask_s(&c, 8);
        let t16 = m.subtask_s(&c, 16);
        assert!(t4 > t2, "linear overhead: {t2} vs {t4}");
        assert!(t8 > t4);
        assert!(t16 > 2.0 * t8, "paging + core sharing must bite at T16");
    }

    #[test]
    fn throughput_peaks_near_t8_for_32gb_client() {
        // §IV-B: "the throughput of the client computing instances in our
        // experiments decreases after T8".
        let m = ComputeModel::default();
        let peak = peak_concurrency(&m, &table1::client_8v_2_2());
        assert!((7..=9).contains(&peak), "peak at T{peak}");
        let th8 = client_throughput(&m, &table1::client_8v_2_2(), 8);
        let th12 = client_throughput(&m, &table1::client_8v_2_2(), 12);
        assert!(th12 < th8, "throughput must fall past the peak");
    }

    #[test]
    fn low_ram_client_pages_earlier() {
        let m = ComputeModel::default();
        let peak_15gb = peak_concurrency(&m, &table1::client_8v_2_8());
        let peak_32gb = peak_concurrency(&m, &table1::client_8v_2_5());
        assert!(
            peak_15gb < peak_32gb,
            "15 GB client peaks at T{peak_15gb}, 32 GB at T{peak_32gb}"
        );
    }

    #[test]
    fn server_throughput_saturates_past_p5() {
        // §IV-B: "the throughput of the server computing instance in our
        // experimental setup decreases after P5".
        let m = ComputeModel::default();
        let s = table1::server();
        let th1 = server_throughput(&m, &s, 1);
        let th3 = server_throughput(&m, &s, 3);
        let th5 = server_throughput(&m, &s, 5);
        let th8 = server_throughput(&m, &s, 8);
        assert!(th3 > 2.5 * th1, "scaling P1->P3 is near-linear");
        assert!(th5 > th3);
        // Past ~5.3 workers the cores are oversubscribed: no further gain.
        assert!(th8 <= th5 * 1.01, "P8 {th8} vs P5 {th5}");
    }

    #[test]
    fn p5c5t2_epoch_budget_is_paper_scale() {
        // 50 subtasks over 5 clients × T2: 5 waves of ~2.4 min ≈ 12 min of
        // client time per epoch; 40 epochs ≈ 8 h. Assimilation overlaps.
        let m = ComputeModel::default();
        let c = table1::client_8v_2_2();
        let per_epoch_client = (50.0 / 10.0) * m.subtask_s(&c, 2);
        let total_h = 40.0 * per_epoch_client / 3600.0;
        assert!(total_h > 6.0 && total_h < 11.0, "{total_h} h");
    }

    #[test]
    fn sixteen_vcpu_client_absorbs_more_tasks() {
        let m = ComputeModel::default();
        let t8_small = m.subtask_s(&table1::client_8v_2_5(), 8);
        let t8_big = m.subtask_s(&table1::client_16v_2_8(), 8);
        assert!(t8_big < t8_small);
    }
}
