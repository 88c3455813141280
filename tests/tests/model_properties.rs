//! Property tests over the simulation models: monotonicity and scaling laws
//! the figures depend on. If any of these breaks, a calibration change has
//! altered the *qualitative* physics of the fleet.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_cost::TimeoutAnalysis;
use vc_simnet::{table1, ComputeModel, NetworkModel, PreemptionModel};

proptest! {
    /// More resident subtasks never make an individual subtask faster.
    #[test]
    fn subtask_time_monotone_in_concurrency(r in 1usize..24) {
        let m = ComputeModel::default();
        for client in table1::client_types() {
            let t1 = m.subtask_s(&client, r);
            let t2 = m.subtask_s(&client, r + 1);
            prop_assert!(t2 >= t1, "{}: T{} {} vs T{} {}", client.name, r, t1, r + 1, t2);
        }
    }

    /// Assimilation time is monotone in the in-flight backlog.
    #[test]
    fn assim_time_monotone_in_backlog(pn in 1usize..8, q in 0usize..64) {
        let m = ComputeModel::default();
        let s = table1::server();
        prop_assert!(m.assim_s(&s, pn, q + 1) >= m.assim_s(&s, pn, q));
    }

    /// Server throughput never decreases when removing backlog.
    #[test]
    fn more_ps_never_hurts_light_load(pn in 1usize..7) {
        let m = ComputeModel::default();
        let s = table1::server();
        // Below the core budget, adding a worker adds throughput.
        let demand = (pn as f64 + 1.0) * m.cores_per_ps;
        prop_assume!(demand <= s.vcpus as f64);
        // Throughput is `pn / assim_s(pn)` at a light load.
        let throughput = |pn: usize| pn as f64 / m.assim_s(&s, pn, 0);
        prop_assert!(throughput(pn + 1) > throughput(pn));
    }

    /// Expected transfer time is strictly increasing in payload size and
    /// decreasing in bandwidth.
    #[test]
    fn transfer_scaling(bytes in 1usize..100_000_000) {
        let m = NetworkModel { rtt_sigma: 0.0, ..Default::default() };
        let fast = table1::client_8v_2_2(); // 5 Gbps
        let slow = table1::client_8v_2_8(); // 2 Gbps
        // Without jitter a transfer draws nothing from the RNG.
        let mut rng = StdRng::seed_from_u64(0);
        let mut t = |c, bytes| m.transfer_s(c, bytes, &mut rng);
        prop_assert!(t(&fast, bytes + 1024) > t(&fast, bytes));
        prop_assert!(t(&slow, bytes) > t(&fast, bytes));
    }

    /// Bernoulli preemption frequency is monotone in p (within sampling
    /// tolerance) and kill points always land inside the execution window.
    #[test]
    fn preemption_rate_monotone(p_lo in 0.05f64..0.4) {
        let p_hi = p_lo + 0.3;
        let lo = PreemptionModel::BernoulliPerSubtask { p: p_lo };
        let hi = PreemptionModel::BernoulliPerSubtask { p: p_hi.min(1.0) };
        let mut rng = StdRng::seed_from_u64(7);
        let n = 3000;
        let mut hits_lo = 0;
        let mut hits_hi = 0;
        for _ in 0..n {
            if let Some(at) = lo.draw_preemption(10.0, &mut rng) {
                prop_assert!((0.0..10.0).contains(&at));
                hits_lo += 1;
            }
            if let Some(at) = hi.draw_preemption(10.0, &mut rng) {
                prop_assert!((0.0..10.0).contains(&at));
                hits_hi += 1;
            }
        }
        prop_assert!(hits_hi > hits_lo, "{hits_hi} vs {hits_lo}");
    }

    /// The binomial expectation `n·p·t_o` is linear in the subtask count
    /// and in the timeout: doubling `n_s`, then `t_o`, doubles it.
    #[test]
    fn binomial_expectation_linear(
        n_s in 1.0f64..10_000.0,
        p in 0.0f64..1.0,
        to in 1.0f64..10_000.0,
    ) {
        let a = TimeoutAnalysis { t_o: to, n_s, ..TimeoutAnalysis::paper_p5c5t2() };
        let base = a.expected_extra_s(p);
        let more_subtasks = TimeoutAnalysis { n_s: 2.0 * n_s, ..a };
        let longer_timeout = TimeoutAnalysis { t_o: 2.0 * to, ..a };
        prop_assert!((more_subtasks.expected_extra_s(p) - 2.0 * base).abs() < 1e-6 * base.max(1.0));
        prop_assert!((longer_timeout.expected_extra_s(p) - 2.0 * base).abs() < 1e-6 * base.max(1.0));
    }

    /// He-normal initialization scales inversely with fan-in: bigger layers
    /// start with proportionally smaller weights (needed for deep stacks).
    #[test]
    fn he_init_variance_scales(fan_in in 10usize..2000) {
        use vc_tensor::{tensor::he_normal_into, NormalSampler};
        let mut s = NormalSampler::seed_from(fan_in as u64);
        let mut t = vec![0.0f32; 4096];
        he_normal_into(&mut t, fan_in, &mut s);
        let var = t.iter().map(|x| x * x).sum::<f32>() / 4096.0;
        let expect = 2.0 / fan_in as f32;
        prop_assert!((var - expect).abs() / expect < 0.3, "var {} expect {}", var, expect);
    }

    /// Alpha schedules always produce values in [0, 1] over any horizon.
    #[test]
    fn alpha_schedules_bounded(e in 1usize..10_000) {
        use vc_asgd::AlphaSchedule;
        for s in [
            AlphaSchedule::Const(0.0),
            AlphaSchedule::Const(1.0),
            AlphaSchedule::VarEOverE1,
        ] {
            let a = s.alpha(e);
            prop_assert!((0.0..=1.0).contains(&a), "{:?} at {}: {}", s, e, a);
        }
    }
}
