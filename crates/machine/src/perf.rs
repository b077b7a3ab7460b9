//! Analytic wall-clock prediction: counted work + counted traffic → 1997
//! seconds.
//!
//! The substitution at the heart of this reproduction (documented in
//! DESIGN.md): algorithms run for real on the simulated message-passing
//! machine, producing exact interaction counts and per-rank traffic
//! counters; this module converts those counts into predicted wall-clock on
//! the paper's hardware using the paper's own measured constants (kernel
//! Mflops per Pentium Pro, ethernet/mesh latency and bandwidth). Predicted
//! Gflops and $/Mflop follow.

use crate::specs::MachineSpec;
use hot_comm::TrafficStats;

/// A phase of computation to predict: counted flops plus per-rank traffic.
#[derive(Clone, Debug, Default)]
pub struct PhaseCount {
    /// Total flops across all ranks (paper counting convention).
    pub flops: u64,
    /// Largest per-rank flop share (load imbalance); 0 ⇒ assume flops/np.
    pub max_rank_flops: u64,
    /// Per-rank traffic counters.
    pub traffic: Vec<TrafficStats>,
}

/// Predicted timing breakdown.
#[derive(Clone, Copy, Debug)]
pub struct Prediction {
    /// Compute seconds (busiest rank).
    pub compute_s: f64,
    /// Communication seconds (busiest rank).
    pub comm_s: f64,
    /// Total wall-clock (compute and communication overlap is not
    /// assumed — the paper's code overlaps, so this is conservative;
    /// `max(compute, comm)` is the optimistic bound, also reported).
    pub serial_s: f64,
    /// Overlapped bound.
    pub overlapped_s: f64,
    /// Sustained Mflops at `serial_s`.
    pub mflops: f64,
}

/// Predict a phase's wall-clock on `machine`.
pub fn predict(machine: &MachineSpec, phase: &PhaseCount) -> Prediction {
    let np = machine.procs().max(1) as f64;
    let per_rank_flops = if phase.max_rank_flops > 0 {
        phase.max_rank_flops as f64
    } else {
        phase.flops as f64 / np
    };
    let compute_s = per_rank_flops / (machine.nbody_mflops_per_proc * 1e6);
    let comm_s = machine.network.phase_comm_time(&phase.traffic);
    let serial_s = compute_s + comm_s;
    let overlapped_s = compute_s.max(comm_s);
    Prediction {
        compute_s,
        comm_s,
        serial_s,
        overlapped_s,
        mflops: phase.flops as f64 / serial_s.max(1e-300) / 1e6,
    }
}

/// Scale measured per-rank traffic from an `np_measured`-rank run to the
/// target machine's rank count, assuming the per-rank message count stays
/// ~constant (true of tree codes: each rank talks to a bounded neighbour
/// set) and per-rank bytes shrink with surface-to-volume ∝ (`np_m/np_t)^{2/3`}.
pub fn scale_traffic(
    traffic: &[TrafficStats],
    np_measured: u32,
    np_target: u32,
) -> Vec<TrafficStats> {
    let byte_scale = (np_measured as f64 / np_target as f64).powf(2.0 / 3.0);
    traffic
        .iter()
        .map(|t| TrafficStats {
            sends: t.sends,
            bytes_sent: (t.bytes_sent as f64 * byte_scale) as u64,
            recvs: t.recvs,
            bytes_recvd: (t.bytes_recvd as f64 * byte_scale) as u64,
        })
        .collect()
}

/// Convenience: Gflops figure of a prediction.
pub fn gflops(p: &Prediction) -> f64 {
    p.mflops / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{ASCI_RED_6800, LOKI};

    /// Feed the model the paper's own N² benchmark counts; it must
    /// reproduce the 635 Gflops / 239 s headline (the communication of the
    /// ring algorithm is negligible at that scale).
    #[test]
    fn reproduces_nsquared_headline() {
        let flops = 1_000_000u64 * 1_000_000 * 38 * 4;
        let phase = PhaseCount { flops, max_rank_flops: 0, traffic: vec![] };
        let p = predict(&ASCI_RED_6800, &phase);
        assert!((p.serial_s - 239.3).abs() < 2.0, "predicted {} s", p.serial_s);
        assert!((p.mflops / 1e3 - 635.0).abs() < 5.0, "predicted {} Gflops", p.mflops / 1e3);
    }

    /// Loki's initial-phase treecode: 1.15e12 interactions in 36973 s.
    #[test]
    fn reproduces_loki_initial_phase() {
        let flops = (1.15e12 * 38.0) as u64;
        let phase = PhaseCount { flops, max_rank_flops: 0, traffic: vec![] };
        let p = predict(&LOKI, &phase);
        assert!(
            (p.serial_s - 36_973.0).abs() / 36_973.0 < 0.02,
            "predicted {} s vs 36973",
            p.serial_s
        );
        assert!((p.mflops - 1_186.0).abs() < 30.0, "predicted {} Mflops", p.mflops);
    }

    #[test]
    fn imbalance_slows_the_machine() {
        let flops = 1_000_000_000u64;
        let balanced = PhaseCount { flops, max_rank_flops: 0, traffic: vec![] };
        let skewed = PhaseCount {
            flops,
            max_rank_flops: flops / 4, // one rank holds 25% of all work
            traffic: vec![],
        };
        let pb = predict(&LOKI, &balanced);
        let ps = predict(&LOKI, &skewed);
        assert!(ps.serial_s > pb.serial_s * 3.0);
        assert!(ps.mflops < pb.mflops / 3.0);
    }

    #[test]
    fn comm_heavy_phase_prefers_fast_network() {
        let traffic = vec![
            TrafficStats {
                sends: 1000,
                bytes_sent: 50_000_000,
                recvs: 1000,
                bytes_recvd: 50_000_000,
            };
            4
        ];
        let phase = PhaseCount { flops: 1_000_000, max_rank_flops: 0, traffic };
        let on_loki = predict(&LOKI, &phase);
        let on_red = predict(&ASCI_RED_6800, &phase);
        assert!(on_loki.comm_s > 5.0 * on_red.comm_s);
    }

    #[test]
    fn traffic_scaling_shrinks_bytes_not_messages() {
        let t = vec![TrafficStats {
            sends: 100,
            bytes_sent: 1_000_000,
            recvs: 100,
            bytes_recvd: 1_000_000,
        }];
        let scaled = scale_traffic(&t, 16, 1024);
        assert_eq!(scaled[0].sends, 100);
        assert!(scaled[0].bytes_sent < 100_000, "bytes {}", scaled[0].bytes_sent);
    }
}
