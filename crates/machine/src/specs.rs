//! 1997 machine specifications, with the paper's own measured constants.

use hot_comm::{NetworkModel, TrafficStats};

/// A parallel machine of the study.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineSpec {
    /// Name.
    pub name: &'static str,
    /// Nodes installed.
    pub nodes: u32,
    /// Processors per node (both `PPro` CPUs were used as compute processors).
    pub procs_per_node: u32,
    /// CPU clock in MHz.
    pub cpu_mhz: f64,
    /// Theoretical peak Mflops per processor.
    pub peak_mflops_per_proc: f64,
    /// Measured sustained Mflops per processor on the treecode interaction
    /// kernel (back-solved from the paper's own throughput numbers).
    pub nbody_mflops_per_proc: f64,
    /// Memory per node in bytes.
    pub mem_per_node: u64,
    /// Network parameters as measured by the authors.
    pub network: NetworkModel,
    /// System price in dollars (None for the classified/government systems
    /// where the paper quotes no price).
    pub price: Option<f64>,
}

impl MachineSpec {
    /// Total processors.
    pub fn procs(&self) -> u32 {
        self.nodes * self.procs_per_node
    }

    /// Scale per-rank traffic measured on an `np_measured`-rank run to this
    /// machine's rank count, assuming the per-rank message count stays
    /// ~constant (true of tree codes: each rank talks to a bounded neighbour
    /// set) and per-rank bytes shrink with surface-to-volume ∝
    /// `(np_measured / procs)^{2/3}`.
    pub fn scale_traffic(&self, traffic: &[TrafficStats], np_measured: u32) -> Vec<TrafficStats> {
        let byte_scale = (np_measured as f64 / self.procs() as f64).powf(2.0 / 3.0);
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
}

/// ASCI Red in the partial April-1997 configuration used for the paper's
/// runs: 3400 nodes / 6800 processors, 1.36 Tflops peak. Network: 800 MB/s
/// links; MPI-measured 290 MB/s out of a node, 68/41 µs round-trip.
pub const ASCI_RED_6800: MachineSpec = MachineSpec {
    name: "ASCI Red (3400 nodes, April 1997)",
    nodes: 3400,
    procs_per_node: 2,
    cpu_mhz: 200.0,
    peak_mflops_per_proc: 200.0,
    // 635 Gflops / 6800 procs on the N² benchmark.
    nbody_mflops_per_proc: 93.4,
    mem_per_node: 128 << 20,
    network: NetworkModel::asci_red(),
    price: None,
};

/// The 2048-node partition used for the long 322M-particle run.
pub const ASCI_RED_4096: MachineSpec = MachineSpec {
    name: "ASCI Red (2048 nodes)",
    nodes: 2048,
    procs_per_node: 2,
    ..ASCI_RED_6800
};

/// Janus: a 16-processor ASCI Red partition, binary compatible with Loki —
/// same CPU and memory, ~15× faster network, better memory bandwidth.
pub const JANUS_16: MachineSpec = MachineSpec {
    name: "Janus (16 procs of ASCI Red)",
    nodes: 8,
    procs_per_node: 2,
    network: NetworkModel { latency: 30e-6, bandwidth: 160e6, injection: 160e6 },
    ..ASCI_RED_6800
};

/// Loki: 16 Pentium Pro nodes, split-switch fast ethernet. The paper
/// measured 11.5 MB/s per port, 208 µs MPI round-trip, and a ~20 MB/s
/// per-node injection ceiling from the Natoma chipset.
pub const LOKI: MachineSpec = MachineSpec {
    name: "Loki",
    nodes: 16,
    procs_per_node: 1,
    cpu_mhz: 200.0,
    peak_mflops_per_proc: 200.0,
    // 1.19 Gflops / 16 procs in the initial (well-balanced) phase.
    nbody_mflops_per_proc: 74.3,
    mem_per_node: 128 << 20,
    network: NetworkModel::loki(),
    price: Some(51_379.0),
};

/// Hyglac: Loki's Caltech sibling (single 16-way switch, EDO DRAM).
pub const HYGLAC: MachineSpec = MachineSpec {
    name: "Hyglac",
    nodes: 16,
    procs_per_node: 1,
    // Vortex kernel sustained "somewhat over 65 Mflops per processor".
    nbody_mflops_per_proc: 65.0,
    network: NetworkModel::loki(),
    price: Some(50_498.0),
    ..LOKI
};

/// Loki + Hyglac bridged at SC'96 (32 processors, $103k with the extra
/// cards and cables).
pub const LOKI_HYGLAC_SC96: MachineSpec = MachineSpec {
    name: "Loki+Hyglac (SC'96)",
    nodes: 32,
    procs_per_node: 1,
    // 2.19 Gflops / 32 procs on the 10M-particle benchmark.
    nbody_mflops_per_proc: 68.4,
    price: Some(103_000.0),
    ..LOKI
};

/// ASCI Red's measured treecode-phase rate in the well-balanced early
/// steps: 431 Gflops / 6800 processors (the paper's own figure; lower
/// than the N² kernel rate because tree traversal does useful non-flop
/// work).
pub const ASCI_RED_TREE_EARLY_MFLOPS_PER_PROC: f64 = 63.4;

/// ASCI Red's sustained treecode rate in the clustered production phase:
/// 170 Gflops / 8192 processors (load imbalance + deeper traversals).
pub const ASCI_RED_TREE_SUSTAINED_MFLOPS_PER_PROC: f64 = 20.8;

#[cfg(test)]
mod tests {
    use super::*;

    /// Aggregate sustained N-body rate in Mflops.
    fn nbody_mflops(m: &MachineSpec) -> f64 {
        f64::from(m.procs()) * m.nbody_mflops_per_proc
    }

    #[test]
    fn asci_red_headline_consistency() {
        let m = ASCI_RED_6800;
        assert_eq!(m.procs(), 6800);
        // 1.36 Tflops peak for the partial system.
        assert!((f64::from(m.procs()) * m.peak_mflops_per_proc - 1.36e6).abs() < 1e3);
        // The N² benchmark rate backs out of the spec: 6800 × 93.4 ≈ 635 G.
        assert!((nbody_mflops(&m) - 635_120.0).abs() < 1000.0);
    }

    #[test]
    fn loki_headline_consistency() {
        let m = LOKI;
        assert_eq!(m.procs(), 16);
        // 16 × 74.3 ≈ 1189 Mflops ≈ the 1.19 Gflops initial-phase figure.
        assert!((nbody_mflops(&m) - 1_188.8).abs() < 1.0);
        assert_eq!(m.price, Some(51_379.0));
    }

    #[test]
    fn network_hierarchy() {
        // ASCI Red's network beats Janus beats Loki (bandwidth), and
        // latency orders the same way.
        let (red, janus, loki) = (ASCI_RED_6800.network, JANUS_16.network, LOKI.network);
        assert!(red.bandwidth > janus.bandwidth);
        assert!(janus.bandwidth > 10.0 * loki.bandwidth);
        assert!(loki.latency > janus.latency);
    }

    #[test]
    fn traffic_scaling_shrinks_bytes_not_messages() {
        let t = vec![TrafficStats {
            sends: 100,
            bytes_sent: 1_000_000,
            recvs: 100,
            bytes_recvd: 1_000_000,
        }];
        let on_1024 = MachineSpec { nodes: 1024, ..LOKI };
        let scaled = on_1024.scale_traffic(&t, 16);
        assert_eq!(scaled[0].sends, 100);
        assert!(scaled[0].bytes_sent < 100_000, "bytes {}", scaled[0].bytes_sent);
    }

    #[test]
    fn sc96_machine() {
        assert_eq!(LOKI_HYGLAC_SC96.procs(), 32);
        let gflops = nbody_mflops(&LOKI_HYGLAC_SC96) / 1000.0;
        assert!((gflops - 2.19).abs() < 0.01, "SC96 rate {gflops}");
    }
}
