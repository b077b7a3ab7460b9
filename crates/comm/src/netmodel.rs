//! Analytic network cost model.
//!
//! The runtime counts messages and bytes; this model converts those counts
//! into predicted communication seconds on a specific 1997 network, using
//! the latency/bandwidth figures the paper itself measured:
//!
//! * ASCI Red custom mesh: 290 MB/s out of a node (MPI), 68/41 µs round-trip.
//! * Loki switched fast ethernet: 11.5 MB/s per port, 208 µs round-trip at
//!   user (MPI) level, ~20 MB/s per-node injection ceiling imposed by the
//!   Natoma chipset's memory bus.
//!
//! A linear (latency + size/bandwidth) model is exactly the level of
//! fidelity the paper's own "Comparing machines" analysis works at.

use crate::runtime::TrafficStats;

/// Point-to-point network parameters of a machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// One-way small-message latency in seconds (half the measured
    /// round-trip at user level).
    pub latency: f64,
    /// Per-port bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Per-node injection ceiling in bytes/second (memory-bus limited on
    /// Loki's Natoma chipset; effectively the port bandwidth elsewhere).
    pub injection: f64,
}

impl NetworkModel {
    /// Loki's switched fast ethernet: 104 µs one-way latency (half the
    /// measured 208 µs MPI round-trip), 11.5 MB/s per port, 20 MB/s
    /// per-node injection ceiling (Natoma memory bus).
    pub const fn loki() -> Self {
        NetworkModel { latency: 104e-6, bandwidth: 11.5e6, injection: 20e6 }
    }

    /// ASCI Red's custom mesh: 20.5 µs one-way latency (half the 41 µs
    /// pre-processor round-trip), 290 MB/s out of a node at MPI level.
    pub const fn asci_red() -> Self {
        NetworkModel { latency: 20.5e-6, bandwidth: 290e6, injection: 290e6 }
    }

    /// Time for one rank to transmit `bytes` in `msgs` messages.
    pub fn send_time(&self, msgs: u64, bytes: u64) -> f64 {
        let bw = self.bandwidth.min(self.injection);
        msgs as f64 * self.latency + bytes as f64 / bw
    }

    /// Predicted communication seconds for a rank's traffic counters,
    /// charging both send and receive sides against the port.
    pub fn rank_comm_time(&self, t: &TrafficStats) -> f64 {
        let bw = self.bandwidth.min(self.injection);
        (t.sends + t.recvs) as f64 * 0.5 * self.latency
            + (t.bytes_sent + t.bytes_recvd) as f64 / bw
    }

    /// Predicted communication seconds for a phase: the machine waits for
    /// its busiest rank.
    pub fn phase_comm_time(&self, per_rank: &[TrafficStats]) -> f64 {
        per_rank
            .iter()
            .map(|t| self.rank_comm_time(t))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loki() -> NetworkModel {
        NetworkModel::loki()
    }

    fn asci_red() -> NetworkModel {
        NetworkModel::asci_red()
    }

    #[test]
    fn latency_dominates_small_messages() {
        let m = loki();
        let t_small = m.send_time(1000, 8_000);
        // 1000 messages of 8 bytes: latency term is 0.104 s, wire term tiny.
        assert!(t_small > 0.1 && t_small < 0.11);
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let m = loki();
        let t = m.send_time(1, 11_500_000);
        assert!((t - 1.0).abs() < 0.01, "one port-second of data: {t}");
    }

    #[test]
    fn asci_red_beats_loki_at_both_ends() {
        for (msgs, bytes) in [(1000u64, 8_000u64), (1, 10_000_000)] {
            assert!(asci_red().send_time(msgs, bytes) < loki().send_time(msgs, bytes));
        }
    }

    #[test]
    fn phase_time_is_max_over_ranks() {
        let m = loki();
        let quiet = TrafficStats::default();
        let busy = TrafficStats { sends: 10, bytes_sent: 1_000_000, recvs: 10, bytes_recvd: 0 };
        let t = m.phase_comm_time(&[quiet, busy, quiet]);
        assert!((t - m.rank_comm_time(&busy)).abs() < 1e-12);
    }

    #[test]
    fn injection_ceiling_applies() {
        // A hypothetical 4-port trunk at 46 MB/s still moves only 20 MB/s
        // through a Natoma node.
        let trunked = NetworkModel { latency: 104e-6, bandwidth: 46e6, injection: 20e6 };
        let t = trunked.send_time(1, 20_000_000);
        assert!((t - 1.0).abs() < 0.01);
    }
}
